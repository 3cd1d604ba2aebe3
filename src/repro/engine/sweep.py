"""The second job family of the engine: trained-variant ε-sweeps.

Where :mod:`repro.engine.job` evaluates one ``(Vth, T)`` *grid cell*, this
module evaluates one *trained variant*: build a model from a picklable
parameter spec, train it (or load cached weights), then sweep one or more
attack families over a list of noise budgets ε.  The Figure-9 sweet-spot
study and the whole ablation suite are expressed as lists of
:class:`SweepTask`, so they parallelize, checkpoint and resume through the
same scheduler and cache layers as the grid.

Example — one task describing the paper's high-robustness sweet spot::

    task = SweepTask(
        index=0,
        key="snn_vth1_T48",
        kind="fig9_snn",
        params=(("time_window", 48), ("v_th", 1.0)),
        attacks=("pgd",),
        epsilons=(0.0, 0.5, 1.0),
        train_seed=123,
        attack_seed=456,
    )
    result = run_sweep_task(context, task)
    result.curves["pgd"][1.0]   # robustness at eps=1

Like cell tasks, every sweep task carries its own derived seeds, so the
same task produces identical results serially, on a fork pool, or in a
spawned worker that rebuilt the context from a
:class:`~repro.engine.scheduler.ContextSpec`.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from multiprocessing import current_process
from typing import TYPE_CHECKING

from repro.attacks.metrics import evaluate_attack_sweep, evaluate_clean_accuracy
from repro.data.dataset import ArrayDataset
from repro.nn.module import Module
from repro.robustness.config import make_attack
from repro.training.trainer import Trainer, TrainingConfig
from repro.utils.seeding import SeedSequence

if TYPE_CHECKING:  # avoids a runtime cycle: engine.cache imports this module
    from repro.engine.cache import WeightCache

__all__ = [
    "SweepJobContext",
    "SweepResult",
    "SweepTask",
    "make_sweep_task",
    "run_sweep_task",
]

ModelBuilder = Callable[["SweepTask"], Module]
"""``task -> fresh untrained model`` dispatcher used per sweep variant."""


@dataclass(frozen=True)
class SweepTask:
    """Identity, build parameters and derived seeds of one variant (picklable).

    ``params`` is a sorted tuple of ``(name, value)`` pairs rather than a
    dict so tasks stay hashable and their cache-key material is stable.
    """

    index: int
    """Position in the declared task order."""

    key: str
    """Stable variant identifier, e.g. ``"cnn"`` or ``"surrogate:arctan"``.
    Doubles as the weight-cache key, so it must be unique per context."""

    kind: str
    """Builder dispatch tag (e.g. ``"fig9_cnn"``, ``"ablation"``)."""

    params: tuple[tuple[str, object], ...] = ()
    """Variant build parameters as sorted ``(name, value)`` pairs."""

    attacks: tuple[str, ...] = ("pgd",)
    """Attack families swept against the trained model."""

    epsilons: tuple[float, ...] = ()
    """Noise budgets evaluated for every attack family."""

    train_seed: int = 0
    """Seed for model initialisation and training shuffling."""

    attack_seed: int = 0
    """Seed for attack randomness (PGD random starts, noise draws)."""

    def param(self, name: str, default: object = None) -> object:
        """Look up one build parameter by name."""
        for param_name, value in self.params:
            if param_name == name:
                return value
        return default

    @property
    def cost_key(self) -> str:
        """Name of this variant's timings in the cost model
        (:mod:`repro.engine.costs`)."""
        return self.key

    @property
    def time_steps(self) -> int:
        """The ``time_window`` build parameter (0 for variants without one,
        such as the CNN), the cost model's fallback price."""
        return int(self.param("time_window", 0))


@dataclass
class SweepJobContext:
    """Everything a worker needs to evaluate any task of one sweep.

    Shipped to fork workers via inheritance, or rebuilt inside spawn
    workers from a :class:`~repro.engine.scheduler.ContextSpec` (the
    ``model_builder`` closure is why the context itself is not pickled).
    """

    model_builder: ModelBuilder
    """``task -> fresh untrained model`` (typically a profile closure)."""

    train_set: ArrayDataset
    """Training data for the Train() step."""

    clean_eval_set: ArrayDataset
    """Samples scored for the variant's clean accuracy."""

    attack_set: ArrayDataset
    """Samples attacked during the ε sweep (usually a test subset)."""

    training: TrainingConfig
    """Training hyper-parameters; the per-task seed overrides its seed."""

    attack_steps: int = 10
    """Iterations of the (iterative) attacks."""

    clip_min: float = 0.0
    """Lower bound of the valid pixel box."""

    clip_max: float = 1.0
    """Upper bound of the valid pixel box."""

    attack_batch_size: int = 32
    """Batch size used while crafting adversarial examples."""

    weight_cache: "WeightCache | None" = None
    """Optional store for trained parameters; always written when set."""

    reuse_weights: bool = False
    """Load cached weights instead of retraining (the ``--resume``
    semantics: caches are written eagerly but reused only on request)."""

    attack_prep: Callable[[Module, "SweepTask"], None] | None = None
    """Optional hook invoked on the trained model right before the attack
    sweep.  Variants with *stateful* stochastic components (e.g. a Poisson
    encoder whose rng advanced during training) reset them here from the
    task's attack seed, so the sweep draws identically whether the model
    was just trained or loaded from the weight cache."""


@dataclass(frozen=True)
class SweepResult:
    """Clean accuracy and per-attack robustness curves of one variant."""

    key: str
    """The :attr:`SweepTask.key` this result belongs to."""

    clean_accuracy: float
    """Accuracy on ``clean_eval_set`` after training."""

    curves: dict[str, dict[float, float]] = field(default_factory=dict)
    """``attack -> {epsilon -> robustness}`` for every swept family."""

    weights_from_cache: bool = field(default=False, compare=False)
    """Whether training was skipped by a weight-cache hit.

    Excluded from equality so a weight-cached re-run compares equal to
    the run that trained from scratch.
    """

    elapsed_seconds: float = field(default=0.0, compare=False)
    """Wall-clock time spent on this task (train/load + attacks)."""

    phase_seconds: dict[str, float] = field(default_factory=dict, compare=False)
    """Breakdown of :attr:`elapsed_seconds`: ``train_s`` (training or the
    cache load replacing it), ``eval_s`` (clean-accuracy pass) and
    ``attack_s`` (the ε sweeps).  Provenance, excluded from equality."""

    worker: str = field(default="", compare=False)
    """Process name that evaluated the task."""

    def curve(self, attack: str = "pgd") -> dict[float, float]:
        """The ``epsilon -> robustness`` mapping of one attack family."""
        return self.curves[attack]

    def as_dict(self) -> dict:
        """JSON-friendly representation (epsilon keys stringified)."""
        return {
            "key": self.key,
            "clean_accuracy": self.clean_accuracy,
            "curves": {
                attack: {repr(eps): value for eps, value in curve.items()}
                for attack, curve in self.curves.items()
            },
            "weights_from_cache": self.weights_from_cache,
            "elapsed_seconds": self.elapsed_seconds,
            "phase_seconds": dict(self.phase_seconds),
            "worker": self.worker,
        }

    @staticmethod
    def from_dict(payload: dict) -> "SweepResult":
        """Inverse of :meth:`as_dict`."""
        return SweepResult(
            key=str(payload["key"]),
            clean_accuracy=float(payload["clean_accuracy"]),
            curves={
                str(attack): {float(k): float(v) for k, v in curve.items()}
                for attack, curve in payload["curves"].items()
            },
            weights_from_cache=bool(payload.get("weights_from_cache", False)),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            phase_seconds={
                str(k): float(v)
                for k, v in payload.get("phase_seconds", {}).items()
            },
            worker=str(payload.get("worker", "")),
        )


def make_sweep_task(
    seeds: SeedSequence,
    index: int,
    key: str,
    kind: str,
    params: tuple[tuple[str, object], ...] = (),
    attacks: tuple[str, ...] = ("pgd",),
    epsilons: tuple[float, ...] = (),
) -> SweepTask:
    """Derive a task's seeds from its identity (the single place).

    Seeds are keyed by ``(kind, key)`` — not by the attack or ε lists — so
    a security-only re-sweep (new ε list, new attack families) addresses
    the *same* trained weights in the weight cache.
    """
    return SweepTask(
        index=index,
        key=str(key),
        kind=str(kind),
        params=tuple(params),
        attacks=tuple(attacks),
        epsilons=tuple(float(e) for e in epsilons),
        train_seed=seeds.child_seed("sweep", kind, key),
        attack_seed=seeds.child_seed("sweep", kind, key, "attack"),
    )


def run_sweep_task(context: SweepJobContext, task: SweepTask) -> SweepResult:
    """Train (or load) one variant and sweep its attacks (pure).

    With a weight cache attached and ``reuse_weights`` set, a cached
    ``state_dict`` replaces the Train() step entirely — the stored clean
    accuracy rides along in the archive metadata, so only the attack
    sweep is recomputed.
    """
    start = time.perf_counter()
    phase_seconds: dict[str, float] = {}
    model = context.model_builder(task)
    cached = None
    if context.weight_cache is not None and context.reuse_weights:
        cached = context.weight_cache.get(task.key, task.train_seed)
    if cached is not None:
        state, metadata = cached
        model.load_state_dict(state)
        clean_accuracy = float(metadata["clean_accuracy"])
        weights_from_cache = True
        phase_seconds["train_s"] = time.perf_counter() - start
    else:
        training = replace(context.training, seed=task.train_seed & 0x7FFFFFFF)
        Trainer(model, training).fit(context.train_set)
        phase_seconds["train_s"] = time.perf_counter() - start
        eval_start = time.perf_counter()
        clean_accuracy = evaluate_clean_accuracy(model, context.clean_eval_set)
        phase_seconds["eval_s"] = time.perf_counter() - eval_start
        weights_from_cache = False
        # Imported lazily: repro.engine.cache imports SweepResult from here.
        from repro.engine.cache import archive_weights

        archive_weights(
            context.weight_cache,
            task.key,
            task.train_seed,
            model.state_dict(),
            {"clean_accuracy": clean_accuracy, "kind": task.kind},
        )
    if context.attack_prep is not None:
        context.attack_prep(model, task)
    attack_start = time.perf_counter()
    curves: dict[str, dict[float, float]] = {}
    for attack_name in task.attacks:
        # One ε-shared sweep per family: clean predictions and (for
        # single-step attacks) the white-box gradient are computed once
        # and reused at every budget — identical numbers, fewer passes.
        def build_attack(epsilon: float, name: str = attack_name):
            return make_attack(
                name,
                epsilon,
                steps=context.attack_steps,
                seed=task.attack_seed,
                clip_min=context.clip_min,
                clip_max=context.clip_max,
            )

        evaluations = evaluate_attack_sweep(
            model,
            build_attack,
            task.epsilons,
            context.attack_set,
            batch_size=context.attack_batch_size,
        )
        curves[attack_name] = {
            float(epsilon): evaluation.robustness
            for epsilon, evaluation in zip(task.epsilons, evaluations)
        }
    phase_seconds["attack_s"] = time.perf_counter() - attack_start
    return SweepResult(
        key=task.key,
        clean_accuracy=clean_accuracy,
        curves=curves,
        weights_from_cache=weights_from_cache,
        elapsed_seconds=time.perf_counter() - start,
        phase_seconds=phase_seconds,
        worker=current_process().name,
    )
