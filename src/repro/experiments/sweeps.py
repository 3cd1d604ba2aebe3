"""Spawn-safe job-context builders and task lists for the engine experiments.

Every experiment (the Fig. 1 CNN-vs-SNN motivation, the Figs. 6-8 grid,
the Fig. 9 sweet-spot tracking, the ablation suite) is one list of
:class:`~repro.engine.job.CellTask` s run by
:func:`~repro.engine.job.run_cell_task`, expressed here as two
module-level pieces:

* a **context builder** — ``build_*_context(profile, cache_dir,
  reuse_weights)`` returning the full
  :class:`~repro.engine.job.JobContext` (datasets, model builder,
  training/attack settings, the gate for the grid, optional weight
  cache).  Because the builders are importable by name, a
  :class:`~repro.engine.scheduler.ContextSpec` pointing at them lets
  *spawn* workers reconstruct profile, data and model locally instead of
  pickling closures across the process boundary;
* a **task builder** — ``build_*_tasks(profile, ...)`` expanding the
  profile into deterministically-seeded picklable tasks.

The curve runners in :mod:`repro.experiments.fig1_motivation`,
:mod:`repro.experiments.fig9_sweetspots` and
:mod:`repro.experiments.ablations` hand both to :func:`run_sweep_schedule`,
whose one :func:`repro.engine.scheduler.run_cell_tasks` call serves every
mode: local, ``shard`` or ``queue_dir``.  The grid runners in
:mod:`repro.experiments.fig678_grid` dispatch :func:`build_grid_context`'s
gated cells through the same call.
"""

from __future__ import annotations

from collections.abc import Callable
from pathlib import Path

from repro.data.transforms import normalized_bounds
from repro.engine.cache import CellCache, WeightCache, context_fingerprint, training_fingerprint
from repro.engine.job import CellTask, JobContext, make_variant_task
from repro.engine.queue import DEFAULT_LEASE_TTL, QueueRunResult
from repro.engine.resilience import ResilienceConfig
from repro.engine.scheduler import ContextSpec, run_cell_tasks
from repro.engine.shard import (
    ShardRunResult,
    ShardSpec,
    manifest_path,
    shard_run_result,
)
from repro.experiments.profiles import (
    ExperimentProfile,
    available_profiles,
    get_profile,
)
from repro.experiments.workloads import build_grid_model_factory, load_profile_data
from repro.models.registry import build_model
from repro.robustness.config import ExplorationConfig
from repro.robustness.results import CellResult
from repro.robustness.security import RobustnessCurve
from repro.snn.encoding import PoissonEncoder
from repro.snn.neuron import LIFParameters
from repro.utils.logging import get_logger
from repro.utils.seeding import SeedSequence

__all__ = [
    "ABLATION_FACTORS",
    "DEFAULT_ATTACK_FAMILIES",
    "DEFAULT_SURROGATE_FAMILIES",
    "build_ablation_context",
    "build_ablation_tasks",
    "build_fig1_context",
    "build_fig1_tasks",
    "build_fig9_context",
    "build_fig9_tasks",
    "build_grid_context",
    "grid_config",
    "run_sweep_schedule",
    "spawn_spec_for",
    "sweep_curve",
]

ABLATION_FACTORS = ("surrogate", "encoding", "reset", "attack")
"""Factors of the ablation suite, in declared execution order."""

DEFAULT_SURROGATE_FAMILIES = ("superspike", "triangle", "arctan")
"""Surrogate-gradient families compared by the surrogate ablation."""

DEFAULT_ATTACK_FAMILIES = ("pgd", "bim", "fgsm", "sign_noise", "uniform_noise")
"""Attack families compared by the attack ablation (strongest first)."""


def _as_profile(profile: ExperimentProfile | str) -> ExperimentProfile:
    if isinstance(profile, str):
        return get_profile(profile)
    return profile


def spawn_spec_for(
    builder: str,
    profile: ExperimentProfile,
    cache_dir: str | Path | None,
    reuse_weights: bool,
) -> ContextSpec | None:
    """A :class:`ContextSpec` for one of this module's context builders.

    Returns ``None`` for unregistered (ad-hoc) profiles — spawn workers
    rebuild the context by *name*, so only profiles reachable through
    :func:`~repro.experiments.profiles.get_profile` can cross a spawn
    boundary; the scheduler then falls back to fork or serial.
    """
    if profile.name not in available_profiles():
        return None
    if get_profile(profile.name) != profile:
        return None
    return ContextSpec(
        target=f"repro.experiments.sweeps:{builder}",
        kwargs={
            "profile": profile.name,
            "cache_dir": None if cache_dir is None else str(cache_dir),
            "reuse_weights": bool(reuse_weights),
        },
    )


def run_sweep_schedule(
    profile: ExperimentProfile,
    context_builder: Callable,
    tasks: list[CellTask],
    experiment: str,
    verbose: bool = False,
    jobs: int = 1,
    cache_dir: str | Path | None = None,
    resume: bool = False,
    start_method: str = "auto",
    shard: ShardSpec | None = None,
    queue_dir: str | Path | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    resilience: ResilienceConfig | None = None,
) -> tuple[list[CellResult] | ShardRunResult | QueueRunResult, dict]:
    """Shared scheduling scaffold of the engine-ported sweep experiments.

    Builds the context via ``context_builder`` (one of this module's
    ``build_*_context`` functions — its name doubles as the spawn spec
    target), wires up the result cache, progress logging and the spawn
    spec, makes the one engine dispatch call
    (:func:`repro.engine.scheduler.run_cell_tasks`, which also cost-orders the
    tasks and prices their watchdog deadlines), and returns ``(results,
    metadata)`` where metadata carries the engine stats and the
    weight-reuse count.

    With ``shard`` set, only the shard's slice of ``tasks`` is served and
    ``results`` is its :class:`~repro.engine.shard.ShardRunResult`.  With
    ``queue_dir`` set, the run joins the dynamic work queue under
    ``<queue_dir>/<experiment>`` as one worker of an elastic fleet and
    ``results`` is the worker's :class:`~repro.engine.queue.QueueRunResult`.
    Either summary is returned as the caller's result; the figure is
    rendered later, by a ``--resume`` run against the cache directory.
    Whenever a cache directory is in play, the engine certifies the
    completed task ids in the directory's shard manifest
    (``shard.json``), and ``metadata["manifest_path"]`` names it.
    """
    context = context_builder(profile, cache_dir=cache_dir, reuse_weights=resume)
    cache = None
    if cache_dir is not None:
        # The model builder cannot be hashed, so the fingerprint must pin
        # everything it derives from (model names, scales) via tags —
        # otherwise a changed model with unchanged data would hit stale
        # sweep checkpoints.
        cache = CellCache(
            cache_dir, context_fingerprint(context, tags=_model_tags(profile, experiment))
        )
    logger = get_logger(f"experiments.{experiment}")
    total = len(tasks) if shard is None else len(shard.partition(tasks))
    done = 0
    weights_reused = 0

    def progress(task: CellTask, result: CellResult, from_cache: bool) -> None:
        nonlocal done, weights_reused
        done += 1
        if not from_cache and result.weights_from_cache:
            # Count only this run's weight-cache hits; checkpointed
            # results persist the flag from the run that computed them.
            weights_reused += 1
        if not verbose:
            return
        source = "cached" if from_cache else (
            "weights reused" if result.weights_from_cache else "trained"
        )
        logger.info(
            "[%d/%d] %s acc=%.3f (%s)",
            done, total, task.key, result.clean_accuracy, source,
        )

    results, stats = run_cell_tasks(
        context,
        tasks,
        jobs=jobs,
        cache=cache,
        resume=resume,
        progress=progress,
        start_method=start_method,
        context_spec=spawn_spec_for(
            context_builder.__name__, profile, cache_dir, resume
        ),
        shard=shard,
        queue_dir=None if queue_dir is None else Path(queue_dir) / experiment,
        lease_ttl=lease_ttl,
        resilience=resilience,
        experiment=experiment,
        cache_dir=cache_dir,
    )
    if queue_dir is not None:
        # The worker's summary is the result and carries the metadata.
        results.metadata.update(profile=profile.name, weights_reused=weights_reused)
        return results, results.metadata
    metadata = {
        "profile": profile.name,
        "engine": stats.as_dict(),
        "weights_reused": weights_reused,
    }
    certified = manifest_path(cache_dir)
    if certified is not None:
        metadata["manifest_path"] = certified
    if shard is not None:
        return shard_run_result(experiment, shard, tasks, cache_dir, metadata), metadata
    return results, metadata


def sweep_curve(task: CellTask, result: CellResult) -> RobustnessCurve:
    """A task's PGD curve, in the task's ε order, as a figure series."""
    return RobustnessCurve(
        label=task.key,
        epsilons=task.epsilons,
        robustness=tuple(result.curves["pgd"][eps] for eps in task.epsilons),
        evaluations=(),
    )


# -- Figs. 6-8 grid ------------------------------------------------------------


def grid_config(profile: ExperimentProfile | str) -> ExplorationConfig:
    """The single source of truth for how a profile maps onto an
    :class:`~repro.robustness.config.ExplorationConfig` (Algorithm 1's
    inputs)."""
    profile = _as_profile(profile)
    clip_min, clip_max = normalized_bounds()
    return ExplorationConfig(
        v_thresholds=profile.v_thresholds,
        time_windows=profile.time_windows,
        epsilons=profile.grid_epsilons,
        accuracy_threshold=profile.accuracy_threshold,
        attack="pgd",
        attack_steps=profile.pgd_steps,
        clip_min=clip_min,
        clip_max=clip_max,
        training=profile.training_config(),
        seed=profile.seed,
    )


def build_grid_context(
    profile: ExperimentProfile | str,
    cache_dir: str | Path | None = None,
    reuse_weights: bool = False,
) -> JobContext:
    """Gated job context of the Figs. 6-8 grid exploration (Algorithm 1).

    The CLI parent process and every spawn worker call this same
    function, so their contexts agree by construction.
    """
    profile = _as_profile(profile)
    config = grid_config(profile)
    train, test, _ = load_profile_data(profile)
    attack_subset = test.take(profile.attack_subset)
    context = JobContext.for_grid(
        config, build_grid_model_factory(profile), train, attack_subset
    )
    if cache_dir is not None:
        fingerprint = training_fingerprint(
            train,
            config.training,
            eval_sets=(attack_subset,),
            tags=_model_tags(profile, "fig678_grid"),
        )
        context.weight_cache = WeightCache(cache_dir, fingerprint)
        context.reuse_weights = bool(reuse_weights)
    return context


# -- Fig. 1 motivation and Fig. 9 sweet spots ---------------------------------


def _model_tags(profile: ExperimentProfile, experiment: str) -> dict:
    """Weight-fingerprint tags pinning what the factories derive from."""
    fig1 = experiment == "fig1"
    return {
        "experiment": experiment,
        "profile": profile.name,
        "snn_model": profile.fig1_snn_model if fig1 else profile.snn_model,
        "cnn_model": profile.fig1_cnn_model if fig1 else profile.cnn_model,
        "image_size": profile.image_size,
        "input_scale": profile.input_scale,
        "time_steps_default": profile.time_steps_default,
    }


def _curve_model_builder(profile: ExperimentProfile, tags: dict):
    """``task -> model`` building the CNN or SNN that ``tags`` names."""

    def build(task: CellTask):
        rng = int(task.param("init_seed", task.train_seed))
        if task.kind.endswith("_cnn"):
            return build_model(
                tags["cnn_model"], input_size=profile.image_size, rng=rng
            )
        return build_model(
            tags["snn_model"],
            input_size=profile.image_size,
            time_steps=int(task.param("time_window")),
            lif_params=LIFParameters(v_th=float(task.param("v_th", 1.0))),
            input_scale=profile.input_scale,
            rng=rng,
        )

    return build


def _curve_context(
    profile: ExperimentProfile | str,
    cache_dir: str | Path | None,
    reuse_weights: bool,
    experiment: str,
) -> JobContext:
    """Ungated job context of a CNN-vs-SNN curve figure (Fig. 1 or Fig. 9).

    Clean accuracy is scored on the full test set (as in the paper's
    figure annotations); attacks run on the profile's test subset.
    """
    profile = _as_profile(profile)
    tags = _model_tags(profile, experiment)
    train, test, (clip_min, clip_max) = load_profile_data(profile)
    attack_subset = test.take(profile.attack_subset)
    context = JobContext(
        model_builder=_curve_model_builder(profile, tags),
        train_set=train,
        clean_eval_set=test,
        attack_set=attack_subset,
        training=profile.training_config(),
        attack_steps=profile.pgd_steps,
        clip_min=clip_min,
        clip_max=clip_max,
    )
    if cache_dir is not None:
        fingerprint = training_fingerprint(
            train,
            context.training,
            eval_sets=(test, attack_subset),
            tags=tags,
        )
        context.weight_cache = WeightCache(cache_dir, fingerprint)
        context.reuse_weights = bool(reuse_weights)
    return context


def build_fig1_context(
    profile: ExperimentProfile | str,
    cache_dir: str | Path | None = None,
    reuse_weights: bool = False,
) -> JobContext:
    """Job context of the Fig. 1 CNN-vs-SNN motivation."""
    return _curve_context(profile, cache_dir, reuse_weights, "fig1")


def build_fig1_tasks(profile: ExperimentProfile) -> list[CellTask]:
    """The CNN and the equal-topology SNN, one task each.  Seeds are
    Fig. 1's own — init ``child_seed("fig1", model)``, train and attack
    ``profile.seed`` — so the tasks are not made by
    :func:`~repro.engine.job.make_variant_task`."""
    seeds = SeedSequence(profile.seed)
    epsilons = tuple(float(e) for e in profile.curve_epsilons)
    time_window = {"cnn": (), "snn": (("time_window", profile.time_steps_default),)}
    return [
        CellTask(
            index=index,
            key=model,
            kind=f"fig1_{model}",
            params=(("init_seed", seeds.child_seed("fig1", model)), *time_window[model]),
            attacks=("pgd",),
            epsilons=epsilons,
            train_seed=profile.seed,
            attack_seed=profile.seed,
        )
        for index, model in enumerate(("cnn", "snn"))
    ]


def build_fig9_context(
    profile: ExperimentProfile | str,
    cache_dir: str | Path | None = None,
    reuse_weights: bool = False,
) -> JobContext:
    """Job context of the Fig. 9 sweet-spot tracking."""
    return _curve_context(profile, cache_dir, reuse_weights, "fig9")


def build_fig9_tasks(
    profile: ExperimentProfile,
    epsilons: tuple[float, ...] | None = None,
) -> list[CellTask]:
    """One task per tracked combination plus the comparator CNN.

    ``epsilons`` overrides the profile's curve sweep — the
    "security-only re-sweep" entry point: new budgets change the sweep
    checkpoints but not the weight-cache keys, so trained models are
    reused.
    """
    seeds = SeedSequence(profile.seed)
    sweep = tuple(float(e) for e in (epsilons or profile.curve_epsilons))
    tasks = [
        make_variant_task(seeds, 0, "cnn", "fig9_cnn", attacks=("pgd",), epsilons=sweep)
    ]
    for v_th, time_window in profile.sweet_spots:
        tasks.append(
            make_variant_task(
                seeds,
                len(tasks),
                f"snn_vth{v_th:g}_T{time_window}",
                "fig9_snn",
                params=(("time_window", int(time_window)), ("v_th", float(v_th))),
                attacks=("pgd",),
                epsilons=sweep,
            )
        )
    return tasks


# -- ablation suite ------------------------------------------------------------


def _ablation_model_builder(profile: ExperimentProfile):
    def build(task: CellTask):
        lif_kwargs = {"v_th": float(task.param("v_th", 1.0))}
        surrogate = task.param("surrogate")
        if surrogate is not None:
            lif_kwargs["surrogate"] = str(surrogate)
        reset_mode = task.param("reset_mode")
        if reset_mode is not None:
            lif_kwargs["reset_mode"] = str(reset_mode)
        model = build_model(
            profile.snn_model,
            input_size=profile.image_size,
            time_steps=int(task.param("time_window")),
            lif_params=LIFParameters(**lif_kwargs),
            input_scale=profile.input_scale,
            rng=task.train_seed,
        )
        if task.param("encoder") == "poisson":
            # Poisson rate coding expects non-negative intensities; the
            # scale maps normalized inputs onto spike probabilities.
            model.encoder = PoissonEncoder(
                scale=float(task.param("encoder_scale", 0.35)),
                rng=int(task.param("encoder_seed", task.train_seed)),
            )
        return model

    return build


def _ablation_attack_prep(model, task: CellTask) -> None:
    """Reset stateful encoders before the sweep (both job paths).

    The Poisson encoder's rng advances during training, so without this
    a weight-cached re-sweep (fresh encoder) would draw differently from
    the run that trained in-process.  Reseeding from the *attack* seed on
    every path makes the sweep deterministic regardless of how the
    weights were obtained.
    """
    if task.param("encoder") == "poisson":
        model.encoder = PoissonEncoder(
            scale=float(task.param("encoder_scale", 0.35)),
            rng=task.attack_seed,
        )


def build_ablation_context(
    profile: ExperimentProfile | str,
    cache_dir: str | Path | None = None,
    reuse_weights: bool = False,
) -> JobContext:
    """Ungated job context shared by all four ablation factors.

    One context serves every factor — tasks differ only in their build
    parameters and attack lists — so a single scheduler invocation can
    parallelize across the whole suite.
    """
    profile = _as_profile(profile)
    train, test, (clip_min, clip_max) = load_profile_data(profile)
    attack_subset = test.take(profile.attack_subset)
    context = JobContext(
        model_builder=_ablation_model_builder(profile),
        train_set=train,
        clean_eval_set=attack_subset,
        attack_set=attack_subset,
        training=profile.training_config(),
        attack_steps=profile.pgd_steps,
        clip_min=clip_min,
        clip_max=clip_max,
        attack_prep=_ablation_attack_prep,
    )
    if cache_dir is not None:
        fingerprint = training_fingerprint(
            train,
            context.training,
            eval_sets=(attack_subset,),
            tags=_model_tags(profile, "ablation"),
        )
        context.weight_cache = WeightCache(cache_dir, fingerprint)
        context.reuse_weights = bool(reuse_weights)
    return context


def build_ablation_tasks(
    profile: ExperimentProfile,
    factors: tuple[str, ...] = ABLATION_FACTORS,
    surrogate_families: tuple[str, ...] = DEFAULT_SURROGATE_FAMILIES,
    attack_families: tuple[str, ...] = DEFAULT_ATTACK_FAMILIES,
    epsilons: tuple[float, ...] | None = None,
) -> list[CellTask]:
    """Expand the requested ablation factors into one flat task list.

    Task keys are ``"<factor>:<variant>"`` (e.g. ``"surrogate:arctan"``),
    so results regroup by factor afterwards.  The attack ablation is a
    single task: one trained reference model swept by every attack family.
    """
    unknown = sorted(set(factors) - set(ABLATION_FACTORS))
    if unknown:
        raise ValueError(
            f"unknown ablation factors {unknown}; available: {ABLATION_FACTORS}"
        )
    seeds = SeedSequence(profile.seed)
    sweep = tuple(float(e) for e in (epsilons or profile.grid_epsilons))
    v_th = ("v_th", float(profile.sweet_spots[0][0]))
    time_window = ("time_window", profile.time_steps_default)
    tasks: list[CellTask] = []

    def add(key: str, params: tuple, attacks: tuple[str, ...] = ("pgd",)) -> None:
        tasks.append(
            make_variant_task(
                seeds, len(tasks), key, "ablation", params, attacks, sweep
            )
        )

    for factor in factors:
        if factor == "surrogate":
            for family in surrogate_families:
                add(f"surrogate:{family}", (("surrogate", family), time_window, v_th))
        elif factor == "encoding":
            add("encoding:constant_current", (("encoder", "constant"), time_window, v_th))
            add(
                "encoding:poisson_rate",
                (
                    ("encoder", "poisson"),
                    ("encoder_scale", 0.35),
                    ("encoder_seed", seeds.child_seed("ablation", "poisson")),
                    time_window,
                    v_th,
                ),
            )
        elif factor == "reset":
            for mode in ("hard", "soft"):
                add(f"reset:reset_{mode}", (("reset_mode", mode), time_window, v_th))
        elif factor == "attack":
            add(
                "attack:reference_snn",
                (time_window, v_th),
                attacks=tuple(attack_families),
            )
    return tasks
