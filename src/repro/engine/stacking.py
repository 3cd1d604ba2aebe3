"""K-stacked cell execution: one fused pass trains and attacks K grid cells.

:func:`plan_units` is the stack-packing step every backend of
:func:`repro.engine.scheduler.run_tasks` shares: the inline loop, the
pool (one unit per worker submission) and the queue's lease loop
(:func:`repro.engine.queue.run_queued_tasks`) run whatever units it
plans.  It packs compatible grid cells into :class:`~repro.snn.stack.VariantStack`
groups, and :func:`run_stacked_group` drives each group through *stacked
mirrors* of the phases of :func:`repro.engine.job.run_cell_task` — one
folded forward/backward per training batch instead of K, one folded PGD
step per attack iteration instead of K.

Exactness contract
------------------
Every per-cell value — the :class:`~repro.robustness.results.CellResult`
fields and the archived weights — is bitwise identical to the unstacked
path.  The mirrors therefore reproduce the unstacked phases *operation
for operation* per lane:

* training replays :class:`repro.training.trainer.Trainer` exactly: one
  :class:`~repro.data.dataset.DataLoader` per lane seeded with
  ``train_seed & 0x7FFFFFFF``, per-lane Adam optimizers stepping on the
  gradients the folded backward accumulated into each member's live
  parameters, per-lane gradient clipping, and the same diverged-loss
  semantics (a non-finite loss stops that lane *before* its optimizer
  step; the stack keeps driving the other lanes);
* evaluation replays ``Trainer.evaluate``'s chunking and argmax;
* the security sweep replays the engine's unscored
  :func:`repro.attacks.metrics.evaluate_attack_sweep` batch loop in the
  same order — clean predictions first, only when a member draws
  randomness (their values are unused; a Poisson encoder must consume
  its rng stream identically), then every ε crafted, then every ε
  predicted — with PGD's per-step
  arithmetic running fold-wide and its random starts drawn per lane from
  that lane's own seeded attack.

Cells the stack cannot serve fall back to the unstacked job function:
weight-cache hits (their training is a cache read, not a fused pass),
variants rejected by :func:`~repro.snn.stack.stack_compatibility`, and
attack configurations the stacked crafting does not mirror (anything but
untargeted PGD with lane-uniform hyper-parameters).  One untrusted
variant disqualifies only its own cell, never the stack.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import replace
from multiprocessing import current_process

import numpy as np

from repro.attacks.pgd import PGD
from repro.data.dataset import ArrayDataset, DataLoader
from repro.engine.cache import archive_weights
from repro.engine.job import CellTask, JobContext
from repro.errors import TrainingError
from repro.nn.module import Module
from repro.optim.adam import Adam
from repro.robustness.results import CellResult
from repro.robustness.security import robustness_curve
from repro.snn.stack import VariantStack, stack_compatibility
from repro.training.metrics import accuracy
from repro.training.trainer import TrainingConfig, clip_gradients
from repro.utils.logging import get_logger

__all__ = ["pack_stacks", "plan_units", "run_stacked_group"]

_logger = get_logger("engine")


# -- stacked training (mirror of Trainer.fit) ----------------------------------


def _train_stacked(
    stack: VariantStack,
    trainings: Sequence[TrainingConfig],
    train_set: ArrayDataset,
) -> tuple[list[bool], list[Adam]]:
    """Train every lane of ``stack`` at once.

    Returns per-lane diverged flags plus the per-lane optimizers, so the
    caller can archive Adam moments exactly as the unstacked path does
    (cross-mode archive parity: a search rung must be resumable the same
    way whether its cells trained stacked or not).

    Mirrors ``Trainer.fit``/``_run_epoch`` per lane: the loaders are
    created once (their per-epoch reshuffles must advance exactly as the
    unstacked loader's would), and a lane whose loss goes non-finite is
    deactivated *without* applying that step — the unstacked path raises
    ``TrainingError`` before ``optimizer.step()`` — leaving its weights
    exactly where the unstacked run would have abandoned them.
    """
    shared = trainings[0]
    shared.validate()
    loaders = [
        DataLoader(
            train_set,
            batch_size=training.batch_size,
            shuffle=training.shuffle,
            seed=training.seed,
        )
        for training in trainings
    ]
    optimizers = [
        Adam(
            member.parameters(),
            lr=training.learning_rate,
            weight_decay=training.weight_decay,
        )
        for member, training in zip(stack.members, trainings)
    ]
    active = [True] * stack.k
    diverged = [False] * stack.k
    for _epoch in range(shared.epochs):
        if not any(active):
            break
        for member, lane_active in zip(stack.members, active):
            if lane_active:
                member.train()
        for batches in zip(*loaders):
            if not any(active):
                break
            folded = stack.fold([images for images, _labels in batches])
            labels = [lane_labels for _images, lane_labels in batches]
            for lane, optimizer in enumerate(optimizers):
                if active[lane]:
                    optimizer.zero_grad()
            outcomes = stack.fused_loss_backward(
                folded, labels, param_lanes=list(active)
            )
            for lane, (loss_value, _logits) in enumerate(outcomes):
                if active[lane] and not np.isfinite(loss_value):
                    active[lane] = False
                    diverged[lane] = True
            for lane, optimizer in enumerate(optimizers):
                if not active[lane]:
                    continue
                if shared.max_grad_norm is not None:
                    clip_gradients(optimizer, shared.max_grad_norm)
                optimizer.step()
    return diverged, optimizers


def _evaluate_stacked(
    stack: VariantStack, dataset: ArrayDataset, eval_batch_size: int
) -> list[float]:
    """Per-lane clean accuracy; mirrors ``Trainer.evaluate``'s chunking."""
    for member in stack.members:
        member.eval()
    predictions: list[list[np.ndarray]] = [[] for _ in range(stack.k)]
    for start in range(0, len(dataset), eval_batch_size):
        chunk = dataset.images[start : start + eval_batch_size]
        logits = stack.forward_logits(stack.fold([chunk] * stack.k))
        for lane in range(stack.k):
            predictions[lane].append(logits[lane].argmax(axis=1))
    return [
        accuracy(
            np.concatenate(lane_predictions)
            if lane_predictions
            else np.empty(0, dtype=np.int64),
            dataset.labels,
        )
        for lane_predictions in predictions
    ]


# -- stacked security sweep (mirror of evaluate_attack_sweep + PGD) ------------


def _pgd_lanes_stackable(attack_lanes: Sequence[Sequence]) -> bool:
    """Whether the per-lane attack lists may run as one folded crafting.

    The fold-wide step arithmetic assumes untargeted PGD exactly (a
    subclass may have changed ``_perturb``) with every hyper-parameter
    the folded expressions share — ε, step count, step size, random
    start, clip box — equal across lanes at each sweep point.  Only the
    rng (the per-cell attack seed) may differ; random starts are drawn
    per lane.
    """
    for budget_attacks in zip(*attack_lanes):
        first = budget_attacks[0]
        for attack in budget_attacks:
            if type(attack) is not PGD or attack.targeted:
                return False
            if (
                attack.epsilon,
                attack.steps,
                attack.alpha,
                attack.random_start,
                attack.clip_min,
                attack.clip_max,
            ) != (
                first.epsilon,
                first.steps,
                first.alpha,
                first.random_start,
                first.clip_min,
                first.clip_max,
            ):
                return False
    return True


def _craft_pgd_stacked(
    stack: VariantStack,
    attacks: Sequence[PGD],
    folded: np.ndarray,
    x: np.ndarray,
    labels: Sequence[np.ndarray],
    clean_gradient: np.ndarray | None,
) -> np.ndarray:
    """Folded twin of ``PGD.generate`` at one budget.

    ``attacks`` holds one lane's attack per stack lane (equal
    hyper-parameters, per-lane rngs).  Each lane's attack draws its own
    start point — in lane order, one draw per batch, exactly as the
    unstacked sweep consumes each attack's stream — and
    :meth:`~repro.attacks.pgd.PGD.descend` then iterates fold-wide, which
    is elementwise and therefore per-lane bitwise identical to the
    unstacked loop.
    """
    shared = attacks[0]
    if shared.epsilon == 0.0:
        return folded.copy()
    current = shared.descend(
        folded,
        stack.fold([attack.start_point(x) for attack in attacks]),
        lambda point: stack.fused_input_gradient(point, labels),
        clean_gradient if shared.reuses_clean_gradient else None,
    )
    # generate() projects once more after _perturb.
    return shared.project(folded, current)


def _stacked_attack_sweep(
    stack: VariantStack,
    attack_lanes: Sequence[Sequence[PGD]],
    dataset: ArrayDataset,
    batch_size: int,
) -> list[list[float]]:
    """Per-lane robustness fractions, one folded sweep for all lanes.

    Mirrors the batch loop of the engine's unscored
    :func:`repro.attacks.metrics.evaluate_attack_sweep` in execution
    order: clean predictions, the shared clean gradient (when any budget
    reuses it), *all* budgets crafted, then all budgets predicted.  Cell
    results read only the adversarial accuracies, so the clean forward
    runs only when a member draws randomness (a Poisson encoder): its
    lanes then consume their rng streams exactly as the unstacked sweep
    would.  Perturbation norms are skipped — pure rng-free numpy the cell
    result never reads.
    """
    for member in stack.members:
        member.eval()
    images, all_labels = dataset.images, dataset.labels
    n = len(images)
    budgets = len(attack_lanes[0])
    need_gradient = any(
        attack.reuses_clean_gradient for lane in attack_lanes for attack in lane
    )
    clean_pass = any(member.forward_draws_randomness() for member in stack.members)
    adv_correct = [[0] * budgets for _ in range(stack.k)]
    for start in range(0, n, batch_size):
        x = images[start : start + batch_size]
        y = all_labels[start : start + batch_size]
        folded = stack.fold([x] * stack.k)
        labels = [y] * stack.k
        if clean_pass:
            stack.forward_logits(folded)  # clean predictions (rng-stream parity)
        gradient = (
            stack.fused_input_gradient(folded, labels) if need_gradient else None
        )
        crafted = [
            _craft_pgd_stacked(
                stack,
                [lane[index] for lane in attack_lanes],
                folded,
                x,
                labels,
                gradient,
            )
            for index in range(budgets)
        ]
        for index in range(budgets):
            logits = stack.forward_logits(crafted[index])
            for lane in range(stack.k):
                adv_correct[lane][index] += int((logits[lane].argmax(axis=1) == y).sum())
    return [[correct / n for correct in lane] for lane in adv_correct]


# -- one stacked group ---------------------------------------------------------


def run_stacked_group(
    context: JobContext,
    tasks: Sequence[CellTask],
    models: Sequence[Module],
) -> list[CellResult]:
    """Evaluate a compatible group of cells through one variant stack.

    The stacked sibling of :func:`repro.engine.job.run_cell_task`: same
    phases, same per-cell values, one folded pass.  ``models`` are the
    freshly built (untrained) members, one per task; the tasks share
    their attack families and ε list (:func:`pack_stacks` groups them
    so).  Group wall clock is split evenly across lanes in the per-cell
    ``phase_seconds`` — the fused pass genuinely amortises the work, so
    "this cell's share" is the honest per-cell cost.
    """
    start = time.perf_counter()
    k = len(tasks)
    stack = VariantStack(models)
    trainings = [
        replace(context.training, seed=task.train_seed & 0x7FFFFFFF) for task in tasks
    ]
    train_diverged, optimizers = _train_stacked(stack, trainings, context.train_set)
    accuracies = _evaluate_stacked(
        stack, context.clean_eval_set, context.training.eval_batch_size
    )
    clean = [
        0.0 if diverged else acc for diverged, acc in zip(train_diverged, accuracies)
    ]
    if context.accuracy_threshold is None and any(train_diverged):
        raise TrainingError(f"training of {tasks[train_diverged.index(True)].key} diverged")
    learnable = [
        context.passes_gate(acc, diverged) for acc, diverged in zip(clean, train_diverged)
    ]
    for lane, task in enumerate(tasks):
        if not train_diverged[lane]:
            # Diverged weights are useless for re-sweeps; don't archive them.
            archive_weights(
                context.weight_cache,
                task.key,
                task.train_seed,
                models[lane].state_dict(),
                {
                    "clean_accuracy": clean[lane],
                    "kind": task.kind,
                    "params": dict(task.params),
                    "epochs": context.training.epochs,
                },
                optimizer_state=optimizers[lane].state_dict(),
            )
    train_phase = time.perf_counter() - start

    attacked = [lane for lane in range(k) if learnable[lane]]
    curves: list[dict[str, dict[float, float]]] = [{} for _ in range(k)]
    attack_phase = 0.0
    if attacked:
        attack_start = time.perf_counter()
        if context.attack_prep is not None:
            for lane in attacked:
                context.attack_prep(models[lane], tasks[lane])
        epsilons = [float(epsilon) for epsilon in tasks[0].epsilons]
        for name in tasks[0].attacks:
            attack_lanes = [
                [
                    context.build_attack(name, epsilon, tasks[lane].attack_seed)
                    for epsilon in epsilons
                ]
                for lane in attacked
            ]
            stacked_attack = len(attacked) > 1 and _pgd_lanes_stackable(attack_lanes)
            if stacked_attack:
                try:
                    attack_stack = VariantStack([models[lane] for lane in attacked])
                except ValueError:
                    stacked_attack = False
            if stacked_attack:
                fractions = _stacked_attack_sweep(
                    attack_stack, attack_lanes, context.attack_set,
                    context.attack_batch_size,
                )
                for position, lane in enumerate(attacked):
                    curves[lane][name] = dict(zip(epsilons, fractions[position]))
                continue
            for lane in attacked:
                task = tasks[lane]
                curve = robustness_curve(
                    models[lane],
                    context.attack_set,
                    task.epsilons,
                    lambda eps, name=name, seed=task.attack_seed: context.build_attack(
                        name, eps, seed
                    ),
                    label=task.key,
                    batch_size=context.attack_batch_size,
                )
                curves[lane][name] = dict(zip(curve.epsilons, curve.robustness))
        attack_phase = time.perf_counter() - attack_start

    results: list[CellResult] = []
    attack_share = attack_phase / len(attacked) if attacked else 0.0
    for lane, task in enumerate(tasks):
        phase_seconds = {"train_s": train_phase / k}
        if learnable[lane]:
            phase_seconds["attack_s"] = attack_share
        results.append(
            CellResult(
                v_th=task.v_th,
                time_window=task.time_window,
                clean_accuracy=clean[lane],
                learnable=learnable[lane],
                diverged=train_diverged[lane],
                curves=curves[lane],
                elapsed_seconds=sum(phase_seconds.values()),
                phase_seconds=phase_seconds,
                worker=current_process().name,
                stack_size=k,
                stack_index=lane,
            )
        )
    return results


# -- packing + the unit plan ---------------------------------------------------


def pack_stacks(
    context: JobContext, tasks: Sequence[CellTask], stack: int
) -> tuple[list[tuple[list[CellTask], list[Module]]], list[CellTask]]:
    """Greedily pack ``tasks`` into compatible groups of at most ``stack``.

    Returns ``(groups, singles)`` where each group pairs its tasks with
    their freshly built member models (reused by the group run, so the
    factory's deterministic init rng is consumed exactly once per cell).
    Packing is greedy over the given task order: a seed task opens a
    group, every later task whose model co-stacks with the group joins
    until the group is full, and rejected candidates (including those
    sweeping other attack families or budgets) are requeued in order for
    the next group.  Cells whose trained weights are already
    archived are diverted to ``singles`` — their "training" is a cache
    read the stacked trainer has no business mirroring — as are cells
    named by the context's warm-start plan (the fused trainer always
    lane-folds from cold init; a warm resume must go through
    :func:`~repro.engine.job.run_cell_task` so stacked and unstacked
    runs of the same plan stay bitwise identical) and cells whose models
    fail :func:`~repro.snn.stack.stack_compatibility` on their own (the
    trusted-twin fallback, per cell, not per stack).
    """
    weight_cache = context.weight_cache
    reuse = weight_cache is not None and context.reuse_weights
    warm_plan = context.warm_start or {}
    singles: list[CellTask] = []
    queue: deque[CellTask] = deque()
    for task in tasks:
        if reuse and weight_cache.path_for(task.key, task.train_seed).is_file():
            singles.append(task)
        elif task.index in warm_plan:
            singles.append(task)
        else:
            queue.append(task)
    groups: list[tuple[list[CellTask], list[Module]]] = []
    while queue:
        task = queue.popleft()
        model = context.model_builder(task)
        reason = stack_compatibility([model])
        if reason is not None:
            _logger.info("%s runs unstacked: %s", task.key, reason)
            singles.append(task)
            continue
        group_tasks = [task]
        group_models = [model]
        rejected: list[CellTask] = []
        while queue and len(group_tasks) < stack:
            candidate = queue.popleft()
            if (candidate.attacks, candidate.epsilons) != (task.attacks, task.epsilons):
                rejected.append(candidate)
                continue
            candidate_model = context.model_builder(candidate)
            if stack_compatibility(group_models + [candidate_model]) is None:
                group_tasks.append(candidate)
                group_models.append(candidate_model)
            else:
                rejected.append(candidate)
        queue = deque(rejected + list(queue))
        if len(group_tasks) == 1:
            singles.append(task)
        else:
            groups.append((group_tasks, group_models))
    return groups, singles


def plan_units(
    context: JobContext,
    tasks: Sequence,
    run_fn: Callable,
    stack: int,
) -> list[tuple[list, Callable[[], list]]]:
    """Split ``tasks`` into execution units ``(unit_tasks, run)``.

    ``run()`` returns one result per task of its unit, in unit order.
    With ``stack > 1`` and at least two tasks, :func:`pack_stacks` packs
    compatible cells into groups that each run as one
    :func:`run_stacked_group` pass; every other task is a one-task unit
    run as ``run_fn(context, task)``.  Groups come first, then singles.
    """
    groups, singles = (
        pack_stacks(context, tasks, stack)
        if stack > 1 and len(tasks) > 1
        else ([], list(tasks))
    )
    units: list[tuple[list, Callable[[], list]]] = [
        (group, lambda group=group, models=models: run_stacked_group(context, group, models))
        for group, models in groups
    ]
    units += [([task], lambda t=task: [run_fn(context, t)]) for task in singles]
    return units
