"""Command-line entry point: ``python -m repro.experiments``.

Examples
--------
Run the Figure-6/7/8 grid at smoke scale and save everything::

    python -m repro.experiments grid --profile smoke --out results/

Run any engine-backed experiment on two worker processes, then continue
after an interrupt::

    python -m repro.experiments fig9 --profile smoke --jobs 2
    python -m repro.experiments fig9 --profile smoke --jobs 2 --resume

Re-attack the cached trained models with a different ε list (no
retraining thanks to the weight cache)::

    python -m repro.experiments fig9 --profile smoke --resume --epsilons 0.4,0.8,1.6

Run one ablation factor on a platform without ``fork``::

    python -m repro.experiments ablation --factor surrogate --start-method spawn --jobs 2

Inspect and prune the checkpoint/weight caches::

    python -m repro.experiments cache stats --cache-dir results/cell_cache
    python -m repro.experiments cache gc --cache-dir results/cell_cache --max-age-days 7

See ``docs/cli.md`` for the full flag reference.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections.abc import Callable
from pathlib import Path

from repro.engine.cache import (
    cache_stats,
    clear_cache_dir,
    entry_provenance,
    entry_timings,
    fingerprint_matches,
    gc_cache_dir,
    scan_cache_dir,
)
from repro.engine.merge import CacheMergeError, merge_cache_dirs, verify_cache_dir
from repro.engine.metrics import (
    configure_metrics,
    flush_metrics,
    merge_snapshots,
    read_metrics_dir,
    render_snapshot_text,
)
from repro.engine.queue import DEFAULT_LEASE_TTL, QueueRunResult, queue_status
from repro.engine.resilience import (
    DEFAULT_MAX_ATTEMPTS,
    QUARANTINE_EXIT_CODE,
    ResilienceConfig,
)
from repro.engine.scheduler import START_METHODS, check_run_options
from repro.engine.search import (
    RungQuarantined,
    SearchConfig,
    check_search_options,
    derive_schedule,
    parse_budget_schedule,
)
from repro.engine.shard import ShardRunResult, ShardSpec
from repro.experiments.ablations import run_ablation_suite
from repro.experiments.fig1_motivation import run_fig1
from repro.experiments.fig678_grid import (
    fig6_table,
    fig7_table,
    fig8_table,
    run_grid_exploration,
    run_grid_search,
)
from repro.experiments.fig9_sweetspots import run_fig9
from repro.experiments.profiles import available_profiles, get_profile
from repro.experiments.sweeps import ABLATION_FACTORS
from repro.utils.atomic import write_atomic

__all__ = ["build_parser", "main"]

# The halving-only flags by their dests, which are SearchConfig's fields.
_HALVING_FLAGS = {
    "schedule": "--budget-schedule",
    "eta": "--halving-eta",
    "warm_start": "--warm-start/--no-warm-start",
    "bias_tolerance": "--bias-tolerance",
}
# The queue-only flags by their dests: lease_ttl, then ResilienceConfig's fields.
_QUEUE_FLAGS = {
    "lease_ttl": "--lease-ttl",
    "max_attempts": "--max-attempts",
    "watchdog_multiplier": "--watchdog-mult",
    "watchdog_floor": "--watchdog-floor",
}

_DEFAULT_CACHE_DIR = Path(".repro_cache") / "cells"


def _parse_epsilons(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--epsilons expects comma-separated numbers, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("--epsilons needs at least one value")
    if any(eps < 0 for eps in values):
        raise argparse.ArgumentTypeError("epsilons must be >= 0")
    return values


def _parse_shard(text: str) -> ShardSpec:
    try:
        return ShardSpec.parse(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def _parse_budget_schedule(text: str) -> tuple[int, ...]:
    try:
        return parse_budget_schedule(text)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


def build_parser() -> argparse.ArgumentParser:
    """The full CLI parser (exposed so docs checks can introspect it)."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Reproduce the figures of El-Allami et al., DATE 2021.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="command")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--profile",
        default="smoke",
        choices=available_profiles(),
        help="experiment scale (default: smoke)",
    )
    common.add_argument(
        "--out",
        type=Path,
        default=None,
        help="directory for JSON result artifacts (optional)",
    )

    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default: 1, serial; parallel runs give "
        "identical results)",
    )
    engine.add_argument(
        "--resume",
        action="store_true",
        help="reuse checkpointed results and cached trained weights from a "
        "previous (possibly interrupted) run instead of recomputing them",
    )
    engine.add_argument(
        "--no-cache",
        action="store_true",
        help="disable checkpointing and weight caching entirely",
    )
    engine.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="checkpoint/weight directory (default: <out>/cell_cache, or "
        ".repro_cache/cells without --out)",
    )
    engine.add_argument(
        "--start-method",
        choices=START_METHODS,
        default="auto",
        help="worker pool backend: auto prefers fork and falls back to "
        "spawn, which rebuilds the job context per worker (default: auto)",
    )
    engine.add_argument(
        "--shard",
        type=_parse_shard,
        default=None,
        metavar="I/N",
        help="run only shard I of an N-way task partition (task i belongs "
        "to shard i mod N; indices are zero-based).  Each shard should use "
        "its own --cache-dir; merge them afterwards with `cache merge` and "
        "render figures via an unsharded --resume run",
    )
    engine.add_argument(
        "--queue",
        type=Path,
        default=None,
        metavar="DIR",
        help="join the dynamic work queue rooted at DIR as one worker of "
        "an elastic fleet: tasks are claimed (and stolen from dead "
        "workers) instead of pre-partitioned.  All workers must share "
        "DIR and the cache directory (default: DIR/cache); watch "
        "progress with `cache watch --queue DIR` and render figures via "
        "a --resume run once complete.  Conflicts with --shard, "
        "--no-cache and --jobs > 1 (scale by starting more workers)",
    )
    engine.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="queue mode only: seconds without a heartbeat after which a "
        f"task lease counts as abandoned and may be stolen (default: "
        f"{DEFAULT_LEASE_TTL:g})",
    )
    engine.add_argument(
        "--max-attempts",
        type=int,
        default=None,
        metavar="N",
        help="queue mode only: distinct failures a task may accumulate "
        "(across the whole fleet) before it is quarantined and the rest "
        "of the grid continues without it; quarantined runs exit with "
        f"code {QUARANTINE_EXIT_CODE} (default: {DEFAULT_MAX_ATTEMPTS})",
    )
    engine.add_argument(
        "--watchdog-mult",
        dest="watchdog_multiplier",
        type=float,
        default=None,
        metavar="K",
        help="queue mode only: hung-task watchdog deadline as K x the "
        "cost model's predicted task seconds; a timed-out phase is "
        "aborted and retried like any failure.  0 disables the watchdog "
        "(default: 8)",
    )
    engine.add_argument(
        "--watchdog-floor",
        type=float,
        default=None,
        metavar="SECONDS",
        help="queue mode only: minimum watchdog deadline, and the flat "
        "deadline when the cache is cold and no cost history exists "
        "(default: 600)",
    )
    engine.add_argument(
        "--metrics-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="write per-process metrics snapshots (Prometheus text + JSON "
        "twin) into DIR: task/phase latency histograms, cache hit "
        "counters, queue and search counters.  Purely observational — "
        "results are byte-identical with or without it.  Merge a fleet's "
        "snapshots with `cache metrics DIR`",
    )

    stack = argparse.ArgumentParser(add_help=False)
    stack.add_argument(
        "--stack",
        type=int,
        default=1,
        metavar="K",
        help="pack up to K compatible grid cells into one fused "
        "VariantStack pass (default: 1, unstacked; bitwise identical per "
        "cell, and composes with --jobs: each worker runs whole stacks)",
    )

    epsilons = argparse.ArgumentParser(add_help=False)
    epsilons.add_argument(
        "--epsilons",
        type=_parse_epsilons,
        default=None,
        metavar="E1,E2,...",
        help="override the profile's noise-budget sweep; combined with "
        "--resume this reuses cached trained weights and only recomputes "
        "the security analysis",
    )

    subparsers.add_parser(
        "fig1",
        parents=[common],
        help="Fig. 1 motivational CNN-vs-SNN comparison (serial)",
    )
    grid = subparsers.add_parser(
        "grid",
        parents=[common, engine, stack],
        help="Figs. 6-8 (Vth, T) grid exploration (Algorithm 1)",
    )
    grid.add_argument(
        "--search",
        choices=("exhaustive", "halving"),
        default="exhaustive",
        help="grid strategy: exhaustive trains every cell at the full "
        "budget (the paper's Algorithm 1); halving screens cells on "
        "ascending epoch budgets and promotes only the top fraction per "
        "rung, warm-starting from cached lower-budget weights (requires a "
        "cache directory; conflicts with --shard and --no-cache)",
    )
    grid.add_argument(
        "--budget-schedule",
        dest="schedule",
        type=_parse_budget_schedule,
        default=None,
        metavar="E1,E2,...",
        help="halving only: ascending per-rung epoch budgets; the last "
        "must equal the profile's full training budget (default: a "
        "geometric schedule ending there, e.g. 2,4,8 for 8 epochs)",
    )
    grid.add_argument(
        "--halving-eta",
        dest="eta",
        type=float,
        default=None,
        metavar="ETA",
        help="halving only: keep ceil(n/ETA) cells per promotion "
        "(default: 2, classic halving)",
    )
    grid.add_argument(
        "--warm-start",
        action=argparse.BooleanOptionalAction,
        default=None,
        help="halving only: initialise promoted cells from the nearest "
        "cached lower-budget weights instead of training cold "
        "(default: enabled; audited by the warm-vs-cold bias gate, "
        "which disables it mid-search when metrics diverge beyond "
        "--bias-tolerance)",
    )
    grid.add_argument(
        "--bias-tolerance",
        type=float,
        default=None,
        metavar="DELTA",
        help="halving only: maximum warm-vs-cold divergence (absolute "
        "difference over clean accuracy and every robustness point) the "
        "bias gate accepts before disabling warm-start (default: 0.1)",
    )
    subparsers.add_parser(
        "fig9",
        parents=[common, engine, epsilons],
        help="Fig. 9 sweet-spot robustness curves vs the CNN",
    )
    ablation = subparsers.add_parser(
        "ablation",
        parents=[common, engine, epsilons],
        help="ablation suite (surrogate, encoding, reset, attack)",
    )
    ablation.add_argument(
        "--factor",
        action="append",
        choices=ABLATION_FACTORS,
        default=None,
        help="run only this factor (repeatable; default: all four)",
    )
    subparsers.add_parser(
        "all",
        parents=[common, engine, stack],
        help="every experiment in sequence, isolating failures (--stack "
        "applies to the grid step)",
    )

    cache = subparsers.add_parser(
        "cache",
        help="inspect, prune or federate checkpoint and weight caches",
        description="Each action takes only the flags it reads, after the "
        "action: `cache stats --cache-dir DIR`.",
    )
    actions = cache.add_subparsers(dest="action", required=True, metavar="action")
    cache_dir = argparse.ArgumentParser(add_help=False)
    cache_dir.add_argument(
        "--cache-dir",
        type=Path,
        default=_DEFAULT_CACHE_DIR,
        help=f"cache directory to operate on (default: {_DEFAULT_CACHE_DIR})",
    )
    fingerprint = argparse.ArgumentParser(add_help=False)
    fingerprint.add_argument(
        "--fingerprint",
        default=None,
        help="restrict to entries whose context fingerprint starts with "
        "this prefix (as shown by stats/inspect)",
    )
    as_json = argparse.ArgumentParser(add_help=False)
    as_json.add_argument(
        "--json", action="store_true", help="emit machine-readable JSON"
    )

    def action(name, run, parents, summary):
        sub = actions.add_parser(
            name, parents=parents, help=summary, description=summary
        )
        sub.set_defaults(run=run)
        return sub

    action(
        "stats", _run_cache_stats, [cache_dir, fingerprint, as_json],
        "aggregate entry counts, sizes and phase totals",
    )
    action(
        "inspect", _run_cache_inspect, [cache_dir, fingerprint, as_json],
        "list entries, newest first",
    )
    action(
        "clear", _run_cache_clear, [cache_dir, fingerprint],
        "delete every entry, or one fingerprint's",
    )
    gc = action(
        "gc", _run_cache_gc, [cache_dir, fingerprint],
        "delete entries by age and/or fingerprint",
    )
    gc.add_argument(
        "--max-age-days",
        type=float,
        default=None,
        help="delete entries last written more than this many days ago",
    )
    merge = action(
        "merge", _run_cache_merge, [as_json],
        "union shard cache directories into --into",
    )
    merge.add_argument(
        "sources",
        nargs="+",
        type=Path,
        metavar="SRC",
        help="shard cache directories to union",
    )
    merge.add_argument(
        "--into",
        type=Path,
        required=True,
        metavar="DST",
        help="destination directory receiving the union (created if "
        "missing; may already hold entries)",
    )
    action(
        "verify", _run_cache_verify, [cache_dir, as_json],
        "check a directory's shard manifest for completeness",
    )
    watch = action(
        "watch", _run_cache_watch, [as_json],
        "render a live fleet's merged queue progress",
    )
    watch.add_argument(
        "--queue",
        type=Path,
        required=True,
        metavar="DIR",
        help="the queue directory a fleet shares (the one passed to the "
        "workers' --queue); experiment queues in its subdirectories are "
        "aggregated",
    )
    watch.add_argument(
        "--follow",
        action="store_true",
        help="keep re-rendering until the queue completes instead of "
        "printing one snapshot",
    )
    metrics = action(
        "metrics", _run_cache_metrics, [as_json],
        "merge per-worker metrics snapshots into one fleet view",
    )
    metrics.add_argument(
        "directories",
        nargs="+",
        type=Path,
        metavar="DIR",
        help="--metrics-dir directories holding metrics_*.json snapshots",
    )
    for command_parser in subparsers.choices.values():
        command_parser.set_defaults(command_parser=command_parser)
    return parser


def _write_json(out_dir: Path | None, name: str, payload: dict | str) -> None:
    if out_dir is None:
        return
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}.json"
    text = payload if isinstance(payload, str) else json.dumps(payload, indent=2, sort_keys=True)
    write_atomic(path, text)
    print(f"[saved] {path}")


def _print_engine_summary(metadata: dict) -> None:
    stats = metadata.get("engine")
    if not stats:
        return
    line = (
        f"[engine] method={stats['start_method']} jobs={stats['jobs']} "
        f"cached={stats['cached_cells']} computed={stats['computed_cells']}"
    )
    if stats.get("shard"):
        line += f" shard={stats['shard']}"
    if "weights_reused" in metadata:
        line += f" weights_reused={metadata['weights_reused']}"
    print(line)


def _emit_summary(result, out_dir: Path | None, profile_name: str) -> int | None:
    """Render and persist a shard's or queue worker's completion summary.

    Returns the exit code the run deserves — ``QUARANTINE_EXIT_CODE``
    when a queue task exhausted its attempt budget, 0 otherwise — or
    ``None`` when ``result`` is a full figure for the caller to render.
    Artifacts are suffixed with the shard slice (``..._shard0of3.json``)
    or the worker id (``..._queue-host-123.json``), so shards and fleet
    workers can share an ``--out`` directory without clobbering each
    other or the eventual full-figure artifact.
    """
    if isinstance(result, ShardRunResult):
        suffix, code = f"shard{result.shard.index}of{result.shard.count}", 0
    elif isinstance(result, QueueRunResult):
        suffix = f"queue-{result.worker}"
        code = QUARANTINE_EXIT_CODE if result.quarantined else 0
    else:
        return None
    print(result.render())
    _print_engine_summary(result.metadata)
    _write_json(
        out_dir, f"{result.experiment}_{profile_name}_{suffix}", result.as_dict()
    )
    return code


def _render_figure(result, name: str, out_dir: Path | None, profile_name: str) -> int:
    """Print and persist a curve figure (fig1, fig9) or its run summary."""
    code = _emit_summary(result, out_dir, profile_name)
    if code is not None:
        return code
    print(result.render())
    _print_engine_summary(result.metadata)
    _write_json(out_dir, f"{name}_{profile_name}", result.as_dict())
    return 0


def _run_fig1(profile, out_dir: Path | None, **engine_kwargs) -> int:
    result = run_fig1(profile, verbose=True, **engine_kwargs)
    return _render_figure(result, "fig1", out_dir, profile.name)


def _run_grid(profile, out_dir: Path | None, **engine_kwargs) -> int:
    from repro.errors import ExplorationError
    from repro.robustness import select_sweet_spots

    result = run_grid_exploration(profile, verbose=True, **engine_kwargs)
    code = _emit_summary(result, out_dir, profile.name)
    if code is not None:
        return code
    print(fig6_table(result))
    print()
    print(fig7_table(result))
    print()
    print(fig8_table(result))
    for epsilon in profile.grid_epsilons:
        try:
            picks = select_sweet_spots(result, epsilon, top_k=3)
        except ExplorationError:
            continue
        print(f"\nrecommended (Vth, T) sweet spots at eps={epsilon:g}:")
        for pick in picks:
            print(f"  {pick.render()}")
    _print_engine_summary(result.metadata)
    _write_json(out_dir, f"grid_{profile.name}", result.to_json())
    return 0


def _run_grid_search(
    profile, out_dir: Path | None, search: SearchConfig, **engine_kwargs
) -> int:
    """``grid --search halving``: guided exploration instead of the sweep.

    Unlike the exhaustive queue mode, every fleet worker blocks per rung
    until the rung completes, so each one independently derives the full
    :class:`~repro.engine.search.SearchResult` — the report below is
    printed (identically) by every worker.  A queued rung that
    quarantines a candidate ends the run with ``QUARANTINE_EXIT_CODE``.
    """
    try:
        result = run_grid_search(profile, search=search, verbose=True, **engine_kwargs)
    except RungQuarantined as error:
        print(f"[quarantined] grid search: {error}", file=sys.stderr)
        return QUARANTINE_EXIT_CODE
    exploration = result.exploration()
    print(fig6_table(exploration))
    print()
    print(fig7_table(exploration))
    print()
    print(fig8_table(exploration))
    print()
    print(result.render())
    _write_json(out_dir, f"grid_search_{profile.name}", result.to_json())
    return 0


def _run_fig9(profile, out_dir: Path | None, **engine_kwargs) -> int:
    result = run_fig9(profile, verbose=True, **engine_kwargs)
    return _render_figure(result, "fig9", out_dir, profile.name)


def _run_ablation(
    profile,
    out_dir: Path | None,
    factors: tuple[str, ...] = ABLATION_FACTORS,
    **engine_kwargs,
) -> int:
    suite = run_ablation_suite(profile, factors=factors, verbose=True, **engine_kwargs)
    code = _emit_summary(suite, out_dir, profile.name)
    if code is not None:
        return code
    for factor in factors:
        result = suite[factor]
        print(result.render())
        print()
        _write_json(
            out_dir, f"ablation_{factor}_{profile.name}", result.as_dict()
        )
    first = suite[factors[0]]
    _print_engine_summary(first.metadata)
    return 0


def _format_size(size: int) -> str:
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024
    return f"{int(value)}B"


def _run_cache_merge(args) -> int:
    try:
        report = merge_cache_dirs(args.sources, args.into)
    except CacheMergeError as error:
        # Conflicting cache contents: a data problem, not a usage one.
        print(f"cache merge failed: {error}", file=sys.stderr)
        return 1
    except ValueError as error:
        # Missing source directory, destination listed as a source —
        # usage errors, reported like the other argument mistakes.
        print(f"cache merge: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.as_dict(), indent=2, sort_keys=True))
        return 0
    print(
        f"merged {len(report.sources)} source(s) into {report.destination}: "
        f"{report.copied} copied, {report.skipped_identical} identical, "
        f"{report.manifests_merged} manifest(s)"
    )
    for kind, count in sorted(report.by_kind.items()):
        print(f"  {kind}: {count} copied")
    return 0


def _run_cache_metrics(args) -> int:
    """``cache metrics DIR...``: merge per-worker snapshots into one view.

    Reads every ``metrics_*.json`` under the given ``--metrics-dir``
    directories and prints the merged fleet view — Prometheus text by
    default, the snapshot JSON with ``--json``.  Exit 2 when a DIR is not
    a directory, 1 when no snapshots exist (a run with ``--metrics-dir``
    should have left at least one) or the snapshots are incompatible.
    """
    snapshots = []
    for directory in args.directories:
        if not directory.is_dir():
            print(f"cache metrics: {directory} is not a directory", file=sys.stderr)
            return 2
        snapshots.extend(read_metrics_dir(directory))
    if not snapshots:
        dirs = ", ".join(str(s) for s in args.directories)
        print(f"no metrics snapshots (metrics_*.json) under {dirs}", file=sys.stderr)
        return 1
    try:
        merged = merge_snapshots(snapshots)
    except ValueError as error:
        print(f"cache metrics: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(merged, indent=2, sort_keys=True))
    else:
        print(render_snapshot_text(merged), end="")
    return 0


def _run_cache_verify(args) -> int:
    ok, summaries = verify_cache_dir(args.cache_dir)
    if args.json:
        print(json.dumps({"complete": ok, "manifests": summaries}, indent=2))
        return 0 if ok else 1
    if not summaries:
        print(
            f"no shard manifest under {args.cache_dir} — nothing sharded "
            "ever ran there (or the directory predates manifests)",
            file=sys.stderr,
        )
        return 1
    for summary in summaries:
        status = "complete" if summary["complete"] else (
            f"INCOMPLETE ({len(summary['missing'])} missing"
            + (f", {len(summary['failed'])} failed" if summary["failed"] else "")
            + ")"
        )
        print(
            f"{summary['experiment']} [{summary['fingerprint'][:12]}]: "
            f"{summary['completed']}/{summary['task_count']} tasks — {status}"
        )
        if summary["missing"]:
            preview = ", ".join(str(i) for i in summary["missing"][:10])
            more = "" if len(summary["missing"]) <= 10 else ", ..."
            print(f"  missing ids: {preview}{more}")
    return 0 if ok else 1


def _print_queue_status(status: dict) -> None:
    fingerprint = (status.get("fingerprint") or "")[:12]
    header = (
        f"queue {status['directory']}: {status.get('experiment') or '?'}"
        + (f" [{fingerprint}]" if fingerprint else "")
        + f" {status['done']}/{status['task_count']} done"
    )
    if status["active_leases"]:
        owners = ", ".join(
            f"task {e['task']}@{e['owner'] or '?'} ({e['heartbeat_age_s']:.1f}s)"
            for e in status["active_leases"]
        )
        header += f"; active: {owners}"
    if status["expired_leases"]:
        header += f"; {len(status['expired_leases'])} expired lease(s) to steal"
    if status.get("quarantined"):
        cells = ", ".join(str(e["task"]) for e in status["quarantined"])
        header += f"; {len(status['quarantined'])} QUARANTINED (task {cells})"
    print(header)
    for name, bucket in status["workers"].items():
        line = (
            f"  {name}: {bucket['commits']} committed"
            + (f" ({bucket['steals']} stolen)" if bucket["steals"] else "")
            + (f", {bucket['cached']} cached" if bucket["cached"] else "")
            + (f", {bucket['duplicates']} duplicate" if bucket["duplicates"] else "")
            + (f", {bucket['retries']} retried" if bucket.get("retries") else "")
            + (f", {bucket['timeouts']} timed out" if bucket.get("timeouts") else "")
            + (f", {bucket['handoffs']} handed off" if bucket.get("handoffs") else "")
            + (
                f", {bucket['quarantines']} quarantined"
                if bucket.get("quarantines")
                else ""
            )
            + (f", {bucket['failed']} FAILED" if bucket["failed"] else "")
        )
        if bucket["elapsed_s"]:
            line += f", {bucket['elapsed_s']:.1f}s"
        print(line)
    if status["phase_totals"]:
        totals = " ".join(
            f"{phase.removesuffix('_s')}={value:.1f}s"
            for phase, value in status["phase_totals"].items()
        )
        print(f"  phase totals: {totals}")


def _queue_dirs(root: Path) -> list[Path]:
    """The queue directories under ``root``: itself, or its children.

    Workers nest per-experiment queues in subdirectories (``grid/``,
    ``fig9/``, ...), so watching the root a fleet was pointed at
    aggregates every experiment it is serving.
    """
    if (root / "queue.json").is_file():
        return [root]
    return sorted(path.parent for path in root.glob("*/queue.json"))


def _run_cache_watch(args) -> int:
    """``cache watch``: merge a fleet's event streams into live progress.

    Exits 0 once every watched queue is complete, 1 on a single
    incomplete snapshot (scriptable: CI gates on it), 2 when there is no
    queue to watch — and ``QUARANTINE_EXIT_CODE`` (3) when any watched
    queue carries a quarantined task, so supervisors notice poisoned
    cells even though the fleet itself ran to completion around them.
    ``--follow`` keeps re-rendering until completion.
    """
    while True:
        dirs = _queue_dirs(args.queue)
        if not dirs:
            print(
                f"no queue manifest under {args.queue} — no fleet ever "
                "ran there (workers create queue.json on join)",
                file=sys.stderr,
            )
            return 2
        statuses = [queue_status(path) for path in dirs]
        complete = all(status["complete"] for status in statuses)
        quarantined = any(status.get("quarantined") for status in statuses)
        if args.json:
            payload = statuses[0] if len(statuses) == 1 else statuses
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for status in statuses:
                _print_queue_status(status)
        if complete:
            return QUARANTINE_EXIT_CODE if quarantined else 0
        if not args.follow:
            return QUARANTINE_EXIT_CODE if quarantined else 1
        time.sleep(1.0)


def _run_cache_stats(args) -> int:
    stats = cache_stats(args.cache_dir, fingerprint=args.fingerprint)
    if args.json:
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    print(f"cache directory: {stats['directory']}")
    print(f"entries: {stats['entries']} ({_format_size(stats['total_bytes'])})")
    for kind, bucket in sorted(stats["by_kind"].items()):
        print(
            f"  {kind}: {bucket['entries']} entries, "
            f"{_format_size(bucket['bytes'])}"
        )
    for fingerprint, count in stats["by_fingerprint"].items():
        print(f"  fingerprint {fingerprint}: {count} entries")
    timings = stats.get("timings") or {}
    if timings.get("timed_entries"):
        totals = " ".join(
            f"{key.removesuffix('_s')}={value:.1f}s"
            for key, value in timings["totals"].items()
        )
        print(
            f"  phase totals over {timings['timed_entries']} "
            f"timed entr{'y' if timings['timed_entries'] == 1 else 'ies'}: "
            f"{totals}"
        )
    provenance = stats.get("provenance") or {}
    if provenance.get("warm_started"):
        by_kind = ", ".join(
            f"{kind}: {count}"
            for kind, count in provenance["warm_started_by_kind"].items()
        )
        print(
            f"  warm-started entries: {provenance['warm_started']} "
            f"({by_kind})"
        )
    return 0


def _run_cache_inspect(args) -> int:
    entries = [
        e for e in scan_cache_dir(args.cache_dir)
        if fingerprint_matches(e, args.fingerprint)
    ]
    entries.sort(key=lambda e: e.modified, reverse=True)
    if args.json:
        print(json.dumps(
            [
                {
                    "path": str(e.path),
                    "kind": e.kind,
                    "fingerprint": e.fingerprint,
                    "size_bytes": e.size_bytes,
                    "age_seconds": round(e.age_seconds(), 1),
                    "timings": entry_timings(e),
                    "provenance": entry_provenance(e),
                }
                for e in entries
            ],
            indent=2,
        ))
        return 0
    if not entries:
        print(f"no cache entries under {args.cache_dir}")
        return 0
    for entry in entries:
        age_hours = entry.age_seconds() / 3600
        timings = entry_timings(entry)
        # Phase breakdown (train/attack/eval) shows where a cell's
        # wall time went — the signal BENCH trajectories watch.
        suffix = ""
        if timings:
            suffix = "  " + " ".join(
                f"{key.removesuffix('_s')}={value:.1f}s"
                for key, value in timings.items()
            )
        provenance = entry_provenance(entry)
        warm = (provenance or {}).get("warm_start")
        if warm:
            # Warm-start lineage: which archive seeded this one, and
            # from how far away — the trail `cache gc` keeps alive.
            suffix += (
                f"  warm<-{warm.get('source_file', '?')}"
                f"@{warm.get('source_epochs', '?')}ep"
                f" d={warm.get('distance', 0.0):.2f}"
            )
        print(
            f"{entry.kind:<8} {entry.fingerprint} "
            f"{_format_size(entry.size_bytes):>10} {age_hours:8.1f}h  "
            f"{entry.path.name}{suffix}"
        )
    return 0


def _run_cache_clear(args) -> int:
    removed = clear_cache_dir(args.cache_dir, fingerprint=args.fingerprint)
    print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
    return 0


def _run_cache_gc(args) -> int:
    if args.max_age_days is None and args.fingerprint is None:
        print(
            "cache gc needs --max-age-days and/or --fingerprint "
            "(use `cache clear` to drop everything)",
            file=sys.stderr,
        )
        return 2
    max_age = None if args.max_age_days is None else args.max_age_days * 86400.0
    try:
        removed = gc_cache_dir(
            args.cache_dir, max_age_seconds=max_age, fingerprint=args.fingerprint
        )
    except ValueError as error:
        print(f"cache gc: {error}", file=sys.stderr)
        return 2
    print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'}")
    return 0


def _given(args, flags: dict[str, str]) -> dict[str, object]:
    """The values of ``flags`` (dest -> flag) given on the command line;
    these flags default to ``None``, so any other value was given."""
    return {
        dest: getattr(args, dest)
        for dest in flags
        if getattr(args, dest, None) is not None
    }


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Argparse rejects a flag its command does not take, and the library's
    own checks (:func:`~repro.engine.scheduler.check_run_options`,
    :class:`ResilienceConfig`, :meth:`SearchConfig.validate`) reject bad
    values before anything runs; both exit 2.  The checks written here
    are the ones the library cannot make: ``--no-cache``, ``--search``
    and the flags that only a ``--queue`` run reads are CLI concepts.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    flag = argv[1] if argv[:1] == ["cache"] and len(argv) > 1 else ""
    if flag.startswith("-") and flag not in ("-h", "--help"):
        # Left to argparse, a flag's value would be read as the action
        # ("invalid choice") or the flag rejected as unrecognized.
        parser.error(
            f"cache flags follow the action, e.g. `cache stats --cache-dir DIR`; "
            f"got {flag} before the action"
        )
    args = parser.parse_args(argv)
    if args.command == "cache":
        return args.run(args)
    # The checks below report with the subcommand's usage line, as
    # argparse's own checks of its flags do.
    parser = args.command_parser

    profile = get_profile(args.profile)
    if args.command == "fig1":
        return _run_fig1(profile, args.out)

    halving = getattr(args, "search", "exhaustive") == "halving"
    for flag, given in (
        ("--cache-dir", args.cache_dir is not None),
        ("--resume", args.resume),
        # A shard's entire output *is* its cache directory.
        ("--shard", args.shard is not None),
        # The shared cache directory is how queue workers exchange results.
        ("--queue", args.queue is not None),
        # Rung results are the promotion transport and weight archives
        # the warm-start source.
        ("--search halving", halving),
    ):
        if given and args.no_cache:
            parser.error(
                f"{flag} needs the checkpoints --no-cache disables; drop --no-cache"
            )
    search_fields = _given(args, _HALVING_FLAGS)
    if search_fields and not halving:
        flag = _HALVING_FLAGS[next(iter(search_fields))]
        parser.error(f"{flag} requires --search halving")
    queue_fields = _given(args, _QUEUE_FLAGS)
    if queue_fields and args.queue is None:
        parser.error(f"{_QUEUE_FLAGS[next(iter(queue_fields))]} requires --queue")
    lease_ttl = queue_fields.pop("lease_ttl", DEFAULT_LEASE_TTL)
    if halving and args.shard is not None:
        parser.error(
            "--search halving conflicts with --shard: promotions need "
            "every cell of a rung; use --queue for a multi-host search"
        )
    cache_dir: Path | None = None
    if not args.no_cache:
        if args.cache_dir is not None:
            cache_dir = args.cache_dir
        elif args.queue is not None:
            # Every worker of a fleet must share one checkpoint directory;
            # deriving it from --out (which legitimately differs per
            # worker) would silently split the fleet's results.
            cache_dir = args.queue / "cache"
        elif args.out is not None:
            cache_dir = args.out / "cell_cache"
        else:
            cache_dir = _DEFAULT_CACHE_DIR
    stack = getattr(args, "stack", 1)
    try:
        check_run_options(
            jobs=args.jobs,
            stack=stack,
            resume=args.resume,
            cache=cache_dir,
            shard=args.shard,
            queue_dir=args.queue,
            lease_ttl=lease_ttl,
        )
        resilience = ResilienceConfig(**queue_fields)
        if halving:
            check_search_options(args.start_method, args.queue)
            full_epochs = profile.training_config().epochs
            search_config = SearchConfig(
                **{"schedule": derive_schedule(full_epochs), **search_fields}
            )
            search_config.validate(full_epochs)
    except ValueError as error:
        parser.error(str(error))
    if args.metrics_dir is not None:
        # Enable before any engine work so the scheduler, caches, queue
        # and search all record; the directory is created eagerly so a
        # bad path fails now, not after a long run.
        try:
            configure_metrics(args.metrics_dir)
        except OSError as error:
            parser.error(f"--metrics-dir {args.metrics_dir}: {error}")
    engine_kwargs = dict(
        jobs=args.jobs,
        cache_dir=cache_dir,
        resume=args.resume,
        start_method=args.start_method,
        shard=args.shard,
        queue_dir=args.queue,
        lease_ttl=lease_ttl,
        resilience=resilience,
    )
    epsilons = getattr(args, "epsilons", None)
    # dict.fromkeys: drop repeated --factor flags while keeping order
    factors = tuple(dict.fromkeys(getattr(args, "factor", None) or ABLATION_FACTORS))

    planned: list[tuple[str, Callable[[], int]]] = []
    if args.command == "all":
        planned.append(
            ("fig1", lambda: _run_fig1(profile, args.out, **engine_kwargs))
        )
    if args.command in ("grid", "all"):
        if halving:
            # The parser rejected --shard with --search halving.
            search_kwargs = {k: v for k, v in engine_kwargs.items() if k != "shard"}
            planned.append(
                (
                    "grid",
                    lambda: _run_grid_search(
                        profile, args.out, search_config, stack=stack, **search_kwargs
                    ),
                )
            )
        else:
            planned.append(
                (
                    "grid",
                    lambda: _run_grid(profile, args.out, stack=stack, **engine_kwargs),
                )
            )
    if args.command in ("fig9", "all"):
        planned.append(
            (
                "fig9",
                lambda: _run_fig9(
                    profile, args.out, epsilons=epsilons, **engine_kwargs
                ),
            )
        )
    if args.command in ("ablation", "all"):
        planned.append(
            (
                "ablation",
                lambda: _run_ablation(
                    profile,
                    args.out,
                    factors=factors,
                    epsilons=epsilons,
                    **engine_kwargs,
                ),
            )
        )

    # In "all" mode one failing experiment must not abort the rest: record
    # the failure, keep producing the other artifacts, and report a
    # non-zero exit at the end.  Single-experiment runs keep raising.
    # Steps return their own exit codes — QUARANTINE_EXIT_CODE when a
    # queue run completed around a poisoned task — and the worst one
    # wins, so a quarantine is never masked by later healthy steps.
    failed: list[str] = []
    exit_code = 0
    for name, step in planned:
        try:
            exit_code = max(exit_code, step() or 0)
        except Exception as error:
            if args.command != "all":
                raise
            failed.append(name)
            print(
                f"[failed] {name}: {type(error).__name__}: {error}",
                file=sys.stderr,
            )
        finally:
            # One snapshot per completed experiment, so a multi-step
            # `all` run leaves current metrics even if a later step dies.
            flush_metrics()
    if failed:
        print(
            f"{len(failed)}/{len(planned)} experiment(s) failed: "
            + ", ".join(failed),
            file=sys.stderr,
        )
        return max(exit_code, 1)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
