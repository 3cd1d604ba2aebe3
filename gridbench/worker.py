"""One workload in its own process: set-up, warm-up, timed reps, checks.

Started by ``run.py`` with ``PYTHONPATH`` pointing at ``src`` and every BLAS
thread variable set to 1.  It speaks a two-line protocol on stdout:
``READY <json>`` once set-up is done (the parent times process start to
this line as one set-up sample; the JSON carries the host-speed probe's
reading over the set-up), then one JSON report.  Anything the program
prints goes to stderr, which the parent keeps in ``results/<workload>.log``.

The load is a closed loop: one untraced warm-up repetition at ``--quick``
sizes, then timed repetitions back to back until ``--seconds`` is spent
(at least three).
Every repetition gets a fresh cache directory, prepared outside the timer.
Untraced timed repetitions run under the host-speed probe
(``hostspeed.py``), which also converts each one's time to the unloaded
host's.  With ``--trace 1`` the timed repetitions alternate untraced and
traced, the span wrappers installed only around traced ones, so the
tracing overhead compares neighbouring repetitions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from hostspeed import HostProbe
from run import RESULTS, THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_REPS = 3
SELF_TIME_TOLERANCE = 0.05


def machine_info() -> dict:
    """What the numbers were measured on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "platform": platform.platform(),
    }


def _rep(workload, work: Path, guard, index: int, tracer=None, probe: HostProbe | None = None):
    """One repetition; returns ``(record, result or None)``."""
    from tracer import instrumented
    from workloads import science_digest

    cache_dir = workload.cache_dir(work, index)
    before = guard.snapshot()
    result, problems = None, []
    with probe.measuring() if probe is not None else contextlib.nullcontext():
        wall, cpu = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                result = workload.run(cache_dir)
            else:
                tracer.run_id = index
                with instrumented(tracer):
                    result, _ = tracer.call("experiments.run", workload.run, (cache_dir,))
        except Exception as error:  # a failed repetition is counted, not fatal
            traceback.print_exc()
            problems.append(f"raised {type(error).__name__}: {error}")
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    shutil.rmtree(cache_dir, ignore_errors=True)
    record = {
        "wall_s": wall, "cpu_s": cpu, "traced": tracer is not None,
        "digest": None, "problems": problems,
    }
    if probe is not None:
        record["unloaded_wall_s"] = probe.unloaded(wall)
        record["unloaded_cpu_s"] = probe.unloaded(cpu, cpu=True)
        record["host_speed"] = probe.speed()
    if result is not None:
        after = guard.snapshot()
        counters = {key: after[key] - before[key] for key in after}
        record["digest"] = science_digest(workload.payload(result))
        record["problems"] = workload.guards(result, counters)
    return record, result


def _committed_digest(workload: str, seed: int, quick: bool) -> str | None:
    if quick:
        return None
    committed = json.loads((HERE / "digests.json").read_text())
    return committed.get(str(seed), {}).get(workload)


def _trace_checks(workload, tracer) -> list[str]:
    """The tracer's self-checks (the digest check is shared with untraced runs)."""
    problems = []
    silent = sorted(set(workload.spans) - set(tracer.calls))
    if silent:
        problems.append(f"expected spans never fired: {', '.join(silent)}")
    for counter in ("fused_forward_count", "fused_backward_count"):
        calls = tracer.counts[f"check.{counter}.calls"]
        advanced = tracer.counts[f"check.{counter}.advanced"]
        if advanced != calls:
            problems.append(f"SpikingNetwork.{counter} advanced {advanced} for {calls} calls")
    root = tracer.inclusive["experiments.run"]
    total_self = sum(tracer.self_time.values())
    if root <= 0 or abs(total_self - root) > SELF_TIME_TOLERANCE * root:
        problems.append(f"self times sum to {total_self:.4f}s, root span is {root:.4f}s")
    return problems


def run(args, protocol) -> int:
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    probe = HostProbe()
    try:
        with probe.measuring():
            # The program is imported here, not at the top of this file, so
            # that its import time is set-up time measured under the probe.
            from tracer import GuardCounters, Tracer
            from workloads import WORKLOADS

            workload = WORKLOADS[args.workload](args.seed, args.quick)
            guard = GuardCounters()
            workload.setup(work)
        reading = {"host_speed": probe.speed(), "probe_s": probe.spent_s}
        print(f"READY {json.dumps(reading)}", file=protocol, flush=True)
        if args.setup_only:
            return 0
        # The warm-up runs the workload's code path at --quick sizes: it
        # finishes lazy imports and first-call set-up as a full repetition
        # does, in a fraction of its time (README.md, "How a run works").
        warm = WORKLOADS[args.workload](args.seed, True)
        (work / "warm-up").mkdir()
        warm.setup(work / "warm-up")
        warmup, _ = _rep(warm, work / "warm-up", guard, 0)
        tracer = Tracer() if args.trace else None
        kinds = (None, tracer) if args.trace else (None,)
        timed, last = [], None
        start = time.perf_counter()
        while True:
            for kind in kinds:
                record, result = _rep(
                    workload, work, guard, len(timed) + 1,
                    tracer=kind, probe=None if args.trace else probe,
                )
                timed.append(record)
                last = result if result is not None else last
            rounds = len(timed) // len(kinds)
            elapsed = time.perf_counter() - start
            if len(timed) >= MIN_REPS and elapsed + elapsed / rounds / 2 >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # Every repetition, traced or not, must reproduce the first (untraced)
        # one, and the committed digest when this seed has one.
        expected = _committed_digest(args.workload, args.seed, args.quick)
        reference = expected or next((r["digest"] for r in timed if r["digest"]), None)
        for record in timed:
            if record["digest"] is not None and record["digest"] != reference:
                source = "committed digest" if expected else "first repetition's digest"
                record["problems"].append(f"digest {record['digest'][:12]} != {source}")
        problems = [f"warm-up: {p}" for p in warmup["problems"]]
        if last is None:
            problems.append("no repetition produced a result to cross-check")
        else:
            problems += workload.cross_check(last)

        report = {
            "workload": args.workload,
            "seed": args.seed,
            "quick": args.quick,
            "trace": args.trace,
            "cells": workload.cells,
            "digest": reference,
            "digest_source": "committed" if expected else "first repetition",
            "warmup": warmup,
            "reps": timed,
            "peak_rss_mb": peak_rss_mb,
            "machine": machine_info(),
        }
        if tracer is not None:
            problems += _trace_checks(workload, tracer)
            walls = {
                traced: statistics.median(r["wall_s"] for r in timed if r["traced"] == traced)
                for traced in (False, True)
            }
            report["trace_overhead"] = walls[True] / walls[False]
            report["unpatched"] = tracer.unpatched
            report["per_layer"] = tracer.layer_metrics(rounds)
            report["self_time_s"] = tracer.self_times(rounds)
            RESULTS.mkdir(exist_ok=True)
            document = {"workload": args.workload, "seed": args.seed, **tracer.trace_document()}
            (RESULTS / f"trace_{args.workload}.json").write_text(json.dumps(document))
        report["problems"] = problems
        print(json.dumps(report), file=protocol, flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    protocol, sys.stdout = sys.stdout, sys.stderr
    return run(args, protocol)


if __name__ == "__main__":
    sys.exit(main())
