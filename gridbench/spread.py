#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, one seed per run.

Run from the repository root::

    python3 gridbench/spread.py --seeds 1-10                 # every workload
    python3 gridbench/spread.py --workload reattack --seeds 21-30 --out b.json

Each run is ``run.py --workload W --seed S --seconds <run_seconds>
--trace 0``, one after another.  For every workload and end-to-end metric
it prints the median of the runs and their spread: the distance between
the first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, next to the metric's bound in ``BENCHMARK.json``.
A spread above a third of its bound is marked.  Each run's own length and
the host's median speed during its repetitions (``hostspeed.py``) are
printed too.  ``--out`` keeps every run's values as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"),
                        help="seeds, one run each, as in 1-10 or 7,11,21-23")
    parser.add_argument("--out", type=Path, help="write every run's values here")
    args = parser.parse_args(argv)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    failed = 0
    for workload in workloads:
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT,
            )
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout.strip() else {}
            if proc.returncode != 0 or not result.get("correct"):
                failed += 1
                print(f"{workload} seed {seed}: FAILED (exit {proc.returncode})", file=sys.stderr)
                continue
            values = {name: m["value"] for name, m in result["metrics"].items()}
            elapsed = time.perf_counter() - start
            report = json.loads((HERE / "results" / f"report_{workload}.json").read_text())
            speed = statistics.median(rep["host_speed"] for rep in report["reps"])
            runs[workload].append(
                {"seed": seed, "run_elapsed_s": elapsed, "host_speed": speed, **values}
            )
            print(f"{workload} seed {seed} ({elapsed:.1f} s, host speed {speed:.2f}): "
                  + " ".join(f"{name}={value:.4g}" for name, value in values.items()), flush=True)

    print(f"\n{'workload':<14} {'metric':<14} {'median':>10} {'spread':>8} {'bound':>6}")
    for workload, rows in runs.items():
        for metric in spec["end_to_end"]:
            values = [row[metric["name"]] for row in rows]
            if len(values) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            mark = "  > bound/3" if spread > metric["bound"] / 3 else ""
            print(f"{workload:<14} {metric['name']:<14} {median:>10.4g} "
                  f"{spread:>8.3f} {metric['bound']:>6}{mark}")
    lengths = [row["run_elapsed_s"] for rows in runs.values() for row in rows]
    if lengths:
        print(f"run length: mean {statistics.fmean(lengths):.1f} s, max {max(lengths):.1f} s")
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "runs": runs}, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
