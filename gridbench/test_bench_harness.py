"""Self-test of the grid benchmark harness at ``--quick`` sizes.

``run.py --quick`` runs every workload through the same code path as the
real benchmark, on a grid small enough for seconds.  The tests check the
output format: every metric of ``BENCHMARK.json`` is reported with its
unit, every guard and tracer self-check passes, and a directory holding
only the benchmark (no program) fails without printing a result.  A
crashed worker still yields a result line, the run length cannot be
changed from the command line, and the host-speed probe samples only while
a block is measured.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
from hostspeed import HostProbe

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def _run(script: Path, *args: str, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        timeout=600,
        cwd=cwd,
    )


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_pass_reports_every_metric(trace, section):
    proc = _run(HERE / "run.py", "--quick", "--trace", trace, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 3 * len(WORKLOADS)
    for workload in WORKLOADS:
        for metric in SPEC[section]:
            reported = result["metrics"][f"{workload}.{metric['name']}"]
            assert reported["unit"] == metric["unit"]
            if section == "end_to_end":
                assert reported["value"] > 0, (workload, metric["name"])
            else:
                assert reported["value"] >= 0, (workload, metric["name"])


def _bare_copy(root: Path) -> Path:
    """``BENCHMARK.json`` and the benchmark's files, without the program."""
    shutil.copy(HERE.parent / "BENCHMARK.json", root)
    shutil.copytree(
        HERE,
        root / HERE.name,
        ignore=shutil.ignore_patterns("results", ".work", "__pycache__"),
    )
    return root / HERE.name / "run.py"


def _full_args(workload: str) -> list[str]:
    return ["--workload", workload, "--seed", "1",
            "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]


def test_fails_without_the_program(tmp_path):
    proc = _run(_bare_copy(tmp_path), *_full_args("grid"), cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_crashed_worker_is_a_failed_workload(tmp_path):
    # An empty package: the worker dies on its first import.
    (tmp_path / "src" / "repro").mkdir(parents=True)
    proc = _run(_bare_copy(tmp_path), *_full_args("grid"), cwd=tmp_path)
    assert proc.returncode == 1
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_host_probe_samples_only_inside_the_block():
    probe = HostProbe()
    previous = signal.getsignal(signal.SIGALRM)
    with probe.measuring():
        time.sleep(0.3)
    # One part per interval at most: the timer is re-armed after each.
    assert all(probe.samples)
    assert sum(map(len, probe.samples)) <= round(0.3 / hostspeed.INTERVAL_S)
    assert probe.spent_s > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    # Shorter than one interval: each part sampled once after the block.
    with probe.measuring():
        pass
    assert [len(times) for times in probe.samples] == [1, 1, 1, 1]
    assert probe.spent_s == probe.spent_cpu_s == 0.0
    assert probe.unloaded(1.0) == probe.speed() > 0
    assert probe.unloaded(1.0, cpu=True) == probe.speed(cpu=True) > 0


def test_run_length_is_fixed_by_the_benchmark():
    proc = _run(
        HERE / "run.py", "--workload", "grid",
        "--seconds", str(SPEC["run_seconds"] + 1), cwd=HERE.parent,
    )
    assert proc.returncode == 2
    assert "run_seconds" in proc.stderr
    assert not proc.stdout.strip()
