"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the root of a checkout.  It takes about a minute: each work
count must repeat exactly across two traced rounds of one seed, a corrupted
report byte must fail its op and lower `ok_ratio`, and the harness must
refuse, without a result line, to run where there is no program.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402

SEED = 0
SCRATCH = ".bench_work"


def _round(workload, traced=False, extra=()):
    os.makedirs(os.path.join(ROOT, SCRATCH), exist_ok=True)
    ns = argparse.Namespace(workload=workload, seed=SEED)
    return run.run_round(ns, ROOT, SCRATCH, 0, traced, extra=extra)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_work_counts_repeat_exactly(workload):
    first, second = _round(workload, traced=True), _round(workload, traced=True)
    assert "crashed" not in first and "crashed" not in second
    assert first["failures"] == [] and second["failures"] == []
    assert first["trace"]["counts"] == second["trace"]["counts"]
    assert first["digests"] == second["digests"]
    # the traced reports match the recorded untraced ones
    recorded = run.load_digests(workload, SEED)
    if recorded is not None:
        assert first["digests"] == recorded


def test_corrupted_report_fails_the_op():
    clean = _round("spectral")
    corrupt = _round("spectral", extra=["--corrupt", "3"])
    attempted, failed, problems = run.judge([clean, corrupt], run.load_digests("spectral", SEED))
    assert failed >= 1 and any(" op 3 " in p for p in problems), problems
    ok_ratio = (attempted - failed) / attempted
    assert ok_ratio < 1.0
    assert run.judge([clean], run.load_digests("spectral", SEED))[1] == 0


def test_refuses_without_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "spectral",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
