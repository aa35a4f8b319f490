#!/usr/bin/env python3
"""mschemes benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload {spectral,additive,structure,axioms}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from `src/`.

Load model: closed loop, one client.  A round is the workload's whole op
list, run op after op in a fresh Python process (`worker.py`), so the
process-global caches start cold in every round and persist within it.
Rounds run one at a time until `--seconds` would be exceeded (at least
`MIN_ROUNDS`, but none past `HARD_LIMIT_S`).  BLAS and OpenMP are pinned
to one thread.

The CPU is shared, and its speed swings by up to 1.8x within a minute as
other tenants come and go.  So every op's time is scaled to a fixed
reference speed: `worker.py` times a fixed reference kernel before each op
and after the last, and an op that took t seconds between kernel samples
r1 and r2 counts t * REF_NOMINAL_S / mean(r1, r2).  The scaled times stay
in seconds and keep the ratio between two versions of the program; they
lose the contention that neither version caused.  The unscaled wall and
setup times are printed on the line before the result.

With `--trace 0` the last line holds the end-to-end metrics, each the
median over rounds of scaled times:

  wall_s       sum of the op latencies of one round (time to solution;
               checks excluded)
  op_p50_ms    median over the op list of each op's median latency
  op_tail_ms   the same at the highest percentile with >= 10 ops beyond it
  peak_rss_mb  ru_maxrss of the round's process (not scaled)
  setup_s      process start -> first op: interpreter, imports and seeded
               input generation, scaled by the first kernel sample
  ok_ratio     ops that returned, exited 0 and passed every check / ops
               attempted

With `--trace 1` rounds alternate untraced and traced; the last line holds
the per-layer metrics of `BENCHMARK.json` (times: unscaled medians over
traced rounds; counts: identical in every traced round, else the run
fails), with
`trace.coverage` = traced layer self time / traced wall and
`trace.overhead_s` = traced wall - untraced wall.

Every op's reports are digested (sha256, the Fourier error strings left
out) and compared with `digests.json` where the seed is recorded; a
mismatch fails the op.  Exit status is 0 whenever a result line is printed,
and 2 without one when the checkout has no `src/mschemes`.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_ROUNDS = 3
# the reference kernel's duration at the speed all times are scaled to: about
# its uncontended time on the shared 2-vCPU x86_64 VM the bounds were set on
REF_NOMINAL_S = 0.002
HARD_LIMIT_S = 150  # no round starts or runs past this, whatever --seconds says
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("spectral", "additive", "structure", "axioms")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_round(args, root: str, scratch: str, index: int, traced: bool,
              timeout: float = HARD_LIMIT_S, extra=()):
    """Run one round in a fresh process; returns its record, or a record of
    the failure if the process did not produce one in `timeout` seconds."""
    out = os.path.join(scratch, f"{args.workload}-{args.seed}-{index}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed), "--out", out]
    if traced:
        cmd += ["--trace", "--spans",
                os.path.join(scratch, f"spans-{args.workload}.json")]
    cmd += list(extra)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], cwd=root,
                              env=worker_env(root), capture_output=True, text=True,
                              timeout=max(timeout, 1))
        error = None if proc.returncode == 0 else f"worker exit {proc.returncode}"
        stderr = proc.stderr
    except subprocess.TimeoutExpired as exc:
        error = f"worker timed out after {timeout:.0f}s"
        stderr = exc.stderr.decode(errors="replace") if isinstance(exc.stderr, bytes) \
            else exc.stderr or ""
    wall = time.monotonic() - spawned
    if error is None:
        with open(os.path.join(root, out)) as fh:
            record = json.load(fh)
        os.remove(os.path.join(root, out))
    else:
        sys.stderr.write(f"round {index}: {error}\n{stderr[-4000:] if stderr else ''}\n")
        record = {"crashed": error}
    record["process_s"] = wall
    return record


def load_digests(workload: str, seed: int):
    path = os.path.join(HERE, "digests.json")
    try:
        with open(path) as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def tail_rank(n: int):
    """Highest whole percentile with at least 10 of n samples beyond it."""
    if n <= 10:
        return 0
    return math.floor(100 * (n - 10) / n)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, math.ceil(p / 100 * len(ordered)) - 1)
    return ordered[k]


def judge(records, expected):
    """Count attempted and failed ops over all rounds; a round whose digests
    differ from the recorded ones or from the first round fails those ops."""
    attempted = failed = 0
    problems = []
    reference = expected
    for r, rec in enumerate(records):
        if "crashed" in rec:
            n = len(reference) if reference else 1
            attempted += n
            failed += n
            problems.append(f"round {r}: {rec['crashed']}")
            continue
        if reference is None:
            reference = rec["digests"]
        bad = {f["op"] for f in rec["failures"]}
        for f in rec["failures"]:
            problems.append(f"round {r} op {f['op']} ({f['name']}): {f['error']}")
        if len(rec["digests"]) != len(reference):
            bad |= set(range(len(rec["digests"])))
            problems.append(f"round {r}: {len(rec['digests'])} ops, expected {len(reference)}")
        else:
            for i, (got, want) in enumerate(zip(rec["digests"], reference)):
                if got != want and i not in bad:
                    bad.add(i)
                    problems.append(f"round {r} op {i} ({rec['ops'][i]}): "
                                    f"report digest {got} != {want}")
        attempted += len(rec["digests"])
        failed += len(bad)
    return attempted, failed, problems


def scaled_op_s(rec) -> list:
    """Each op's time scaled to the reference speed, by the mean of the
    reference kernel samples taken just before and just after it."""
    ref = rec["ref_s"]
    return [t * REF_NOMINAL_S * 2 / (ref[i] + ref[i + 1]) for i, t in enumerate(rec["op_s"])]


def end_to_end(records) -> tuple:
    good = [r for r in records if "crashed" not in r]
    scaled = [scaled_op_s(r) for r in good]
    op_ms = [1000 * statistics.median(samples) for samples in zip(*scaled)]
    rank = tail_rank(len(op_ms))
    metrics = {
        "wall_s": (statistics.median(sum(s) for s in scaled), "s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "op_tail_ms": (percentile(op_ms, rank), "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in good), "MiB"),
        "setup_s": (statistics.median(r["setup_s"] * REF_NOMINAL_S / r["ref_s"][0]
                                      for r in good), "s"),
    }
    return metrics, {"tail_percentile": rank, "ops_per_round": len(op_ms),
                     "rounds": len(good),
                     "unscaled_wall_s": statistics.median(sum(r["op_s"]) for r in good),
                     "unscaled_setup_s": statistics.median(r["setup_s"] for r in good),
                     "ref_s": statistics.median(x for r in good for x in r["ref_s"])}


def per_layer(plain, traced) -> tuple:
    """Per-layer metrics, and whether every count repeated exactly."""
    good = [r["trace"] for r in traced if "crashed" not in r]
    counts = good[0]["counts"]
    steady = all(t["counts"] == counts for t in good)
    metrics = {}
    for name, value in counts.items():
        unit = "1" if name.endswith("_ratio") else "count"
        metrics[name] = (value, unit)
    for name in good[0]["times"]:
        if name != "all_layers.self_s":
            metrics[name] = (statistics.median(t["times"][name] for t in good), "s")
    traced_wall = statistics.median(sum(r["op_s"]) for r in traced if "crashed" not in r)
    plain_wall = statistics.median(sum(r["op_s"]) for r in plain if "crashed" not in r)
    layer_self = statistics.median(t["times"]["all_layers.self_s"] for t in good)
    metrics["trace.coverage"] = (layer_self / traced_wall, "1")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    return metrics, steady


def environment(root: str, seed: int, numpy_version: str) -> dict:
    # a checkout that is not a repository must not report an enclosing one
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {"commit": commit, "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "seed": seed,
            "threads": {v: "1" for v in THREAD_VARS}, "machine": platform.machine()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "mschemes", "cli.py")):
        sys.stderr.write("no src/mschemes here: run from the root of an mschemes checkout\n")
        return 2
    scratch = ".bench_work"  # relative: reports name their --out paths
    os.makedirs(os.path.join(root, scratch), exist_ok=True)

    start = time.monotonic()
    plain, traced, longest = [], [], 0.0
    index = 0

    def left():
        return HARD_LIMIT_S - (time.monotonic() - start)

    while True:
        plain.append(run_round(args, root, scratch, index, False, left()))
        index += 1
        step = plain[-1]["process_s"]
        if args.trace:
            traced.append(run_round(args, root, scratch, index, True, left()))
            index += 1
            step += traced[-1]["process_s"]
        longest = max(longest, step)
        if longest > left():
            break
        rounds = len(traced) if args.trace else len(plain)
        if rounds >= (1 if args.trace else MIN_ROUNDS) and \
                time.monotonic() - start + longest > args.seconds:
            break

    expected = load_digests(args.workload, args.seed)
    attempted, failed, problems = judge(plain + traced, expected)
    for line in problems[:50]:
        sys.stderr.write(line + "\n")
    info = {"workload": args.workload, "digests_recorded": expected is not None}
    ok_rounds = [r for r in plain if "crashed" not in r]
    if args.trace and ok_rounds and any("crashed" not in r for r in traced):
        metrics, steady = per_layer(plain, traced)
        if not steady:
            failed = max(failed, 1)
            sys.stderr.write("work counts differ between traced rounds\n")
        info["traced_rounds"] = len(traced)
    elif ok_rounds:
        metrics, extra = end_to_end(plain)
        metrics["ok_ratio"] = ((attempted - failed) / attempted, "1")
        info.update(extra)
    else:
        metrics = {}
    numpy_version = next((r["numpy"] for r in plain if "numpy" in r), "unknown")
    info["env"] = environment(root, args.seed, numpy_version)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
