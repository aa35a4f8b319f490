"""One round of one workload, in a fresh process: set up, run every op,
check it, and write the round's record as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --spawned T
        --out FILE [--trace] [--spans FILE] [--corrupt I]

`--spawned` is the parent's `time.monotonic()` just before it started this
process (the clock is system-wide on Linux), so `setup_s` covers interpreter
start, imports and input generation.  Each op is timed around its call into
the program only; reading back and checking its reports is not timed and,
in a traced round, not traced.  `--corrupt I` flips one byte of op I's
first report before the checks, for the benchmark's self-test.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))


def digest(name: str, reports) -> str:
    h = hashlib.sha256(name.encode())
    for rep in reports:
        h.update(b"\0")
        h.update(rep)
    return h.hexdigest()[:16]


def strip_noise(report: bytes, fields) -> bytes:
    """The report without the rounding-noise fields, re-serialized canonically."""
    try:
        obj = json.loads(report)
    except ValueError:
        return report
    if not isinstance(obj, dict) or not any(f in obj for f in fields):
        return report
    return json.dumps({k: v for k, v in obj.items() if k not in fields},
                      sort_keys=True, separators=(",", ":")).encode()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    ap.add_argument("--corrupt", type=int, default=-1)
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    import workloads
    import shim

    work = os.path.join(os.path.dirname(args.out), f"work-{args.workload}")
    os.makedirs(work, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, work)
        tracer = None
        if args.trace:
            tracer = shim.Tracer()
            shim.install(tracer, extra_modules=[workloads])
        first = time.monotonic()
        record = run_ops(ops, tracer, args.corrupt)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["setup_s"] = first - args.spawned
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record["numpy"] = workloads.np.__version__
    if tracer is not None:
        record["trace"] = trace_summary(tracer)
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


_KERNEL_TABLE = {i: (i * 7919) % 101 for i in range(64)}


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of the program's kinds of inner loop:
    interpreter integer arithmetic, small-array numpy calls, and dict
    lookups, tuples and complex exponentials (the Fourier sums).

    Sampled before every op and after the last, it gives the CPU's speed at
    that moment; `run.py` scales each op's time by it.  Each kind of loop
    slows by a different factor when the shared core is busy, so the mix
    matters: interpreter and numpy work alone track the numpy-heavy ops but
    under-correct the Fourier and constructibility ops."""
    import cmath

    import numpy as np

    t0 = time.perf_counter()
    x = 0
    for j in range(7500):
        x += j * j % 7
    a = np.arange(2048)
    for _ in range(20):
        a = (a * 3 + 1) % 1021
    z = 0j
    table = _KERNEL_TABLE
    for i in range(2500):
        pair = (i, table[i & 63])
        z += cmath.exp(2j * cmath.pi * (pair[1] % 5) / 5)
    return time.perf_counter() - t0


def run_ops(ops, tracer, corrupt: int) -> dict:
    import workloads

    names, secs, digests, failures, refs = [], [], [], [], []
    for i, op in enumerate(ops):
        refs.append(reference_kernel())
        if tracer is not None:
            tracer.start_op(i)
            tracer.enabled = True
        error = None
        t0 = time.perf_counter()
        try:
            payload = op.run()
        except Exception as exc:  # an op that raises is a failed op
            payload, error = None, f"raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        if tracer is not None:
            tracer.enabled = False
        names.append(op.name)
        secs.append(t1 - t0)
        reports = []
        if error is None:
            try:
                reports = op.reports(payload)
                if i == corrupt and reports:
                    first = bytearray(reports[0])
                    first[len(first) // 2] ^= 0x01
                    reports[0] = bytes(first)
                op.check(payload, reports)
            except workloads.CheckFailed as exc:
                error = f"check: {exc}"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        digests.append(digest(op.name, [strip_noise(r, workloads.NOISE_FIELDS)
                                        for r in reports]))
        if error is not None:
            failures.append({"op": i, "name": op.name, "error": error})
            if "raised" in error:
                traceback.print_exc()
    refs.append(reference_kernel())
    return {"ops": names, "op_s": secs, "ref_s": refs, "digests": digests,
            "failures": failures}


def trace_summary(tracer) -> dict:
    """Per-layer self times and the work counts the benchmark reports."""
    import shim

    layers = tracer.layer_self()
    c = tracer.counters
    calls, incl = tracer.calls, tracer.incl
    scalar = [("gf_linalg", name) for name in shim.SCALAR]
    stab_calls = calls("group_orbits", "MatrixGroup.stabilizer")
    fiber_calls = calls("scheme_core", "Scheme.fiber")
    decide_calls = calls("constructible", "decide_constructible")
    counts = {
        "fourier.all_coeffs_calls": calls("fourier", "FourierContext.all_coeffs"),
        "fourier.char_evals": int(c["fourier.char_evals"]),
        "gf_linalg.scalar_calls": sum(calls(*k) for k in scalar),
        "gf_linalg.apply_batch_rows": int(c["gf_linalg.apply_batch_rows"]),
        "addcomb.sum_histogram_pairs": int(c["addcomb.sum_histogram_pairs"]),
        "group_orbits.orbit_tuples": int(c["group_orbits.orbit_tuples"]),
        "group_orbits.stabilizer_calls": stab_calls,
        "group_orbits.stabilizer_reuse_ratio":
            c["group_orbits.stabilizer_repeats"] / stab_calls if stab_calls else 0.0,
        "constructible.decide_calls": decide_calls,
        "constructible.decide_hit_ratio":
            c["constructible.decide_hits"] / decide_calls if decide_calls else 0.0,
        "constructible.atoms_built": int(c["constructible.enumerate_atoms.yields"]),
        "scheme_core.maps_checked": int(c["scheme_core.maps_checked"]),
        "scheme_core.fiber_calls": fiber_calls,
        "scheme_core.fiber_reuse_ratio":
            c["scheme_core.fiber_repeats"] / fiber_calls if fiber_calls else 0.0,
        "antisym.generators": int(c["antisym.generators"]),
        "antisym.maps_explored": int(c["antisym.maps_explored"]),
    }
    times = {f"{layer}.self_s": layers.get(layer, 0.0)
             for layer in ("fourier", "addcomb", "group_orbits", "constructible",
                           "scheme_core", "antisym", "refine", "cli")}
    times.update({
        "gf_linalg.scalar_s": sum(incl(*k) for k in scalar),
        "addcomb.energy_oracle_s": incl("addcomb", "additive_energy_oracle"),
        "group_orbits.orbit_partition_s": incl("group_orbits", "OrbitBackend.orbit_partition_raw"),
        "group_orbits.stabilizer_s": incl("group_orbits", "MatrixGroup.stabilizer"),
        "scheme_core.validate_s": incl("scheme_core", "Scheme.validate"),
        "all_layers.self_s": sum(layers.values()),
    })
    return {"counts": counts, "times": times,
            "layer_self_s": layers, "spans": len(tracer.spans)}


if __name__ == "__main__":
    sys.exit(main())
