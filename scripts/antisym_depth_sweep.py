#!/usr/bin/env python3
"""Sweep the named instance suite: validate, run the strong-antisymmetry
check (C11:C5 at m=3 ends at a multi-letter witness), and (for
antisymmetric, non-discrete instances) the iterated halving measure.

Writes one CSV row per (instance, depth).  Deterministic.

Usage: antisym_depth_sweep.py [--out FILE]
"""
import argparse
import csv
import sys
import time

from mschemes import antisym
from mschemes.errors import DepthExhausted
from mschemes.instances import (
    c11_c5_scheme,
    c31_c5_scheme,
    gl_orbit_scheme,
    singer_scheme,
    trivial_scheme,
)

SUITE = [
    ("gl2", lambda m: gl_orbit_scheme(2, 2, m), (2, 3)),
    ("gl3", lambda m: gl_orbit_scheme(2, 3, m), (2,)),
    ("singer7", lambda m: singer_scheme(2, 3, m), (2, 3)),
    ("trivial", lambda m: trivial_scheme(2, 2, m), (2, 3)),
    ("c11_c5", lambda m: c11_c5_scheme(m), (2, 3)),
    ("c31_c5", lambda m: c31_c5_scheme(m), (2,)),
]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    out = open(args.out, "w", newline="") if args.out else sys.stdout
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["instance", "m", "carrier", "valid", "status",
                     "word_length", "depth_fixings", "depth_completed"])
    t0 = time.time()
    for name, build, depths in SUITE:
        for m in depths:
            sch = build(m)
            valid = sch.validate().ok
            res = antisym.strong_antisym_check(sch)
            word = len(res.witness.word) if res.witness else ""
            fixings = completed = ""
            if res.status == "antisymmetric" and not sch.level(1).is_discrete():
                try:
                    trace = antisym.depth_measure(sch, 0)
                    completed = True
                except DepthExhausted as exc:
                    trace = exc.trace
                    completed = False
                fixings = trace.count
            writer.writerow([name, m, len(sch.s_codes), valid, res.status,
                             word, fixings, completed])
    if args.out:
        out.close()
    print(f"done in {time.time() - t0:.1f}s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
