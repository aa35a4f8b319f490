#!/usr/bin/env python3
"""Scan the fixed candidate grid of multiplicative-coset carriers for ones
passing the sumset gate K|B| <= |B+B| <= |B|^2/K, run the fibre shrink on
each hit, and write a JSON table of instances + outcomes.

Deterministic: fixed grid order, no randomness.

Usage: find_shrink_instances.py [--per-k N] [--out FILE]
"""
import argparse
import json
import sys
import time

from mschemes import refine
from mschemes.instances import find_shrink_instances


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--per-k", type=int, default=25)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    rows = []
    t0 = time.time()
    for K in (4, 9):
        found = find_shrink_instances(K, args.per_k)
        print(f"K={K}: {len(found)} instances", file=sys.stderr)
        for params, sch in found:
            out = refine.shrink_weak(sch, 0, refine.BlockRef(1, 0), K)
            ratio = out.min_ratio
            rows.append({
                "params": list(params),
                "K": K,
                "carrier": len(sch.s_codes),
                "case": out.case,
                "shrunk": out.size,
                "min_ratio": str(ratio),
                "sqrtK_ok": ratio * ratio >= K,
            })
    report = {"instances": rows, "count": len(rows)}
    text = json.dumps(report, sort_keys=True, indent=1) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"done in {time.time() - t0:.1f}s", file=sys.stderr)
    return 0 if all(r["sqrtK_ok"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
