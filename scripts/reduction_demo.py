#!/usr/bin/env python3
"""End-to-end refinement demonstration on three canonical carriers.

1. Dense carrier (all nonzero vectors of F_2^4): density reduction runs to
   completion through the sandwich bound.
2. Frobenius orbit carrier (C11:C5): density reduction exits through a
   case-1 cardinality split.
3. Coset carrier (coset of a 2-dim subspace in F_2^4): sunflower
   decomposition with hub + leaves.

Deterministic; prints a JSON summary.

Usage: reduction_demo.py [--out FILE]
"""
import argparse
import json
import sys
import time
from fractions import Fraction

from mschemes import refine
from mschemes.instances import (
    affine_coset_scheme,
    c11_c5_scheme,
    gl_orbit_scheme,
)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    t0 = time.time()
    summary = {}

    dense = gl_orbit_scheme(2, 4, 30)
    res = refine.density_reduce(dense, 0, refine.RefineParams(
        K=2, k=1, r=0, eps=Fraction(1, 4), gamma=Fraction(19, 20),
        strict=False, r_shrink=2))
    summary["dense-completed"] = res.to_obj()

    frob = c11_c5_scheme(40)
    res = refine.density_reduce(frob, 0, refine.RefineParams(
        K=2, k=1, r=2, eps=Fraction(1, 4), gamma=Fraction(1, 2),
        strict=False))
    summary["frobenius-case1"] = res.to_obj()

    coset = affine_coset_scheme(4, (0, 1), 2, m=40)
    dec = refine.decompose(coset, 0, 10, Fraction(1, 4))
    summary["coset-decomposition"] = dec.to_obj()

    text = json.dumps(summary, sort_keys=True, indent=1, default=str) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"done in {time.time() - t0:.1f}s", file=sys.stderr)

    ok = (summary["dense-completed"]["outcome"] == "completed"
          and summary["frobenius-case1"]["outcome"] == "case1"
          and summary["coset-decomposition"]["outcome"] == "decomposition"
          and summary["coset-decomposition"]["hub_size"] > 0)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
