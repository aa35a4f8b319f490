#!/usr/bin/env python3
"""Record the per-op report digests of every workload for a range of seeds.

    python3 perfbench/record_digests.py [--seeds 0-24] [--workloads a,b]

Run from the root of a checkout.  Each (workload, seed) runs one untraced
round; a round with a failed op is not recorded.  The result is merged into
`perfbench/digests.json`, which `run.py` compares every later round against,
so record only from a commit whose reports are the reference.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402


def seed_range(text: str):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="0-24")
    ap.add_argument("--workloads", default=",".join(run.WORKLOAD_NAMES))
    args = ap.parse_args()
    path = os.path.join(HERE, "digests.json")
    try:
        with open(path) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        table = {}
    root = os.getcwd()
    scratch = ".bench_work"
    os.makedirs(os.path.join(root, scratch), exist_ok=True)
    status = 0
    for workload in args.workloads.split(","):
        for seed in seed_range(args.seeds):
            ns = argparse.Namespace(workload=workload, seed=seed)
            rec = run.run_round(ns, root, scratch, 0, traced=False)
            if "crashed" in rec or rec["failures"]:
                print(f"{workload} seed {seed}: not recorded: "
                      f"{rec.get('crashed') or rec['failures'][:3]}", file=sys.stderr)
                status = 1
                continue
            table.setdefault(workload, {})[str(seed)] = rec["digests"]
            print(f"{workload} seed {seed}: {len(rec['digests'])} ops", file=sys.stderr)
    write_table(path, table)
    return status


def write_table(path: str, table: dict):
    """One line per (workload, seed), so a re-record diffs line by line."""
    lines = []
    for workload in sorted(table):
        seeds = sorted(table[workload], key=int)
        body = ",\n".join(f"  {json.dumps(s)}: {json.dumps(table[workload][s])}"
                           for s in seeds)
        lines.append(f" {json.dumps(workload)}: {{\n{body}\n }}")
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
