"""Frozenset atoms and the greedy cover over them: the test oracle for
`constructible.AtomIndex` and `decide_constructible`; and the stage-by-stage
search, the oracle for `refine.find_constructible`.

`enumerate_atoms` applies each tau of `enumerate_linmaps(field, k, 1)` to
all of S^k with `apply_batch` and yields one frozenset atom tau(D) per block
D, in (tau, block) order.  `decide` walks those atoms and keeps an atom when
it lies inside T and is not already covered, until T is covered.
`find_constructible_in_order` runs `find_constructible_prefix` on each
(prefix length, arity) stage in search order until one hits.
"""
from dataclasses import dataclass

from mschemes.constructible import Certificate, find_constructible_prefix
from mschemes.errors import DepthExhausted
from mschemes.gf_linalg import LinMap, enumerate_linmaps
from point_oracle import block_members


@dataclass(frozen=True)
class Atom:
    tau: LinMap
    block: int
    points: frozenset


def enumerate_atoms(sch, k):
    """All atoms tau(D), tau in M_{k,1}, D a block at arity k; lazily, in
    (tau, block) order."""
    if k > sch.m:
        raise DepthExhausted(f"atoms at arity {k} need depth {k} > m={sch.m}")
    inst = sch.instance
    part = sch.level(k)
    tuples = inst.tuples_array(k)
    blocks = block_members(part.bid)
    for tau in enumerate_linmaps(inst.field, k, 1):
        img = tau.apply_batch(inst.field, tuples)[:, 0]
        for b, rows in enumerate(blocks):
            yield Atom(tau, b, frozenset(int(c) for c in img[rows]))


def decide(sch, points, k):
    """Certificate for T as a union of arity-k atoms, or None."""
    target = frozenset(int(c) for c in points)
    covered = set()
    entries = []
    for atom in enumerate_atoms(sch, k):
        if atom.points <= target and not atom.points <= covered:
            covered |= atom.points
            entries.append((atom.tau, atom.block))
            if covered == target:
                break
    if covered != target:
        return None
    return Certificate(k, sch.prefix, entries, target)


def find_constructible_in_order(sch, points, max_arity, max_prefix, prefix_cap=None):
    """`refine.find_constructible` by its definition: the stages (p, a) with
    p + a <= m in increasing (p + a, p, a), each decided on its own."""
    tried = sorted(
        ((p + a, p, a) for p in range(max_prefix + 1)
         for a in range(1, max_arity + 1) if p + a <= sch.m),
    )
    for _, plen, arity in tried:
        res = find_constructible_prefix(sch, points, arity, plen, prefix_cap)
        if res:
            prefix, cert = res
            return {"prefix": tuple(prefix), "arity": arity, "cert": cert}
    return None
