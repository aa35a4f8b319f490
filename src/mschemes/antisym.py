"""Strong antisymmetry: block-to-block bijections, their groupoid closure,
and the depth bounds that follow from it.

A generator is a coordinate-linear map whose restriction to some block is a
bijection onto a block.  A word in the generators and their inverses that
permutes a block nontrivially is a witness.  The generators stream from the
map sweep, and the first one that is a witness by itself ends the check
with no further map swept.  Otherwise the closure of the generators and
their inverses under composition is searched breadth-first: exhaustion
without a witness certifies strong antisymmetry, and hitting the budget is
reported as inconclusive.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .caps import DEFAULT_BUDGET_SATURATION
from .errors import (DepthExhausted, IndexOutOfRange, InputError, LemmaViolation,
                     PreconditionUnmet)
from .gf_linalg import LinMap, linmap, unique_sorted
from .scheme_core import Scheme


@dataclass(frozen=True)
class GenStep:
    """One letter of a witness word: a map restriction, forward or inverted."""

    tau: tuple  # coefficient matrix, row-major tuple of tuples
    direction: str  # "fwd" | "inv"
    src: tuple  # (arity, block id)
    dst: tuple

    def to_obj(self):
        return {
            "tau": [list(r) for r in self.tau],
            "direction": self.direction,
            "src": {"k": self.src[0], "block": self.src[1]},
            "dst": {"k": self.dst[0], "block": self.dst[1]},
        }

    @staticmethod
    def from_obj(obj) -> "GenStep":
        return GenStep(
            tuple(tuple(int(c) for c in row) for row in obj["tau"]),
            obj["direction"],
            (int(obj["src"]["k"]), int(obj["src"]["block"])),
            (int(obj["dst"]["k"]), int(obj["dst"]["block"])),
        )


@dataclass
class Witness:
    block: tuple  # (arity, block id) the word permutes nontrivially
    word: list  # list of GenStep
    mapping: tuple  # image tuple index per ascending member of the block

    def to_json(self) -> str:
        return json.dumps(
            {
                "block": {"k": self.block[0], "block": self.block[1]},
                "word": [s.to_obj() for s in self.word],
            },
            sort_keys=True,
            separators=(",", ":"),
        )


@dataclass
class SaturationResult:
    status: str  # "antisymmetric" | "witness" | "inconclusive"
    maps_explored: int
    budget: int
    witness: Optional[Witness] = None
    # forward generators read before the verdict: all of them unless a
    # forward self-map was the witness, which is then the last one counted
    generators: int = 0


def generator_maps(sch: Scheme):
    """Yield every bijective block-to-block restriction of a coordinate-linear
    map once, in (k, k', tau, block) order, as the map sweep reaches it.

    Each item is (src, dst, mapping, GenStep): mapping[i] is the position in
    block dst of the image of the i-th member of block src.  Nothing past the
    last item read is swept, so a (k, k') group's caps fire only when the
    reader gets that far.
    """
    seen = set()
    rank = {}  # arity -> position of each tuple within its block
    for sw in sch.map_sweep():
        onto = ((sw.inside == sw.sizes) & (sw.distinct == sw.sizes)
                & (sw.target_size == sw.sizes))
        ts, bs = np.nonzero(onto)
        if not len(ts):
            continue
        if sw.kp not in rank:
            rank[sw.kp] = np.empty(sch.instance.tuple_count(sw.kp), dtype=np.int64)
            for rows in sch.level(sw.kp).blocks():
                rank[sw.kp][rows] = np.arange(len(rows))
        for t, b in zip(ts.tolist(), bs.tolist()):
            start = int(sw.starts[b])
            # rows of a hit block all have images in S^k'; no -1 is read
            rows = sw.images[t, start:start + int(sw.sizes[b])]
            positions = rank[sw.kp][rows]
            src, dst = (sw.k, b), (sw.kp, int(sw.target[t, b]))
            # src fixes the length, so the raw bytes identify the mapping
            key = (src, dst, positions.tobytes())
            if key not in seen:
                seen.add(key)
                yield (src, dst, tuple(positions.tolist()),
                       GenStep(sw.tau(t).coeffs, "fwd", src, dst))


def strong_antisym_check(sch: Scheme, budget: int = DEFAULT_BUDGET_SATURATION) -> SaturationResult:
    """Saturate the partial-bijection groupoid; cache the verdict on the scheme.

    Forward generators are admitted as `generator_maps` yields them, and the
    check returns at the first one that permutes its block nontrivially,
    sweeping no map after it.  Only when they run out without a witness are
    their inverses added, in the same order, and the closure searched
    breadth-first within the budget.

    A mapping lists, per member of its source block, the position of the
    image in its destination block: the inverse is its argsort, composition
    is indexing, and a self-map is the identity when it equals range."""

    def is_identity(mapping):
        return mapping == tuple(range(len(mapping)))

    explored = {}
    words = []
    queue = []

    def admit(src, dst, mapping, word_entry):
        key = (src, dst, mapping)
        if key in explored:
            return None
        explored[key] = len(words)
        words.append(word_entry)
        queue.append(key)
        return key

    witness = None
    gens = []
    for src, dst, mapping, step in generator_maps(sch):
        gens.append((src, dst, mapping, step))
        admit(src, dst, mapping, (None, step))  # generator_maps yields no repeats
        if src == dst and not is_identity(mapping):
            witness = (src, mapping, explored[(src, dst, mapping)])
            break

    if witness is None:
        # every forward self-map is the identity, so no inverse is a witness
        all_gens = list(gens)
        for src, dst, mapping, step in gens:
            inv = (dst, src, tuple(np.argsort(mapping).tolist()),
                   GenStep(step.tau, "inv", dst, src))
            all_gens.append(inv)
            admit(*inv[:3], (None, inv[3]))

        # index generators by source block for composition
        by_src = {}
        for src, dst, mapping, step in all_gens:
            by_src.setdefault(src, []).append((dst, mapping, step))

        head = 0
        while witness is None and head < len(queue):
            if len(explored) > budget:
                return SaturationResult("inconclusive", len(explored), budget,
                                        generators=len(gens))
            src, dst, mapping = queue[head]
            head += 1
            parent_idx = explored[(src, dst, mapping)]
            for gdst, gmapping, gstep in by_src.get(dst, []):
                composed = tuple(gmapping[i] for i in mapping)
                key = admit(src, gdst, composed, (parent_idx, gstep))
                if key is None:
                    continue
                if src == gdst and not is_identity(composed):
                    witness = (src, composed, explored[key])
                    break

    if witness is None:
        result = SaturationResult("antisymmetric", len(explored), budget,
                                  generators=len(gens))
    else:
        src, mapping, idx = witness
        word = []
        while idx is not None:
            parent, step = words[idx]
            word.append(step)
            idx = parent
        word.reverse()
        members = sch.level(src[0]).blocks()[src[1]]
        result = SaturationResult(
            "witness", len(explored), budget,
            witness=Witness(src, word, tuple(members[list(mapping)].tolist())),
            generators=len(gens),
        )
    sch.antisym_verdict = result
    return result


def _members(sch: Scheme, ref: tuple):
    """Members of block ref = (arity, block id), or None when sch has no
    such block."""
    k, b = ref
    if not 1 <= k <= sch.m:
        return None
    try:
        return sch.level(k).block(b)
    except IndexOutOfRange:
        return None


def _forward_restriction(sch: Scheme, tau: LinMap, src: tuple, dst: tuple):
    """Positions in block dst of the images of block src's members under tau,
    or None unless both blocks exist, tau runs between their arities and
    maps src onto dst bijectively."""
    inst = sch.instance
    src_members, dst_members = _members(sch, src), _members(sch, dst)
    if (src_members is None or dst_members is None
            or (tau.src_arity, tau.dst_arity) != (src[0], dst[0])):
        return None
    img = inst.tuple_indices(tau.apply_batch(inst.field, inst.tuples_array(src[0], src_members)))
    # a bijection onto dst: the images, sorted, are dst's members
    if (img < 0).any() or not np.array_equal(np.sort(img), dst_members):
        return None
    return np.searchsorted(dst_members, img)


def replay_witness(sch: Scheme, witness: Witness) -> bool:
    """Recompute the witness word step by step; True iff it really is a
    nontrivial self-bijection of the claimed block."""
    if not witness.word or witness.word[0].src != witness.block:
        return False
    cur_ref = witness.block
    members = _members(sch, witness.block)
    if members is None:
        return False
    mapping = np.arange(len(members))  # position in cur_ref of each member's image
    for step in witness.word:
        if step.src != cur_ref:
            return False
        tau = linmap(step.tau)
        if step.direction == "fwd":
            stepmap = _forward_restriction(sch, tau, step.src, step.dst)
        else:
            # the recorded map runs dst -> src; invert it
            fwd = _forward_restriction(sch, tau, step.dst, step.src)
            stepmap = None if fwd is None else np.argsort(fwd)
        if stepmap is None:
            return False
        mapping = stepmap[mapping]
        cur_ref = step.dst
    if cur_ref != witness.block:
        return False
    if tuple(members[mapping].tolist()) != witness.mapping:
        return False
    return bool((mapping != np.arange(len(members))).any())


# ---------------------------------------------------------------------------
# depth bounds
# ---------------------------------------------------------------------------


@dataclass
class DepthBoundsReport:
    m: int
    span_dim: int
    largest_block: int
    dim_margin: int      # span_dim - m (must be >= 1 when level 1 not discrete)
    log_margin: float    # log2(largest block) - m (>= 0)
    ok: bool


def depth_bounds_check(sch: Scheme) -> DepthBoundsReport:
    """m < dim⟨S⟩ and 2^m <= |B| for the largest block, given strong antisymmetry."""
    if sch.antisym_verdict is None or sch.antisym_verdict.status != "antisymmetric":
        raise PreconditionUnmet("strong-antisymmetry", "run strong_antisym_check first")
    lvl1 = sch.level(1)
    sizes = [lvl1.block_size(b) for b in range(lvl1.num_blocks)]
    largest = max(sizes)
    if largest < 2:
        raise PreconditionUnmet("level-1-not-discrete")
    sd = sch.instance.span_dim()
    ok = sch.m < sd and 2 ** sch.m <= largest
    return DepthBoundsReport(
        sch.m, sd, largest, sd - sch.m, math.log2(largest) - sch.m, ok
    )


def halving_step(sch: Scheme, b: int, x: int, y: int):
    """Fix x in block b; the sub-block containing y must satisfy
    1 < |B'| <= |B|/2.  Returns (fibred scheme, block id of y, |B'|)."""
    if sch.m < 2:
        raise DepthExhausted("halving needs depth >= 2")
    block = sch.level1_block_set(b)
    if x not in block or y not in block or x == y:
        raise InputError("x, y must be distinct members of the block")
    fib = sch.fiber((x,))
    bp = int(fib.level(1).bid[sch.instance.pos(y)])
    size = fib.level(1).block_size(bp)
    if not (1 < size and 2 * size <= len(block)):
        raise LemmaViolation(
            f"halving failed: |B|={len(block)}, |B'|={size} for x={x}, y={y}"
        )
    return fib, bp, size


@dataclass
class DepthTraceStep:
    x: int
    block_sizes: tuple
    tracked: int


@dataclass
class DepthTrace:
    start_size: int
    steps: list
    completed: bool

    @property
    def count(self) -> int:
        return len(self.steps)


def depth_measure(sch: Scheme, b: int) -> DepthTrace:
    """Repeatedly fix greedily-chosen points until the tracked block is a
    singleton; the number of fixings is bounded by log2 of the block size.

    Raises DepthExhausted (with the partial trace attached) when the scheme
    runs out of depth first.
    """
    cur = sch
    pos = sch.instance.pos
    block = sch.level1_block_set(b)
    start = len(block)
    steps = []
    while len(block) > 1:
        if cur.m < 2:
            trace = DepthTrace(start, steps, False)
            _depth_asserts(sch, start, len(steps))
            raise DepthExhausted(
                f"depth exhausted with tracked block of size {len(block)}", trace
            )
        best = None
        for x in block.tolist():
            fib = cur.fiber((x,))
            bid = fib.level(1).bid
            others = block[block != x]
            ids = bid[pos(others)]
            sizes = np.bincount(bid)
            cand = (int(sizes[ids].max()), x, fib, others, ids, sizes)
            if best is None or cand[0] < best[0]:
                best = cand
        _, x, fib, others, ids, sizes = best
        new_ids = unique_sorted(ids).tolist()
        tracked_id = max(new_ids, key=lambda i: (sizes[i], -i))
        tracked = others[ids == tracked_id]
        steps.append(
            DepthTraceStep(x, tuple(sorted((int(sizes[i]) for i in new_ids), reverse=True)), len(tracked))
        )
        cur = fib
        block = tracked
    _depth_asserts(sch, start, len(steps))
    return DepthTrace(start, steps, True)


def _depth_asserts(sch: Scheme, start: int, count: int):
    if 2 ** count > start:
        raise LemmaViolation(f"{count} fixings exceed log2({start})")
    if count >= sch.instance.span_dim():
        raise LemmaViolation(f"{count} fixings reach dim span(S)")
