"""Strong antisymmetry: block-to-block bijections, Schreier loops over a
spanning forest of blocks, and the depth bounds that follow from it.

A generator is a coordinate-linear map whose restriction to some block is a
bijection onto a block.  A word in the generators and their inverses that
permutes a block nontrivially is a witness.  The generators stream from the
map sweep, and the first one that is a witness by itself ends the check.
Otherwise one loop per generator around a spanning forest of the blocks is
checked: the scheme is antisymmetric when every loop is the identity, and
more generators than the budget is inconclusive.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .caps import DEFAULT_BUDGET_SATURATION
from .errors import (DepthExhausted, IndexOutOfRange, LemmaViolation,
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

    def inverse(self) -> "GenStep":
        return GenStep(self.tau, "inv" if self.direction == "fwd" else "fwd", self.dst, self.src)


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
    # forward generators read plus Schreier loops checked: equal to
    # `generators` when a forward self-map or the budget ended the check
    maps_explored: int
    budget: int  # the most forward generators the loops are checked for
    witness: Optional[Witness] = None
    # forward generators read before the verdict: all of them unless a
    # forward self-map was the witness, which is then the last one counted
    generators: int = 0


def generator_maps(sch: Scheme):
    """Yield every bijective block-to-block restriction of a coordinate-linear
    map once, in (k, k', tau, block) order, as the map sweep reaches it.

    Each item is (src, dst, positions, coeffs): positions[i] is the position
    in block dst of the image of the i-th member of block src, and coeffs is
    tau's (k, k') coefficient matrix, both int64 arrays.  Nothing past the
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
            part = sch.level(sw.kp)
            rank[sw.kp] = np.empty(len(part.bid), dtype=np.int64)
            rank[sw.kp][part.order] = (np.arange(len(part.bid))
                                       - np.repeat(part.starts, part.sizes))
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
                yield src, dst, positions, sw.coeffs[t]


def _letter(gen) -> GenStep:
    """The forward witness letter of a `generator_maps` item."""
    src, dst, _, coeffs = gen
    return GenStep(tuple(map(tuple, coeffs.tolist())), "fwd", src, dst)


def strong_antisym_check(sch: Scheme, budget: int = DEFAULT_BUDGET_SATURATION) -> SaturationResult:
    """Decide strong antisymmetry; cache a decided verdict on the scheme.

    Forward generators are read as `generator_maps` yields them, and the
    check returns at the first one that permutes its block nontrivially,
    sweeping no map after it.  When they run out, more than `budget` of them
    is inconclusive; otherwise `_schreier_loops` decides."""
    gens = []
    for gen in generator_maps(sch):
        gens.append(gen)
        src, dst, positions, _ = gen
        if src == dst and (positions != np.arange(len(positions))).any():
            members = _members(sch, src)[positions]
            result = SaturationResult("witness", len(gens), budget, generators=len(gens),
                                      witness=Witness(src, [_letter(gen)],
                                                      tuple(members.tolist())))
            break
    else:
        if len(gens) > budget:
            return SaturationResult("inconclusive", len(gens), budget, generators=len(gens))
        result = _schreier_loops(sch, gens, budget)
    sch.antisym_verdict = result
    return result


def _spanning_forest(gens: list):
    """(path, tree) by a breadth-first search over the blocks gens touch,
    along each generator and its inverse in generator order.  path[b] is
    u_b, the positions in b of the images of its root's members, and tree[b]
    is (parent, generator index, "fwd" or "inv"), or None at a root.  A
    mapping's inverse is its argsort, and composition is indexing."""
    edges = {}  # block -> indices of the generators at it, in order
    for i, (src, dst, _, _) in enumerate(gens):
        edges.setdefault(src, []).append(i)
        edges.setdefault(dst, []).append(i)
    path, tree = {}, {}
    for root in (b for b in edges if b not in path):
        path[root], tree[root] = np.arange(len(gens[edges[root][0]][2])), None
        queue = [root]
        for a in queue:
            for i in edges[a]:
                src, dst, positions, _ = gens[i]
                if src == a and dst not in path:
                    path[dst], tree[dst] = positions[path[a]], (a, i, "fwd")
                    queue.append(dst)
                elif dst == a and src not in path:
                    path[src], tree[src] = np.argsort(positions)[path[a]], (a, i, "inv")
                    queue.append(src)
    return path, tree


def _schreier_loops(sch: Scheme, gens: list, budget: int) -> SaturationResult:
    """The verdict on gens, none of them a nontrivial self-map.  Every vertex
    group of the groupoid is trivial exactly when g[u_src] == u_dst for each
    generator g: src -> dst (Schreier's lemma), and the first g that fails
    closes a loop at its root that permutes the root nontrivially."""
    path, tree = _spanning_forest(gens)
    for loops, gen in enumerate(gens, 1):
        src, dst, positions, _ = gen
        image = positions[path[src]]
        if not np.array_equal(image, path[dst]):
            root, to_src = _tree_word(gens, tree, src)
            to_dst = _tree_word(gens, tree, dst)[1]
            word = to_src + [_letter(gen)] + [s.inverse() for s in reversed(to_dst)]
            members = _members(sch, root)[np.argsort(path[dst])[image]]
            return SaturationResult("witness", len(gens) + loops, budget, generators=len(gens),
                                    witness=Witness(root, word, tuple(members.tolist())))
    # every generator read and its loop checked
    return SaturationResult("antisymmetric", 2 * len(gens), budget, generators=len(gens))


def _tree_word(gens: list, tree: dict, b: tuple):
    """(root of b's tree, the letters of the tree path from it to b)."""
    word = []
    while tree[b] is not None:
        b, i, direction = tree[b]
        step = _letter(gens[i])
        word.append(step if direction == "fwd" else step.inverse())
    return b, word[::-1]


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
    largest = int(sch.level(1).sizes.max())
    if largest < 2:
        raise PreconditionUnmet("level-1-not-discrete")
    sd = sch.instance.span_dim()
    ok = sch.m < sd and 2 ** sch.m <= largest
    return DepthBoundsReport(
        sch.m, sd, largest, sd - sch.m, math.log2(largest) - sch.m, ok
    )


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
            lvl = fib.level(1)
            others = block[block != x]
            ids = lvl.bid[pos(others)]
            cand = (int(lvl.sizes[ids].max()), x, fib, others, ids, lvl.sizes)
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
