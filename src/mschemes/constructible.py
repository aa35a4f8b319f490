"""Point sets assembled from arity-k blocks through linear collapse maps.

The atoms at arity k are the images tau(D) for D a block of the arity-k
partition and tau a coordinate-linear map V^k -> V.  A point set is
(scheme, k)-constructible when it is a union of atoms; the decision rule is
T = union of the atoms contained in T.  Certificates list the contributing
(tau, block) pairs together with the fibre prefix of the scheme they live on.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    DepthExhausted,
    InputError,
    LemmaViolation,
    PreconditionUnmet,
)
from .gf_linalg import (
    enumerate_linmaps,
    linmap,
    rank_mod,
    span_basis,
    span_points,
)
from .scheme_core import Scheme


@dataclass
class Certificate:
    """Witness that a point set is (scheme, k)-constructible."""

    k: int
    prefix: tuple  # fibre prefix of the scheme the blocks live on
    entries: list  # list of (LinMap, block id)
    points: frozenset

    def describe(self):
        return {
            "k": self.k,
            "prefix": list(self.prefix),
            "entries": [
                {"tau": t.as_lists(), "block": b} for t, b in self.entries
            ],
            "size": len(self.points),
        }


def _point_mask(q: int, codes) -> tuple:
    """(mask over [0, q) of the codes in range, whether every code was)."""
    arr = np.fromiter(codes, dtype=np.int64)
    inside = arr[(arr >= 0) & (arr < q)]
    mask = np.zeros(q, dtype=bool)
    mask[inside] = True
    return mask, len(inside) == len(arr)


def verify_certificate(sch: Scheme, cert: Certificate) -> bool:
    """Recompute every entry's image; the union must equal cert.points.  An
    entry naming a block id outside [0, num_blocks) fails the check."""
    inst = sch.instance
    part = sch.level(cert.k)
    tuples = inst.tuples_array(cert.k)
    want, in_range = _point_mask(inst.field.q, cert.points)
    got = np.zeros_like(want)
    for tau, b in cert.entries:
        if not 0 <= b < part.num_blocks:
            return False
        img = tau.apply_batch(inst.field, tuples[part.blocks()[b]])[:, 0]
        if not want[img].all():
            return False
        got[img] = True
    return in_range and np.array_equal(got, want)


class AtomIndex:
    """The atoms tau(D) of one scheme at arity k, built one tau at a time.

    Entry i belongs to the i-th tau of `enumerate_linmaps(field, k, 1)`: the
    sorted distinct (block, code) pairs of tau(D) over all blocks D, as the
    image codes grouped by ascending block (`codes[i]`), the offset where
    each block's codes begin (`starts[i]`) and their number (`sizes[i]`).
    A scheme keeps one index per arity for its lifetime.
    """

    def __init__(self, sch: Scheme, k: int):
        self.bid = sch.level(k).bid
        sch.instance.check_tuple_cap(k)
        self.size = sch.field.ell ** k
        maps = enumerate_linmaps(sch.field, k, 1)
        # next() runs enumerate_linmaps' map-count cap check now
        self._pending = itertools.chain([next(maps)], maps)
        self.maps = []
        self.codes = []
        self.starts = []
        self.sizes = []

    def _extend(self, field, tuples: np.ndarray):
        """Build the entry of the next tau from the (n^k, k) tuple array."""
        tau = next(self._pending)
        # slices of at most 2^16 tuples bound apply_batch's digit arrays
        img = np.concatenate([tau.apply_batch(field, tuples[lo:lo + 2 ** 16])[:, 0]
                              for lo in range(0, len(tuples), 2 ** 16)])
        key = np.sort(img + self.bid * field.q)
        new = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        blocks, codes = np.divmod(key[new], field.q)
        sizes = np.bincount(blocks)
        self.maps.append(tau)
        self.codes.append(codes)
        self.starts.append(np.cumsum(sizes) - sizes)
        self.sizes.append(sizes)


def _atom_index(sch: Scheme, k: int) -> AtomIndex:
    """The scheme's atom index at arity k, made on first use; the tuple cap
    is checked on every call."""
    if k > sch.m:
        raise DepthExhausted(f"atoms at arity {k} need depth {k} > m={sch.m}")
    index = sch.atom_indexes.get(k)
    if index is None:
        index = sch.atom_indexes[k] = AtomIndex(sch, k)
    sch.instance.check_tuple_cap(k)
    return index


def decide_constructible(sch: Scheme, points, k: int) -> Optional[Certificate]:
    """Certificate for T as a union of arity-k atoms, or None.

    Entries are a greedy cover in (tau, block) order: an atom is taken when
    it lies inside T and adds a point not yet covered, and the cover stops
    once T is covered, so reruns give identical certificates.

    The decision comes first: for one tau after another, every block's atom
    is tested against T at once, and the atoms inside T are marked covered
    until T is covered (the atom index grows only that far) or the maps run
    out.  Only a hit walks its atoms one by one for the greedy entries.
    """
    target = frozenset(int(c) for c in points)
    index = _atom_index(sch, k)
    q = sch.field.q
    if target and (min(target) < 0 or max(target) >= q):
        return None
    mask = np.zeros(q, dtype=bool)
    mask[list(target)] = True
    covered = np.zeros(q, dtype=bool)
    tuples = None
    inside = []  # per tau so far: which blocks' atoms lie inside T
    while np.count_nonzero(covered) < len(target):
        i = len(inside)
        if i == index.size:
            return None
        if i == len(index.maps):
            if tuples is None:
                tuples = sch.instance.tuples_array(k)
            index._extend(sch.field, tuples)
        codes = index.codes[i]
        inside.append(np.logical_and.reduceat(mask[codes], index.starts[i]))
        covered[codes[np.repeat(inside[i], index.sizes[i])]] = True
    # the atoms inside T of the first len(inside) maps cover T: walk them in
    # order and take each one that adds a point
    covered[:] = False
    entries = []
    for tau, codes, starts, sizes, hits in zip(index.maps, index.codes, index.starts,
                                               index.sizes, inside):
        for b in hits.nonzero()[0].tolist():
            atom = codes[starts[b]:starts[b] + sizes[b]]
            if not covered[atom].all():
                covered[atom] = True
                entries.append((tau, b))
    return Certificate(k, sch.prefix, entries, target)


def find_constructible_prefix(sch: Scheme, points, k: int, prefix_len: int,
                              prefix_cap: Optional[int] = None):
    """Search fibre prefixes x in S^prefix_len for one making T constructible
    at arity k; returns (x, certificate) for the first hit, else None.

    Prefixes are scanned in tuple-index order; prefix_cap bounds how many are
    tried (None = all)."""
    if prefix_len == 0:
        cert = decide_constructible(sch, points, k)
        return ((), cert) if cert else None
    if prefix_len + k > sch.m:
        raise DepthExhausted(
            f"prefix {prefix_len} plus arity {k} exceeds depth m={sch.m}"
        )
    count = 0
    for x in itertools.product(sch.s_codes, repeat=prefix_len):
        if prefix_cap is not None and count >= prefix_cap:
            return None
        count += 1
        cert = decide_constructible(sch.fiber(x), points, k)
        if cert is not None:
            return x, cert
    return None


# ---------------------------------------------------------------------------
# closure operations
# ---------------------------------------------------------------------------


def intersect_with_carrier(sch: Scheme, cert: Certificate):
    """T ∩ S as a level-1 block-id set (closedness forces it to be one)."""
    inst = sch.instance
    hits = [i for i, c in enumerate(inst.s_codes) if c in cert.points]
    return sch.level(1).ids_as_union(hits)


def _restrict_entries(sch: Scheme, cert: Certificate, keep_points) -> Certificate:
    """Certificate for {x in T : x in keep_points} by splitting each entry
    block along the preimage (which closedness makes a block union)."""
    inst = sch.instance
    part = sch.level(cert.k)
    tuples = inst.tuples_array(cert.k)
    keep, _ = _point_mask(inst.field.q, keep_points)
    result = np.zeros_like(keep)
    entries = []
    for tau, b in cert.entries:
        rows = part.blocks()[b]
        img = tau.apply_batch(inst.field, tuples[rows])[:, 0]
        inside = rows[keep[img]]
        if len(inside) == 0:
            continue
        ids = part.ids_as_union(inside)  # raises NotBlockUnion on failure
        for d in sorted(ids):
            entries.append((tau, d))
            result[tau.apply_batch(inst.field, tuples[part.blocks()[d]])[:, 0]] = True
    return Certificate(cert.k, cert.prefix, entries,
                       frozenset(np.flatnonzero(result).tolist()))


def boolean_intersect(sch: Scheme, a: Certificate, b: Certificate) -> Certificate:
    """Intersection certificate; needs a.k + b.k <= m."""
    if a.prefix != b.prefix or a.prefix != sch.prefix:
        raise InputError("certificates live on different fibres")
    if a.k + b.k > sch.m:
        raise PreconditionUnmet("k+k'<=m", f"{a.k}+{b.k} > {sch.m}")
    out = _restrict_entries(sch, a, a.points & b.points)
    if out.points != a.points & b.points:
        raise LemmaViolation("intersection certificate does not reproduce A ∩ B")
    return out


def boolean_difference(sch: Scheme, a: Certificate, b: Certificate) -> Certificate:
    """Difference certificate A \\ B; needs a.k + b.k <= m."""
    if a.prefix != b.prefix or a.prefix != sch.prefix:
        raise InputError("certificates live on different fibres")
    if a.k + b.k > sch.m:
        raise PreconditionUnmet("k+k'<=m", f"{a.k}+{b.k} > {sch.m}")
    out = _restrict_entries(sch, a, a.points - b.points)
    if out.points != a.points - b.points:
        raise LemmaViolation("difference certificate does not reproduce A \\ B")
    return out


# ---------------------------------------------------------------------------
# subspace extension
# ---------------------------------------------------------------------------


def _sum_decomposition(sch: Scheme, target: int, t: int):
    """target as sum of exactly t scaled carrier points; returns a list of
    (coefficient, point code) of length t, or None."""
    f = sch.field
    s_codes = list(sch.s_codes)
    # scaled[j, lam] is the code of lam * s_j
    lams = np.arange(f.ell, dtype=np.int64)
    scaled = f.encode_batch(lams[None, :, None] * f.decode_batch(s_codes)[:, None, :])
    # BFS layers with parent pointers over exact r-fold sums (coefficient 0
    # terms allowed, so reachability is monotone in r); each layer keys its
    # sums in first-hit order of the (value, carrier point, lam) scan
    layers = [{0: None}]
    for _ in range(t):
        vals = list(layers[-1])
        sums = f.add_codes(np.asarray(vals, dtype=np.int64)[:, None, None],
                           scaled[None])
        keys, first = np.unique(sums.reshape(-1), return_index=True)
        nxt = {}
        for j in np.argsort(first).tolist():
            v, rest = divmod(int(first[j]), len(s_codes) * f.ell)
            c, lam = divmod(rest, f.ell)
            nxt[int(keys[j])] = (vals[v], lam, s_codes[c])
        layers.append(nxt)
    if target not in layers[t]:
        return None
    terms = []
    cur = target
    for r in range(t, 0, -1):
        prev, lam, c = layers[r][cur]
        terms.append((lam, c))
        cur = prev
    terms.reverse()
    return terms


def extend_subspace(sch: Scheme, cert: Certificate, target_points, t: int):
    """From a constructible subspace W to a larger W' ⊆ W + t(F·S).

    Returns (prefix x in S^{d*t}, certificate on sch.fiber(x) at arity
    cert.k + d*t), where d = dim W' - dim W.  Requires cert.k + 2dt <= m.
    """
    f = sch.field
    W = cert.points
    Wp = frozenset(int(c) for c in target_points)
    if not W <= Wp:
        raise PreconditionUnmet("W⊆W'", "target does not contain W")
    basis_w = span_basis(f, W)
    basis_wp = span_basis(f, Wp)
    if set(span_points(f, W)) != set(W) or set(span_points(f, Wp)) != set(Wp):
        raise InputError("extend_subspace needs actual subspaces")
    d = basis_wp.shape[0] - basis_w.shape[0]
    if d == 0:
        return (), cert
    k = cert.k
    if k + 2 * d * t > sch.m:
        raise PreconditionUnmet("k+2dt<=m", f"{k}+2*{d}*{t} > {sch.m}")

    # pick basis vectors of W' over W and decompose each into t cone terms
    reps = []
    have = list(f.decode_batch(sorted(W)))
    for c in sorted(Wp):
        aug = np.vstack(have + [f.decode_batch([c])[0]])
        if rank_mod(aug, f.ell) > rank_mod(np.vstack(have), f.ell):
            reps.append(c)
            have.append(f.decode_batch([c])[0])
        if len(reps) == d:
            break
    decomps = []
    for c in reps:
        terms = _sum_decomposition(sch, c, t)
        if terms is None:
            raise PreconditionUnmet("W'⊆W+t(F·S)", f"point {c} not a {t}-fold cone sum")
        decomps.append(terms)

    prefix = tuple(pt for terms in decomps for _, pt in terms)
    fib = sch.fiber(prefix)
    inst = sch.instance
    n = inst.n
    dt = d * t
    part = fib.level(k + dt)
    prefix_idx = inst.tuple_index(prefix)

    entries = []
    result = np.zeros(f.q, dtype=bool)
    tuples = inst.tuples_array(k + dt)
    for tau, b in cert.entries:
        rows = sch.level(k).blocks()[b]
        lifted = rows * (n ** dt) + prefix_idx  # indices of B x {prefix}
        ids = sorted(part.ids_as_union(lifted))
        rowsets = [part.blocks()[i] for i in ids]
        for svec in itertools.product(range(f.ell), repeat=d):
            coeffs = [list(row) for row in tau.coeffs] + [
                [(svec[i] * lam) % f.ell]
                for i, terms in enumerate(decomps)
                for lam, _ in terms
            ]
            tau_s = linmap(coeffs)
            for i, rowset in zip(ids, rowsets):
                entries.append((tau_s, i))
                result[tau_s.apply_batch(f, tuples[rowset])[:, 0]] = True
    got = frozenset(np.flatnonzero(result).tolist())
    if got != Wp:
        raise LemmaViolation(
            f"extension produced {len(got)} points, expected |W'|={len(Wp)}"
        )
    return prefix, Certificate(k + dt, fib.prefix, entries, Wp)
