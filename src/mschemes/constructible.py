"""Point sets assembled from arity-k blocks through linear collapse maps.

The atoms at arity k are the images tau(D) for D a block of the arity-k
partition and tau a coordinate-linear map V^k -> V.  A point set is
(scheme, k)-constructible when it is a union of atoms; the decision rule is
T = union of the atoms contained in T.  Certificates list the contributing
(tau, block) pairs together with the fibre prefix of the scheme they live on.

Atom index.  A scheme's `AtomIndex` at arity k holds its atoms in one flat
layout, atom a = i * num_blocks + b being tau_i(D_b) with its codes one run
of `codes`.  It grows one tau at a time and only as far as a cover needs:
`decide_constructible` tests every built atom in one `logical_and.reduceat`
and builds another tau only while T is not covered.
`find_constructible_prefix` decides each run of consecutive prefixes whose
fibre is built and whose index is complete in one reduceat over their
concatenated atoms; it builds exactly the fibres and atoms, and returns the
certificate, of deciding the prefixes one by one.
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
    digit_rows,
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
    """The atoms tau(D) of one scheme at arity k, in one flat layout, built
    one tau at a time.

    Atom a = i * num_blocks + b is tau_i(D_b), for tau_i the i-th map of
    `enumerate_linmaps(field, k, 1)` and D_b the block with id b: its distinct
    image codes, ascending, are codes[starts[a]:starts[a] + sizes[a]].  The
    arrays hold the atoms of the first len(maps) taus, in atom order.  A
    scheme keeps one index per arity for its lifetime.
    """

    def __init__(self, sch: Scheme, k: int):
        part = sch.level(k)
        self.bid = part.bid
        self.num_blocks = part.num_blocks
        sch.instance.check_tuple_cap(k)
        self.size = sch.field.ell ** k
        maps = enumerate_linmaps(sch.field, k, 1)
        # next() runs enumerate_linmaps' map-count cap check now
        self._pending = itertools.chain([next(maps)], maps)
        self.maps = []
        self.codes = np.zeros(0, dtype=np.int64)
        self.starts = np.zeros(0, dtype=np.int64)
        self.sizes = np.zeros(0, dtype=np.int64)

    @property
    def complete(self) -> bool:
        """Whether the atoms of every tau are built."""
        return len(self.maps) == self.size

    def _extend(self, field, tuples: np.ndarray):
        """Append the atoms of the next tau, from the (n^k, k) tuple array."""
        tau = next(self._pending)
        # slices of at most 2^16 tuples bound apply_batch's digit arrays
        img = np.concatenate([tau.apply_batch(field, tuples[lo:lo + 2 ** 16])[:, 0]
                              for lo in range(0, len(tuples), 2 ** 16)])
        # the sorted distinct (block, code) pairs, as keys block * q + code
        key = np.sort(img + self.bid * field.q)
        new = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        blocks, codes = np.divmod(key[new], field.q)
        sizes = np.bincount(blocks, minlength=self.num_blocks)
        self.maps.append(tau)
        self.starts = np.concatenate([self.starts, np.cumsum(sizes) - sizes + len(self.codes)])
        self.codes = np.concatenate([self.codes, codes])
        self.sizes = np.concatenate([self.sizes, sizes])


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


def _target_mask(q: int, target: frozenset) -> Optional[np.ndarray]:
    """Mask over [0, q) of T, or None when T has a code outside [0, q), which
    no union of atoms has."""
    if target and (min(target) < 0 or max(target) >= q):
        return None
    mask = np.zeros(q, dtype=bool)
    mask[list(target)] = True
    return mask


def decide_constructible(sch: Scheme, points, k: int) -> Optional[Certificate]:
    """Certificate for T as a union of arity-k atoms, or None.

    Entries are a greedy cover in (tau, block) order: an atom is taken when
    it lies inside T and adds a point not yet covered, and the cover stops
    once T is covered, so reruns give identical certificates.

    The decision comes first: every built atom is tested against T with one
    `logical_and.reduceat`, and the atoms inside T are marked covered.  While
    T is not covered, the index grows by one tau and only that tau's atoms
    are tested, so it grows only as far as the cover, or until the maps run
    out.  Only a hit walks its atoms one by one for the greedy entries.
    """
    target = frozenset(int(c) for c in points)
    index = _atom_index(sch, k)
    mask = _target_mask(sch.field.q, target)
    if mask is None:
        return None
    covered = np.zeros_like(mask)
    inside = np.zeros(0, dtype=bool)  # per atom tested: whether it lies inside T
    tuples = None
    while True:
        first = len(inside)
        if first < len(index.starts):
            lo = index.starts[first]
            codes = index.codes[lo:]
            hits = np.logical_and.reduceat(mask[codes], index.starts[first:] - lo)
            covered[codes[np.repeat(hits, index.sizes[first:])]] = True
            inside = np.concatenate([inside, hits])
        if np.count_nonzero(covered) == len(target):
            break
        if index.complete:
            return None
        if tuples is None:
            tuples = sch.instance.tuples_array(k)
        index._extend(sch.field, tuples)
    # the atoms inside T cover it: walk them in order and take each one that
    # adds a point, until T is covered
    covered[:] = False
    left = len(target)
    entries = []
    for a in np.flatnonzero(inside).tolist():
        atom = index.codes[index.starts[a]:index.starts[a] + index.sizes[a]]
        fresh = len(atom) - np.count_nonzero(covered[atom])
        if fresh:
            covered[atom] = True
            entries.append((index.maps[a // index.num_blocks], a % index.num_blocks))
            left -= fresh
            if not left:
                break
    return Certificate(k, sch.prefix, entries, target)


def _decide_run(run: list, target: frozenset, mask: Optional[np.ndarray], k: int):
    """(x, certificate) for the first hit among the (x, fibre) pairs of a run,
    else None (always for T outside [0, q), whose mask is None).  Every
    fibre's arity-k index must be complete, so deciding it builds nothing:
    one reduceat tests the atoms of all of them, and one (fibres, q) table
    counts the points of T each fibre's inside atoms cover.
    """
    if not run or mask is None:
        return None
    indexes = [fib.atom_indexes[k] for _, fib in run]
    codes = np.concatenate([index.codes for index in indexes])
    sizes = np.concatenate([index.sizes for index in indexes])
    # every index lays its atoms out back to back, and so does the run; per
    # code: whether its atom lies inside T, and which fibre it belongs to
    code_inside = np.repeat(
        np.logical_and.reduceat(mask[codes], np.cumsum(sizes) - sizes), sizes)
    owner = np.repeat(np.arange(len(run)), [len(index.codes) for index in indexes])
    table = np.zeros((len(run), len(mask)), dtype=bool)
    table[owner[code_inside], codes[code_inside]] = True
    hits = np.flatnonzero(np.count_nonzero(table, axis=1) == len(target))
    if not len(hits):
        return None
    x, fib = run[hits[0]]
    return x, decide_constructible(fib, target, k)


def find_constructible_prefix(sch: Scheme, points, k: int, prefix_len: int,
                              prefix_cap: Optional[int] = None):
    """Search fibre prefixes x in S^prefix_len for one making T constructible
    at arity k; returns (x, certificate) for the first hit, else None.

    Prefixes are scanned in tuple-index order; prefix_cap bounds how many are
    tried (None = all).  The result, and the fibres and atoms built, are
    those of calling `decide_constructible(sch.fiber(x), T, k)` on each
    prefix in turn until one hits.  A run of consecutive prefixes whose fibre
    is built and whose arity-k index is complete cannot build anything, so
    the run is decided in one pass over all its atoms; any other prefix is
    decided alone, after the run before it.  The tuple cap is checked for
    every prefix decided, and a hit's certificate is that of
    `decide_constructible` on its fibre.
    """
    if prefix_len == 0:
        cert = decide_constructible(sch, points, k)
        return ((), cert) if cert else None
    if prefix_len + k > sch.m:
        raise DepthExhausted(
            f"prefix {prefix_len} plus arity {k} exceeds depth m={sch.m}"
        )
    target = frozenset(int(c) for c in points)
    mask = _target_mask(sch.field.q, target)
    run = []  # (x, fibre) of the prefixes that wait for one pass
    count = 0
    for x in itertools.product(sch.s_codes, repeat=prefix_len):
        if prefix_cap is not None and count >= prefix_cap:
            break
        count += 1
        fib = sch.built_fiber(x)
        index = None if fib is None else fib.atom_indexes.get(k)
        if index is not None and index.complete:
            fib.instance.check_tuple_cap(k)
            run.append((x, fib))
            continue
        hit = _decide_run(run, target, mask, k)
        if hit is not None:
            return hit
        run = []
        cert = decide_constructible(sch.fiber(x), target, k)
        if cert is not None:
            return x, cert
    return _decide_run(run, target, mask, k)


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
        for svec in digit_rows(f.ell, d).tolist():
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
