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
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DepthExhausted,
    InputError,
    LemmaViolation,
    NotBlockUnion,
    PreconditionUnmet,
)
from .gf_linalg import (
    LinMap,
    enumerate_linmaps,
    linmap,
    span_basis,
    span_points,
)
from .scheme_core import Scheme


@dataclass(frozen=True)
class Atom:
    tau: LinMap
    block: int
    points: frozenset


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


def enumerate_atoms(sch: Scheme, k: int):
    """All atoms tau(D), tau in M_{k,1}, D a block at arity k; deterministic order.

    Lazy: atoms are yielded one at a time so consumers that find what they
    need early never touch the rest of the (tau, block) grid.
    """
    if k > sch.m:
        raise DepthExhausted(f"atoms at arity {k} need depth {k} > m={sch.m}")
    inst = sch.instance
    part = sch.level(k)
    tuples = inst.tuples_array(k)
    for tau in enumerate_linmaps(inst.field, k, 1):
        img = tau.apply_batch(inst.field, tuples)[:, 0]
        for b in range(part.num_blocks):
            rows = part.blocks()[b]
            yield Atom(tau, b, frozenset(int(c) for c in img[rows]))


def verify_certificate(sch: Scheme, cert: Certificate) -> bool:
    """Recompute every entry's image; the union must equal cert.points."""
    inst = sch.instance
    part = sch.level(cert.k)
    tuples = inst.tuples_array(cert.k)
    got = set()
    for tau, b in cert.entries:
        img = tau.apply_batch(inst.field, tuples[part.blocks()[b]])[:, 0]
        pts = set(int(c) for c in img)
        if not pts <= cert.points:
            return False
        got |= pts
    return got == cert.points


def decide_constructible(sch: Scheme, points, k: int) -> Optional[Certificate]:
    """Certificate for T as a union of arity-k atoms, or None.

    Entries are a greedy cover in deterministic atom order, so reruns give
    identical certificates.
    """
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
    keep = frozenset(keep_points)
    entries = []
    result = set()
    for tau, b in cert.entries:
        rows = part.blocks()[b]
        img = tau.apply_batch(inst.field, tuples[rows])[:, 0]
        inside = rows[np.fromiter((int(c) in keep for c in img), dtype=bool,
                                  count=len(rows))]
        if len(inside) == 0:
            continue
        ids = part.ids_as_union(inside)  # raises NotBlockUnion on failure
        for d in sorted(ids):
            entries.append((tau, d))
            imgd = tau.apply_batch(inst.field, tuples[part.blocks()[d]])[:, 0]
            result |= set(int(c) for c in imgd)
    return Certificate(cert.k, cert.prefix, entries, frozenset(result))


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
        from .gf_linalg import rank_mod

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
    result = set()
    tuples = inst.tuples_array(k + dt)
    for tau, b in cert.entries:
        rows = np.sort(sch.level(k).blocks()[b])
        lifted = rows * (n ** dt) + prefix_idx  # indices of B x {prefix}
        for svec in itertools.product(range(f.ell), repeat=d):
            ids = part.ids_as_union(lifted)
            rowsets = [part.blocks()[i] for i in sorted(ids)]
            coeffs = [list(row) for row in tau.coeffs] + [
                [(svec[i] * lam) % f.ell]
                for i, terms in enumerate(decomps)
                for lam, _ in terms
            ]
            tau_s = linmap(coeffs)
            for i, rowset in zip(sorted(ids), rowsets):
                entries.append((tau_s, i))
                img = tau_s.apply_batch(f, tuples[rowset])[:, 0]
                result |= set(int(c) for c in img)
    if frozenset(result) != Wp:
        raise LemmaViolation(
            f"extension produced {len(result)} points, expected |W'|={len(Wp)}"
        )
    return prefix, Certificate(k + dt, fib.prefix, entries, Wp)
