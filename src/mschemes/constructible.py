"""Point sets assembled from arity-k blocks through linear collapse maps.

The atoms at arity k are the images tau(D) for D a block of the arity-k
partition and tau a coordinate-linear map V^k -> V.  A point set is
(scheme, k)-constructible when it is a union of atoms; the decision rule is
T = union of the atoms contained in T.  Certificates list the contributing
(tau, block) pairs together with the fibre prefix of the scheme they live on.

Atom index.  A scheme's `AtomIndex` at arity k holds its atoms in one flat
layout, atom a = i * num_blocks + b being tau_i(D_b) with its codes one run
of `codes`.  It grows a batch of taus per numpy pass: S^k is mapped by
one `LinMap` whose columns are the batch's taus, and one sort of (atom,
code) keys appends their atoms.  A batch holds at most 2^18 / |S^k| taus,
or one tau where that is below 1.  `decide_constructible` tests every
built atom in one `logical_and.reduceat`, and grows the index only while
T is not covered, each batch as large as the index (at least one tau), so
a cover that needs the first j taus builds fewer than 2j of them.  The
prefix search builds every tau, in as few batches as the bound allows.

Prefix search.  `find_constructible_prefix` returns the prefix and the
certificate of deciding the prefixes one by one.  On a scheme with a group
backend it decides them an orbit of G on S^len at a time: u in G carrying
the orbit's least prefix to x carries the atoms there to those at x, so
u^-1 T is tested against the complete index of the least prefix's fibre,
for all the orbit's prefixes in one pass, and a hit's certificate is
transported back without building its fibre.  u acts on T through a basis
of span(S) inside S (`SchemeInstance.span_chart`).  Every orbit scheme has
a backend; a scheme without one (read from JSON, a power, or built from
levels by hand) decides the prefixes one by one.  On a backend scheme one
scan decides all the arities asked of a prefix length, largest first
(`find_constructible_arities`): every fibre of an orbit scheme satisfies
P1, so an arity-k atom tau(D) is also the arity-(k+1) atom (tau∘pi)(D')
of each block D' over D (pi drops the last coordinate), and a smaller
arity is decided only on the prefixes where the next larger one hit.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import DepthExhausted
from .gf_linalg import LinMap, enumerate_linmaps, linmap_count, radix_digits, radix_weights
from .group_orbits import on_tuples
from .scheme_core import Scheme, SchemeInstance


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
    codes = list(codes)
    in_range = not codes or (min(codes) >= 0 and max(codes) < q)
    mask = np.zeros(q, dtype=bool)
    mask[codes if in_range else [c for c in codes if 0 <= c < q]] = True
    return mask, in_range


def _image(inst: SchemeInstance, tau: LinMap, k: int, rows) -> np.ndarray:
    """tau's image codes of the tuples of S^k at the tuple indices rows."""
    return tau.apply_batch(inst.field, inst.tuples_array(k, rows))[:, 0]


def verify_certificate(sch: Scheme, cert: Certificate) -> bool:
    """Recompute every entry's image; the union must equal cert.points.  An
    entry naming a block id outside [0, num_blocks) fails the check."""
    inst = sch.instance
    part = sch.level(cert.k)
    want, in_range = _point_mask(inst.field.q, cert.points)
    got = np.zeros_like(want)
    for tau, b in cert.entries:
        if not 0 <= b < part.num_blocks:
            return False
        img = _image(inst, tau, cert.k, part.block(b))
        if not want[img].all():
            return False
        got[img] = True
    return in_range and np.array_equal(got, want)


class AtomIndex:
    """The atoms tau(D) of one scheme at arity k, in one flat layout, grown
    a batch of taus at a time.

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
        # once complete, for the prefix search: the distinct codes U of the
        # atoms, and the (atoms, U) 0/1 matrix of which atom holds which
        self.incidence = None

    @property
    def complete(self) -> bool:
        """Whether the atoms of every tau are built."""
        return len(self.maps) == self.size

    def _extend(self, field, tuples: np.ndarray, count: int):
        """Append the atoms of the next `count` taus, from the (n^k, k) tuple
        array, in one pass; fewer if fewer are left, or if more than
        max(1, 2^18 // n^k), which bounds the pass's (tuple, tau) arrays."""
        count = min(count, max(1, 2 ** 18 // len(tuples)))
        taus = list(itertools.islice(self._pending, count))
        # one map V^k -> V^len(taus) whose j-th column is the j-th tau
        batch = LinMap(tuples.shape[1], len(taus),
                       tuple(zip(*(sum(tau.coeffs, ()) for tau in taus))))
        # slices of at most 2^16 (tuple, tau) pairs bound apply_batch's
        # digit arrays
        step = max(1, 2 ** 16 // len(taus))
        img = np.concatenate([batch.apply_batch(field, tuples[lo:lo + step])
                              for lo in range(0, len(tuples), step)])
        # the sorted distinct (atom, code) pairs, as keys atom * q + code,
        # the j-th tau's atom of block b being j * num_blocks + b; the bound
        # on count keeps them below max(2^18, n^k) * q
        atom = self.bid[:, None] + np.arange(len(taus)) * self.num_blocks
        key = np.sort(img + atom * field.q, axis=None)
        new = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        atoms, codes = np.divmod(key[new], field.q)
        sizes = np.bincount(atoms, minlength=len(taus) * self.num_blocks)
        self.maps += taus
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


def decide_constructible(sch: Scheme, points, k: int) -> Optional[Certificate]:
    """Certificate for T as a union of arity-k atoms, or None.

    Entries are a greedy cover in (tau, block) order: an atom is taken when
    it lies inside T and adds a point not yet covered, and the cover stops
    once T is covered, so reruns give identical certificates.  The decision
    is `_decide`'s; only a hit walks its atoms one by one for the greedy
    entries.
    """
    target = frozenset(int(c) for c in points)
    found = _decide(sch, target, k)
    if found is None:
        return None
    return Certificate(k, sch.prefix, _greedy_entries(*found, target, sch.field.q), target)


def _decide(sch: Scheme, target: frozenset, k: int):
    """(the arity-k atom index, which of its atoms lie inside T) if T is a
    union of arity-k atoms, else None.

    Every built atom is tested against T with one `logical_and.reduceat`,
    and the atoms inside T are marked covered.  While T is not covered, the
    index grows by a batch of as many taus as it holds (at least 1, within
    `AtomIndex._extend`'s bound), and only the batch's atoms are tested;
    so it grows to the first batch boundary at or past the cover, or until
    the maps run out.
    """
    index = _atom_index(sch, k)
    mask, in_range = _point_mask(sch.field.q, target)
    if not in_range:  # no union of atoms has a code outside [0, q)
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
            return index, inside
        if index.complete:
            return None
        if tuples is None:
            tuples = sch.instance.tuples_array(k)
        index._extend(sch.field, tuples, max(1, len(index.maps)))


def _greedy_entries(index: AtomIndex, inside: np.ndarray, target, q: int,
                    atoms=None) -> list:
    """The greedy cover of a target by the atoms inside it, in [0, q):
    walk the atoms j with inside[j] in order, and take each one that adds a
    point, until the target is covered.  Atom j is (tau_i, D_b) for
    j = i * num_blocks + b; its points are those of atom atoms[j] of the
    index (atom j itself by default)."""
    covered = np.zeros(q, dtype=bool)
    left = len(target)
    entries = []
    for j in np.flatnonzero(inside).tolist():
        a = j if atoms is None else atoms[j]
        atom = index.codes[index.starts[a]:index.starts[a] + index.sizes[a]]
        fresh = len(atom) - np.count_nonzero(covered[atom])
        if fresh:
            covered[atom] = True
            entries.append((index.maps[j // index.num_blocks], j % index.num_blocks))
            left -= fresh
            if not left:
                break
    return entries


def find_constructible_prefix(sch: Scheme, points, k: int, prefix_len: int,
                              prefix_cap: Optional[int] = None):
    """Search fibre prefixes x in S^prefix_len for one making T constructible
    at arity k; returns (x, certificate) for the first hit, else None.

    Prefixes are scanned in tuple-index order; prefix_cap bounds how many are
    tried (None = all).  The result is that of calling
    `decide_constructible(sch.fiber(x), T, k)` on each prefix in turn until
    one hits, certificate included, which is what a scheme without a backend
    does.  A scheme with a backend decides the prefixes an orbit at a time
    on one fibre (`_scan_orbits`).  Either way the tuple cap is checked
    whenever a prefix is decided.
    """
    if sch.backend is not None:
        found = find_constructible_arities(sch, points, (k,), prefix_len, prefix_cap)
        return found and found[1:]
    if prefix_len == 0:
        cert = decide_constructible(sch, points, k)
        return ((), cert) if cert else None
    _check_depth(sch, prefix_len, k)
    target = frozenset(int(c) for c in points)
    for count, x in enumerate(itertools.product(sch.s_codes, repeat=prefix_len)):
        if prefix_cap is not None and count >= prefix_cap:
            break
        cert = decide_constructible(sch.fiber(x), target, k)
        if cert is not None:
            return x, cert
    return None


def _check_depth(sch: Scheme, prefix_len: int, k: int):
    if prefix_len + k > sch.m:
        raise DepthExhausted(
            f"prefix {prefix_len} plus arity {k} exceeds depth m={sch.m}"
        )


def find_constructible_arities(sch: Scheme, points, arities, prefix_len: int,
                               prefix_cap: Optional[int] = None):
    """The least of the ascending `arities` at which some prefix of S^prefix_len
    makes T constructible, on a scheme with a backend: (k, x, certificate),
    the (x, certificate) being what `find_constructible_prefix` returns at
    arity k, or None if no arity hits.

    The largest arity is decided first, and each smaller one only where the
    next larger one hit: every fibre of an orbit scheme satisfies P1, so a
    prefix where T misses at arity k + 1 misses at arity k too.  Prefix
    length 0 decides the arities from the largest down, until one misses,
    and walks the greedy cover once, for the least arity that hit; a longer
    prefix scans its orbits once for all the arities (`_scan_orbits`).  A
    scheme without a backend need not satisfy P1, and is not passed here.
    The caps checked are those of the largest arity, which may trip where
    deciding the smaller arities alone would not.
    """
    target = frozenset(int(c) for c in points)
    if prefix_len == 0:
        hit = None
        for k in reversed(arities):
            found = _decide(sch, target, k)
            if found is None:
                break
            hit = k, found
        if hit is None:
            return None
        k, found = hit
        entries = _greedy_entries(*found, target, sch.field.q)
        return k, (), Certificate(k, sch.prefix, entries, target)
    _check_depth(sch, prefix_len, arities[-1])
    return _scan_orbits(sch, target, arities, prefix_len, prefix_cap)


class _Transport(NamedTuple):
    """Transport data of the first prefixes of S^len, in tuple-index order,
    one read-only table per scheme and prefix length."""

    reps: np.ndarray  # tuple index of the least prefix of each prefix's orbit
    u: np.ndarray     # (rows, n): a group element carrying it to the prefix
    lift: np.ndarray  # (rows, r, d): digit rows of u^-1 on the basis of span(S)
    orbits: list      # (least prefix: index and codes, the orbit's prefixes)


def _transport_table(sch: Scheme, prefix_len: int, rows: int) -> _Transport:
    """The scheme's transport table of prefix length prefix_len, grown to at
    least `rows` prefixes.  u comes from the backend's `transporter`, and
    lift from `SchemeInstance.span_chart`: u^-1 applied to a point of
    span(S) with coordinates c in the basis is c @ lift.  The table's
    n^prefix_len * n entries at full size are checked against the tuple
    cap before it is built or grown."""
    table = sch.transporters.get(prefix_len)
    have = 0 if table is None else len(table.reps)
    if have >= rows:
        return table
    inst = sch.instance
    n = inst.n
    inst.field.check_cap(f"transporter table S^{prefix_len} x S", n ** prefix_len * n)
    reps, perms = [], []
    for positions in radix_digits(np.arange(have, rows), n, prefix_len).tolist():
        rep, u = sch.backend.transporter(positions)
        reps.append(rep)
        perms.append(u)
    u = np.array(perms, dtype=np.int64)
    u_inv = np.empty_like(u)
    u_inv[np.arange(len(u))[:, None], u] = np.arange(n)
    lift = inst.field.decode_batch(inst.s_array[u_inv[:, inst.span_chart[0]]])
    reps = np.array(reps, dtype=np.int64) @ radix_weights(n, prefix_len)
    if table is not None:
        reps = np.concatenate([table.reps, reps])
        u, lift = np.concatenate([table.u, u]), np.concatenate([table.lift, lift])
    # the prefixes of each orbit, ascending, the orbits by least prefix
    order = np.argsort(reps, kind="stable")
    firsts = np.flatnonzero(np.diff(reps[order], prepend=-1))
    least = reps[order[firsts]]
    codes = inst.s_array[radix_digits(least, n, prefix_len)].tolist()
    orbits = [(rep, tuple(x), members) for rep, x, members
              in zip(least.tolist(), codes, np.split(order, firsts[1:]))]
    for arr in (reps, u, lift, *(members for _, _, members in orbits)):
        arr.flags.writeable = False
    table = sch.transporters[prefix_len] = _Transport(reps, u, lift, orbits)
    return table


def _complete_index(sch: Scheme, k: int) -> AtomIndex:
    """The scheme's arity-k atom index with the atoms of every tau built,
    and its `incidence` set; the incidence matrix's entries are checked
    against the tuple cap before it is built."""
    index = _atom_index(sch, k)
    if index.incidence is None:
        if not index.complete:
            tuples = sch.instance.tuples_array(k)
            while not index.complete:
                index._extend(sch.field, tuples, index.size)
        codes, column = np.unique(index.codes, return_inverse=True)
        sch.field.check_cap(f"atom incidence at arity {k}", len(index.sizes) * len(codes))
        held = np.zeros((len(index.sizes), len(codes)))
        held[np.repeat(np.arange(len(index.sizes)), index.sizes), column] = 1
        index.incidence = (codes, held)
    return index


def _scan_orbits(sch: Scheme, target: frozenset, arities, prefix_len: int,
                 prefix_cap: Optional[int]):
    """`find_constructible_arities` at prefix length prefix_len > 0, an orbit
    of G on S^prefix_len at a time.

    G commutes with every coordinate-linear map, so for u in G carrying the
    prefix rep to x the blocks at x are u applied to those at rep, so are
    the atoms, and T is constructible at x exactly when u^-1 T is at rep.
    T with a point outside span(S), which holds every atom, or outside
    [0, q) misses everywhere, and T = ∅ hits at once; neither builds
    anything.  Otherwise the orbits are taken in the order of their least
    prefix rep, until rep lies past the first hit of the smallest arity.
    The fibre at rep gets a complete index at each arity, and one
    (prefixes, q) table holds u^-1 T for the orbit's scanned prefixes.  Two
    products with an index's atom-by-code incidence matrix decide a row:
    the first counts the points of each atom in u^-1 T, so the atoms inside
    it are those where the count is the atom's size, and the second marks
    the points the atoms inside cover; u^-1 T is constructible when they
    are all of it.  The counts are integers far below 2^53, so the float
    products are exact.  Every row is decided at the largest arity, and
    each smaller arity decides only the rows where the next larger one hit.
    The first hit x of the least arity that hits gives the certificate:
    the greedy cover at x walked over the rep atoms in x's (tau, block)
    order, where the canonical id at x of the block u(D) is the rank of its
    least tuple; x's own fibre is not built."""
    inst = sch.instance
    q, n = inst.field.q, inst.n
    rows = n ** prefix_len if prefix_cap is None else min(prefix_cap, n ** prefix_len)
    if rows <= 0:
        return None
    # the caps that deciding any prefix checks first, which grow with the arity
    inst.check_tuple_cap(arities[-1])
    linmap_count(inst.field, arities[-1], 1)
    if not target:
        x = tuple(inst.s_array[radix_digits(0, n, prefix_len)].tolist())
        return arities[0], x, Certificate(arities[0], sch.prefix + x, [], target)
    # span(S) lies in [0, q): a code outside [0, q) is outside span(S) too
    _, span_codes, span_coords = inst.span_chart
    codes = np.array(sorted(target), dtype=np.int64)
    row = np.searchsorted(span_codes, codes)
    if row[-1] == len(span_codes) or not np.array_equal(span_codes[row], codes):
        return None
    coords = span_coords[row]  # (|T|, r)
    table = _transport_table(sch, prefix_len, rows)
    weights = radix_weights(inst.field.ell, inst.field.dim)
    # per arity, its first hit: (x's row, fibre at rep, its index, atoms
    # inside u^-1 T)
    hits = [None] * len(arities)
    for rep, rep_prefix, members in table.orbits:
        limit = rows if hits[0] is None else hits[0][0]
        if rep >= limit:
            break
        if members[-1] >= limit:
            members = members[:np.searchsorted(members, limit)]
        fib = sch.fiber(rep_prefix)
        indexes = [_complete_index(fib, k) for k in arities]
        # row chunks of at most 2^18 entries bound the per-row arrays
        step = max(1, 2 ** 18 // max(len(indexes[-1].sizes), q))
        for lo in range(0, len(members), step):
            chunk = members[lo:lo + step]
            # (rows, |T|): the codes of u^-1 T, from its digits mod ell
            moved = (coords @ table.lift[chunk]) % inst.field.ell @ weights
            mask = np.zeros((len(chunk), q))
            mask[np.arange(len(chunk))[:, None], moved] = 1
            # the rows the next larger arity hit, and their rows of mask
            live = np.arange(len(chunk))
            for i in reversed(range(len(arities))):
                index = indexes[i]
                held_codes, held = index.incidence
                inside = mask[:, held_codes] @ held.T == index.sizes
                covered = (inside.astype(held.dtype) @ held > 0).sum(axis=1)
                found = covered == len(target)
                live, inside, mask = live[found], inside[found], mask[found]
                if not len(live):
                    break
                if hits[i] is None or chunk[live[0]] < hits[i][0]:
                    hits[i] = (int(chunk[live[0]]), fib, index, inside[0])
            if len(live):  # the smallest arity hit: later rows lie past it
                break
    for k, hit in zip(arities, hits):
        if hit is not None:
            return (k, *_transported_certificate(sch, table, prefix_len, k, hit, target))
    return None


def _transported_certificate(sch: Scheme, table: _Transport, prefix_len: int,
                             k: int, hit, target: frozenset):
    """(x, certificate at x) from a hit (x's row, fibre at rep, its arity-k
    index, atoms inside u^-1 T) of the scan of `table`."""
    inst = sch.instance
    x_row, fib, index, inside = hit
    part = fib.level(k)
    least = np.minimum.reduceat(on_tuples(table.u[x_row], k)[part.order], part.starts)
    # atom j = i * B + b at x is u applied to rep atom atoms[j], whose block
    # is the b-th by least tuple at x
    atoms = (np.arange(len(index.maps))[:, None] * part.num_blocks
             + np.argsort(least)).ravel()
    x = tuple(inst.s_array[radix_digits(x_row, inst.n, prefix_len)].tolist())
    entries = _greedy_entries(index, inside[atoms], target, inst.field.q, atoms.tolist())
    return x, Certificate(k, sch.prefix + x, entries, target)
