"""Partition systems on tuple powers of a point set, and their axioms.

A depth-m scheme on S ⊆ F_ell^d is a family of partitions, one of S^k for
each k in [m], required to interact with every coordinate-linear map
tau: V^k -> V^k' as follows:

  (P1) for blocks B, B': tau(B) = B' or tau(B) ∩ B' = ∅  (as subsets of V^k');
  (P2) when tau(B) = B', the fibre sizes #{x in B : tau(x) = y} agree for
       all y in B'.

Tuples of S^k are indexed by their mixed-radix position over sorted S (first
coordinate most significant), which coincides with ordering by integer tuple
code.  Blocks are numbered by smallest contained tuple, ascending.

Carrier index.  `SchemeInstance.s_array` is S as one sorted, read-only
int64 array; `level1_block_set` gathers a block's codes from it, read-only.
`SchemeInstance.pos` is the only map from point codes to positions in S (-1
for a code not in S, also outside [0, q)); it reads one table built once
per instance.  Tuple indices go back to codes only as the gather
`s_array[radix_digits(rows, n, k)]`; `tuples_array(k, rows)` is that
gather behind the cap on S^k.  A `TuplePartition` has one block layout,
three read-only arrays built once from its block ids: `order` lists the
tuple indices block by block, ascending within a block, and block b is its
run of `sizes[b]` entries from `starts[b]`.  Block sizes, member lists
(`block`) and the block order of the map sweep are all read from it.  Every
tuple-cap check is `Field.check_cap` on the instance's field.

Every digit grid here is the radix codec of `gf_linalg`: tuple indices are
`radix_digits` in base n, and dense tuple codes `radix_weights` in base q.

Map table.  `SchemeInstance.map_table(k)` applies to S^k the map V^k ->
V^(ell^k) whose column c has the base-ell digits of c as coefficients: its
coefficient matrix is `digit_rows(field, k)` transposed (the order of
`enumerate_linmaps(field, k, 1)`).  The images under tau are its columns
cols(tau)_j = coeffs[:, j] @ radix_weights(ell, k).  Its n^k * ell^k codes
count against the tuple cap.  Maps are swept only by `_MapGroup.sweep`,
which reads only this table: once per k the table, rows in the layout's
`order`, becomes S-positions P, and the S^k' index of tau(x) is then the
base-n number of the k' columns cols(tau) of P (-1 when one of them is -1).
A (k, k') group's maps have flat indices in `enumerate_linmaps` order,
whose `radix_digits` in base ell are the coefficients; `sweep` takes any
list of them and returns one MapSweep of (T, B) per-block statistics, each
an axis-1 reduceat at the layout's `starts` over the (T, n^k) image array.
`_MapGroup.chunks` is the one loop over a list of flat indices: it sweeps
them T at a time, with T * n^k * k' within SWEEP_CHUNK_ENTRIES.
`Scheme.map_sweep`, which `antisym.generator_maps` reads, runs it over
every map.  `validate` runs it first over the least map of each orbit of
H_k x H_k' (`map_orbits`, H_k from `TuplePartition.coordinate_symmetries`)
until one is bad: when none is, no map of the group is, and otherwise it
runs it over every map of the group.  The number of maps ell^(k*k') is
checked against the map cap before a (k, k') group starts, as
`enumerate_linmaps` does.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .caps import DEFAULT_CAP_TUPLES
from .errors import (
    ArityMismatch,
    DepthExhausted,
    EmptyReference,
    IndexOutOfRange,
    InputError,
    NotBlockUnion,
)
from .gf_linalg import (Field, LinMap, digit_rows, linmap, linmap_count, radix_digits,
                        radix_weights, rref_mod, span_dim, span_grid, unique_sorted)

# bound on T * n^k * k' entries of the image arrays of one MapSweep chunk
SWEEP_CHUNK_ENTRIES = 2 ** 17


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class SchemeInstance:
    """The carrier data: field and the sorted point set S."""

    field: Field
    s_codes: tuple

    def __post_init__(self):
        if not self.s_codes:
            raise EmptyReference("empty carrier set S")
        if list(self.s_codes) != sorted(set(self.s_codes)):
            raise InputError("S must be sorted and duplicate-free")
        if not (0 <= self.s_codes[0] and self.s_codes[-1] < self.field.q):
            raise IndexOutOfRange("S contains codes outside the field")

    @property
    def n(self) -> int:
        return len(self.s_codes)

    @cached_property
    def s_array(self) -> np.ndarray:
        """S as a read-only int64 array, ascending."""
        return _read_only(np.array(self.s_codes, dtype=np.int64))

    @cached_property
    def _pos_table(self) -> np.ndarray:
        """Read-only: entry c < q is the position of code c in S, or -1; the
        last entry, -1, stands for every code outside [0, q)."""
        table = np.full(self.field.q + 1, -1, dtype=np.int64)
        table[self.s_array] = np.arange(self.n)
        return _read_only(table)

    def pos(self, codes) -> np.ndarray:
        """Position in S of each point code, or -1 for a code not in S."""
        codes = np.asarray(codes, dtype=np.int64)
        q = self.field.q
        # read as unsigned, a negative code exceeds q: one max checks the range
        if codes.size and codes.view(np.uint64).max() >= q:
            codes = np.where((codes >= 0) & (codes < q), codes, q)
        return self._pos_table[codes]

    @cached_property
    def span_chart(self) -> tuple:
        """(basis, codes, coords), read-only: the positions in S of a basis
        of span(S), each point of S outside the span of the points before it;
        the ell^r codes of span(S), ascending; and row i of coords, the
        coordinates of codes[i] in that basis.  A linear map is fixed on
        span(S) by its images of the basis."""
        f = self.field
        _, pivots = rref_mod(f.decode_batch(self.s_array).T, f.ell)
        basis = np.array(pivots, dtype=np.int64)
        codes, coords = span_grid(f, f.decode_batch(self.s_array[basis]))
        return _read_only(basis), _read_only(codes), _read_only(coords)

    def tuple_count(self, k: int) -> int:
        return self.n ** k

    def check_tuple_cap(self, k: int):
        self.field.check_cap(f"tuple space S^{k}", self.n ** k)

    def tuples_array(self, k: int, rows=None) -> np.ndarray:
        """(n^k, k) array of point codes, row t = tuple with index t, or only
        the rows at the tuple indices `rows`; the cap on S^k holds either way."""
        self.check_tuple_cap(k)
        if rows is None:
            rows = np.arange(self.n ** k, dtype=np.int64)
        return self.s_array[radix_digits(rows, self.n, k)]

    def map_table(self, k: int) -> np.ndarray:
        """(n^k, ell^k) codes: column c is every tuple of S^k under the map
        V^k -> V whose coefficients are the base-ell digits of c."""
        ell = self.field.ell
        self.field.check_cap(f"map table S^{k} x F_{ell}^{k}", self.n ** k * ell ** k)
        coeffs = tuple(map(tuple, digit_rows(self.field, k).T.tolist()))
        return LinMap(k, ell ** k, coeffs).apply_batch(self.field, self.tuples_array(k))

    def tuple_indices(self, codes: np.ndarray) -> np.ndarray:
        """Index in S^k' of each row of an (N, k') code array, or -1 where
        the row has a coordinate outside S."""
        pos = self.pos(codes)
        return np.where((pos >= 0).all(axis=1), pos @ radix_weights(self.n, codes.shape[1]), -1)

    def span_dim(self) -> int:
        return span_dim(self.field, self.s_codes)


def canonical_block_ids(raw: np.ndarray) -> np.ndarray:
    """Renumber block labels so ids increase with first occurrence."""
    _, first, inverse = np.unique(raw, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank[inverse]


@dataclass
class TuplePartition:
    """A partition of S^k, stored as a block-id array over tuple indices.

    Its block layout is three read-only arrays, built once from bid: `order`
    lists the tuple indices block by block, ascending within each block, and
    block b is order[starts[b]:starts[b] + sizes[b]]."""

    instance: SchemeInstance
    arity: int
    bid: np.ndarray  # shape (n^k,), canonical block ids

    @staticmethod
    def from_raw(instance: SchemeInstance, arity: int, raw: np.ndarray) -> "TuplePartition":
        if len(raw) != instance.tuple_count(arity):
            raise ArityMismatch("block-id array length mismatch")
        return TuplePartition(instance, arity, canonical_block_ids(np.asarray(raw)))

    @cached_property
    def sizes(self) -> np.ndarray:
        """Read-only (B,): the number of tuples in each block."""
        return _read_only(np.bincount(self.bid))

    @cached_property
    def order(self) -> np.ndarray:
        """Read-only (n^k,): the tuple indices grouped by block id; the stable
        argsort keeps them ascending within a block."""
        return _read_only(np.argsort(self.bid, kind="stable"))

    @cached_property
    def starts(self) -> np.ndarray:
        """Read-only (B,): where each block's run begins in `order`."""
        return _read_only(np.cumsum(self.sizes) - self.sizes)

    @property
    def num_blocks(self) -> int:
        return len(self.sizes)

    def check_block_ids(self, ids):
        """Raise IndexOutOfRange unless every id lies in [0, num_blocks)."""
        count = self.num_blocks
        for b in ids:
            if not 0 <= b < count:
                raise IndexOutOfRange(
                    f"block id {b} outside [0, {count}) at arity {self.arity}")

    def block(self, b: int) -> np.ndarray:
        """Members of block b, ascending and read-only, after its range check."""
        self.check_block_ids((b,))
        start = self.starts[b]
        return self.order[start:start + self.sizes[b]]

    def is_discrete(self) -> bool:
        return self.num_blocks == len(self.bid)

    @cached_property
    def coordinate_symmetries(self) -> tuple:
        """H_k: the permutations sigma of range(k), identity first, that
        carry every block onto a block, where (sigma x)_i = x_sigma[i].
        sigma is kept when the block of sigma x depends only on the block of
        x, and distinct blocks go to distinct blocks; as sigma permutes S^k,
        it then carries each block onto a block, and the kept sigma form a
        group."""
        n, k, count = self.instance.n, self.arity, self.num_blocks
        digits = radix_digits(np.arange(len(self.bid), dtype=np.int64), n, k)
        weights = radix_weights(n, k)
        perms = []
        for sigma in itertools.permutations(range(k)):
            image = self.bid[digits[:, sigma] @ weights]
            beta = np.empty(count, dtype=np.int64)
            beta[self.bid] = image
            if (beta[self.bid] == image).all() and len(unique_sorted(beta)) == count:
                perms.append(sigma)
        return tuple(perms)

    def ids_as_union(self, tuple_indices):
        """Express a set of tuple indices as a set of block ids, or raise
        NotBlockUnion, also for an index outside [0, n^k)."""
        idx = unique_sorted(np.asarray(tuple_indices, dtype=np.int64))
        if len(idx) and (idx[0] < 0 or idx[-1] >= len(self.bid)):
            raise NotBlockUnion(
                f"tuple index outside [0, {len(self.bid)}) is not in S^{self.arity}")
        ids = unique_sorted(self.bid[idx])
        if len(idx) != self.sizes[ids].sum():
            raise NotBlockUnion(
                f"set of {len(idx)} tuples is not a union of arity-{self.arity} blocks"
            )
        return frozenset(ids.tolist())


# ---------------------------------------------------------------------------
# the scheme object
# ---------------------------------------------------------------------------


@dataclass
class Violation:
    k: int
    kp: int
    tau: LinMap
    src_block: int
    detail: str

    def describe(self) -> str:
        return (
            f"P-axiom violation at ({self.k}->{self.kp}), tau={self.tau.as_lists()}, "
            f"block {self.src_block}: {self.detail}"
        )


@dataclass
class MapSweep:
    """How T maps tau: V^k -> V^k' of one (k, k') group carry the blocks of
    S^k, tau t having coefficient matrix coeffs[t].  Row t of `images` is the
    S^k' index of tau_t(x) (-1 outside S^k') over the tuples of S^k in
    block order, block b at columns [starts[b], starts[b] + sizes[b]); every
    other array is (T, B), entry [t, b] for tau t on block b."""

    k: int
    kp: int
    coeffs: np.ndarray       # (T, k, k') coefficient matrices
    starts: np.ndarray       # (B,)
    sizes: np.ndarray        # (B,)
    images: np.ndarray       # (T, N), N = n^k
    inside: np.ndarray       # tuples whose image lies in S^k'
    target: np.ndarray       # the one block holding every image, else -1
    target_size: np.ndarray  # size of that block, or 0
    distinct: np.ndarray     # number of distinct images
    fibre_min: np.ndarray    # least and greatest #{x in B : tau(x) = y}
    fibre_max: np.ndarray    # over the images y

    def tau(self, t: int) -> LinMap:
        """Map t of the chunk."""
        return linmap(self.coeffs[t].tolist())

    def bad(self) -> np.ndarray:
        """(T, B): whether tau t breaks P1 or P2 on block b."""
        return (self.inside > 0) & ((self.inside < self.sizes) | (self.target < 0)
                                    | (self.distinct != self.target_size)
                                    | (self.fibre_min != self.fibre_max))


class _MapGroup(NamedTuple):
    """The maps V^k -> V^k' of one (k, k') group, flat indices 0..total-1,
    against the tuples of S^k in block order (`MapSweep`)."""

    k: int
    kp: int
    total: int
    ell: int
    n: int
    starts: np.ndarray     # (B,) level-k blocks
    sizes: np.ndarray      # (B,)
    row_block: np.ndarray  # (N,) block of each tuple in block order
    pos_t: np.ndarray      # (ell^k, N) S-positions of the map table columns
    bid_kp: np.ndarray     # level-k' block ids, then -1
    kp_sizes: np.ndarray   # level-k' block sizes, then 0

    def chunks(self, flat: Optional[np.ndarray] = None):
        """Yield the MapSweep of the maps with these flat indices (every map,
        ascending, by default), in order, T maps at a time with
        T * n^k * k' <= SWEEP_CHUNK_ENTRIES (at least one)."""
        if flat is None:
            flat = np.arange(self.total, dtype=np.int64)
        step = max(1, SWEEP_CHUNK_ENTRIES // (len(self.row_block) * self.kp))
        for first in range(0, len(flat), step):
            yield self.sweep(flat[first:first + step])

    def sweep(self, flat: np.ndarray) -> MapSweep:
        """The MapSweep of the maps with these flat indices, in this order."""
        n, kp, starts = self.n, self.kp, self.starts
        coeffs = radix_digits(flat, self.ell, self.k * kp).reshape(-1, self.k, kp)
        cols = np.einsum("tij,i->tj", coeffs, radix_weights(self.ell, self.k))
        img = np.zeros((len(flat), len(self.row_block)), dtype=np.int64)
        outside = np.zeros(img.shape, dtype=bool)
        for j in range(kp):
            p = self.pos_t[cols[:, j]]
            outside |= p < 0
            img *= n
            img += p
        img[outside] = -1
        inside = ~outside
        tgt = self.bid_kp[img]
        lo = np.minimum.reduceat(tgt, starts, axis=1)
        target = np.where(lo == np.maximum.reduceat(tgt, starts, axis=1), lo, -1)
        # runs of equal (block, image) keys in a row are the fibres
        # (keys < n^k * width < 2^63, width = n^k' + 1); every row starts a run
        key = np.sort(self.row_block * (n ** kp + 1) + img + 1, axis=1)
        new = np.ones(key.shape, dtype=bool)
        np.not_equal(key[:, 1:], key[:, :-1], out=new[:, 1:])
        distinct = np.add.reduceat(new, starts, axis=1, dtype=np.int64)
        runs = np.diff(np.flatnonzero(new), append=new.size)
        run_starts = np.cumsum(distinct) - distinct.ravel()
        return MapSweep(
            self.k, kp, coeffs, starts, self.sizes, img,
            np.add.reduceat(inside, starts, axis=1, dtype=np.int64), target,
            self.kp_sizes[target], distinct,
            np.minimum.reduceat(runs, run_starts).reshape(distinct.shape),
            np.maximum.reduceat(runs, run_starts).reshape(distinct.shape))


def map_orbits(field: Field, k: int, kp: int, h_k: tuple, h_kp: tuple) -> np.ndarray:
    """The least flat index of each orbit of H_k x H_k' on the maps
    V^k -> V^k', as a read-only array, ascending.

    h_k and h_kp are groups of permutations of range(k) and range(k'), as
    `TuplePartition.coordinate_symmetries` gives them; they carry the map
    with coefficient matrix tau to R with R[i, j] = tau[sigma[i], pi[j]],
    so that R(sigma x) = pi(tau(x)), where (sigma x)_i = x_sigma[i] and
    (pi y)_j = y_pi[j].  The map count is checked against the map cap
    first, also when the result is cached."""
    linmap_count(field, k, kp)
    return _map_orbits(field.ell, k, kp, h_k, h_kp)


@lru_cache(maxsize=64)
def _map_orbits(ell: int, k: int, kp: int, h_k: tuple, h_kp: tuple) -> np.ndarray:
    total = ell ** (k * kp)
    weights = radix_weights(ell, k * kp)
    cells = np.arange(k * kp).reshape(k, kp)  # digit of coefficient (i, j)
    step = max(1, SWEEP_CHUNK_ENTRIES // (k * kp))
    chunks = [np.arange(first, min(first + step, total), dtype=np.int64)
              for first in range(0, total, step)]
    # least image of each map under its column permutations by pi ...
    by_pi = np.arange(total, dtype=np.int64)
    for flat in chunks:
        digits = radix_digits(flat, ell, k * kp)
        for pi in h_kp:
            image = digits[:, cells[:, pi].ravel()] @ weights
            np.minimum(by_pi[flat], image, out=image)
            by_pi[flat] = image
    # ... then the least of those over its row permutations by sigma; a map
    # is its orbit's least member when that is the map itself
    reps = []
    for flat in chunks:
        digits = radix_digits(flat, ell, k * kp)
        least = by_pi[flat]
        for sigma in h_k:
            np.minimum(least, by_pi[digits[:, cells[sigma, :].ravel()] @ weights], out=least)
        reps.append(flat[least == flat])
    return _read_only(np.concatenate(reps))


@dataclass
class ValidationReport:
    ok: bool
    checked_maps: int
    violations: list

    def first(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None


class Scheme:
    """Depth-m partition system on S^1..S^m.

    There are two kinds, and no caller passes both levels and a backend.
    An orbit scheme has a backend, its group G: it exposes
    `orbit_partition_raw(instance, k)` (each tuple labelled by the least
    tuple index of its block), `stabilizer_backend(s_positions)`,
    `transporter(s_positions)` and its generator permutations `perms`.
    Each level is computed from it the first time it is read, and fibres
    are built from its stabilizers.  An explicit scheme (read from JSON, a
    power, or built from levels by hand) has no backend, is given every
    level, and slices its fibres from them.  The backend may keep what it
    computes across the schemes that share it, but `orbit_partition_raw`
    checks the tuple cap of the instance it is given on every call, before
    it reads anything kept.
    """

    def __init__(self, instance: SchemeInstance, m: int, levels=None, backend=None,
                 prefix=()):
        if m < 1:
            raise InputError("depth m must be >= 1")
        self.instance = instance
        self.m = m
        self.backend = backend
        self.prefix = tuple(prefix)
        self._levels: dict = {}
        if levels:
            for part in levels:
                self._levels[part.arity] = part
        if backend is None:
            missing = [k for k in range(1, m + 1) if k not in self._levels]
            if missing:
                raise InputError(f"explicit scheme missing levels {missing}")
        self.antisym_verdict = None  # cached by antisym.strong_antisym_check
        self._fiber_cache: dict = {}
        self.atom_indexes: dict = {}  # arity -> constructible.AtomIndex, grown by batches of maps
        self.transporters: dict = {}  # prefix length -> constructible transport table

    # ---- basic accessors ---------------------------------------------

    @property
    def field(self) -> Field:
        return self.instance.field

    @property
    def s_codes(self) -> tuple:
        return self.instance.s_codes

    def level(self, k: int) -> TuplePartition:
        if not (1 <= k <= self.m):
            raise DepthExhausted(f"level {k} outside depth m={self.m}")
        if k not in self._levels:
            raw = self.backend.orbit_partition_raw(self.instance, k)
            self._levels[k] = TuplePartition.from_raw(self.instance, k, raw)
        return self._levels[k]

    def is_discrete(self) -> bool:
        return self.level(1).is_discrete()

    def level1_block_set(self, b: int) -> np.ndarray:
        """Point codes of a level-1 block: a read-only int64 array, ascending."""
        return _read_only(self.instance.s_array[self.level(1).block(b)])

    # ---- fibre restriction -------------------------------------------

    def fiber(self, pts: Sequence[int]) -> "Scheme":
        """Restriction to the prefix pts in S^t: a depth (m-t) scheme on S.

        On a backend scheme, a prefix whose fibre at pts[:-1] is already built
        stabilizes only its last point, in that fibre's backend.  The backend
        computes one stabilizer per orbit of S and transports it to the other
        points of the orbit (`group_orbits.OrbitBackend`); the fibre cache
        holds only the prefixes asked for here."""
        pts = tuple(int(c) for c in pts)
        t = len(pts)
        if t == 0:
            return self
        if pts in self._fiber_cache:
            return self._fiber_cache[pts]
        if t >= self.m:
            raise DepthExhausted(f"cannot fix {t} points of a depth-{self.m} scheme")
        positions = self.instance.pos(pts).tolist()
        for c, p in zip(pts, positions):
            if p < 0:
                raise IndexOutOfRange(f"fibre point {c} not in S")
        if self.backend is not None:
            parent = self._fiber_cache.get(pts[:-1])
            if parent is not None:
                sub = parent.backend.stabilizer_backend(positions[-1:])
            else:
                sub = self.backend.stabilizer_backend(positions)
            out = Scheme(self.instance, self.m - t, backend=sub,
                         prefix=self.prefix + pts)
            self._fiber_cache[pts] = out
            return out
        inst = self.instance
        n = inst.n
        prefix_idx = int(np.array(positions, dtype=np.int64) @ radix_weights(n, t))
        levels = []
        for k in range(1, self.m - t + 1):
            parent = self.level(t + k)
            offset = prefix_idx * n ** k
            raw = parent.bid[offset:offset + n ** k]
            levels.append(TuplePartition.from_raw(inst, k, raw))
        out = Scheme(inst, self.m - t, levels=levels, prefix=self.prefix + pts)
        self._fiber_cache[pts] = out
        return out

    # ---- axiom validation --------------------------------------------

    def _map_groups(self):
        """Yield a _MapGroup per (k, k'): k, then k' over 1..m, all read from
        one map table per k, and each group's map count checked against the
        map cap before it is yielded."""
        inst = self.instance
        ell, n = inst.field.ell, inst.n
        for k in range(1, self.m + 1):
            part = self.level(k)
            row_block = part.bid[part.order]
            # (ell^k, N): row c holds the S-positions of column c of the table
            pos_t = np.ascontiguousarray(inst.pos(inst.map_table(k)[part.order]).T)
            for kp in range(1, self.m + 1):
                total = linmap_count(inst.field, k, kp)
                part_kp = self.level(kp)
                # index -1 reads id -1 and size 0
                yield _MapGroup(k, kp, total, ell, n, part.starts, part.sizes, row_block,
                                pos_t, np.append(part_kp.bid, -1), np.append(part_kp.sizes, 0))

    def map_sweep(self):
        """Yield a MapSweep per chunk of consecutive maps: k, then k' over
        1..m, tau in `enumerate_linmaps` order, all read from one map table
        per k.  A chunk holds T maps with T * n^k * k' <= SWEEP_CHUNK_ENTRIES
        (at least one map)."""
        for group in self._map_groups():
            yield from group.chunks()

    def validate(self, max_violations: int = 16) -> ValidationReport:
        """Exhaustive P1/P2 check of every block under every coordinate-linear
        map, in (k, k', tau, block) order; stops at max_violations.

        A (k, k') group is first swept at the least map of each orbit of
        H_k x H_k' (`map_orbits`), until one is bad, H_k being the
        coordinate permutations that carry the blocks of S^k onto blocks
        (`TuplePartition.coordinate_symmetries`).
        Lemma: let R(sigma x) = pi(tau(x)) for all x, with sigma in H_k and
        pi in H_k'.  sigma carries block B onto a block sigma(B), and pi
        carries S^k' and its blocks onto themselves, sizes kept; so R on
        sigma(B) has the inside count, target block size, distinct images
        and fibre sizes of tau on B, and breaks an axiom exactly when tau
        does on B.  So when no representative is bad on any block, no map
        of the group is, and its maps are all counted as checked.
        Otherwise every map of the group is swept in order, and each
        violation's detail is read from the chunk that found it."""
        violations = []
        checked = 0
        for group in self._map_groups():
            k, kp = group.k, group.kp
            reps = map_orbits(self.field, k, kp, self.level(k).coordinate_symmetries,
                              self.level(kp).coordinate_symmetries)
            if not any(sw.bad().any() for sw in group.chunks(reps)):
                checked += group.total
                continue
            for sw in group.chunks():
                bad = sw.bad()
                for t in np.flatnonzero(bad.any(axis=1)).tolist():
                    tau = sw.tau(t)  # one LinMap for all the blocks it breaks
                    for b in np.flatnonzero(bad[t]).tolist():
                        violations.append(Violation(k, kp, tau, b, self._detail(sw, t, b)))
                        if len(violations) >= max_violations:
                            return ValidationReport(False, checked + t + 1, violations)
                checked += len(sw.coeffs)
        return ValidationReport(not violations, checked, violations)

    def _detail(self, sw: "MapSweep", t: int, b: int) -> str:
        """Which axiom block b breaks under map t of sw, first failure first."""
        kp = sw.kp
        inside, size, bp = int(sw.inside[t, b]), int(sw.sizes[b]), int(sw.target[t, b])
        if inside < size:
            return f"image meets S^{kp} but also leaves it ({inside}/{size} inside)"
        if bp < 0:
            rows = sw.images[t, sw.starts[b]:sw.starts[b] + size]
            bids = unique_sorted(self.level(kp).bid[rows])
            return f"image straddles blocks {bids.tolist()} at arity {kp}"
        if sw.distinct[t, b] != sw.target_size[t, b]:
            return f"image covers only part of block {bp} at arity {kp}"
        return (f"fibre sizes over block {bp} not constant "
                f"(range {int(sw.fibre_min[t, b])}..{int(sw.fibre_max[t, b])})")

    # ---- block sets ---------------------------------------------------

    def blockset_indices(self, k: int, bids) -> np.ndarray:
        part = self.level(k)
        bids = list(bids)
        part.check_block_ids(bids)
        keep = np.zeros(part.num_blocks, dtype=bool)
        keep[bids] = True
        return np.flatnonzero(keep[part.bid])

    # ---- JSON interchange --------------------------------------------

    def to_json(self) -> str:
        inst = self.instance
        field = inst.field
        levels = []
        for k in range(1, self.m + 1):
            field.check_cap("dense block_of export", field.q ** k)
            part = self.level(k)
            dense = np.full(field.q ** k, -1, dtype=np.int64)
            dense[inst.tuples_array(k) @ radix_weights(field.q, k)] = part.bid
            levels.append({"k": k, "block_of": dense.tolist()})
        obj = {
            "ell": field.ell,
            "dim": field.dim,
            "S": [list(field.decode(c)) for c in inst.s_codes],
            "m": self.m,
            "levels": levels,
        }
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_json(text: str, cap_tuples: int = DEFAULT_CAP_TUPLES) -> "Scheme":
        """The scheme `to_json` wrote, over a field with this tuple cap."""
        try:
            obj = json.loads(text)
            field = Field(int(obj["ell"]), int(obj["dim"]), cap_tuples)
            s_codes = tuple(sorted(field.encode(v) for v in obj["S"]))
            inst = SchemeInstance(field, s_codes)
            m = int(obj["m"])
            levels = []
            seen = set()
            for lev in obj["levels"]:
                k = int(lev["k"])
                if k in seen:
                    raise InputError(f"level {k} repeated")
                seen.add(k)
                dense = np.array(lev["block_of"], dtype=np.int64)
                if len(dense) != field.q ** k:
                    raise InputError(
                        f"level {k}: block_of length {len(dense)} != {field.q ** k}"
                    )
                codes = inst.tuples_array(k) @ radix_weights(field.q, k)
                raw = dense[codes]
                if (raw < 0).any():
                    raise InputError(f"level {k}: tuple of S^{k} marked -1")
                mask = np.ones(field.q ** k, dtype=bool)
                mask[codes] = False
                if (dense[mask] != -1).any():
                    raise InputError(f"level {k}: tuple outside S^{k} has a block id")
                levels.append(TuplePartition.from_raw(inst, k, raw))
            if seen != set(range(1, m + 1)):
                raise InputError(f"levels {sorted(seen)} do not cover 1..{m}")
            return Scheme(inst, m, levels=levels)
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad scheme JSON: {exc}") from exc
