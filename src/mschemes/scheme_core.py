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

Carrier index.  `SchemeInstance.pos` is the only map from point codes to
positions in S (-1 for a code not in S, also outside [0, q)); it reads one
table built once per instance.  `tuples_array(k)[rows]` is the only map from
tuple indices back to codes.  `TuplePartition.blocks()` is the only member
list of the blocks, and each entry is ascending.

Every digit grid here is the radix codec of `gf_linalg`: tuple indices are
`radix_digits` in base n, and dense tuple codes `radix_weights` in base q.

Map table.  `SchemeInstance.map_table(k)` applies to S^k the map V^k ->
V^(ell^k) whose column c has the base-ell digits of c as coefficients: its
coefficient matrix is `digit_rows(ell, k)` transposed (the order of
`enumerate_linmaps(field, k, 1)`).  The images under tau are its columns
cols(tau)_j = coeffs[:, j] @ radix_weights(ell, k).  Its n^k * ell^k codes
count against `cap_tuples()`.  `validate` and `antisym.generator_maps` read
only `Scheme.map_sweep`, which reads only this table: once per k it turns
the table, rows in block order, into S-positions P, and the S^k' index of
tau(x) is then the base-n number of the k' columns cols(tau) of P (-1 when
one of them is -1).  The maps of each (k, k') run in `enumerate_linmaps`
order in chunks of T consecutive flat indices, whose coefficients are
`radix_digits` of those indices in base ell; a chunk is one MapSweep of
(T, B) per-block statistics, each an axis-1 reduceat over the (T, n^k)
image array, and T * n^k * k' stays within SWEEP_CHUNK_ENTRIES.  The number
of maps ell^(k*k') is checked against the map cap before a (k, k') group
starts, as `enumerate_linmaps` does.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .caps import cap_tuples
from .errors import (
    ArityMismatch,
    CapExceeded,
    DepthExhausted,
    EmptyReference,
    IndexOutOfRange,
    InputError,
    NotBlockUnion,
)
from .gf_linalg import (Field, LinMap, digit_rows, linmap, linmap_count, radix_digits,
                        radix_weights, span_dim, unique_sorted)

# bound on T * n^k * k' entries of the image arrays of one MapSweep chunk
SWEEP_CHUNK_ENTRIES = 2 ** 17


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
    def _pos_table(self) -> np.ndarray:
        """Read-only: entry c < q is the position of code c in S, or -1; the
        last entry, -1, stands for every code outside [0, q)."""
        table = np.full(self.field.q + 1, -1, dtype=np.int64)
        table[np.array(self.s_codes, dtype=np.int64)] = np.arange(self.n)
        table.flags.writeable = False
        return table

    def pos(self, codes) -> np.ndarray:
        """Position in S of each point code, or -1 for a code not in S."""
        codes = np.asarray(codes, dtype=np.int64)
        q = self.field.q
        # read as unsigned, a negative code exceeds q: one max checks the range
        if codes.size and codes.view(np.uint64).max() >= q:
            codes = np.where((codes >= 0) & (codes < q), codes, q)
        return self._pos_table[codes]

    def tuple_count(self, k: int) -> int:
        return self.n ** k

    def check_tuple_cap(self, k: int):
        if self.n ** k > cap_tuples():
            raise CapExceeded(f"tuple space S^{k}", self.n ** k, cap_tuples())

    def tuples_array(self, k: int) -> np.ndarray:
        """(n^k, k) array of point codes, row t = tuple with index t."""
        self.check_tuple_cap(k)
        idx = np.arange(self.n ** k, dtype=np.int64)
        return np.array(self.s_codes, dtype=np.int64)[radix_digits(idx, self.n, k)]

    def map_table(self, k: int) -> np.ndarray:
        """(n^k, ell^k) codes: column c is every tuple of S^k under the map
        V^k -> V whose coefficients are the base-ell digits of c."""
        ell = self.field.ell
        size = self.n ** k * ell ** k
        if size > cap_tuples():
            raise CapExceeded(f"map table S^{k} x F_{ell}^{k}", size, cap_tuples())
        coeffs = tuple(map(tuple, digit_rows(ell, k).T.tolist()))
        return LinMap(k, ell ** k, coeffs).apply_batch(self.field, self.tuples_array(k))

    def tuple_indices(self, codes: np.ndarray) -> np.ndarray:
        """Index in S^k' of each row of an (N, k') code array, or -1 where
        the row has a coordinate outside S."""
        pos = self.pos(codes)
        return np.where((pos >= 0).all(axis=1), pos @ radix_weights(self.n, codes.shape[1]), -1)

    def tuple_index(self, pts: Sequence[int]) -> int:
        idx = 0
        for c, p in zip(pts, self.pos(list(pts)).tolist()):
            if p < 0:
                raise IndexOutOfRange(f"point code {c} not in S")
            idx = idx * self.n + p
        return idx

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
    """A partition of S^k, stored as a block-id array over tuple indices."""

    instance: SchemeInstance
    arity: int
    bid: np.ndarray  # shape (n^k,), canonical block ids

    _blocks: Optional[list] = dc_field(default=None, repr=False)

    @staticmethod
    def from_raw(instance: SchemeInstance, arity: int, raw: np.ndarray) -> "TuplePartition":
        if len(raw) != instance.tuple_count(arity):
            raise ArityMismatch("block-id array length mismatch")
        return TuplePartition(instance, arity, canonical_block_ids(np.asarray(raw)))

    @property
    def num_blocks(self) -> int:
        return int(self.bid.max()) + 1 if len(self.bid) else 0

    def blocks(self) -> list:
        """List of np arrays of tuple indices, one per block id.  Each array is
        ascending: the stable argsort keeps tuple order within a block."""
        if self._blocks is None:
            order = np.argsort(self.bid, kind="stable")
            sorted_bids = self.bid[order]
            cuts = np.searchsorted(sorted_bids, np.arange(self.num_blocks + 1))
            self._blocks = [order[cuts[b]:cuts[b + 1]] for b in range(self.num_blocks)]
        return self._blocks

    def check_block_ids(self, ids):
        """Raise IndexOutOfRange unless every id lies in [0, num_blocks)."""
        count = self.num_blocks
        for b in ids:
            if not 0 <= b < count:
                raise IndexOutOfRange(
                    f"block id {b} outside [0, {count}) at arity {self.arity}")

    def block(self, b: int) -> np.ndarray:
        """Members of block b, ascending, after the range check of its id."""
        self.check_block_ids((b,))
        return self.blocks()[b]

    def block_size(self, b: int) -> int:
        return len(self.blocks()[b])

    def is_discrete(self) -> bool:
        return self.num_blocks == len(self.bid)

    def refines(self, other: "TuplePartition") -> bool:
        """True if every block of self lies inside a block of other."""
        if self.arity != other.arity or len(self.bid) != len(other.bid):
            raise ArityMismatch("refinement comparison between different spaces")
        for rows in self.blocks():
            if len(unique_sorted(other.bid[rows])) != 1:
                return False
        return True

    def ids_as_union(self, tuple_indices):
        """Express a set of tuple indices as a set of block ids, or raise
        NotBlockUnion, also for an index outside [0, n^k)."""
        idx = unique_sorted(np.asarray(tuple_indices, dtype=np.int64))
        if len(idx) and (idx[0] < 0 or idx[-1] >= len(self.bid)):
            raise NotBlockUnion(
                f"tuple index outside [0, {len(self.bid)}) is not in S^{self.arity}")
        ids = unique_sorted(self.bid[idx]).tolist()
        if len(idx) != sum(self.block_size(b) for b in ids):
            raise NotBlockUnion(
                f"set of {len(idx)} tuples is not a union of arity-{self.arity} blocks"
            )
        return frozenset(ids)


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
    """How T consecutive maps tau: V^k -> V^k' carry the blocks of S^k: the
    next T maps of the (k, k') group in `enumerate_linmaps` order, tau t
    having coefficient matrix coeffs[t].  Row t of `images` is the
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


@dataclass
class ValidationReport:
    ok: bool
    checked_maps: int
    violations: list
    # Always False: a cap that would stop the sweep raises CapExceeded
    # instead.  Kept so that `validate` reports keep their "partial" key.
    partial: bool = False

    def first(self) -> Optional[Violation]:
        return self.violations[0] if self.violations else None


class Scheme:
    """Depth-m partition system on S^1..S^m.

    Levels may be materialized eagerly (explicit schemes) or on demand from a
    backend exposing `orbit_partition_raw(instance, k)`,
    `stabilizer_backend(point_codes)` and its generator permutations `perms`
    (group-action schemes whose declared depth exceeds what can be
    materialized).
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
        self.antisym_verdict = None  # cached by the saturation checker
        self._fiber_cache: dict = {}
        self.atom_indexes: dict = {}  # arity -> constructible.AtomIndex, grown on demand

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

    def level1_block_set(self, b: int) -> list:
        """Point codes of a level-1 block, ascending."""
        s_codes = self.s_codes
        return [s_codes[i] for i in self.level(1).block(b).tolist()]

    # ---- fibre restriction -------------------------------------------

    def built_fiber(self, pts: Sequence[int]) -> Optional["Scheme"]:
        """The fibre at prefix pts if `fiber` has already built it, else None;
        builds nothing."""
        pts = tuple(pts)  # integer codes of either kind hash and compare alike
        return self._fiber_cache.get(pts) if pts else self

    def fiber(self, pts: Sequence[int]) -> "Scheme":
        """Restriction to the prefix pts in S^t: a depth (m-t) scheme on S.

        On a backend scheme, a prefix whose fibre at pts[:-1] is already built
        stabilizes only its last point, in that fibre's backend."""
        pts = tuple(int(c) for c in pts)
        t = len(pts)
        if t == 0:
            return self
        if pts in self._fiber_cache:
            return self._fiber_cache[pts]
        if t >= self.m:
            raise DepthExhausted(f"cannot fix {t} points of a depth-{self.m} scheme")
        for c, p in zip(pts, self.instance.pos(pts).tolist()):
            if p < 0:
                raise IndexOutOfRange(f"fibre point {c} not in S")
        if self.backend is not None:
            parent = self._fiber_cache.get(pts[:-1])
            if parent is not None:
                sub = parent.backend.stabilizer_backend(pts[-1:])
            else:
                sub = self.backend.stabilizer_backend(pts)
            out = Scheme(self.instance, self.m - t, backend=sub,
                         prefix=self.prefix + pts)
            self._fiber_cache[pts] = out
            return out
        inst = self.instance
        n = inst.n
        prefix_idx = inst.tuple_index(pts)
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

    def map_sweep(self):
        """Yield a MapSweep per chunk of consecutive maps: k, then k' over
        1..m, tau in `enumerate_linmaps` order, all read from one map table
        per k.  A chunk holds T maps with T * n^k * k' <= SWEEP_CHUNK_ENTRIES
        (at least one map)."""
        inst = self.instance
        ell, n = inst.field.ell, inst.n
        for k in range(1, self.m + 1):
            blocks = self.level(k).blocks()
            sizes = np.array([len(rows) for rows in blocks], dtype=np.int64)
            starts = np.cumsum(sizes) - sizes
            row_block = np.repeat(np.arange(len(blocks), dtype=np.int64), sizes)
            # (ell^k, N): row c holds the S-positions of column c of the table
            pos_t = np.ascontiguousarray(
                inst.pos(inst.map_table(k)[np.concatenate(blocks)]).T)
            size_n = len(row_block)
            weights = radix_weights(ell, k)
            for kp in range(1, self.m + 1):
                total = linmap_count(inst.field, k, kp)
                bid_kp = np.append(self.level(kp).bid, -1)  # index -1 reads -1
                kp_sizes = np.append(np.bincount(bid_kp[:-1]), 0)
                width = n ** kp + 1
                step = max(1, SWEEP_CHUNK_ENTRIES // (size_n * kp))
                for first in range(0, total, step):
                    flat = np.arange(first, min(first + step, total), dtype=np.int64)
                    coeffs = radix_digits(flat, ell, k * kp).reshape(-1, k, kp)
                    cols = np.einsum("tij,i->tj", coeffs, weights)
                    img = np.zeros((len(flat), size_n), dtype=np.int64)
                    outside = np.zeros(img.shape, dtype=bool)
                    for j in range(kp):
                        p = pos_t[cols[:, j]]
                        outside |= p < 0
                        img *= n
                        img += p
                    img[outside] = -1
                    inside = ~outside
                    tgt = bid_kp[img]
                    lo = np.minimum.reduceat(tgt, starts, axis=1)
                    target = np.where(lo == np.maximum.reduceat(tgt, starts, axis=1), lo, -1)
                    # runs of equal (block, image) keys in a row are the fibres
                    # (keys < n^k * width < 2^63); every row starts a run
                    key = np.sort(row_block * width + img + 1, axis=1)
                    new = np.ones(key.shape, dtype=bool)
                    np.not_equal(key[:, 1:], key[:, :-1], out=new[:, 1:])
                    distinct = np.add.reduceat(new, starts, axis=1, dtype=np.int64)
                    runs = np.diff(np.flatnonzero(new), append=new.size)
                    run_starts = np.cumsum(distinct) - distinct.ravel()
                    yield MapSweep(
                        k, kp, coeffs, starts, sizes, img,
                        np.add.reduceat(inside, starts, axis=1, dtype=np.int64), target,
                        kp_sizes[target], distinct,
                        np.minimum.reduceat(runs, run_starts).reshape(distinct.shape),
                        np.maximum.reduceat(runs, run_starts).reshape(distinct.shape))

    def validate(self, max_violations: int = 16) -> ValidationReport:
        """Exhaustive P1/P2 check of every block under every coordinate-linear
        map, in (k, k', tau, block) order; stops at max_violations."""
        violations = []
        checked = 0
        for sw in self.map_sweep():
            bad = (sw.inside > 0) & ((sw.inside < sw.sizes) | (sw.target < 0)
                                     | (sw.distinct != sw.target_size)
                                     | (sw.fibre_min != sw.fibre_max))
            for t, b in zip(*(axis.tolist() for axis in np.nonzero(bad))):
                violations.append(Violation(sw.k, sw.kp, sw.tau(t), b, self._detail(sw, t, b)))
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

    # ---- closedness operations ---------------------------------------

    def blockset_indices(self, k: int, bids) -> np.ndarray:
        part = self.level(k)
        bids = list(bids)
        part.check_block_ids(bids)
        keep = np.zeros(part.num_blocks, dtype=bool)
        keep[bids] = True
        return np.flatnonzero(keep[part.bid])

    def complement_blockset(self, k: int, bids):
        return frozenset(range(self.level(k).num_blocks)) - frozenset(bids)

    def quantifier_project(self, k: int, kp: int, bids, quant: str, t: Optional[int] = None):
        """Project a block set at arity k+kp to arity k through a quantifier.

        quant: 'exists', 'forall', or 'count_eq' (with t = required count) over
        the last kp coordinates.  Result is returned as a block-id set at
        arity k; by closedness it must be one, and this is checked.
        """
        if k + kp > self.m:
            raise DepthExhausted(f"projection needs level {k + kp} > m={self.m}")
        inst = self.instance
        n = inst.n
        idx = self.blockset_indices(k + kp, bids)
        prefixes = idx // n ** kp
        counts = np.bincount(prefixes, minlength=n ** k)
        if quant == "exists":
            keep = counts > 0
        elif quant == "forall":
            keep = counts == n ** kp
        elif quant == "count_eq":
            if t is None:
                raise InputError("count_eq projection needs t")
            keep = counts == t
        else:
            raise InputError(f"unknown quantifier {quant!r}")
        return self.level(k).ids_as_union(np.nonzero(keep)[0])

    def image_blockset(self, tau: LinMap, bids):
        """tau(union of blocks) ∩ S^{k'}, as a block-id set at arity k'."""
        k, kp = tau.src_arity, tau.dst_arity
        inst = self.instance
        idx = self.blockset_indices(k, bids)
        if len(idx) == 0:
            return frozenset()
        img = inst.tuple_indices(tau.apply_batch(inst.field, inst.tuples_array(k)[idx]))
        return self.level(kp).ids_as_union(img[img >= 0])

    def preimage_blockset(self, tau: LinMap, bids, k: Optional[int] = None):
        """tau^{-1}(union of blocks) ∩ S^k, as a block-id set at arity k."""
        k = k if k is not None else tau.src_arity
        if k != tau.src_arity:
            raise ArityMismatch("preimage arity mismatch")
        kp = tau.dst_arity
        inst = self.instance
        img = inst.tuple_indices(tau.apply_batch(inst.field, inst.tuples_array(k)))
        member = np.zeros(inst.tuple_count(kp), dtype=bool)
        member[self.blockset_indices(kp, bids)] = True
        hit = (img >= 0) & member[img]
        return self.level(k).ids_as_union(np.nonzero(hit)[0])

    # ---- relation profiles -------------------------------------------

    def linear_relation_profile(self, k: int, b: int):
        """Canonical basis of {c : sum c_i x_i = 0} shared by a block.

        Returns (basis rows as tuple-of-tuples, constant: bool).  The axioms
        force the relation space to be identical across the block; the flag
        reports whether that held.
        """
        from .gf_linalg import nullspace_basis_mod, rref_mod

        inst = self.instance
        ell = inst.field.ell
        profiles = set()
        basis = None
        for pts in inst.tuples_array(k)[self.level(k).blocks()[b]]:
            mat = inst.field.decode_batch(pts)  # (k, d)
            null = nullspace_basis_mod(mat.T, ell)  # rows c with mat^T c = 0
            red, piv = rref_mod(null, ell) if null.size else (null, ())
            canon = tuple(tuple(int(x) for x in row) for row in red[: len(piv)])
            profiles.add(canon)
            if basis is None:
                basis = canon
        return basis, len(profiles) == 1

    # ---- JSON interchange --------------------------------------------

    def to_json(self) -> str:
        inst = self.instance
        field = inst.field
        levels = []
        for k in range(1, self.m + 1):
            if field.q ** k > cap_tuples():
                raise CapExceeded("dense block_of export", field.q ** k, cap_tuples())
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
    def from_json(text: str) -> "Scheme":
        try:
            obj = json.loads(text)
            field = Field(int(obj["ell"]), int(obj["dim"]))
            s_codes = tuple(sorted(field.encode(v) for v in obj["S"]))
            inst = SchemeInstance(field, s_codes)
            m = int(obj["m"])
            levels = []
            seen = set()
            for lev in obj["levels"]:
                k = int(lev["k"])
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


def finest_scheme(instance: SchemeInstance, m: int) -> Scheme:
    """The all-singletons scheme (orbit scheme of the trivial group)."""
    levels = [
        TuplePartition.from_raw(instance, k, np.arange(instance.tuple_count(k)))
        for k in range(1, m + 1)
    ]
    return Scheme(instance, m, levels=levels)
