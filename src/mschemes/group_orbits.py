"""Matrix groups over F_ell and the partition systems their orbits induce.

Blocks at arity k are the orbits of the diagonal action of G <= GL(V) on
S^k.  Equivariance of every coordinate-linear map makes these partitions
satisfy the P-axioms at any declared depth, which is what lets deep
instances exist without materializing S^m: levels are computed on demand and
fibre restrictions are the orbit partitions of point stabilizers.

A `MatrixGroup` is only the input: its matrices act in one place,
`MatrixGroup.images`.  `build_orbit_scheme` restricts the generators to S
once; past that point a group is a (g, n) int array of generator
permutations of the positions of S.  Point stabilizers are generated by
Schreier generators thinned by a Sims filter, so no group is ever listed
element by element.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputError, NotInGroup
from .gf_linalg import Field, radix_digits, radix_weights, rank_mod
from .scheme_core import Scheme, SchemeInstance, TuplePartition

# primitive polynomials x^d + ... used for default multiplicative (Singer)
# groups; coefficients of the monic polynomial, constant term last
DEFAULT_PRIMITIVE_POLY = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 1, 0, 1),
    (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (3, 2): (1, 1, 2),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 0, 0, 1, 2),
}


def _mat_key(mat: np.ndarray):
    return tuple(int(x) for x in mat.reshape(-1))


@dataclass(frozen=True)
class MatrixGroup:
    """Subgroup of GL_dim(F_ell) given by generators."""

    field: Field
    generators: tuple  # tuple of flat coefficient tuples, row-major

    @staticmethod
    def from_matrices(field: Field, mats) -> "MatrixGroup":
        gens = []
        for m in mats:
            arr = np.array(m, dtype=np.int64) % field.ell
            if arr.shape != (field.dim, field.dim):
                raise InputError(f"generator shape {arr.shape} != ({field.dim},{field.dim})")
            if rank_mod(arr, field.ell) != field.dim:
                raise NotInGroup("generator is singular")
            gens.append(_mat_key(arr))
        return MatrixGroup(field, tuple(sorted(set(gens))))

    def images(self, codes) -> np.ndarray:
        """(g, n) array: code of M_i x for each generator M_i and each given
        code x.  Codes outside [0, q) raise IndexOutOfRange."""
        f = self.field
        mats = np.array(self.generators, dtype=np.int64).reshape(-1, f.dim, f.dim)
        return f.encode_batch(f.decode_batch(codes) @ mats.transpose(0, 2, 1))

    def close_set(self, codes) -> tuple:
        """Smallest G-stable superset of the given point codes, sorted."""
        out = set(int(c) for c in codes)
        frontier = sorted(out)
        while frontier:
            frontier = sorted(set(self.images(frontier).ravel().tolist()) - out)
            out.update(frontier)
        return tuple(sorted(out))

    # ---- group-spec JSON ----------------------------------------------

    @staticmethod
    def from_spec(field: Field, obj) -> "MatrixGroup":
        if isinstance(obj, str):
            obj = json.loads(obj)
        kind = obj.get("kind")
        if kind == "trivial":
            return trivial_group(field)
        if kind == "gl":
            return gl_group(field)
        if kind == "singer":
            poly = tuple(obj["poly"]) if obj.get("poly") else None
            return singer_group(field, poly)
        if kind == "custom":
            return MatrixGroup.from_matrices(field, obj["generators"])
        raise InputError(f"unknown group kind {kind!r}")


# ---------------------------------------------------------------------------
# standard groups
# ---------------------------------------------------------------------------


def trivial_group(field: Field) -> MatrixGroup:
    return MatrixGroup.from_matrices(field, [np.eye(field.dim, dtype=np.int64)])


def gl_group(field: Field) -> MatrixGroup:
    """GL_dim(F_ell) from the standard two generators."""
    d, ell = field.dim, field.ell
    if d == 1:
        lam = primitive_root(ell)
        return MatrixGroup.from_matrices(field, [np.array([[lam]])])
    # a transvection and the coordinate cycle generate SL (up to the sign of
    # the cycle); diag(lambda, 1, ..., 1) with lambda primitive makes the
    # determinant surjective, so together they generate GL
    lam = primitive_root(ell)
    trans = np.eye(d, dtype=np.int64)
    trans[0, 1] = 1
    cyc = np.zeros((d, d), dtype=np.int64)
    for i in range(1, d):
        cyc[i, i - 1] = 1
    cyc[0, d - 1] = 1
    gens = [trans, cyc]
    if lam != 1:
        diag = np.eye(d, dtype=np.int64)
        diag[0, 0] = lam
        gens.append(diag)
    return MatrixGroup.from_matrices(field, gens)


def primitive_root(ell: int) -> int:
    if ell == 2:
        return 1
    for g in range(2, ell):
        seen = set()
        x = 1
        for _ in range(ell - 1):
            x = x * g % ell
            seen.add(x)
        if len(seen) == ell - 1:
            return g
    raise InputError(f"no primitive root mod {ell}")


def companion_matrix(field: Field, poly) -> np.ndarray:
    """Companion matrix of a monic degree-d polynomial (constant term last)."""
    d = field.dim
    if len(poly) != d + 1 or poly[0] != 1:
        raise InputError("polynomial must be monic of degree dim")
    mat = np.zeros((d, d), dtype=np.int64)
    for i in range(1, d):
        mat[i, i - 1] = 1
    for i in range(d):
        mat[i, d - 1] = (-poly[d - i]) % field.ell
    return mat


def singer_group(field: Field, poly=None) -> MatrixGroup:
    """Cyclic group generated by multiplication by a field generator."""
    if poly is None:
        try:
            poly = DEFAULT_PRIMITIVE_POLY[(field.ell, field.dim)]
        except KeyError:
            raise InputError(
                f"no default primitive polynomial for (ell={field.ell}, dim={field.dim})"
            ) from None
    return MatrixGroup.from_matrices(field, [companion_matrix(field, poly)])


def frobenius_matrix(field: Field, poly=None) -> np.ndarray:
    """Matrix of z -> z^ell on F_{ell^dim} in the power basis of the polynomial."""
    if poly is None:
        poly = DEFAULT_PRIMITIVE_POLY[(field.ell, field.dim)]
    comp = companion_matrix(field, poly)
    d = field.dim
    cols = []
    for i in range(d):
        # image of basis vector z^i is z^{i*ell} = comp^{i*ell} applied to e_0
        power = np.eye(d, dtype=np.int64)
        for _ in range(i * field.ell):
            power = (comp @ power) % field.ell
        cols.append(power[:, 0])
    return np.stack(cols, axis=1) % field.ell


def semilinear_group(field: Field, poly=None) -> MatrixGroup:
    """Singer cycle extended by the Frobenius map (a Frobenius-type group)."""
    if poly is None:
        poly = DEFAULT_PRIMITIVE_POLY[(field.ell, field.dim)]
    return MatrixGroup.from_matrices(
        field, [companion_matrix(field, poly), frobenius_matrix(field, poly)]
    )


# ---------------------------------------------------------------------------
# orbit partitions / backend
# ---------------------------------------------------------------------------


def _inverse(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(len(perm))
    return inv


def sims_filter(perms) -> np.ndarray:
    """Generators of the group the given permutations generate, at most
    n(n-1)/2 of them, in a deterministic order.

    Each permutation is sifted by (first moved point i, its image j): when
    (i, j) already holds h, it is replaced by h^-1 g, which fixes 0..i; an
    identity is dropped; otherwise it is kept under (i, j).  Every
    replacement keeps the generated group, and since a kept g fixes 0..i-1,
    j > i, so at most one permutation is kept per pair i < j.
    """
    perms = np.asarray(perms, dtype=np.int64)
    n = perms.shape[1]
    ident = np.arange(n)
    table = {}  # (i, j) -> (h, h^-1)
    for g in perms[(perms != ident).any(axis=1)]:
        while True:
            moved = np.flatnonzero(g != ident)
            if not len(moved):
                break
            i = int(moved[0])
            hit = table.get((i, int(g[i])))
            if hit is None:
                table[(i, int(g[i]))] = (g, _inverse(g))
                break
            g = hit[1][g]
    return np.array([h for h, _ in table.values()], dtype=np.int64).reshape(-1, n)


def point_stabilizer(perms: np.ndarray, point: int) -> np.ndarray:
    """Generators of the stabilizer of one position, by Schreier's lemma.

    A BFS over the orbit of `point` gives a transversal u_x (u_x(point) = x);
    the Schreier generators u_{s(x)}^-1 s u_x over orbit points x and
    generators s generate the stabilizer, and `sims_filter` thins them.
    """
    n = perms.shape[1]
    trans = {point: np.arange(n)}
    frontier = [point]
    while frontier:
        nxt = []
        for x in frontier:
            for s in perms:
                y = int(s[x])
                if y not in trans:
                    trans[y] = s[trans[x]]
                    nxt.append(y)
        frontier = nxt
    orbit = list(trans)
    u = np.array([trans[x] for x in orbit], dtype=np.int64)  # (|orbit|, n)
    u_inv = np.array([_inverse(t) for t in u], dtype=np.int64)
    row = np.full(n, -1, dtype=np.int64)
    row[orbit] = np.arange(len(orbit))
    schreier = [np.take_along_axis(u_inv[row[s[orbit]]], s[u], axis=1) for s in perms]
    return sims_filter(np.concatenate(schreier) if schreier else perms)


class OrbitBackend:
    """Lazy level/fibre provider for orbit-induced schemes: the group as
    generator permutations of the positions of the sorted carrier S."""

    def __init__(self, perms: np.ndarray):
        self.perms = perms  # (g, n): perms[i][p] = position of M_i s_p

    def orbit_partition_raw(self, instance: SchemeInstance, k: int) -> np.ndarray:
        instance.check_tuple_cap(k)
        n = instance.n
        idx = np.arange(n ** k, dtype=np.int64)
        # tuple t moves to the tuple of its images under p, coordinatewise
        digits, radix = radix_digits(idx, n, k), radix_weights(n, k)
        moves = [p[digits] @ radix for p in self.perms]
        labels = idx.copy()
        changed = True
        while changed:
            changed = False
            for moved in moves:
                pulled = labels[moved]
                upd = np.minimum(labels, pulled)
                # also propagate backwards along the permutation
                np.minimum.at(upd, moved, labels)
                if not np.array_equal(upd, labels):
                    labels = upd
                    changed = True
        return labels

    def stabilizer_backend(self, positions):
        """Backend of the pointwise stabilizer of the points of S at these
        positions."""
        perms = self.perms
        for p in positions:
            perms = point_stabilizer(perms, int(p))
        return OrbitBackend(perms)


def build_orbit_scheme(group: MatrixGroup, seed_codes, m: int,
                       materialize: bool = True) -> Scheme:
    """Scheme whose blocks are G-orbits on powers of the closure of the seed.

    With materialize=True all levels are computed now (cap-guarded) and the
    result has no backend; otherwise levels appear on demand and any declared
    depth is allowed.
    """
    s_codes = group.close_set(seed_codes)
    inst = SchemeInstance(group.field, s_codes)
    perms = inst.pos(group.images(s_codes))
    if (perms < 0).any():
        raise NotInGroup("S is not stable under the group")
    backend = OrbitBackend(perms)
    if not materialize:
        return Scheme(inst, m, backend=backend)
    levels = [
        TuplePartition.from_raw(inst, k, backend.orbit_partition_raw(inst, k))
        for k in range(1, m + 1)
    ]
    return Scheme(inst, m, levels=levels)
