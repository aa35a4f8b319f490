"""Named desk-scale instances used by the experiment scripts and the test
suite.

Each builder returns an orbit scheme whose levels are built on demand, so
large declared depths are allowed.  Everything here is deterministic: no
randomness, block numbering and carrier order come from the scheme core.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .gf_linalg import Field
from .group_orbits import (
    DEFAULT_PRIMITIVE_POLY,
    MatrixGroup,
    build_orbit_scheme,
    companion_matrix,
    frobenius_matrix,
    gl_group,
    semilinear_group,
    singer_group,
    trivial_group,
)
from .scheme_core import Scheme


def gl_orbit_scheme(ell: int, dim: int, m: int) -> Scheme:
    """GL_dim(F_ell) acting on the nonzero vectors."""
    f = Field(ell, dim)
    return build_orbit_scheme(gl_group(f), [1], m)


def singer_scheme(ell: int, dim: int, m: int) -> Scheme:
    """Cyclic Singer action (regular on the nonzero vectors)."""
    f = Field(ell, dim)
    return build_orbit_scheme(singer_group(f), [1], m)


def trivial_scheme(ell: int, dim: int, m: int) -> Scheme:
    """Finest orbit scheme: trivial group, every tuple its own block."""
    f = Field(ell, dim)
    return build_orbit_scheme(trivial_group(f), list(range(1, f.q)), m)


def c11_c5_scheme(m: int) -> Scheme:
    """Order-55 Frobenius group C11:C5 on the 11th roots of unity in F_2^10.

    Antisymmetric and non-discrete: the 11-point orbit splits under point
    fixings without any partial self-bijections appearing.
    """
    f = Field(2, 10)
    C = companion_matrix(f, DEFAULT_PRIMITIVE_POLY[(2, 10)])
    Fm = frobenius_matrix(f)
    gens = [np.linalg.matrix_power(C, 93) % 2, np.linalg.matrix_power(Fm, 2) % 2]
    return build_orbit_scheme(MatrixGroup.from_matrices(f, gens), [512], m)


def c31_c5_scheme(m: int) -> Scheme:
    """Order-155 Frobenius group C31:C5 (Singer cycle extended by the
    Frobenius square) on all 31 nonzero vectors of F_2^5.

    Like the order-55 instance, strongly antisymmetric at depth 2 with a
    single non-discrete level-1 block, but with a larger carrier.
    """
    return build_orbit_scheme(semilinear_group(Field(2, 5)), [16], m)


def signed_perm_scheme(dim: int, m: int) -> Scheme:
    """Signed coordinate permutations on F_3^dim; orbit of e_0 is the
    2*dim-point cross-polytope {±e_i}, concentrated on the coordinate
    lines."""
    f = Field(3, dim)
    gens = []
    for i in range(dim):
        D = np.eye(dim, dtype=np.int64)
        D[i, i] = 2
        gens.append(D)
    if dim >= 2:
        P = np.eye(dim, dtype=np.int64)[list(range(1, dim)) + [0]]
        gens.append(P)
        if dim >= 3:
            Q = np.eye(dim, dtype=np.int64)
            Q[[0, 1]] = Q[[1, 0]]
            gens.append(Q)
    e = np.zeros(dim, dtype=np.int64)
    e[0] = 1
    seed = int(f.encode_batch(e[None, :])[0])
    return build_orbit_scheme(MatrixGroup.from_matrices(f, gens), [seed], m)


def affine_coset_scheme(amb_dim: int, sub_dims, shift_index: int, m: int) -> Scheme:
    """Translations by a coordinate subspace U, applied through an affine
    marker coordinate of F_2^amb_dim; the orbit of (e_shift, 1) is the coset
    (e_shift+U, 1).

    The carrier is a coset of a subgroup, so its indicator has exactly the
    subgroup-kernel heavy characters: the canonical hyperplane-concentrated
    example.
    """
    f = Field(2, amb_dim)
    gens = []
    for j in sub_dims:
        T = np.eye(amb_dim, dtype=np.int64)
        T[j, amb_dim - 1] = 1
        gens.append(T)
    vec = np.zeros(amb_dim, dtype=np.int64)
    vec[shift_index] = 1
    vec[amb_dim - 1] = 1
    seed = int(f.encode_batch(vec[None, :])[0])
    return build_orbit_scheme(MatrixGroup.from_matrices(f, gens), [seed], m)


def mul_coset_scheme(ell: int, dsub: int, c: int, w: int, coset_pow: int,
                     m: int) -> Scheme:
    """Orbit scheme whose carrier is (alpha^coset_pow · mu_c) x F_ell^w.

    mu_c is the order-c multiplicative subgroup of F_{ell^dsub}; the w extra
    dimensions are filled by affine translations.  Cosets of multiplicative
    subgroups have near-generic sumsets, which is exactly what the sumset
    gate of the shrinking step needs at desk scale.
    """
    fsub = Field(ell, dsub)
    Cp = companion_matrix(fsub, DEFAULT_PRIMITIVE_POLY[(ell, dsub)])
    order = ell ** dsub - 1
    if order % c:
        raise ValueError(f"no subgroup of order {c} in F_{ell}^{dsub}*")
    M = np.linalg.matrix_power(Cp, order // c) % ell
    D = dsub + w + 1
    f = Field(ell, D)
    Mb = np.eye(D, dtype=np.int64)
    Mb[:dsub, :dsub] = M
    gens = [Mb]
    for j in range(dsub, dsub + w):
        T = np.eye(D, dtype=np.int64)
        T[j, D - 1] = 1
        gens.append(T)
    G = MatrixGroup.from_matrices(f, gens)
    u = np.linalg.matrix_power(Cp, coset_pow) % ell
    vec = np.zeros(D, dtype=np.int64)
    vec[:dsub] = u[:, 0]
    vec[D - 1] = 1
    seed = int(f.encode_batch(vec[None, :])[0])
    return build_orbit_scheme(G, [seed], m)


# (builder, arguments, K, branch): `refine.partial_sumset_search` on block 0
# of the built scheme at K ends in the named case-3 branch, at arity 1
CASE3_INSTANCES = [
    (mul_coset_scheme, (2, 10, 33, 0, 0, 12), Fraction(4), "case3-trim"),
    (mul_coset_scheme, (2, 8, 17, 0, 0, 12), Fraction(5, 2), "case3-trim"),
    (mul_coset_scheme, (3, 5, 22, 0, 0, 12), Fraction(3), "case3-trim"),
    (c11_c5_scheme, (14,), Fraction(9, 4), "case3-exit"),
]


# candidate grid for the sumset-gate scan: (ell, dsub, c, w, coset_pow)
SHRINK_CANDIDATES = [
    (ell, dsub, c, w, p)
    for (ell, dsub, cs, ws) in [
        (3, 4, (10, 16, 20), (1, 2)),
        (3, 5, (11, 22), (1, 2)),
        (2, 6, (7, 9, 21), (1, 2)),
        (2, 8, (15, 17, 51), (1, 2)),
        (2, 10, (33, 93), (1, 3)),
        (5, 2, (6, 8, 12), (1, 2)),
        (7, 2, (12, 16, 24), (1, 2)),
    ]
    for c in cs
    for w in ws
    for p in range(min(11, (ell ** dsub - 1) // c))
]


def shrink_gate_holds(sch: Scheme, K) -> bool:
    """K|B| <= |B+B| <= |B|^2/K for the full carrier (A = B at arity 1)."""
    from .addcomb import PointSet, sumset

    K = Fraction(K)
    b = PointSet.from_codes(sch.field, sch.instance.s_array)
    n = len(b)
    s = len(sumset(b, b))
    return K * n <= s and Fraction(s) <= Fraction(n * n) / K


def find_shrink_instances(K, count: int):
    """First `count` candidates from the fixed grid whose carrier passes the
    sumset gate for K.  Returns [(params, scheme)], each scheme of depth 6."""
    out = []
    for params in SHRINK_CANDIDATES:
        ell, dsub, c, w, p = params
        sch = mul_coset_scheme(ell, dsub, c, w, p, 6)
        if shrink_gate_holds(sch, K):
            out.append((params, sch))
            if len(out) >= count:
                break
    return out
