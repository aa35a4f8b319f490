"""Matrix groups over F_ell and the partition systems their orbits induce.

Blocks at arity k are the orbits of the diagonal action of G <= GL(V) on
S^k.  Equivariance of every coordinate-linear map makes these partitions
satisfy the P-axioms at any declared depth, which is what lets deep
instances exist without listing S^m: levels are computed on demand and
fibre restrictions are the orbit partitions of point stabilizers.

A `MatrixGroup` is only the input: its matrices act in two places.
`MatrixGroup.close_set` grows the seed to the carrier S by generator
doubling, one matrix square per doubling, so an orbit of length c under a
generator costs about log2 c products.  `MatrixGroup.images` gives the
generators' images of S, which `build_orbit_scheme` turns into
permutations once; past that point a group is a (g, n) int array of
generator permutations of the positions of S.  Point stabilizers are
generated by Schreier generators thinned by a Sims filter, so no group is
ever listed element by element.  They are computed once per orbit of S, at
its least position r: the stabilizer of x = u(r) is u Stab(r) u^-1, and its
orbits on S^k are u applied to those of Stab(r), so the fibre at x is
transported from the fibre at r by one gather.  The same transversals,
chained down the stabilizers of a tuple's points, give
`OrbitBackend.transporter`: the least tuple of a tuple's orbit on S^len,
and a group element carrying it there.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InputError, NotInGroup
from .gf_linalg import Field, digit_rows, rank_mod
from .scheme_core import Scheme, SchemeInstance

# primitive polynomials x^d + ... used for default multiplicative (Singer)
# groups and by the instance builders; coefficients of the monic
# polynomial, constant term last
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
    (3, 5): (1, 0, 0, 0, 2, 1),
    (5, 2): (1, 1, 2),
    (7, 2): (1, 1, 3),
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

    @cached_property
    def matrices(self) -> np.ndarray:
        """(g, dim, dim) read-only stack of the generator matrices."""
        d = self.field.dim
        mats = np.array(self.generators, dtype=np.int64).reshape(-1, d, d)
        mats.flags.writeable = False
        return mats

    def images(self, codes) -> np.ndarray:
        """(g, n) array: code of M_i x for each generator M_i and each given
        code x.  Codes outside [0, q) raise IndexOutOfRange."""
        f = self.field
        return f.encode_batch(f.decode_batch(codes) @ self.matrices.transpose(0, 2, 1))

    def close_set(self, codes) -> tuple:
        """Smallest G-stable superset of the given point codes, sorted.
        Codes outside [0, q) raise IndexOutOfRange.

        The set is a mask over [0, q), closed under one generator g at a
        time by doubling: from S_0, step j adds g^(2^j) S_j, so S_j is the
        union of g^i S_0 over i < 2^j.  Then g S_j lies in S_j together with
        g^(2^j) S_0, so the first step that adds nothing proves S_j g-closed,
        and an orbit of length c under g costs about log2 c products.  The
        generators are taken in turn until the set has not grown since each
        of them last closed it.
        """
        f = self.field
        seen = np.zeros(f.q, dtype=bool)
        seen[f._in_range(np.fromiter(codes, dtype=np.int64))] = True
        rows = digit_rows(f, f.dim)
        closed = 0  # generators in a row under which the set is closed
        for mat in itertools.cycle(self.matrices):
            if closed == len(self.matrices):
                break
            closed += 1
            while True:
                img = f.encode_batch(rows[np.flatnonzero(seen)] @ mat.T)
                if seen[img].all():
                    break
                seen[img] = True
                closed = 1
                mat = mat @ mat % f.ell
        return tuple(np.flatnonzero(seen).tolist())

    # ---- group-spec JSON ----------------------------------------------

    @staticmethod
    def from_spec(field: Field, obj) -> "MatrixGroup":
        """Group from a spec object (or its JSON text); InputError when the
        spec is not JSON, not an object, lacks a key or holds a non-integer
        entry."""
        if isinstance(obj, str):
            try:
                obj = json.loads(obj)
            except ValueError as exc:
                raise InputError(f"group spec is not JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise InputError("group spec is not a JSON object")
        kind = obj.get("kind")
        if kind == "trivial":
            return trivial_group(field)
        if kind == "gl":
            return gl_group(field)
        if kind == "singer":
            poly = None if obj.get("poly") is None else _spec_ints(obj, "poly", 1).tolist()
            return singer_group(field, poly)
        if kind == "custom":
            return MatrixGroup.from_matrices(field, _spec_ints(obj, "generators", 3))
        raise InputError(f"unknown group kind {kind!r}")


def _spec_ints(obj: dict, key: str, ndim: int) -> np.ndarray:
    """A group spec's entry as an ndim-dimensional int64 array."""
    if key not in obj:
        raise InputError(f"group spec lacks {key!r}")
    try:
        arr = np.array(obj[key])
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != ndim or arr.dtype.kind != "i":
        raise InputError(f"group spec {key!r} is not a {ndim}-deep list of integers")
    return arr.astype(np.int64)


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


def on_tuples(perm: np.ndarray, k: int) -> np.ndarray:
    """Tuple index of the image of each tuple of S^k under a permutation of
    the positions of S, applied coordinatewise."""
    out = perm
    for _ in range(k - 1):
        out = (out[:, None] * len(perm) + perm).ravel()
    return out


def _orbit_labels(perms: np.ndarray, k: int) -> np.ndarray:
    """Least tuple index of each tuple's orbit on S^k under the group the
    permutations generate.

    Each round pulls the labels along every generator and its inverse, then
    shortcuts them (L = L[L]; a label is a member of its tuple's orbit).
    The fixpoint is constant on orbits, so it is each orbit's least index.
    """
    labels = np.arange(perms.shape[1] ** k, dtype=np.int64)
    moves = [on_tuples(p, k) for p in perms]
    moves += [on_tuples(_inverse(p), k) for p in perms]
    while moves:
        before = labels
        for moved in moves:
            labels = np.minimum(labels, labels[moved])
        labels = labels[labels]
        if np.array_equal(labels, before):
            break
    return labels


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


def _transversal(perms: np.ndarray, point: int):
    """BFS over the orbit of `point`: the orbit's positions in visiting
    order, rows u, u^-1 with u[i](point) = orbit[i] (u[0] = identity), and
    the tree, an (len(orbit) - 1, 2) array: row i - 1 is (j, i') with
    u[i] = s_j u[i']."""
    n = perms.shape[1]
    images = perms.T.tolist()  # images[x][j] = image of x under generator j
    row = {point: 0}
    orbit, steps = [point], []
    for x in orbit:  # the list grows while it is read: a FIFO queue
        for j, y in enumerate(images[x]):
            if y not in row:
                steps.append((j, row[x]))
                row[y] = len(orbit)
                orbit.append(y)
    u = np.empty((len(orbit), n), dtype=np.int64)
    u[0] = np.arange(n)
    for i, (j, src) in enumerate(steps, 1):
        u[i] = perms[j][u[src]]
    u_inv = np.empty_like(u)
    u_inv[np.arange(len(u))[:, None], u] = np.arange(n)
    tree = np.array(steps, dtype=np.int64).reshape(-1, 2)
    return np.array(orbit, dtype=np.int64), u, u_inv, tree


def point_stabilizer(perms: np.ndarray, point: int, transversal=None) -> np.ndarray:
    """Generators of the stabilizer of one position, by Schreier's lemma.

    Over the BFS transversal u of the orbit of `point` (`_transversal`; a
    caller that keeps it passes it in), the Schreier generators
    u_{s(x)}^-1 s u_x over orbit points x and generators s generate the
    stabilizer, and `sims_filter` thins them.  On a tree edge,
    u_{s(x)} = s u_x, so its generator is the identity and is skipped;
    `sims_filter` drops identity rows before anything else, so it sees the
    same rows in the same order either way.
    """
    if transversal is None:
        transversal = _transversal(perms, point)
    orbit, u, u_inv, tree = transversal
    row = np.full(perms.shape[1], -1, dtype=np.int64)
    row[orbit] = np.arange(len(orbit))
    dest = row[perms[:, orbit]]  # (g, len(orbit)): row of s(x)
    keep = np.ones(dest.shape, dtype=bool)
    keep[tree[:, 0], tree[:, 1]] = False
    j, x = np.nonzero(keep)  # generator by generator, each in orbit order
    return sims_filter(u_inv[dest[j, x][:, None], perms[j[:, None], u[x]]])


class OrbitBackend:
    """Lazy level/fibre provider for orbit-induced schemes: the group as
    generator permutations of the positions of S.

    Point stabilizers are computed once per orbit of S.  For the orbit's
    least position r the backend keeps, from first use, a BFS transversal u
    (u_x(r) = x) and the backend of Stab(r), which keeps its orbit
    partitions once computed.  Another point p of the orbit has
    Stab(p) = u_p Stab(r) u_p^-1, so its backend is that conjugate: its
    generators are u_p h u_p^-1, and its orbits on S^k are u_p applied to
    those of Stab(r), one gather from r's partition.  A conjugate's own
    stabilizers are conjugates of its source's, so Schreier computations
    run only on backends that are no one's conjugate.
    """

    def __init__(self, perms: np.ndarray):
        self.perms = perms  # (g, n): perms[i][p] = position of M_i s_p
        self._source = None  # (backend B, g, g^-1) when this group is g B g^-1
        self._kept = None  # arity -> raw partition, on a Stab(r) backend
        self._least = None  # least position of each position's orbit on S
        self._orbits = {}  # r -> (Stab(r) backend, orbit row of each x, u, u^-1)

    def orbit_partition_raw(self, instance: SchemeInstance, k: int) -> np.ndarray:
        """Label of each tuple of S^k: the least tuple index of its orbit."""
        instance.check_tuple_cap(k)
        if self._source is None:
            return self._labels(k)
        source, _, g_inv = self._source
        pulled = source._labels(k)[on_tuples(g_inv, k)]
        # the pulled labels name orbits by their least member in the
        # source's numbering; relabel each by its least member here
        _, first, inverse = np.unique(pulled, return_index=True, return_inverse=True)
        return first[inverse]

    def _labels(self, k: int) -> np.ndarray:
        if self._kept is None:
            return _orbit_labels(self.perms, k)
        if k not in self._kept:
            labels = _orbit_labels(self.perms, k)
            labels.flags.writeable = False
            self._kept[k] = labels
        return self._kept[k]

    def stabilizer_backend(self, positions):
        """Backend of the pointwise stabilizer of the points of S at these
        positions."""
        out = self
        for p in positions:
            out = out._stabilizer(int(p))
        return out

    def transporter(self, positions):
        """(rep, u): rep the least tuple of the orbit of the tuple of S at
        these positions, as positions, and u in the group, as a permutation
        of the positions of S, with u(rep) = the given positions.

        rep is found one coordinate at a time: with u carrying rep's first
        points to the first given ones, rep's next point is the least point
        of the orbit of u^-1(p) under the stabilizer of rep's first points,
        and u gains the transversal element that carries it to u^-1(p)."""
        group, rep = self, []
        u = u_inv = np.arange(self.perms.shape[1])
        for p in positions:
            r, v, v_inv = group._transversal_element(int(u_inv[p]))
            rep.append(r)
            u, u_inv = u[v], v_inv[u_inv]
            group = group._stabilizer(r)
        return tuple(rep), u

    def _transversal_element(self, p: int):
        """(r, v, v^-1): r the least point of p's orbit on S, and v in the
        group with v(r) = p."""
        if self._least is None:
            self._least = _orbit_labels(self.perms, 1)
        r = int(self._least[p])
        if self._source is not None:
            # with w1(r') = g^-1(p) and w2(r') = g^-1(r) in the source,
            # g w1 w2^-1 g^-1 carries r to p
            source, g, g_inv = self._source
            _, w1, w1_inv = source._transversal_element(int(g_inv[p]))
            _, w2, w2_inv = source._transversal_element(int(g_inv[r]))
            return r, g[w1[w2_inv[g_inv]]], g[w2[w1_inv[g_inv]]]
        _, row, u, u_inv = self._orbit(r)
        i = row[p]
        return r, u[i], u_inv[i]

    def _orbit(self, r: int):
        """(Stab(r) backend, orbit row of each point, u, u^-1) for the least
        point r of an orbit of S, made on first use."""
        if r not in self._orbits:
            orbit, u, u_inv, _ = trans = _transversal(self.perms, r)
            stab = OrbitBackend(point_stabilizer(self.perms, r, trans))
            stab._kept = {}
            self._orbits[r] = (stab, dict(zip(orbit.tolist(), range(len(orbit)))), u, u_inv)
        return self._orbits[r]

    def _stabilizer(self, p: int) -> "OrbitBackend":
        if self._source is not None:
            source, g, g_inv = self._source
            return source._stabilizer(int(g_inv[p]))._conjugate(g, g_inv)
        r, v, v_inv = self._transversal_element(p)
        stab = self._orbit(r)[0]
        return stab if r == p else stab._conjugate(v, v_inv)

    def _conjugate(self, g: np.ndarray, g_inv: np.ndarray) -> "OrbitBackend":
        """Backend of g G g^-1, G this backend's group, as a conjugate of a
        backend that is no one's conjugate."""
        if self._source is not None:
            source, h, h_inv = self._source
            return source._conjugate(g[h], h_inv[g_inv])
        out = OrbitBackend(g[self.perms[:, g_inv]])
        out._source = (self, g, g_inv)
        return out


def build_orbit_scheme(group: MatrixGroup, seed_codes, m: int) -> Scheme:
    """Scheme whose blocks are G-orbits on powers of the closure of the seed.

    The result keeps G as its backend, and each level is built from it the
    first time it is read, so any declared depth is allowed and the tuple
    cap fires only at a level that is read.
    """
    s_codes = group.close_set(seed_codes)
    inst = SchemeInstance(group.field, s_codes)
    perms = inst.pos(group.images(s_codes))
    if (perms < 0).any():
        raise NotInGroup("S is not stable under the group")
    return Scheme(inst, m, backend=OrbitBackend(perms))
