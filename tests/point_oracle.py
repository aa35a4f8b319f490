"""Digit-wise defining point arithmetic on codes: the test oracle for
`Field.add_codes/sub_codes/neg_codes` and `LinMap.apply_batch`.

Each function decodes its codes to coordinate tuples, combines them
coordinate by coordinate mod ell in plain Python, and encodes the result.
`Field.decode` rejects codes outside [0, q).

Also the other scalar definitions the tests check the library against:
integer tuple codes (base q, first coordinate most significant), the tuple
of S^k at a tuple index, the scalar walks behind the case-3 pieces of the
partial sumset loop, map composition, span membership by rank, and the
dual vectors of a Fourier context in `itertools.product` order; and two
maps the tests build as inputs, the projection pi_{k,i} and the swap of two
coordinates.

And the additive-energy quadruple loop, the oracle of the array count in
`addcomb.additive_energy_oracle`, with the JSON and vector interchange of
point sets that only the tests use; the sort-based point-set arithmetic
that counting over [0, q) replaced in `addcomb` and `refine` (`np.unique`
sumsets and dict histograms of the pair sums, the dict group convolution
and the representation counts and covering number built on them); the
scalar Gauss-Jordan loop, the oracle of the whole-row updates in
`gf_linalg.rref_mod`; the defining Fourier sum, one character value per
member, the oracle of `FourierContext.all_coeffs`; and the breadth-first
closure of subgroups, the oracle of the echelon-form
`refine.enumerate_subspaces`.
"""
import cmath
import itertools
import json

import numpy as np

from mschemes.addcomb import PointSet
from mschemes.errors import CapExceeded, FieldMismatch, InputError
from mschemes.gf_linalg import Field, linmap, rank_mod, span_points


def add(f, a, b):
    return f.encode(tuple((x + y) % f.ell for x, y in zip(f.decode(a), f.decode(b))))


def sub(f, a, b):
    return f.encode(tuple((x - y) % f.ell for x, y in zip(f.decode(a), f.decode(b))))


def neg(f, a):
    return f.encode(tuple(-x % f.ell for x in f.decode(a)))


def smul(f, c, a):
    return f.encode(tuple(c * x % f.ell for x in f.decode(a)))


def apply(f, tau, pts):
    """tau applied to one tuple of point codes: output coordinate j is
    sum_i coeffs[i][j] * pts[i], digit by digit."""
    assert len(pts) == tau.src_arity
    vecs = [f.decode(c) for c in pts]
    return tuple(
        f.encode(tuple(sum(row[j] * v[t] for row, v in zip(tau.coeffs, vecs)) % f.ell
                       for t in range(f.dim)))
        for j in range(tau.dst_arity))


def encode_tuple(f, pts):
    code = 0
    for c in pts:
        assert 0 <= c < f.q
        code = code * f.q + int(c)
    return code


def decode_tuple(f, code, k):
    out = []
    for _ in range(k):
        out.append(code % f.q)
        code //= f.q
    assert code == 0, "tuple code too large for arity"
    return tuple(reversed(out))


def tuple_points(inst, idx, k):
    """Point codes of the tuple with index idx in S^k: the base-n digits of
    idx, first coordinate most significant, read through sorted S."""
    out = []
    for _ in range(k):
        out.append(inst.s_codes[idx % inst.n])
        idx //= inst.n
    return tuple(reversed(out))


def block_members(bid):
    """The members of every block of a block-id array, grouped in one pass
    over the tuples in index order: entry b lists block b's tuple indices,
    ascending, as an int64 array."""
    groups = [[] for _ in range(int(bid.max()) + 1)]
    for t, b in enumerate(bid.tolist()):
        groups[b].append(t)
    return [np.array(g, dtype=np.int64) for g in groups]


def trim_piece_walk(inst, part_hi, chosen, x_row):
    """The piece of `refine.partial_sumset_search`'s case-3 trim by the
    scalar walk: the last points of the tuples in the chosen arity-(k+1)
    blocks whose first k points are the tuple at index x_row."""
    n = inst.n
    keep = np.isin(part_hi.bid, list(chosen))
    return sorted(inst.s_codes[int(r % n)] for r in np.nonzero(keep)[0] if r // n == x_row)


def exit_piece_walk(inst, brows, x_row):
    """The piece of the case-3 fibre exit by the scalar walk: the last
    points of the tuples of block A* whose first k points are the tuple at
    index x_row."""
    n = inst.n
    return sorted(inst.s_codes[int(r % n)] for r in brows if r // n == x_row)


def projection(k, i):
    """pi_{k,i}: (x_1..x_k) -> x_i (1-based i), built as a test input."""
    return linmap([[1 if r == i - 1 else 0] for r in range(k)])


def swap_map(k, i, j):
    """The transposition of coordinates i and j (1-based) of V^k, built as
    a test input."""
    perm = list(range(k))
    perm[i - 1], perm[j - 1] = perm[j - 1], perm[i - 1]
    return linmap([[1 if perm[c] == r else 0 for c in range(k)] for r in range(k)])


def compose(second, first):
    """second o first, applying `first` first; coefficients are reduced mod
    ell when the map is applied."""
    assert first.dst_arity == second.src_arity
    a = np.asarray(first.coeffs, dtype=np.int64)
    b = np.asarray(second.coeffs, dtype=np.int64)
    return linmap((a @ b).tolist())


def in_span(f, basis, code):
    """code lies in the row span of basis: appending it keeps the rank."""
    if basis.shape[0] == 0:
        return code == 0
    aug = np.vstack([basis, f.decode_batch([code])[0]])
    return rank_mod(aug, f.ell) == basis.shape[0]


def rref_mod_loop(matrix, ell):
    """Reduced row echelon form mod ell by the scalar Gauss-Jordan loop:
    per pivot column, the first nonzero row at or below the current row is
    swapped up and scaled to 1, then every other row with a nonzero entry in
    that column is reduced by its own row operation.  Returns (rref, pivot
    columns)."""
    mat = np.array(matrix, dtype=np.int64) % ell
    nrows, ncols = mat.shape
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if mat[r, col] % ell:
                pivot = r
                break
        if pivot is None:
            continue
        if pivot != row:
            mat[[row, pivot]] = mat[[pivot, row]]
        inv = pow(int(mat[row, col]), -1, ell)
        mat[row] = (mat[row] * inv) % ell
        for r in range(nrows):
            if r != row and mat[r, col]:
                mat[r] = (mat[r] - mat[r, col] * mat[row]) % ell
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return mat, tuple(pivots)


def dual_vectors(ctx):
    return itertools.product(range(ctx.field.ell), repeat=ctx.rank)


def coords(ctx, code):
    """Coordinates of a point of the Fourier group over its basis;
    FieldMismatch for a code outside the group."""
    i = int(np.searchsorted(ctx.codes, code)) if 0 <= code < ctx.field.q else ctx.order
    if i == ctx.order or ctx.codes[i] != code:
        raise FieldMismatch(f"point {code} not in the Fourier group")
    return tuple(ctx.coord_rows[i].tolist())


def char_value(ctx, dual, code):
    """chi_dual(x) = exp(2 pi i <dual, coords(x)> / ell)."""
    ctx._check_dual(dual)
    phase = sum(a * x for a, x in zip(dual, coords(ctx, code))) % ctx.field.ell
    return cmath.exp(2j * cmath.pi * phase / ctx.field.ell)


def coeff(ctx, subset, dual):
    """The defining sum hat{1_A}(chi) = (1/|G|) sum_{x in G} 1_A(x)
    conj(chi(x)): members of the group in sorted-code order, added to an
    accumulator that starts at +0.0."""
    ctx._check_dual(dual)
    sub = set(subset)
    total = 0j
    for code in ctx.codes.tolist():
        if code in sub:
            total += char_value(ctx, dual, code).conjugate()
    return total / ctx.order


def subspaces_bfs(field, group_codes, cap=4096):
    """All subgroups of the span of group_codes, ascending by (dim, points),
    by closing a frontier: layer s adds one point of the span to each
    subgroup of layer s - 1, so it holds every subgroup of dimension s.
    CapExceeded when the span, or the count after a layer, exceeds cap."""
    codes = sorted(set(int(c) for c in group_codes))
    full = span_points(field, codes)
    if len(full) > cap:
        raise CapExceeded("subspace enumeration ground set", len(full), cap)
    seen = {frozenset([0])}
    frontier = [frozenset([0])]
    while frontier:
        nxt = []
        for sub in frontier:
            for g in full:
                if g in sub:
                    continue
                new = frozenset(span_points(field, set(sub) | {g}))
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
        if len(seen) > cap:
            raise CapExceeded("subspace enumeration", len(seen), cap)
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def energy_quadruple_loop(a):
    """E(A) as the literal O(|A|^4) loop over quadruples, digit by digit."""
    field = a.field
    digs = [field.decode(c) for c in a.codes]
    n = len(digs)
    ell = field.ell
    total = 0
    for i in range(n):
        for j in range(n):
            s = tuple((digs[i][t] + digs[j][t]) % ell for t in range(field.dim))
            for p in range(n):
                for r in range(n):
                    if all((digs[p][t] + digs[r][t]) % ell == s[t] for t in range(field.dim)):
                        total += 1
    return total


def from_vectors(field, vectors):
    return PointSet.from_codes(field, (field.encode(v) for v in vectors))


def vectors(a):
    return [a.field.decode(c) for c in a.codes.tolist()]


def to_json(a):
    obj = {
        "ell": a.field.ell,
        "dim": a.field.dim,
        "points": [list(v) for v in vectors(a)],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def from_json(text):
    try:
        obj = json.loads(text)
        field = Field(int(obj["ell"]), int(obj["dim"]))
        return from_vectors(field, obj["points"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad point-set JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# sort-based point-set arithmetic: the oracles of the counting paths
# ---------------------------------------------------------------------------


def pair_sums(a, b):
    """x + y over (x, y) in A x B, x-major."""
    return a.field.add_codes(a.codes[:, None], b.codes[None, :]).reshape(-1)


def sorted_set(f, codes):
    """The set of the given codes by `np.unique`: a sort, not a mask."""
    return PointSet(f, np.unique(np.asarray(codes, dtype=np.int64)))


def sumset(a, b):
    return sorted_set(a.field, pair_sums(a, b))


def negate(a):
    return sorted_set(a.field, a.field.neg_codes(a.codes))


def symmetrized(a):
    return sorted_set(a.field, np.concatenate([a.codes, negate(a).codes, [0]]))


def sum_histogram(a, b):
    """dict z -> #{(x,y) in A x B : x + y = z} from `np.unique` counts."""
    vals, counts = np.unique(pair_sums(a, b), return_counts=True)
    return dict(zip(vals.tolist(), counts.tolist()))


def group_convolve(field, fa, fb):
    """z -> sum of fa(z1) fb(z2) over z1 + z2 = z for dict histograms,
    keyed in first-hit order of the (z1, z2) scan in the dicts' order; exact
    (int64 while the total mass fits, Python ints beyond it)."""
    sums = field.add_codes(np.fromiter(fa, np.int64, len(fa))[:, None],
                           np.fromiter(fb, np.int64, len(fb))[None, :])
    dtype = np.int64 if sum(fa.values()) * sum(fb.values()) < 2 ** 63 else object
    weights = (np.array(list(fa.values()), dtype=dtype)[:, None]
               * np.array(list(fb.values()), dtype=dtype)[None, :])
    keys, first, inverse = np.unique(sums.reshape(-1), return_index=True,
                                     return_inverse=True)
    totals = np.zeros(len(keys), dtype=dtype)
    np.add.at(totals, inverse, weights.reshape(-1))
    return {int(keys[j]): int(totals[j]) for j in np.argsort(first)}


def representation_counts(bset):
    """The 4-fold convolution of the difference histogram of B by dicts."""
    f = bset.field
    d = sum_histogram(bset, negate(bset))
    conv = group_convolve(f, d, d)
    conv = group_convolve(f, conv, d)
    return group_convolve(f, conv, d)


def covering_number(a):
    """Least h with h * A^± = ⟨A⟩ by iterated sorted sumsets."""
    target = span_points(a.field, a.codes).tolist()
    apm = symmetrized(a)
    cur, h = apm, 1
    while cur.codes.tolist() != target:
        cur, h = sumset(cur, apm), h + 1
    return h
