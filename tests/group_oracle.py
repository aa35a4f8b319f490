"""Matrix-level definitions of a group's elements, stabilizers and action:
the test oracle for the permutation representation in `group_orbits`.

`elements` lists a `MatrixGroup` by closure BFS over d x d matrices,
`stabilizer` keeps the listed elements that fix every given code, and
`act_code` applies one matrix to one point code digit by digit.  Nothing
here is capped, so keep the groups small.

`close_layered` and `schreier_stabilizer` are the plain forms of
`MatrixGroup.close_set` (one BFS layer per step) and of
`point_stabilizer` (every Schreier generator formed, tree edges too).
"""
import numpy as np

from mschemes import group_orbits


def _key(mat):
    return tuple(int(x) for x in np.asarray(mat).reshape(-1))


def matrix(group, key):
    d = group.field.dim
    return np.array(key, dtype=np.int64).reshape(d, d)


def elements(group):
    """All elements by closure BFS, as a sorted list of flat tuples."""
    f = group.field
    ident = _key(np.eye(f.dim, dtype=np.int64))
    seen = {ident}
    frontier = [ident]
    gens = [matrix(group, g) for g in group.generators]
    while frontier:
        nxt = []
        for key in frontier:
            mat = matrix(group, key)
            for g in gens:
                prod = _key((g @ mat) % f.ell)
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
        frontier = nxt
    return sorted(seen)


def order(group) -> int:
    return len(elements(group))


def act_code(group, mat, code: int) -> int:
    """Code of M x, through the coordinate tuple of x."""
    f = group.field
    vec = np.array(f.decode(code), dtype=np.int64)
    return f.encode(tuple(int(x) for x in (mat @ vec) % f.ell))


def stabilizer(group, codes):
    """Pointwise stabilizer of the given codes: the elements fixing each."""
    return [e for e in elements(group)
            if all(act_code(group, matrix(group, e), c) == c for c in codes)]


def perms_on(group, keys, s_codes):
    """Permutations of the positions of sorted S induced by the given elements."""
    pos = {c: i for i, c in enumerate(s_codes)}
    return [tuple(pos[act_code(group, matrix(group, e), c)] for c in s_codes)
            for e in keys]


def close_layered(group, codes):
    """Smallest G-stable superset of the codes, sorted: a BFS that applies
    every generator to each new layer of points."""
    out = set(int(c) for c in codes)
    frontier = sorted(out)
    while frontier:
        frontier = sorted(set(group.images(frontier).ravel().tolist()) - out)
        out.update(frontier)
    return tuple(sorted(out))


def schreier_stabilizer(perms, point):
    """Generators of the stabilizer of one position: every Schreier
    generator u_{s(x)}^-1 s u_x over the library's BFS transversal, tree
    edges included, thinned by `sims_filter`."""
    orbit, u, u_inv = group_orbits._transversal(perms, point)[:3]
    row = np.full(perms.shape[1], -1, dtype=np.int64)
    row[orbit] = np.arange(len(orbit))
    schreier = [np.take_along_axis(u_inv[row[s[orbit]]], s[u], axis=1) for s in perms]
    return group_orbits.sims_filter(np.concatenate(schreier) if schreier else perms)
