"""Matrix groups over F_ell, orbit partitions, and orbit-backed schemes."""
import numpy as np
import pytest

import group_oracle as oracle
import point_oracle
import scheme_oracle
from mschemes import group_orbits, instances
from mschemes.errors import CapExceeded, IndexOutOfRange, InputError
from mschemes.gf_linalg import Field
from mschemes.group_orbits import (
    MatrixGroup,
    OrbitBackend,
    build_orbit_scheme,
    companion_matrix,
    frobenius_matrix,
    gl_group,
    point_stabilizer,
    semilinear_group,
    sims_filter,
    singer_group,
    trivial_group,
)
from mschemes.scheme_core import Scheme, SchemeInstance, canonical_block_ids


def test_gl_orders():
    # |GL_d(F_2)| = prod (2^d - 2^i)
    assert oracle.order(gl_group(Field(2, 2))) == 6
    assert oracle.order(gl_group(Field(2, 3))) == 168
    assert oracle.order(gl_group(Field(3, 2))) == 48


def test_singer_is_cyclic_transitive():
    # every default polynomial is primitive: its companion matrix has order
    # ell^dim - 1
    for ell, dim in sorted(group_orbits.DEFAULT_PRIMITIVE_POLY):
        f = Field(ell, dim)
        g = singer_group(f)
        assert oracle.order(g) == f.q - 1
        # transitive on nonzero vectors: orbit of e_0 is everything nonzero
        assert g.close_set([1]) == tuple(range(1, f.q))


def test_orbit_stabilizer_counting():
    f = Field(2, 3)
    g = gl_group(f)
    for code in (1, 5):
        orbit = g.close_set([code])
        stab = oracle.stabilizer(g, [code])
        assert len(orbit) * len(stab) == oracle.order(g)


def test_stabilizer_fixes_points():
    f = Field(2, 3)
    g = gl_group(f)
    stab = oracle.stabilizer(g, [1, 2])
    for key in stab:
        mat = oracle.matrix(g, key)
        assert oracle.act_code(g, mat, 1) == 1 and oracle.act_code(g, mat, 2) == 2


def test_frobenius_has_order_dim():
    f = Field(2, 4)
    fr = frobenius_matrix(f)
    p = np.eye(f.dim, dtype=np.int64)
    for k in range(1, f.dim + 1):
        p = (fr @ p) % f.ell
        if np.array_equal(p, np.eye(f.dim, dtype=np.int64)):
            break
    assert k == f.dim


def test_companion_matrix_is_primitive():
    f = Field(2, 4)
    c = companion_matrix(f, (1, 0, 0, 1, 1))  # x^4 + x + 1
    p = np.eye(f.dim, dtype=np.int64)
    orders = []
    for k in range(1, f.q):
        p = (c @ p) % f.ell
        if np.array_equal(p, np.eye(f.dim, dtype=np.int64)):
            orders.append(k)
    assert orders == [f.q - 1]


def test_semilinear_group_order():
    # Singer cycle (order 2^d - 1) extended by Frobenius (order d)
    for dim, order in ((3, 21), (5, 155)):
        assert oracle.order(semilinear_group(Field(2, dim))) == order


def test_trivial_group_and_finest_orbits():
    f = Field(2, 2)
    g = trivial_group(f)
    assert oracle.order(g) == 1
    sch = build_orbit_scheme(g, [1, 2, 3], 2)
    assert sch.level(2).is_discrete()


def test_orbit_scheme_blocks_are_orbits():
    f = Field(2, 3)
    g = gl_group(f)
    sch = build_orbit_scheme(g, [1], 2)
    inst = sch.instance
    els = [oracle.matrix(g, e) for e in oracle.elements(g)]
    part = sch.level(2)
    # diagonal action orbit of a representative equals its block
    for b in range(part.num_blocks):
        rep = point_oracle.tuple_points(inst, int(part.block(b)[0]), 2)
        orbit = {
            scheme_oracle.tuple_index(inst, [oracle.act_code(g, mat, c) for c in rep])
            for mat in els
        }
        assert orbit == {int(i) for i in part.block(b)}


def test_levels_are_built_on_demand_under_the_cap():
    # |S^3| = 27 exceeds a cap of 26: the build and levels 1-2 succeed, and
    # only reading level 3 raises
    group = gl_group(Field(2, 2, cap_tuples=26))
    sch = build_orbit_scheme(group, [1], 3)
    assert sch.backend is not None
    for k, want in zip((1, 2), _oracle_levels(group, sch.s_codes, (), (1, 2))):
        assert np.array_equal(sch.level(k).bid, want), k
    with pytest.raises(CapExceeded, match="tuple space S\\^3"):
        sch.level(3)


def test_from_spec_kinds():
    f = Field(2, 3)
    assert oracle.order(MatrixGroup.from_spec(f, {"kind": "trivial"})) == 1
    assert oracle.order(MatrixGroup.from_spec(f, {"kind": "gl"})) == 168
    assert oracle.order(MatrixGroup.from_spec(f, {"kind": "singer"})) == 7
    eye = np.eye(3, dtype=np.int64)
    custom = MatrixGroup.from_spec(
        f, {"kind": "custom", "generators": [eye.tolist()]})
    assert oracle.order(custom) == 1
    with pytest.raises(InputError):
        MatrixGroup.from_spec(f, {"kind": "sporadic"})


def test_singular_generator_rejected():
    f = Field(2, 2)
    with pytest.raises(InputError):
        MatrixGroup.from_matrices(f, [np.zeros((2, 2), dtype=np.int64)])


def test_images_match_act_code():
    for g in (semilinear_group(Field(2, 3)), gl_group(Field(3, 2))):
        f = g.field
        codes = list(range(f.q))
        imgs = g.images(codes)
        assert imgs.shape == (len(g.generators), f.q)
        for gen, row in zip(g.generators, imgs.tolist()):
            assert row == [oracle.act_code(g, oracle.matrix(g, gen), c) for c in codes]
        with pytest.raises(IndexOutOfRange):
            g.images([f.q])


def _capture_group(monkeypatch):
    """Record the group each instance builder hands to build_orbit_scheme."""
    seen = []

    def build(group, *args, **kwargs):
        seen.append(group)
        return build_orbit_scheme(group, *args, **kwargs)

    monkeypatch.setattr(instances, "build_orbit_scheme", build)
    return seen


def _oracle_levels(group, s_codes, prefix, arities):
    """Canonical block ids of the orbits of the prefix's stabilizer, by one
    min-label pass over its full element list."""
    perms = np.array(oracle.perms_on(group, oracle.stabilizer(group, prefix), s_codes))
    n = len(s_codes)
    out = []
    for k in arities:
        idx = np.arange(n ** k)
        moved = sum(perms[:, (idx // n ** (k - 1 - i)) % n] * n ** (k - 1 - i)
                    for i in range(k))
        out.append(canonical_block_ids(moved.min(axis=0)))
    return out


# every builder in `instances`, at small parameters, with declared depth 4
# so that fibres at prefix length 2 still have levels 1 and 2
BUILDERS = {
    "gl_2_3": lambda: instances.gl_orbit_scheme(2, 3, 4),
    "gl_3_2": lambda: instances.gl_orbit_scheme(3, 2, 4),
    "singer": lambda: instances.singer_scheme(2, 4, 4),
    "trivial": lambda: instances.trivial_scheme(2, 2, 4),
    "c11_c5": lambda: instances.c11_c5_scheme(4),
    "c31_c5": lambda: instances.c31_c5_scheme(4),
    "signed_perm": lambda: instances.signed_perm_scheme(3, 4),
    "affine_coset": lambda: instances.affine_coset_scheme(4, (0, 1), 2, 4),
    "mul_coset": lambda: instances.mul_coset_scheme(5, 2, 6, 1, 0, 4),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fibres_match_full_element_oracle(name, monkeypatch):
    seen = _capture_group(monkeypatch)
    sch = BUILDERS[name]()
    (group,) = seen
    s = sch.s_codes
    pts = sorted({s[0], s[len(s) // 2], s[-1]})
    prefixes = [()] + [(a,) for a in pts] + [(a, b) for a in pts for b in pts]
    for prefix in prefixes:
        fib = sch.fiber(prefix)
        want = _oracle_levels(group, s, prefix, (1, 2))
        for k, bid in zip((1, 2), want):
            assert np.array_equal(fib.level(k).bid, bid), (prefix, k)


@pytest.mark.parametrize("name", ["gl_3_2", "singer", "c11_c5", "affine_coset"])
def test_fibre_from_its_built_parent_stabilizes_one_point(name, monkeypatch):
    seen = _capture_group(monkeypatch)
    cold = BUILDERS[name]()
    (group,) = seen
    assert cold.backend is not None
    s = cold.s_codes
    a, b = s[0], s[-1]
    calls = []

    def counted(perms, point, *transversal):
        calls.append((perms, point))
        return point_stabilizer(perms, point, *transversal)

    monkeypatch.setattr(group_orbits, "point_stabilizer", counted)
    # (a, b) before (a,): no parent is built, so the chain runs from the
    # root, with one Schreier computation in G and one in Stab(a)
    cache = cold._fiber_cache
    assert (a, b) not in cache
    ab_cold = cold.fiber((a, b))
    assert len(calls) == 2 and (a,) not in cache
    a_fib = cold.fiber((a,))
    assert cache[(a,)] is a_fib and cache[(a, b)] is ab_cold
    assert len(calls) == 2
    # a scheme on the same backend finds its stabilizers computed: with (a,)
    # built, (a, b) computes none, and (a, a) one, for the orbit {a} of Stab(a)
    warm = _fresh_like(cold)
    warm.fiber((a,))
    ab_warm = warm.fiber((a, b))
    assert len(calls) == 2
    aa_warm = warm.fiber((a, a))
    assert len(calls) == 3
    # a new backend takes the warm path on its own, to the same generators
    fresh = BUILDERS[name]()
    fresh.fiber((a,))
    ab_fresh = fresh.fiber((a, b))
    assert len(calls) == 5
    assert np.array_equal(ab_warm.backend.perms, ab_cold.backend.perms)
    assert np.array_equal(ab_fresh.backend.perms, ab_cold.backend.perms)
    # one Schreier computation per (backend, orbit), each at the orbit's
    # least position
    keys = {(id(perms), point) for perms, point in calls}
    assert len(keys) == len(calls)
    for perms, point in calls:
        assert point == min(_orbit(perms, point))
    for prefix, fib in [((a, b), ab_cold), ((a,), a_fib), ((a, b), ab_warm),
                        ((a, a), aa_warm), ((a, b), ab_fresh)]:
        want = _oracle_levels(group, s, prefix, (1, 2))
        for k, bid in zip((1, 2), want):
            assert np.array_equal(fib.level(k).bid, bid), (prefix, k)


def _per_point(perms, positions):
    """Oracle backend: one Schreier computation per fixed point, nothing
    transported."""
    for p in positions:
        perms = point_stabilizer(perms, p)
    return OrbitBackend(perms)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_transported_fibres_match_per_point_stabilizers(name, monkeypatch):
    seen = _capture_group(monkeypatch)
    sch = BUILDERS[name]()
    (group,) = seen
    inst = sch.instance
    n = inst.n
    perms = inst.pos(group.images(sch.s_codes))
    prefixes = [(p,) for p in range(n)]
    if n <= 15:
        prefixes += [(p, q) for p in range(n) for q in range(n)]
    for prefix in prefixes:
        fib = sch.fiber([sch.s_codes[p] for p in prefix])
        want = _per_point(perms, prefix)
        for k in (1, 2):
            raw = want.orbit_partition_raw(inst, k)
            if fib.backend is not None:
                # labels are least tuple indices, so raw labels agree too
                assert np.array_equal(fib.backend.orbit_partition_raw(inst, k), raw)
            assert np.array_equal(fib.level(k).bid, canonical_block_ids(raw)), (prefix, k)


@pytest.mark.parametrize("name", sorted(set(BUILDERS) - {"trivial"}))
def test_transported_generators_generate_the_stabilizer(name):
    sch = BUILDERS[name]()
    n = sch.instance.n
    order = len(_closure(sch.backend.perms, n))
    for p in range(n):
        sub = sch.backend.stabilizer_backend([p])
        want = order // len(_orbit(sch.backend.perms, p))
        assert (sub.perms[:, p] == p).all()
        assert len(_closure(sub.perms, n)) == want
        assert _chain_order(sub, n) == want


def test_tuple_cap_holds_on_kept_partitions():
    warm = instances.gl_orbit_scheme(2, 3, 4)
    s = warm.s_codes
    for c in (s[0], s[3]):  # an orbit's least point, and a transported one
        warm.fiber((c,)).level(3)
    capped = SchemeInstance(Field(2, 3, cap_tuples=100), s)
    sch = Scheme(capped, 4, backend=warm.backend)
    for c in (s[0], s[3]):
        fib = sch.fiber((c,))
        assert np.array_equal(fib.level(2).bid, warm.fiber((c,)).level(2).bid)
        with pytest.raises(CapExceeded):
            fib.level(3)


def _fresh_like(sch):
    """A scheme with the same carrier, depth and group, and no fibre built."""
    return Scheme(sch.instance, sch.m, backend=sch.backend)


def _closure(perms, n):
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for g in perms:
                img = tuple(int(g[i]) for i in p)
                if img not in seen:
                    seen.add(img)
                    nxt.append(img)
        frontier = nxt
    return seen


def _chain_order(backend, n):
    """Product of the basic orbit lengths along the base 0..n-1 of
    S-positions."""
    order = 1
    for p in range(n):
        order *= len(_orbit(backend.perms, p))
        backend = backend.stabilizer_backend([p])
    return order


def _orbit(perms, p):
    orbit = {p}
    frontier = [p]
    while frontier:
        frontier = [int(g[x]) for x in frontier for g in perms if int(g[x]) not in orbit]
        orbit.update(frontier)
    return orbit


@pytest.mark.parametrize("group,seed", [
    (gl_group(Field(2, 3)), 1),
    (gl_group(Field(3, 2)), 1),
    (semilinear_group(Field(2, 3)), 1),
    (semilinear_group(Field(2, 5)), 1),
])
def test_sims_filter_bound_and_order(group, seed):
    # the carriers span V, so the action on S is faithful
    sch = build_orbit_scheme(group, [seed], 1)
    s = sch.s_codes
    n = len(s)
    els = oracle.elements(group)
    full = np.array(oracle.perms_on(group, els, s))
    kept = sims_filter(full)
    assert len(kept) <= n * (n - 1) // 2
    assert _closure(kept, n) == {tuple(p) for p in full.tolist()}
    assert _chain_order(sch.backend, n) == len(els)
    assert _chain_order(OrbitBackend(kept), n) == len(els)


def test_deep_gl_fibre_without_listing_the_group():
    # |GL_5(F_2)| = 9999360; only the 31-point action is ever built
    sch = instances.gl_orbit_scheme(2, 5, 4)
    # 1 and 2 are least in their orbits under G and Stab(1); 6 is not least
    # in G's single orbit, so its fibre is transported from that of 1
    for prefix in [(1, 2), (6, 3)]:
        fib = sch.fiber(prefix)
        assert fib.level(1).num_blocks == 4
        assert fib.level(2).num_blocks == 20
        want = _per_point(sch.backend.perms, sch.instance.pos(prefix).tolist())
        assert np.array_equal(fib.backend.orbit_partition_raw(sch.instance, 2),
                              want.orbit_partition_raw(sch.instance, 2))


def test_close_set_matches_layered_oracle(monkeypatch):
    # every closure the shrink grid and the builders make, captured without
    # building their schemes
    seeded = []
    monkeypatch.setattr(instances, "build_orbit_scheme",
                        lambda group, seed, *args, **kwargs: seeded.append((group, seed)))
    for params in instances.SHRINK_CANDIDATES:
        instances.mul_coset_scheme(*params, 6)
    for name in sorted(BUILDERS):
        BUILDERS[name]()
    assert len(seeded) == len(instances.SHRINK_CANDIDATES) + len(BUILDERS)
    for group, seed in seeded:
        assert group.close_set(seed) == oracle.close_layered(group, seed)


@pytest.mark.parametrize("group", [
    gl_group(Field(2, 3)),
    gl_group(Field(3, 2)),
    singer_group(Field(2, 4)),
    semilinear_group(Field(2, 3)),
    trivial_group(Field(2, 3)),
], ids=["gl_2_3", "gl_3_2", "singer", "semilinear", "trivial"])
def test_close_set_multi_point_and_empty_seeds(group):
    q = group.field.q
    for seed in ([], [0], [0, 1], [q - 1, 3, 3], {2, 5, q - 2}, list(range(q))):
        assert group.close_set(seed) == oracle.close_layered(group, seed), seed
    for bad in ([-1], [q], [1, -1], [q, 1]):
        with pytest.raises(IndexOutOfRange):
            group.close_set(bad)


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_point_stabilizer_matches_schreier_oracle(name):
    sch = BUILDERS[name]()
    n = sch.instance.n
    # G, Stab(0), and the stabilizer of a point that is not least in its
    # orbit, a conjugate of that orbit's
    backends = [sch.backend, sch.backend.stabilizer_backend([0])]
    moved = [p for p in range(n) if min(_orbit(sch.backend.perms, p)) != p]
    if moved:
        backends.append(sch.backend.stabilizer_backend(moved[:1]))
        assert backends[-1]._source is not None
    for backend in backends:
        for p in range(n):
            assert np.array_equal(point_stabilizer(backend.perms, p),
                                  oracle.schreier_stabilizer(backend.perms, p)), p
