"""The four benchmark workloads: seeded inputs, the ops that run them through
the public surface, and the checks on every op's output.

An op is a call into the program: `mschemes.cli.main(argv)` where a
subcommand exists, otherwise the library function the scripts call.  Each
workload's op list is drawn from a fixed pool by `random.Random(f"{name}:{seed}")`;
only the generated argv, codes and JSON reach the program.  The draw keeps
the shape of the list (group sizes, carrier sizes, scheme kinds, op count)
fixed and varies the concrete points, carriers, conjugating matrices and
thresholds, so every seed asks for about the same amount of work.

Every op returns canonical report bytes (the CLI report and any `--out`
file, or the canonical JSON of a library result) and a check that raises
`CheckFailed` when an output is wrong.  Checks re-derive what they can
independently (Fourier coefficients by numpy, additive energy by numpy,
carrier sizes by orbit closure, map counts by formula) and call
`verify_certificate` on every certificate.
"""
from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from mschemes import cli, constructible, instances, refine
from mschemes.addcomb import PointSet, sum_histogram

GUARD = 1e-9
# report fields that are rounding noise, checked against GUARD and left out
# of the digest
NOISE_FIELDS = ("parseval_error", "inversion_error")


class CheckFailed(Exception):
    pass


@dataclass
class Op:
    name: str
    run: Callable[[], Any]                  # timed: the call into the program
    reports: Callable[[Any], list]          # payload -> canonical report bytes
    check: Callable[[Any, list], None]      # raises CheckFailed


def canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def require(cond, msg: str):
    if not cond:
        raise CheckFailed(msg)


def _json(report: bytes):
    try:
        return json.loads(report)
    except ValueError as exc:
        raise CheckFailed(f"report is not JSON: {exc}") from None


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# ---------------------------------------------------------------------------
# small exact helpers over F_ell, independent of the program
# ---------------------------------------------------------------------------


def encode(vec, ell: int) -> int:
    code = 0
    for x in vec:
        code = code * ell + int(x) % ell
    return code


def digits(codes, ell: int, dim: int) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.int64)
    return np.stack([(codes // ell ** (dim - 1 - i)) % ell for i in range(dim)], axis=1)


def mat_inv(mat: np.ndarray, ell: int):
    """Inverse mod prime ell by Gauss-Jordan, or None if singular."""
    d = len(mat)
    aug = np.concatenate([mat % ell, np.eye(d, dtype=np.int64)], axis=1)
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r, col]), None)
        if piv is None:
            return None
        aug[[col, piv]] = aug[[piv, col]]
        aug[col] = aug[col] * pow(int(aug[col, col]), -1, ell) % ell
        for r in range(d):
            if r != col and aug[r, col]:
                aug[r] = (aug[r] - aug[r, col] * aug[col]) % ell
    return aug[:, d:]


def random_invertible(rng: random.Random, ell: int, dim: int):
    while True:
        mat = np.array([[rng.randrange(ell) for _ in range(dim)] for _ in range(dim)],
                       dtype=np.int64)
        inv = mat_inv(mat, ell)
        if inv is not None:
            return mat, inv


def companion(poly, ell: int) -> np.ndarray:
    """Companion matrix of a monic polynomial (constant term last)."""
    d = len(poly) - 1
    mat = np.zeros((d, d), dtype=np.int64)
    for i in range(1, d):
        mat[i, i - 1] = 1
    for i in range(d):
        mat[i, d - 1] = (-poly[d - i]) % ell
    return mat


def frobenius(poly, ell: int) -> np.ndarray:
    """Matrix of z -> z^ell in the power basis of the polynomial."""
    comp = companion(poly, ell)
    d = len(comp)
    cols = [np.linalg.matrix_power(comp, i * ell)[:, 0] % ell for i in range(d)]
    return np.stack(cols, axis=1) % ell


def gl_gens(dim: int) -> list:
    trans = np.eye(dim, dtype=np.int64)
    trans[0, 1] = 1
    cyc = np.roll(np.eye(dim, dtype=np.int64), 1, axis=0)
    return [trans, cyc]


def orbit_size(gens, ell: int, seed_vec) -> int:
    seen = {tuple(int(x) for x in seed_vec)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v in frontier:
            for g in gens:
                w = tuple(int(x) for x in (g @ np.array(v)) % ell)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen)


def f2_span(codes) -> frozenset:
    out = {0}
    for c in codes:
        out |= {x ^ c for x in out}
    return frozenset(out)


def group_spec(mats) -> str:
    return json.dumps({"kind": "custom",
                       "generators": [np.asarray(m).tolist() for m in mats]},
                      separators=(",", ":"))


# ---------------------------------------------------------------------------
# op builders
# ---------------------------------------------------------------------------


def cli_op(name: str, argv: list, work: str, idx: int, check, outs=()) -> Op:
    """A CLI call writing its report to a file; `outs` are --out files whose
    bytes join the report."""
    report = os.path.join(work, f"op{idx}.report.json")
    argv = list(argv) + ["--report", report]

    def run():
        return cli.main(argv)

    def reports(rc):
        return [_read(report)] + [_read(p) for p in outs]

    def checked(rc, reps):
        require(rc == 0, f"exit code {rc}")
        check(reps)

    return Op(name, run, reports, checked)


def lib_op(name: str, run, to_obj, check) -> Op:
    return Op(name, run, lambda res: [canon(to_obj(res))], check)


def _holds_all(records, what: str):
    for rec in records:
        require(rec.get("holds") is True, f"{what}: record fails: {rec}")


# ---------------------------------------------------------------------------
# spectral: mscheme fourier on seeded subsets
# ---------------------------------------------------------------------------

# (ell, dim, |A|, ops per list): 10 small ops, 10 mid-size F_5^3 ops and 10
# large ones (3^5, 2^8, 5^4), which carry most of the time.  Of 30 ops the
# median falls inside the F_5^3 class and the tail percentile (10 ops
# beyond it) on its top, with exactly the 10 large ops beyond.
SPECTRAL_SLOTS = [
    (7, 2, 12, 3), (2, 6, 16, 3), (3, 4, 20, 4), (5, 3, 24, 10),
    (2, 8, 32, 4), (3, 5, 48, 5), (5, 4, 64, 1),
]


def spectral(seed: int, work: str) -> list:
    rng = random.Random(f"spectral:{seed}")
    ops = []
    slots = [(ell, dim, size) for ell, dim, size, count in SPECTRAL_SLOTS
             for _ in range(count)]
    rng.shuffle(slots)
    for idx, (ell, dim, size) in enumerate(slots):
        q = ell ** dim
        units = [ell ** i for i in range(dim)]  # the unit vectors: full span
        rest = rng.sample([c for c in range(1, q) if c not in units], size - dim)
        pts = units + rest
        rng.shuffle(pts)
        eps = rng.choice(["1/4", "1/8", "1/16"])
        csv_path = os.path.join(work, f"op{idx}.coeffs.csv")
        argv = ["fourier", "--ell", str(ell), "--dim", str(dim),
                "--set", ",".join(map(str, pts)), "--eps-prime", eps,
                "--out", csv_path]
        ops.append(_fourier_op(f"fourier F_{ell}^{dim} |A|={size}", argv, work,
                               idx, ell, dim, pts, Fraction(eps), csv_path))
    return ops


def _fourier_op(name, argv, work, idx, ell, dim, pts, eps, csv_path) -> Op:
    def check(reps):
        rep = _json(reps[0])
        q = ell ** dim
        require(rep.get("group_order") == q, f"group order {rep.get('group_order')} != {q}")
        for key in NOISE_FIELDS:
            require(float(rep[key]) <= GUARD, f"{key} {rep[key]} > {GUARD}")
        # defining sum by numpy: coords are the digits when the span is full
        duals = digits(np.arange(q), ell, dim)
        phase = (duals @ digits(pts, ell, dim).T) % ell
        want = np.exp(-2j * np.pi * phase / ell).sum(axis=1) / q
        rows = reps[1].decode().splitlines()
        require(rows[0] == "dual_vector,re,im,abs" and len(rows) == q + 1,
                "coefficient CSV shape")
        heavy = []
        for i, row in enumerate(rows[1:]):
            dual, re_s, im_s, abs_s = row.split(",")
            require(dual == " ".join(map(str, duals[i])), f"CSV row {i} dual order")
            got = complex(float(re_s), float(im_s))
            require(abs(got - want[i]) <= GUARD and abs(float(abs_s) - abs(want[i])) <= GUARD,
                    f"coefficient {dual}: {got} vs {want[i]}")
            if i and abs(want[i]) >= float(eps) - GUARD:
                heavy.append(list(map(int, duals[i])))
        got_heavy = [h["dual"] for h in rep["heavy"]]
        require(got_heavy == heavy, "heavy characters differ from the defining sum")

    return cli_op(name, argv, work, idx, check, outs=(csv_path,))


# ---------------------------------------------------------------------------
# additive: shrink gate / shrink_weak / |Z_x| constancy, bsg, addcomb
# ---------------------------------------------------------------------------

# carrier classes of SHRINK_CANDIDATES, (ell, dsub, c, w), with the K values
# whose sumset gate they pass and how many carriers a list draws
ADDITIVE_CLASSES = [
    ((2, 6, 9, 1), (4,), 2), ((2, 6, 9, 2), (4,), 2),
    ((2, 8, 17, 1), (4,), 2), ((2, 8, 17, 2), (4,), 2),
    ((2, 10, 33, 1), (4,), 2), ((7, 2, 12, 1), (4,), 1),
    ((2, 8, 51, 1), (4,), 1), ((2, 10, 93, 1), (4, 9), 1),
    ((2, 8, 51, 2), (4,), 1), ((2, 10, 33, 3), (4, 9), 1),
]
# GL-orbit blocks for bsg_extract, (ell, dim); the threshold gamma is drawn
BSG_BLOCKS = [(2, 3), (5, 2), (7, 2)]
# addcomb sets: (ell, dim, |A|); <=16 points run the quadruple oracle
ADDCOMB_SLOTS = [(2, 6, 14), (2, 8, 16), (3, 4, 15), (5, 3, 12),
                 (2, 8, 80), (2, 10, 120), (3, 5, 90), (2, 10, 200)]


def additive(seed: int, work: str) -> list:
    rng = random.Random(f"additive:{seed}")
    items = []
    for key, ks, count in ADDITIVE_CLASSES:
        powers = [p for (ell, dsub, c, w, p) in instances.SHRINK_CANDIDATES
                  if (ell, dsub, c, w) == key]
        for p in rng.sample(powers, count):
            items.append(("carrier", key + (p,), rng.choice(ks)))
    for ell, dim in BSG_BLOCKS:
        items.append(("bsg", (ell, dim, rng.choice(["1/2", "1/3", "1/4", "1/5"]))))
    for ell, dim, size in ADDCOMB_SLOTS:
        items.append(("addcomb", (ell, dim, sorted(rng.sample(range(1, ell ** dim), size)))))
    rng.shuffle(items)

    ops = []
    for item in items:
        if item[0] == "carrier":
            ops += _carrier_ops(item[1], item[2])
        elif item[0] == "bsg":
            ops.append(_bsg_op(*item[1]))
        else:
            ell, dim, pts = item[1]
            ops.append(_addcomb_op(ell, dim, pts, work, len(ops)))
    return ops


def _carrier_ops(params, K) -> list:
    state = {}
    label = "carrier " + ",".join(map(str, params)) + f" K={K}"

    def gate():
        state["sch"] = instances.mul_coset_scheme(*params, 6)
        return instances.shrink_gate_holds(state["sch"], K)

    def gate_check(res, reps):
        require(_json(reps[0])["gate"] is True, "carrier fails the sumset gate")

    def shrink():
        return refine.shrink_weak(state["sch"], 0, refine.BlockRef(1, 0), K)

    def shrink_check(out, reps):
        rep = _json(reps[0])
        ratio = Fraction(rep["min_ratio"])
        require(ratio * ratio >= K, f"min_ratio^2 = {ratio * ratio} < K = {K}")
        require(rep["case"] in ("nu-window", "z-complement"), f"case {rep['case']}")
        carrier = set(state["sch"].s_codes)
        require(set(out.points) <= carrier and len(out.points) == rep["size"],
                "piece is not inside the carrier")
        for step in rep["steps"]:
            _holds_all(step["inequalities"], "shrink_weak")

    def slices():
        b = [int(c) for c in sorted(state["sch"].s_codes)]
        field = state["sch"].field
        bset = PointSet.from_codes(field, b)
        hist = sum_histogram(bset, bset)
        z_set = {z for z, c in hist.items() if c * c < K}
        return refine.z_slice_sizes(field, b, b, z_set)

    def slices_check(sizes, reps):
        rep = _json(reps[0])
        require(rep["points"] == len(state["sch"].s_codes), "slice map misses points")
        require(len(rep["sizes"]) == 1, f"|Z_x| not constant: {rep['sizes']}")

    return [
        lib_op(f"gate {label}", gate, lambda ok: {"gate": bool(ok)}, gate_check),
        lib_op(f"shrink {label}", shrink, lambda out: out.to_obj(), shrink_check),
        lib_op(f"zslice {label}", slices,
               lambda sz: {"points": len(sz), "sizes": sorted(set(sz.values()))},
               slices_check),
    ]


def _bsg_op(ell, dim, gamma) -> Op:
    state = {}

    def run():
        state["sch"] = instances.gl_orbit_scheme(ell, dim, 4)
        return refine.bsg_extract(state["sch"], 0, Fraction(gamma))

    def check(res, reps):
        rep = _json(reps[0])
        g = Fraction(gamma)
        n = rep["parent_size"]
        require(n == len(state["sch"].s_codes), "parent size")
        require(g * n <= 3 * rep["size"], "|B'| < gamma|B|/3")
        _holds_all(rep["inequalities"], "bsg_extract")

    return lib_op(f"bsg F_{ell}^{dim} gamma={gamma}", run, lambda r: r.to_obj(), check)


def _addcomb_op(ell, dim, pts, work, idx) -> Op:
    argv = ["addcomb", "--ell", str(ell), "--dim", str(dim), "--set", ",".join(map(str, pts))]

    def check(reps):
        rep = _json(reps[0])
        digs = digits(pts, ell, dim)
        sums = (digs[:, None, :] + digs[None, :, :]) % ell
        codes = (sums.reshape(-1, dim) * ell ** np.arange(dim - 1, -1, -1)).sum(axis=1)
        _, counts = np.unique(codes, return_counts=True)
        energy = int((counts.astype(np.int64) ** 2).sum())
        require(rep["size"] == len(pts), "size")
        require(rep["energy"] == energy, f"energy {rep['energy']} != {energy}")
        if len(pts) <= 64:
            require(rep.get("energy_oracle") == energy, "energy oracle")
        for key in ("covering_ok", "freiman_ruzsa_ok", "plunnecke_ok"):
            require(rep[key] is True, f"{key} false")

    return cli_op(f"addcomb F_{ell}^{dim} |A|={len(pts)}", argv, work, idx, check)


# ---------------------------------------------------------------------------
# structure: find_constructible on one lazy GL(4,2) scheme, plus decompose
# ---------------------------------------------------------------------------

# prefixes tried per prefix length; sizes the cold stabilizer/fibre work
PREFIX_CAP = 24


def f2_subspaces(dim: int) -> list:
    """Every subspace of F_2^dim, as frozensets of codes, in a fixed order."""
    seen = {frozenset([0])}
    frontier = list(seen)
    while frontier:
        nxt = []
        for sub in frontier:
            for v in range(1, 2 ** dim):
                if v not in sub:
                    span = f2_span(list(sub) + [v])
                    if span not in seen:
                        seen.add(span)
                        nxt.append(span)
        frontier = nxt
    return sorted(seen, key=lambda s: (len(s), sorted(s)))


def structure(seed: int, work: str) -> list:
    rng = random.Random(f"structure:{seed}")
    state = {}
    # every subspace of span(B) = F_2^4, in seeded order: each list does the
    # same searches, and the seed decides which op pays the cold fibres
    subspaces = f2_subspaces(4)
    rng.shuffle(subspaces)

    def build():
        state["sch"] = instances.gl_orbit_scheme(2, 4, 30)
        return state["sch"]

    def build_check(sch, reps):
        require(_json(reps[0])["carrier"] == 15, "GL(4,2) carrier")

    ops = [lib_op("scheme GL(4,2) lazy m=30", build,
                  lambda sch: {"carrier": len(sch.s_codes), "m": sch.m}, build_check)]
    for sub in subspaces:
        ops.append(_constructible_op(state, sub))
    decomp = _decompose_items(rng)
    for i, (name, argv) in enumerate(decomp):
        ops.insert(rng.randrange(1, len(ops) + 1),
                   cli_op(name, argv, work, 1000 + i, _decompose_check))
    return ops


def _constructible_op(state, sub) -> Op:
    pts = sorted(sub)

    def run():
        return refine.find_constructible(state["sch"], pts, 2, 2, PREFIX_CAP)

    def to_obj(found):
        if found is None:
            return {"found": False}
        return {"found": True, "prefix": list(found["prefix"]),
                "arity": found["arity"], "cert": found["cert"].describe()}

    def check(found, reps):
        rep = _json(reps[0])
        if not rep["found"]:
            return
        require(rep["cert"]["size"] == len(pts), "certificate size")
        require(len(rep["prefix"]) <= 2 and 1 <= rep["arity"] <= 2, "search bounds")
        cert = found["cert"]
        require(cert.points == frozenset(pts), "certificate covers another set")
        fib = state["sch"].fiber(tuple(found["prefix"]))
        require(constructible.verify_certificate(fib, cert), "certificate does not verify")

    return lib_op(f"constructible |W|={len(pts)}", run, to_obj, check)


def _decompose_items(rng) -> list:
    """Two affine-coset instances over F_2 and one over F_3, and one signed
    permutation instance on F_3^2, as CLI argv."""
    items = []
    for ell, amb in ((2, 4), (2, 5), (3, 4)):
        sub_dims = sorted(rng.sample(range(amb - 1), 2 if ell == 2 else 1))
        shift = rng.choice([j for j in range(amb - 1) if j not in sub_dims])
        gens = []
        for j in sub_dims:
            t = np.eye(amb, dtype=np.int64)
            t[j, amb - 1] = 1
            gens.append(t)
        vec = [0] * amb
        vec[shift] = vec[amb - 1] = 1
        items.append((f"decompose affine F_{ell}^{amb}",
                      ["decompose", "--ell", str(ell), "--dim", str(amb),
                       "--group", group_spec(gens), "--seed-set", str(encode(vec, ell)),
                       "--m", "40", "--lazy", "--k", "10", "--eps-prime", "1/4"]))
    dim = 2
    gens = []
    for i in range(dim):
        d = np.eye(dim, dtype=np.int64)
        d[i, i] = 2
        gens.append(d)
    gens.append(np.eye(dim, dtype=np.int64)[[1, 0]])
    e = [0] * dim
    e[rng.randrange(dim)] = rng.choice([1, 2])
    items.append(("decompose signed-perm F_3^2",
                  ["decompose", "--ell", "3", "--dim", "2", "--group", group_spec(gens),
                   "--seed-set", str(encode(e, 3)), "--m", "200", "--lazy",
                   "--k", "50", "--eps-prime", "1/9"]))
    return items


def _decompose_check(reps):
    rep = _json(reps[0])
    require(rep.get("outcome") == "decomposition", f"outcome {rep.get('outcome')}")
    _holds_all(rep["properties"], "decompose")
    require(len(rep["leaf_counts"]) == rep["leaves"] and len(set(rep["leaf_counts"])) == 1,
            "leaf counts")


# ---------------------------------------------------------------------------
# axioms: gen-orbit --out / validate --in / antisym --in, and depth
# ---------------------------------------------------------------------------


def _axiom_bases():
    """(label, ell, dim, generators, seed vector) of the base groups; each
    list conjugates every one by a fresh random matrix."""
    e0 = lambda d: [1] + [0] * (d - 1)
    p22, p23 = (1, 1, 1), (1, 0, 1, 1)
    return [
        ("GL(2,2)", 2, 2, gl_gens(2), e0(2)),
        ("GL(2,2)", 2, 2, gl_gens(2), e0(2)),
        ("Singer(2,2)", 2, 2, [companion(p22, 2)], e0(2)),
        ("Singer(2,2)", 2, 2, [companion(p22, 2)], e0(2)),
        ("GL(3,2)", 2, 3, gl_gens(3), e0(3)),
        ("Singer(2,3):Frob", 2, 3, [companion(p23, 2), frobenius(p23, 2)], e0(3)),
        ("GL(4,2)", 2, 4, gl_gens(4), e0(4)),
    ]


AXIOM_M = 3


def axioms(seed: int, work: str) -> list:
    rng = random.Random(f"axioms:{seed}")
    ops = []
    bases = _axiom_bases()
    rng.shuffle(bases)
    for label, ell, dim, gens, vec in bases:
        p, p_inv = random_invertible(rng, ell, dim)
        conj = [(p @ g @ p_inv) % ell for g in gens]
        x = (p @ np.array(vec)) % ell
        n = orbit_size(conj, ell, x)
        path = os.path.join(work, f"scheme{len(ops)}.json")
        src = ["--ell", str(ell), "--dim", str(dim), "--group", group_spec(conj),
               "--seed-set", str(encode(x, ell)), "--m", str(AXIOM_M)]
        ops.append(cli_op(f"gen-orbit {label}", ["gen-orbit"] + src + ["--out", path],
                          work, len(ops), _gen_check(n), outs=(path,)))
        ops.append(cli_op(f"validate {label}", ["validate", "--in", path], work,
                          len(ops), _validate_check(ell)))
        ops.append(cli_op(f"antisym {label}", ["antisym", "--in", path], work,
                          len(ops), _antisym_check))
    # depth needs a strongly antisymmetric scheme: the Frobenius groups
    # C11:C5 on F_2^10 and C31:C5 on F_2^5 at m=2, conjugated like the others
    p210, p25 = (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1), (1, 0, 0, 1, 0, 1)
    c210 = companion(p210, 2)
    frob = [
        ("C11:C5", 10, [np.linalg.matrix_power(c210, 93) % 2,
                        np.linalg.matrix_power(frobenius(p210, 2), 2) % 2]),
        ("C31:C5", 5, [companion(p25, 2), frobenius(p25, 2)]),
    ]
    for label, dim, gens in frob:
        p, p_inv = random_invertible(rng, 2, dim)
        conj = [(p @ g @ p_inv) % 2 for g in gens]
        x = p[:, 0]  # the image of the seed point e_0
        src = ["--ell", "2", "--dim", str(dim), "--group", group_spec(conj),
               "--seed-set", str(encode(x, 2)), "--m", "2"]
        ops.insert(rng.randrange(len(ops) + 1),
                   cli_op(f"depth {label}", ["depth"] + src, work, 900 + dim, _depth_check))
    return ops


def _gen_check(n):
    def check(reps):
        rep = _json(reps[0])
        require(rep["carrier"] == n, f"carrier {rep['carrier']} != orbit size {n}")
        require(rep["m"] == AXIOM_M and rep["level_blocks"][0] == 1, "levels")
        scheme = _json(reps[1])
        require(len(scheme["S"]) == n and len(scheme["levels"]) == AXIOM_M, "exported scheme")
    return check


def _validate_check(ell):
    maps = sum(ell ** (k * kp) for k in range(1, AXIOM_M + 1) for kp in range(1, AXIOM_M + 1))

    def check(reps):
        rep = _json(reps[0])
        require(rep["ok"] is True and rep["violations"] == [], "axiom violations")
        require(rep["checked_maps"] == maps, f"checked {rep['checked_maps']} of {maps} maps")
    return check


def _antisym_check(reps):
    rep = _json(reps[0])
    require(rep["status"] in ("antisymmetric", "witness"), f"status {rep['status']}")
    if rep["status"] == "witness":
        require(rep["replay_ok"] is True and rep["word_length"] >= 1, "witness replay")


def _depth_check(reps):
    rep = _json(reps[0])
    require(rep["count"] == len(rep["fixings"]), "fixing count")
    require(2 ** rep["count"] <= rep["start_size"], "2^count > |B|")


WORKLOADS = {
    "spectral": spectral,
    "additive": additive,
    "structure": structure,
    "axioms": axioms,
}
