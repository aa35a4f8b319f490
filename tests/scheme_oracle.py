"""Per-block definitions of the P1/P2 check and of the generator maps: the
test oracle for `Scheme.map_sweep` and its readers `Scheme.validate` and
`antisym.generator_maps`.

Each function applies every coordinate-linear map to all of S^k with
`apply_batch` and then walks the blocks one by one in Python, checking the
axioms (or bijectivity onto a block) block by block.  Same order, same
violation strings and same generator list as the library.

`bsg_neighbourhood_scan` is the full per-point form of the block-union
check in `refine.bsg_extract`, which checks one point per orbit on
group-backed schemes.

`tuple_index` reads the index of one tuple off `tuple_indices`, and
`refines` decides refinement of two partitions block by block.
"""
import numpy as np

from mschemes.addcomb import PointSet
from mschemes.antisym import GenStep
from mschemes.gf_linalg import enumerate_linmaps
from mschemes.refine import _level1_union_ids
from mschemes.scheme_core import ValidationReport, Violation
from point_oracle import block_members, negate, sum_histogram


def tuple_index(inst, pts):
    """Index in S^k of one tuple of k point codes, -1 when one is not in S."""
    return int(inst.tuple_indices(np.array([pts], dtype=np.int64))[0])


def refines(fine, coarse):
    """Every block of `fine` lies inside one block of `coarse`."""
    return all(len(set(coarse.bid[rows].tolist())) == 1
               for rows in block_members(fine.bid))


def validate(sch, max_violations=16):
    inst = sch.instance
    pos = np.full(inst.field.q, -1, dtype=np.int64)
    pos[np.array(inst.s_codes, dtype=np.int64)] = np.arange(inst.n)
    members = {k: block_members(sch.level(k).bid) for k in range(1, sch.m + 1)}
    violations = []
    checked = 0
    pairs = [(k, kp) for k in range(1, sch.m + 1) for kp in range(1, sch.m + 1)]
    for k, kp in pairs:
        part_kp = sch.level(kp)
        tuples = inst.tuples_array(k)
        blocks = members[k]
        n = inst.n
        radix = n ** np.arange(kp - 1, -1, -1, dtype=np.int64)
        for tau in enumerate_linmaps(inst.field, k, kp):
            checked += 1
            img = tau.apply_batch(inst.field, tuples)  # (n^k, kp) codes
            p = pos[img]
            in_s = (p >= 0).all(axis=1)
            img_idx = np.where(in_s, (np.maximum(p, 0) @ radix), -1)
            for b, rows in enumerate(blocks):
                sub_in = in_s[rows]
                if not sub_in.any():
                    continue
                if not sub_in.all():
                    violations.append(Violation(
                        k, kp, tau, b,
                        f"image meets S^{kp} but also leaves it "
                        f"({int(sub_in.sum())}/{len(rows)} inside)",
                    ))
                else:
                    tgt = img_idx[rows]
                    bids = np.unique(part_kp.bid[tgt])
                    if len(bids) > 1:
                        violations.append(Violation(
                            k, kp, tau, b,
                            f"image straddles blocks {bids.tolist()} at arity {kp}",
                        ))
                    else:
                        bp = int(bids[0])
                        vals, counts = np.unique(tgt, return_counts=True)
                        tgt_block = members[kp][bp]
                        if len(vals) != len(tgt_block) or not np.array_equal(
                            vals, tgt_block
                        ):
                            violations.append(Violation(
                                k, kp, tau, b,
                                f"image covers only part of block {bp} at arity {kp}",
                            ))
                        elif counts.min() != counts.max():
                            violations.append(Violation(
                                k, kp, tau, b,
                                f"fibre sizes over block {bp} not constant "
                                f"(range {int(counts.min())}..{int(counts.max())})",
                            ))
                if len(violations) >= max_violations:
                    return ValidationReport(False, checked, violations)
    return ValidationReport(not violations, checked, violations)


def generator_maps(sch):
    """The generator list (src, dst, mapping, GenStep) of
    `antisym.generator_maps`, without its member lookup."""
    inst = sch.instance
    pos = np.full(inst.field.q, -1, dtype=np.int64)
    pos[np.array(inst.s_codes, dtype=np.int64)] = np.arange(inst.n)
    members = {k: block_members(sch.level(k).bid) for k in range(1, sch.m + 1)}
    gens = []
    seen = set()
    for k in range(1, sch.m + 1):
        tuples = inst.tuples_array(k)
        blocks = members[k]
        for kp in range(1, sch.m + 1):
            part_kp = sch.level(kp)
            radix = inst.n ** np.arange(kp - 1, -1, -1, dtype=np.int64)
            for tau in enumerate_linmaps(inst.field, k, kp):
                img = tau.apply_batch(inst.field, tuples)
                p = pos[img]
                in_s = (p >= 0).all(axis=1)
                img_idx = np.maximum(p, 0) @ radix
                for b, rows in enumerate(blocks):
                    rows = np.sort(rows)
                    if not in_s[rows].all():
                        continue
                    tgt = img_idx[rows]
                    uniq = np.unique(tgt)
                    if len(uniq) != len(rows):
                        continue  # not injective on the block
                    bp = int(part_kp.bid[tgt[0]])
                    tgt_members = members[kp][bp]
                    if len(tgt_members) != len(uniq) or not np.array_equal(uniq, tgt_members):
                        continue  # not onto a block
                    src = (k, b)
                    dst = (kp, bp)
                    mapping = tuple(int(t) for t in tgt)
                    key = (src, dst, mapping)
                    if key in seen:
                        continue
                    seen.add(key)
                    gens.append((src, dst, mapping, GenStep(tau.coeffs, "fwd", src, dst)))
    return gens


def bsg_neighbourhood_scan(sch, b, gamma):
    """Check that N(x) and N'(x) are unions of level-1 blocks of the fibre
    at x for every x in block b, one fibre per x, raising as
    `refine.bsg_extract` does.  Returns the number of points checked."""
    f = sch.field
    b_codes = sch.level1_block_set(b)
    b_ps = PointSet.from_codes(f, b_codes)
    t_set = {z for z, c in sum_histogram(b_ps, negate(b_ps)).items()
             if c >= gamma * len(b_codes) / 2}
    b_arr = np.array(b_codes, dtype=np.int64)
    adj = np.isin(f.sub_codes(b_arr[:, None], b_arr[None, :]), sorted(t_set))
    for i, x in enumerate(b_codes):
        fibx = sch.fiber((x,))
        _level1_union_ids(fibx, b_arr[adj[i]])
        _level1_union_ids(fibx, b_arr[adj[:, i]])
    return len(b_codes)
