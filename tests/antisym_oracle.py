"""The eager strong-antisymmetry check: the verdict oracle for the streamed
`antisym.strong_antisym_check`.

It reads the whole generator list first, every (k, k') group up to (m, m),
appends the inverses, admits all of them in that order and then searches
the closure breadth-first.  It returns the same `SaturationResult` the
streamed check returns, except that `generators` counts every forward
generator, and it leaves the scheme's cached verdict alone.

`gen_step` reads one step of a witness's JSON word back into a `GenStep`.
"""
import numpy as np

from mschemes.antisym import GenStep, SaturationResult, Witness, generator_maps
from mschemes.gf_linalg import linmap
from point_oracle import block_members


def gen_step(obj):
    """The `GenStep` of one `word` entry of `Witness.to_json`."""
    return GenStep(
        tuple(tuple(int(c) for c in row) for row in obj["tau"]),
        obj["direction"],
        (int(obj["src"]["k"]), int(obj["src"]["block"])),
        (int(obj["dst"]["k"]), int(obj["dst"]["block"])),
    )


def strong_antisym_check(sch, budget):
    gens = [(src, dst, tuple(positions.tolist()),
             GenStep(linmap(coeffs).coeffs, "fwd", src, dst))
            for src, dst, positions, coeffs in generator_maps(sch)]
    all_gens = list(gens)
    for src, dst, mapping, step in gens:
        inv_mapping = tuple(np.argsort(mapping).tolist())
        all_gens.append((dst, src, inv_mapping, GenStep(step.tau, "inv", dst, src)))

    def is_identity(mapping):
        return mapping == tuple(range(len(mapping)))

    explored = {}
    words = []
    queue = []

    def admit(src, dst, mapping, word_entry):
        key = (src, dst, mapping)
        if key in explored:
            return None
        explored[key] = len(words)
        words.append(word_entry)
        queue.append(key)
        return key

    witness = None
    for src, dst, mapping, step in all_gens:
        admit(src, dst, mapping, (None, step))
        if src == dst and not is_identity(mapping):
            witness = (src, mapping, explored[(src, dst, mapping)])
            break

    by_src = {}
    for src, dst, mapping, step in all_gens:
        by_src.setdefault(src, []).append((dst, mapping, step))

    head = 0
    while witness is None and head < len(queue):
        if len(explored) > budget:
            return SaturationResult("inconclusive", len(explored), budget,
                                    generators=len(gens))
        src, dst, mapping = queue[head]
        head += 1
        parent_idx = explored[(src, dst, mapping)]
        for gdst, gmapping, gstep in by_src.get(dst, []):
            composed = tuple(gmapping[i] for i in mapping)
            key = admit(src, gdst, composed, (parent_idx, gstep))
            if key is None:
                continue
            if src == gdst and not is_identity(composed):
                witness = (src, composed, explored[key])
                break

    if witness is None:
        return SaturationResult("antisymmetric", len(explored), budget,
                                generators=len(gens))
    src, mapping, idx = witness
    word = []
    while idx is not None:
        parent, step = words[idx]
        word.append(step)
        idx = parent
    word.reverse()
    members = block_members(sch.level(src[0]).bid)[src[1]]
    return SaturationResult(
        "witness", len(explored), budget,
        witness=Witness(src, word, tuple(members[list(mapping)].tolist())),
        generators=len(gens),
    )
