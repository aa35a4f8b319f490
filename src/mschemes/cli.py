"""Command-line surface: `mscheme <subcommand>`.

Thin wrappers around the library modules.  Every command emits a canonical
JSON report (sorted keys, fixed separators) so repeated runs on identical
inputs are byte-identical.  Exit codes: 0 success, 2 bad input, 3 cap
exceeded, 4 a checked mathematical claim failed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from . import antisym, refine
from .addcomb import (
    PointSet,
    additive_energy,
    additive_energy_oracle,
    check_covering,
    check_freiman_ruzsa,
    check_plunnecke,
    is_coset,
)
from .caps import DEFAULT_BUDGET_SATURATION, DEFAULT_CAP_TUPLES
from .errors import (
    CapExceeded,
    DepthExhausted,
    InputError,
    LemmaViolation,
    MSchemeError,
    PreconditionUnmet,
)
from .fourier import FourierContext
from .gf_linalg import Field, positive_cap
from .group_orbits import MatrixGroup, build_orbit_scheme
from .scheme_core import Scheme

EXIT_INPUT = 2
EXIT_CAP = 3
EXIT_LEMMA = 4


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(args, obj):
    text = _dump(obj)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _tuple_cap(args) -> int:
    """--cap if given, else $MSCHEME_CAP_TUPLES if set, else the default."""
    if args.cap is not None:
        return positive_cap(args.cap, "--cap")
    text = os.environ.get("MSCHEME_CAP_TUPLES", str(DEFAULT_CAP_TUPLES))
    try:
        return positive_cap(int(text), "MSCHEME_CAP_TUPLES")
    except ValueError:
        raise InputError(f"MSCHEME_CAP_TUPLES={text!r} is not an integer") from None


def _field(args) -> Field:
    return Field(args.ell, args.dim, args.cap)


def _fraction(text: str, flag: str) -> Fraction:
    """Fraction from a flag's text; InputError names the flag."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"{flag} {text!r} is not a fraction") from None


def _parse_codes(text: str):
    """Point codes from a comma- or space-separated list; InputError names a
    token that is not an integer or lies outside int64."""
    codes = []
    for token in text.replace(",", " ").split():
        try:
            codes.append(int(token))
        except ValueError:
            raise InputError(f"point code {token!r} is not an integer") from None
        if not -2 ** 63 <= codes[-1] < 2 ** 63:
            raise InputError(f"point code {token} outside int64")
    return codes


def _load_scheme(args) -> Scheme:
    """Scheme from --in (JSON file) or --group/--seed-set/--m, then --fix."""
    if args.infile:
        with open(args.infile) as fh:
            sch = Scheme.from_json(fh.read(), args.cap)
    elif not (args.group and args.seed_set and args.m is not None):
        raise InputError("need either --in FILE or --group/--seed-set/--m")
    else:
        group = MatrixGroup.from_spec(_field(args), args.group)
        sch = build_orbit_scheme(group, _parse_codes(args.seed_set), args.m)
    if args.fix:
        sch = sch.fiber(tuple(_parse_codes(args.fix)))
    return sch


def _add_scheme_source(p):
    p.add_argument("--in", dest="infile", help="scheme JSON file")
    p.add_argument("--ell", type=int, default=2)
    p.add_argument("--dim", type=int, default=3)
    p.add_argument("--group", help='group spec JSON, e.g. {"kind":"gl"}')
    p.add_argument("--seed-set", help="seed point codes, comma separated")
    p.add_argument("--m", type=int)
    p.add_argument("--fix", help="fibre prefix point codes")
    # accepted and ignored: orbit levels are always built on demand
    p.add_argument("--lazy", action="store_true", help=argparse.SUPPRESS)


def _add_common(p):
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    p.add_argument("--cap", type=int, help="tuple-space cap (beats $MSCHEME_CAP_TUPLES)")


def _export(sch: Scheme, path) -> None:
    """Write the scheme JSON to path, if given; a failed export (say, past
    the tuple cap) leaves no file."""
    if path:
        text = sch.to_json()
        with open(path, "w") as fh:
            fh.write(text)


def cmd_gen_orbit(args) -> int:
    sch = _load_scheme(args)
    _export(sch, args.out)
    _emit(args, {
        "command": "gen-orbit",
        "carrier": len(sch.s_codes),
        "m": sch.m,
        "level_blocks": [sch.level(k).num_blocks
                         for k in range(1, min(sch.m, 3) + 1)],
        "out": args.out,
    })
    return 0


def cmd_validate(args) -> int:
    sch = _load_scheme(args)
    rep = sch.validate()
    _emit(args, {
        "command": "validate",
        "ok": rep.ok,
        "checked_maps": rep.checked_maps,
        "partial": False,  # a cap that would stop the sweep raises instead
        "violations": [v.describe() for v in rep.violations],
    })
    return 0 if rep.ok else EXIT_LEMMA


def cmd_antisym(args) -> int:
    sch = _load_scheme(args)
    res = antisym.strong_antisym_check(sch, args.budget)
    obj = {
        "command": "antisym",
        "status": res.status,
        "maps_explored": res.maps_explored,
        "budget": res.budget,
    }
    if res.witness is not None:
        obj["witness"] = json.loads(res.witness.to_json())
        obj["word_length"] = len(res.witness.word)
        obj["replay_ok"] = antisym.replay_witness(sch, res.witness)
    _emit(args, obj)
    return 0


def cmd_fiber(args) -> int:
    sch = _load_scheme(args)
    _export(sch, args.out)
    _emit(args, {
        "command": "fiber",
        "prefix": list(sch.prefix),
        "m": sch.m,
        "level1_blocks": sch.level(1).num_blocks,
        "out": args.out,
    })
    return 0


def cmd_depth(args) -> int:
    sch = _load_scheme(args)
    sch.level(1).check_block_ids((args.block,))  # before the antisymmetry check
    res = antisym.strong_antisym_check(sch, args.budget)
    if res.status != "antisymmetric":
        raise InputError(f"depth measure needs an antisymmetric scheme "
                         f"(verdict: {res.status})")
    try:
        trace = antisym.depth_measure(sch, args.block)
        completed = True
    except DepthExhausted as exc:
        trace = exc.trace
        completed = False
        if trace is None:
            raise
    _emit(args, {
        "command": "depth",
        "block": args.block,
        "start_size": trace.start_size,
        "fixings": [{"x": s.x, "sizes": list(s.block_sizes)} for s in trace.steps],
        "count": trace.count,
        "completed": completed,
    })
    return 0


def cmd_addcomb(args) -> int:
    f = _field(args)
    a = PointSet.from_codes(f, _parse_codes(args.set))
    h, bound, cov_ok = check_covering(a)
    fr_k, fr_ok = check_freiman_ruzsa(a)
    pk, pl_ok = check_plunnecke(a, a, 2)
    obj = {
        "command": "addcomb",
        "size": len(a),
        "energy": additive_energy(a),
        "is_coset": is_coset(a),
        "covering_number": h,
        "covering_bound": bound,
        "covering_ok": cov_ok,
        "freiman_ruzsa_K": str(fr_k),
        "freiman_ruzsa_ok": fr_ok,
        "plunnecke_K": str(pk),
        "plunnecke_ok": pl_ok,
    }
    if len(a) <= 64:
        obj["energy_oracle"] = additive_energy_oracle(a)
        obj["energy_match"] = obj["energy_oracle"] == obj["energy"]
    _emit(args, obj)
    if obj.get("energy_match") is False or not (obj["covering_ok"]
                                               and obj["freiman_ruzsa_ok"]
                                               and obj["plunnecke_ok"]):
        return EXIT_LEMMA
    return 0


def cmd_fourier(args) -> int:
    f = _field(args)
    codes = _parse_codes(args.set)
    ctx = FourierContext.for_generators(f, codes)
    coeffs = ctx.all_coeffs(codes)
    pl, pr, perr = ctx.parseval_check(codes, coeffs)
    ierr = ctx.inversion_check(codes, coeffs)
    heavy = ctx.heavy_characters(coeffs, float(_fraction(args.eps_prime, "--eps-prime")))
    obj = {
        "command": "fourier",
        "group_order": ctx.order,
        "parseval_error": f"{perr:.3e}",
        "inversion_error": f"{ierr:.3e}",
        "heavy": [{"dual": list(d), "abs": f"{abs(c):.12f}"} for d, c in heavy],
    }
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(ctx.coeffs_csv(coeffs))
        obj["out"] = args.out
    _emit(args, obj)
    return 0 if max(perr, ierr) <= 1e-9 else EXIT_LEMMA


def cmd_decompose(args) -> int:
    sch = _load_scheme(args)
    res = refine.decompose(sch, args.block, args.k,
                           _fraction(args.eps_prime, "--eps-prime"))
    _emit(args, {"command": "decompose", **res.to_obj()})
    return 0


def cmd_shrink(args) -> int:
    sch = _load_scheme(args)
    K = _fraction(args.K, "--K")
    if args.search:
        out = refine.partial_sumset_search(sch, args.block, K)
    else:
        out = refine.shrink_weak(sch, args.block,
                                 refine.BlockRef(args.k, args.a_block), K)
    _emit(args, {"command": "shrink", **out.to_obj()})
    return 0


def _gen_orbit_args(p):
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--group", required=True)
    p.add_argument("--seed-set", required=True)
    p.add_argument("--m", type=int, required=True)
    # accepted and ignored, as in _add_scheme_source
    p.add_argument("--lazy", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--out", help="write the scheme JSON here")
    _add_common(p)
    p.set_defaults(func=cmd_gen_orbit, infile=None, fix=None)  # for _load_scheme


def _validate_args(p):
    _add_scheme_source(p)
    _add_common(p)
    p.set_defaults(func=cmd_validate)


def _antisym_args(p):
    _add_scheme_source(p)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET_SATURATION,
                   help="most forward generators to check; more is inconclusive")
    _add_common(p)
    p.set_defaults(func=cmd_antisym)


def _fiber_args(p):
    _add_scheme_source(p)
    p.add_argument("--out", help="write the fibre scheme JSON here")
    _add_common(p)
    p.set_defaults(func=cmd_fiber)


def _depth_args(p):
    _add_scheme_source(p)
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET_SATURATION,
                   help="most forward generators to check; more is inconclusive")
    _add_common(p)
    p.set_defaults(func=cmd_depth)


def _addcomb_args(p):
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--set", required=True, help="point codes")
    _add_common(p)
    p.set_defaults(func=cmd_addcomb)


def _fourier_args(p):
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--set", required=True)
    p.add_argument("--eps-prime", default="1/8")
    p.add_argument("--out", help="write the coefficient CSV here")
    _add_common(p)
    p.set_defaults(func=cmd_fourier)


def _decompose_args(p):
    _add_scheme_source(p)
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--k", type=int, default=4, help="nominal family arity")
    p.add_argument("--eps-prime", default="1/8")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)


def _shrink_args(p):
    _add_scheme_source(p)
    p.add_argument("--block", type=int, default=0)
    p.add_argument("--K", default="4")
    p.add_argument("--k", type=int, default=1, help="arity of the A block")
    p.add_argument("--a-block", type=int, default=0)
    p.add_argument("--search", action="store_true",
                   help="run the full three-case loop instead of one shrink")
    _add_common(p)
    p.set_defaults(func=cmd_shrink)


# subcommand -> (its help line, the function adding its arguments), in the
# order `mscheme --help` lists them
COMMANDS = {
    "gen-orbit": ("build an orbit scheme and export it", _gen_orbit_args),
    "validate": ("exhaustive axiom sweep", _validate_args),
    "antisym": ("strong-antisymmetry check by Schreier loops", _antisym_args),
    "fiber": ("restrict to a fibre prefix", _fiber_args),
    "depth": ("iterated halving depth measure", _depth_args),
    "addcomb": ("additive-combinatorics report on a set", _addcomb_args),
    "fourier": ("character table / heavy characters", _fourier_args),
    "decompose": ("sunflower decomposition of a block", _decompose_args),
    "shrink": ("fibre shrinking of a block", _shrink_args),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The `mscheme` parser; given a subcommand's name, the parser holding
    that subcommand alone, which parses its command lines as the full one
    does (`_parse` leaves every other command line to the full parser)."""
    ap = argparse.ArgumentParser(
        prog="mscheme",
        description="linear m-scheme toolkit: generation, validation, "
                    "antisymmetry, fibres, additive combinatorics, Fourier "
                    "decomposition and refinement drivers",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (help_line, add_args) in COMMANDS.items():
        if command in (None, name):
            add_args(sub.add_parser(name, help=help_line))
    return ap


@lru_cache(maxsize=None)
def _shared_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser `main` reuses for a subcommand (None: the full parser):
    parsing keeps no state in it (no append actions, no mutable defaults),
    so one build serves every call."""
    return build_parser(command)


def _parse(argv) -> argparse.Namespace:
    """argv parsed as the full parser parses it.  A command line naming a
    subcommand first is parsed by that subcommand's parser alone, which
    prints the same help and errors; only an argument it does not
    recognize, which argparse reports with the full parser's usage, is
    parsed again by the full parser.  So is any other command line: help,
    no command or an unknown one."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        args, extra = _shared_parser(argv[0]).parse_known_args(argv)
        if not extra:
            return args
    return _shared_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        args.cap = _tuple_cap(args)
        return args.func(args)
    except (InputError, PreconditionUnmet, DepthExhausted) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (LemmaViolation, AssertionError) as exc:
        print(f"lemma violation: {exc}", file=sys.stderr)
        return EXIT_LEMMA
    except MSchemeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
