"""Command-line surface: exit codes, reports, and file outputs."""
import functools
import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import mschemes
from mschemes.cli import main

GL = '{"kind":"gl"}'


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_orbit_and_validate_roundtrip(tmp_path, capsys):
    scheme_file = tmp_path / "scheme.json"
    code, out, _ = run(capsys, [
        "gen-orbit", "--ell", "2", "--dim", "3", "--group", GL,
        "--seed-set", "1", "--m", "2", "--out", str(scheme_file)])
    assert code == 0
    obj = json.loads(out)
    assert obj["carrier"] == 7 and obj["m"] == 2
    code, out, _ = run(capsys, ["validate", "--in", str(scheme_file)])
    assert code == 0 and json.loads(out)["ok"]


def test_gen_orbit_lazy_flag_is_ignored(tmp_path, capsys):
    argv = ["gen-orbit", "--ell", "2", "--dim", "3", "--group", GL,
            "--seed-set", "1", "--m", "2"]
    files = []
    for extra in ([], ["--lazy"]):
        files.append(tmp_path / f"scheme{len(files)}.json")
        assert run(capsys, [*argv, *extra, "--out", str(files[-1])])[0] == 0
    assert files[0].read_bytes() == files[1].read_bytes()


# the README's examples: levels are built on demand, so S^8 (2,562,890,625
# tuples) is never listed, with or without the ignored --lazy
README_DEEP = [
    ["decompose", "--ell", "2", "--dim", "4", "--group", GL, "--seed-set", "1",
     "--m", "8", "--k", "2", "--eps-prime", "1/4"],
    ["shrink", "--ell", "2", "--dim", "4", "--group", GL, "--seed-set", "1",
     "--m", "7", "--K", "2", "--search"],
]


@pytest.mark.parametrize("argv", README_DEEP, ids=["decompose", "shrink"])
def test_readme_deep_examples_run_with_or_without_lazy(capsys, argv):
    plain = run(capsys, argv)
    assert plain[0] == 0 and plain[2] == ""
    assert run(capsys, [*argv, "--lazy"]) == plain


@pytest.mark.parametrize("argv", [
    ["gen-orbit", "--ell", "2", "--dim", "5", "--group", '{"kind":"trivial"}',
     "--seed-set", "1", "--m", "5"],
    ["fiber", "--ell", "2", "--dim", "5", "--group", '{"kind":"trivial"}',
     "--seed-set", "1", "--m", "6", "--fix", "1"],
], ids=["gen-orbit", "fiber"])
def test_failed_export_writes_no_file(tmp_path, capsys, argv):
    # the dense block_of export at arity 5 has 2^25 entries, over the 2^24 cap
    out = tmp_path / "f.json"
    code, stdout, err = run(capsys, [*argv, "--out", str(out)])
    assert (code, stdout) == (3, "") and "dense block_of export" in err
    assert not out.exists()


def test_bad_input_exit_codes(capsys):
    # non-prime ell
    code, _, err = run(capsys, [
        "addcomb", "--ell", "4", "--dim", "2", "--set", "1,2"])
    assert code == 2
    # missing scheme source
    code, _, err = run(capsys, ["validate"])
    assert code == 2 and "input error" in err
    # a depth below 1 is named as such, not as a missing flag
    code, _, err = run(capsys, [
        "gen-orbit", "--ell", "2", "--dim", "3", "--group", GL, "--seed-set", "1", "--m", "0"])
    assert code == 2 and "depth m must be >= 1" in err


def test_cap_exit_code(capsys):
    code, _, err = run(capsys, [
        "validate", "--ell", "2", "--dim", "3", "--group", GL,
        "--seed-set", "1", "--m", "3", "--cap", "100"])
    assert code == 3 and "cap exceeded" in err


def test_cap_flag_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("MSCHEME_CAP_TUPLES", "100000")
    code, _, err = run(capsys, [
        "validate", "--ell", "2", "--dim", "3", "--group", GL,
        "--seed-set", "1", "--m", "3", "--cap", "100"])
    assert code == 3 and "cap exceeded" in err
    # the environment's value is back once the command returns
    assert os.environ["MSCHEME_CAP_TUPLES"] == "100000"


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_is_input_error(capsys, monkeypatch, cap):
    monkeypatch.delenv("MSCHEME_CAP_TUPLES", raising=False)
    code, _, err = run(capsys, [
        "validate", "--ell", "2", "--dim", "2", "--group", GL,
        "--seed-set", "1", "--m", "2", "--cap", cap])
    assert code == 2 and "input error" in err and "--cap" in err
    assert "MSCHEME_CAP_TUPLES" not in os.environ


@pytest.mark.parametrize("value,code", [("100", 3), ("0", 2), ("-5", 2), ("abc", 2)])
def test_cap_environment_is_read_by_the_cli(capsys, monkeypatch, value, code):
    # GL on F_2^3 at m = 3: S^3 has 343 tuples
    monkeypatch.setenv("MSCHEME_CAP_TUPLES", value)
    got, out, err = run(capsys, [
        "validate", "--ell", "2", "--dim", "3", "--group", GL,
        "--seed-set", "1", "--m", "3"])
    assert got == code and out == ""
    if code == 2:
        assert "input error" in err and "MSCHEME_CAP_TUPLES" in err


SCHEME_FLAGS = ["--ell", "2", "--dim", "3", "--group", GL, "--seed-set", "1", "--m", "3"]


@pytest.mark.parametrize("command,key,value", [("validate", "checked_maps", 26),
                                               ("fiber", "m", 2)])
def test_fix_applies_to_a_scheme_file(tmp_path, capsys, command, key, value):
    # the m = 2 fibre of the m = 3 scheme, whichever way the scheme came in
    scheme_file = tmp_path / "scheme.json"
    assert run(capsys, ["gen-orbit", *SCHEME_FLAGS, "--out", str(scheme_file)])[0] == 0
    from_file = run(capsys, [command, "--in", str(scheme_file), "--fix", "1"])
    from_flags = run(capsys, [command, *SCHEME_FLAGS, "--fix", "1"])
    assert from_file == from_flags and from_file[0] == 0
    assert json.loads(from_file[1])[key] == value


@pytest.mark.parametrize("command", ["validate", "antisym", "depth", "decompose",
                                     "shrink", "addcomb"])
def test_out_is_refused_where_nothing_is_written(tmp_path, capsys, command):
    src = ["--ell", "2", "--dim", "3", "--set", "1,2,3"] if command == "addcomb" else SCHEME_FLAGS
    out = tmp_path / "f.json"
    with pytest.raises(SystemExit) as exc:
        main([command, *src, "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()
    assert "unrecognized arguments: --out" in capsys.readouterr().err


def test_map_table_cap_exit_code(tmp_path, capsys):
    # GL(2,2) at m=3: S^3 has 27 tuples, the arity-3 map table 216 codes
    scheme_file = tmp_path / "scheme.json"
    code, _, _ = run(capsys, [
        "gen-orbit", "--ell", "2", "--dim", "2", "--group", GL,
        "--seed-set", "1", "--m", "3", "--out", str(scheme_file)])
    assert code == 0
    code, _, err = run(capsys, ["validate", "--in", str(scheme_file), "--cap", "100"])
    assert code == 3 and "map table S^3" in err


def test_seed_outside_field_exit_code(capsys):
    code, _, err = run(capsys, [
        "gen-orbit", "--ell", "3", "--dim", "2", "--group", GL,
        "--seed-set", "9", "--m", "2"])
    assert code == 2 and "outside" in err


def test_antisym_witness_report(capsys):
    code, out, _ = run(capsys, [
        "antisym", "--ell", "2", "--dim", "3", "--group",
        '{"kind":"singer"}', "--seed-set", "1", "--m", "3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "witness"
    assert obj["replay_ok"] and obj["word_length"] >= 1


def test_depth_rejects_witness_scheme(capsys):
    code, _, err = run(capsys, [
        "depth", "--ell", "2", "--dim", "3", "--group", GL,
        "--seed-set", "1", "--m", "2"])
    assert code == 2 and "antisymmetric" in err


def test_fiber_command(capsys):
    code, out, _ = run(capsys, [
        "fiber", "--ell", "2", "--dim", "3", "--group", GL,
        "--seed-set", "1", "--m", "3", "--fix", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["prefix"] == [1] and obj["m"] == 2


def test_addcomb_report(capsys):
    code, out, _ = run(capsys, [
        "addcomb", "--ell", "2", "--dim", "3", "--set", "1,2,3"])
    assert code == 0
    obj = json.loads(out)
    assert obj["energy"] == obj["energy_oracle"] and obj["energy_match"]
    assert obj["covering_ok"] and obj["freiman_ruzsa_ok"] and obj["plunnecke_ok"]


# one shrink_weak, one bsg_extract, one addcomb past the oracle's 64 points,
# then every subcommand on a scheme file and the point-set commands, in one
# fresh interpreter; it prints whether numpy.ma is loaded after each step
NO_MASKED_ARRAYS = """
import contextlib, io, sys
from fractions import Fraction
from mschemes import cli, refine
from mschemes.instances import find_shrink_instances, gl_orbit_scheme
(_, sch), = find_shrink_instances(4, 1)
refine.shrink_weak(sch, 0, refine.BlockRef(1, 0), 4)
refine.bsg_extract(gl_orbit_scheme(7, 2, 4), 0, Fraction(1, 3))
print("library", "numpy.ma" in sys.modules)
GL = '{"kind":"gl"}'
path = sys.argv[1]
for argv in [
    ["addcomb", "--ell", "3", "--dim", "4", "--set", ",".join(map(str, range(1, 66)))],
    ["gen-orbit", "--ell", "2", "--dim", "3", "--group", GL, "--seed-set", "1",
     "--m", "2", "--out", path],
    ["validate", "--in", path],
    ["antisym", "--in", path],
    ["fiber", "--in", path, "--fix", "1"],
    ["addcomb", "--ell", "2", "--dim", "3", "--set", "1,2,3"],
    ["fourier", "--ell", "2", "--dim", "2", "--set", "1,2,3", "--eps-prime", "1/8"],
    ["decompose", "--ell", "2", "--dim", "4", "--group", GL, "--seed-set", "1",
     "--m", "8", "--k", "2", "--eps-prime", "1/4"],
    ["shrink", "--ell", "2", "--dim", "4", "--group", GL, "--seed-set", "1",
     "--m", "7", "--K", "2", "--search"],
]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    print(argv[0], "numpy.ma" in sys.modules)
"""


def test_library_never_imports_numpy_ma(tmp_path):
    # a plain np.unique imports numpy.ma (about 13 ms) on its first call, and
    # so can np.intersect1d, np.setdiff1d and np.union1d, which the source
    # scan does not see
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(mschemes.__file__)))
    env = dict(os.environ, PYTHONPATH=src_dir)
    proc = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS,
                           str(tmp_path / "scheme.json")],
                          capture_output=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout.decode().splitlines() == [
        f"{step} False" for step in ["library", "addcomb", "gen-orbit", "validate", "antisym",
                                     "fiber", "addcomb", "fourier", "decompose", "shrink"]]


def test_addcomb_energy_oracle_gate_at_64_points(capsys):
    # F_3^4 (81 points): the quadruple oracle runs up to |A| = 64, not beyond
    argv = ["addcomb", "--ell", "3", "--dim", "4", "--set"]
    start = time.perf_counter()
    code, out, _ = run(capsys, argv + [",".join(map(str, range(1, 65)))])
    elapsed = time.perf_counter() - start
    obj = json.loads(out)
    assert code == 0 and obj["size"] == 64
    assert obj["energy_oracle"] == obj["energy"] and obj["energy_match"] is True
    assert elapsed < 1.0, f"64-point addcomb took {elapsed:.2f} s"
    code, out, _ = run(capsys, argv + [",".join(map(str, range(1, 66)))])
    obj = json.loads(out)
    assert code == 0 and obj["size"] == 65
    assert "energy_oracle" not in obj and "energy_match" not in obj


def test_fourier_csv_output(tmp_path, capsys):
    csv_file = tmp_path / "coeffs.csv"
    code, out, _ = run(capsys, [
        "fourier", "--ell", "2", "--dim", "2", "--set", "1,2,3",
        "--eps-prime", "1/8", "--out", str(csv_file)])
    assert code == 0
    obj = json.loads(out)
    assert float(obj["parseval_error"]) <= 1e-9
    lines = csv_file.read_text().strip().split("\n")
    assert lines[0] == "dual_vector,re,im,abs" and len(lines) == 5


# `mscheme fourier` inputs with their report and the sha256 of their CSV, as
# recorded before the coefficient vector replaced the per-dual dict: F_2^5
# (imaginary parts of about 1e-17), a rank-3 subgroup of F_3^4 (a repeated
# code) and F_7^2.  The reports keep parseval_error and inversion_error.
FOURIER_GOLDEN = [
    (["--ell", "2", "--dim", "5", "--set", "1,2,4,8,16,3,7,12,21,30,31,19",
      "--eps-prime", "1/8"],
     '{"command":"fourier","group_order":32,"heavy":['
     '{"abs":"0.125000000000","dual":[0,0,0,1,1]},{"abs":"0.125000000000","dual":[0,1,0,0,0]},'
     '{"abs":"0.125000000000","dual":[0,1,0,0,1]},{"abs":"0.125000000000","dual":[0,1,1,0,0]},'
     '{"abs":"0.125000000000","dual":[0,1,1,1,0]},{"abs":"0.187500000000","dual":[1,0,1,1,1]},'
     '{"abs":"0.187500000000","dual":[1,1,0,1,0]},{"abs":"0.187500000000","dual":[1,1,1,1,1]}],'
     '"inversion_error":"7.348e-16","out":"coeffs.csv","parseval_error":"0.000e+00"}\n',
     "8f5dc084960cd049661e5f266141f3d345b08f525b3968d328735dfa48c61182"),
    (["--ell", "3", "--dim", "4", "--set", "1,3,9,4,10,13,22,1,5", "--eps-prime", "1/16"],
     '{"command":"fourier","group_order":27,"heavy":['
     '{"abs":"0.133538936128","dual":[0,0,1]},{"abs":"0.133538936128","dual":[0,0,2]},'
     '{"abs":"0.161440701613","dual":[0,1,0]},{"abs":"0.097990789299","dual":[0,1,2]},'
     '{"abs":"0.161440701613","dual":[0,2,0]},{"abs":"0.097990789299","dual":[0,2,1]},'
     '{"abs":"0.097990789299","dual":[1,0,0]},{"abs":"0.133538936128","dual":[1,1,0]},'
     '{"abs":"0.074074074074","dual":[1,1,1]},{"abs":"0.097990789299","dual":[1,2,1]},'
     '{"abs":"0.097990789299","dual":[2,0,0]},{"abs":"0.097990789299","dual":[2,1,2]},'
     '{"abs":"0.133538936128","dual":[2,2,0]},{"abs":"0.074074074074","dual":[2,2,2]}],'
     '"inversion_error":"1.167e-15","out":"coeffs.csv","parseval_error":"1.110e-16"}\n',
     "65ddbeb3ced96cd2b4e2ec613458b7274ac12936f046054fc11a3210928c5784"),
    (["--ell", "7", "--dim", "2", "--set", "1,7,8,15,22,23,30,31,38,44,45,47,48,3,17",
      "--eps-prime", "1/16"],
     '{"command":"fourier","group_order":49,"heavy":['
     '{"abs":"0.134485290819","dual":[0,1]},{"abs":"0.103631568511","dual":[0,3]},'
     '{"abs":"0.103631568511","dual":[0,4]},{"abs":"0.134485290819","dual":[0,6]},'
     '{"abs":"0.065484122671","dual":[1,2]},{"abs":"0.100840908113","dual":[1,5]},'
     '{"abs":"0.116083711773","dual":[1,6]},{"abs":"0.081094799936","dual":[2,2]},'
     '{"abs":"0.075151755238","dual":[3,1]},{"abs":"0.075563907731","dual":[3,4]},'
     '{"abs":"0.083005990127","dual":[3,5]},{"abs":"0.083005990127","dual":[4,2]},'
     '{"abs":"0.075563907731","dual":[4,3]},{"abs":"0.075151755238","dual":[4,6]},'
     '{"abs":"0.081094799936","dual":[5,5]},{"abs":"0.116083711773","dual":[6,1]},'
     '{"abs":"0.100840908113","dual":[6,2]},{"abs":"0.065484122671","dual":[6,5]}],'
     '"inversion_error":"3.571e-16","out":"coeffs.csv","parseval_error":"1.110e-16"}\n',
     "c0d799c8cc92c33a13ff81940a07fe5a110ac7b96e15f93b284700e0a55f08f2"),
]


@pytest.mark.parametrize("argv, report, csv_sha256", FOURIER_GOLDEN)
def test_fourier_report_and_csv_bytes_are_golden(tmp_path, capsys, monkeypatch,
                                                 argv, report, csv_sha256):
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, ["fourier", *argv, "--out", "coeffs.csv"])
    assert code == 0 and out == report
    assert hashlib.sha256((tmp_path / "coeffs.csv").read_bytes()).hexdigest() == csv_sha256


def test_fourier_computes_one_coefficient_table(tmp_path, capsys, monkeypatch):
    from mschemes.fourier import FourierContext
    from mschemes.gf_linalg import Field

    codes = [1, 2, 4, 5]
    ctx = FourierContext.for_generators(Field(3, 2), codes)
    heavy = [{"dual": list(d), "abs": f"{abs(c):.12f}"}
             for d, c in ctx.heavy_characters(ctx.all_coeffs(codes), 1 / 8)]
    csv_text = ctx.coeffs_csv(ctx.all_coeffs(codes))
    calls = []
    all_coeffs = FourierContext.all_coeffs
    monkeypatch.setattr(FourierContext, "all_coeffs",
                        lambda self, subset: calls.append(1) or all_coeffs(self, subset))
    csv_file = tmp_path / "coeffs.csv"
    code, out, _ = run(capsys, [
        "fourier", "--ell", "3", "--dim", "2", "--set", "1,2,4,5",
        "--out", str(csv_file)])
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["heavy"] == heavy and csv_file.read_text() == csv_text


def test_shrink_gate_unmet_is_input_error(capsys):
    code, _, err = run(capsys, [
        "shrink", "--ell", "2", "--dim", "3", "--group", GL,
        "--seed-set", "1", "--m", "4", "--K", "4", "--k", "1"])
    assert code == 2


GL42 = ["--ell", "2", "--dim", "4", "--group", GL, "--seed-set", "1", "--m", "12"]
SHRINK_GL3 = ["shrink", "--ell", "2", "--dim", "3", "--group", GL, "--seed-set", "1",
              "--m", "4", "--K", "4", "--k", "1"]


@pytest.mark.parametrize("argv", [
    ["decompose", *GL42, "--block", "-1"],
    ["decompose", *GL42, "--block", "1"],  # level 1 is the one orbit
    ["depth", *GL42[:-2], "--m", "2", "--block", "-1"],
    [*SHRINK_GL3, "--block", "1"],
    [*SHRINK_GL3, "--a-block", "-1"],
    [*SHRINK_GL3, "--a-block", "1"],
])
def test_block_id_out_of_range_is_input_error(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "outside [0, 1) at arity 1" in err and "Traceback" not in err


BIG = "99999999999999999999999"  # beyond int64
GL3 = ["--ell", "2", "--dim", "3", "--group", GL]


@pytest.mark.parametrize("argv,token", [
    (["addcomb", "--ell", "2", "--dim", "3", "--set", "1,x"], "'x'"),
    (["fourier", "--ell", "2", "--dim", "3", "--set", "1,y"], "'y'"),
    (["decompose", "--ell", "2", "--dim", "4", "--group", GL, "--seed-set", "1,z",
      "--m", "12"], "'z'"),
    (["fourier", "--ell", "2", "--dim", "3", "--set", BIG], BIG),
    (["fiber", *GL3, "--seed-set", "1", "--m", "2", "--fix", BIG], BIG),
    (["gen-orbit", *GL3, "--seed-set", BIG, "--m", "2"], BIG),
])
def test_malformed_code_list_is_input_error(capsys, argv, token):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert f"point code {token}" in err and "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["fourier", *GL3[:4], "--set", "1,2", "--eps-prime", "abc"], "--eps-prime 'abc'"),
    (["fourier", *GL3[:4], "--set", "1,2", "--eps-prime", "1/0"], "--eps-prime '1/0'"),
    (["decompose", *GL42, "--eps-prime", "1/0"], "--eps-prime '1/0'"),
    ([*SHRINK_GL3, "--K", "x"], "--K 'x'"),
    ([*README_DEEP[1][:-2], "0", "--search"], "K>0 (K=0)"),
    ([*README_DEEP[1][:-2], "-1", "--search"], "K>0 (K=-1)"),
    (["validate", *GL3[:4], "--group", '{"kind":"gl"', "--seed-set", "1", "--m", "2"],
     "not JSON"),
    (["validate", *GL3[:4], "--group", "[1]", "--seed-set", "1", "--m", "2"],
     "not a JSON object"),
    (["validate", *GL3[:4], "--group", '{"kind":"custom"}', "--seed-set", "1", "--m", "2"],
     "lacks 'generators'"),
    (["validate", *GL3[:4], "--group", '{"kind":"custom","generators":[["a"]]}',
      "--seed-set", "1", "--m", "2"], "'generators' is not a 3-deep list of integers"),
    (["validate", *GL3[:4], "--group", '{"kind":"singer","poly":[1,0.5,0,1]}',
      "--seed-set", "1", "--m", "2"], "'poly' is not a 1-deep list of integers"),
    (["validate", *GL3[:4], "--group", '{"kind":"singer","poly":0}',
      "--seed-set", "1", "--m", "2"], "'poly' is not a 1-deep list of integers"),
    (["validate", "--in", "no-such-scheme.json"], "no-such-scheme.json"),
    (["validate", "--in", "."], "directory"),
], ids=["eps-abc", "eps-zero-den", "decompose-eps", "K-x", "search-K-zero",
        "search-K-negative", "spec-json", "spec-list",
        "spec-no-generators", "spec-str-entry", "spec-float-poly", "spec-zero-poly",
        "in-missing", "in-dir"])
def test_malformed_flag_value_is_input_error(capsys, argv, message):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert "input error" in err and message in err and "Traceback" not in err


def test_report_file_is_canonical(tmp_path, capsys):
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["addcomb", "--ell", "2", "--dim", "4", "--set", "1,2,4,8"]
    assert main(argv + ["--report", str(r1)]) == 0
    assert main(argv + ["--report", str(r2)]) == 0
    capsys.readouterr()
    assert r1.read_bytes() == r2.read_bytes()
    # canonical JSON: no spaces after separators, sorted keys
    text = r1.read_text()
    obj = json.loads(text)
    assert text == json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def test_console_script_maps_to_cli_main():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["mscheme"] == "mschemes.cli:main"
    module_name, attr = scripts["mscheme"].split(":")
    assert getattr(importlib.import_module(module_name), attr) is main


def test_parser_is_built_once_per_command_and_reused(tmp_path, capsys, monkeypatch):
    from mschemes import cli

    built = []

    def counting_build(command=None):
        built.append(command)
        return cli.build_parser(command)

    argv_a = ["addcomb", "--ell", "3", "--dim", "2", "--set", "1,2,4"]
    argv_b = ["fourier", "--ell", "2", "--dim", "3", "--set", "1,2,4",
              "--out", str(tmp_path / "c.csv")]
    bad = ["addcomb", "--ell", "three", "--dim", "2", "--set", "1"]
    unknown = argv_a + ["--bogus"]

    def fresh(argv):
        args = cli.build_parser().parse_args(argv)
        args.cap = cli._tuple_cap(args)  # as main resolves it
        assert args.func(args) == 0
        return capsys.readouterr().out

    expect = {tuple(argv): fresh(argv) for argv in (argv_a, argv_b)}
    fresh_exits = []
    for argv in (bad, unknown):
        with pytest.raises(SystemExit) as exit_info:
            cli.build_parser().parse_args(argv)
        fresh_exits.append((exit_info.value.code, capsys.readouterr().err))

    monkeypatch.setattr(cli, "_shared_parser",
                        functools.lru_cache(maxsize=None)(counting_build))
    for argv in (argv_a, argv_b, argv_a, argv_b):
        code, out, _ = run(capsys, argv)
        assert code == 0 and out == expect[tuple(argv)]
    for argv, (fresh_code, fresh_err) in zip((bad, unknown), fresh_exits):
        with pytest.raises(SystemExit) as shared_exit:
            main(argv)
        assert shared_exit.value.code == fresh_code == 2
        assert capsys.readouterr().err == fresh_err
    code, out, _ = run(capsys, argv_a)
    assert code == 0 and out == expect[tuple(argv_a)]
    # one parser per command; the full one only for the unrecognized argument
    assert built == ["addcomb", "fourier", None]


HELP_AND_ERRORS = {
    "help": ["--help"],
    "help-short": ["-h"],
    **{f"help-{name}": [name, "--help"] for name in
       ("gen-orbit", "validate", "antisym", "fiber", "depth", "addcomb",
        "fourier", "decompose", "shrink")},
    "no-command": [],
    "unknown-command": ["factor", "--ell", "2"],
    "option-before-command": ["--ell", "2", "addcomb"],
    "unrecognized-argument": ["fourier", "--ell", "2", "--dim", "3", "--set", "1",
                              "--bogus"],
    "unrecognized-positional": ["validate", "--in", "x.json", "extra"],
    "bad-int": ["addcomb", "--ell", "three", "--dim", "2", "--set", "1"],
    "missing-required": ["addcomb", "--ell", "2", "--dim", "3"],
    "missing-value": ["decompose", "--block"],
}


def _exit_of(capsys, call):
    """(exit code, stdout, stderr) of a call that argparse ends."""
    with pytest.raises(SystemExit) as exit_info:
        call()
    out = capsys.readouterr()
    return exit_info.value.code, out.out, out.err


@pytest.mark.parametrize("columns", ["80", "200"])
@pytest.mark.parametrize("case", sorted(HELP_AND_ERRORS))
def test_help_and_argparse_errors_match_the_full_parser(capsys, monkeypatch, case, columns):
    # argparse wraps its usage lines to $COLUMNS
    monkeypatch.setenv("COLUMNS", columns)
    from mschemes import cli

    argv = HELP_AND_ERRORS[case]
    want = _exit_of(capsys, lambda: cli.build_parser().parse_args(argv))
    got = _exit_of(capsys, lambda: main(argv))
    assert got == want
    code, out, err = want
    # help goes to stdout and exits 0, an error to stderr and exits 2
    assert (code, bool(out), bool(err)) == ((0, True, False) if "help" in case
                                            else (2, False, True))
    if case in ("unrecognized-argument", "unrecognized-positional"):
        # reported with the full usage, which lists every subcommand
        assert "{gen-orbit,validate," in err


@pytest.mark.parametrize("argv", [
    ["gen-orbit", "--ell", "2", "--dim", "3", "--group", GL, "--seed-set", "1",
     "--m", "3"],
    ["validate", "--in", "x.json"],
    ["antisym", "--in", "x.json", "--budget", "5"],
    ["fiber", "--in=x.json", "--fi", "1"],  # an abbreviated option
    ["depth", "--in", "x.json", "--block", "2"],
    ["addcomb", "--ell", "3", "--dim", "2", "--set", "1,2,4"],
    ["fourier", "--ell", "2", "--dim", "3", "--set", "1,2,4", "--cap", "64"],
    ["decompose", "--dim", "4", "--m", "4", "--k", "2", "--lazy"],
    ["shrink", "--in", "x.json", "--K", "3", "--search"],
], ids=lambda argv: argv[0])
def test_each_command_parses_as_the_full_parser(argv):
    from mschemes import cli

    assert vars(cli._parse(argv)) == vars(cli.build_parser().parse_args(argv))
