"""Each script under `scripts/` runs to completion in a child process.

The child imports the same `mschemes` package as the tests: its `src`
directory goes first on PYTHONPATH, as in criterion-14.
"""
import os
import subprocess
import sys

import pytest

import mschemes

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPTS = sorted(name for name in os.listdir(os.path.join(ROOT, "scripts"))
                 if name.endswith(".py"))


def test_scripts_are_found():
    assert SCRIPTS, "no scripts/*.py found"


@pytest.mark.parametrize("name", SCRIPTS)
def test_script_runs(name, tmp_path):
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(mschemes.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src_dir, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", name)],
                          capture_output=True, cwd=tmp_path, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout.strip(), f"{name} wrote nothing to stdout"
