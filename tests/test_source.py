"""Source checks on `mschemes`: every name a module imports is used in that
module, and no call to `np.unique` is a plain one (without a `return_*`
keyword), which imports `numpy.ma` on its first call, 10–14 ms."""
import ast
import pathlib

import mschemes

PACKAGE = pathlib.Path(mschemes.__file__).parent


def _unused_imports(tree: ast.Module) -> list:
    """(line, name) of each imported name that no expression reads;
    `from __future__` imports are directives, not names."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom x import y, z\nnp.zeros(y)\n")
    assert _unused_imports(tree) == [(1, "os"), (3, "z")]


def test_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = {path.name: found for path in modules
              if (found := _unused_imports(ast.parse(path.read_text())))}
    assert not unused


def _plain_unique_calls(tree: ast.Module) -> list:
    """Lines of the calls to `np.unique` or `numpy.unique` that pass no
    `return_*` keyword."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "unique" and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and not any((k.arg or "").startswith("return_") for k in node.keywords)]


def test_scan_finds_a_plain_unique():
    tree = ast.parse("np.unique(a)\nnp.unique(a, return_counts=True)\n"
                     "numpy.unique(a, axis=0)\nnp.unique(a, return_inverse=k)\n")
    assert _plain_unique_calls(tree) == [1, 3]


def test_no_plain_np_unique():
    modules = sorted(PACKAGE.glob("*.py"))
    plain = {path.name: found for path in modules
             if (found := _plain_unique_calls(ast.parse(path.read_text())))}
    assert not plain
