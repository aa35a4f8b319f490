"""Every name a module of `mschemes` imports is used in that module."""
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
