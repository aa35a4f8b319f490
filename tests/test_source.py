"""Source checks: every name a module of `mschemes`, `scripts/` or `tests/`
imports is used in that module; every function, class and method that
`mschemes` defines is named somewhere in the source, script, benchmark or
test trees; and no call to `np.unique` in `mschemes` is a plain one (without
a `return_*` keyword), which imports `numpy.ma` on its first call, 10–14 ms."""
import ast
import pathlib

import mschemes

PACKAGE = pathlib.Path(mschemes.__file__).parent
ROOT = PACKAGE.parent.parent
TREES = [PACKAGE, ROOT / "scripts", ROOT / "perfbench", ROOT / "tests"]


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
    modules = [path for tree in (PACKAGE, ROOT / "scripts", ROOT / "tests")
               for path in sorted(tree.glob("*.py"))]
    assert len({path.parent for path in modules}) == 3
    unused = {str(path.relative_to(ROOT)): found for path in modules
              if (found := _unused_imports(ast.parse(path.read_text())))}
    assert not unused


def _definitions(tree: ast.Module) -> list:
    """(line, name) of each function, class and method a module defines,
    at any depth; dunder methods are called by the language, not by name."""
    return [(node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def _named(tree: ast.Module) -> set:
    """Every name an expression reads, bare (`f`) or as an attribute (`x.f`)."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_scan_finds_an_unnamed_definition():
    tree = ast.parse("class A:\n    def used(self): pass\n    def __len__(self): pass\n"
                     "def dead(): pass\ndef f(): A().used()\nf()\n")
    named = _named(tree)
    assert [d for d in _definitions(tree) if d[1] not in named] == [(4, "dead")]


def test_every_definition_is_named():
    named = set()
    for tree in TREES:
        paths = sorted(tree.glob("*.py"))
        assert paths, tree
        for path in paths:
            named |= _named(ast.parse(path.read_text()))
    unnamed = {path.name: found for path in sorted(PACKAGE.glob("*.py"))
               if (found := [d for d in _definitions(ast.parse(path.read_text()))
                             if d[1] not in named])}
    assert not unnamed


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
