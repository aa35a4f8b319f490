"""Source checks: every name a module of `mschemes`, `scripts/` or `tests/`
imports is used in that module; every function, class and method that
`mschemes` defines is reached from the package's module-level code, the
scripts or the benchmark, except those of a fixed list that only the
acceptance gate reaches, each from the test of a named criterion; every
name a module's `__all__` lists is bound at its top level; and no call to
`np.unique` in `mschemes` is a plain one (without a `return_*` keyword),
which imports `numpy.ma` on its first call, 10–14 ms."""
import ast
import pathlib

import mschemes

PACKAGE = pathlib.Path(mschemes.__file__).parent
ROOT = PACKAGE.parent.parent
# the trees outside the package whose code counts as a caller
PROGRAMS = [ROOT / "scripts", ROOT / "perfbench"]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# module.name of each package definition that no command, script or
# workload runs, with the number of the criterion in tests/test_acceptance.py
# whose test reaches it
ACCEPTANCE_ONLY = {
    "antisym.DepthBoundsReport": 5,  # the report of the depth-bounds lemma
    "antisym.depth_bounds_check": 5,  # m < dim<S> and 2^m <= |B|
    "instances.signed_perm_scheme": 12,  # the hyperplane-concentrated instance
    "refine.lift_block": 10,  # fibre blocks of the power lift to the base
    "refine.scheme_power": 10,  # the power scheme itself
    "refine.two_case_check": 12,  # the dichotomy on the flat instance
}


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


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree: ast.Module) -> list:
    """(line, name) of each function, class and method a module defines,
    at any depth; dunder methods are called by the language, not by name."""
    return [(node.lineno, node.name) for node in ast.walk(tree)
            if isinstance(node, DEFINITIONS) and not _dunder(node.name)]


def _named(tree: ast.Module) -> set:
    """Every name an expression reads, bare (`f`) or as an attribute (`x.f`)."""
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _own_names(node: ast.AST) -> set:
    """The names `_named` finds in a node, outside the definitions nested in
    it; the bodies of nested dunder methods count, since the language calls
    them."""
    names, stack = set(), list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, DEFINITIONS) and not _dunder(child.name):
            continue
        if isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        stack.extend(ast.iter_child_nodes(child))
    return names


def _unreached(modules: dict, roots: set) -> list:
    """(module, line, name) of each definition of the parsed `modules` that
    no chain of names reaches from `roots` and the modules' own top-level
    code: a definition is reached when its name is, and then reaches the
    names in its body."""
    named = set(roots)
    defs = []
    for module, tree in modules.items():
        named |= _own_names(tree)
        defs += [(module, node.lineno, node.name, _own_names(node))
                 for node in ast.walk(tree)
                 if isinstance(node, DEFINITIONS) and not _dunder(node.name)]
    while more := set().union(*(names for _, _, name, names in defs if name in named)) - named:
        named |= more
    return [(module, line, name) for module, line, name, _ in defs if name not in named]


def test_scan_finds_an_unnamed_definition():
    tree = ast.parse("class A:\n    def used(self): pass\n    def __len__(self): pass\n"
                     "def dead(): pass\ndef f(): A().used()\nf()\n")
    named = _named(tree)
    assert [d for d in _definitions(tree) if d[1] not in named] == [(4, "dead")]


def test_scan_finds_a_definition_only_dead_code_names():
    tree = ast.parse("class A:\n    def __init__(self): helper()\n    def m(self): other()\n"
                     "def helper(): pass\ndef other(): pass\ndef dead(): other()\n"
                     "def live(): A()\n")
    assert sorted(_unreached({"mod": tree}, set())) == [
        ("mod", 1, "A"), ("mod", 3, "m"), ("mod", 4, "helper"), ("mod", 5, "other"),
        ("mod", 6, "dead"), ("mod", 7, "live")]
    # A reaches helper through __init__, but not its method m's callee
    assert sorted(_unreached({"mod": tree}, {"live"})) == [
        ("mod", 3, "m"), ("mod", 5, "other"), ("mod", 6, "dead")]
    assert _unreached({"mod": tree}, {"live", "m"}) == [("mod", 6, "dead")]


def _criteria(tree: ast.Module) -> dict:
    """Criterion number -> the names its `test_criterion_NN_*` function reads."""
    return {int(node.name.split("_")[2]): _named(node) for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_")}


def test_scan_reads_the_names_of_each_criterion():
    tree = ast.parse("def test_criterion_03_x(s): s.f(g)\ndef test_other(): h()\n"
                     "def test_criterion_12_y(): k()\n")
    assert _criteria(tree) == {3: {"s", "f", "g"}, 12: {"k"}}


def test_every_definition_is_named():
    # a test counts as no caller: a definition that only the tests reach
    # must be listed in ACCEPTANCE_ONLY, and the test of the criterion
    # listed for it must reach it, so no other test keeps one alive
    program = set()
    for tree in PROGRAMS:
        paths = sorted(tree.glob("*.py"))
        assert paths, tree
        for path in paths:
            program |= _named(ast.parse(path.read_text()))
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    test_only = {f"{module}.{name}" for module, _, name in _unreached(modules, program)}
    assert test_only == set(ACCEPTANCE_ONLY)
    criteria = _criteria(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    for entry, number in ACCEPTANCE_ONLY.items():
        unreached = _unreached(modules, program | criteria[number])
        assert entry not in {f"{module}.{name}" for module, _, name in unreached}, entry


def _undefined_exports(tree: ast.Module) -> list:
    """The names a module's `__all__` lists that its top level does not
    bind: `from module import *` raises on each one."""
    bound, exported = set(), []
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            bound |= names
            if "__all__" in names:
                exported = [elt.value for elt in node.value.elts]
    return [name for name in exported if name not in bound]


def test_scan_finds_an_undefined_export():
    tree = ast.parse("import os\nfrom x import y as z\nA, B = 1, 2\nC: int = 3\n"
                     "def f(): pass\nclass K: pass\n"
                     "__all__ = ['os', 'z', 'A', 'B', 'C', 'f', 'K', 'gone', 'y']\n")
    assert _undefined_exports(tree) == ["gone", "y"]


def test_every_export_is_defined():
    modules = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    undefined = {path.name: found for path in modules
                 if (found := _undefined_exports(ast.parse(path.read_text())))}
    assert not undefined


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
