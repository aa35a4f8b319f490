"""Source checks: every name a module of `mschemes`, `scripts/` or `tests/`
imports is used in that module; every function, class and method that
`mschemes` defines is reached from the package's module-level code, the
scripts or the benchmark, except those of a fixed list that only the tests
reach; and no call to `np.unique` in `mschemes` is a plain one (without a
`return_*` keyword), which imports `numpy.ma` on its first call, 10–14 ms."""
import ast
import pathlib

import mschemes

PACKAGE = pathlib.Path(mschemes.__file__).parent
ROOT = PACKAGE.parent.parent
TREES = [PACKAGE, ROOT / "scripts", ROOT / "perfbench", ROOT / "tests"]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
# module.name of the package definitions that only the tests reach: oracles,
# lemma statements and closure operations no command, script or workload runs
TEST_ONLY = {
    "addcomb.diff_histogram",
    "antisym.DepthBoundsReport", "antisym.depth_bounds_check", "antisym.halving_step",
    "antisym.from_obj",
    "constructible.intersect_with_carrier", "constructible._restrict_entries",
    "constructible._boolean", "constructible.boolean_intersect",
    "constructible.boolean_difference",
    "constructible._sum_decomposition", "constructible._extension_points",
    "constructible.extend_subspace",
    "fourier.elements",
    "gf_linalg.projection", "gf_linalg.swap_map", "gf_linalg.nullspace_basis_mod",
    "group_orbits.semilinear_group",
    "instances.signed_perm_scheme",
    "refine.scheme_power", "refine.lift_block", "refine.two_case_check",
    "refine.KeySearchResult", "refine.key_lemma_search",
    "scheme_core.tuple_index", "scheme_core.refines", "scheme_core.built_fiber",
    "scheme_core.complement_blockset", "scheme_core.quantifier_project",
    "scheme_core.image_blockset", "scheme_core.preimage_blockset",
    "scheme_core.linear_relation_profile",
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


def test_every_definition_is_named():
    # a test counts as no caller: a definition that only the tests reach
    # must be listed in TEST_ONLY, and every listed one must be reached
    # from them
    roots = {"program": set(), "tests": set()}
    for tree in TREES[1:]:
        paths = sorted(tree.glob("*.py"))
        assert paths, tree
        for path in paths:
            roots["tests" if tree.name == "tests" else "program"] |= _named(
                ast.parse(path.read_text()))
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    test_only = {f"{module}.{name}" for module, _, name in _unreached(modules, roots["program"])}
    assert test_only == TEST_ONLY
    assert not _unreached(modules, roots["program"] | roots["tests"])


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
