"""Every function, method and class of the package is named by the program.

A definition counts as used when its name appears outside its own body in
``src/pebtree`` or in the benchmark's ``perfbench/*.py``: as a name, an
attribute, an imported name or an identifier string (names wrapped or
looked up by attribute).  Tests do not count, and neither does the package's
``__init__.py``: a re-export or an ``__all__`` entry is not a use.  So API
that only tests read fails here until it is deleted or listed below with
its reason.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pebtree"

# kept on purpose although only tests call it
ALLOWED = {
    "CompatibilityIndex.from_values",  # builds the worked-example and reference compatibility fakes
    "MovingObjectIndex.load",  # the library's reader of what `pebtree build --snapshot` writes
}


def names_in(tree):
    """Each name the tree mentions, counted once per mention."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def definitions(tree, prefix=""):
    """``(qualified name, node)`` of every function, method and class, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            yield qualname, node
            yield from definitions(node, qualname + ".")
        else:
            yield from definitions(node, prefix)


def test_every_definition_is_named_outside_its_own_body():
    package = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    program = package + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in program}
    mentions = Counter(name for tree in trees.values() for name in names_in(tree))
    unused = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualname, node in definitions(tree):
            name = node.name
            if name.startswith("__") and name.endswith("__") or qualname in ALLOWED:
                continue
            if mentions[name] == Counter(names_in(node))[name]:
                unused.append(f"{path.name}: {qualname}")
    assert not unused, f"defined but never named by the program: {unused}"


def test_the_allowlist_names_existing_definitions():
    defined = {qualname for path in PACKAGE.glob("*.py") for qualname, _ in definitions(ast.parse(path.read_text()))}
    assert ALLOWED <= defined
