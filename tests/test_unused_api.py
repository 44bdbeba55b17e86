"""Every function, method, class and class field of the package is used by the program.

A definition counts as used when its name appears outside its own body in
``src/pebtree`` or in the benchmark's ``perfbench/*.py``: as a name, an
attribute, an imported name or an identifier string (names wrapped or
looked up by attribute).  An annotated class field counts as used when the
program reads it as an attribute or names it in an identifier string;
setting it, by constructor keyword or assignment, is not a use.  Tests do
not count, and neither does the package's ``__init__.py``: a re-export or
an ``__all__`` entry is not a use.  So API that only tests read fails here
until it is deleted or listed below with its reason.
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
    # the parameters behind the sequence values, which the tests of the paper's worked example and of
    # sequence-value assignment read
    "SequenceValueMap.sv0",
    "SequenceValueMap.delta",
    "SequenceValueMap.anchors",
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


def fields(tree):
    """``(qualified name, field name)`` of every annotated field in a class body."""
    for qualname, node in definitions(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield f"{qualname}.{stmt.target.id}", stmt.target.id


def reads_in(tree):
    """Each name the tree reads as an attribute or names in an identifier string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            yield node.value


def program_trees():
    package = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")
    program = package + sorted((ROOT / "perfbench").glob("*.py"))
    return {path: ast.parse(path.read_text(), str(path)) for path in program}


def test_every_definition_is_named_outside_its_own_body():
    trees = program_trees()
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


def test_every_class_field_is_read_by_the_program():
    trees = program_trees()
    read = {name for tree in trees.values() for name in reads_in(tree)}
    unread = [
        f"{path.name}: {qualname}"
        for path, tree in trees.items()
        if path.parent == PACKAGE
        for qualname, name in fields(tree)
        if name not in read and qualname not in ALLOWED
    ]
    assert not unread, f"class fields the program never reads: {unread}"


def test_the_allowlist_names_existing_definitions():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined.update(qualname for qualname, _ in definitions(tree))
        defined.update(qualname for qualname, _ in fields(tree))
    assert ALLOWED <= defined
