"""Every function, method, class, class field and setting of the package is used by the program.

A definition counts as used when its name appears outside its own body in
``src/pebtree`` or in the benchmark's ``perfbench/*.py``: as a name, an
attribute, an imported name or an identifier string (names wrapped or
looked up by attribute).  An annotated class field counts as used when the
program reads it as an attribute or names it in an identifier string;
setting it, by constructor keyword or assignment, is not a use.  A
parameter with a default counts as used when some call in the program
passes it, by position, by keyword or through a ``*`` or ``**`` splat.
Tests do not count, and neither does the package's ``__init__.py``: a
re-export or an ``__all__`` entry is not a use.  So API that only tests
read, and settings that only tests set, fail here until they are deleted
or listed below with their reason.
"""

import ast
from collections import Counter
from math import inf
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pebtree"

# kept on purpose although only tests call it
ALLOWED = {
    # the anchors, which the tests of the paper's worked example and of sequence-value assignment read
    "SequenceValueMap.anchors",
    # the layout's statement of a policy-embedded key, against which the tests check key_for's one-pass keys;
    # the engine scans each key prefix from the indexed keys themselves
    "KeyLayout.peb_key_q",
    "LeafEntry.key",  # the tests read a record's key; perfbench's index check reads its uid and motion fields
    # settings that tests change to size their trees, timings and sweeps
    "MovingObjectIndex.__init__.buffer_pages",  # a few buffer pages make misses in small trees
    "MovingObjectIndex.__init__.page_size",  # page sizes that give a few hundred entries a deep tree or one leaf
    "measure_preprocessing.repetitions",  # c10 takes the best of five runs per size, the fast tests one
    "validate_cost.fit_ns",  # the cost-model test fits and sweeps at desk scale
    "validate_cost.thetas",
    "validate_cost.n_ps",
    "main.argv",  # the CLI tests pass the arguments; the console script reads sys.argv
    # the program runs the default partitions, grid and quantum; tests shrink them to size small cases
    "TimePartitionConfig.delta_t_mu",
    "TimePartitionConfig.n",
    "GridConfig.levels",
    "KeyLayout.frac_bits",  # whole-number sequence values of the worked examples take 0 fractional bits
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


def parameters(tree):
    """``(qualified name, callee, position, name)`` of every parameter with a default.

    A function is called by its name, a class by the class name with the
    parameters of its ``__init__``, or the fields of a dataclass or named
    tuple that its constructor takes.  The position counts the arguments a
    call passes, so a method's ``self`` or ``cls`` is not counted; a
    keyword-only parameter has none.
    """
    bound = {  # methods whose first parameter takes the instance or the class
        id(stmt)
        for _, node in definitions(tree)
        if isinstance(node, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.FunctionDef) and not decorated(stmt, "staticmethod")
    }
    for qualname, node in definitions(tree):
        if isinstance(node, ast.ClassDef):
            if decorated(node, "dataclass") or any(getattr(base, "id", "") == "NamedTuple" for base in node.bases):
                init = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign) and not outside_init(stmt)]
                for i, stmt in enumerate(init):
                    if stmt.value is not None:
                        yield f"{qualname}.{stmt.target.id}", node.name, i, stmt.target.id
            continue
        if node.name.startswith("__") and node.name != "__init__":
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        skip = id(node) in bound
        callee = qualname.split(".")[-2] if node.name == "__init__" else node.name
        for i in range(len(positional) - len(args.defaults), len(positional)):
            yield f"{qualname}.{positional[i].arg}", callee, i - skip, positional[i].arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{qualname}.{arg.arg}", callee, None, arg.arg


def decorated(node, name):
    return any(getattr(getattr(d, "func", d), "id", "") == name for d in node.decorator_list)


def outside_init(stmt):
    """A class-body annotation that is no constructor parameter: ``field(init=False)``."""
    value = stmt.value
    return isinstance(value, ast.Call) and any(
        kw.arg == "init" and isinstance(kw.value, ast.Constant) and kw.value.value is False for kw in value.keywords
    )


def calls_in(tree, cls=None):
    """``(callee, positions passed, keywords passed)`` of every call; ``cls(...)`` calls the enclosing class.

    A ``*`` splat passes every position from its own on, and a ``**`` splat
    passes every keyword (``None`` among the keywords).
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.ClassDef):
            yield from calls_in(node, node.name)
            continue
        if isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if callee == "cls":
                callee = cls
            splat = any(isinstance(arg, ast.Starred) for arg in node.args)
            yield callee, inf if splat else len(node.args), {kw.arg for kw in node.keywords}
        yield from calls_in(node, cls)


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


def test_every_setting_is_set_by_the_program():
    trees = program_trees()
    passed = {}
    for tree in trees.values():
        for callee, positions, keywords in calls_in(tree):
            most, names = passed.get(callee, (0, set()))
            passed[callee] = (max(most, positions), names | keywords)
    unset = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for qualname, callee, position, name in parameters(tree):
            most, names = passed.get(callee, (0, set()))
            owner = qualname.rpartition(".")[0]  # a function kept only for tests has no program caller
            if not (position is not None and position < most or name in names or None in names):
                if qualname not in ALLOWED and owner not in ALLOWED:
                    unset.append(f"{path.name}: {qualname}")
    assert not unset, f"settings no program call passes: {unset}"


def test_the_allowlist_names_existing_definitions():
    defined = set()
    for path in PACKAGE.glob("*.py"):
        tree = ast.parse(path.read_text())
        defined.update(qualname for qualname, _ in definitions(tree))
        defined.update(qualname for qualname, _ in fields(tree))
        defined.update(qualname for qualname, *_ in parameters(tree))
    assert ALLOWED <= defined
