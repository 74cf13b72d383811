"""The package's own imports: all at module level, without a cycle, and
each one used.

A ``sepack`` import inside a function hides a dependency from the module
graph, and is how an import cycle gets dodged rather than removed.  Imports
of other packages may be deferred: ``_kdtree`` loads ``scipy.spatial`` on
the first tree build.  A name imported and never used is a dependency
that is not one, left behind when its use was deleted, as is a private
name that no module of the package reads.
"""

import ast
import graphlib
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sepack"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _targets(node) -> list:
    """The sepack modules an import statement loads, ``__init__`` for the package."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names if alias.name.split(".")[0] == "sepack"]
        return [name.partition(".")[2].split(".")[0] or "__init__" for name in names]
    if node.level:
        module = node.module
    elif (node.module or "").split(".")[0] == "sepack":
        module = node.module.partition(".")[2]
    else:
        return []
    if module:
        return [module.split(".")[0]]
    return [alias.name if alias.name in MODULES else "__init__" for alias in node.names]


def _imports(tree) -> list:
    """(inside a function, line, targets) of every sepack import in a module."""
    found = []

    def visit(node, nested):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)) and _targets(child):
                found.append((nested, child.lineno, _targets(child)))
            visit(child, nested or isinstance(child, FUNCTIONS))

    visit(tree, False)
    return found


IMPORTS = {name: _imports(ast.parse((PACKAGE / f"{name}.py").read_text())) for name in MODULES}


@pytest.mark.parametrize("name", MODULES)
def test_no_sepack_import_inside_a_function(name):
    deferred = [line for nested, line, _ in IMPORTS[name] if nested]
    assert deferred == [], f"{name}.py imports sepack modules inside a function at lines {deferred}"


def test_module_level_imports_form_no_cycle():
    graph = {
        name: {t for nested, _, targets in found if not nested for t in targets}
        for name, found in IMPORTS.items()
    }
    try:
        graphlib.TopologicalSorter(graph).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle {' -> '.join(exc.args[1])}")


@pytest.mark.parametrize(
    "name, apart",
    # the constructions and the verdicts meet only in packio's verify report
    [("generators", {"contact", "separability"}), ("separability", {"generators"}),
     ("contact_numbers", {"generators"})],
)
def test_constructions_and_verdicts_import_apart(name, apart):
    loaded = {t for _, _, targets in IMPORTS[name] for t in targets}
    assert not loaded & apart



# perfbench/tracer.py counts the KD-tree builds of contact through this name
UNUSED_ALLOWED = {("contact", "cKDTree")}


def _unused_imports(tree) -> list:
    """Names an import binds that no expression reads and ``__all__`` does
    not list, with the line of their import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text())
    unused = [(line, n) for line, n in _unused_imports(tree) if (name, n) not in UNUSED_ALLOWED]
    assert unused == [], f"{name}.py imports names it never uses (line, name): {unused}"


def _private_definitions(tree) -> dict:
    """The private functions, classes and constants a module defines at
    module level, with their lines; dunder names are not private."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update((t.id, node.lineno) for t in targets if isinstance(t, ast.Name))
    return {
        name: line
        for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__")
    }


def _read_names(tree) -> set:
    """The names a module reads, bare or as an attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Attribute)
    }


def test_every_private_name_is_read():
    trees = {name: ast.parse((PACKAGE / f"{name}.py").read_text()) for name in MODULES}
    read = set().union(*(_read_names(tree) for tree in trees.values()))
    unread = {
        name: sorted((line, n) for n, line in _private_definitions(tree).items() if n not in read)
        for name, tree in trees.items()
    }
    assert {name: found for name, found in unread.items() if found} == {}


def _raised_names(tree) -> set:
    """The names of the exceptions a module's raise statements make."""
    raised = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None))
    return raised


def test_every_error_type_is_raised():
    # an error class that nothing raises is an unused path: its callers
    # were deleted and it stayed behind
    errors = ast.parse((PACKAGE / "errors.py").read_text())
    declared = {node.name for node in errors.body if isinstance(node, ast.ClassDef)}
    raised = set().union(
        *(_raised_names(ast.parse((PACKAGE / f"{name}.py").read_text())) for name in MODULES)
    )
    assert declared - {"SepackError"} - raised == set()


def _reads_dtype_kind(tree) -> list:
    """Lines that read ``<expression>.dtype.kind``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "kind"
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "dtype"
    ]


def test_number_kinds_are_read_in_errors_only():
    # errors decides which values are numbers; a module that tests a dtype
    # kind of its own makes that decision a second way
    found = {
        name: _reads_dtype_kind(ast.parse((PACKAGE / f"{name}.py").read_text()))
        for name in MODULES
        if name != "errors"
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
