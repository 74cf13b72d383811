"""The package's own imports: all at module level, and without a cycle.

A ``sepack`` import inside a function hides a dependency from the module
graph, and is how an import cycle gets dodged rather than removed.  Imports
of other packages may be deferred: ``_kdtree`` loads ``scipy.spatial`` on
the first tree build.
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

