"""No library surface that no run uses.

Walks every module of src/dynpriv with ast and fails on a public function,
method or property that nothing in src/ references outside its own
definition (the package's re-exports in __init__.py do not count). A
function counts as referenced wherever its name appears as a name or an
attribute, and a method or property wherever it appears as an attribute, so
a method is kept alive by any use of that attribute name. Each exception
below gives its reason.
"""

import ast
from pathlib import Path

import dynpriv

SRC = Path(dynpriv.__file__).resolve().parent

ALLOWED = {
    "MaskBank.invert": "the mask round-trip contract is tested through it",
    "MaskBank.params": "the tests read a bank's parameters back through it",
    "Digraph.edges": "the tests read a graph's edge list back through it",
    "choose_params": "the one-channel draw that the mask tests use as a fixture",
    "solve_comparison_ode": "the comparison lemma and its strict xfail",
    "stationarity_residual": "kept for the planned no-rest-point verdict, its first caller",
    "bundled_names": "bench/ lists the bundled scenarios through it",
    "cycle_graph": "looked up by name through scenario._GRAPH_BUILDERS",
    "complete_graph": "looked up by name through scenario._GRAPH_BUILDERS",
    "erdos_renyi": "looked up by name through scenario._GRAPH_BUILDERS",
}


def _public_definitions(tree):
    """(qualified name, def node, whether it is a method) of every public
    module-level function and every public method or property of a
    module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item, True


def _unreferenced():
    modules = {path: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    references = [
        (path, node, node.id if isinstance(node, ast.Name) else node.attr)
        for path, tree in modules.items()
        if path.name != "__init__.py"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    for path, tree in modules.items():
        for qualname, definition, method in _public_definitions(tree):
            inside = range(definition.lineno, definition.end_lineno + 1)
            if not any(
                name == definition.name
                and not (method and isinstance(node, ast.Name))
                and not (where == path and node.lineno in inside)
                for where, node, name in references
            ):
                yield qualname


def test_every_public_definition_has_a_caller_in_src():
    assert sorted(set(_unreferenced()) - set(ALLOWED)) == []


def test_every_allowlisted_name_is_still_defined_and_still_unreferenced():
    # an exception that gained a caller, or lost its definition, leaves the list
    assert sorted(_unreferenced()) == sorted(ALLOWED)
