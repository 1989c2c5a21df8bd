"""No library surface that no run uses, and no test helper defined twice.

Walks every module of src/dynpriv with ast and fails on a public
module-level function, class or constant, or a public method or property of
a module-level class, that nothing in src/ references outside its own
definition (the package's re-exports in __init__.py do not count). A
function, class or constant counts as referenced wherever its name appears
as a name or an attribute, and a method or property wherever it appears as
an attribute, so a method is kept alive by any use of that attribute name.
Each exception below gives its reason.

Outside masks, no module in src/ names a mask kind other than identity:
what each kind takes, refuses and whether its gap vanishes is stated once,
in masks.RULES, and read from there. Likewise SYSTEMS is read only in
scenario, where a config's system kind is looked up, and DRIFTS only in
dynamics, where a pinned system's drift kind is: every other module takes
the objects they build as they are.

In tests/, a module-level function, class or constant is defined in one
module only: what two test modules share lives in tests/common.py, and each
public name there is imported by at least two test modules.
"""

import ast
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

import dynpriv
from dynpriv.dynamics import SYSTEMS, SystemSpec
from dynpriv.masks import MaskKind

SRC = Path(dynpriv.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

ALLOWED = {
    "solve_comparison_ode": "the comparison lemma and its strict xfail",
    "stationarity_residual": "kept for the planned no-rest-point verdict, its first caller",
    "bundled_names": "bench/ lists the bundled scenarios through it",
    "cycle_graph": "looked up by name through scenario._GRAPH_BUILDERS",
    "complete_graph": "looked up by name through scenario._GRAPH_BUILDERS",
    "erdos_renyi": "looked up by name through scenario._GRAPH_BUILDERS",
    "_Parser.error": "argparse calls it on every usage error, for main to map to exit 2",
}


def _public_definitions(tree):
    """(qualified name, name, defining node, whether it is a method) of every
    public module-level function, class and constant (a name that a
    module-level assignment binds), and every public method or property of
    a module-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, True
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and not name.id.startswith("_"):
                        yield name.id, name.id, node, False


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
        for qualname, bare, definition, method in _public_definitions(tree):
            inside = range(definition.lineno, definition.end_lineno + 1)
            if not any(
                name == bare
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


def test_no_module_but_masks_names_a_mask_kind_other_than_identity():
    members = {kind.name for kind in MaskKind} - {"IDENTITY"}
    named = [
        f"{path.name}:{node.lineno} MaskKind.{node.attr}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "masks.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and node.attr in members
        and "MaskKind" in (getattr(node.value, "id", None), getattr(node.value, "attr", None))
    ]
    assert named == []


@pytest.mark.parametrize("registry,reader", [("SYSTEMS", "scenario"), ("DRIFTS", "dynamics")])
def test_each_kind_registry_is_read_in_one_module(registry, reader):
    # a read is a loaded name, an attribute or an import; the definition stores
    readers = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.stem != reader
        for node in ast.walk(ast.parse(path.read_text()))
        if (isinstance(node, ast.Name) and node.id == registry and isinstance(node.ctx, ast.Load))
        or (isinstance(node, ast.Attribute) and node.attr == registry)
        or (isinstance(node, ast.ImportFrom) and any(a.name == registry for a in node.names))
    ]
    assert readers == []


def _module_level_names(tree):
    """The set of names that module-level definitions and assignments bind."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def _test_modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(TESTS.glob("*.py"))}


def test_no_module_level_name_is_defined_in_two_test_modules():
    defined = Counter(name for tree in _test_modules().values() for name in _module_level_names(tree))
    assert sorted(name for name, count in defined.items() if count > 1) == []


def test_every_shared_name_is_imported_by_two_test_modules():
    modules = _test_modules()
    shared = {name for name in _module_level_names(modules["common"]) if not name.startswith("_")}
    imported = Counter(
        alias.name
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "common"
        for alias in node.names
    )
    assert sorted(name for name in shared if imported[name] < 2) == []


#: The modules that take a system as SystemSpec gives it to every kind.
KIND_BLIND = ("scenario", "cli", "solver", "analysis", "adversary")


def test_kind_blind_modules_read_no_field_of_a_system_class():
    # a dataclass field of one system class (SystemSpec's own attributes,
    # such as drift and nu, answer for every kind) is read only in dynamics,
    # where its class owns what it means
    own = {f.name for cls in SYSTEMS.values() for f in fields(cls)} - set(dir(SystemSpec))
    reads = [
        f"{stem}.py:{node.lineno} .{node.attr}"
        for stem in KIND_BLIND
        for node in ast.walk(ast.parse((SRC / f"{stem}.py").read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) and node.attr in own
    ]
    assert reads == []
