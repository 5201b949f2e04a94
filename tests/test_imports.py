import ast
import functools
from pathlib import Path

import pytest

import snode_lab

SOURCES = sorted(Path(snode_lab.__file__).parent.glob("*.py"))
# __init__.py is left out: its imports are re-exports
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
ERRORS = Path(snode_lab.__file__).parent / "errors.py"
ERROR_CLASSES = [n.name for n in ast.parse(ERRORS.read_text()).body if isinstance(n, ast.ClassDef)]


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports of ``tree`` and read nowhere."""
    bound = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
            continue
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                bound[alias.asname or alias.name.split(".")[0]] = stmt.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def _named(node: ast.expr) -> str | None:
    """The name that ``X``, ``errors.X`` or ``X(...)`` refers to."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


@functools.cache
def _raised_or_subclassed() -> frozenset[str]:
    """Every name raised bare, called (an error built to be raised, or one
    returned and raised by its caller) or used as a base class in the
    package; the package is parsed once for all error classes."""
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                names.add(_named(node.exc))
            elif isinstance(node, ast.Call):
                names.add(_named(node))
            elif isinstance(node, ast.ClassDef):
                names.update(_named(base) for base in node.bases)
    return frozenset(names)


@pytest.mark.parametrize("name", ERROR_CLASSES)
def test_every_error_class_is_raised_or_subclassed(name):
    assert name in _raised_or_subclassed()


# Public top-level names with no caller in the package, each with the
# ROADMAP item that gives it a command (or removes it) or its user outside
# the package.  Aim 2 wants this list to shrink.
UNCALLED = {
    "dirac_frame": "ROADMAP item 16 promotes it: the Dirac frame of the verify-toeplitz interpolation rows",
    "frame_quotient": "ROADMAP item 13b: the Hankel Khrushchev separation row",
    "interp_residual": "ROADMAP item 4: the interpolation theorem as a CLI check",
    "recover_moments": "ROADMAP item 16: moment recovery rows in verify-hankel",
    "taylor_recover": "ROADMAP item 16: the interpolation row of verify-toeplitz",
    "random_contraction": "the batch of one of random_contractions; the test suite draws single contractions with it",
    "random_constant_pair": "the batch of one of random_constant_pairs; perfbench workloads draw their pairs with it",
    "random_hankel_spec": "perfbench workloads and the CI example runs draw their specs with it",
    "random_toeplitz_spec": "perfbench workloads and the CI example runs draw their specs with it",
}


def _public_definitions() -> set[str]:
    return {
        stmt.name
        for path in MODULES
        for stmt in ast.parse(path.read_text()).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")
    }


def _referenced_outside_own_definition() -> set[str]:
    """Names read (as ``X`` or ``module.X``) by some top-level statement of
    the package other than the definition of ``X`` itself."""
    names = set()
    for path in MODULES:
        for stmt in ast.parse(path.read_text()).body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
                if name is not None and name != own:
                    names.add(name)
    return names


def test_every_public_name_has_a_caller_or_a_roadmap_item():
    called = _referenced_outside_own_definition()
    uncalled = {name for name in _public_definitions() if name not in called}
    assert sorted(uncalled - UNCALLED.keys()) == []  # no caller and no entry
    assert sorted(UNCALLED.keys() - uncalled) == []  # called now, or gone: drop the entry
