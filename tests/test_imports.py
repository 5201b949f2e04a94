import ast
from pathlib import Path

import pytest

import snode_lab

# __init__.py is left out: its imports are re-exports
MODULES = sorted(p for p in Path(snode_lab.__file__).parent.glob("*.py") if p.name != "__init__.py")


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
