"""Source hygiene: every module-level import in the package is read."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stlsbb"


def unused_imports(source):
    """(line, name) of each name a top-level import binds that the module
    never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom . import a, b\nnp.sum(b.c)\n"
    assert unused_imports(source) == [(1, "os"), (3, "a")]


# __init__ imports its public names to re-export them
@pytest.mark.parametrize(
    "path", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_every_import_is_read(path):
    assert unused_imports((PACKAGE / path).read_text()) == []
