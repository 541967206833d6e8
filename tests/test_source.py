"""Static checks of the package source, with the standard library's
``ast`` only.

No module other than ``__init__.py`` (which imports to re-export)
imports a name it never reads.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ballgrad"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source):
    """Names bound by an import of ``source`` that no expression reads.
    ``import a.b`` binds ``a``; an attribute chain ``a.b.c`` reads ``a``."""
    tree = ast.parse(source)
    bound = {}
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_unused_import_is_found():
    source = "import math\nfrom os import path, sep\nprint(path.join(sep))\n"
    assert _unused_imports(source) == [(1, "math")]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_name_it_imports(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []
