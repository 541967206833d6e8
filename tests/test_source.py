"""Static checks of the package source, with the standard library's
``ast`` only.

No module other than ``__init__.py`` (which imports to re-export)
imports a name it never reads, no module reads an underscore
attribute of another package module it holds as an object, every
``meshgrid`` call builds an open mesh (``sparse=True``), no module but
``poisson_oracle.py`` names the Monte Carlo method, and no module but
``poisson_oracle.py`` and the ``__init__.py`` re-export names
``SphereQuadrature``, and none but ``kernelint.py`` and the re-export
names ``QuadratureSpec``.
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


def _private_reads(source):
    """``module._name`` reads of a module that ``source`` binds by
    ``from . import module`` or ``from ballgrad import module``, with
    their lines; dunders are not private."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level == 1 and node.module is None
                    or node.level == 0 and node.module == "ballgrad")
               for alias in node.names
               if (PACKAGE / f"{alias.name}.py").exists()}
    return sorted((node.lineno, f"{node.value.id}.{node.attr}")
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)
                  and node.value.id in modules
                  and node.attr.startswith("_")
                  and not node.attr.startswith("__"))


def test_private_read_is_found():
    source = ("from . import __version__, proofcheck\n"
              "from .proofcheck import locate_sup\n"
              "x = proofcheck._MC_FLAT_SIGMAS\n"
              "y = proofcheck.locate_sup, __version__._private\n")
    assert _private_reads(source) == [(3, "proofcheck._MC_FLAT_SIGMAS")]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_no_private_name_of_another(module):
    assert _private_reads((PACKAGE / module).read_text()) == []


def _dense_meshgrids(source):
    """Lines of the ``meshgrid`` calls of ``source`` that do not pass
    ``sparse=True``: a dense mesh holds every axis at the grid's size."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) == "meshgrid"
                 or getattr(node.func, "id", None) == "meshgrid")
            and not any(kw.arg == "sparse" and isinstance(kw.value, ast.Constant)
                        and kw.value.value is True for kw in node.keywords)]


def test_dense_meshgrid_is_found():
    source = ("import numpy as np\n"
              "from numpy import meshgrid\n"
              "a = np.meshgrid(x, y, indexing='ij')\n"
              "b = np.meshgrid(x, y, indexing='ij', sparse=True)\n"
              "c = np.meshgrid(x, y, sparse=False)\n"
              "d = meshgrid(x, y)\n")
    assert _dense_meshgrids(source) == [3, 5, 6]


@pytest.mark.parametrize("module", ["__init__.py", *MODULES])
def test_module_builds_only_open_meshes(module):
    assert _dense_meshgrids((PACKAGE / module).read_text()) == []


def _string_constants(source, value):
    """Lines of ``source`` where the string constant ``value`` occurs."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Constant) and node.value == value]


def test_string_constant_is_found():
    source = ('m = "monte_carlo"\n'
              '# "monte_carlo" in a comment\n'
              'f(method="monte_carlo", note="monte_carlo draws")\n')
    assert _string_constants(source, "monte_carlo") == [1, 3]


@pytest.mark.parametrize("module", ["__init__.py", *MODULES])
def test_monte_carlo_named_only_by_the_oracle(module):
    """Monte Carlo is a single-query cross-check of ``poisson_oracle``:
    no other module branches on it or builds it."""
    found = _string_constants((PACKAGE / module).read_text(), "monte_carlo")
    assert found == [] or module == "poisson_oracle.py"


def _name_uses(source, name):
    """Lines of ``source`` that name ``name``: a read or binding, an
    attribute, or an import (under its own name or an alias)."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Name) and node.id == name
                   or isinstance(node, ast.Attribute) and node.attr == name
                   or isinstance(node, (ast.Import, ast.ImportFrom))
                   and any(name in (a.name, a.asname) for a in node.names)})


def test_name_use_is_found():
    source = ("from .poisson_oracle import (SphereQuadrature,\n"
              "                             best_direction)\n"
              "import ballgrad.poisson_oracle as po\n"
              "sq = po.SphereQuadrature(seed=1)\n"
              "# SphereQuadrature in a comment\n"
              "f(SphereQuadrature, note='SphereQuadrature')\n")
    assert _name_uses(source, "SphereQuadrature") == [1, 4, 6]


# each configuration class and the one module that may name it
_OWNERS = {"SphereQuadrature": "poisson_oracle.py", "QuadratureSpec": "kernelint.py"}


@pytest.mark.parametrize("module", ["__init__.py", *MODULES])
def test_sphere_quadrature_named_only_by_the_oracle(module):
    """The product rule takes no configuration: only the single queries'
    Monte Carlo branches read a ``SphereQuadrature``, so no other module
    builds or passes one.  Likewise the quadrature engine's settings are
    fixed inside ``kernelint``: no other module builds a
    ``QuadratureSpec``."""
    source = (PACKAGE / module).read_text()
    for name, owner in _OWNERS.items():
        found = _name_uses(source, name)
        assert found == [] or module in (owner, "__init__.py"), name
