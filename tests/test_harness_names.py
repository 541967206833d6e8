"""The benchmark harness under ``perfbench/`` reads only package names
that exist, checked with the standard library's ``ast``: every
attribute chain it reads from a ``ballgrad`` module it imports
(``ki.ParamSet.from_radius``) resolves, every name it imports from the
package exists, and every keyword it passes to a package callable
(``n3_scheme=``) is one of that callable's parameters.  The harness is
read, not run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

HARNESS = Path(__file__).resolve().parents[1] / "perfbench"
SCRIPTS = sorted(p.name for p in HARNESS.glob("*.py"))
_MISSING = object()


def _is_package(module):
    return module == "ballgrad" or module.startswith("ballgrad.")


def _lookup(obj, attrs):
    for attr in attrs:
        obj = getattr(obj, attr, _MISSING)
        if obj is _MISSING:
            break
    return obj


def _reads(source):
    """Each package name ``source`` reads, as (line, name, object), the
    object being _MISSING where the name does not resolve.  A keyword
    ``kw`` passed to a package callable ``f`` reads ``f(kw=)``."""
    tree = ast.parse(source)
    bound = {}  # local name -> the package module or object it holds
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if _is_package(alias.name):
                    top = alias.asname or alias.name.split(".")[0]
                    bound[top] = importlib.import_module(
                        alias.name if alias.asname else "ballgrad")
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and _is_package(node.module):
            module = importlib.import_module(node.module)
            for alias in node.names:
                obj = getattr(module, alias.name, _MISSING)
                if obj is _MISSING:  # a submodule not yet imported
                    try:
                        obj = importlib.import_module(
                            f"{node.module}.{alias.name}")
                    except ImportError:
                        pass
                reads.append((node.lineno, f"{node.module}.{alias.name}", obj))
                bound[alias.asname or alias.name] = obj

    def chain(expr):
        """The dotted name of a ``name.attr.attr`` chain rooted at a
        package binding, with its object, or None."""
        attrs = []
        while isinstance(expr, ast.Attribute):
            attrs.append(expr.attr)
            expr = expr.value
        if not (isinstance(expr, ast.Name) and expr.id in bound):
            return None
        attrs.reverse()
        return ".".join([expr.id, *attrs]), _lookup(bound[expr.id], attrs)

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found = chain(node)
            if found is not None:
                reads.append((node.lineno, *found))
        elif isinstance(node, ast.Call) and node.keywords:
            found = chain(node.func)
            if found is None or not callable(found[1]):
                continue
            name, fn = found
            params = inspect.signature(fn).parameters
            takes_any = any(p.kind is p.VAR_KEYWORD for p in params.values())
            for kw in node.keywords:
                if kw.arg is not None:
                    ok = takes_any or kw.arg in params
                    reads.append((node.lineno, f"{name}({kw.arg}=)",
                                  fn if ok else _MISSING))
    return sorted({(line, name): obj for line, name, obj in reads}.items())


def _missing(source):
    return [read for read, obj in _reads(source) if obj is _MISSING]


def test_missing_name_is_found():
    source = ("from ballgrad import poisson_oracle as po\n"
              "from ballgrad.closedform4 import frak_c, no_such_name\n"
              "po.no_such_query(4, 0.5)\n"
              "po.direction_profile(4, 0.5, (0.0,), sq=None)\n"
              "po.SphereQuadrature(seed=1).no_such_field\n")
    assert _missing(source) == [(2, "ballgrad.closedform4.no_such_name"),
                                (3, "po.no_such_query"),
                                (4, "po.direction_profile(sq=)")]


def test_the_harness_reads_the_package():
    names = {name for (_, name), _ in
             _reads((HARNESS / "workloads.py").read_text())}
    assert {"ki.ParamSet.from_radius", "ki.c_numeric(n3_scheme=)",
            "po.SphereQuadrature(method=)", "po.SphereQuadrature(samples=)",
            "po.SphereQuadrature(seed=)", "cli.main"} <= names


@pytest.mark.parametrize("script", SCRIPTS)
def test_harness_reads_only_names_that_exist(script):
    assert _missing((HARNESS / script).read_text()) == []
