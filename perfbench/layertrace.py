"""Layer tracing from outside the package.

``Tracer.install`` replaces each layer's interface functions with
wrappers, in every ``ballgrad`` module that holds a reference to them.
A layer's interface is its public functions plus any private function
another module imports from it (``kernelint`` uses
``closedform4._psi_closed_arr``).  The kernels layer is whichever module
``backend.get_backend()`` returns; ``kernelint`` and ``poisson_oracle``
look its functions up at call time, so patching that module is enough.
The Gauss rule builders are patched in ``poisson_oracle``'s namespace
only.

A span is recorded at each layer boundary: a call into a layer from
outside it.  Calls that stay inside the layer are counted, not spanned,
which keeps the cost per scalar closed-form call low.  Spans live in
flat arrays (name, start, end, parent) and are written once, by
``save``, after the run.
"""

import array
import functools
import inspect
import math
import statistics
import sys
import time

import numpy as np

#: Layer name -> module name inside the package.  ``kernels`` is resolved
#: at install time from the active backend.
LAYER_MODULES = {
    "cli": "ballgrad.cli",
    "proofcheck": "ballgrad.proofcheck",
    "closedform4": "ballgrad.closedform4",
    "kernelint": "ballgrad.kernelint",
    "oracle": "ballgrad.poisson_oracle",
}
LAYERS = ("cli", "proofcheck", "closedform4", "oracle", "kernelint", "kernels")

_ROOT = -1
# span kinds that are not layers: harness passes and operations, and the
# rule builds, whose time belongs to the oracle layer
_RULE = "oracle.rule"
_HARNESS_KINDS = ("pass", "op")


def _ratio(a, b):
    return a / b if b else 0.0


class Tracer:
    """Span store plus the counters the per-layer metrics need."""

    def __init__(self):
        self.kinds = list(LAYERS) + [_RULE, *_HARNESS_KINDS]
        self._kind_id = {k: i for i, k in enumerate(self.kinds)}
        self.names = []  # qualified name of each wrapped function
        # one entry per span; ``name`` indexes ``names`` (-1: harness span)
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("q")
        self.kind = array.array("i")
        self.name = array.array("i")
        self._stack = [_ROOT]
        self._kstack = [_ROOT]
        self.calls = []  # per wrapped name, every call (nested ones too)
        self.oracle_keys = []  # (n, r, theta, quadrature) of each query
        self.c = dict.fromkeys((
            "proofcheck.cases", "proofcheck.points", "locate_sup.calls",
            "locate_sup.evals", "closedform4.with_r", "closedform4.series",
            "kernelint.aq_calls", "kernelint.panels", "kernelint.panels_max",
            "kernels.points", "kernels.bytes"), 0)
        self._patched = []

    # -- counters -----------------------------------------------------------

    def reset_counts(self):
        """Zero the counters in place (the wrappers hold references)."""
        self.c.update(dict.fromkeys(self.c, 0))
        self.oracle_keys.clear()
        self.calls[:] = [0] * len(self.calls)

    def _name_id(self, name):
        self.names.append(name)
        self.calls.append(0)
        return len(self.names) - 1

    # -- spans --------------------------------------------------------------

    def open(self, kind):
        """Open a harness span (``pass`` or ``op``); returns its id."""
        sid = len(self.start)
        self.parent.append(self._stack[-1])
        self.kind.append(self._kind_id[kind])
        self.name.append(-1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        self._kstack.append(self._kind_id[kind])
        return sid

    def close(self, sid):
        self.end[sid] = time.perf_counter()
        self._stack.pop()
        self._kstack.pop()

    def _wrap(self, fn, qualname, kind, counter=None, on_boundary=None):
        fid = self._name_id(qualname)
        kid = self._kind_id[kind]
        start, end, parent = self.start, self.end, self.parent
        kinds, names = self.kind, self.name
        stack, kstack = self._stack, self._kstack
        clock = time.perf_counter
        inner = fn if counter is None else counter(fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[fid] += 1
            if kstack[-1] == kid:
                return inner(*args, **kwargs)
            if on_boundary is not None:
                on_boundary(args)
            sid = len(start)
            parent.append(stack[-1])
            kinds.append(kid)
            names.append(fid)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            kstack.append(kid)
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
                kstack.pop()

        return traced

    # -- per-function counters ------------------------------------------------

    def _count_kernel(self, fn):
        c = self.c

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            c["kernels.points"] += int(np.size(args[0]))
            c["kernels.bytes"] += sum(a.nbytes for a in args
                                      if isinstance(a, np.ndarray))
            return fn(*args, **kwargs)
        return counted

    def _count_adaptive_quad(self, fn):
        # Panels are counted from the integrand abscissae: every
        # Gauss-Kronrod panel evaluates 15 of them, and a run that ends
        # with m panels has evaluated 2m - 1.
        c = self.c
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if bound.arguments["q"].endpoint_mode != "regular":
                return fn(*args, **kwargs)  # delegates to a regular call
            f = bound.arguments["f"]
            seen = [0]

            def integrand(x):
                seen[0] += np.size(x)
                return f(x)

            bound.arguments["f"] = integrand
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                panels = (seen[0] // 15 + 1) // 2
                c["kernelint.aq_calls"] += 1
                c["kernelint.panels"] += panels
                c["kernelint.panels_max"] = max(c["kernelint.panels_max"], panels)
        return counted

    def _count_identity(self, fn):
        c = self.c
        default_points = inspect.signature(fn).parameters["n_points"].default

        @functools.wraps(fn)
        def counted(case, *args, **kwargs):
            c["proofcheck.cases"] += 1
            c["proofcheck.points"] += kwargs.get(
                "n_points", args[0] if args else default_points)
            return fn(case, *args, **kwargs)
        return counted

    def _count_inequality(self, fn):
        # grid size as check_inequality derives it from the case
        c = self.c

        @functools.wraps(fn)
        def counted(case, *args, **kwargs):
            d = len(case.domain)
            shape = case.grid_shape or ((10_000,) if d == 1 else (100,) * d)
            c["proofcheck.cases"] += 1
            c["proofcheck.points"] += math.prod(shape)
            return fn(case, *args, **kwargs)
        return counted

    def _count_conjecture(self, fn):
        c = self.c

        @functools.wraps(fn)
        def counted(n, r_grid, theta_grid, *args, **kwargs):
            c["proofcheck.cases"] += 1
            c["proofcheck.points"] += len(r_grid) * len(theta_grid)
            return fn(n, r_grid, theta_grid, *args, **kwargs)
        return counted

    def _count_locate_sup(self, fn):
        # C(z, r) evaluations: closed-form calls for n = 4, quadrature
        # calls otherwise
        c = self.c
        names = ("closedform4.c_closed", "kernelint.c_numeric")

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            ids = [i for i, name in enumerate(self.names) if name in names]
            before = sum(self.calls[i] for i in ids)
            try:
                return fn(*args, **kwargs)
            finally:
                c["proofcheck.cases"] += 1
                c["locate_sup.calls"] += 1
                c["locate_sup.evals"] += sum(self.calls[i] for i in ids) - before
        return counted

    def _count_query(self, fn):
        keys = self.oracle_keys
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            if "q" in a:
                q = a["q"]
                keys.append((q.n, q.r, q.theta, a["sq"]))
            else:  # extremal_check(n, r, sq): the theta = 0 query
                keys.append((a["n"], a["r"], 0.0, a["sq"], "signed"))
            return fn(*args, **kwargs)
        return counted

    def _series_probe(self):
        from ballgrad.closedform4 import SERIES_R_THRESHOLD
        c = self.c

        def probe(args):
            if not args:
                return
            r = getattr(args[0], "r", args[0])
            if isinstance(r, float):
                c["closedform4.with_r"] += 1
                if r < SERIES_R_THRESHOLD:
                    c["closedform4.series"] += 1
        return probe

    # -- install ------------------------------------------------------------

    def install(self):
        from ballgrad import backend

        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "ballgrad" or k.startswith("ballgrad."))]
        layer_mod = {layer: sys.modules[name] for layer, name in LAYER_MODULES.items()}
        layer_mod["kernels"] = backend.get_backend()

        counters = {
            "kernelint.adaptive_quad": self._count_adaptive_quad,
            "proofcheck.check_derivative_identity": self._count_identity,
            "proofcheck.check_inequality": self._count_inequality,
            "proofcheck.conjecture_report": self._count_conjecture,
            "proofcheck.locate_sup": self._count_locate_sup,
            "oracle.directional_constant_with_error": self._count_query,
            "oracle.extremal_check": self._count_query,
        }
        targets = {}  # original function -> (qualified name, kind)
        for layer in LAYERS:
            mod = layer_mod[layer]
            for attr, obj in vars(mod).items():
                if not (inspect.isroutine(obj)
                        and getattr(obj, "__module__", None) == mod.__name__):
                    continue
                imported = any(vars(m).get(attr) is obj for m in mods if m is not mod)
                if not attr.startswith("_") or imported:
                    targets[obj] = (f"{layer}.{attr}", layer)

        wrappers = {}
        for obj, (qualname, kind) in targets.items():
            counter = counters.get(qualname)
            if kind == "kernels":
                counter = self._count_kernel
            probe = self._series_probe() if kind == "closedform4" else None
            wrappers[obj] = self._wrap(obj, qualname, kind, counter, probe)

        for mod in mods + [layer_mod["kernels"]]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isroutine(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

        oracle = layer_mod["oracle"]
        for attr, obj in list(vars(oracle).items()):
            if attr.startswith("roots_") and callable(obj):
                self._patch(oracle, attr, self._wrap(obj, f"oracle.{attr}", _RULE))

    def _patch(self, mod, attr, new):
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, new)

    def uninstall(self):
        for mod, attr, old in reversed(self._patched):
            setattr(mod, attr, old)
        self._patched.clear()

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self, first, last):
        """Per-layer metrics of the spans ``first:last`` (one pass), using
        the counters as they stand; call ``reset_counts`` between passes."""
        sl = slice(first, last)
        st = np.frombuffer(self.start, dtype=float)[sl]
        en = np.frombuffer(self.end, dtype=float)[sl]
        par = np.frombuffer(self.parent, dtype=np.int64)[sl] - first
        kd = np.frombuffer(self.kind, dtype=np.int32)[sl]
        dur = en - st
        inside = par >= 0
        child = np.bincount(par[inside], weights=dur[inside], minlength=len(dur))
        self_t = np.bincount(kd, weights=dur - child, minlength=len(self.kinds))
        spans = np.bincount(kd, minlength=len(self.kinds))
        k = self._kind_id

        def self_s(*kinds):
            return float(sum(self_t[k[x]] for x in kinds))

        calls = dict(zip(self.names, self.calls))
        c = self.c
        parent_kind = np.where(inside, kd[np.clip(par, 0, None)], -1)
        kernel_from_oracle = int(np.sum((kd == k["kernels"]) & (parent_kind == k["oracle"])))
        queries = len(self.oracle_keys)
        cf_calls = int(spans[k["closedform4"]])
        kn_calls = int(spans[k["kernels"]])
        return {
            "cli.self_s": self_s("cli"),
            "cli.calls": int(spans[k["cli"]]),
            "proofcheck.self_s": self_s("proofcheck"),
            "proofcheck.cases": c["proofcheck.cases"],
            "proofcheck.points": c["proofcheck.points"],
            "proofcheck.locate_sup.evals": _ratio(c["locate_sup.evals"],
                                                  c["locate_sup.calls"]),
            "closedform4.calls": cf_calls,
            "closedform4.self_s": self_s("closedform4"),
            "closedform4.us_per_call": 1e6 * _ratio(self_s("closedform4"), cf_calls),
            "closedform4.series_share": _ratio(c["closedform4.series"],
                                               c["closedform4.with_r"]),
            "oracle.queries": queries,
            "oracle.self_s": self_s("oracle", _RULE),
            "oracle.distinct_share": _ratio(len(set(self.oracle_keys)), queries),
            "oracle.rule_builds": int(spans[k[_RULE]]),
            "oracle.rule_s": float(np.sum(dur[kd == k[_RULE]])),
            "oracle.kernel_calls_per_query": _ratio(kernel_from_oracle, queries),
            "kernelint.self_s": self_s("kernelint"),
            "kernelint.adaptive_quad.calls": c["kernelint.aq_calls"],
            "kernelint.panels": c["kernelint.panels"],
            "kernelint.panels_max": c["kernelint.panels_max"],
            "kernels.calls": kn_calls,
            "kernels.points": c["kernels.points"],
            "kernels.points_per_call": _ratio(c["kernels.points"], kn_calls),
            "kernels.self_s": self_s("kernels"),
            "kernels.ns_per_point": 1e9 * _ratio(self_s("kernels"), c["kernels.points"]),
            "kernels.bytes_computed": c["kernels.bytes"],
            "_calls": calls,
        }

    def save(self, path):
        """Write every span: name, start, end, parent (-1 for a root)."""
        names = np.array(self.names + list(self.kinds), dtype=object)
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        kind = np.frombuffer(self.kind, dtype=np.int32)
        harness = name < 0  # harness spans are named by their kind
        name[harness] = len(self.names) + kind[harness]
        np.savez(path, names=names.astype(str), name=name,
                 kind_names=np.array(self.kinds), kind=kind,
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float),
                 parent=np.frombuffer(self.parent, dtype=np.int64))


def median_metrics(per_pass):
    """Median over passes of each per-layer metric."""
    keys = [k for k in per_pass[0] if not k.startswith("_")]
    return {k: statistics.median(m[k] for m in per_pass) for k in keys}
