"""The benchmark workloads.

A workload is a warm-up call plus a function that builds the operations
of one pass from the seed and the pass number.  Every operation checks
its answer against a reference computed by another module, at the
tolerance the test suite uses for that pair, and raises ``WrongAnswer``
when it does not hold.  Each workload is one caller in a closed loop:
an operation starts when the previous one has returned.

Layer functions are called through their modules (``cf.c_closed``), so
that the tracer's wrappers see the harness's own reference calls too.
README.md gives the reason for each workload.
"""

import contextlib
import io
import json
import math
import os
from collections import namedtuple

import numpy as np

from ballgrad import cli
from ballgrad import closedform4 as cf
from ballgrad import kernelint as ki
from ballgrad import poisson_oracle as po


class WrongAnswer(Exception):
    """An answer, exit code or verdict that does not match its reference."""


def _check(ok, what):
    if not ok:
        raise WrongAnswer(what)


def _rel(a, b):
    return abs(a - b) / abs(b)


class Context:
    """Per-run state shared by the operations: seed, temporary directory and
    the harness-side counters (bytes of JSON the CLI emitted)."""

    def __init__(self, seed, tmpdir):
        self.seed = seed
        self.tmpdir = tmpdir
        self.json_bytes = 0

    def rng(self, k):
        return np.random.default_rng([self.seed, k])

    def cli(self, argv, out=None):
        """Run ``ballgrad`` in-process; returns (exit code, stdout text)."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv + (["--out", out] if out else []))
        text = buf.getvalue()
        self.json_bytes += len(text.encode())
        if out and os.path.exists(out):
            self.json_bytes += os.path.getsize(out)
        return rc, text


# ---------------------------------------------------------------------------
# direction_sweep
# ---------------------------------------------------------------------------

#: Radii of the criterion-6 grid taken per pass (``--r-steps``): one
#: radius (r = 0.05) times 50 angles is a 3 s pass on a 2-core x86 VM.
SWEEP_R_STEPS = 1


def _warm_oracle():
    r = 0.5
    v, _ = po.directional_constant_with_error(po.DirectionalQuery(4, r, 0.0))
    _check(_rel(v, cf.gradient_bound(r)) <= 1e-6, "oracle vs gradient_bound")


def _sweep_verdict(doc, r_steps, seed):
    _check(doc["manifest"]["seed"] == seed, "manifest seed")
    (rep,) = doc["reports"]
    _check(rep["case_name"] == "conjecture_n4", rep["case_name"])
    _check(rep["sample_desc"] == f"{r_steps} radii x 50 angles", rep["sample_desc"])
    # the closed form puts sup_z C(z, r) at z = 0: the radial direction
    # must win every profile
    _check(rep["passed"] and rep["worst_violation"] <= 0.0,
           f"conjecture verdict {rep['passed']} worst={rep['worst_violation']}")


def _sweep_pass(ctx, k):
    seed = int(ctx.rng(k).integers(2**31))
    out = os.path.join(ctx.tmpdir, "conjecture.json")

    def sweep():
        if os.path.exists(out):
            os.remove(out)
        rc, _ = ctx.cli(["verify", "conjecture", "--n", "4",
                         "--r-steps", str(SWEEP_R_STEPS), "--theta-steps", "50",
                         "--json", "--seed", str(seed)], out)
        _check(rc == 0, f"exit code {rc}")
        with open(out) as fh:
            _sweep_verdict(json.load(fh), SWEEP_R_STEPS, seed)

    return [("verify_conjecture", sweep)]


# ---------------------------------------------------------------------------
# verify_suites
# ---------------------------------------------------------------------------

#: Suite -> number of reports it must produce, all passing.
SUITES = {"identities": 13, "lemmas": 13, "sup": 19, "oracle": 4}


def _warm_closed():
    p = cf.EvalPoint(0.5, 0.7)
    v, _ = ki.c_numeric(p, ki.ParamSet.from_radius(0.5, 4))
    _check(_rel(cf.c_closed(p), v) <= 1e-9, "c_closed vs c_numeric")


def _suite_pass(ctx, k):
    seed = int(ctx.rng(k).integers(2**31))

    def suite(name, expected):
        def run():
            # `verify oracle --json` raises TypeError here (a numpy.bool in
            # its gradient_vs_fd report); it counts as a failed operation
            rc, text = ctx.cli(["verify", name, "--json", "--seed", str(seed)])
            _check(rc == 0, f"{name}: exit code {rc}")
            reports = json.loads(text)["reports"]
            _check(len(reports) == expected, f"{name}: {len(reports)} reports")
            failed = [r["case_name"] for r in reports if not r["passed"]]
            _check(not failed, f"{name}: failed {failed}")
        return run

    return [(f"verify_{name}", suite(name, n)) for name, n in SUITES.items()]


# ---------------------------------------------------------------------------
# point_oracles
# ---------------------------------------------------------------------------

def _strata(rng, k, lo=0.05, hi=0.95):
    """k radii, one uniform draw from each of k equal parts of [lo, hi], so
    every pass spreads its queries over the whole range."""
    edges = np.linspace(lo, hi, k + 1)
    return [float(rng.uniform(a, b)) for a, b in zip(edges[:-1], edges[1:])]


def _c4_op(r, z):
    def run():
        p = cf.EvalPoint(r, z)
        v, _ = ki.c_numeric(p, ki.ParamSet.from_radius(r, 4))
        _check(_rel(v, cf.c_closed(p)) <= 1e-9, f"c_numeric n=4 at {p}")
    return run


def _psi_op(r, z, sign):
    def run():
        p = cf.EvalPoint(r, z)
        v, _ = ki.psi_numeric(p, sign, ki.ParamSet.from_radius(r, 4))
        ref = cf.psi_closed(p, sign)
        _check(abs(v - ref) <= 1e-10 * (1.0 + abs(ref)), f"psi_numeric at {p}, {sign}")
    return run


def _n3_schemes_op(r, z):
    def run():
        p = cf.EvalPoint(r, z)
        ps = ki.ParamSet.from_radius(r, 3)
        a, _ = ki.c_numeric(p, ps, n3_scheme="sin_substitution")
        b, _ = ki.c_numeric(p, ps, n3_scheme="endpoint_weight")
        _check(_rel(b, a) <= 1e-9, f"n = 3 schemes at {p}")
    return run


def _radial_op(n, r):
    # oracle at theta = 0 against the profile quadrature: C(0, r) / (1 - r)
    def run():
        v, _ = po.directional_constant_with_error(po.DirectionalQuery(n, r, 0.0))
        c0, _ = ki.c_numeric(cf.EvalPoint(r, 0.0), ki.ParamSet.from_radius(r, n))
        _check(_rel(v, c0 / (1.0 - r)) <= 1e-9, f"oracle n={n} r={r}")
    return run


def _disk_op(r, theta):
    # in the plane the constant does not depend on the direction
    def run():
        v, _ = po.directional_constant_with_error(po.DirectionalQuery(2, r, theta))
        _check(_rel(v, cf.disk_constant(r)) <= 1e-12, f"oracle n=2 r={r} theta={theta}")
    return run


def _mc_op(r, seed):
    def run():
        sq = po.SphereQuadrature(method="monte_carlo", samples=200_000, seed=seed)
        v, se = po.directional_constant_with_error(po.DirectionalQuery(4, r, 0.0), sq)
        _check(abs(v - cf.gradient_bound(r)) <= 5.0 * se, f"Monte Carlo r={r}")
    return run


def _warm_quadrature():
    p = cf.EvalPoint(0.5, 0.7)
    v, _ = ki.psi_numeric(p, 1, ki.ParamSet.from_radius(0.5, 4))
    _check(abs(v - cf.psi_closed(p, 1)) <= 1e-10 * (1.0 + abs(v)), "psi_numeric")


def _point_pass(ctx, k):
    rng = ctx.rng(k)
    ops = []
    for r in _strata(rng, 6):
        ops.append(("c_numeric_n4", _c4_op(r, float(rng.uniform(0.0, 3.0)))))
    for r in _strata(rng, 3):
        z = float(rng.uniform(0.0, 3.0))
        ops += [("psi_numeric_n4", _psi_op(r, z, 1)), ("psi_numeric_n4", _psi_op(r, z, -1))]
    for r in _strata(rng, 3):
        ops.append(("c_numeric_n3_schemes", _n3_schemes_op(r, float(rng.uniform(0.0, 3.0)))))
    for n in (3, 5):
        ops += [(f"oracle_n{n}", _radial_op(n, r)) for r in _strata(rng, 3)]
    for r in _strata(rng, 3):
        ops.append(("oracle_n2", _disk_op(r, float(rng.uniform(0.0, math.pi / 2.0)))))
    # Monte Carlo stops at r = 0.75: nearer the sphere the integrand is
    # heavy-tailed and the reported standard error too small (at r = 0.95,
    # 4 of 60 seeded 200k-sample queries missed by 5 to 6.8 of them), so
    # the 5-error check would fail at random rather than on a regression
    for r in _strata(rng, 2, hi=0.75):
        ops.append(("oracle_mc_n4", _mc_op(r, int(rng.integers(2**31)))))
    return ops


Workload = namedtuple("Workload", ["warmup", "make_pass"])

WORKLOADS = {
    "direction_sweep": Workload(_warm_oracle, _sweep_pass),
    "verify_suites": Workload(_warm_closed, _suite_pass),
    "point_oracles": Workload(_warm_quadrature, _point_pass),
}
