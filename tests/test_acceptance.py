"""Acceptance gate: one test per shipping criterion, one summary line each.

Each test prints (and registers for the terminal summary) a single
PASS/FAIL line with the measured worst deviation and runtime, then
asserts.  Criterion 1 checks the two ends of the profile.  At r = 0,
frak_c(0) = 16/(3*pi).  At r = 1, frak_c(1) = 3*sqrt(3)/pi, so the
quoted constant 3*sqrt(3)/(2*pi) is frak_c(1)/2: the boundary value of
c_at_zero(r) = frak_c(r)/(1 + r), which also equals the n = 4
half-space constant, as the bound frak_c(r)/(1 - r^2) must turn into
C_4/(1 - r) near the sphere.
"""

import math
import subprocess
import sys
import time

import numpy as np

from ballgrad import (
    DirectionalQuery,
    EvalPoint,
    SphereQuadrature,
    c_at_zero,
    c_closed,
    frak_c,
    gradient_bound,
    halfspace_constant,
    psi_closed,
)
from ballgrad.kernelint import ParamSet, c_numeric, psi_numeric
from ballgrad.poisson_oracle import (
    directional_constant,
    kernel_mass,
    poisson_gradient,
    poisson_kernel,
)
from ballgrad.proofcheck import (
    DERIVATIVE_SUITE,
    conjecture_report,
    locate_sup,
    run_identity_suite,
    run_inequality_suite,
)

ACCEPTANCE_LOG = []


def record(criterion, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}"
    ACCEPTANCE_LOG.append((criterion, line))
    print(line)
    return ok


def test_criterion_01_endpoint_constants():
    t0 = time.perf_counter()
    dev0 = abs(frak_c(0.0) - 16.0 / (3.0 * math.pi))
    dev1 = abs(frak_c(1.0) / 2.0 - 3.0 * math.sqrt(3.0) / (2.0 * math.pi))
    elapsed = time.perf_counter() - t0
    per_call = elapsed / 2.0
    ok = dev0 <= 1e-12 and dev1 <= 1e-12 and per_call < 1e-3
    # the quoted 3sqrt3/(2pi) is frak_c(1)/2, the boundary value of
    # c_at_zero; it also equals the n = 4 half-space constant
    limit0 = abs(c_at_zero(1.0 - 1e-9) - 3.0 * math.sqrt(3.0) / (2.0 * math.pi))
    record(1, ok,
           f"endpoints: |frak_c(0)-16/(3pi)|={dev0:.2e}, "
           f"|frak_c(1)/2-3sqrt3/(2pi)|={dev1:.2e} (tol 1e-12), "
           f"{per_call * 1e6:.1f}us/call; c_at_zero(1-1e-9) deviates {limit0:.1e}")
    assert dev0 <= 1e-12
    assert dev1 <= 1e-12, (
        f"frak_c(1)/2 = {frak_c(1.0) / 2.0!r} should be the boundary value of "
        f"c_at_zero, 3sqrt3/(2pi) = {3.0 * math.sqrt(3.0) / (2.0 * math.pi)!r} "
        f"(the n = 4 half-space constant, so frak_c(1) = 3sqrt3/pi); "
        f"it differs by {dev1:.2e}")
    assert per_call < 1e-3


def test_criterion_02_halfspace_constants():
    t0 = time.perf_counter()
    dev4 = abs(halfspace_constant(4) - 3.0 * math.sqrt(3.0) / (2.0 * math.pi))
    dev2 = abs(halfspace_constant(2) - 2.0 / math.pi)
    elapsed = time.perf_counter() - t0
    per_call = elapsed / 2.0
    ok = dev4 <= 1e-12 and dev2 <= 1e-12 and per_call < 1e-3
    record(2, ok, f"half-space: n=4 dev={dev4:.2e}, n=2 dev={dev2:.2e} "
                  f"(tol 1e-12), {per_call * 1e6:.1f}us/call")
    assert ok


def test_criterion_03_closed_form_vs_integral():
    t0 = time.perf_counter()
    rs = np.linspace(0.05, 0.95, 20)
    zs = np.linspace(0.0, 6.0, 20)
    worst_psi = 0.0
    worst_c = 0.0
    for r in rs:
        ps = ParamSet.from_radius(r, 4)
        for z in zs:
            p = EvalPoint(r, z)
            for sign in (1, -1):
                ref = psi_closed(p, sign)
                val, _ = psi_numeric(p, sign, ps)
                worst_psi = max(worst_psi, abs(val - ref))
            ref = c_closed(p)
            val, _ = c_numeric(p, ps)
            worst_c = max(worst_c, abs(val - ref) / abs(ref))
    elapsed = time.perf_counter() - t0
    ok = worst_psi <= 1e-10 and worst_c <= 1e-9 and elapsed < 30.0
    record(3, ok, f"20x20 grid: |psi gap|={worst_psi:.2e} (tol 1e-10), "
                  f"c rel gap={worst_c:.2e} (tol 1e-9), {elapsed:.1f}s")
    assert ok


def test_criterion_04_sup_at_axis():
    t0 = time.perf_counter()
    worst_excess = -math.inf
    worst_z = 0.0
    for r in np.linspace(0.05, 0.95, 19):
        res = locate_sup(float(r))
        worst_excess = max(worst_excess, res.c_star / c_at_zero(float(r)) - 1.0)
        worst_z = max(worst_z, res.z_star)
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 1e-9 and worst_z <= 1e-4 and elapsed < 10.0
    record(4, ok, f"19 radii: max z*={worst_z:.2e} (tol 1e-4), "
                  f"max c*/C(0)-1={worst_excess:.2e} (tol 1e-9), {elapsed:.1f}s")
    assert ok


def test_criterion_05_oracle_equality():
    t0 = time.perf_counter()
    sq = SphereQuadrature()
    worst = 0.0
    for r in (0.1, 0.3, 0.5, 0.7, 0.9):
        got = directional_constant(DirectionalQuery(4, r, 0.0), sq)
        ref = gradient_bound(r)
        worst = max(worst, abs(got - ref) / ref)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    record(5, ok, f"oracle vs closed form at theta=0: rel dev={worst:.2e} "
                  f"(tol 1e-6), {elapsed:.1f}s")
    assert ok


def test_criterion_06_conjecture_sweep():
    t0 = time.perf_counter()
    rep = conjecture_report(4, np.linspace(0.05, 0.95, 19),
                            np.linspace(0.0, math.pi / 2, 50))
    elapsed = time.perf_counter() - t0
    ok = rep.passed and elapsed < 300.0
    record(6, ok, f"19 radii x 50 angles: worst allowance excess="
                  f"{rep.worst_violation:.2e} (must be <= 0), {elapsed:.1f}s")
    assert ok


def test_criterion_07_identity_suite():
    t0 = time.perf_counter()
    reports = run_identity_suite(tolerance=1e-7, n_points=1024)
    elapsed = time.perf_counter() - t0
    by_name = {r.case_name: r for r in reports}
    core = [by_name[name] for name in DERIVATIVE_SUITE]
    worst = max(r.worst_violation for r in core)
    ok = all(r.passed for r in reports) and worst <= 1e-7 and elapsed < 60.0
    record(7, ok, f"{len(DERIVATIVE_SUITE)} core derivative identities "
                  f"(+{len(reports) - len(DERIVATIVE_SUITE)} auxiliary): "
                  f"worst dev={worst:.2e} (tol 1e-7, 1024 points), {elapsed:.1f}s")
    assert ok


def test_criterion_08_lemma_sweeps():
    t0 = time.perf_counter()
    reports = run_inequality_suite(tolerance=1e-12)
    elapsed = time.perf_counter() - t0
    worst = max(r.worst_violation for r in reports)
    ok = all(r.passed for r in reports) and elapsed < 30.0
    record(8, ok, f"{len(reports)} inequality sweeps on 1e4-point grids: "
                  f"worst violation={worst:.2e} (tol 1e-12), {elapsed:.1f}s")
    assert ok


def test_criterion_09_oracle_self_tests():
    t0 = time.perf_counter()
    worst_mass = max(abs(kernel_mass(r, 4) - 1.0) for r in (0.0, 0.3, 0.6, 0.9))
    worst_mass = max(worst_mass,
                     max(abs(kernel_mass(r, 2) - 1.0) for r in (0.0, 0.6)))
    rng = np.random.default_rng(np.random.Philox(20220417))
    worst_fd = 0.0
    for _ in range(5):
        zeta = rng.standard_normal(4)
        zeta /= np.linalg.norm(zeta)
        x = rng.standard_normal(4)
        x *= rng.uniform(0.0, 0.8) / np.linalg.norm(x)
        g = poisson_gradient(x, zeta, 4)
        h = 6e-6
        for i in range(4):
            ei = np.zeros(4)
            ei[i] = h
            fd = (poisson_kernel(x + ei, zeta, 4)
                  - poisson_kernel(x - ei, zeta, 4)) / (2.0 * h)
            worst_fd = max(worst_fd, abs(g[i] - fd) / (1.0 + abs(g[i])))
    disk_dev = abs(directional_constant(DirectionalQuery(2, 0.0, 0.0),
                                        SphereQuadrature()) - 4.0 / math.pi)
    elapsed = time.perf_counter() - t0
    ok = worst_mass <= 1e-8 and worst_fd <= 1e-8 and disk_dev <= 1e-8 \
        and elapsed < 30.0
    record(9, ok, f"kernel mass dev={worst_mass:.2e}, grad-vs-FD dev="
                  f"{worst_fd:.2e}, disk center dev={disk_dev:.2e} "
                  f"(tol 1e-8 each), {elapsed:.1f}s")
    assert ok


def test_criterion_10_determinism():
    t0 = time.perf_counter()
    cmd = [sys.executable, "-m", "ballgrad.cli", "verify", "identities",
           "--json", "--no-timing", "--seed", "20220417"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    elapsed = time.perf_counter() - t0
    ok = a.returncode == 0 and b.returncode == 0 and a.stdout == b.stdout \
        and len(a.stdout) > 0 and elapsed < 10.0
    record(10, ok, f"repeated verify, same seed: stdout byte-identical="
                   f"{a.stdout == b.stdout} ({len(a.stdout)} bytes), {elapsed:.1f}s")
    assert ok
