"""Brute-force sphere-integration oracle.

Every frozen number here was produced by a separate 30+ digit mpmath
evaluation of the same surface integral (with the polar kink located and
split by bisection), so the fast product-rule path is being compared
against an implementation that shares no code with it.  The 2-D product
rule below, from the kernel that Monte Carlo samples, is a second
reference that shares none of the exact azimuthal integral's derivation.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

from ballgrad import (
    DirectionalQuery,
    EvalPoint,
    SphereQuadrature,
    c_at_zero,
    disk_constant,
    gradient_bound,
    halfspace_constant,
)
from ballgrad import _kernels_py, poisson_oracle
from ballgrad._kernels_py import grad_dot_batch
from ballgrad.closedform4 import _c_closed_arr
from ballgrad.kernelint import ParamSet, c_numeric, sphere_area
from ballgrad.cli import main
from ballgrad.proofcheck import conjecture_report, locate_sup
from ballgrad.poisson_oracle import (
    _gauss_legendre,
    _kink_points,
    _piece_rule,
    _polar_integrals,
    _polar_pieces,
    best_direction,
    direction_profile,
    directional_constant,
    directional_constant_with_error,
    kernel_mass,
    poisson_gradient,
    poisson_kernel,
)

SQ = SphereQuadrature()

# (n, r, theta) -> directional constant, mpmath product-rule evaluations
ORACLE_REF = {
    (4, 0.5, math.pi / 4): 2.1992661883736835408115352956425,
    (4, 0.7, 0.3): 3.2631316260897871595292203208244,
    (3, 0.4, 0.0): 1.7935816213552350638227338867536,
    (3, 0.4, math.pi / 3): 1.7607544025925640342095414907021,
    (5, 0.5, 0.0): 2.4494075287311971817956267226803,
    # exactly tangential
    (4, 0.3, math.pi / 2): 1.8315272510435661107038431669,
    (4, 0.5, math.pi / 2): 2.14593690038751695251873933055,
    (3, 0.5, math.pi / 2): 1.93537502252050327406198004259,
}


@pytest.mark.parametrize("key,expected", sorted(ORACLE_REF.items()))
def test_directional_constant_frozen(key, expected):
    n, r, theta = key
    got = directional_constant(DirectionalQuery(n, r, theta), SQ)
    assert abs(got - expected) / expected < 1e-10


@pytest.mark.parametrize("r", [0.1, 0.3, 0.6, 0.9])
def test_radial_direction_matches_closed_form(r):
    """theta = 0 must reproduce the four-dimensional sharp bound."""
    got = directional_constant(DirectionalQuery(4, r, 0.0), SQ)
    assert abs(got - gradient_bound(r)) / gradient_bound(r) < 1e-12


@pytest.mark.parametrize("n", [3, 5])
def test_radial_direction_matches_quadrature(n):
    """Independent paths: sphere product rule vs profile-integral quadrature."""
    r = 0.45
    got = directional_constant(DirectionalQuery(n, r, 0.0), SQ)
    val, _ = c_numeric(EvalPoint(r, 0.0), ParamSet.from_radius(r, n))
    assert abs(got - val / (1.0 - r)) / got < 1e-9


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_profile_quadrature_is_the_oracle_at_arctan_z(n):
    """C(z, r) = (1 - r) C_oracle(n, r, arctan z) off the axis: the
    profile-integral quadrature against the exact-azimuth oracle, the
    profile ``locate_sup`` maximizes for n != 4."""
    zs = [0.0, 0.3, 1.0, 3.0, 10.0]
    for r in (0.1, 0.5, 0.9):
        profile = best_direction(n, r, np.arctan(zs)).profile
        for z, (_, value) in zip(zs, profile):
            c, _ = c_numeric(EvalPoint(r, z), ParamSet.from_radius(r, n))
            assert abs(c - (1.0 - r) * value) <= 1e-13 * c, (r, z)


@pytest.mark.parametrize("r", [0.05, 0.3, 0.5, 0.9, 0.99])
def test_closed_form_is_the_oracle_off_the_axis(r):
    """The n = 4 closed form C(tan theta, r) against (1 - r) times the
    oracle's direction profile, up to theta = 0.999 pi/2."""
    thetas = np.linspace(0.0, 0.999 * math.pi / 2.0, 50)
    oracle = (1.0 - r) * np.array([v for _, v in
                                   best_direction(4, r, thetas).profile])
    closed = _c_closed_arr(r, np.tan(thetas))
    assert np.max(np.abs(closed - oracle) / oracle) <= 1e-12


@pytest.mark.parametrize("r", [0.99, 0.999, 0.9999])
def test_radial_direction_near_the_sphere(r):
    """theta = 0 up to 1e-4 from the sphere: the graded pieces resolve the
    peak at e_n, and alpha and rho^2 formed from sin^2(phi/2) do not
    cancel (with alpha = c0 + a1 cos(phi) the error at 0.9999 was 2.5e-9)."""
    got = directional_constant(DirectionalQuery(4, r, 0.0), SQ)
    assert abs(got - gradient_bound(r)) / gradient_bound(r) < 1e-12


def test_radial_boundary_limit_is_halfspace_constant():
    """Near the sphere (1 - r) C tends to the n = 4 half-space constant.

    Quadratic extrapolation in s = 1 - r from s = 1e-4, 2e-4 and 4e-4 to
    s = 0; the limit is frak_c(1)/2 = 3 sqrt(3)/(2 pi), so
    frak_c(1) = 3 sqrt(3)/pi.
    """
    s1, s2, s3 = 1e-4, 2e-4, 4e-4
    f1, f2, f3 = (s * directional_constant(DirectionalQuery(4, 1.0 - s, 0.0), SQ)
                  for s in (s1, s2, s3))
    limit = (f1 * s2 * s3 / ((s1 - s2) * (s1 - s3))
             + f2 * s1 * s3 / ((s2 - s1) * (s2 - s3))
             + f3 * s1 * s2 / ((s3 - s1) * (s3 - s2)))
    assert abs(limit - halfspace_constant(4)) < 1e-11


def test_near_tangential_continuity():
    """The tangential query joins its neighbours: its kinks sit at the
    poles, and a last-bit negative cos(theta) folds to C(x, -v)."""
    a = directional_constant(DirectionalQuery(4, 0.5, math.pi / 2), SQ)
    b = directional_constant(DirectionalQuery(4, 0.5, math.pi / 2 - 1e-5), SQ)
    assert abs(a - b) < 1e-3


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("r", [0.0, 0.5, 0.95])
def test_kernel_mass_is_one(n, r):
    assert abs(kernel_mass(r, n) - 1.0) < 1e-12


def test_disk_direction_independence():
    """In the plane the directional constant does not depend on direction."""
    vals = [directional_constant(DirectionalQuery(2, 0.6, t), SQ)
            for t in (0.0, 0.7, math.pi / 2)]
    assert max(vals) - min(vals) < 1e-13 * vals[0]
    assert abs(vals[0] - disk_constant(0.6)) / vals[0] < 1e-12


def test_center_constant_direction_free():
    """At the center every direction is normal, and the theta = 0 value
    at 128 nodes per piece is 16/(3 pi)."""
    got = _polar_integrals(4, 0.0, _polar_pieces(4, 0.0, [0.0]), 128)[0]
    assert abs(got - 16.0 / (3.0 * math.pi)) < 1e-12


def test_monte_carlo_reproducible_and_consistent():
    q = DirectionalQuery(4, 0.5, 0.0)
    mc = SphereQuadrature(method="monte_carlo", samples=200_000, seed=11)
    v1, s1 = directional_constant_with_error(q, mc)
    v2, s2 = directional_constant_with_error(q, mc)
    assert (v1, s1) == (v2, s2)  # counter-based generator, same stream
    v3, _ = directional_constant_with_error(
        q, SphereQuadrature(method="monte_carlo", samples=200_000, seed=12))
    assert v1 != v3
    assert directional_constant(q, mc) == v1
    exact = directional_constant(q, SQ)
    assert s1 > 0.0
    assert abs(v1 - exact) < 5.0 * s1


def _one_shot_mc_columns(n, samples, seed):
    """The Monte Carlo draw in one shot, zeta_n and zeta_1 of the sample:
    one (samples, 2) normal draw of (g_1, g_n), and the other n - 2
    squared coordinates of g as one chi-square draw, 2 Gamma((n-2)/2),
    from the seed's jumped stream."""
    bits = np.random.Philox(seed)
    # jumped before the normal draw advances the state
    chi2 = 2.0 * np.random.Generator(bits.jumped()).standard_gamma(
        0.5 * (n - 2), samples)
    g = np.random.Generator(bits).standard_normal((samples, 2))
    norm = np.sqrt(chi2 + g[:, 0] ** 2 + g[:, 1] ** 2)
    return g[:, 1] / norm, g[:, 0] / norm


@pytest.mark.parametrize("samples", [2, 1000, poisson_oracle._BLOCK,
                                     poisson_oracle._BLOCK + 1, 200_003])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_monte_carlo_blocks_equal_the_one_shot_draw(n, samples):
    """Drawn and evaluated in row blocks, the estimate and its standard
    error equal the one-shot formula's bit for bit."""
    sq = SphereQuadrature(method="monte_carlo", samples=samples)
    polar, lateral = _one_shot_mc_columns(n, samples, sq.seed)
    for r in (0.0, 0.5, 0.95):
        for theta in (0.0, 0.3, math.pi / 2):
            g = np.abs(grad_dot_batch(polar, lateral, 1.0, r, n,
                                      math.cos(theta), math.sin(theta)))
            expected = (float(np.mean(g)),
                        float(np.std(g, ddof=1) / math.sqrt(samples)))
            got = directional_constant_with_error(
                DirectionalQuery(n, r, theta), sq)
            assert got == expected, (r, theta)


def test_monte_carlo_query_makes_one_kernel_call_per_block(monkeypatch):
    """A 200k-sample query is 13 blocks of at most _BLOCK rows, one
    gradient-kernel call each, and no call of the product-rule kernel."""
    calls = _count_kernel_calls(monkeypatch)
    directional_constant_with_error(
        DirectionalQuery(4, 0.5, 0.3),
        SphereQuadrature(method="monte_carlo", samples=200_000))
    assert calls == ["grad_dot_batch"] * 13


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_monte_carlo_sample_has_the_law_of_the_sphere(monkeypatch, n):
    """The (zeta_n, zeta_1) that a 200k-sample query hands the kernel lie
    in the unit disk, and their moments are those of the uniform sphere
    within 5 of their standard errors: E zeta_i^2 = 1/n,
    E zeta_n zeta_1 = 0, E zeta_n^4 = 3/(n(n+2)) and
    E zeta_n^2 zeta_1^2 = 1/(n(n+2)).  At r = 0.05, 0.5 and 0.75 the
    query meets the product rule within 5 of its standard errors."""
    sq = SphereQuadrature(method="monte_carlo", samples=200_000)
    drawn = []

    def recorded(cphi, sphi, *args, _original=_kernels_py.grad_dot_batch):
        drawn.append((cphi.copy(), sphi.copy()))
        return _original(cphi, sphi, *args)

    monkeypatch.setattr(_kernels_py, "grad_dot_batch", recorded)
    for r in (0.05, 0.5, 0.75):
        for theta in (0.0, 0.7):
            q = DirectionalQuery(n, r, theta)
            v, se = directional_constant_with_error(q, sq)
            assert abs(v - directional_constant(q, SQ)) <= 5.0 * se, (r, theta)
    # every query draws the same sample: the first query's 13 blocks
    polar, lateral = (np.concatenate(c) for c in zip(*drawn[:13]))
    assert polar.size == sq.samples
    # 4 eps for rounding: at n = 2 the pair is on the unit circle
    assert np.max(polar ** 2 + lateral ** 2) <= 1.0 + 4.0 * np.finfo(float).eps
    moments = [(polar ** 2, 1.0 / n), (lateral ** 2, 1.0 / n),
               (polar * lateral, 0.0), (polar ** 4, 3.0 / (n * (n + 2))),
               (polar ** 2 * lateral ** 2, 1.0 / (n * (n + 2)))]
    for k, (x, expected) in enumerate(moments):
        se = np.std(x, ddof=1) / math.sqrt(x.size)
        assert abs(np.mean(x) - expected) <= 5.0 * se, k


def test_monte_carlo_query_memory_peak():
    """A 200k-sample query holds the |F| array (8 bytes per point), whose
    standard error is taken in place, and one block's draw and kernel
    temporaries: 3.62 MiB traced in a fresh process, where a block of n
    normals per row peaked at 3.997 MiB (5.46 MiB with a samples-long
    copy of zeta_n and zeta_1)."""
    q = DirectionalQuery(4, 0.5, 0.3)
    sq = SphereQuadrature(method="monte_carlo", samples=200_000)
    tracemalloc.start()
    try:
        directional_constant_with_error(q, sq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.xfail(strict=True, reason=(
    "known false failure: plain Monte Carlo understates its standard error "
    "near the sphere, and at r = 0.9 a 1,000-sample estimate misses the "
    "closed form by 8.27 of them, not four (ROADMAP item 12)"))
def test_monte_carlo_small_sample_within_four_standard_errors():
    """Correct code puts the Monte Carlo estimate within four standard
    errors of the closed form at the default seed, whatever the sample
    count; at 1,000 samples and r = 0.9 it does not yet (4.4625 against
    8.7499, standard error 0.518: 8.27 of them)."""
    v, se = directional_constant_with_error(
        DirectionalQuery(4, 0.9, 0.0),
        SphereQuadrature(method="monte_carlo", samples=1000))
    assert abs(v - gradient_bound(0.9)) <= 4.0 * se


def test_product_rule_error_proxy():
    v, e = directional_constant_with_error(DirectionalQuery(4, 0.5, 0.0), SQ)
    assert e < 1e-10  # node-halving difference: spectrally small here


def test_validation():
    with pytest.raises(ValueError):
        DirectionalQuery(1, 0.5, 0.0)
    with pytest.raises(ValueError):
        DirectionalQuery(4, 1.0, 0.0)
    with pytest.raises(ValueError):
        DirectionalQuery(4, -0.1, 0.0)
    with pytest.raises(ValueError):
        DirectionalQuery(4, 0.5, -0.2)
    with pytest.raises(ValueError):
        DirectionalQuery(4, 0.5, 2.0)
    with pytest.raises(ValueError):
        SphereQuadrature(method="bogus")
    with pytest.raises(ValueError, match="at least 2 samples"):
        SphereQuadrature(samples=1)
    with pytest.raises(ValueError, match="nonempty"):
        best_direction(4, 0.5, [])
    with pytest.raises(ValueError):
        kernel_mass(0.5, 1)
    with pytest.raises(ValueError, match="got 1.0"):
        kernel_mass(1.0, 4)


def test_poisson_kernel_pointwise():
    zeta = np.array([0.0, 0.0, 0.0, 1.0])
    x = np.array([0.0, 0.0, 0.0, 0.5])
    # (1 - |x|^2)/|x - zeta|^n
    assert math.isclose(poisson_kernel(x, zeta, 4), 0.75 / 0.5 ** 4, rel_tol=1e-15)
    assert poisson_kernel(np.zeros(4), zeta, 4) == 1.0
    with pytest.raises(ValueError):
        poisson_kernel(x, 0.5 * zeta, 4)  # zeta must sit on the sphere
    with pytest.raises(ValueError, match="unit sphere"):
        poisson_gradient(x, 0.5 * zeta, 4)


def test_poisson_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    zeta = rng.standard_normal(4)
    zeta /= np.linalg.norm(zeta)
    x = 0.4 * rng.standard_normal(4)
    x *= 0.8 / max(1.0, np.linalg.norm(x) / 0.4)
    g = poisson_gradient(x, zeta, 4)
    h = 6e-6
    for i in range(4):
        ei = np.zeros(4)
        ei[i] = h
        fd = (poisson_kernel(x + ei, zeta, 4) - poisson_kernel(x - ei, zeta, 4)) / (2 * h)
        assert abs(g[i] - fd) < 1e-8 * (1.0 + abs(g[i]))


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_grad_dot_kernel_matches_the_cartesian_gradient(n):
    """The kernel every oracle query integrates is <poisson_gradient, v>
    at x = r e_n, v = cos(theta) e_n + sin(theta) e_1, so the
    finite-difference checks of poisson_gradient cover it too."""
    rng = np.random.default_rng(n)
    e1, en = np.eye(n)[0], np.eye(n)[n - 1]
    for _ in range(50):
        zeta = rng.standard_normal(n)
        zeta /= np.linalg.norm(zeta)
        r = rng.uniform(0.0, 0.95)
        theta = rng.uniform(0.0, math.pi / 2)
        ct, st = math.cos(theta), math.sin(theta)
        got = grad_dot_batch(zeta[n - 1], zeta[0], 1.0, r, n, ct, st)
        ref = poisson_gradient(r * en, zeta, n) @ (ct * en + st * e1)
        assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref)), (zeta, r, theta)


def test_best_direction_normal_wins():
    grid = np.linspace(0.0, math.pi / 2, 9)
    bd = best_direction(4, 0.6, grid)
    assert bd.theta_star == 0.0
    assert conjecture_report(4, [0.6], grid).passed
    assert len(bd.profile) == 9
    values = [v for _, v in bd.profile]
    assert values[0] == max(values)
    with pytest.raises(ValueError):
        best_direction(4, 0.6, [0.1, 0.4])  # grid must contain 0


def _sign_factor(n, r, ct, st, u, cphi, sphi):
    """rho^(n+2) <grad P, v> at zeta_n = cphi, zeta_1 = sphi*u, read off
    the kernel."""
    rho2 = 1.0 - 2.0 * r * cphi + r * r
    F = grad_dot_batch(cphi, sphi, u, r, n, ct, st)
    return F * rho2 ** ((n + 2) / 2.0)


KINK_THETAS = (1e-3, math.pi / 4, math.pi / 2 - 1e-5)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("r", [0.0, 0.05, 0.5, 0.95])
@pytest.mark.parametrize("theta", KINK_THETAS)
def test_kink_points_are_the_sign_changes(n, r, theta):
    """One closed-form kink at u = -1 and one at u = +1: the zero of the
    sign factor, and the only sign change a dense scan of [0, pi] finds,
    between the poles' values of opposite sign.  The kinks come from one
    call on the array of angles, and equal a one-angle call's."""
    ct, st = math.cos(theta), math.sin(theta)
    thetas = np.array(KINK_THETAS)
    everyone = _kink_points(*poisson_oracle._sign_factor(
        n, r, np.cos(thetas), np.sin(thetas)))
    kinks = everyone[:, KINK_THETAS.index(theta)]
    alone = _kink_points(*poisson_oracle._sign_factor(
        n, r, np.array([ct]), np.array([st])))
    assert np.array_equal(alone[:, 0], kinks)
    assert 0.0 < kinks[0] < kinks[1] < math.pi
    north = ct * (1.0 - r) ** 2 * (n * (1.0 + r) - 2.0 * r)
    south = -ct * (1.0 + r) ** 2 * (2.0 * r + n * (1.0 - r))
    scan = np.linspace(0.0, math.pi, 4097)
    for u, kink in zip((-1.0, 1.0), kinks):
        g = _sign_factor(n, r, ct, st, u, np.cos(scan), np.sin(scan))
        scale = np.max(np.abs(g))
        at_kink = _sign_factor(n, r, ct, st, u, math.cos(kink), math.sin(kink))
        assert abs(at_kink) <= 1e-12 * scale
        s = np.sign(g[g != 0.0])  # a zero on a scan point is no change
        assert int(np.sum(s[:-1] * s[1:] < 0.0)) == 1, (u, kink)
        poles = _sign_factor(n, r, ct, st, u, np.array([1.0, -1.0]), 0.0)
        assert abs(poles[0] - north) <= 1e-12 * abs(north)
        assert abs(poles[1] - south) <= 1e-12 * abs(south)


def _product_rule(n, r, theta, m_polar=96, m_az=64):
    """The 2-D product rule: for each azimuthal cosine u = cos(psi), the
    polar integral of |grad_dot_batch| split at its one kink (where
    c0 + a1 cos(phi) + b1 sin(phi) = 0), then integrated in psi, split at
    pi/2 where |u| kinks in the tangential direction.  numpy's Gauss rules,
    and no exact azimuthal integral."""
    ct, st = math.cos(theta), math.sin(theta)
    xg, wg = np.polynomial.legendre.leggauss(m_polar)
    if n == 2:
        u, wu, scale = np.array([1.0, -1.0]), np.ones(2), 0.5 / math.pi
    else:
        xa, wa = np.polynomial.legendre.leggauss(m_az)
        psi = np.concatenate((math.pi / 4 * (1 + xa), math.pi / 4 * (3 + xa)))
        u = np.cos(psi)
        wu = np.tile(math.pi / 4 * wa, 2) * np.sin(psi) ** (n - 3)
        scale = sphere_area(n - 2) / sphere_area(n)
    c0 = -r * ct * (2.0 * (1.0 + r * r) + n * (1.0 - r * r))
    a1 = ct * (4.0 * r * r + n * (1.0 - r * r))
    b1 = n * (1.0 - r * r) * st * u
    R = np.hypot(a1, b1)
    kink = np.clip(np.arctan2(b1, a1) + np.arccos(np.clip(-c0 / R, -1.0, 1.0)),
                   0.0, math.pi)
    total = 0.0
    for a, b in ((np.zeros_like(kink), kink), (kink, np.full_like(kink, math.pi))):
        half = 0.5 * (b - a)
        phi = (0.5 * (a + b))[:, None] + half[:, None] * xg
        F = grad_dot_batch(np.cos(phi), np.sin(phi), u[:, None], r, n, ct, st)
        total += wu @ (half * (np.abs(F) * np.sin(phi) ** (n - 2) @ wg))
    return scale * total


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("r", [0.05, 0.5, 0.9])
def test_exact_azimuth_matches_the_product_rule(n, r):
    """The one-dimensional query against the 2-D product rule, whose
    derivation it does not share."""
    for theta in (0.0, 0.3, 0.7, 1.4, math.pi / 2):
        got = directional_constant(DirectionalQuery(n, r, theta), SQ)
        ref = _product_rule(n, r, theta)
        assert abs(got - ref) / ref < 1e-13, theta


@pytest.mark.parametrize("n", [3, 5, 7])
@pytest.mark.parametrize("r", [0.3, 0.9, 0.99, 0.9999])
def test_odd_dimension_pieces_converge(n, r):
    """For odd n the polar integrand has half-integer powers of the
    distance to a kink; mapped to smooth ends, 24 nodes per piece agree
    with 200."""
    thetas = (0.3, 0.7, 1.4)
    pieces = _polar_pieces(n, r, thetas)
    coarse = _polar_integrals(n, r, pieces, 24)
    fine = _polar_integrals(n, r, pieces, 200)
    for theta, c, f in zip(thetas, coarse, fine):
        assert abs(c - f) / f < 1e-14, theta


def _count_kernel_calls(monkeypatch):
    """Record, by name, every call of the two oracle kernels."""
    calls = []
    for name in ("polar_integrand_batch", "grad_dot_batch"):
        def counted(*args, _name=name, _original=getattr(_kernels_py, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(_kernels_py, name, counted)
    return calls


def test_product_query_makes_one_kernel_call(monkeypatch):
    """A product-rule query is one polar integral: one kernel call over
    every piece, and no call of the Monte Carlo kernel."""
    calls = _count_kernel_calls(monkeypatch)
    for n in (2, 3, 4):
        calls.clear()
        directional_constant(DirectionalQuery(n, 0.9999, 0.7), SQ)
        assert calls == ["polar_integrand_batch"]


SWEEP_GRID = np.linspace(0.0, math.pi / 2, 50)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("r", [0.0, 0.05, 0.5, 0.9, 0.9999])
def test_best_direction_profile_is_the_one_angle_queries(n, r):
    """The batched profile, on a grid with theta = 0 (merged kinks) and
    pi/2 (kinks at the poles), equals one query per angle bit for bit;
    so does the allowance, from the one-angle error proxies."""
    bd = best_direction(n, r, SWEEP_GRID)
    assert SWEEP_GRID[0] == 0.0 and SWEEP_GRID[-1] == math.pi / 2
    assert bd.profile == tuple(
        (t, directional_constant(DirectionalQuery(n, r, t), SQ))
        for t in SWEEP_GRID.tolist())
    errs = [directional_constant_with_error(DirectionalQuery(n, r, t), SQ)[1]
            for t in (0.0, bd.theta_star)]
    assert bd.allowance == errs[0] + errs[1] + 1e-9


def test_best_direction_makes_two_kernel_calls(monkeypatch):
    """A product-rule profile is one kernel call over every angle, and its
    error proxies at theta = 0 and the argmax one more."""
    calls = _count_kernel_calls(monkeypatch)
    best_direction(4, 0.05, SWEEP_GRID)
    assert calls == ["polar_integrand_batch"] * 2


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
@pytest.mark.parametrize("r", [0.0, 0.05, 0.5, 0.9, 0.9999])
def test_best_direction_allowance_is_the_fresh_node_halving_deltas(n, r):
    """The allowance, from the profile's own pieces at theta = 0 and the
    argmax, equals bit for bit the deltas against a fresh 24-node
    integral of each of the two angles alone, plus 1e-9."""
    bd = best_direction(n, r, SWEEP_GRID)
    values = dict(bd.profile)
    deltas = [abs(values[t]
                  - _polar_integrals(n, r, _polar_pieces(n, r, [t]), 24)[0])
              for t in (0.0, bd.theta_star)]
    assert bd.allowance == deltas[0] + deltas[1] + 1e-9


def test_query_with_error_builds_its_pieces_once(monkeypatch):
    """The value and its node-halving proxy integrate the same pieces."""
    built = []

    def counted(*args, _original=poisson_oracle._polar_pieces):
        built.append(args)
        return _original(*args)

    monkeypatch.setattr(poisson_oracle, "_polar_pieces", counted)
    directional_constant_with_error(DirectionalQuery(4, 0.5, 0.3))
    assert len(built) == 1


def test_verify_oracle_makes_one_kernel_call_per_query(monkeypatch, capsys):
    """The oracle suite reads only the values of its six product-rule
    queries (disk center and five n = 4 radii): no error proxies."""
    calls = _count_kernel_calls(monkeypatch)
    assert main(["verify", "oracle", "--json", "--no-timing"]) == 0
    capsys.readouterr()
    assert calls == ["polar_integrand_batch"] * 6


BAD_QUERY_ARGS = [
    (1, 0.5, None), (2.5, 0.5, None),
    (4, -0.1, None), (4, 1.0, None),
    (4, 0.5, -1e-3), (4, 0.5, math.pi / 2 + 1e-12),
]


# ids as the suite printed them when the rule was a parameter, so each
# case's results stay under one name across versions
@pytest.mark.parametrize("n,r,bad_theta", BAD_QUERY_ARGS,
                         ids=[f"product-{n}-{r}-{t}" for n, r, t in BAD_QUERY_ARGS])
def test_best_direction_validates_like_a_query(monkeypatch, n, r, bad_theta):
    """A bad dimension, radius or angle raises the ValueError that
    DirectionalQuery raises for it, before any kernel call, in a profile
    and in its maximization."""
    theta = 0.3 if bad_theta is None else bad_theta
    with pytest.raises(ValueError) as expected:
        DirectionalQuery(n, r, theta)
    calls = _count_kernel_calls(monkeypatch)
    for profile in (best_direction, direction_profile):
        with pytest.raises(ValueError) as got:
            profile(n, r, [0.0, 0.3, theta])
        assert str(got.value) == str(expected.value)
    assert calls == []


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("r", [0.0, 0.5, 0.9999])
def test_direction_profile_is_the_best_direction_profile(monkeypatch, n, r):
    """One kernel call gives best_direction's profile, bit for bit."""
    calls = _count_kernel_calls(monkeypatch)
    values = direction_profile(n, r, SWEEP_GRID)
    assert calls == ["polar_integrand_batch"]
    assert tuple(zip(SWEEP_GRID.tolist(), values)) \
        == best_direction(n, r, SWEEP_GRID).profile


def test_locate_sup_other_dimension_one_kernel_call_per_radius(monkeypatch):
    """For n != 4 each radius's profile is one direction_profile call: no
    error proxies that nothing reads."""
    calls = _count_kernel_calls(monkeypatch)
    locate_sup(np.array([0.2, 0.5, 0.8]), n=3)
    assert calls == ["polar_integrand_batch"] * 3


def test_gauss_rules_cached_read_only():
    rules = [_gauss_legendre(96), _piece_rule(48, False), _piece_rule(48, True)]
    for x, w in rules:
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0
    assert _gauss_legendre(96) is rules[0]
    assert _piece_rule(48, True) is rules[2]


def _mp_gegenbauer_rule(m, alpha, x0):
    """m-point Gauss rule for the weight (1-x^2)^(alpha-1/2), alpha > 0, at
    the working precision: each node of ``x0`` refined by a Newton step on
    the Gegenbauer polynomial C_m^(alpha), from the recurrence
    (k+1) C_(k+1) = 2 (k+alpha) x C_k - (k+2alpha-1) C_(k-1), and each
    weight from the Christoffel sum 1 / sum_(k<m) C_k(x)^2 / h_k with the
    norms h_k = pi 2^(1-2alpha) Gamma(k+2alpha) / (k! (k+alpha) Gamma(alpha)^2).
    Returns the nodes, the weights and the Newton steps that would come
    next."""
    mp = mpmath.mp
    a = mp.mpf(alpha)
    A = [2 * (k + a) / (k + 1) for k in range(m)]
    B = [(k + 2 * a - 1) / (k + 1) for k in range(m)]
    inv_h = [mp.factorial(k) * (k + a) * mp.gamma(a) ** 2
             / (mp.pi * mp.mpf(2) ** (1 - 2 * a) * mp.gamma(k + 2 * a))
             for k in range(m)]

    def evaluate(x):
        c_prev, c, d_prev, d, total = 0, mp.mpf(1), 0, 0, 0
        for k in range(m):
            total += inv_h[k] * c * c
            c_prev, c, d_prev, d = (c, A[k] * x * c - B[k] * c_prev,
                                    d, A[k] * (c + x * d) - B[k] * d_prev)
        return c / d, total

    nodes, weights, steps = [], [], []
    for x in x0:
        x = mp.mpf(float(x))
        x -= evaluate(x)[0]
        step, total = evaluate(x)
        nodes.append(x)
        weights.append(1 / total)
        steps.append(step)
    return nodes, weights, steps


@pytest.mark.parametrize("m", [32, 48, 64, 96, 128], ids="legendre{}".format)
def test_gauss_rules_match_40_digit_rules(m):
    """Nodes within 2e-16 and weights within 1e-13 relative of a 40-digit
    rule.  Its nodes are m distinct roots, so the rule has all of them."""
    x, w = _gauss_legendre(m)
    assert np.all(np.diff(x) > 0.0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    with mpmath.workdps(40):
        nodes, weights, steps = _mp_gegenbauer_rule(m, 0.5, x)
        assert max(abs(s) for s in steps) < 1e-25
        assert all(b > a for a, b in zip(nodes, nodes[1:]))
        node_err = max(abs(xi - ref) for xi, ref in zip(x, nodes))
        weight_err = max(abs(wi / ref - 1) for wi, ref in zip(w, weights))
    assert node_err <= 2e-16
    assert weight_err <= 1e-13


@pytest.mark.parametrize("n,r", [
    (4, 0.5),
    (2, 0.9),  # flat profile: the argmax is an interior angle
], ids=["4-0.5-sq0", "2-0.9-sq1"])  # ids kept, as above
def test_best_direction_allowance_from_error_proxies(n, r):
    """The profile repeats, and the allowance is the two error measures
    that directional_constant_with_error reports, plus 1e-9."""
    grid = np.linspace(0.0, math.pi / 2, 9)
    bd = best_direction(n, r, grid)
    assert best_direction(n, r, grid).profile == bd.profile
    _, err0 = directional_constant_with_error(DirectionalQuery(n, r, 0.0))
    _, errs = directional_constant_with_error(DirectionalQuery(n, r, bd.theta_star))
    assert bd.allowance == err0 + errs + 1e-9
