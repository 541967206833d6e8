"""Brute-force sphere-integration oracle.

Every frozen number here was produced by a separate 30+ digit mpmath
evaluation of the same surface integral (with the polar kink located and
split by bisection), so the fast product-rule path is being compared
against an implementation that shares no code with it.
"""

import math

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
from ballgrad._kernels_py import grad_dot_batch
from ballgrad.kernelint import ParamSet, QuadratureSpec, c_numeric
from ballgrad.poisson_oracle import (
    _azimuthal_rule,
    _gauss_legendre,
    _kink_points,
    best_direction,
    directional_constant,
    directional_constant_vector,
    directional_constant_with_error,
    extremal_check,
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
    # exactly tangential: the azimuthal |u| moment is integrated exactly
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
    val, _ = c_numeric(EvalPoint(r, 0.0), ParamSet.from_radius(r, n),
                       QuadratureSpec(abs_tol=1e-11, rel_tol=1e-11))
    assert abs(got - val / (1.0 - r)) / got < 1e-9


def test_radial_boundary_limit_is_halfspace_constant():
    """Near the sphere (1 - r) C tends to the n = 4 half-space constant.

    Linear extrapolation in s = 1 - r from r = 0.98 and 0.99 to s = 0;
    the limit is frak_c(1)/2 = 3 sqrt(3)/(2 pi), so frak_c(1) = 3 sqrt(3)/pi.
    """
    s1, s2 = 0.01, 0.02
    f1 = s1 * directional_constant(DirectionalQuery(4, 1.0 - s1, 0.0), SQ)
    f2 = s2 * directional_constant(DirectionalQuery(4, 1.0 - s2, 0.0), SQ)
    limit = (s2 * f1 - s1 * f2) / (s2 - s1)
    assert abs(limit - halfspace_constant(4)) < 1e-4

def test_near_tangential_continuity():
    """The exact-moment tangential path must join the generic path."""
    a = directional_constant(DirectionalQuery(4, 0.5, math.pi / 2), SQ)
    b = directional_constant(DirectionalQuery(4, 0.5, math.pi / 2 - 1e-5), SQ)
    assert abs(a - b) < 1e-3


def test_extremal_check_consistent():
    """Sign-resolved integration reproduces |.|-integration at theta = 0."""
    for n, r in ((4, 0.5), (3, 0.3)):
        a = extremal_check(n, r, SQ)
        b = directional_constant(DirectionalQuery(n, r, 0.0), SQ)
        assert abs(a - b) / b < 1e-13


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
    sq = SphereQuadrature(nodes_polar=128)
    got = directional_constant_vector(np.zeros(4), np.array([0.3, -1.0, 0.2, 0.5]), sq)
    assert abs(got - 16.0 / (3.0 * math.pi)) < 1e-12


def test_vector_interface_folds_to_canonical_query():
    rng = np.random.default_rng(7)
    e = rng.standard_normal(4)
    e /= np.linalg.norm(e)
    f = rng.standard_normal(4)
    f -= (f @ e) * e
    f /= np.linalg.norm(f)
    r, theta = 0.55, 0.9
    v = math.cos(theta) * e + math.sin(theta) * f
    ref = directional_constant(DirectionalQuery(4, r, theta), SQ)
    assert directional_constant_vector(r * e, 3.7 * v, SQ) == ref  # scale-free
    assert directional_constant_vector(r * e, -v, SQ) == ref       # obtuse folds


def test_monte_carlo_reproducible_and_consistent():
    q = DirectionalQuery(4, 0.5, 0.0)
    mc = SphereQuadrature(method="monte_carlo", samples=200_000, seed=11)
    v1, s1 = directional_constant_with_error(q, mc)
    v2, s2 = directional_constant_with_error(q, mc)
    assert (v1, s1) == (v2, s2)  # counter-based generator, same stream
    v3, _ = directional_constant_with_error(
        q, SphereQuadrature(method="monte_carlo", samples=200_000, seed=12))
    assert v1 != v3
    exact = directional_constant(q, SQ)
    assert s1 > 0.0
    assert abs(v1 - exact) < 5.0 * s1


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
    with pytest.raises(ValueError):
        directional_constant_vector(np.array([1.2, 0, 0, 0]), np.ones(4), SQ)
    with pytest.raises(ValueError):
        directional_constant_vector(np.zeros(4), np.zeros(4), SQ)
    with pytest.raises(ValueError):
        kernel_mass(0.5, 1)


def test_poisson_kernel_pointwise():
    zeta = np.array([0.0, 0.0, 0.0, 1.0])
    x = np.array([0.0, 0.0, 0.0, 0.5])
    # (1 - |x|^2)/|x - zeta|^n
    assert math.isclose(poisson_kernel(x, zeta, 4), 0.75 / 0.5 ** 4, rel_tol=1e-15)
    assert poisson_kernel(np.zeros(4), zeta, 4) == 1.0
    with pytest.raises(ValueError):
        poisson_kernel(x, 0.5 * zeta, 4)  # zeta must sit on the sphere


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


def test_best_direction_normal_wins():
    grid = np.linspace(0.0, math.pi / 2, 9)
    bd = best_direction(4, 0.6, grid, SQ)
    assert bd.theta_star == 0.0
    assert not bd.conjecture_violation
    assert len(bd.profile) == 9
    values = [v for _, v in bd.profile]
    assert values[0] == max(values)
    with pytest.raises(ValueError):
        best_direction(4, 0.6, [0.1, 0.4], SQ)  # grid must contain 0


def _sign_factor(n, r, ct, st, u, phi):
    """rho^(n+2) <grad P, v>, read off the kernel."""
    phi = np.asarray(phi, dtype=float)
    cphi, sphi = np.cos(phi), np.sin(phi)
    rho2 = 1.0 - 2.0 * r * cphi + r * r
    F = grad_dot_batch(cphi, sphi, u, r, n, ct, st, np.empty_like(phi))
    return F * rho2 ** ((n + 2) / 2.0)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("r", [0.0, 0.05, 0.5, 0.95])
@pytest.mark.parametrize("theta", [1e-3, math.pi / 4, math.pi / 2 - 1e-5])
def test_kink_points_are_the_sign_changes(n, r, theta):
    """Closed-form kinks: zeros of the sign factor, and every sign change
    a dense scan of [0, pi] finds (pi pads a missing kink)."""
    ct, st = math.cos(theta), math.sin(theta)
    us = np.array([-1.0, 0.0, 0.3, 1.0])
    kinks = _kink_points(n, r, ct, st, us)
    assert kinks.shape == (4, 2)
    scan = np.linspace(0.0, math.pi, 4097)
    for u, row in zip(us, kinks):
        real = row[row < math.pi]
        g = _sign_factor(n, r, ct, st, u, scan)
        scale = np.max(np.abs(g))
        assert np.all(real > 0.0)
        assert np.all(np.abs(_sign_factor(n, r, ct, st, u, real)) <= 1e-12 * scale)
        s = np.sign(g[g != 0.0])  # a zero on a scan point is no change
        changes = int(np.sum(s[:-1] * s[1:] < 0.0))
        assert changes == real.size, (u, row)


def test_gauss_rules_cached_read_only():
    rules = [_gauss_legendre(96)] + [_azimuthal_rule(n, 64) for n in (3, 4, 5, 6)]
    for x, w in rules:
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 0.0
    assert _gauss_legendre(96) is rules[0]
    assert _azimuthal_rule(4, 64) is rules[2]


@pytest.mark.parametrize("n,r,sq", [
    (4, 0.5, SQ),
    (2, 0.9, SQ),  # flat profile: the argmax is an interior angle
    (4, 0.5, SphereQuadrature(method="monte_carlo", samples=2_000, seed=5)),
])
def test_best_direction_allowance_from_error_proxies(n, r, sq):
    """The profile repeats, and the allowance is the two error measures
    that directional_constant_with_error reports, plus 1e-9."""
    grid = np.linspace(0.0, math.pi / 2, 9)
    bd = best_direction(n, r, grid, sq)
    assert best_direction(n, r, grid, sq).profile == bd.profile
    _, err0 = directional_constant_with_error(DirectionalQuery(n, r, 0.0), sq)
    _, errs = directional_constant_with_error(DirectionalQuery(n, r, bd.theta_star), sq)
    assert bd.allowance == err0 + errs + 1e-9
