"""Quadrature layer: the integral representation against the closed form.

psi_numeric and c_numeric never go through the closed-form expressions
being checked (the profile integrand is integrated directly), so
agreement here is a real cross-validation, not a tautology.  The n = 3
reference numbers were computed with 30-digit mpmath quadrature of the
same integral representation.
"""

import math

import numpy as np
import pytest

from ballgrad import EvalPoint, QuadratureError, c_closed, psi_closed
from ballgrad.backend import get_backend
from ballgrad.kernelint import (
    ParamSet,
    QuadratureSpec,
    adaptive_quad,
    c_numeric,
    psi_numeric,
    q_partial_fractions,
    sphere_area,
)

# mpmath references for the three-dimensional ball
PSI_N3_REF = {
    (0.5, 0.7, 1): 0.69701169841071899737783683356330324440704315571021,
    (0.9, 10.0, -1): 0.00136415480316614448884444285006054407373999921583,
}
C_N3_REF = {
    (0.5, 0.0): 1.0068508881177472842966522434154565923684622116256,
    (0.5, 0.7): 0.99462663661509161235410334323542309584293417198259,
}


def test_sphere_area_small_dimensions():
    assert sphere_area(1) == 2.0
    assert math.isclose(sphere_area(2), 2.0 * math.pi, rel_tol=1e-15)
    assert math.isclose(sphere_area(3), 4.0 * math.pi, rel_tol=1e-15)
    assert math.isclose(sphere_area(4), 2.0 * math.pi ** 2, rel_tol=1e-15)
    with pytest.raises(ValueError):
        sphere_area(0)
    with pytest.raises(ValueError):
        sphere_area(2.5)


def test_param_set_from_radius():
    ps = ParamSet.from_radius(0.5, 4)
    assert math.isclose(ps.k, 1.0 / 3.0, rel_tol=1e-15)
    assert ps.alpha == 0.25
    assert ps.beta == 1.5
    with pytest.raises(ValueError):
        ParamSet.from_radius(0.5, 2)
    with pytest.raises(ValueError):
        ParamSet.from_radius(1.0, 4)


def test_quadrature_spec_validation():
    q = QuadratureSpec()
    assert q.endpoint_mode == "regular"
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=0.0)  # below the 16-eps floor
    with pytest.raises(ValueError):
        QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(ValueError):
        QuadratureSpec(endpoint_mode="nope")
    with pytest.raises(ValueError):
        QuadratureSpec(max_subdivisions=0)


# ---- adaptive Gauss-Kronrod engine ----------------------------------------


def test_adaptive_quad_known_integrals():
    v, e = adaptive_quad(lambda x: x * x, 0.0, 1.0, QuadratureSpec())
    assert abs(v - 1.0 / 3.0) < 1e-14
    assert e < 1e-12
    v, e = adaptive_quad(np.sin, 0.0, math.pi, QuadratureSpec())
    assert abs(v - 2.0) < 1e-13


def test_adaptive_quad_deterministic():
    f = lambda x: np.exp(-x) * np.sin(50.0 * x)
    a = adaptive_quad(f, 0.0, 10.0, QuadratureSpec())
    b = adaptive_quad(f, 0.0, 10.0, QuadratureSpec())
    assert a == b  # bit-for-bit: deterministic splitting order


def test_adaptive_quad_upper_endpoint_singularity():
    # int_0^1 x / sqrt(1 - x) dx = 4/3
    f = lambda x: x / np.sqrt(np.maximum(1.0 - x, 1e-300))
    v, e = adaptive_quad(f, 0.0, 1.0,
                         QuadratureSpec(endpoint_mode="algebraic_singularity"))
    assert abs(v - 4.0 / 3.0) < 1e-12


def test_adaptive_quad_exhaustion_raises():
    f = lambda x: np.maximum(x, 1e-300) ** -0.99
    with pytest.raises(QuadratureError) as exc:
        adaptive_quad(f, 0.0, 1.0, QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13))
    # partial result and its error estimate ride along on the exception
    assert exc.value.value is not None
    assert exc.value.err_estimate > 1e-13


def test_adaptive_quad_interval_validation():
    with pytest.raises(ValueError):
        adaptive_quad(np.sin, 1.0, 1.0)
    with pytest.raises(ValueError):
        adaptive_quad(lambda x: 1.0, 0.0, 1.0)  # not array-valued


# ---- profile integrand ----------------------------------------------------


def test_partial_fractions_match_integrand():
    """Eight-term decomposition == direct rational integrand (n = 4)."""
    rng = np.random.default_rng(42)
    r, z, w = rng.uniform((0.02, 0.0, 0.0), (0.98, 5.0, 8.0), (300, 3)).T
    a = get_backend().psi_integrand_batch(w, r, z, 4, np.empty(300))
    b = q_partial_fractions(w, r, z)
    assert np.all(np.abs(a - b) <= 1e-11 * (1.0 + np.abs(a)))


# ---- psi_numeric vs the closed form ---------------------------------------


@pytest.mark.parametrize("r,z,sign", [
    (0.5, 1.0, 1), (0.5, 1.0, -1), (0.3, 0.0, 1),
    (0.7, 5.0, -1), (0.9, 10.0, 1), (0.2, 1e-7, 1),
])
def test_psi_numeric_agrees_with_closed_form_n4(r, z, sign):
    p = EvalPoint(r, z)
    ps = ParamSet.from_radius(r, 4)
    val, err = psi_numeric(p, sign, ps)
    ref = psi_closed(p, sign)
    assert abs(val - ref) <= 1e-10 * (1.0 + abs(ref))
    assert err < 1e-10


@pytest.mark.parametrize("key,expected", sorted(PSI_N3_REF.items()))
def test_psi_numeric_frozen_n3(key, expected):
    r, z, sign = key
    val, err = psi_numeric(EvalPoint(r, z), sign, ParamSet.from_radius(r, 3))
    assert abs(val - expected) <= 1e-11 * (1.0 + abs(expected))


# ---- c_numeric ------------------------------------------------------------


@pytest.mark.parametrize("r,z", [(0.5, 0.7), (0.3, 2.0), (0.9, 0.1)])
def test_c_numeric_agrees_with_closed_form_n4(r, z):
    p = EvalPoint(r, z)
    val, err = c_numeric(p, ParamSet.from_radius(r, 4))
    ref = c_closed(p)
    assert abs(val - ref) / abs(ref) < 1e-11
    assert err < 1e-9


@pytest.mark.parametrize("key,expected", sorted(C_N3_REF.items()))
def test_c_numeric_frozen_n3(key, expected):
    r, z = key
    val, err = c_numeric(EvalPoint(r, z), ParamSet.from_radius(r, 3))
    assert abs(val - expected) / abs(expected) < 1e-10


def test_c_numeric_n3_schemes_agree():
    """Sine substitution and raw endpoint-weight handling must coincide."""
    p = EvalPoint(0.5, 0.7)
    ps = ParamSet.from_radius(0.5, 3)
    a, _ = c_numeric(p, ps, n3_scheme="sin_substitution")
    b, _ = c_numeric(p, ps, n3_scheme="endpoint_weight")
    assert abs(a - b) / abs(a) < 1e-9


def test_c_numeric_five_dimensional_ball():
    """n = 5 has no closed form here; check the z = 0 normalization instead
    against the independent direction-sweep oracle value."""
    val, err = c_numeric(EvalPoint(0.5, 0.0), ParamSet.from_radius(0.5, 5))
    oracle = 2.4494075287311971817956267226803  # spherical-rule evaluation
    assert abs(val / (1.0 - 0.5) - oracle) / oracle < 1e-9
