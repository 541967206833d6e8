"""Quadrature layer: the integral representation against the closed form.

psi_numeric and c_numeric never go through the closed-form expressions
being checked (the profile integrand is integrated directly), so
agreement here is a real cross-validation, not a tautology.  The n = 3
reference numbers were computed with 30-digit mpmath quadrature of the
same integral representation.
"""

import dataclasses
import math

import numpy as np
import pytest

from ballgrad import (EvalPoint, QuadratureError, c_closed, closedform4,
                      kernelint, psi_closed)
from ballgrad.backend import get_backend
from ballgrad.kernelint import (
    ParamSet,
    QuadratureSpec,
    _psi_numeric_arr,
    adaptive_quad,
    c_numeric,
    psi_numeric,
    q_partial_fractions,
    sphere_area,
)
from ballgrad.poisson_oracle import _polar_integrals, _polar_pieces

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


def test_sphere_area_rejects_dimensions_whose_gamma_overflows():
    assert sphere_area(343) == 2.0 * math.pi ** 171.5 / math.gamma(171.5)
    with pytest.raises(ValueError, match="sphere_area\\(344\\)"):
        sphere_area(344)


def test_param_set_from_radius():
    ps = ParamSet.from_radius(0.5, 4)
    assert ps.alpha == 0.25
    with pytest.raises(ValueError):
        ParamSet.from_radius(0.5, 2)
    with pytest.raises(ValueError):
        ParamSet.from_radius(1.0, 4)


def test_param_set_fields_are_radius_and_dimension():
    assert [f.name for f in dataclasses.fields(ParamSet)] == ["r", "n"]
    assert ParamSet(0.5, 4) == ParamSet.from_radius(0.5)
    for r, n in [(0.5, 2), (0.0, 4), (1.0, 4), (0.5, 4.0)]:
        with pytest.raises(ValueError):
            ParamSet(r, n)


@pytest.mark.parametrize("call", [
    lambda p, ps: c_numeric(p, ps),
    lambda p, ps: psi_numeric(p, 1, ps),
], ids=["c_numeric", "psi_numeric"])
def test_quadrature_rejects_a_radius_mismatch(call):
    """The radius comes from the ParamSet; one that differs from the
    EvalPoint's is an error, not a silent answer at the other radius."""
    with pytest.raises(ValueError, match="radius 0.5 .* radius 0.3"):
        call(EvalPoint(0.5, 0.7), ParamSet.from_radius(0.3, 4))


@pytest.mark.parametrize("sign", [0, 2, -0.5])
def test_psi_numeric_rejects_a_sign_other_than_one(sign):
    with pytest.raises(ValueError, match="sign must be"):
        psi_numeric(EvalPoint(0.5, 0.7), sign, ParamSet.from_radius(0.5, 4))


def test_quadrature_spec_validation():
    q = QuadratureSpec()
    assert [f.name for f in dataclasses.fields(q)] == ["tol", "endpoint_mode"]
    assert (q.tol, q.endpoint_mode) == (1e-12, "regular")
    QuadratureSpec(tol=16.0 * np.finfo(float).eps)  # the floor itself is allowed
    # a NaN or infinite tolerance would pass the first round's estimate
    for tol in (math.nan, math.inf, -math.inf, 0.0, 15.0 * np.finfo(float).eps, -1.0):
        with pytest.raises(ValueError, match="tol must be finite"):
            QuadratureSpec(tol=tol)
    with pytest.raises(ValueError):
        QuadratureSpec(endpoint_mode="nope")


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
        adaptive_quad(f, 0.0, 1.0, QuadratureSpec(tol=1e-13))
    # partial result and its error estimate ride along on the exception
    assert exc.value.value is not None
    assert exc.value.err_estimate > 1e-13


def test_adaptive_quad_interval_validation():
    with pytest.raises(ValueError):
        adaptive_quad(np.sin, 1.0, 1.0)
    with pytest.raises(ValueError):
        adaptive_quad(lambda x: 1.0, 0.0, 1.0)  # not array-valued


# ---- vector mode ----------------------------------------------------------

BATCH = [lambda x, k=k: x ** k for k in range(6)] + [
    np.sin,
    lambda x: 1.0 / (1.0 + 25.0 * x * x),  # Runge-type bump
]


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0)])
def test_adaptive_quad_vector_mode_matches_scalar_calls(a, b):
    q = QuadratureSpec()
    vals, errs = adaptive_quad(lambda x: np.stack([f(x) for f in BATCH]), a, b, q)
    assert vals.shape == errs.shape == (len(BATCH),)
    for i, f in enumerate(BATCH):
        ref, _ = adaptive_quad(f, a, b, q)
        assert abs(vals[i] - ref) <= max(q.tol, q.tol * abs(ref)), i
        assert errs[i] <= max(q.tol, q.tol * abs(vals[i])), i


def test_adaptive_quad_vector_mode_names_the_component_that_missed():
    def f(x):
        return np.stack([x * x, np.maximum(x, 1e-300) ** -0.99, np.sin(x)])

    with pytest.raises(QuadratureError, match=r"components \[1\]") as exc:
        adaptive_quad(f, 0.0, 1.0, QuadratureSpec(tol=1e-13))
    assert exc.value.value.shape == exc.value.err_estimate.shape == (3,)
    assert exc.value.err_estimate[1] > 1e-13


def test_adaptive_quad_one_integral_is_a_one_row_batch():
    f = lambda x: np.exp(-x) * np.sin(50.0 * x)
    q = QuadratureSpec()
    val, err = adaptive_quad(f, 0.0, 10.0, q)
    vals, errs = adaptive_quad(lambda x: f(x)[None], 0.0, 10.0, q)
    assert type(val) is float and type(err) is float
    assert (val, err) == (vals[0], errs[0])  # bit for bit

    g = lambda x: np.maximum(x, 1e-300) ** -0.99
    with pytest.raises(QuadratureError, match="panels \\(") as exc:
        adaptive_quad(g, 0.0, 1.0, QuadratureSpec(tol=1e-13))
    assert type(exc.value.value) is float
    assert type(exc.value.err_estimate) is float


# ---- breadth-first refinement ---------------------------------------------

# outermost Kronrod node: a panel of width 2h spans 2 h X0 between its
# first and last abscissae
X0 = 0.991455371120812639206854697526329


def _panel_tree(calls):
    """Panels evaluated by each integrand call on [0, 1], as (lo, hi).

    Every 15 abscissae are one panel: the middle one is its centre, and
    its width is a power of two, so lo and hi come back exactly.
    """
    rounds = []
    for x in calls:
        nodes = x.reshape(-1, 15)
        half = 2.0 ** np.rint(np.log2((nodes[:, 14] - nodes[:, 0]) / (2.0 * X0)))
        rounds.append(list(zip((nodes[:, 7] - half).tolist(),
                               (nodes[:, 7] + half).tolist())))
    return rounds


def _recorded(f, calls):
    def g(x):
        calls.append(np.array(x))
        return f(x)
    return g


def _check_tree(calls):
    """Each call splits panels of earlier calls into both halves; no panel
    is evaluated twice.  Returns the final panels in position order."""
    assert all(x.ndim == 1 and x.size % 15 == 0 for x in calls)
    rounds = _panel_tree(calls)
    assert rounds[0] == [(0.0, 1.0)]
    evaluated = {(0.0, 1.0)}
    leaves = {(0.0, 1.0)}
    for panels in rounds[1:]:
        assert len(panels) % 2 == 0
        for left, right in zip(panels[::2], panels[1::2]):
            assert left[1] == right[0]
            parent = (left[0], right[1])
            assert parent in leaves  # split once, from an earlier round
            leaves.remove(parent)
            leaves.update((left, right))
        assert not evaluated & set(panels)
        evaluated.update(panels)
    leaves = sorted(leaves)
    assert all(a[1] == b[0] for a, b in zip(leaves, leaves[1:]))
    assert leaves[0][0] == 0.0 and leaves[-1][1] == 1.0
    assert len(evaluated) == 2 * len(leaves) - 1
    return leaves


def _hard(x):
    return np.stack([np.exp(-x) * np.sin(50.0 * x),
                     1.0 / (1e-3 + (x - 0.3) ** 2), x * x])


def test_adaptive_quad_evaluates_each_round_in_one_call():
    calls = []
    adaptive_quad(_recorded(_hard, calls), 0.0, 1.0, QuadratureSpec())
    leaves = _check_tree(calls)
    assert len(calls) > 2 and any(x.size > 30 for x in calls)
    # perfbench/layertrace counts panels from the abscissae this way
    assert (sum(x.size for x in calls) // 15 + 1) // 2 == len(leaves)


@pytest.mark.parametrize("budget", [1, 2, 7, 37])
def test_adaptive_quad_stops_at_exactly_max_subdivisions(monkeypatch, budget):
    def f(x):
        return np.stack([x * x, np.maximum(x, 1e-300) ** -0.99, np.sin(x)])

    monkeypatch.setattr(kernelint, "_MAX_PANELS", budget)
    q = QuadratureSpec(tol=1e-13)
    calls = []
    with pytest.raises(QuadratureError,
                       match=rf"after {budget} panels in components \[1\]"):
        adaptive_quad(_recorded(f, calls), 0.0, 1.0, q)
    assert len(_check_tree(calls)) == budget


def _psi_per_z(z, ps, q):
    # the integrand mapped to s in [0, 1] by w = U(z) s, one quadrature per z
    n, r = ps.n, ps.r
    beta, k = (n - (n - 2) * r) / 2.0, (1.0 - r) / (1.0 + r)
    upper = (z + math.sqrt(z * z + 1.0 - ps.alpha ** 2)) / (1.0 - ps.alpha)

    def f(s):
        w = upper * s
        w2 = w * w
        return (n - beta + n * z * w - beta * w2) * w ** (n - 2) * upper \
            / ((1.0 + w2) ** (n / 2.0 + 1.0) * (1.0 + k * k * w2) ** (n / 2.0 - 1.0))

    return adaptive_quad(f, 0.0, 1.0, q)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
@pytest.mark.parametrize("r", [0.05, 0.5, 0.95])
def test_psi_numeric_arr_matches_one_quadrature_per_z(n, r):
    """The running sums over the sorted upper limits integrate to each
    Psi(z), every one within its own tolerance."""
    ps = ParamSet.from_radius(r, n)
    zs = np.array([0.7, -0.7, 0.0, 2.5, 0.7, -50.0, 0.0, 50.0, -0.03, 2.5])
    q = QuadratureSpec(tol=1e-13)  # psi_numeric's tolerance
    vals, errs = _psi_numeric_arr(zs, ps)
    refs = np.array([_psi_per_z(z, ps, q)[0] for z in zs.tolist()])
    assert np.all(np.abs(vals - refs) <= 1e-13 * np.abs(refs))
    assert np.all(errs <= np.maximum(q.tol, q.tol * np.abs(vals)))
    assert vals[0] == vals[4] and vals[2] == vals[6]


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("r", [0.1, 0.6, 0.95])
def test_psi_numeric_arr_agrees_with_scalar_loop(n, r):
    ps = ParamSet.from_radius(r, n)
    zs = np.array([0.0, 1e-7, 0.7, 6.0])
    vals, errs = _psi_numeric_arr(np.concatenate([zs, -zs]), ps)
    refs = [psi_numeric(EvalPoint(r, z), sign, ps)[0]
            for sign in (1, -1) for z in zs.tolist()]
    assert np.all(np.abs(vals - refs) <= 1e-12 * (1.0 + np.abs(refs)))
    assert np.all(errs < 1e-12)


# ---- profile integrand ----------------------------------------------------


def test_partial_fractions_match_integrand():
    """Eight-term decomposition == a + z b, the integrand's two z-free
    parts (n = 4)."""
    rng = np.random.default_rng(42)
    r, z, w = rng.uniform((0.02, 0.0, 0.0), (0.98, 5.0, 8.0), (300, 3)).T
    a, b = get_backend().psi_integrand_parts(w, r, 4)
    direct = a + z * b
    ref = q_partial_fractions(w, r, z)
    assert np.all(np.abs(direct - ref) <= 1e-11 * (1.0 + np.abs(direct)))


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


def test_c_numeric_n4_shares_no_code_with_the_closed_form(monkeypatch):
    """The profile inside c_numeric is integrated, never taken from the
    closed form that criterion 3 checks it against."""
    points = [EvalPoint(0.5, 0.7), EvalPoint(0.3, 2.0), EvalPoint(0.9, 0.1)]
    refs = [c_closed(p) for p in points]

    def boom(*args):
        raise AssertionError("closed-form profile called")

    original = closedform4._psi_closed_arr
    for mod in (closedform4, kernelint):
        if vars(mod).get("_psi_closed_arr") is original:
            monkeypatch.setattr(mod, "_psi_closed_arr", boom)
    assert not [name for name, obj in vars(kernelint).items()
                if getattr(obj, "__module__", None) == closedform4.__name__]
    for p, ref in zip(points, refs):
        val, _ = c_numeric(p, ParamSet.from_radius(p.r, 4))
        assert abs(val - ref) / abs(ref) < 1e-11


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


def test_c_numeric_rejects_an_unknown_n3_scheme():
    with pytest.raises(ValueError, match="n3_scheme"):
        c_numeric(EvalPoint(0.5, 0.7), ParamSet.from_radius(0.5, 3), n3_scheme="raw")


def test_c_numeric_five_dimensional_ball():
    """n = 5 has no closed form here; check the z = 0 normalization instead
    against the independent direction-sweep oracle value."""
    val, err = c_numeric(EvalPoint(0.5, 0.0), ParamSet.from_radius(0.5, 5))
    oracle = 2.4494075287311971817956267226803  # spherical-rule evaluation
    assert abs(val / (1.0 - 0.5) - oracle) / oracle < 1e-9


@pytest.mark.parametrize("n", [5, 7])
@pytest.mark.parametrize("r", [0.05, 0.5, 0.9])
def test_c_numeric_odd_dimension_matches_the_oracle_at_the_axis(n, r):
    """For odd n the outer weight's sqrt(1 - t) endpoint singularity is
    substituted away, so C(0, r) meets the oracle's (1 - r) C(r e_n, e_n)
    to near roundoff."""
    val, _ = c_numeric(EvalPoint(r, 0.0), ParamSet.from_radius(r, n))
    ref = (1.0 - r) * _polar_integrals(n, r, _polar_pieces(n, r, [0.0]), 200)[0]
    assert abs(val - ref) / ref < 5e-14


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect: at n = 100 each profile integral is about 1e-13, so the "
    "absolute floor of max(tol, tol*|I|) passes it 4.8e-7 off (ROADMAP item 15)"))
def test_c_numeric_meets_the_oracle_at_high_dimension():
    """C(0, r) = (1 - r) C_oracle(n, r, 0) holds in every dimension; at
    n = 100, r = 0.5 c_numeric is 5.1e-7 off the oracle, whose 48-, 200-
    and 400-node values agree to 2e-16."""
    n, r = 100, 0.5
    val, _ = c_numeric(EvalPoint(r, 0.0), ParamSet.from_radius(r, n))
    ref = (1.0 - r) * _polar_integrals(n, r, _polar_pieces(n, r, [0.0]), 200)[0]
    assert abs(val - ref) / ref < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_c_numeric_outer_panel_budget(monkeypatch, n):
    """Every outer round makes one batched profile quadrature; a smooth
    outer integrand needs few rounds in every dimension."""
    calls = []
    original = kernelint._psi_numeric_arr

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(kernelint, "_psi_numeric_arr", counted)
    for r, z in [(0.05, 0.0), (0.5, 0.7), (0.9, 2.0), (0.3, 2.5), (0.95, 6.0)]:
        calls.clear()
        c_numeric(EvalPoint(r, z), ParamSet.from_radius(r, n))
        assert len(calls) <= 6, (r, z, len(calls))
