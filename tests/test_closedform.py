"""Closed-form layer: frozen reference values and structural properties.

The reference constants below were evaluated with an independent
60-digit mpmath port of the same formulas, so they pin the double
precision implementation against transcription slips and cancellation
bugs.  Double rounding of a correct implementation lands within a few
ulp of these literals.
"""

import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballgrad import (
    EvalPoint,
    EvaluationError,
    SeriesBranchWarning,
    c_at_zero,
    c_closed,
    c_components,
    disk_constant,
    envelope_L,
    envelope_g1,
    frak_c,
    gradient_bound,
    halfspace_constant,
    psi_closed,
    v_certificate,
)
from ballgrad import closedform4
from ballgrad.closedform4 import (
    SERIES_R_THRESHOLD,
    SERIES_Z_THRESHOLD,
    _c_at_zero_arr,
    _c_closed_arr,
    _c_components_arr,
    _c_terms,
    _envelope_g1_arr,
    _envelope_L_arr,
    _frak_c_arr,
    _gradient_bound_arr,
    _h3,
    _psi_closed_arr,
    _v_certificate_arr,
)

# 60-digit mpmath evaluations, rounded to double precision.
FRAK_C_REF = {
    5e-4: 1.6976527157032206376904226442076990200394990593051,
    0.3: 1.6938237413567943698666670330658884493358258015094,
    0.5: 1.6869700803055185490791125693240536369753791668725,
    0.9: 1.6624836824847817463879038061053665991096171800635,
    0.99: 1.6548813990643106648980687077246963884962059942154,
    1.0: 1.6539866862653761485339794949389083241921594410999,
}
C_AT_ZERO_REF = {
    5e-4: 1.6968043135464474139834309287433273563613184001051,
    0.2: 1.4132943746673918675847258894401868644105737649175,
    0.5: 1.1246467202036790327194083795493690913169194445817,
}
# (r, z, sign) -> Psi
PSI_REF = {
    (0.5, 1.0, 1): 0.73683206457263747006036352769297262654758759543436,
    (0.3, 0.0, 1): 0.14051568962070307289265325616369913532866307690378,
    (0.7, 5.0, -1): 0.00053061289525170561411151275378171192318681696083,
    (0.9, 10.0, 1): 9.755126861832472083569661791286223421649487724171,
    (0.2, 1e-7, 1): 0.11987989488901288414778674309981611521116549459768,
}
C_CLOSED_REF = {
    (0.5, 0.7): 1.1083581092770226465270299400736508023872218025959,
    (0.3, 2.0): 1.2863162859727412611203855802252688808493176000698,
    (0.9, 0.1): 0.8738084208506053355626848128767730619457122609017,
    (5e-4, 1.3): 1.6968042669079819658179166458231050404791162032262,
    (0.5, 1e-8): 1.1246467202036790278541093744904017136378780931016,
}
HALFSPACE_REF = {
    2: 0.63661977236758134307553505349005744813783858296183,  # 2/pi
    3: 0.76980035891950101934553170733594327419680233502684,
    4: 0.82699334313268807426698974746945416209607972054996,  # 3 sqrt(3)/(2 pi)
    5: 0.85865010335991924342112268879281007440919745009083,
}

SIXTEEN_OVER_3PI = 16.0 / (3.0 * math.pi)


def rel(a, b):
    return abs(a - b) / abs(b)


@pytest.mark.parametrize("r,expected", sorted(FRAK_C_REF.items()))
def test_frak_c_frozen(r, expected):
    assert rel(frak_c(r), expected) < 1e-12


def test_frak_c_endpoints():
    assert math.isclose(frak_c(0.0), SIXTEEN_OVER_3PI, rel_tol=1e-15)
    # the r -> 1 value is 3 sqrt(3)/pi: twice the half-space constant
    assert math.isclose(frak_c(1.0), 3.0 * math.sqrt(3.0) / math.pi, rel_tol=1e-14)


def test_frak_c_domain():
    with pytest.raises(ValueError):
        frak_c(-0.01)
    with pytest.raises(ValueError):
        frak_c(1.01)


@pytest.mark.parametrize("r,expected", sorted(C_AT_ZERO_REF.items()))
def test_c_at_zero_frozen(r, expected):
    assert rel(c_at_zero(r), expected) < 1e-12


def test_c_at_zero_is_frak_over_one_plus_r():
    for r in (0.1, 0.25, 0.5, 0.75, 0.97):
        assert math.isclose(c_at_zero(r), frak_c(r) / (1.0 + r), rel_tol=1e-14)
    with pytest.raises(ValueError, match="got 0.0"):
        c_at_zero(0.0)


def test_gradient_bound_frozen():
    assert rel(gradient_bound(0.5),
               2.2492934404073580654388167590987381826338388891633) < 1e-12
    assert math.isclose(gradient_bound(0.0), SIXTEEN_OVER_3PI, rel_tol=1e-15)


def test_gradient_bound_diverges_at_one():
    with pytest.raises(ValueError):
        gradient_bound(1.0)
    # ... but stays finite arbitrarily close to 1
    assert gradient_bound(1.0 - 1e-12) < 1e13


@pytest.mark.parametrize("key,expected", sorted(PSI_REF.items()))
def test_psi_closed_frozen(key, expected):
    r, z, sign = key
    got = psi_closed(EvalPoint(r, z), sign)
    # large-|z| values lose a few digits to cancellation among the three
    # log/atan terms; 1e-11 relative still detects any formula error
    assert rel(got, expected) < 1e-11


def test_psi_closed_sign_validation():
    p = EvalPoint(0.5, 1.0)
    with pytest.raises(ValueError):
        psi_closed(p, 2)
    # both signs coincide at z = 0
    p0 = EvalPoint(0.4, 0.0)
    assert psi_closed(p0, 1) == psi_closed(p0, -1)


@pytest.mark.parametrize("key,expected", sorted(C_CLOSED_REF.items()))
def test_c_closed_frozen(key, expected):
    r, z = key
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SeriesBranchWarning)
        got = c_closed(EvalPoint(r, z))
    assert rel(got, expected) < 1e-12


def test_c_closed_matches_c_at_zero():
    for r in (0.1, 0.5, 0.9):
        assert math.isclose(c_closed(EvalPoint(r, 0.0)), c_at_zero(r), rel_tol=1e-13)


def test_c_components_frozen():
    h1, h2, h3 = c_components(EvalPoint(0.5, 0.8))
    assert rel(h1, 1.5718527878708696779773987148062514435138392026708) < 1e-12
    assert rel(h2, -0.82695128635919134848612653956131871518800168394399) < 1e-12
    assert rel(h3, -0.18907130302109898324089735445794175223327518867197) < 1e-12


def test_c_components_at_axis():
    """At z = 0 the arctan pair collapses and the odd term vanishes."""
    r = 0.5
    h1, h2, h3 = c_components(EvalPoint(r, 0.0))
    assert h3 == 0.0
    assert rel(h2, -1.0107210205683146139426297479748438890087749323874) < 1e-12
    s0 = math.sqrt(4.0 - r * r)
    assert math.isclose(h2, -2.0 * math.atan(r * s0 / (2.0 - r * r)), rel_tol=1e-15)


def test_envelopes_frozen():
    assert rel(envelope_L(EvalPoint(0.9, 2.0)),
               1.9082210049193902151976495460062251966429749181187) < 1e-12
    assert rel(envelope_L(EvalPoint(0.2, 0.001)),
               0.00039799478294971080565699068700366494740242861032) < 1e-11
    assert rel(envelope_g1(EvalPoint(0.5, 10.0)),
               1.3459572443867229200499388655891757487516191021375) < 1e-12
    assert rel(envelope_g1(EvalPoint(0.5, 0.0)),
               2.1785531322416719979133367873775997810935184592265) < 1e-12


def test_v_certificate():
    assert v_certificate(0.0) == 0.0
    assert rel(v_certificate(0.5),
               0.0007679951861301268873391271205052773658238930206) < 1e-10
    for r in (0.05, 0.2, 0.5, 0.8, 0.99, 1.0):
        assert v_certificate(r) >= 0.0
    with pytest.raises(ValueError):
        v_certificate(1.5)


def test_eval_point_validation():
    for r, z in ((0.0, 1.0), (1.0, 1.0), (-0.3, 1.0), (0.5, -0.1)):
        with pytest.raises(ValueError):
            EvalPoint(r, z)
    p = EvalPoint(0.5, 0.0)
    assert p.r == 0.5 and p.z == 0.0


def test_series_branch_warning():
    with pytest.warns(SeriesBranchWarning):
        c_closed(EvalPoint(5e-4, 1.0))
    # above the threshold no warning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        c_closed(EvalPoint(0.5, 1.0))


def test_series_seam_continuity():
    """The series branches must join the closed form without a jump."""
    for z in (0.0, 0.5, 1.3, 4.0):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SeriesBranchWarning)
            lo = c_closed(EvalPoint(SERIES_R_THRESHOLD * (1 - 1e-9), z))
        hi = c_closed(EvalPoint(SERIES_R_THRESHOLD * (1 + 1e-9), z))
        assert abs(lo - hi) < 5e-9
    for r in (0.3, 0.7):
        lo = c_closed(EvalPoint(r, SERIES_Z_THRESHOLD * (1 - 1e-9)))
        hi = c_closed(EvalPoint(r, SERIES_Z_THRESHOLD * (1 + 1e-9)))
        assert abs(lo - hi) < 1e-12
    # the quadratic profile series truncates at O(r^4): ~1e-11 step here
    lo = frak_c(SERIES_R_THRESHOLD * (1 - 1e-9))
    hi = frak_c(SERIES_R_THRESHOLD * (1 + 1e-9))
    assert abs(lo - hi) < 1e-10


@pytest.mark.parametrize("r", [1e-160, 1e-200, 1e-300, 1e-320])
def test_c_closed_at_tiny_radii(r):
    """r^3 underflows to 0 long before r does: the series branch returns
    C itself, and every direction reads C(z, 0) = 16/(3 pi)."""
    for z in (0.0, 1.0, 10.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", SeriesBranchWarning)
            c = c_closed(EvalPoint(r, z))
        assert abs(c - 16.0 / (3.0 * math.pi)) <= 1e-15, (r, z, c)


# radii and z values on both sides of both series seams
SEAM_R = np.array([SERIES_R_THRESHOLD * (1 - 1e-9),
                   SERIES_R_THRESHOLD * (1 + 1e-9), 0.05, 0.3, 0.7, 0.99])
SEAM_Z = np.array([0.0, SERIES_Z_THRESHOLD * (1 - 1e-9),
                   SERIES_Z_THRESHOLD * (1 + 1e-9), 1e-3, 0.8, 4.0, 50.0])


def test_array_forms_match_scalar_wrappers():
    """Each scalar function returns exactly its array form's element."""
    r, z = np.meshgrid(SEAM_R, SEAM_Z, indexing="ij")
    pts = [EvalPoint(a, b) for a, b in zip(r.flat, z.flat)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SeriesBranchWarning)
        cases = [
            (_c_closed_arr(r, z), [c_closed(p) for p in pts]),
            (_envelope_L_arr(r, z), [envelope_L(p) for p in pts]),
            (_envelope_g1_arr(r, z), [envelope_g1(p) for p in pts]),
            (_psi_closed_arr(r, z), [psi_closed(p, 1) for p in pts]),
            (_psi_closed_arr(r, -z), [psi_closed(p, -1) for p in pts]),
        ]
    for k, h in enumerate(_c_components_arr(r, z)):
        cases.append((h, [c_components(p)[k] for p in pts]))
    closed_r = np.concatenate([[0.0], SEAM_R, [1.0]])
    cases += [
        (_frak_c_arr(closed_r), [frak_c(x) for x in closed_r]),
        (_v_certificate_arr(closed_r), [v_certificate(x) for x in closed_r]),
        (_c_at_zero_arr(SEAM_R), [c_at_zero(x) for x in SEAM_R]),
        (_gradient_bound_arr(closed_r[:-1]),
         [gradient_bound(x) for x in closed_r[:-1]]),
    ]
    for arr, scalars in cases:
        assert arr.ravel().tolist() == scalars


def test_v_certificate_is_exactly_zero_at_origin():
    v0 = v_certificate(0.0)
    assert v0 == 0.0 and math.copysign(1.0, v0) == 1.0
    assert _v_certificate_arr(np.array([0.0, 0.5]))[0] == 0.0


def test_series_branch_warning_once_per_call():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _c_closed_arr(np.array([5e-4, 0.5, 2e-4]), np.array([0.0, 1.0, 3.0]))
        _c_closed_arr(np.array([[5e-4], [0.5]]), SEAM_Z)
        _c_closed_arr(np.array([0.3, 0.6]), 1.0)
        c_closed(EvalPoint(5e-4, 1.0))
    assert [w.category for w in caught] == [SeriesBranchWarning] * 3


# series radii, z = 0 and a z inside the z-series band, mixed with direct
# elements on both sides of each seam (the radial forms add r = 0)
MIXED_R = np.array([2e-4, SERIES_R_THRESHOLD * (1 - 1e-9), 0.3,
                    SERIES_R_THRESHOLD * (1 + 1e-9), 5e-4, 0.99])
MIXED_Z = np.array([1.3, 0.0, 0.5 * SERIES_Z_THRESHOLD,
                    SERIES_Z_THRESHOLD * (1 + 1e-9), 4.0])


def _call(f, *args):
    """f(*args) and the categories of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = f(*args)
    return value, [w.category for w in caught]


@pytest.mark.parametrize("rows", [slice(None), slice(0, 2), slice(2, 4)])
def test_mixed_branch_arrays_match_their_elements(rows):
    """An array that mixes series and direct elements gives each element
    bit for bit as that element alone.  The series warning is raised
    exactly when some radius takes the series, and no RuntimeWarning."""
    r, z = np.meshgrid(MIXED_R[rows], MIXED_Z, indexing="ij")
    radial = np.concatenate([[0.0], MIXED_R[rows]])
    cases = [(_c_closed_arr, (r, z))]
    cases += [(lambda r, z, k=k: _c_components_arr(r, z)[k], (r, z))
              for k in range(3)]
    cases += [(_frak_c_arr, (radial,)), (_c_at_zero_arr, (radial,))]
    for f, args in cases:
        warns = f is _c_closed_arr
        whole, caught = _call(f, *args)
        assert caught == [SeriesBranchWarning] * (
            warns and bool(np.any(args[0] < SERIES_R_THRESHOLD)))
        for i, point in enumerate(zip(*(a.flat for a in args))):
            value, caught = _call(f, *point)
            assert np.asarray(value).tobytes() == whole.flat[i].tobytes(), point
            assert caught == [SeriesBranchWarning] * (
                warns and bool(point[0] < SERIES_R_THRESHOLD))


def test_sanity_checks_raise_typed_errors_naming_the_point():
    # r > 1 breaks the positivity of the arctan denominator
    with pytest.raises(EvaluationError, match=r"\(r, z\) = \(1\.5, 0\.5\)"):
        _psi_closed_arr(1.5, np.array([0.5]))
    with pytest.raises(EvaluationError, match=r"\(r, z\) = \(1\.5, 0\.5\)"):
        _c_closed_arr(np.array([0.5, 1.5, 1.7]), 0.5)
    # at r = 1 the second inverse-tanh argument of L rounds to 1
    with pytest.raises(ValueError, match=r"in L at \(r, z\) = \(1\.0, 100000000\.0\)"):
        _envelope_L_arr(np.array([0.5, 1.0]), 1e8)


# a complex step, as proofcheck's derivative identities take it
STEP = 1e-30j


@pytest.mark.parametrize("f,args,exc,named", [
    (_psi_closed_arr, (1.5 + STEP, np.array([0.5])), EvaluationError,
     r"denominator lost positivity at \(r, z\) = \(1\.5, 0\.5\)$"),
    (_c_closed_arr, (np.array([0.5, 1.5, 1.7]), 0.5 + STEP), EvaluationError,
     r"denominator lost positivity at \(r, z\) = \(1\.5, 0\.5\)$"),
    (_envelope_L_arr, (np.array([0.5, 1.0]) + STEP, 1e8), ValueError,
     r"in L at \(r, z\) = \(1\.0, 100000000\.0\)$"),
    (lambda r, z: _h3(*_c_terms(r, z)), (np.array([0.5, 1.0]), 1e12 + STEP),
     ValueError, r"in h3 at \(r, z\) = \(1\.0, 1000000000000\.0\)$"),
], ids=["psi_closed", "c_closed", "envelope_L", "h3"])
def test_guards_name_the_real_point_of_a_complex_input(f, args, exc, named):
    """A guard that fails inside a complex-step call raises its typed error
    at the real (r, z), and no ComplexWarning (a RuntimeWarning) on the
    way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(exc, match=named):
            f(*args)


def test_series_warning_names_the_real_radius_of_a_complex_input():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = _c_closed_arr(np.array([5e-4, 0.5]) + STEP, 0.0)
    assert value.dtype == complex
    assert [(w.category, str(w.message)) for w in caught] == [
        (SeriesBranchWarning, "r=0.0005 below series threshold; using series "
                              "branch")]


# every array form, by the number of arguments it takes
ARRAY_FORMS_RZ = (_psi_closed_arr, _c_closed_arr, _envelope_L_arr,
                  _envelope_g1_arr)
ARRAY_FORMS_R = (_frak_c_arr, _c_at_zero_arr, _gradient_bound_arr,
                 _v_certificate_arr)


def test_real_input_stays_float64_without_a_copy():
    assert {f.__name__ for f in ARRAY_FORMS_RZ + ARRAY_FORMS_R} \
        | {"_c_components_arr"} == {name for name in dir(closedform4)
                                    if name.endswith("_arr")}
    r = np.linspace(0.1, 0.9, 5)
    z = np.linspace(0.0, 2.0, 5)
    terms = _c_terms(r, z)
    assert terms[0] is r and terms[1] is z
    for rr, zz in ((r, z), (0.5, 0.7), (np.float32(0.5), np.array([0, 2])),
                   ([0.5, 0.6], [0.7, 1.0])):
        values = [f(rr, zz) for f in ARRAY_FORMS_RZ]
        values += list(_c_components_arr(rr, zz))
        values += [f(rr) for f in ARRAY_FORMS_R]
        assert all(np.asarray(v).dtype == np.float64 for v in values), (rr, zz)


def test_gradient_bound_arr_casts_without_a_copy(monkeypatch):
    """A list gives the array result; a float64 array reaches frak_c as
    the same object."""
    seen = []
    frak_c_arr = closedform4._frak_c_arr

    def spy(r):
        seen.append(r)
        return frak_c_arr(r)

    monkeypatch.setattr(closedform4, "_frak_c_arr", spy)
    r = np.array([0.5, 0.6])
    assert np.array_equal(_gradient_bound_arr([0.5, 0.6]), _gradient_bound_arr(r))
    assert isinstance(seen[0], np.ndarray) and seen[0].dtype == np.float64
    assert seen[1] is r


def test_scalar_wrappers_return_floats():
    p = EvalPoint(0.5, 0.7)
    values = [psi_closed(p), psi_closed(p, -1), c_closed(p), envelope_L(p),
              envelope_g1(p), frak_c(0.5), c_at_zero(0.5), gradient_bound(0.5),
              v_certificate(0.5), *c_components(p)]
    assert [type(v) for v in values] == [float] * 12


@pytest.mark.parametrize("n,expected", sorted(HALFSPACE_REF.items()))
def test_halfspace_frozen(n, expected):
    assert rel(halfspace_constant(n), expected) < 1e-13


def test_halfspace_scales_like_inverse_distance():
    for n in (2, 3, 4, 7):
        assert math.isclose(halfspace_constant(n, x_n=2.5),
                            halfspace_constant(n) / 2.5, rel_tol=1e-15)


def test_halfspace_validation():
    with pytest.raises(ValueError):
        halfspace_constant(1)
    with pytest.raises(ValueError):
        halfspace_constant(3.5)
    with pytest.raises(ValueError):
        halfspace_constant(4, x_n=0.0)


def test_disk_constant():
    assert math.isclose(disk_constant(0.0), 4.0 / math.pi, rel_tol=1e-15)
    assert math.isclose(disk_constant(0.5), (4.0 / math.pi) / 0.75, rel_tol=1e-15)
    with pytest.raises(ValueError):
        disk_constant(1.0)


def test_endpoint_calls_are_fast():
    t0 = time.perf_counter()
    for _ in range(1000):
        frak_c(0.5)
        halfspace_constant(4)
    per_call = (time.perf_counter() - t0) / 2000.0
    assert per_call < 1e-3


# ---- property-based checks -------------------------------------------------

radii = st.floats(min_value=1e-3, max_value=1.0 - 1e-9,
                  allow_nan=False, allow_infinity=False)


@given(radii, radii)
@settings(max_examples=200, deadline=None)
def test_frak_c_weakly_decreasing(r1, r2):
    a, b = sorted((r1, r2))
    assert frak_c(a) >= frak_c(b) - 1e-14


@given(radii)
@settings(max_examples=200, deadline=None)
def test_bound_factorizations(r):
    """gradient_bound = frak_c/(1-r^2) = c_at_zero/(1-r), all consistent."""
    fc = frak_c(r)
    gb = gradient_bound(r)
    c0 = c_at_zero(r)
    assert math.isclose(gb, fc / ((1.0 - r) * (1.0 + r)), rel_tol=1e-14)
    assert math.isclose(c0, (1.0 - r) * gb, rel_tol=1e-13)


@given(st.floats(min_value=2e-3, max_value=0.99),
       st.floats(min_value=0.0, max_value=20.0),
       st.sampled_from([1, -1]))
@settings(max_examples=200, deadline=None)
def test_psi_positive(r, z, sign):
    assert psi_closed(EvalPoint(r, z), sign) > 0.0


@given(st.floats(min_value=2e-3, max_value=0.99),
       st.floats(min_value=0.0, max_value=20.0))
@settings(max_examples=200, deadline=None)
def test_c_closed_below_axis_value(r, z):
    """The directional profile never exceeds its value at z = 0.

    The slack absorbs double-precision cancellation in the component sum,
    which is O(eps/r^3) relative for small r (about 1e-10 near r = 0.002).
    """
    assert c_closed(EvalPoint(r, z)) <= c_at_zero(r) * (1.0 + 1e-9)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=200, deadline=None)
def test_frak_c_range(r):
    lo = 3.0 * math.sqrt(3.0) / math.pi
    assert lo - 1e-13 <= frak_c(r) <= SIXTEEN_OVER_3PI + 1e-13
