"""Verification registry: derivative identities, inequality sweeps, sup search."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from ballgrad import EvalPoint, ParamSet, c_at_zero, c_numeric
from ballgrad.cli import main
from ballgrad.proofcheck import (
    DERIVATIVE_SUITE,
    IdentityCase,
    check_derivative_identity,
    check_inequality,
    conjecture_report,
    identity_cases,
    inequality_cases,
    locate_sup,
    run_identity_suite,
    run_inequality_suite,
)
from ballgrad import cli, closedform4, proofcheck
from ballgrad.exceptions import EvaluationError, SeriesBranchWarning
from ballgrad.proofcheck import _BLOCK_POINTS, _axis_grid, _sobol_unit


def test_registry_completeness():
    ids = identity_cases()
    ineqs = inequality_cases()
    assert len(ids) == 13
    assert len(ineqs) == 13
    id_names = {c.name for c in ids}
    assert len(id_names) == len(ids)
    assert len({c.name for c in ineqs}) == len(ineqs)
    # the nine core differentiation identities are all registered
    assert set(DERIVATIVE_SUITE) <= id_names
    assert len(DERIVATIVE_SUITE) == 9


def test_identity_suite_all_pass():
    reports = run_identity_suite()
    assert len(reports) == 13
    for rep in reports:
        assert rep.passed, f"{rep.case_name}: worst={rep.worst_violation}"
        assert rep.worst_violation <= 1e-9
    # deterministic ordering for stable output
    assert [r.case_name for r in reports] == sorted(r.case_name for r in reports)


def test_inequality_suite_all_pass():
    reports = run_inequality_suite()
    assert len(reports) == 13
    for rep in reports:
        assert rep.passed, f"{rep.case_name}: worst={rep.worst_violation}"
        assert rep.worst_violation <= 1e-12


def test_identity_suite_seed_stable():
    a = run_identity_suite()
    b = run_identity_suite()
    assert [(r.case_name, r.worst_violation) for r in a] \
        == [(r.case_name, r.worst_violation) for r in b]


PINNED_POINTS = [
    ("r_prime_eq_q", (1.0, 0.5, 0.7)),
    ("l_prime", (0.5, 1.0)),
    ("v_prime", (0.5,)),
    ("g1_prime", (0.5, 2.0)),
    ("h2_prime", (0.5, 1.0)),
]


def _deviation_at(name, point):
    """The registry's deviation of identity ``name`` at one point."""
    case = {c.name: c for c in identity_cases()}[name]
    args = tuple(float(x) for x in point)
    return float(proofcheck._deviation(proofcheck._lhs_value(case, args),
                                       case.rhs(*args)))


@pytest.mark.parametrize("name,point,bound",
                         [(name, point, 1e-7) for name, point in PINNED_POINTS])
def test_case_deviation_at_pinned_points(name, point, bound):
    assert _deviation_at(name, point) < bound


@pytest.mark.parametrize("name,point", PINNED_POINTS)
def test_complex_step_deviation_at_pinned_points(name, point):
    """The complex step leaves no truncation error: the deviation at the
    pinned points is at rounding level, far below the 1e-7 above."""
    assert _deviation_at(name, point) < 1e-13


def test_detects_a_broken_identity():
    bad = IdentityCase(name="bad", lhs=lambda r: r * r,
                       rhs=lambda r: 2.0 * r + 0.1,
                       domain=(("r", 0.1, 0.9),),
                       kind="derivative_of_equals", wrt=0)
    rep = check_derivative_identity(bad, n_points=64)
    assert not rep.passed
    assert rep.worst_violation > 0.01
    assert rep.worst_location is not None


DERIVATIVE_CASES = [c.name for c in identity_cases()
                    if c.kind == "derivative_of_equals"]


def _sobol_args(case, n):
    """The case's domain columns at the first n Sobol points."""
    los = np.array([lo for _, lo, _ in case.domain])
    his = np.array([hi for _, _, hi in case.domain])
    pts = los + _sobol_unit(n, len(case.domain)) * (his - los)
    return tuple(np.ascontiguousarray(col) for col in pts.T)


def _lhs_pairs(case):
    """The differentiated lhs as (coefficient, function) pairs."""
    return case.lhs if isinstance(case.lhs, tuple) else ((None, case.lhs),)


@pytest.mark.parametrize("name", DERIVATIVE_CASES)
def test_complex_step_calls_each_function_once(name):
    """Each differentiated function is called once, its wrt argument a
    complex (n,) array, and returns a complex array of that shape."""
    case = _case(name, identity_cases)
    n = 1024
    args = _sobol_args(case, n)
    calls = [[] for _ in _lhs_pairs(case)]

    def counted(fn, seen):
        def f(*a):
            value = fn(*a)
            seen.append((np.shape(a[case.wrt]), np.asarray(a[case.wrt]).dtype,
                         np.shape(value), np.asarray(value).dtype))
            return value
        return f

    wrapped = tuple((coeff, counted(fn, seen))
                    for (coeff, fn), seen in zip(_lhs_pairs(case), calls))
    lhs = wrapped if isinstance(case.lhs, tuple) else wrapped[0][1]
    value = proofcheck._lhs_value(dataclasses.replace(case, lhs=lhs), args)
    assert calls == [[((n,), complex, (n,), complex)]] * len(calls)
    assert value.dtype == np.float64 and value.shape == (n,)


def _central_difference(f, args, i):
    """A plain two-point central difference of f in its argument i."""
    x = args[i]
    h = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.abs(x))
    up, dn = list(args), list(args)
    up[i], dn[i] = x + h, x - h
    return (f(*up) - f(*dn)) / (2.0 * h)


@pytest.mark.parametrize("name", DERIVATIVE_CASES)
def test_complex_step_matches_a_central_difference(name):
    """The complex step agrees with a central difference, which needs no
    complex input: an lhs that is not analytic in its wrt variable (an
    abs, a maximum or a .real of its value) fails here."""
    case = _case(name, identity_cases)
    args = _sobol_args(case, 64)
    stepped = proofcheck._lhs_value(case, args)
    reference = sum((1.0 if coeff is None else coeff(*args))
                    * _central_difference(fn, args, case.wrt)
                    for coeff, fn in _lhs_pairs(case))
    deviation = np.abs(stepped - reference) \
        / (1.0 + np.maximum(np.abs(stepped), np.abs(reference)))
    assert np.all(deviation <= 1e-6), float(np.max(deviation))


def test_central_difference_flags_a_non_analytic_lhs():
    """An abs of the value drops the complex step's imaginary part: the
    complex step reads 0, the central difference the true derivative."""
    case = _case("v_prime", identity_cases)
    args = _sobol_args(case, 64)

    def lhs(r):
        return np.abs(closedform4._v_certificate_arr(r))

    bad = dataclasses.replace(case, lhs=lhs)
    assert np.all(proofcheck._lhs_value(bad, args) == 0.0)
    assert np.allclose(_central_difference(lhs, args, 0), case.rhs(*args),
                       rtol=1e-6, atol=1e-9)


def test_detects_a_broken_inequality():
    bad = IdentityCase(name="bad_leq", lhs=lambda r, z: r + z,
                       rhs=lambda r, z: 1.0,
                       domain=(("r", 0.1, 0.9), ("z", 0.1, 0.9)),
                       kind="pointwise_leq")
    rep = check_inequality(bad)
    assert not rep.passed
    assert rep.worst_violation > 0.5


def _raise(*args):
    raise ZeroDivisionError("side blew up")


def _bad_case(kind, lhs):
    # r on linspace(0, 1, 11) for the inequality checker's grid
    return IdentityCase(name=f"bad_{kind}", lhs=lhs, rhs=lambda r: 0.0 * r,
                        domain=(("r", 0.0, 1.0),), kind=kind, grid_shape=(11,))


@pytest.mark.parametrize("check,kind,lhs,error,match", [
    (check_derivative_identity, "pointwise_leq", np.sin, ValueError,
     "bad_pointwise_leq is an inequality; use check_inequality"),
    (check_inequality, "pointwise_equal", np.sin, ValueError,
     "bad_pointwise_equal is not an inequality case"),
    (check_derivative_identity, "pointwise_equal", _raise, EvaluationError,
     "bad_pointwise_equal: evaluation failed: side blew up"),
    (check_inequality, "pointwise_leq", _raise, EvaluationError,
     "bad_pointwise_leq: evaluation failed: side blew up"),
    (check_inequality, "pointwise_leq", lambda r: np.where(r > 0.45, np.nan, r),
     EvaluationError, r"bad_pointwise_leq: non-finite value at \(0\.5,\)$"),
], ids=["identity_of_inequality", "inequality_of_identity",
        "identity_side_raises", "inequality_side_raises", "first_non_finite"])
def test_checkers_reject_bad_cases_by_name(check, kind, lhs, error, match):
    with pytest.raises(error, match=match):
        check(_bad_case(kind, lhs))


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 64, 1024])
def test_sobol_sample_matches_scipy(n, d):
    from scipy.stats import qmc
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # n = 1 is not a power of two
        ref = qmc.Sobol(d, scramble=False).random(n)
    pts = _sobol_unit(n, d)
    assert pts.dtype == ref.dtype and pts.shape == (n, d)
    assert np.array_equal(pts, ref)
    assert not pts.flags.writeable
    assert _sobol_unit(n, d) is pts


def test_sobol_sample_rejects_dimensions_beyond_its_table():
    with pytest.raises(ValueError, match="d=4"):
        _sobol_unit(16, 4)


def test_import_leaves_scipy_stats_out():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    code = ("import sys, ballgrad, ballgrad.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_oracle_queries_leave_scipy_out():
    """Nothing at run time loads scipy, lazily either: the Gauss rules of
    every product-rule dimension and of the kernel mass are built in
    numpy."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
    code = ("import sys, ballgrad, ballgrad.cli\n"
            "from ballgrad import DirectionalQuery, directional_constant, kernel_mass\n"
            "for n in range(2, 8):\n"
            "    directional_constant(DirectionalQuery(n, 0.5, 0.7))\n"
            "kernel_mass(0.5, 4)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m == 'scipy' or m.startswith('scipy.')))")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert res.stdout.strip() == "[]"


def test_row_blocks_match_the_whole_grid(monkeypatch):
    """Every grid case, evaluated on the open mesh in row blocks, gives the
    violation array of one dense np.meshgrid evaluation element for
    element, and its first maximum.  The added case reads r alone, so its
    sides return one value per row, broadcast across z."""
    r_only = IdentityCase("r_only", lambda r, z: np.sin(20.0 * r),
                          lambda r, z: 0.5 * r,
                          (("r", 0.0, 1.0), ("z", 1e-3, 50.0)),
                          "pointwise_leq", grid_shape=(300, 40))
    cases = [c for c in inequality_cases() if c.checker == "pointwise"]
    assert len(cases) == 12
    seen = []
    first_max = proofcheck._first_max

    def captured(case, values, coords):
        seen.append((np.array(values), [np.array(c) for c in coords]))
        return first_max(case, values, coords)
    monkeypatch.setattr(proofcheck, "_first_max", captured)
    for case in cases + [r_only]:
        d = len(case.domain)
        shape = case.grid_shape or ((10_000,) if d == 1 else (100,) * d)
        axes = [_axis_grid(v, lo, hi, m)
                for (v, lo, hi), m in zip(case.domain, shape)]
        mesh = np.meshgrid(*axes, indexing="ij")
        viol = np.broadcast_to(case.lhs(*mesh) - case.rhs(*mesh), shape)
        assert viol.size > _BLOCK_POINTS  # two row blocks at least
        i = int(np.argmax(viol))
        seen.clear()
        rep = check_inequality(case)
        (values, coords), = seen
        assert values.tobytes() == np.ascontiguousarray(viol).tobytes(), case.name
        assert all(np.array_equal(c, m) for c, m in zip(coords, mesh))
        assert rep.worst_violation == float(viol.flat[i])
        assert rep.worst_location == tuple(float(m.flat[i]) for m in mesh)


def _case(name, cases=inequality_cases):
    return next(c for c in cases() if c.name == name)


def _count_series_calls(monkeypatch):
    """Record, by name, every call of the closed forms' series branches."""
    calls = []
    for name in ("_c_closed_series", "_h1_series", "_frak_c_series"):
        def counted(*args, _name=name, _original=getattr(closedform4, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(closedform4, name, counted)
    return calls


def test_series_branches_run_only_where_an_element_takes_them(monkeypatch):
    calls = _count_series_calls(monkeypatch)
    # r >= 0.05 and z >= 1e-3: no element takes a series
    check_inequality(_case("c_sup_sweep"))
    assert calls == []
    # z = 0 is on this grid, but h3 is computed without h1 and its series
    check_inequality(_case("h3_nonpositive"))
    assert calls == []
    # the sup search evaluates C(z, r) at z = 0, through h1's z-series
    locate_sup(0.5)
    assert set(calls) == {"_h1_series"}
    calls.clear()
    # the radial grid starts at r = 0
    check_inequality(_case("frakc_decreasing"))
    assert set(calls) == {"_frak_c_series"}
    calls.clear()
    with pytest.warns(SeriesBranchWarning):
        closedform4._c_closed_arr(np.array([5e-4, 0.5]), 0.0)
    assert sorted(calls) == ["_c_closed_series", "_h1_series"]


def test_c_sup_sweep_memory_peak():
    """One row block of c_sup_sweep holds the open mesh's axes, the
    violation array and the closed forms' temporaries for 8,000 points:
    about 0.80 MiB (1.55 MiB with a dense mesh)."""
    case = _case("c_sup_sweep")
    tracemalloc.start()
    try:
        check_inequality(case)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.0 * 2 ** 20


def _registry_points():
    """The identity registry's (r, z) Sobol sample, the 100 x 100 chain
    grid and the h3_nonpositive grid, which holds z = 0."""
    domain = _case("h2_prime", identity_cases).domain
    los = np.array([lo for _, lo, _ in domain])
    his = np.array([hi for _, _, hi in domain])
    sample = los + _sobol_unit(1024, 2) * (his - los)
    yield sample[:, 0], sample[:, 1]
    for name in ("chain_step2", "h3_nonpositive"):
        axes = [_axis_grid(v, lo, hi, 100) for v, lo, hi in _case(name).domain]
        yield tuple(np.meshgrid(*axes, indexing="ij"))


def test_components_one_at_a_time_match_the_composition():
    """h1, h2 and h3 computed on their own, and the registry cases built on
    them, equal the components of _c_components_arr bit for bit."""
    h2_prime = _case("h2_prime", identity_cases)
    h3_nonpositive = _case("h3_nonpositive")
    for r, z in _registry_points():
        terms = closedform4._c_terms(r, z)
        h1, h2, h3 = closedform4._c_components_arr(r, z)
        for alone, whole in ((closedform4._h1(*terms), h1),
                             (closedform4._h2(*terms), h2),
                             (closedform4._h3(*terms), h3),
                             (-h2_prime.lhs(r, z), h2),
                             (h3_nonpositive.lhs(r, z), h3)):
            assert alone.tobytes() == whole.tobytes()


def test_identity_case_validation():
    with pytest.raises(ValueError):
        IdentityCase(name="x", lhs=abs, rhs=abs, domain=(),
                     kind="pointwise_equal")
    with pytest.raises(ValueError):
        IdentityCase(name="x", lhs=abs, rhs=abs,
                     domain=(("r", 0.5, 0.1),), kind="pointwise_equal")
    with pytest.raises(ValueError):
        IdentityCase(name="x", lhs=abs, rhs=abs,
                     domain=(("r", 0.1, 0.9),), kind="derivative_of_equals")
    with pytest.raises(ValueError):
        IdentityCase(name="x", lhs=abs, rhs=abs,
                     domain=(("r", 0.1, 0.9),), kind="nope")


def test_chain_cases_are_ordered():
    """The four-step bound chain is registered link by link."""
    names = {c.name for c in inequality_cases()}
    assert {"chain_step1", "chain_step2", "chain_step3", "chain_step4"} <= names


@pytest.mark.parametrize("r", [0.05, 0.3, 0.5, 0.8, 0.95])
def test_locate_sup_at_axis(r):
    res = locate_sup(r)
    c0 = c_at_zero(r)
    assert res.z_star <= 1e-4
    assert res.c_star <= c0 * (1.0 + 1e-9)
    assert res.c_star >= c0 * (1.0 - 1e-9)


def test_locate_sup_other_dimension():
    res = locate_sup(0.5, n=3)
    assert res.z_star <= 1e-4
    assert res.c_star == pytest.approx(1.0068508881177473, rel=1e-13)


def test_locate_sup_five_dimensional_ball():
    res = locate_sup(0.5, n=5)
    c0, _ = c_numeric(EvalPoint(0.5, 0.0), ParamSet.from_radius(0.5, 5))
    assert res.z_star <= 1e-4
    assert res.c_star == pytest.approx(c0, rel=1e-13)


def test_locate_sup_batch_matches_per_radius():
    radii = np.linspace(0.05, 0.95, 19)
    batch = locate_sup(radii)
    assert len(batch) == len(radii)
    for r, res in zip(radii, batch):
        one = locate_sup(float(r))
        for got, want in zip(res, one):
            assert abs(got - want) <= 2.0 * np.spacing(want), (r, res, one)


def test_locate_sup_batch_other_dimension_is_exact():
    radii = np.array([0.2, 0.5, 0.8])
    batch = locate_sup(radii, n=3)
    assert batch == [locate_sup(float(r), n=3) for r in radii]


def _peaked_profile(peaks, calls):
    """A stand-in for _c_closed_arr that peaks at peaks[r] and records the
    number of radii of each call."""
    def profile(r, z):
        calls.append(np.size(r))
        peak = np.vectorize(peaks.get)(np.asarray(r))
        return 1.0 / (1.0 + (z - peak) ** 2)
    return profile


def test_locate_sup_returns_each_radius_its_grid_argmax(monkeypatch):
    """Each radius reports the seed-grid point nearest its own peak, from
    one profile call for all radii, as it would alone."""
    peaks = {0.3: 0.5, 0.5: 5.0, 0.7: 2.0}
    calls = []
    monkeypatch.setattr(proofcheck, "_c_closed_arr", _peaked_profile(peaks, calls))
    batch = locate_sup(np.array(list(peaks)))
    assert calls == [3]
    grid = np.concatenate([[0.0], np.geomspace(1e-8, 6.0, 511)])
    for (r, peak), res in zip(peaks.items(), batch):
        k = np.argmin(np.abs(grid - peak))
        assert res == (grid[k], 1.0 / (1.0 + (grid[k] - peak) ** 2))
        assert res == locate_sup(r)


def test_locate_sup_runaway_window_names_the_radius(monkeypatch):
    monkeypatch.setattr(proofcheck, "_c_closed_arr",
                        _peaked_profile({0.3: 0.5, 0.5: 1e9}, []))
    with pytest.raises(EvaluationError, match=r"C\(\., 0\.5\) keeps running"):
        locate_sup(np.array([0.3, 0.5]))


@pytest.mark.parametrize("r,named", [(0.0, "0.0"), (1.0, "1.0"), (1.5, "1.5"),
                                     (-0.2, "-0.2"), (math.nan, "nan"),
                                     (np.array([0.3, 1.0, 0.5]), "1.0"),
                                     (np.full((2, 2), 0.5), "shape (2, 2)")])
def test_locate_sup_rejects_radii_outside_the_ball(monkeypatch, r, named):
    def unreachable(*args):
        raise AssertionError("evaluated before the radii were checked")

    monkeypatch.setattr(proofcheck, "_c_closed_arr", unreachable)
    with pytest.raises(ValueError, match=f"got {re.escape(named)}$"):
        locate_sup(r)


def test_verify_sup_makes_few_closed_form_calls(monkeypatch, capsys):
    calls = []
    original = closedform4._c_closed_arr

    def counted(r, z):
        calls.append(1)
        return original(r, z)

    # C(0, r), the value each sup is judged against
    c0_shapes = []
    original_c0 = proofcheck._c_at_zero_arr

    def counted_c0(r):
        c0_shapes.append(np.shape(r))
        return original_c0(r)

    monkeypatch.setattr(closedform4, "_c_closed_arr", counted)
    monkeypatch.setattr(proofcheck, "_c_closed_arr", counted)
    monkeypatch.setattr(proofcheck, "_c_at_zero_arr", counted_c0)
    assert main(["verify", "sup", "--json", "--no-timing"]) == 0
    assert len(json.loads(capsys.readouterr().out)["reports"]) == 19
    assert len(calls) == 1
    assert c0_shapes == [(19,)]


def test_conjecture_report_flat_disk():
    rep = conjecture_report(2, [0.3, 0.6], np.linspace(0.0, math.pi / 2, 9))
    assert rep.passed
    assert rep.worst_violation < 1e-5  # direction-independence spread


def test_conjecture_report_four_dimensional():
    rep = conjecture_report(4, [0.2, 0.7], np.linspace(0.0, math.pi / 2, 9))
    assert rep.passed
    assert rep.worst_violation <= 0.0  # no angle beats theta = 0


def test_conjecture_report_exploratory_dimension():
    rep = conjecture_report(7, [0.4], np.linspace(0.0, math.pi / 2, 5))
    assert rep.passed
    assert "exploratory" in rep.note


def test_conjecture_report_empty_grid():
    with pytest.raises(ValueError):
        conjecture_report(4, [], [0.0])


# ---- regression against the one-point-per-call implementation -------------

# Reports of `verify identities`, `verify lemmas` and `verify sup`, frozen
# from the implementation that evaluated one point per scalar call, the
# derivative identities from their complex-step run and sup_n4_r0.25 and
# sup_n4_r0.60 from the grid argmax:
# case name -> (passed, worst_violation, worst_location).
FROZEN_REPORTS = {
    # verify identities
    "frakc_prime": (True, 1.0452074787858166e-10, (0.0228125,)),
    "g1_prime": (True, 8.027765277188441e-16, (0.8834375, 1.11994140625)),
    "h2_prime": (True, 4.0636558161290953e-16, (0.715625, 0.6341015625)),
    "l_prime": (True, 1.011438976208219e-15, (0.9715625, 3.67740234375)),
    "pair_integral": (True, 7.220430200981239e-14,
        (0.025625000000000002, 2.0022265624999998, 0.670625)),
    "psi_pair": (True, 7.623533246600086e-13, (0.02375, 3.984453125, 0.75875)),
    "r_prime_eq_q": (True, 6.6242428772375795e-15,
        (0.02486328125, 0.7428125, 2.45697265625)),
    "u1_prime": (True, 5.2320764203515506e-15,
        (0.8084375, 3.42087890625, 0.7503124999999999)),
    "u_prime": (True, 8.499036153064285e-16, (0.8225, 3.34703125, 0.0275)),
    "v_prime": (True, 6.883650466669395e-16, (0.1071875,)),
    "vu_combination": (True, 2.131323556963291e-15,
        (0.8084375, 3.42087890625, 0.7503124999999999)),
    "x_antiderivative": (True, 5.069078059804242e-16,
        (0.9040625, 1.96724609375, 0.4671875)),
    "x_representation": (True, 5.371936254171168e-16,
        (0.580625, 3.0594140625, 0.865625)),
    # verify lemmas
    "c_sup_sweep": (True, -7.070677376930234e-10, (0.05, 0.001)),
    "chain_step1": (True, -0.000290321559939577, (0.995, 50.0)),
    "chain_step2": (True, -9.289835778414357e-08, (0.995, 0.001)),
    "chain_step3": (True, -5.1659908240075936e-08, (0.995, 0.001)),
    "chain_step4": (True, 1.4166445794216997e-13, (0.05122862286228623,)),
    "frakc_decreasing": (True, -4.244979923129222e-10, (5.000500050005001e-05,)),
    "g1_monotone": (True, -7.995201359512084e-07, (0.001, 50.0)),
    "h2_monotone": (True, -7.995206392090086e-07, (0.001, 50.0)),
    "h3_nonpositive": (True, -0.0, (0.001, 0.0)),
    "l_bound": (True, -9.999982079176455e-13, (0.001, 0.001)),
    "markovic_consistency": (True, 6.661338147750939e-16, (0.39564866486648664,)),
    "tanh_arg_bound": (True, -5.0601858179066816e-05, (0.999, 50.0)),
    "v_nonneg": (True, 2.710505431213761e-20, (0.00010001000100010001,)),
    # verify sup
    "sup_n4_r0.05": (True, 1.1546319456101628e-13, (0.05, 1.2143946921244549e-07)),
    "sup_n4_r0.10": (True, 3.2862601528904634e-14, (0.1, 9.663969393319492e-07)),
    "sup_n4_r0.15": (True, 1.176836406102666e-14, (0.15, 8.844298058181544e-08)),
    "sup_n4_r0.20": (True, 7.105427357601002e-15, (0.2, 1.4805400730441007e-07)),
    "sup_n4_r0.25": (True, 5.329070518200751e-15, (0.25, 2.391472262416008e-08)),
    "sup_n4_r0.30": (True, 3.552713678800501e-15, (0.3, 5.078021230727556e-08)),
    "sup_n4_r0.35": (True, 1.3322676295501878e-15, (0.35, 3.283687640031864e-08)),
    "sup_n4_r0.40": (True, 0.0, (0.39999999999999997, 1.4285931108364471e-08)),
    "sup_n4_r0.45": (True, 6.661338147750939e-16,
        (0.44999999999999996, 4.003336946344758e-08)),
    "sup_n4_r0.50": (True, 1.1102230246251565e-15,
        (0.49999999999999994, 3.033456110241374e-08)),
    "sup_n4_r0.55": (True, 8.881784197001252e-16, (0.5499999999999999, 1e-08)),
    "sup_n4_r0.60": (True, 4.440892098500626e-16, (0.6, 2.6934041930053133e-08)),
    "sup_n4_r0.65": (True, 8.881784197001252e-16, (0.65, 2.6934041930053133e-08)),
    "sup_n4_r0.70": (True, 4.440892098500626e-16, (0.7, 1.8120948209273886e-08)),
    "sup_n4_r0.75": (True, 4.440892098500626e-16, (0.75, 2.5887461773592723e-08)),
    "sup_n4_r0.80": (True, 2.220446049250313e-16, (0.7999999999999999, 1e-08)),
    "sup_n4_r0.85": (True, 2.220446049250313e-16, (0.85, 2.4881548741165954e-08)),
    "sup_n4_r0.90": (True, 4.440892098500626e-16, (0.9, 1.1262535783226167e-08)),
    "sup_n4_r0.95": (True, 8.881784197001252e-16, (0.95, 1.6740051763344927e-08)),
}

# Reports whose worst value is rounding noise: a derivative of a
# function that cancels (frakc_prime, pair_integral), a sum that cancels
# (psi_pair), or the flat top of C(., 0.1), where the grid argmax lands.
# numpy's SIMD arctan, arctanh, log and power differ from the C library's
# in the last bit at some points, and the noise moves with them.  These keep their verdict and
# stay within a quarter of the frozen value, wherever the worst point lands.
ROUNDING_NOISE = {"frakc_prime", "pair_integral", "psi_pair", "sup_n4_r0.10"}


@pytest.mark.parametrize("suite,count", [("identities", 13), ("lemmas", 13),
                                         ("sup", 19)])
def test_reports_match_frozen_scalar_values(capsys, suite, count):
    assert main(["verify", suite, "--json", "--no-timing"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    assert len(reports) == count
    for rep in reports:
        name = rep["case_name"]
        passed, worst, where = FROZEN_REPORTS[name]
        got = rep["worst_violation"]
        assert rep["passed"] is passed, name
        if name in ROUNDING_NOISE:
            assert abs(got - worst) <= 0.25 * abs(worst), (name, got)
        else:
            assert tuple(rep["worst_location"]) == where, name
            assert abs(got - worst) <= max(1e-9 * abs(worst), 1e-15), (name, got)
