"""Machine verification of the analytic identities and inequalities behind
the sharp gradient bound.

Every displayed derivative formula becomes an ``IdentityCase`` whose
finite-difference derivative (Richardson-extrapolated central
differences) is compared against the displayed right-hand side over a
deterministic quasi-random sample; every inequality becomes a dense grid
sweep.  The registries are complete and fixed in size:

Identity registry (13 cases)::

    r_prime_eq_q, u_prime, u1_prime, vu_combination, x_antiderivative,
    x_representation, psi_pair, pair_integral, l_prime, g1_prime,
    h2_prime, v_prime, frakc_prime

Inequality registry (13 cases)::

    l_bound, g1_monotone, h2_monotone, h3_nonpositive, v_nonneg,
    frakc_decreasing, c_sup_sweep, tanh_arg_bound, chain_step1,
    chain_step2, chain_step3, chain_step4, markovic_consistency

``DERIVATIVE_SUITE`` names the nine differentiation checks that
constitute the core antiderivative verification.  ``locate_sup`` runs
the sup-location search (grid seed + golden section) and
``conjecture_report`` aggregates the direction-profile sweep against the
spherical oracle.
"""

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.stats import qmc

from .closedform4 import (EvalPoint, _atan_den, _c_at_zero_arr, _c_closed_arr,
                          _c_components_arr, _envelope_g1_arr, _envelope_L_arr,
                          _frak_c_arr, _gradient_bound_arr, _psi_closed_arr,
                          _sqrt_s, _v_certificate_arr, c_closed)
from .exceptions import EvaluationError
from .kernelint import ParamSet, QuadratureSpec, c_numeric, q_partial_fractions
from .poisson_oracle import SphereQuadrature, best_direction

_CBRT_EPS = float(np.finfo(float).eps) ** (1.0 / 3.0)

#: The nine core derivative identities (the antiderivative suite).
DERIVATIVE_SUITE = ("r_prime_eq_q", "u_prime", "u1_prime", "vu_combination",
                    "x_antiderivative", "l_prime", "g1_prime", "h2_prime",
                    "v_prime")

IDENTITY_CASE_COUNT = 13
INEQUALITY_CASE_COUNT = 13


@dataclass(frozen=True)
class IdentityCase:
    """One verifiable claim: an identity (possibly up to differentiation)
    or a pointwise inequality lhs <= rhs, together with its domain box.

    ``lhs`` and ``rhs`` receive one broadcastable numpy array per domain
    variable (a whole grid or sample at once) and return an array of the
    broadcast shape, or a scalar where the side is constant.

    For ``derivative_of_equals`` the lhs is differentiated with respect
    to the domain variable at index ``wrt`` before comparison; the lhs
    may also be a tuple of (coefficient, function) pairs, verified as
    sum(coeff * d/dx fn) == rhs.
    """

    name: str
    lhs: object
    rhs: object
    domain: tuple  # ((variable, lo, hi), ...)
    kind: str  # derivative_of_equals | pointwise_equal | pointwise_leq
    wrt: Optional[int] = None
    note: str = ""
    checker: str = "pointwise"  # "monotone_decreasing" for sequence checks
    grid_shape: tuple = ()

    def __post_init__(self):
        if self.kind not in ("derivative_of_equals", "pointwise_equal",
                             "pointwise_leq"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not self.domain:
            raise ValueError("domain must be nonempty")
        for var, lo, hi in self.domain:
            if not lo < hi:
                raise ValueError(f"empty range for {var}: [{lo}, {hi}]")
        if self.kind == "derivative_of_equals" and self.wrt is None:
            raise ValueError("derivative case needs a wrt index")


@dataclass(frozen=True)
class VerificationReport:
    case_name: str
    sample_desc: str
    worst_violation: float
    worst_location: tuple
    tolerance: float
    passed: bool
    seed: int
    method: str
    note: str = ""


def _richardson(f, args, i, scale):
    # central difference at steps h and h/2, Richardson-combined: O(h^4)
    x = args[i]
    h = scale * (1.0 + np.abs(x))

    def central(hh):
        up = list(args)
        dn = list(args)
        up[i] = x + hh
        dn[i] = x - hh
        return (f(*up) - f(*dn)) / (2.0 * hh)

    return (4.0 * central(0.5 * h) - central(h)) / 3.0


def _deviation(a, b):
    return np.abs(a - b) / (1.0 + np.maximum(np.abs(a), np.abs(b)))


def _lhs_value(case, args, scale):
    if case.kind == "derivative_of_equals":
        if isinstance(case.lhs, tuple):
            return sum(coeff(*args) * _richardson(fn, args, case.wrt, scale)
                       for coeff, fn in case.lhs)
        return _richardson(case.lhs, args, case.wrt, scale)
    return case.lhs(*args)


def _first_max(case, values, coords):
    """Worst value and its location: the first maximum in C order, as a
    scan with a strict ``>`` would find it.  Any non-finite value is an
    evaluation failure, reported at its first occurrence."""
    values = np.broadcast_to(values, coords[0].shape)
    finite = np.isfinite(values)
    if not np.all(finite):
        i = int(np.argmin(finite))
        where = tuple(float(c.flat[i]) for c in coords)
        raise EvaluationError(f"{case.name}: non-finite value at {where}")
    i = int(np.argmax(values))
    return float(values.flat[i]), tuple(float(c.flat[i]) for c in coords)


def case_deviation(case, point, step_scale=None):
    """Deviation of a single identity case at one explicit point."""
    scale = _CBRT_EPS if step_scale is None else step_scale
    args = tuple(float(x) for x in point)
    return float(_deviation(_lhs_value(case, args, scale), case.rhs(*args)))


def check_derivative_identity(case, n_points=1024, tolerance=1e-7, seed=0,
                              step_scale=None):
    """Verify a derivative (or pointwise) identity over a Sobol sample.

    The sample is unscrambled, hence fully deterministic; the deviation
    metric |lhs - rhs| / (1 + max(|lhs|, |rhs|)) is symmetric in the two
    sides.  The whole sample is evaluated in one call per side; an
    evaluation failure aborts with the case name and the offending
    point in the exception message.
    """
    if case.kind == "pointwise_leq":
        raise ValueError(f"{case.name} is an inequality; use check_inequality")
    scale = _CBRT_EPS if step_scale is None else step_scale
    los = [lo for _, lo, _ in case.domain]
    his = [hi for _, _, hi in case.domain]
    sampler = qmc.Sobol(d=len(case.domain), scramble=False, seed=seed)
    pts = qmc.scale(sampler.random(n_points), los, his)
    args = tuple(np.ascontiguousarray(col) for col in pts.T)

    try:
        dev = _deviation(_lhs_value(case, args, scale), case.rhs(*args))
    except Exception as exc:
        raise EvaluationError(f"{case.name}: evaluation failed: {exc}") from exc
    worst, where = _first_max(case, dev, args)

    method = ("richardson_fd" if case.kind == "derivative_of_equals"
              else "pointwise")
    box = ", ".join(f"{v} in [{lo:g}, {hi:g}]" for v, lo, hi in case.domain)
    return VerificationReport(case_name=case.name,
                              sample_desc=f"sobol[{n_points}] over {box}",
                              worst_violation=worst, worst_location=where,
                              tolerance=tolerance, passed=worst <= tolerance,
                              seed=seed, method=method, note=case.note)


def _axis_grid(var, lo, hi, m):
    if var == "z":
        # log-spaced across scales; keep an exact zero if the range asks
        if lo == 0.0:
            return np.concatenate([[0.0], np.geomspace(1e-8, hi, m - 1)])
        return np.geomspace(lo, hi, m)
    return np.linspace(lo, hi, m)


def check_inequality(case, tolerance=1e-12, seed=0):
    """Sweep a pointwise inequality lhs <= rhs over dense grids.

    Reports the worst signed violation (positive means violated), with a
    small roundoff slack as the default tolerance.  The special checker
    ``monotone_decreasing`` instead verifies that consecutive lhs values
    strictly decrease along a one-dimensional grid.
    """
    if case.kind != "pointwise_leq":
        raise ValueError(f"{case.name} is not an inequality case")
    d = len(case.domain)
    if case.grid_shape:
        shape = case.grid_shape
    else:
        shape = (10_000,) if d == 1 else (100,) * d
    axes = [_axis_grid(var, lo, hi, m)
            for (var, lo, hi), m in zip(case.domain, shape)]

    try:
        if case.checker == "monotone_decreasing":
            grid = axes[0]
            vals = case.lhs(grid)
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            viol = case.lhs(*mesh) - case.rhs(*mesh)
    except Exception as exc:
        raise EvaluationError(f"{case.name}: evaluation failed: {exc}") from exc

    if case.checker == "monotone_decreasing":
        mids = 0.5 * (grid[:-1] + grid[1:])
        worst, where = _first_max(case, np.diff(vals), (mids,))
    else:
        worst, where = _first_max(case, viol, mesh)

    box = ", ".join(f"{v} in [{lo:g}, {hi:g}]" for v, lo, hi in case.domain)
    desc = "x".join(str(m) for m in shape) + f" grid over {box}"
    return VerificationReport(case_name=case.name, sample_desc=desc,
                              worst_violation=worst, worst_location=where,
                              tolerance=tolerance, passed=worst <= tolerance,
                              seed=seed, method=case.checker, note=case.note)


# ---------------------------------------------------------------------------
# displayed formulas entering the registries
# ---------------------------------------------------------------------------

def _r_antideriv(w, r, z):
    # antiderivative (in w) of the profile integrand, up to 32 r^3/(1+r)^2
    r2 = r * r
    w2 = w * w
    return (4.0 * r * w * (1.0 + w2 + r * (w2 - 1.0))
            - 4.0 * r * (1.0 + r2 + (1.0 + r) ** 2 * w2) * z) / (1.0 + w2) ** 2 \
        + 2.0 * (r2 - 1.0) * np.arctan(w) \
        + 2.0 * (r2 - 1.0) * np.arctan((r - 1.0) * w / (1.0 + r)) \
        + (1.0 - r2) ** 2 * z * np.log(((1.0 + r) ** 2 + (1.0 - r) ** 2 * w2)
                                       / (1.0 + w2))


def _u_display(r, z, t):
    tz = t * z
    s = _sqrt_s(r, tz)
    d = _atan_den(r, tz)
    r2 = r * r
    return np.arctan(r * (2.0 * r * tz - (2.0 - r2) * s) / d) \
        - np.arctan(r * (2.0 * r * tz + (2.0 - r2) * s) / d)


def _u_prime_display(r, z, t):
    tz2 = (t * z) ** 2
    r2 = r * r
    return r * t * z * z * ((2.0 - r2) ** 2 + 2.0 * (2.0 - 3.0 * r2 + r2 * r2) * tz2) \
        / ((1.0 + tz2) * _sqrt_s(r, t * z) * (1.0 + (1.0 - r2) ** 2 * tz2))


def _u1_display(r, z, t):
    tz = t * z
    r2 = r * r
    return -z * (1.0 - r2) * np.arctanh(r * tz * _sqrt_s(r, tz)
                                        / (1.0 + (1.0 + r2) * tz * tz))


def _u1_prime_display(r, z, t):
    tz2 = (t * z) ** 2
    r2 = r * r
    num = -4.0 + 5.0 * r2 - r2 * r2 + (-4.0 + 7.0 * r2 - 4.0 * r2 * r2
                                       + r2 ** 3) * tz2
    return r * z * z * num / ((1.0 + tz2) * _sqrt_s(r, t * z)
                              * (1.0 + (1.0 - r2) ** 2 * tz2))


def _vu_prime_display(r, z, t):
    tz2 = (t * z) ** 2
    r2 = r * r
    num = -4.0 + 3.0 * r2 - r2 * r2 - (4.0 - 5.0 * r2 + r2 ** 3) * tz2
    return -r * t * t * z * z * num / (2.0 * (1.0 + tz2) * _sqrt_s(r, t * z)
                                       * (1.0 + (1.0 - r2) ** 2 * tz2))


def _y_envelope(r, z, t):
    tz2 = (t * z) ** 2
    r2 = r * r
    return r * _sqrt_s(r, t * z) * (2.0 + r2 + 2.0 * (1.0 + r2) * tz2) \
        / (2.0 * (1.0 - r2) * (1.0 + tz2))


def _x_display(r, z, t):
    return _y_envelope(r, z, t) - _vu_prime_display(r, z, t)


def _x_antideriv_display(r, z, t):
    s = _sqrt_s(r, t * z)
    r2 = r * r
    return (r * (1.0 + r2) * t * z * s + np.arctanh(r * t * z / s)
            - np.arctanh(r * (r2 - 3.0) * t * z / s)) / (2.0 * (1.0 - r2) * z)


def _x_rep_display(r, z, t):
    s = _sqrt_s(r, t * z)
    tz2 = (t * z) ** 2
    r2 = r * r
    return 4.0 * r * (1.0 + r2) * t * t * z ** 3 / s + r * (1.0 + r2) * z * s \
        + r * z / (s * (1.0 + tz2)) \
        - r * (r2 - 3.0) * z / (s * (1.0 + (1.0 - r2) ** 2 * tz2))


def _pair_display(r, z, t):
    # Psi(z t) + Psi(-z t) in one combined expression
    tz = t * z
    s = _sqrt_s(r, tz)
    d = _atan_den(r, tz)
    r2 = r * r
    return (1.0 - r) * (1.0 + r) ** 3 / (16.0 * r ** 3) * (
        r * s * (2.0 + r2 + 2.0 * (1.0 + r2) * tz * tz)
        / (2.0 * (1.0 - r2) * (1.0 + tz * tz))
        - np.arctan(r * (2.0 * r * tz + (2.0 - r2) * s) / d)
        + np.arctan(r * (2.0 * r * tz - (2.0 - r2) * s) / d)
        - (1.0 - r2) * tz * np.arctanh(r * tz * s / (1.0 + (1.0 + r2) * tz * tz)))


def _pair_antideriv_display(r, z, t):
    # t-antiderivative of _pair_display
    tz = t * z
    s = _sqrt_s(r, tz)
    d = _atan_den(r, tz)
    r2 = r * r
    return (1.0 + r) ** 2 / (16.0 * r ** 3 * z) * (
        0.5 * r * (1.0 + r2) * tz * s
        + 0.5 * np.arctanh(r * tz / s) - 0.5 * np.arctanh(r * (r2 - 3.0) * tz / s)
        + (r2 - 1.0) * tz * np.arctan(r * (2.0 * r * tz + (2.0 - r2) * s) / d)
        - (r2 - 1.0) * tz * np.arctan(r * (2.0 * r * tz - (2.0 - r2) * s) / d)
        - 0.5 * (r2 - 1.0) ** 2 * tz * tz * np.arctanh(r * tz * s
                                                       / (1.0 + (1.0 + r2) * tz * tz)))


def _l_prime_display(r, z):
    r2 = r * r
    return r * (4.0 - r2 + (4.0 - 3.0 * r2 + r2 * r2) * z * z) \
        / ((1.0 + z * z) * _sqrt_s(r, z) * (1.0 + (1.0 - r2) ** 2 * z * z))


def _g1_prime_display(r, z):
    r2 = r * r
    rad = np.sqrt((4.0 - r2) * (4.0 * (1.0 + z * z) - r2))
    return r * z * (r2 + r2 * r2 - rad) \
        / ((1.0 + z * z) ** 1.5 * _sqrt_s(r, z))


def _h2_prime_display(r, z):
    # corrected leading coefficient r (the doubled variant fails the
    # finite-difference check by a uniform factor of two)
    r2 = r * r
    return r * (2.0 - r2) * z * (r2 - 2.0 + 2.0 * (r2 - 1.0) * z * z) \
        / ((1.0 + z * z) * _sqrt_s(r, z) * (1.0 + (1.0 - r2) ** 2 * z * z))


def _v_prime_display(r):
    return r ** 4 * np.sqrt(4.0 - r * r) / (2.0 * (3.0 - r * r) ** 2)


def _frak_prime_display(r):
    s0 = np.sqrt(4.0 - r * r)
    return -((r - 2.0) * r * (r + 2.0) * (r * r - 6.0)
             - 4.0 * s0 * (r * r - 3.0) * np.arctan(r * s0 / (r * r - 2.0))) \
        / (math.pi * r ** 4 * s0)


# pieces of the four-step bound chain
def _chain_coef(r, z):
    return 2.0 * (1.0 - r) / (math.pi * r ** 3 * np.sqrt(1.0 + z * z))


def _h2_mag_zero(r):
    # |h2| at z = 0: the positive branch of the arctan difference
    return 2.0 * np.arctan(r * np.sqrt(4.0 - r * r) / (2.0 - r * r))


def _h1_of(r, z):
    return _c_components_arr(r, z)[0]


def _chain_line2(r, z):
    return _chain_coef(r, z) * (_h1_of(r, z) + _h2_mag_zero(r))


def _chain_line3(r, z):
    return (1.0 - r) / (math.pi * r ** 3 * (1.0 - r * r)) \
        * _envelope_g1_arr(r, z) + _chain_coef(r, z) * _h2_mag_zero(r)


def _chain_line4(r, z):
    return (1.0 - r) / (math.pi * r ** 3 * (1.0 - r * r)) \
        * _envelope_g1_arr(r, 0.0) \
        + 2.0 * (1.0 - r) / (math.pi * r ** 3) * _h2_mag_zero(r)


def _chain_close_gap(r):
    # closing equality balances only with the minus-first h2 branch
    line4 = (1.0 - r) / (math.pi * r ** 3 * (1.0 - r * r)) \
        * _envelope_g1_arr(r, 0.0) \
        + 2.0 * (1.0 - r) / (math.pi * r ** 3) * (-_h2_mag_zero(r))
    return np.abs(line4 - _c_at_zero_arr(r))


def _tanh_arg_worst(r, z):
    s = _sqrt_s(r, z)
    return np.maximum(r * z * s / (1.0 + (1.0 + r * r) * z * z),
                      r * (3.0 - r * r) * z / s)


def _zero(*args):
    return 0.0


def identity_cases():
    """The thirteen registered identity cases."""
    b_r = ("r", 0.02, 0.98)
    b_z = ("z", 0.02, 4.0)
    b_t = ("t", 0.02, 0.98)
    b_w = ("w", 0.02, 5.0)

    return [
        IdentityCase("r_prime_eq_q", _r_antideriv,
                     lambda w, r, z: 32.0 * r ** 3 / (1.0 + r) ** 2
                     * q_partial_fractions(w, r, z),
                     (b_w, b_r, b_z), "derivative_of_equals", wrt=0,
                     note="profile-integrand antiderivative, via the "
                          "partial-fraction form of the integrand"),
        IdentityCase("u_prime", _u_display, _u_prime_display,
                     (b_r, b_z, b_t), "derivative_of_equals", wrt=2),
        IdentityCase("u1_prime", _u1_display, _u1_prime_display,
                     (b_r, b_z, b_t), "derivative_of_equals", wrt=2),
        IdentityCase("vu_combination",
                     ((lambda r, z, t: t, _u_display),
                      (lambda r, z, t: 0.5 * t * t, _u1_display)),
                     _vu_prime_display,
                     (b_r, b_z, b_t), "derivative_of_equals", wrt=2,
                     note="t U' + (t^2/2) U1' combined into one display"),
        IdentityCase("x_antiderivative", _x_antideriv_display, _x_display,
                     (b_r, b_z, b_t), "derivative_of_equals", wrt=2),
        IdentityCase("x_representation",
                     lambda r, z, t: 2.0 * (1.0 - r * r) * z * _x_display(r, z, t),
                     _x_rep_display,
                     (b_r, b_z, b_t), "pointwise_equal"),
        IdentityCase("psi_pair",
                     lambda r, z, t: _psi_closed_arr(r, z * t)
                     + _psi_closed_arr(r, -(z * t)),
                     _pair_display,
                     (b_r, b_z, b_t), "pointwise_equal",
                     note="shipped closed form against the combined display"),
        IdentityCase("pair_integral", _pair_antideriv_display, _pair_display,
                     (b_r, b_z, b_t), "derivative_of_equals", wrt=2),
        IdentityCase("l_prime",
                     _envelope_L_arr,
                     _l_prime_display,
                     (b_r, b_z), "derivative_of_equals", wrt=1),
        IdentityCase("g1_prime",
                     _envelope_g1_arr,
                     _g1_prime_display,
                     (b_r, b_z), "derivative_of_equals", wrt=1),
        IdentityCase("h2_prime",
                     lambda r, z: -_c_components_arr(r, z)[1],
                     _h2_prime_display,
                     (b_r, b_z), "derivative_of_equals", wrt=1,
                     note="lhs is the magnitude branch of h2; the registered "
                          "derivative carries leading coefficient r -- the "
                          "doubled (2r) variant deviates by exactly 2x"),
        IdentityCase("v_prime", _v_certificate_arr, _v_prime_display,
                     (("r", 0.02, 0.98),), "derivative_of_equals", wrt=0),
        IdentityCase("frakc_prime", _frak_c_arr, _frak_prime_display,
                     (("r", 0.1, 0.98),), "derivative_of_equals", wrt=0,
                     note="lower margin 0.1: below it the r^3 cancellation "
                          "in the numerator amplifies finite-difference noise"),
    ]


def inequality_cases():
    """The thirteen registered inequality cases."""
    b_r = ("r", 1e-3, 1.0 - 1e-3)
    b_z = ("z", 1e-3, 50.0)

    l4_note = ("uses the magnitude (positive-at-zero) branch of h2; "
               "the minus-first branch breaks this step")

    return [
        IdentityCase("l_bound",
                     _envelope_L_arr,
                     lambda r, z: r * z * np.sqrt(4.0 - r * r),
                     (b_r, b_z), "pointwise_leq"),
        IdentityCase("g1_monotone", _g1_prime_display, _zero,
                     (b_r, b_z), "pointwise_leq",
                     note="g1'(z) <= 0 for z >= 0"),
        IdentityCase("h2_monotone", _h2_prime_display, _zero,
                     (b_r, b_z), "pointwise_leq",
                     note="|h2| decreases from its z = 0 maximum"),
        IdentityCase("h3_nonpositive",
                     lambda r, z: _c_components_arr(r, z)[2], _zero,
                     (("r", 1e-3, 1.0 - 1e-3), ("z", 0.0, 50.0)),
                     "pointwise_leq",
                     note="h3(r, 0) = 0 attained on the grid"),
        IdentityCase("v_nonneg", _zero, _v_certificate_arr,
                     (("r", 0.0, 1.0),), "pointwise_leq",
                     note="v(0) = 0 attained"),
        IdentityCase("frakc_decreasing", _frak_c_arr, None,
                     (("r", 0.0, 1.0),), "pointwise_leq",
                     checker="monotone_decreasing"),
        IdentityCase("c_sup_sweep",
                     _c_closed_arr,
                     lambda r, z: _c_at_zero_arr(r),
                     (("r", 0.05, 0.995), b_z), "pointwise_leq",
                     grid_shape=(200, 200),
                     note="C(z, r) <= C(0, r): the sup sits at z = 0"),
        IdentityCase("tanh_arg_bound", _tanh_arg_worst,
                     lambda r, z: 1.0,
                     (b_r, b_z), "pointwise_leq",
                     note="every inverse-tanh argument stays inside (-1, 1)"),
        IdentityCase("chain_step1",
                     _c_closed_arr, _chain_line2,
                     (("r", 0.05, 0.995), b_z), "pointwise_leq", note=l4_note),
        IdentityCase("chain_step2", _chain_line2, _chain_line3,
                     (("r", 0.05, 0.995), b_z), "pointwise_leq",
                     note="branch-independent: the h2(0) term cancels"),
        IdentityCase("chain_step3", _chain_line3, _chain_line4,
                     (("r", 0.05, 0.995), b_z), "pointwise_leq", note=l4_note),
        IdentityCase("chain_step4", _chain_close_gap, _zero,
                     (("r", 0.05, 0.995),), "pointwise_leq",
                     note="closing equality with C(0, r); balances only for "
                          "the minus-first (negative-at-zero) h2 branch, the "
                          "convention shipped in c_components"),
        IdentityCase("markovic_consistency",
                     lambda r: np.abs(_c_at_zero_arr(r)
                                      - (1.0 - r) * _gradient_bound_arr(r)),
                     _zero,
                     (("r", 1e-3, 1.0 - 1e-3),), "pointwise_leq",
                     note="the two normalizations of the sharp constant agree"),
    ]


def run_identity_suite(tolerance=1e-7, n_points=1024, seed=0):
    """All identity cases, reports sorted by case name."""
    reports = [check_derivative_identity(c, n_points=n_points,
                                         tolerance=tolerance, seed=seed)
               for c in identity_cases()]
    return sorted(reports, key=lambda rep: rep.case_name)


def run_inequality_suite(tolerance=1e-12, seed=0):
    """All inequality cases, reports sorted by case name."""
    reports = [check_inequality(c, tolerance=tolerance, seed=seed)
               for c in inequality_cases()]
    return sorted(reports, key=lambda rep: rep.case_name)


# ---------------------------------------------------------------------------
# sup location and the direction-profile sweep
# ---------------------------------------------------------------------------

SupResult = namedtuple("SupResult", ["z_star", "c_star"])


def _golden_max(f, a, b, rel_tol=1e-12, max_iter=200):
    g = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - g * (b - a)
    d = a + g * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iter):
        if b - a <= rel_tol * (1.0 + abs(a) + abs(b)):
            break
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - g * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + g * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def locate_sup(r, n=4, z_max=6.0, q=None, grid_points=512):
    """Maximize z -> C(z, r): log-grid seed + golden-section refinement.

    For n = 4 the profile comes from the closed form, whose seed grid is
    one array call; otherwise from the quadrature representation, one
    call per grid point.  The profile does not decay -- it levels
    off at the tangential-direction value as z grows -- so the search
    window [0, z_max] is doubled only while the grid argmax keeps landing
    on the right edge, meaning the maximum might still lie beyond it.
    """
    if n == 4:
        def point(z):
            return c_closed(EvalPoint(r, z))

        def profile(zs):
            return _c_closed_arr(r, zs)
    else:
        ps = ParamSet.from_radius(r, n)
        qq = q if q is not None else QuadratureSpec(abs_tol=1e-9, rel_tol=1e-9)

        def point(z):
            return c_numeric(EvalPoint(r, z), ps, qq)[0]

        def profile(zs):
            return np.array([point(z) for z in zs])

    for _ in range(20):
        zs = np.concatenate([[0.0], np.geomspace(1e-8, z_max, grid_points - 1)])
        vals = profile(zs)
        i = int(np.argmax(vals))
        if i + 2 < len(zs):
            break
        z_max *= 2.0
    else:
        raise EvaluationError(
            f"maximum of C(., {r}) keeps running past z = {z_max}")

    lo = zs[i - 1] if i > 0 else 0.0
    hi = zs[i + 1]
    z_star, c_star = _golden_max(point, float(lo), float(hi))
    if vals[i] >= c_star:  # never report worse than the best grid value
        z_star, c_star = float(zs[i]), float(vals[i])
    return SupResult(z_star=float(z_star), c_star=float(c_star))


def conjecture_report(n, r_grid, theta_grid, sq=SphereQuadrature()):
    """Aggregate best_direction over a radius grid.

    For n = 4 this is a genuine pass/fail check: theta = 0 must maximize
    every profile within the quadrature error allowance.  n = 2 runs a
    direction-independence (flatness) check instead, and any other
    dimension is exploratory -- reported, never failed.
    """
    r_grid = [float(r) for r in r_grid]
    theta_grid = [float(t) for t in theta_grid]
    if not r_grid:
        raise ValueError("r_grid must be nonempty")

    worst = -math.inf
    where = None
    for r in r_grid:
        bd = best_direction(n, r, theta_grid, sq)
        values = [v for _, v in bd.profile]
        value0 = dict(bd.profile)[0.0]
        if n == 2:
            spread = (max(values) - min(values)) / max(values)
            if spread > worst:
                t_at = max(bd.profile, key=lambda tv: tv[1])[0]
                worst, where = spread, (r, t_at)
        else:
            for t, v in bd.profile:
                if t == 0.0:
                    continue
                excess = v - value0 - bd.allowance
                if excess > worst:
                    worst, where = excess, (r, t)

    if n == 4:
        tolerance, note = 0.0, "normal direction maximizes within allowance"
    elif n == 2:
        tolerance, note = 1e-5, "direction-independence (flatness) check"
    else:
        tolerance, note = math.inf, "exploratory: no pass criterion here"

    return VerificationReport(
        case_name=f"conjecture_n{n}",
        sample_desc=f"{len(r_grid)} radii x {len(theta_grid)} angles",
        worst_violation=worst, worst_location=where, tolerance=tolerance,
        passed=worst <= tolerance, seed=sq.seed, method=sq.method, note=note)
