"""Machine verification of the analytic identities and inequalities behind
the sharp gradient bound.

Every displayed derivative formula becomes an ``IdentityCase`` whose
complex-step derivative Im f(x + ih) / h is compared against the
displayed right-hand side over a deterministic quasi-random sample; every
inequality becomes a dense grid sweep.  The registries are complete and
fixed in size:

Identity registry (13 cases)::

    r_prime_eq_q, u_prime, u1_prime, vu_combination, x_antiderivative,
    x_representation, psi_pair, pair_integral, l_prime, g1_prime,
    h2_prime, v_prime, frakc_prime

Inequality registry (13 cases)::

    l_bound, g1_monotone, h2_monotone, h3_nonpositive, v_nonneg,
    frakc_decreasing, c_sup_sweep, tanh_arg_bound, chain_step1,
    chain_step2, chain_step3, chain_step4, markovic_consistency

``DERIVATIVE_SUITE`` names the nine differentiation checks that
constitute the core antiderivative verification.  ``locate_sup`` takes
the argmax of C(., r) on a log grid, and ``conjecture_report``
aggregates the direction-profile sweep against the spherical oracle.

Every ``verify`` suite's reports, and the verdict of each, come from
this module: ``run_identity_suite``, ``run_inequality_suite``,
``sup_reports``, ``conjecture_report`` and ``oracle_reports``.  A report
that is exploratory (reported, never judged) has ``tolerance=None``.
"""

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .closedform4 import (_atan_den, _c_at_zero_arr, _c_closed_arr,
                          _c_terms, _envelope_g1_arr, _envelope_L_arr,
                          _frak_c_arr, _gradient_bound_arr, _h1, _h2,
                          _h3, _psi_closed_arr, _sqrt_s, _v_certificate_arr)
from .exceptions import EvaluationError
from .kernelint import q_partial_fractions
from .poisson_oracle import (DEFAULT_SEED, PRODUCT_GAUSS, DirectionalQuery,
                             best_direction, direction_profile,
                             directional_constant, kernel_mass,
                             poisson_gradient, poisson_kernel)

_COMPLEX_STEP = 1e-30  # h in f'(x) = Im f(x + ih) / h: nothing cancels

#: Sobol points are 30-bit integers scaled by 2^-30.
_SOBOL_BITS = 30
#: Joe-Kuo rows (s, a, (m_1, ..., m_s)) of Sobol dimensions 2, 3, ...;
#: dimension 1 is the van der Corput sequence.
_SOBOL_JOE_KUO = ((1, 0, (1,)), (2, 1, (1, 3)))
#: Largest number of grid points an inequality side is evaluated on in
#: one call; a larger grid is evaluated in row blocks, so the temporaries
#: of each call stay small heap blocks instead of fresh mappings.  The
#: grid is an open mesh, so a block holds its rows of the first axis and
#: the other axes whole, and only the violation array has the grid's size.
_BLOCK_POINTS = 8192

#: The nine core derivative identities (the antiderivative suite).
DERIVATIVE_SUITE = ("r_prime_eq_q", "u_prime", "u1_prime", "vu_combination",
                    "x_antiderivative", "l_prime", "g1_prime", "h2_prime",
                    "v_prime")


@dataclass(frozen=True)
class IdentityCase:
    """One verifiable claim: an identity (possibly up to differentiation)
    or a pointwise inequality lhs <= rhs, together with its domain box.

    ``lhs`` and ``rhs`` receive one broadcastable numpy array per domain
    variable (a whole grid or sample at once) and return an array of the
    broadcast shape, or a scalar where the side is constant.  A
    differentiated lhs receives its ``wrt`` variable as x + ih and must be
    analytic in it: no ``abs``, ``maximum`` or ``.real`` of its value.

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
    tolerance: Optional[float]  # None: exploratory, never judged
    passed: bool
    method: str
    seed: Optional[int] = None  # set only where a seed chooses samples
    note: str = ""


def _sobol_directions(d):
    """Direction integers v_k = m_k 2^(B-k), k = 1..B, of Sobol dimension d."""
    if d == 1:
        m = [1] * _SOBOL_BITS
    else:
        s, a, m = _SOBOL_JOE_KUO[d - 2]
        m = list(m)
        for k in range(s, _SOBOL_BITS):
            mk = m[k - s] ^ (m[k - s] << s)
            for j in range(1, s):
                if (a >> (s - 1 - j)) & 1:
                    mk ^= m[k - j] << j
            m.append(mk)
    return [mk << (_SOBOL_BITS - 1 - k) for k, mk in enumerate(m)]


@functools.lru_cache(maxsize=None)
def _sobol_unit(n, d):
    """Cached first n points of the unscrambled d-dimensional Sobol
    sequence in [0, 1)^d, in Gray-code order, as a read-only (n, d) array.

    Point i is the XOR of the direction integers at the set bits of the
    Gray code i ^ (i >> 1), scaled by 2^-30: the points of
    ``scipy.stats.qmc.Sobol(d, scramble=False).random(n)``, bit for bit.
    """
    if not 1 <= d <= len(_SOBOL_JOE_KUO) + 1:
        raise ValueError(f"no Sobol direction numbers for dimension d={d} "
                         f"(1 <= d <= {len(_SOBOL_JOE_KUO) + 1})")
    i = np.arange(n, dtype=np.int64)
    gray = i ^ (i >> 1)
    pts = np.zeros((n, d), dtype=np.int64)
    for j in range(d):
        for b, v in enumerate(_sobol_directions(j + 1)):
            pts[:, j] ^= np.where((gray >> b) & 1, v, 0)
    x = pts * 2.0 ** -_SOBOL_BITS
    x.flags.writeable = False
    return x


def _complex_step(f, args, i):
    # df/dx_i as Im f(..., x_i + ih, ...) / h, in one call of f
    shifted = list(args)
    shifted[i] = args[i] + 1j * _COMPLEX_STEP
    return np.imag(f(*shifted)) / _COMPLEX_STEP


def _deviation(a, b):
    return np.abs(a - b) / (1.0 + np.maximum(np.abs(a), np.abs(b)))


def _lhs_value(case, args):
    if case.kind == "derivative_of_equals":
        if isinstance(case.lhs, tuple):
            return sum(coeff(*args) * _complex_step(fn, args, case.wrt)
                       for coeff, fn in case.lhs)
        return _complex_step(case.lhs, args, case.wrt)
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


def check_derivative_identity(case, n_points=1024, tolerance=1e-7):
    """Verify a derivative (or pointwise) identity over a Sobol sample.

    The sample is unscrambled, hence fully deterministic; the deviation
    metric |lhs - rhs| / (1 + max(|lhs|, |rhs|)) is symmetric in the two
    sides.  The whole sample is evaluated in one call of each side's
    function, a derivative's complex step x + ih included; an evaluation
    failure aborts with the case name and the offending point in the
    exception message.
    """
    if case.kind == "pointwise_leq":
        raise ValueError(f"{case.name} is an inequality; use check_inequality")
    los = np.array([lo for _, lo, _ in case.domain])
    his = np.array([hi for _, _, hi in case.domain])
    pts = los + _sobol_unit(n_points, len(case.domain)) * (his - los)
    args = tuple(np.ascontiguousarray(col) for col in pts.T)

    try:
        dev = _deviation(_lhs_value(case, args), case.rhs(*args))
    except Exception as exc:
        raise EvaluationError(f"{case.name}: evaluation failed: {exc}") from exc
    worst, where = _first_max(case, dev, args)

    method = ("complex_step" if case.kind == "derivative_of_equals"
              else "pointwise")
    box = ", ".join(f"{v} in [{lo:g}, {hi:g}]" for v, lo, hi in case.domain)
    return VerificationReport(case_name=case.name,
                              sample_desc=f"sobol[{n_points}] over {box}",
                              worst_violation=worst, worst_location=where,
                              tolerance=tolerance, passed=worst <= tolerance,
                              method=method, note=case.note)


def _axis_grid(var, lo, hi, m):
    if var == "z":
        # log-spaced across scales; keep an exact zero if the range asks
        if lo == 0.0:
            return np.concatenate([[0.0], np.geomspace(1e-8, hi, m - 1)])
        return np.geomspace(lo, hi, m)
    return np.linspace(lo, hi, m)


def check_inequality(case, tolerance=1e-12):
    """Sweep a pointwise inequality lhs <= rhs over dense grids.

    Reports the worst signed violation (positive means violated), with a
    small roundoff slack as the default tolerance.  The special checker
    ``monotone_decreasing`` instead verifies that consecutive lhs values
    strictly decrease along a one-dimensional grid.  The sides receive an
    open mesh (``np.meshgrid(..., sparse=True)``): one array per axis,
    shaped to broadcast, so a subexpression of r alone or z alone runs
    once per axis point.  A grid of more than ``_BLOCK_POINTS`` points is
    evaluated in blocks of whole rows of its first axis, joined in order,
    so the first maximum is the same.
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
            mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
            viol = np.empty(shape)
            step = max(1, _BLOCK_POINTS * shape[0] // viol.size)
            for i in range(0, shape[0], step):
                rows = [mesh[0][i:i + step], *mesh[1:]]
                viol[i:i + step] = case.lhs(*rows) - case.rhs(*rows)
    except Exception as exc:
        raise EvaluationError(f"{case.name}: evaluation failed: {exc}") from exc

    if case.checker == "monotone_decreasing":
        mids = 0.5 * (grid[:-1] + grid[1:])
        worst, where = _first_max(case, np.diff(vals), (mids,))
    else:
        worst, where = _first_max(case, viol, np.broadcast_arrays(*mesh))

    box = ", ".join(f"{v} in [{lo:g}, {hi:g}]" for v, lo, hi in case.domain)
    desc = "x".join(str(m) for m in shape) + f" grid over {box}"
    return VerificationReport(case_name=case.name, sample_desc=desc,
                              worst_violation=worst, worst_location=where,
                              tolerance=tolerance, passed=worst <= tolerance,
                              method=case.checker, note=case.note)


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
    # derivative check by a uniform factor of two)
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


def _chain_line2(r, z):
    return _chain_coef(r, z) * (_h1(*_c_terms(r, z)) + _h2_mag_zero(r))


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
                     lambda r, z: -_h2(*_c_terms(r, z)),
                     _h2_prime_display,
                     (b_r, b_z), "derivative_of_equals", wrt=1,
                     note="lhs is the magnitude branch of h2; the registered "
                          "derivative carries leading coefficient r -- the "
                          "doubled (2r) variant deviates by exactly 2x"),
        IdentityCase("v_prime", _v_certificate_arr, _v_prime_display,
                     (b_r,), "derivative_of_equals", wrt=0),
        IdentityCase("frakc_prime", _frak_c_arr, _frak_prime_display,
                     (b_r,), "derivative_of_equals", wrt=0),
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
                     lambda r, z: _h3(*_c_terms(r, z)), _zero,
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


def run_identity_suite(tolerance=1e-7, n_points=1024):
    """All identity cases, reports sorted by case name."""
    reports = [check_derivative_identity(c, n_points=n_points, tolerance=tolerance)
               for c in identity_cases()]
    return sorted(reports, key=lambda rep: rep.case_name)


def run_inequality_suite(tolerance=1e-12):
    """All inequality cases, reports sorted by case name."""
    reports = [check_inequality(c, tolerance=tolerance) for c in inequality_cases()]
    return sorted(reports, key=lambda rep: rep.case_name)


# ---------------------------------------------------------------------------
# sup location and the direction-profile sweep
# ---------------------------------------------------------------------------

SupResult = namedtuple("SupResult", ["z_star", "c_star"])
_SUP_Z_MAX = 6.0  # right edge of the seed grid
_SUP_GRID_POINTS = 512  # points of the seed grid, z = 0 included


def locate_sup(r, n=4):
    """Maximize z -> C(z, r) over the log grid [0] + geomspace(1e-8, 6).

    ``r`` is one radius or a 1-D array of radii: a scalar gives one
    ``SupResult`` of floats, an array a list of them, one per radius, in
    order.  Every radius must lie in (0, 1).  Each radius reports its
    grid argmax.  For n = 4 the profiles of all radii come from one
    closed-form call; otherwise each radius's profile is
    (1 - r) C_oracle(n, r, arctan z), one ``direction_profile`` call.  The
    profile does not decay -- it levels off at the tangential-direction
    value as z grows -- so an argmax on the grid's right edge means the
    maximum might lie beyond it, and raises ``EvaluationError``.
    """
    radii = np.asarray(r, dtype=float)
    scalar = radii.ndim == 0
    radii = np.atleast_1d(radii)
    if radii.ndim != 1:
        raise ValueError(f"r must be a scalar or a 1-D array, got shape {radii.shape}")
    for rk in radii:
        if not 0.0 < rk < 1.0:
            raise ValueError(f"r must lie in (0, 1), got {rk}")

    grid = np.concatenate([[0.0], np.geomspace(1e-8, _SUP_Z_MAX,
                                               _SUP_GRID_POINTS - 1)])
    if n == 4:
        vals = _c_closed_arr(radii[:, None], grid)
    else:
        thetas = np.arctan(grid)
        vals = np.array([[(1.0 - rk) * v
                          for v in direction_profile(n, rk, thetas)]
                         for rk in radii.tolist()])
    i = np.argmax(vals, axis=1)
    edge = radii[i == _SUP_GRID_POINTS - 1]
    if edge.size:
        raise EvaluationError(f"maximum of C(., {edge[0]}) keeps running "
                              f"past z = {_SUP_Z_MAX}")
    results = [SupResult(z_star=float(grid[k]), c_star=float(c))
               for k, c in zip(i, vals[np.arange(radii.size), i])]
    return results[0] if scalar else results


def sup_reports(n, radii):
    """One ``locate_sup`` report per radius.  For n = 4 the sup must sit
    at z = 0: z* <= 1e-4 and c* <= C(0, r) (1 + 1e-9).  In any other
    dimension the maximizer is reported, not judged."""
    radii = np.asarray(radii, dtype=float)
    # the n = 4 sup must equal C(0, r): one array call for all radii
    c0s = _c_at_zero_arr(radii).tolist() if n == 4 else [None] * radii.size
    reports = []
    for r, c0, res in zip(radii, c0s, locate_sup(radii, n=n)):
        if n == 4:
            ok = res.z_star <= 1e-4 and res.c_star <= c0 * (1.0 + 1e-9)
            worst = res.c_star / c0 - 1.0
            tol, note = 1e-9, "sup of C(., r) must sit at z = 0"
        else:
            ok, worst = True, 0.0
            tol, note = None, "exploratory: maximizer reported, not judged"
        reports.append(VerificationReport(
            case_name=f"sup_n{n}_r{r:.2f}",
            sample_desc=f"{_SUP_GRID_POINTS}-point log grid",
            worst_violation=worst, worst_location=(float(r), res.z_star),
            tolerance=tol, passed=ok, method="log_grid",
            note=note))
    return reports


def conjecture_report(n, r_grid, theta_grid, seed=DEFAULT_SEED):
    """Aggregate best_direction over a radius grid, under the product
    rule.

    For n = 4 this is a genuine pass/fail check: theta = 0 must maximize
    every profile within the quadrature error allowance.  n = 2 runs a
    direction-independence (flatness) check instead: a relative spread
    of at most 1e-5.  Any other dimension is exploratory -- reported,
    never failed.  The report records ``seed``; the product rule draws
    nothing.
    """
    r_grid = [float(r) for r in r_grid]
    theta_grid = [float(t) for t in theta_grid]
    if not r_grid:
        raise ValueError("r_grid must be nonempty")

    worst = -math.inf
    where = None
    for r in r_grid:
        bd = best_direction(n, r, theta_grid)
        if n == 2:
            values = [v for _, v in bd.profile]
            spread = (max(values) - min(values)) / max(values)
            if spread > worst:
                t_at = max(bd.profile, key=lambda tv: tv[1])[0]
                worst, where = spread, (r, t_at)
        else:
            value0 = dict(bd.profile)[0.0]
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
        tolerance, note = None, "exploratory: no pass criterion here"

    return VerificationReport(
        case_name=f"conjecture_n{n}",
        sample_desc=f"{len(r_grid)} radii x {len(theta_grid)} angles",
        worst_violation=worst, worst_location=where, tolerance=tolerance,
        passed=tolerance is None or worst <= tolerance, seed=seed,
        method=PRODUCT_GAUSS, note=note)


def oracle_reports(n, seed, tol):
    """The oracle self-tests: ``seed`` draws the gradient check's points,
    and every report records it.  The product rule's values are judged
    against the known constants by fixed tolerances: 1e-8 for the disk
    and ``tol`` for the n = 4 closed form."""
    reports = []

    dev = max(abs(kernel_mass(r, n) - 1.0) for r in (0.0, 0.3, 0.6, 0.9))
    reports.append(VerificationReport(
        case_name="kernel_mass", sample_desc="r in {0, 0.3, 0.6, 0.9}",
        worst_violation=dev, worst_location=(), tolerance=1e-8,
        passed=dev <= 1e-8, seed=seed, method="gauss_legendre",
        note=f"normalized kernel integrates to 1 (n={n})"))

    rng = np.random.Generator(np.random.Philox(seed))
    worst_fd = 0.0
    for _ in range(5):
        x = 0.6 * rng.standard_normal(n)
        x *= 0.7 / max(1.0, np.linalg.norm(x) / 0.7)
        zeta = rng.standard_normal(n)
        zeta /= np.linalg.norm(zeta)
        g = poisson_gradient(x, zeta, n)
        h = 6e-6
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (poisson_kernel(x + e, zeta, n)
                  - poisson_kernel(x - e, zeta, n)) / (2.0 * h)
            worst_fd = max(worst_fd, abs(g[i] - fd) / (1.0 + abs(fd)))
    reports.append(VerificationReport(
        case_name="gradient_vs_fd", sample_desc="5 random (x, zeta) pairs",
        worst_violation=float(worst_fd), worst_location=(), tolerance=1e-8,
        passed=bool(worst_fd <= 1e-8), seed=seed, method="central_fd",
        note="analytic kernel gradient against finite differences"))

    v = directional_constant(DirectionalQuery(2, 0.0, 0.0))
    dev2 = abs(v - 4.0 / math.pi)
    reports.append(VerificationReport(
        case_name="disk_center", sample_desc="n=2, r=0, theta=0",
        worst_violation=dev2, worst_location=(), tolerance=1e-8,
        passed=dev2 <= 1e-8, seed=seed, method=PRODUCT_GAUSS,
        note="classical disk constant 4/pi at the center"))

    # (relative deviation, r): the first largest
    cases = []
    radii = (0.1, 0.3, 0.5, 0.7, 0.9)
    for r, ref in zip(radii, _gradient_bound_arr(np.array(radii)).tolist()):
        v = directional_constant(DirectionalQuery(4, r, 0.0))
        cases.append((abs(v - ref) / ref, r))
    worst_cmp, r = max(cases, key=lambda c: c[0])
    reports.append(VerificationReport(
        case_name="oracle_vs_closed_n4", sample_desc="r in {0.1,...,0.9}",
        worst_violation=worst_cmp, worst_location=(r,), tolerance=tol,
        passed=worst_cmp <= tol, seed=seed, method=PRODUCT_GAUSS,
        note="spherical quadrature against the closed-form bound"))
    return reports
