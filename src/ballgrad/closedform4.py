"""Closed-form evaluation of the sharp gradient-bound quantities in R^4.

Everything here is an explicit formula: the radial profile function
``psi_closed``, the directional-constant components ``c_components`` /
``c_closed``, the radial constants ``frak_c`` / ``c_at_zero`` /
``gradient_bound``, the envelopes ``envelope_L`` / ``envelope_g1``, the
certificate ``v_certificate``, and the classical reference constants for
the disk and for half-spaces in every dimension.

Each n = 4 formula has one numpy implementation, ``_<name>_arr``, that
takes broadcastable ``(r, z)`` arrays (or ``r`` alone) and returns an
array of their broadcast shape.  The public n = 4 functions are thin
scalar wrappers: they validate their arguments (through ``EvalPoint`` or a
range check), call the array form and return floats.  The verification
registries in ``proofcheck`` call the array forms on whole grids and
samples at once.

Removable singularities (0/0 of order r^3 at r=0, and of order z at z=0
inside h1) are served by truncated series branches below the thresholds
``SERIES_R_THRESHOLD`` / ``SERIES_Z_THRESHOLD``, selected per element
with ``np.where``; the discarded branch is evaluated at a harmless
substitute point wherever it would otherwise divide by zero.  The
series coefficients were derived symbolically offline and are validated
against high-precision evaluation in the test suite.  An internal sanity
check that fails raises with the first offending (r, z) in its message.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import EvaluationError, SeriesBranchWarning

SERIES_R_THRESHOLD = 1e-3
SERIES_Z_THRESHOLD = 1e-6


@dataclass(frozen=True)
class EvalPoint:
    """A parameter pair (r, z): radius r in (0,1), auxiliary variable z >= 0."""

    r: float
    z: float

    def __post_init__(self):
        if not (0.0 < self.r < 1.0):
            raise ValueError(f"r must lie in (0, 1), got {self.r}")
        if not (self.z >= 0.0):
            raise ValueError(f"z must be >= 0, got {self.z}")


@dataclass(frozen=True)
class SharpConstantReport:
    r: float
    frak_c: float
    c_at_zero: float
    gradient_bound: float
    method: str  # "closed_form" | "series_branch"


def _require(ok, exc, what, r, z):
    """Raise ``exc(what ...)`` naming the first (r, z) where ``ok`` is false."""
    if np.all(ok):
        return
    ok, r, z = np.broadcast_arrays(ok, r, z)
    i = np.unravel_index(np.argmin(ok), ok.shape)
    raise exc(f"{what} at (r, z) = ({float(r[i])!r}, {float(z[i])!r})")


def _sqrt_s(r, z):
    # sqrt(4 - r^2 + 4 z^2); strictly positive for r < 2
    return np.sqrt(4.0 - r * r + 4.0 * z * z)


def _atan_den(r, z):
    # (2 - r^2)^2 + 4 (1 - r^2) z^2 -- strictly positive for r < 1,
    # so the arctan terms never need a quadrant correction.
    d = (2.0 - r * r) ** 2 + 4.0 * (1.0 - r * r) * z * z
    _require(d > 0.0, EvaluationError, "arctan denominator lost positivity", r, z)
    return d


def _psi_closed_arr(r, z):
    """Vectorized closed form of the profile function; z may be any sign."""
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    r2 = r * r
    s = _sqrt_s(r, z)
    den = _atan_den(r, z)
    z2 = z * z

    t1 = r * ((4.0 + r2 * (4.0 + r)) * z + 4.0 * (1.0 + r2) * z * z2
              + (2.0 + r2 + 2.0 * (1.0 + r2) * z2) * s) \
        / ((1.0 + z2) * (1.0 - r2))
    t2 = 4.0 * np.arctan(r * (-2.0 * r * z + (r2 - 2.0) * s) / den)

    # log argument 1 + z(z + r^2 z - r s): cancels catastrophically for
    # large positive z, so use the rationalized equivalent there; the
    # direct form is cancellation-free for z <= 0.
    p2 = 1.0 + (2.0 - 2.0 * r2 + r2 * r2) * z2 + (1.0 - r2) ** 2 * z2 * z2
    arg_pos = p2 / (1.0 + (1.0 + r2) * z2 + r * z * s)
    arg_neg = 1.0 + z * (z + r2 * z - r * s)
    arg = np.where(z >= 0.0, arg_pos, arg_neg)
    _require(arg > 0.0, EvaluationError,
             "log argument went non-positive in psi_closed (catastrophic "
             "cancellation)", r, z)
    t3 = 2.0 * (1.0 - r2) * z * np.log(arg / ((1.0 + r) ** 2 * (1.0 + z2)))

    return (1.0 - r) * (1.0 + r) ** 3 / (64.0 * r ** 3) * (t1 + t2 + t3)


def psi_closed(p, sign=1):
    """Closed form of the profile integral Psi_r(sign * z).

    ``sign=-1`` evaluates the reflected profile Psi_r(-z) (the same
    expression continued to a negative argument; validated against
    direct quadrature).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    return float(_psi_closed_arr(p.r, sign * p.z))


def _h1_quotient(r, z):
    # L(z) / (2 (1-r^2) z), continued to z = 0 below SERIES_Z_THRESHOLD by
    # the limit r sqrt(4-r^2)/(2(1-r^2)) plus the z^2 correction term
    r2 = r * r
    near = z < SERIES_Z_THRESHOLD
    s0 = np.sqrt(4.0 - r2)
    c2 = r * (-2.0 / s0 + r2 * (28.0 - 27.0 * r ** 2 + 9.0 * r ** 4 - r ** 6)
              / (3.0 * s0 ** 3))
    series = (r * s0 + z * z * c2) / (2.0 * (1.0 - r2))
    zd = np.where(near, 1.0, z)  # the direct form is 0/0 at z = 0
    direct = _envelope_L_arr(r, zd) / (2.0 * (1.0 - r2) * zd)
    return np.where(near, series, direct)


def _c_components_arr(r, z):
    """The components (h1, h2, h3) of the directional constant, elementwise."""
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    r2 = r * r
    s = _sqrt_s(r, z)
    den = _atan_den(r, z)

    h1 = r * (1.0 + r2) * s / (2.0 * (1.0 - r2)) + _h1_quotient(r, z)
    h2 = np.arctan(r * (2.0 * r * z - (2.0 - r2) * s) / den) \
        - np.arctan(r * (2.0 * r * z + (2.0 - r2) * s) / den)

    a3 = r * z * s / (1.0 + (1.0 + r2) * z * z)
    _require(np.abs(a3) < 1.0, ValueError,
             "inverse-tanh argument left (-1, 1) in h3", r, z)
    h3 = 0.5 * (r2 - 1.0) * z * np.arctanh(a3)
    return h1, h2, h3


def c_components(p):
    """The three components (h1, h2, h3) of the directional constant.

    c_closed(p) == 2 (1-r) / (pi r^3 sqrt(1+z^2)) * (h1 + h2 + h3).

    The two arctan terms of h2 are combined minus-first, which is the
    ordering that makes c_closed agree with the independent quadrature
    oracle (h2 is negative at z = 0 under this convention).
    """
    return tuple(float(h) for h in _c_components_arr(p.r, p.z))


def _hsum_series(r, z):
    # h1 + h2 + h3 = c3(z) r^3 + c5(z) r^5 + O(r^7)
    z2 = z * z
    opz = 1.0 + z2
    c3 = 8.0 / 3.0 * np.sqrt(opz)
    c5 = (32.0 * z2 ** 4 + 135.0 * z2 ** 3 + 213.0 * z2 ** 2 + 149.0 * z2 + 39.0) \
        / (15.0 * opz ** 3.5)
    return c3 * r ** 3 + c5 * r ** 5


def _c_closed_arr(r, z):
    """C(z, r) elementwise; warns once if any radius takes the series branch."""
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    near = r < SERIES_R_THRESHOLD
    if np.any(near):
        warnings.warn(f"r={float(np.min(r))} below series threshold; "
                      "using series branch", SeriesBranchWarning, stacklevel=2)
    h1, h2, h3 = _c_components_arr(r, z)
    hsum = np.where(near, _hsum_series(r, z), h1 + h2 + h3)
    return 2.0 * (1.0 - r) / (math.pi * r ** 3 * np.sqrt(1.0 + z * z)) * hsum


def c_closed(p):
    """The directional constant C(z, r) for n = 4, in closed form."""
    return float(_c_closed_arr(p.r, p.z))


def _envelope_L_arr(r, z):
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    s = _sqrt_s(r, z)
    a = r * z / s
    b = r * (r * r - 3.0) * z / s
    _require((np.abs(a) < 1.0) & (np.abs(b) < 1.0), ValueError,
             "inverse-tanh argument left (-1, 1) in L", r, z)
    return np.arctanh(a) - np.arctanh(b)


def envelope_L(p):
    """The numerator combination L(z) inside h1 (nonnegative, bounded by
    r z sqrt(4 - r^2))."""
    return float(_envelope_L_arr(p.r, p.z))


def _envelope_g1_arr(r, z):
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    s = _sqrt_s(r, z)
    return (r * np.sqrt(4.0 - r * r) + r * (1.0 + r * r) * s) \
        / np.sqrt(1.0 + z * z)


def envelope_g1(p):
    """The envelope g1(z) = (r sqrt(4-r^2) + r(1+r^2) sqrt(4-r^2+4z^2)) / sqrt(1+z^2),
    decreasing in z with maximum at z = 0."""
    return float(_envelope_g1_arr(p.r, p.z))


def _n_of_r(r):
    # r sqrt(4-r^2)(2+r^2) + 4(1-r^2) arctan(r sqrt(4-r^2)/(r^2-2));
    # the arctan argument is negative, so the second term is negative.
    s0 = np.sqrt(4.0 - r * r)
    return r * s0 * (2.0 + r * r) \
        + 4.0 * (1.0 - r * r) * np.arctan(r * s0 / (r * r - 2.0))


def _frak_c_series(r):
    return (16.0 / 3.0 - (2.0 / 15.0) * r * r) / math.pi


def _frak_c_arr(r):
    """F(r) elementwise on [0, 1]; the series answers below SERIES_R_THRESHOLD."""
    r = np.asarray(r, dtype=float)
    near = r < SERIES_R_THRESHOLD
    rc = np.where(near, 1.0, r)  # the direct form is 0/0 at r = 0
    return np.where(near, _frak_c_series(r), _n_of_r(rc) / (math.pi * rc ** 3))


def frak_c(r):
    """The sharp-constant profile F(r) on the closed interval [0, 1].

    Strictly decreasing; F(0) = 16/(3 pi) (series limit), and F(1) is
    evaluated directly: F(1) = 3 sqrt(3)/pi = 2 halfspace_constant(4).
    Near the sphere the bound F(r)/(1 - r^2) behaves like
    halfspace_constant(4)/(1 - r), so the half-space constant
    3 sqrt(3)/(2 pi) is F(1)/2, the boundary value of c_at_zero.
    """
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")
    return float(_frak_c_arr(r))


def _c_at_zero_arr(r):
    """C(0, r) = F(r)/(1 + r) elementwise, directly from its formula."""
    r = np.asarray(r, dtype=float)
    near = r < SERIES_R_THRESHOLD
    rc = np.where(near, 1.0, r)
    return np.where(near, _frak_c_series(r) / (1.0 + r),
                    _n_of_r(rc) / (math.pi * (1.0 + rc) * rc ** 3))


def c_at_zero(r):
    """The z = 0 value C(0, r) = F(r)/(1 + r), directly from its formula."""
    if not (0.0 < r < 1.0):
        raise ValueError(f"r must lie in (0, 1), got {r}")
    return float(_c_at_zero_arr(r))


def _gradient_bound_arr(r):
    # factored denominator: 1 - r*r loses digits as r -> 1
    return _frak_c_arr(r) / ((1.0 - r) * (1.0 + r))


def gradient_bound(r):
    """Sharp multiplier of the sup-norm bounding the full gradient at |x| = r.

    Equals F(r)/(1 - r^2); finite for every r in [0, 1) and divergent as
    r -> 1 (a ValueError is raised at r = 1 rather than returning inf).
    """
    if not (0.0 <= r < 1.0):
        raise ValueError(f"r must lie in [0, 1); the bound diverges at r=1 (got {r})")
    return float(_gradient_bound_arr(r))


def _v_certificate_arr(r):
    # at r = 0 both terms vanish and the sum is exactly +0.0
    r = np.asarray(r, dtype=float)
    s0 = np.sqrt(4.0 - r * r)
    return r * (4.0 - r * r) * (6.0 - r * r) / (4.0 * (3.0 - r * r) * s0) \
        + np.arctan(r * s0 / (r * r - 2.0))


def v_certificate(r):
    """Auxiliary function whose nonnegativity certifies that frak_c decreases.

    v(0) = 0 and v'(r) = r^4 sqrt(4-r^2) / (2 (3-r^2)^2) >= 0.
    """
    if not (0.0 <= r <= 1.0):
        raise ValueError(f"r must lie in [0, 1], got {r}")
    return float(_v_certificate_arr(r))


def halfspace_constant(n, x_n=1.0):
    """Sharp gradient constant for bounded harmonic functions on a
    half-space in R^n, at distance x_n from the boundary.

    (4/sqrt(pi)) (n-1)^((n-1)/2) n^(-n/2) Gamma(n/2)/Gamma((n-1)/2) / x_n
    """
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError(f"dimension must be an integer >= 2, got {n}")
    if not x_n > 0.0:
        raise ValueError(f"boundary distance must be positive, got {x_n}")
    log_gamma_ratio = math.lgamma(n / 2.0) - math.lgamma((n - 1) / 2.0)
    return 4.0 / math.sqrt(math.pi) * (n - 1.0) ** ((n - 1) / 2.0) \
        / n ** (n / 2.0) * math.exp(log_gamma_ratio) / x_n


def disk_constant(r):
    """Sharp gradient constant for the unit disk: (4/pi)/(1 - r^2)."""
    if not (0.0 <= r < 1.0):
        raise ValueError(f"r must lie in [0, 1), got {r}")
    return (4.0 / math.pi) / (1.0 - r * r)


def sharp_constant_report(r):
    """Bundle frak_c, c_at_zero and the gradient bound for one radius."""
    if not (0.0 <= r < 1.0):
        raise ValueError(f"r must lie in [0, 1), got {r}")
    fc = frak_c(r)
    gb = fc / ((1.0 - r) * (1.0 + r))
    c0 = fc / (1.0 + r)
    method = "series_branch" if r < SERIES_R_THRESHOLD else "closed_form"
    return SharpConstantReport(r=r, frak_c=fc, c_at_zero=c0,
                               gradient_bound=gb, method=method)
