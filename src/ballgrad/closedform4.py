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
samples at once, complex ones too for a complex-step derivative: every
formula is analytic, and the series masks and sanity checks read the
real part.  The components h1, h2 and h3 are also computed one at
a time, by ``_h1`` / ``_h2`` / ``_h3`` from the terms ``_c_terms`` shares
among them.

Removable singularities (0/0 of order r^3 at r=0, and of order z at z=0
inside h1) are served by truncated series branches below the thresholds
``SERIES_R_THRESHOLD`` / ``SERIES_Z_THRESHOLD``, merged per element with
``np.where`` and evaluated only when some element takes them; the direct
form divides by a harmless substitute wherever it would be 0/0.  The
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


def _as_array(x):
    # float64, or complex as given (a complex step); float64 is not copied
    x = np.asarray(x)
    return x if x.dtype.kind == "c" else x.astype(float, copy=False)


def _require(ok, exc, what, r, z):
    """Raise ``exc(what ...)`` naming the first (r, z) where ``ok`` is false."""
    if np.all(ok):
        return
    ok, r, z = np.broadcast_arrays(ok, np.real(r), np.real(z))
    i = np.unravel_index(np.argmin(ok), ok.shape)
    raise exc(f"{what} at (r, z) = ({float(r[i])!r}, {float(z[i])!r})")


def _sqrt_s(r, z):
    # sqrt(4 - r^2 + 4 z^2); strictly positive for r < 2
    return np.sqrt(4.0 - r * r + 4.0 * z * z)


def _atan_den(r, z):
    # (2 - r^2)^2 + 4 (1 - r^2) z^2 -- strictly positive for r < 1,
    # so the arctan terms never need a quadrant correction.
    r2 = r * r
    d = (2.0 - r2) ** 2 + 4.0 * (1.0 - r2) * z * z
    _require(d.real > 0.0, EvaluationError,
             "arctan denominator lost positivity", r, z)
    return d


def _psi_closed_arr(r, z):
    """Vectorized closed form of the profile function; z may be any sign."""
    r = _as_array(r)
    z = _as_array(z)
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
    arg = np.where(z.real >= 0.0, arg_pos, arg_neg)
    _require(arg.real > 0.0, EvaluationError,
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


def _series_where(near, series, direct):
    # direct, with series() where near holds; the series is evaluated only
    # when some element takes it
    return np.where(near, series(), direct) if np.any(near) else direct


def _h1_series(r, r2, z):
    # the z -> 0 limit r sqrt(4-r^2)/(2(1-r^2)) plus the z^2 correction term
    s0 = np.sqrt(4.0 - r2)
    c2 = r * (-2.0 / s0 + r2 * (28.0 - 27.0 * r ** 2 + 9.0 * r ** 4 - r ** 6)
              / (3.0 * s0 ** 3))
    return (r * s0 + z * z * c2) / (2.0 * (1.0 - r2))


def _c_terms(r, z):
    # r, z as float or complex arrays, and the terms h1, h2, h3 share: r^2, s
    r = _as_array(r)
    z = _as_array(z)
    return r, z, r * r, _sqrt_s(r, z)


def _h1(r, z, r2, s):
    # L(z) / (2 (1-r^2) z) is continued to z = 0 below SERIES_Z_THRESHOLD
    near = z.real < SERIES_Z_THRESHOLD
    zd = np.where(near, 1.0, z)  # the direct form is 0/0 at z = 0
    c = 2.0 * (1.0 - r2)
    quotient = _series_where(near, lambda: _h1_series(r, r2, z),
                             _envelope_L(r, z, r2, s) / (c * zd))
    return r * (1.0 + r2) * s / c + quotient


def _h2(r, z, r2, s):
    den = _atan_den(r, z)
    rz2 = 2.0 * r * z
    q = (2.0 - r2) * s
    return np.arctan(r * (rz2 - q) / den) - np.arctan(r * (rz2 + q) / den)


def _h3(r, z, r2, s):
    a3 = r * z * s / (1.0 + (1.0 + r2) * z * z)
    _require(np.abs(a3.real) < 1.0, ValueError,
             "inverse-tanh argument left (-1, 1) in h3", r, z)
    return 0.5 * (r2 - 1.0) * z * np.arctanh(a3)


def _c_components_arr(r, z):
    """The components (h1, h2, h3) of the directional constant, elementwise.

    Each component is ``_h<k>(*_c_terms(r, z))`` on its own; h2 goes
    first so that the arctan denominator is checked before L and h3.
    """
    terms = _c_terms(r, z)
    h2 = _h2(*terms)
    return _h1(*terms), h2, _h3(*terms)


def c_components(p):
    """The three components (h1, h2, h3) of the directional constant.

    c_closed(p) == 2 (1-r) / (pi r^3 sqrt(1+z^2)) * (h1 + h2 + h3).

    The two arctan terms of h2 are combined minus-first, which is the
    ordering that makes c_closed agree with the independent quadrature
    oracle (h2 is negative at z = 0 under this convention).
    """
    return tuple(float(h) for h in _c_components_arr(p.r, p.z))


def _c_closed_series(r, z):
    # h1 + h2 + h3 = c3(z) r^3 + c5(z) r^5 + O(r^7), with r^3 divided out
    z2 = z * z
    opz = 1.0 + z2
    c3 = 8.0 / 3.0 * np.sqrt(opz)
    c5 = (32.0 * z2 ** 4 + 135.0 * z2 ** 3 + 213.0 * z2 ** 2 + 149.0 * z2 + 39.0) \
        / (15.0 * opz ** 3.5)
    return 2.0 * (1.0 - r) / (math.pi * np.sqrt(opz)) * (c3 + c5 * r * r)


def _c_closed_arr(r, z):
    """C(z, r) elementwise; warns once if any radius takes the series branch."""
    r = _as_array(r)
    z = _as_array(z)
    near = r.real < SERIES_R_THRESHOLD
    if np.any(near):
        warnings.warn(f"r={float(np.min(r.real))} below series threshold; "
                      "using series branch", SeriesBranchWarning, stacklevel=2)
    rc = np.where(near, 1.0, r)  # r^3 underflows to 0 for tiny r
    h1, h2, h3 = _c_components_arr(r, z)
    direct = 2.0 * (1.0 - r) / (math.pi * rc ** 3 * np.sqrt(1.0 + z * z)) \
        * (h1 + h2 + h3)
    return _series_where(near, lambda: _c_closed_series(r, z), direct)


def c_closed(p):
    """The directional constant C(z, r) for n = 4, in closed form."""
    return float(_c_closed_arr(p.r, p.z))


def _envelope_L_arr(r, z):
    r = _as_array(r)
    z = _as_array(z)
    return _envelope_L(r, z, r * r, _sqrt_s(r, z))


def _envelope_L(r, z, r2, s):
    # L from arrays r, z and the shared terms r2 = r^2, s = _sqrt_s(r, z)
    a = r * z / s
    b = r * (r2 - 3.0) * z / s
    _require((np.abs(a.real) < 1.0) & (np.abs(b.real) < 1.0), ValueError,
             "inverse-tanh argument left (-1, 1) in L", r, z)
    return np.arctanh(a) - np.arctanh(b)


def envelope_L(p):
    """The numerator combination L(z) inside h1 (nonnegative, bounded by
    r z sqrt(4 - r^2))."""
    return float(_envelope_L_arr(p.r, p.z))


def _envelope_g1_arr(r, z):
    r = _as_array(r)
    z = _as_array(z)
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
    r = _as_array(r)
    near = r.real < SERIES_R_THRESHOLD
    rc = np.where(near, 1.0, r)  # the direct form is 0/0 at r = 0
    return _series_where(near, lambda: _frak_c_series(r),
                         _n_of_r(rc) / (math.pi * rc ** 3))


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
    r = _as_array(r)
    near = r.real < SERIES_R_THRESHOLD
    rc = np.where(near, 1.0, r)
    return _series_where(near, lambda: _frak_c_series(r) / (1.0 + r),
                         _n_of_r(rc) / (math.pi * (1.0 + rc) * rc ** 3))


def c_at_zero(r):
    """The z = 0 value C(0, r) = F(r)/(1 + r), directly from its formula."""
    if not (0.0 < r < 1.0):
        raise ValueError(f"r must lie in (0, 1), got {r}")
    return float(_c_at_zero_arr(r))


def _gradient_bound_arr(r):
    # factored denominator: 1 - r*r loses digits as r -> 1
    r = _as_array(r)
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
    r = _as_array(r)
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

