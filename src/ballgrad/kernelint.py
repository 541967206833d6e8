"""General-dimension integral machinery.

Contains the partial-fraction cross-check of the profile integrand, the
adaptive Gauss-Kronrod engine shared by every quadrature in the package,
and the integral representation of the directional constant C(z, r)
for n >= 3.

The engine refines breadth first: each round evaluates every panel it
splits in one integrand call, and the integrals of an integrand that
returns one row per component share one panel tree (one integral is a
one-row batch).  The profile integrand is a(w) + z b(w) with a and b
free of z, so the profile integrals Psi(+-z t) at the t nodes of one
outer round of C(z, r) are running sums over the pieces between their
sorted upper limits, one batch with one kernel call per round.  This
holds in every dimension, n = 4 included, so nothing here uses the
n = 4 closed forms it is checked against.  The outer t rule is chosen
by the parity of n.  The engine's settings are a tolerance and an
endpoint mode; C(z, r) runs at 1e-12 and each profile integral at 1e-13.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import backend
from .exceptions import QuadratureError

_EPS = np.finfo(float).eps
_MAX_PANELS = 256

# 15-point Kronrod extension of 7-point Gauss on [-1, 1]; positive half.
_XK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# full 15-node layout: [-x0 .. -x6, 0, x6 .. x0]
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
# both rules as the columns of one (15, 2) matrix; odd positions carry
# the embedded G7 rule
_WEIGHTS_KG = np.zeros((15, 2))
_WEIGHTS_KG[:, 0] = np.concatenate([_WK[:-1], _WK[::-1]])
_WEIGHTS_KG[1::2, 1] = np.concatenate([_WG[:-1], _WG[::-1]])


@dataclass(frozen=True)
class ParamSet:
    """Radius and dimension of the profile integral, with the derived
    alpha = r (n - 2) / n of its upper limits."""

    r: float
    n: int

    @classmethod
    def from_radius(cls, r, n=4):
        return cls(r=float(r), n=n)

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 3):
            raise ValueError(f"dimension must be an integer >= 3, got {self.n}")
        if not (0.0 < self.r < 1.0):
            raise ValueError(f"r must lie in (0, 1), got {self.r}")

    @property
    def alpha(self):
        return self.r * (self.n - 2) / self.n


@dataclass(frozen=True)
class QuadratureSpec:
    """An integral I meets ``tol`` if its error is <= max(tol, tol*|I|)."""

    tol: float = 1e-12
    endpoint_mode: str = "regular"

    def __post_init__(self):
        floor = 16.0 * _EPS
        if not floor <= self.tol < math.inf:
            raise ValueError(f"tol must be finite and >= {floor:.3g}, got {self.tol}")
        if self.endpoint_mode not in ("regular", "algebraic_singularity"):
            raise ValueError(f"unknown endpoint_mode {self.endpoint_mode!r}")


_C_SPEC, _PSI_SPEC = QuadratureSpec(tol=1e-12), QuadratureSpec(tol=1e-13)


def sphere_area(n):
    """Surface area of the unit sphere S^(n-1): 2 pi^(n/2) / Gamma(n/2).

    Valid down to n = 1 (S^0 is the two-point set, area 2).  From n = 344
    on Gamma(n/2) overflows a float, and the dimension is rejected.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"dimension must be an integer >= 1, got {n}")
    try:
        gamma = math.gamma(n / 2.0)
    except OverflowError:
        raise ValueError(f"sphere_area({n}) is out of range: Gamma(n/2) "
                         "overflows a float for n >= 344") from None
    return 2.0 * math.pi ** (n / 2.0) / gamma


def q_partial_fractions(w, r, z):
    """Eight-term partial-fraction form of the n = 4 profile integrand.

    Decomposes w^2 (1+r)^2 (2 + r - (2-r) w^2 + 4 w z) /
    ((1+w^2)^3 ((1+r)^2 + (1-r)^2 w^2)) into elementary terms; used as a
    line-by-line cross-check of the integrand.
    """
    op = (1.0 + r) ** 2
    om = (1.0 - r) ** 2
    w2 = w * w
    b1 = 1.0 + w2
    b2 = op + om * w2
    even = (-op / (r * b1 ** 3)
            + op * (1.0 + 4.0 * r) / (4.0 * r ** 2 * b1 ** 2)
            - op ** 2 / (16.0 * r ** 3 * b1)
            + om * op ** 2 / (16.0 * r ** 3 * b2))
    odd = (-op / (r * b1 ** 3)
           + op ** 2 / (4.0 * r ** 2 * b1 ** 2)
           - om * op ** 2 / (16.0 * r ** 3 * b1)
           + om ** 2 * op ** 2 / (16.0 * r ** 3 * b2)) * w * z
    return even + odd


def _gk_panels(f, lo, hi):
    # G7-K15 on the panels [lo_j, hi_j], in one call on their 15 P nodes
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x = (mid[:, None] + half[:, None] * _NODES).ravel()
    fx = f(x)
    if fx.ndim != 2 or fx.shape[1] != x.size:
        raise ValueError("integrand must map its 1-D array of abscissae to "
                         "an ndarray of the same shape or of shape (m, size)")
    kg = (fx.reshape(-1, 15) @ _WEIGHTS_KG).reshape(-1, lo.size, 2) * half[:, None]
    return kg[..., 0], np.abs(kg[..., 0] - kg[..., 1])


def _fsum_rows(rows):
    # math.fsum along each row of a 2-D array
    return np.array([math.fsum(row) for row in rows.tolist()])


def adaptive_quad(f, a, b, q=QuadratureSpec()):
    """Adaptive Gauss-Kronrod integration of a vectorized integrand.

    ``f`` maps a 1-D array of 15 P abscissae (the G7-K15 nodes of P
    panels) to values of the same shape for one integral, or of shape
    (m, 15 P) for m integrals on one shared panel tree; one integral runs
    as a one-row batch and comes back as Python floats.  Returns
    ``(value, err_estimate)``, each the ``math.fsum`` over the panels in
    position order.

    The panels are refined breadth first until every component meets
    its own tolerance max(tol, tol*|I_i|).  Each round splits every
    panel whose error exceeds its share, tolerance / P, of some missed
    component's tolerance, and evaluates all the halves in one call of
    ``f``, so results are reproducible bit-for-bit.  A round that would
    pass _MAX_PANELS (256) panels splits only the panels furthest over
    their share, up to the budget; at _MAX_PANELS panels a
    QuadratureError carries the partial result and, in vector mode,
    names the components that missed.

    ``endpoint_mode="algebraic_singularity"`` integrates through an
    algebraic singularity at the UPPER endpoint (an inverse-square-root
    blowup at b) via the substitution x = b - u^2.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    if q.endpoint_mode == "algebraic_singularity":
        def g(u):
            return f(b - u * u) * 2.0 * u

        return adaptive_quad(g, 0.0, math.sqrt(b - a),
                             replace(q, endpoint_mode="regular"))

    one = False

    def rows(x):
        nonlocal one
        fx = np.asarray(f(x), dtype=float)
        one = fx.shape == x.shape
        return fx[None] if one else fx

    def result(value, err):
        return (float(value[0]), float(err[0])) if one else (value, err)

    edges = np.array([a, b], dtype=float)  # panel j is [edges[j], edges[j+1]]
    val, err = _gk_panels(rows, edges[:-1], edges[1:])
    while True:
        tol = np.maximum(q.tol, q.tol * np.abs(val.sum(axis=1)))
        missed = err.sum(axis=1) > tol
        if not missed.any():
            return result(_fsum_rows(val), _fsum_rows(err))
        npanels = edges.size - 1
        if npanels >= _MAX_PANELS:
            where = "" if one else f" in components {np.flatnonzero(missed).tolist()}"
            value, err_estimate = result(_fsum_rows(val), _fsum_rows(err))
            raise QuadratureError(
                f"tolerance not reached after {npanels} panels{where} "
                f"(err={np.max(err_estimate):.3g}); tolerance too tight or "
                f"integrand pathological",
                value=value, err_estimate=err_estimate)
        # each panel's error over its share of the missed tolerances
        excess = (err[missed] / tol[missed, None]).max(axis=0) * npanels
        split = excess > 1.0
        split[np.argmax(excess)] = True  # rounding can leave every share met
        budget = _MAX_PANELS - npanels
        if np.count_nonzero(split) > budget:
            split[:] = False
            split[np.argsort(-excess, kind="stable")[:budget]] = True
        # the halves take their parent's place, keeping position order
        mids = 0.5 * (edges[:-1][split] + edges[1:][split])
        edges = np.sort(np.concatenate([edges, mids]))
        counts = 1 + split
        kids = np.repeat(split, counts)
        val, err = np.repeat(val, counts, axis=1), np.repeat(err, counts, axis=1)
        val[:, kids], err[:, kids] = _gk_panels(rows, edges[:-1][kids], edges[1:][kids])


def _psi_numeric_arr(zs, ps):
    """Profile integrals Psi(z) for a 1-D array of signed z, in one
    vector-mode quadrature.

    The integrand is a(w) + z b(w), with a and b free of z.  The sorted
    distinct upper limits U_1 < ... < U_K (U_0 = 0) cut [0, U_K] into
    pieces, each mapped to s in [0, 1], and the row of z_j with
    U(z_j) = U_i is the sum over pieces l <= i of
    (a + z_j b)(U_(l-1) + (U_l - U_(l-1)) s) (U_l - U_(l-1)), whose
    integral over s is exactly Psi(z_j).  Every z shares one panel tree,
    each row meets its own tolerance, and each panel round is one kernel
    call on a (K, 15 P) grid, at 1e-13.  Returns (values, err_estimates).
    """
    zs = np.asarray(zs, dtype=float)
    upper = (zs + np.sqrt(zs * zs + 1.0 - ps.alpha ** 2)) / (1.0 - ps.alpha)
    ends, piece = np.unique(upper, return_inverse=True)
    starts = np.concatenate([[0.0], ends[:-1]])[:, None]
    widths = ends[:, None] - starts
    kern = backend.get_backend()

    def f(s):
        a, b = np.cumsum(kern.psi_integrand_parts(starts + widths * s, ps.r, ps.n)
                         * widths, axis=1)
        return a[piece] + zs[:, None] * b[piece]

    return adaptive_quad(f, 0.0, 1.0, _PSI_SPEC)


def _check_radius(p, ps):
    if p.r != ps.r:
        raise ValueError(f"EvalPoint radius {p.r} differs from ParamSet "
                         f"radius {ps.r}")


def psi_numeric(p, sign, ps):
    """Profile integral by quadrature at 1e-13; oracle pair of psi_closed.

    ``sign=-1`` replaces z by -z in both the integrand and the upper
    limit.  Returns (value, err_estimate).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    _check_radius(p, ps)
    val, err = _psi_numeric_arr([sign * p.z], ps)
    return float(val[0]), float(err[0])


def _psi_pair_at(ps, p, tgrid):
    """Psi(z t) + Psi(-z t) for an array of t values, all 2m profile
    integrals in one vector-mode quadrature."""
    zt = p.z * np.asarray(tgrid)
    vals, _ = _psi_numeric_arr(np.concatenate([zt, -zt]), ps)
    return vals[:zt.size] + vals[zt.size:]


def c_numeric(p, ps, n3_scheme="sin_substitution"):
    """Directional constant C(z, r) by quadrature of its integral
    representation at 1e-12; oracle pair of c_closed for n = 4.

    The inner profile values Psi(+-z t) are integrals too, in every
    dimension: each outer round splits P panels, and the 30 P of them at
    its 15 P t nodes go through one vector-mode quadrature at 1e-13.
    No closed form is used, so for n = 4 this is a check of
    c_closed that shares no code with it.

    The outer rule follows the parity of n.  For even n the weight
    (1-t^2)^((n-4)/2) is a polynomial, integrated in t.  For odd n its
    square-root singularity at t = 1 is removed by t = sin(theta), which
    leaves the smooth weight cos(theta)^(n-3).  For n = 3,
    ``n3_scheme="endpoint_weight"`` instead integrates the raw weight
    under algebraic_singularity handling, as a cross-check.

    Returns (value, err_estimate).
    """
    if n3_scheme not in ("sin_substitution", "endpoint_weight"):
        raise ValueError(f"unknown n3_scheme {n3_scheme!r}")
    _check_radius(p, ps)
    n = ps.n
    pref = 4.0 * sphere_area(n - 2) / sphere_area(n) \
        * 2.0 ** (n - 1) / (1.0 + ps.r) ** (n - 1)
    norm = math.sqrt(1.0 + p.z * p.z)

    if n == 3 and n3_scheme == "endpoint_weight":
        def f(t):
            return _psi_pair_at(ps, p, t) / np.sqrt(1.0 - t * t)
        sq = replace(_C_SPEC, endpoint_mode="algebraic_singularity")
        val, err = adaptive_quad(f, 0.0, 1.0, sq)
    elif n % 2:
        def f(theta):
            return _psi_pair_at(ps, p, np.sin(theta)) * np.cos(theta) ** (n - 3)
        val, err = adaptive_quad(f, 0.0, math.pi / 2.0, _C_SPEC)
    else:
        def f(t):
            return _psi_pair_at(ps, p, t) * (1.0 - t * t) ** ((n - 4) / 2.0)
        val, err = adaptive_quad(f, 0.0, 1.0, _C_SPEC)

    return pref * val / norm, pref * err / norm
