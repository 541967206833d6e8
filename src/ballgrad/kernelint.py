"""General-dimension integral machinery.

Contains the profile integrand and its partial-fraction cross-check, the
adaptive Gauss-Kronrod engine shared by every quadrature in the package,
and the integral representation of the directional constant C(z, r)
for n >= 3.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .closedform4 import EvalPoint, _psi_closed_arr
from .exceptions import QuadratureError

_EPS = np.finfo(float).eps

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
_WEIGHTS_K = np.concatenate([_WK[:-1], _WK[::-1]])
_GAUSS_IDX = np.arange(1, 15, 2)  # odd positions carry the embedded G7 rule
_WEIGHTS_G = np.concatenate([_WG[:-1], _WG[::-1]])


@dataclass(frozen=True)
class ParamSet:
    """Derived parameters of the profile integral for dimension n."""

    r: float
    n: int
    k: float
    alpha: float
    beta: float

    @classmethod
    def from_radius(cls, r, n=4):
        if not (isinstance(n, (int, np.integer)) and n >= 3):
            raise ValueError(f"dimension must be an integer >= 3, got {n}")
        if not (0.0 < r < 1.0):
            raise ValueError(f"r must lie in (0, 1), got {r}")
        k = (1.0 - r) / (1.0 + r)
        alpha = r * (n - 2) / n
        beta = (n - (n - 2) * r) / 2.0
        return cls(r=float(r), n=int(n), k=k, alpha=alpha, beta=beta)

    def __post_init__(self):
        if not (0.0 < self.k < 1.0):
            raise ValueError("k out of range (0, 1)")
        if not (0.0 <= self.alpha < 1.0):
            raise ValueError("alpha out of range [0, 1)")
        if not self.beta > 0.0:
            raise ValueError("beta must be positive")


@dataclass(frozen=True)
class QuadratureSpec:
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_subdivisions: int = 256
    endpoint_mode: str = "regular"

    def __post_init__(self):
        floor = 16.0 * _EPS
        if self.abs_tol < floor or self.rel_tol < floor:
            raise ValueError(f"tolerances must be >= {floor:.3g}")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")
        if self.endpoint_mode not in ("regular", "algebraic_singularity"):
            raise ValueError(f"unknown endpoint_mode {self.endpoint_mode!r}")


def sphere_area(n):
    """Surface area of the unit sphere S^(n-1): 2 pi^(n/2) / Gamma(n/2).

    Valid down to n = 1 (S^0 is the two-point set, area 2).
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"dimension must be an integer >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


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


def _gk_panel(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _NODES), dtype=float)
    if fx.shape != _NODES.shape:
        raise ValueError("integrand must map an ndarray to an ndarray of the same shape")
    k15 = half * float(_WEIGHTS_K @ fx)
    g7 = half * float(_WEIGHTS_G @ fx[_GAUSS_IDX])
    return k15, abs(k15 - g7)


def adaptive_quad(f, a, b, q=QuadratureSpec()):
    """Adaptive Gauss-Kronrod integration of a vectorized integrand.

    ``f`` must accept an ndarray of abscissae and return an ndarray of
    values.  Returns ``(value, err_estimate)``; raises QuadratureError
    when max_subdivisions panels cannot reach the tolerance.  Splitting
    follows a deterministic largest-error-first order (ties broken by
    insertion counter), so results are reproducible bit-for-bit.

    ``endpoint_mode="algebraic_singularity"`` integrates through an
    algebraic singularity at the UPPER endpoint (an inverse-square-root
    blowup at b) via the substitution x = b - u^2.
    """
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    if q.endpoint_mode == "algebraic_singularity":
        c = math.sqrt(b - a)

        def g(u):
            u = np.asarray(u)
            return f(b - u * u) * 2.0 * u

        inner = QuadratureSpec(abs_tol=q.abs_tol, rel_tol=q.rel_tol,
                               max_subdivisions=q.max_subdivisions,
                               endpoint_mode="regular")
        return adaptive_quad(g, 0.0, c, inner)

    val, err = _gk_panel(f, a, b)
    heap = [(-err, 0, a, b, val, err)]
    counter = 1
    total, total_err = val, err
    while total_err > max(q.abs_tol, q.rel_tol * abs(total)):
        if len(heap) >= q.max_subdivisions:
            raise QuadratureError(
                f"tolerance not reached after {len(heap)} panels "
                f"(err={total_err:.3g}); tolerance too tight or integrand pathological",
                value=total, err_estimate=total_err)
        neg_e, _, pa, pb, pv, pe = heapq.heappop(heap)
        pm = 0.5 * (pa + pb)
        lv, le = _gk_panel(f, pa, pm)
        rv, re = _gk_panel(f, pm, pb)
        heapq.heappush(heap, (-le, counter, pa, pm, lv, le))
        heapq.heappush(heap, (-re, counter + 1, pm, pb, rv, re))
        counter += 2
        total = total - pv + lv + rv
        total_err = total_err - pe + le + re
    # deterministic, accurate final reduction over panels ordered by position
    panels = sorted(heap, key=lambda t: t[2])
    value = math.fsum(p[4] for p in panels)
    err = math.fsum(p[5] for p in panels)
    return value, err


def _upper_limit(z_signed, ps):
    return (z_signed + math.sqrt(z_signed * z_signed + 1.0 - ps.alpha ** 2)) \
        / (1.0 - ps.alpha)


def psi_numeric(p, sign, ps, q=QuadratureSpec(abs_tol=1e-13, rel_tol=1e-13)):
    """Profile integral by adaptive quadrature; oracle pair of psi_closed.

    ``sign=-1`` replaces z by -z in both the integrand and the upper
    limit.  Returns (value, err_estimate).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    zs = sign * p.z
    upper = _upper_limit(zs, ps)
    kern = backend.get_backend()

    def f(w):
        w = np.ascontiguousarray(w, dtype=float)
        return kern.psi_integrand_batch(w, ps.r, zs, ps.n, np.empty_like(w))

    return adaptive_quad(f, 0.0, upper, q)


def _psi_pair_at(ps, p, tgrid, q):
    """Psi(z t) + Psi(-z t) for an array of t values."""
    if ps.n == 4:
        zt = p.z * np.asarray(tgrid)
        return _psi_closed_arr(ps.r, zt) + _psi_closed_arr(ps.r, -zt)
    inner = QuadratureSpec(abs_tol=q.abs_tol / 10.0, rel_tol=q.rel_tol / 10.0,
                           max_subdivisions=q.max_subdivisions)
    out = np.empty(len(tgrid))
    for i, t in enumerate(np.asarray(tgrid)):
        pt = EvalPoint(ps.r, abs(p.z * t))
        vp, _ = psi_numeric(pt, 1, ps, inner)
        vm, _ = psi_numeric(pt, -1, ps, inner)
        out[i] = vp + vm
    return out


def c_numeric(p, ps, q=QuadratureSpec(abs_tol=1e-12, rel_tol=1e-12),
              n3_scheme="sin_substitution"):
    """Directional constant C(z, r) by quadrature of its integral
    representation; oracle pair of c_closed for n = 4.

    The inner profile values come from the closed form when n = 4 (fast
    path) and from psi_numeric otherwise.  For n = 3 the weight
    (1-t^2)^(-1/2) has an integrable endpoint singularity: the default
    scheme removes it with t = sin(theta); ``n3_scheme="endpoint_weight"``
    instead integrates the raw weight under algebraic_singularity
    handling (the two must agree, which the tests exercise).

    Returns (value, err_estimate).
    """
    n = ps.n
    pref = 4.0 * sphere_area(n - 2) / sphere_area(n) \
        * 2.0 ** (n - 1) / (1.0 + ps.r) ** (n - 1)
    norm = math.sqrt(1.0 + p.z * p.z)

    if n == 3 and n3_scheme == "sin_substitution":
        def f(theta):
            return _psi_pair_at(ps, p, np.sin(np.asarray(theta)), q)
        val, err = adaptive_quad(f, 0.0, math.pi / 2.0, q)
    elif n == 3:
        def f(t):
            t = np.asarray(t)
            return _psi_pair_at(ps, p, t, q) / np.sqrt(1.0 - t * t)
        sq = QuadratureSpec(abs_tol=q.abs_tol, rel_tol=q.rel_tol,
                            max_subdivisions=q.max_subdivisions,
                            endpoint_mode="algebraic_singularity")
        val, err = adaptive_quad(f, 0.0, 1.0, sq)
    else:
        e = (n - 4) / 2.0

        def f(t):
            t = np.asarray(t)
            w = np.ones_like(t) if n == 4 else (1.0 - t * t) ** e
            return _psi_pair_at(ps, p, t, q) * w
        val, err = adaptive_quad(f, 0.0, 1.0, q)

    return pref * val / norm, pref * err / norm
