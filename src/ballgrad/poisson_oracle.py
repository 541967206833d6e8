"""Brute-force directional constants from the Poisson kernel.

Independent of every closed form in the package: the directional
constant C(x, v) is computed as the spherical L1 norm of the directional
derivative of the Poisson kernel,

    C(x, v) = integral over S^(n-1) of |<grad_x P(x, zeta), v>| dsigma,

with sigma the NORMALIZED surface measure.  By rotational symmetry the
query is canonicalized to x = r*e_n, v = cos(theta)*e_n + sin(theta)*e_1,
and the (n-3)-sphere factor is integrated analytically, leaving a 2-D
product quadrature (or plain Monte Carlo).

The integrand has a kink where <grad P, v> changes sign.  Along each
azimuthal node the sign factor is a constant plus one sinusoid in the
polar angle, so its zeros have a closed form; the product rule splits
the polar interval there into three pieces (padding with zero-width
ones), which restores high-order convergence.  A query is one numpy
pass: one kernel call over every (azimuthal node, piece, polar node),
with the Gauss rules built once per node count and cached.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_chebyt, roots_chebyu, roots_gegenbauer, roots_legendre

from . import backend
from .kernelint import sphere_area

_BOUNDARY_TOL = 1e-12


@dataclass(frozen=True)
class DirectionalQuery:
    """Dimension, radius of the canonical evaluation point, and the angle
    theta between the direction and the outward normal."""

    n: int
    r: float
    theta: float

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 2):
            raise ValueError(f"dimension must be an integer >= 2, got {self.n}")
        if not (0.0 <= self.r < 1.0):
            raise ValueError(f"r must lie in [0, 1), got {self.r}")
        if not (0.0 <= self.theta <= math.pi / 2.0 + 1e-15):
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta}")


@dataclass(frozen=True)
class SphereQuadrature:
    method: str = "product_gauss"
    nodes_polar: int = 96
    nodes_azimuthal: int = 64
    samples: int = 200_000
    seed: int = 20220417

    def __post_init__(self):
        if self.method not in ("product_gauss", "monte_carlo"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.nodes_polar < 2 or self.nodes_azimuthal < 1:
            raise ValueError("node counts too small")
        if self.samples < 2:
            raise ValueError("need at least 2 samples")


def poisson_kernel(x, zeta, n):
    """P(x, zeta) = (1 - |x|^2) / |x - zeta|^n for |x| < 1, |zeta| = 1."""
    x = np.asarray(x, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if abs(np.linalg.norm(zeta) - 1.0) > _BOUNDARY_TOL:
        raise ValueError("zeta must lie on the unit sphere")
    rho = np.linalg.norm(x - zeta)
    return float((1.0 - x @ x) / rho ** n)


def poisson_gradient(x, zeta, n):
    """Gradient in x of the Poisson kernel:
    -2x/|x-zeta|^n - n(1-|x|^2)(x-zeta)/|x-zeta|^(n+2)."""
    x = np.asarray(x, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    if abs(np.linalg.norm(zeta) - 1.0) > _BOUNDARY_TOL:
        raise ValueError("zeta must lie on the unit sphere")
    d = x - zeta
    rho2 = d @ d
    return -2.0 * x / rho2 ** (n / 2.0) \
        - n * (1.0 - x @ x) * d / rho2 ** (n / 2.0 + 1.0)


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m):
    """Cached m-point Gauss-Legendre rule on [-1, 1], as read-only arrays."""
    x, w = roots_legendre(m)
    return _read_only(x, w)


@functools.lru_cache(maxsize=None)
def _azimuthal_rule(n, m):
    """Cached Gauss rule for the weight (1-u^2)^((n-4)/2) on [-1, 1], as
    read-only arrays."""
    e = n - 4
    if e == -1:
        x, w = roots_chebyt(m)
    elif e == 0:
        return _gauss_legendre(m)
    elif e == 1:
        x, w = roots_chebyu(m)
    else:
        x, w = roots_gegenbauer(m, (e + 1) / 2.0)
    return _read_only(x, w)


def _kink_points(n, r, ct, st, u):
    """Zeros in (0, pi) of the sign factor of <grad P, v>, for each u.

    rho^(n+2) * <grad P, v> = c0 + a1 cos(phi) + b1 sin(phi)
                            = c0 + R cos(phi - alpha),
    with R = hypot(a1, b1) and alpha = atan2(b1, a1), so the zeros are
    alpha +/- acos(-c0/R) when |c0| < R (a tangency, |c0| = R, is no
    sign change).  For theta in [0, pi/2], c0 <= 0 <= a1, so alpha lies
    in [-pi/2, pi/2] and acos(-c0/R) in [0, pi/2]: both candidates lie in
    [-pi, pi], and no zero wraps around.  Returns an array of shape
    (len(u), 2), each row sorted, with pi standing in for a missing zero.
    """
    u = np.asarray(u, dtype=float)
    c0 = -2.0 * r * (1.0 + r * r) * ct - n * (1.0 - r * r) * r * ct
    a1 = (4.0 * r * r + n * (1.0 - r * r)) * ct
    b1 = n * (1.0 - r * r) * u * st
    R = np.hypot(a1, b1)
    real = np.abs(c0) < R
    alpha = np.arctan2(b1, a1)
    beta = np.arccos(np.clip(-c0 / np.where(real, R, 1.0), -1.0, 1.0))
    phi = np.stack([alpha - beta, alpha + beta], axis=-1)
    inside = real[:, None] & (phi > 0.0) & (phi < math.pi)
    return np.sort(np.where(inside, phi, math.pi), axis=-1)


def _polar_integrals(n, r, ct, st, u, nodes, signed=False):
    """integral over [0, pi] of |F(phi, u)| sin^(n-2)(phi) dphi, for each u,
    as an array of shape (len(u), 3): one column per piece.

    The polar interval is split at the kinks into three pieces (one or
    two of zero width when there are fewer kinks), and the kernel is
    evaluated once on all (u, piece, node) points.

    With ``signed=True`` the integrand is F times the sign of F read off
    the same nodes (the extremal boundary-data construction); the two
    agree identically at node level.
    """
    u = np.asarray(u, dtype=float)
    xg, wg = _gauss_legendre(nodes)
    kinks = _kink_points(n, r, ct, st, u)
    ends = np.concatenate([np.zeros((u.size, 1)), kinks,
                           np.full((u.size, 1), math.pi)], axis=1)
    a, b = ends[:, :-1], ends[:, 1:]
    half = 0.5 * (b - a)
    phi = (0.5 * (a + b))[..., None] + half[..., None] * xg
    cphi = np.cos(phi).ravel()
    sphi = np.sin(phi).ravel()
    uu = np.repeat(u, phi.shape[1] * nodes)
    F = backend.get_backend().grad_dot_batch(cphi, sphi, uu, r, n, ct, st,
                                             np.empty_like(cphi))
    vals = F * np.sign(F) if signed else np.abs(F)
    vals = (vals * sphi ** (n - 2)).reshape(phi.shape)
    return half * np.sum(vals * wg, axis=-1)


def _tangential_constant(n, r, nodes):
    """Purely tangential direction: the sign factor reduces to the first
    boundary coordinate, so the azimuthal |u| moment integrates exactly
    (2/(n-2)) and one smooth polar integral remains.

    The generic product rule must not be used here: its azimuthal
    integrand |u| * smooth has a kink at u = 0 that the weight-matched
    Gauss rule cannot resolve.
    """
    xg, wg = _gauss_legendre(nodes)
    half = math.pi / 2.0
    phi = half + half * xg
    rho2 = 1.0 - 2.0 * r * np.cos(phi) + r * r
    integrand = np.sin(phi) ** (n - 1) / rho2 ** ((n + 2) / 2.0)
    polar = half * float(wg @ integrand)
    return sphere_area(n - 2) / sphere_area(n) \
        * n * (1.0 - r * r) * 2.0 / (n - 2) * polar


def _product_constant(q, sq, signed=False):
    n, r = q.n, q.r
    ct, st = math.cos(q.theta), math.sin(q.theta)
    if n >= 3 and abs(ct) < 1e-12:
        return _tangential_constant(n, r, sq.nodes_polar)
    if n == 2:
        # the residual sphere S^0 is the pair u = +/-1
        uj, wj = np.array([1.0, -1.0]), np.ones(2)
        scale = 1.0 / (2.0 * math.pi)
    else:
        uj, wj = _azimuthal_rule(n, sq.nodes_azimuthal)
        scale = sphere_area(n - 2) / sphere_area(n)
    pieces = _polar_integrals(n, r, ct, st, uj, sq.nodes_polar, signed)
    # correctly rounded total: last-bit changes of the query (theta from
    # directional_constant_vector) then leave the answer bit-equal more often
    return scale * math.fsum((wj[:, None] * pieces).ravel())


def _mc_constant(q, sq):
    n, r = q.n, q.r
    ct, st = math.cos(q.theta), math.sin(q.theta)
    rng = np.random.Generator(np.random.Philox(sq.seed))
    zeta = rng.standard_normal((sq.samples, n))
    zeta /= np.linalg.norm(zeta, axis=1, keepdims=True)
    zn = zeta[:, n - 1]
    z1 = zeta[:, 0]
    rho2 = 1.0 - 2.0 * r * zn + r * r
    xv = r * ct
    xz_v = xv - (zn * ct + z1 * st)
    F = -2.0 * xv / rho2 ** (n / 2.0) - n * (1.0 - r * r) * xz_v / rho2 ** (n / 2.0 + 1.0)
    g = np.abs(F)
    value = float(np.mean(g))
    stderr = float(np.std(g, ddof=1) / math.sqrt(sq.samples))
    return value, stderr


def _error_proxy(q, sq, value):
    """Error measure of ``value``, the answer to ``q`` under ``sq``: the
    Monte-Carlo standard error, or the node-halving delta for the product
    rule."""
    if sq.method == "monte_carlo":
        return _mc_constant(q, sq)[1]
    coarse = SphereQuadrature(method="product_gauss",
                              nodes_polar=max(2, sq.nodes_polar // 2),
                              nodes_azimuthal=max(1, sq.nodes_azimuthal // 2),
                              samples=sq.samples, seed=sq.seed)
    return abs(value - _product_constant(q, coarse))


def directional_constant(q, sq=SphereQuadrature()):
    """Directional sharp constant C(x, v) for the canonical query."""
    if sq.method == "monte_carlo":
        return _mc_constant(q, sq)[0]
    return _product_constant(q, sq)


def directional_constant_with_error(q, sq=SphereQuadrature()):
    """As directional_constant, plus an error measure: Monte-Carlo
    standard error, or the node-halving delta for the product rule."""
    if sq.method == "monte_carlo":
        return _mc_constant(q, sq)
    value = _product_constant(q, sq)
    return value, _error_proxy(q, sq, value)


def directional_constant_vector(x, v, sq=SphereQuadrature()):
    """C(x, v) for an arbitrary interior point and direction vector.

    Canonicalizes by rotational symmetry: only |x| and the angle between
    v and the outward normal at x matter; the angle is folded into
    [0, pi/2] using C(x, v) = C(x, -v).
    """
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    n = x.size
    r = float(np.linalg.norm(x))
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        raise ValueError("direction vector must be nonzero")
    if r == 0.0:
        theta = 0.0  # every direction is normal at the center
    else:
        c = float(np.clip((x @ v) / (r * nv), -1.0, 1.0))
        theta = math.acos(abs(c))
    return directional_constant(DirectionalQuery(n=n, r=r, theta=theta), sq)


@dataclass(frozen=True)
class BestDirection:
    theta_star: float
    profile: tuple
    conjecture_violation: bool
    allowance: float


def best_direction(n, r, theta_grid, sq=SphereQuadrature()):
    """Maximize the direction profile over a theta grid.

    Returns the grid argmax, the full (theta, value) profile, the error
    allowance used, and a violation flag raised when some interior angle
    beats theta = 0 by more than that allowance (the sum of the
    quadrature error proxies at theta = 0 and at the argmax).
    """
    thetas = [float(t) for t in theta_grid]
    if not thetas or min(thetas) < 0.0 or max(thetas) > math.pi / 2.0 + 1e-15:
        raise ValueError("theta_grid must be a nonempty subset of [0, pi/2]")
    if 0.0 not in thetas:
        raise ValueError("theta_grid must contain 0")
    profile = tuple((t, directional_constant(DirectionalQuery(n, r, t), sq))
                    for t in thetas)
    theta_star, _ = max(profile, key=lambda tv: tv[1])
    values = dict(profile)
    value0 = values[0.0]
    # the error proxies reuse the profile values: only the coarse pass runs
    err = {t: _error_proxy(DirectionalQuery(n, r, t), sq, values[t])
           for t in {0.0, theta_star}}
    allowance = err[0.0] + err[theta_star] + 1e-9
    violation = any(val > value0 + allowance for t, val in profile if t != 0.0)
    return BestDirection(theta_star=theta_star, profile=profile,
                         conjecture_violation=violation, allowance=allowance)


def extremal_check(n, r, sq=SphereQuadrature()):
    """Directional derivative attained by the extremal boundary data.

    Builds sign<grad P, e_n> as boundary data and integrates its product
    with <grad P, e_n> on the same quadrature nodes; by |g| = g sign(g)
    this must reproduce directional_constant at theta = 0 exactly at
    node level.
    """
    q = DirectionalQuery(n=n, r=r, theta=0.0)
    return _product_constant(q, sq, signed=True)


def kernel_mass(r, n, nodes=200):
    """Quadrature of the Poisson kernel over the sphere (normalized
    measure); equals 1 for every interior radius -- a self-test."""
    if not (0.0 <= r < 1.0):
        raise ValueError(f"r must lie in [0, 1), got {r}")
    xg, wg = _gauss_legendre(nodes)
    half = math.pi / 2.0
    phi = half + half * xg
    P = (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(phi) + r * r) ** (n / 2.0)
    if n == 2:
        return half * float(wg @ P) / math.pi
    w = np.sin(phi) ** (n - 2)
    return sphere_area(n - 1) / sphere_area(n) * half * float(wg @ (P * w))
