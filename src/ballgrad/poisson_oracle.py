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
polar angle, positive at the pole e_n and negative at -e_n, so it
changes sign exactly once, at a closed-form angle; the product rule
splits the polar interval there into two pieces, which restores
high-order convergence.  A query makes one kernel call per piece, over
every (azimuthal node, polar node), with the Gauss rules built once per
node count and cached.

Every product-rule query goes through that one polar integrator; for
theta = pi/2 the integrand is |u| times a function of the polar angle,
so the azimuthal rule is one node, u = 1, with the exact |u| moment.

The Gauss rules come from ``roots_gegenbauer``, in numpy: Golub-Welsch
nodes polished by Newton steps, with weights within 1e-13 relative of
40-digit rules, and the Chebyshev rules (n = 3 and 5) in closed form.

Monte Carlo draws its Philox normals in blocks of _BLOCK whole rows and
keeps of each row only the two coordinates the kernel reads, zeta_n and
zeta_1, over |zeta|; the estimate equals that of one (samples, n) draw
bit for bit.  The sample is cached for the last (n, samples, seed), so
the angles of one sweep share one draw; the cache holds 16 bytes per
sample point (3.2 MB at the default 200,000).  The kernel then runs
block by block on the cached columns, so a query's temporaries stay a
block's size.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .kernelint import sphere_area

_BOUNDARY_TOL = 1e-12
_KERNEL_MASS_NODES = 200
#: rows per Monte Carlo block: the draw and the kernel each touch this
#: many sample points at a time
_BLOCK = 1 << 14


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


def _recurrence(x, b):
    """The orthonormal polynomials of the Jacobi recurrence
    b_k q_k = x q_(k-1) - b_(k-1) q_(k-2), scaled to q_0 = 1, at x, with
    m = len(b): returns q_m and its derivative, and the sums over k < m
    of q_k^2 and of q_k q_k'."""
    q_prev, q = np.zeros_like(x), np.ones_like(x)
    dq_prev, dq = np.zeros_like(x), np.zeros_like(x)
    total, dtotal = np.zeros_like(x), np.zeros_like(x)
    b_prev = 0.0
    for bk in b:
        total += q * q
        dtotal += q * dq
        q_prev, q, dq_prev, dq = (q, (x * q - b_prev * q_prev) / bk,
                                  dq, (q + x * dq - b_prev * dq_prev) / bk)
        b_prev = bk
    return q, dq, total, dtotal


def roots_gegenbauer(m, alpha):
    """m-point Gauss rule for the weight (1-x^2)^(alpha-1/2) on [-1, 1],
    alpha >= 0 (Legendre: alpha = 1/2), nodes ascending.

    alpha = 0 and 1 are the Chebyshev rules of the first and second
    kind, in closed form.  Otherwise (Golub and Welsch, Math. Comp. 23,
    1969) the nodes are the eigenvalues of the symmetric Jacobi matrix J,
    taken from J^2 and polished by three Newton steps on the orthonormal
    recurrence, and each weight is mu_0 / sum_k q_k(x)^2 with mu_0 the
    total mass.
    """
    j = np.arange(1 - m, m, 2)
    if alpha == 0:
        return np.sin(math.pi * j / (2 * m)), np.full(m, math.pi / m)
    if alpha == 1:
        # x_k = cos(k pi/(m+1)), w_k = pi/(m+1) sin^2(k pi/(m+1)), the
        # sine taken at min(k, m+1-k): accurate at both ends, and symmetric
        k = np.minimum(np.arange(m, 0, -1), np.arange(1, m + 1))
        return (np.sin(math.pi * j / (2 * (m + 1))),
                math.pi / (m + 1) * np.sin(math.pi * k / (m + 1)) ** 2)
    k = np.arange(1.0, m + 1)
    b = np.sqrt(k * (k + 2 * alpha - 1) / (4 * (k + alpha) * (k + alpha - 1)))
    # the Jacobi matrix J has a zero diagonal, so J^2 couples only rows of
    # one parity: its even-row block, half the size, has the eigenvalues
    # x^2 of the nodes x >= 0, and the rule comes out exactly symmetric
    off = b[:-1]
    sq = np.concatenate(([0.0], off, [0.0])) ** 2
    h = (m + 1) // 2
    block = np.diag((sq[:-1] + sq[1:])[::2]) \
        + np.diag(off[:2 * h - 2].reshape(-1, 2).prod(axis=1), 1)
    s = np.sqrt(np.clip(np.linalg.eigvalsh(block, UPLO="U"), 0.0, None))
    x = np.concatenate((-s[::-1][:m // 2], s))
    for _ in range(3):
        q, dq, total, dtotal = _recurrence(x, b)
        step = q / dq
        x = x - step
    # the sum of q_k^2 taken to first order at the root x - step, not at
    # the iterate: near the ends it moves by about m^2 ulps per ulp of x
    total -= 2.0 * step * dtotal
    mu0 = math.sqrt(math.pi) * math.gamma(alpha + 0.5) / math.gamma(alpha + 1)
    return x, mu0 / total


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m):
    """Cached m-point Gauss-Legendre rule on [-1, 1], as read-only arrays."""
    return _read_only(*roots_gegenbauer(m, 0.5))


@functools.lru_cache(maxsize=None)
def _azimuthal_rule(n, m):
    """Cached Gauss rule for the weight (1-u^2)^((n-4)/2) on [-1, 1], as
    read-only arrays."""
    if n == 4:
        return _gauss_legendre(m)
    return _read_only(*roots_gegenbauer(m, (n - 3) / 2.0))


def _kink_points(n, r, ct, st, u):
    """The zero in (0, pi] of the sign factor of <grad P, v>, for each u.

    rho^(n+2) * <grad P, v> = c0 + a1 cos(phi) + b1 sin(phi)
                            = c0 + R cos(phi - alpha),
    with R = hypot(a1, b1) and alpha = atan2(b1, a1).  For theta < pi/2
    it is ct (1-r)^2 (n(1+r) - 2r) > 0 at phi = 0 and
    -ct (1+r)^2 (2r + n(1-r)) < 0 at phi = pi, so each half-meridian
    crosses the kink set once, at alpha + acos(-c0/R): c0 <= 0 <= a1, and
    the sign at phi = 0 puts the other root alpha - acos(-c0/R) below 0.
    R > 0 on every query: a1 > 0 when ct > 0, and the tangential rule has
    u = st = 1, where the zero is exactly pi.  Returns shape (len(u),).
    """
    u = np.asarray(u, dtype=float)
    c0 = -2.0 * r * (1.0 + r * r) * ct - n * (1.0 - r * r) * r * ct
    a1 = (4.0 * r * r + n * (1.0 - r * r)) * ct
    b1 = n * (1.0 - r * r) * u * st
    R = np.hypot(a1, b1)
    phi = np.arctan2(b1, a1) + np.arccos(np.clip(-c0 / R, -1.0, 1.0))
    return np.clip(phi, 0.0, math.pi)


def _polar_integrals(n, r, ct, st, u, nodes):
    """integral over [0, pi] of |F(phi, u)| sin^(n-2)(phi) dphi, for each u,
    as an array of shape (len(u), 2): one column per piece.

    The polar interval is split at the kink into the pieces [0, phi*]
    and [phi*, pi], and the kernel is evaluated once per piece on all
    (u, node) points.  Both pieces at once would peak at about 0.9 MB of
    temporaries at the default rule, near glibc's heap trim threshold,
    so whether each query gave the heap top back and page-faulted it in
    again (about 60 % slower) would depend on the process's heap layout.
    A piece at a time peaks at about 0.5 MB.
    """
    u = np.asarray(u, dtype=float)
    xg, wg = _gauss_legendre(nodes)
    kink = _kink_points(n, r, ct, st, u)
    kern = backend.get_backend()
    pieces = np.empty((u.size, 2))
    for j, (a, b) in enumerate([(0.0, kink), (kink, math.pi)]):
        half = 0.5 * (b - a)
        phi = (0.5 * (a + b))[:, None] + half[:, None] * xg
        sphi = np.sin(phi)
        F = kern.grad_dot_batch(np.cos(phi), sphi, u[:, None], r, n, ct, st)
        pieces[:, j] = half * np.sum(np.abs(F) * sphi ** (n - 2) * wg, axis=-1)
    return pieces


def _product_constant(q, sq):
    n, r = q.n, q.r
    ct, st = math.cos(q.theta), math.sin(q.theta)
    if n == 2:
        # the residual sphere S^0 is the pair u = +/-1
        uj, wj = np.array([1.0, -1.0]), np.ones(2)
        scale = 1.0 / (2.0 * math.pi)
    else:
        scale = sphere_area(n - 2) / sphere_area(n)
        if abs(ct) < 1e-12:
            # purely tangential: |F| is |u| times a function of phi; one
            # node u = 1 with the exact moment 2/(n-2) of |u| replaces a
            # Gauss rule that cannot resolve the kink of |u| at u = 0
            ct, st = 0.0, 1.0
            uj, wj = np.ones(1), np.array([2.0 / (n - 2)])
        else:
            uj, wj = _azimuthal_rule(n, sq.nodes_azimuthal)
    pieces = _polar_integrals(n, r, ct, st, uj, sq.nodes_polar)
    # correctly rounded total: last-bit changes of the query (theta from
    # directional_constant_vector) then leave the answer bit-equal more often
    return scale * math.fsum((wj[:, None] * pieces).ravel())


@functools.lru_cache(maxsize=1)
def _mc_sample(n, samples, seed):
    """The two coordinates of a uniform sample of S^(n-1) that the kernel
    reads, zeta_n and zeta_1, as cached read-only arrays.

    The Philox normals are drawn in whole rows, _BLOCK rows at a time,
    which continues the one-shot (samples, n) stream bit for bit; each
    block's norm is the left fold over its squared columns, as
    np.linalg.norm(axis=1) sums them.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    polar, lateral = np.empty(samples), np.empty(samples)
    for start in range(0, samples, _BLOCK):
        rows = slice(start, min(start + _BLOCK, samples))
        block = rng.standard_normal((rows.stop - start, n))
        norm = block[:, 0] ** 2
        for j in range(1, n):
            norm += block[:, j] ** 2
        np.sqrt(norm, out=norm)
        np.divide(block[:, n - 1], norm, out=polar[rows])
        np.divide(block[:, 0], norm, out=lateral[rows])
    return _read_only(polar, lateral)


def _mc_constant(q, sq):
    n, r = q.n, q.r
    ct, st = math.cos(q.theta), math.sin(q.theta)
    polar, lateral = _mc_sample(n, sq.samples, sq.seed)
    kern = backend.get_backend()
    g = np.empty(sq.samples)
    for start in range(0, sq.samples, _BLOCK):
        rows = slice(start, start + _BLOCK)
        F = kern.grad_dot_batch(polar[rows], lateral[rows], 1.0, r, n, ct, st)
        np.abs(F, out=g[rows])
    value = float(np.mean(g))
    stderr = float(np.std(g, ddof=1) / math.sqrt(sq.samples))
    return value, stderr


def _error_proxy(q, sq, value):
    """Error measure of ``value``, the product-rule answer to ``q`` under
    ``sq``: its node-halving delta."""
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
    if sq.method == "monte_carlo":
        # one pass per angle: its standard error is kept for the allowance
        runs = {t: _mc_constant(DirectionalQuery(n, r, t), sq) for t in thetas}
        values = {t: v for t, (v, _) in runs.items()}
    else:
        values = {t: directional_constant(DirectionalQuery(n, r, t), sq)
                  for t in thetas}
    profile = tuple((t, values[t]) for t in thetas)
    theta_star, _ = max(profile, key=lambda tv: tv[1])
    value0 = values[0.0]

    def error(t):
        if sq.method == "monte_carlo":
            return runs[t][1]
        # reuses the profile value: only the coarse pass runs
        return _error_proxy(DirectionalQuery(n, r, t), sq, values[t])

    err = {t: error(t) for t in {0.0, theta_star}}
    allowance = err[0.0] + err[theta_star] + 1e-9
    violation = any(val > value0 + allowance for t, val in profile if t != 0.0)
    return BestDirection(theta_star=theta_star, profile=profile,
                         conjecture_violation=violation, allowance=allowance)


def extremal_check(n, r, sq=SphereQuadrature()):
    """Directional derivative attained by the extremal boundary data.

    The boundary data sign<grad P, e_n> attains the normal-direction
    constant: its integral against <grad P, e_n> is the integral of
    |<grad P, e_n>|.  On the quadrature nodes F sign(F) equals |F| bit
    for bit, so this is the theta = 0 product-rule query, whatever
    ``sq.method`` says.
    """
    return _product_constant(DirectionalQuery(n=n, r=r, theta=0.0), sq)


def kernel_mass(r, n):
    """Quadrature of the Poisson kernel over the sphere (normalized
    measure); equals 1 for every interior radius -- a self-test."""
    if not (0.0 <= r < 1.0):
        raise ValueError(f"r must lie in [0, 1), got {r}")
    xg, wg = _gauss_legendre(_KERNEL_MASS_NODES)
    half = math.pi / 2.0
    phi = half + half * xg
    P = (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(phi) + r * r) ** (n / 2.0)
    w = np.sin(phi) ** (n - 2)
    return sphere_area(n - 1) / sphere_area(n) * half * float(wg @ (P * w))
