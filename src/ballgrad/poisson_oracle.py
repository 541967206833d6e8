"""Brute-force directional constants from the Poisson kernel.

Independent of every closed form in the package: the directional
constant C(x, v) is computed as the spherical L1 norm of the directional
derivative of the Poisson kernel,

    C(x, v) = integral over S^(n-1) of |<grad_x P(x, zeta), v>| dsigma,

with sigma the NORMALIZED surface measure.  By rotational symmetry the
query is canonicalized to x = r*e_n, v = cos(theta)*e_n + sin(theta)*e_1.
At zeta_n = cos(phi), zeta_1 = sin(phi) u the sign factor
rho^(n+2) <grad P, v> is alpha(phi) + beta(phi) u, linear in u, so the
integral over the azimuthal cosine u is elementary (the kernel
``polar_integrand_batch``; the closed form is Kalaj's, arXiv:1601.03347)
and a product-rule query is one polar integral, in one kernel call.
The query is array-native in theta: for one (n, r) every angle of a
direction profile has the same number of pieces, and the profile is one
kernel call; a single query is its one-angle case.

The polar integrand changes form where |alpha| = beta, at two
closed-form kinks.  The interval [0, pi] is split there and at
phi = (1-r) 4^k, which grade the pieces toward the peak of width about
1 - r at e_n, and each piece takes _NODES_POLAR = 48 Gauss-Legendre
nodes from ``roots_legendre`` (Golub-Welsch in numpy, weights within
1e-13 relative of 40-digit rules).  The product rule takes no
configuration: its error proxy is the node-halving delta, the same
pieces integrated at half the nodes.  For odd n the integrand has
half-integer powers of the distance to a kink, so each piece is mapped
by phi = a + (b-a)(3s^2 - 2s^3).  With alpha and rho^2 formed from
sin^2(phi/2), nothing cancels near the pole, and at theta = 0 the query
keeps its accuracy up to r = 0.99999.

Monte Carlo is a single-query cross-check: ``directional_constant``
and ``directional_constant_with_error`` take it through a
``SphereQuadrature``, which only their Monte Carlo branches read, and
every profile (``direction_profile``, ``best_direction``) is the
product rule's.  The kernel reads only zeta_n and zeta_1 of the sample,
so each sample draws two Philox normals and one chi-square for the rest
of its squared norm, in blocks of _BLOCK rows, and the estimate equals
that of one whole-sample draw bit for bit.  The kernel's |F| goes into
one array, whose standard error is taken in place, so a query's other
temporaries stay a block's size.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import backend
from .kernelint import sphere_area

_BOUNDARY_TOL = 1e-12
_KERNEL_MASS_NODES = 200
#: Gauss-Legendre nodes per piece of the polar interval
_NODES_POLAR = 48
#: the product rule's method name, as its reports and tags record it
PRODUCT_GAUSS = "product_gauss"
#: the Monte Carlo seed, and the one a seeded report records by default
DEFAULT_SEED = 20220417
#: rows per Monte Carlo block: the draw and the kernel each touch this
#: many sample points at a time
_BLOCK = 1 << 14


def _validate(n, r, thetas):
    """Raise the ValueError of the first bad argument of the queries
    (n, r, theta) for theta in ``thetas``."""
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError(f"dimension must be an integer >= 2, got {n}")
    if not (0.0 <= r < 1.0):
        raise ValueError(f"r must lie in [0, 1), got {r}")
    for theta in thetas:
        if not (0.0 <= theta <= math.pi / 2.0 + 1e-15):
            raise ValueError(f"theta must lie in [0, pi/2], got {theta}")


@dataclass(frozen=True)
class DirectionalQuery:
    """Dimension, radius of the canonical evaluation point, and the angle
    theta between the direction and the outward normal."""

    n: int
    r: float
    theta: float

    def __post_init__(self):
        _validate(self.n, self.r, (self.theta,))


@dataclass(frozen=True)
class SphereQuadrature:
    """The method of a single query; ``samples`` and ``seed`` are the
    Monte Carlo draw's."""

    method: str = PRODUCT_GAUSS
    samples: int = 200_000
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.method not in (PRODUCT_GAUSS, "monte_carlo"):
            raise ValueError(f"unknown method {self.method!r}")
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


def roots_legendre(m):
    """m-point Gauss-Legendre rule on [-1, 1], nodes ascending.

    Golub and Welsch (Math. Comp. 23, 1969): the nodes are the
    eigenvalues of the symmetric Jacobi matrix J, taken from J^2 and
    polished by three Newton steps on the orthonormal recurrence, and
    each weight is 2 / sum_k q_k(x)^2, 2 being the total mass.
    """
    k = np.arange(1.0, m + 1)
    b = k / np.sqrt(4.0 * k * k - 1.0)
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
    return x, 2.0 / total


@functools.lru_cache(maxsize=None)
def _gauss_legendre(m):
    """Cached m-point Gauss-Legendre rule on [-1, 1], as read-only arrays."""
    return _read_only(*roots_legendre(m))


@functools.lru_cache(maxsize=None)
def _piece_rule(m, smooth_ends):
    """Cached m-point Gauss-Legendre rule on [0, 1], as read-only arrays;
    with ``smooth_ends`` mapped by s -> 3s^2 - 2s^3, which makes an
    endpoint singularity (phi - a)^(k/2) smooth in s."""
    x, w = _gauss_legendre(m)
    s, w = 0.5 + 0.5 * x, 0.5 * w
    if smooth_ends:
        s, w = s * s * (3.0 - 2.0 * s), w * 6.0 * s * (1.0 - s)
    return _read_only(s, w)


def _sign_factor(n, r, ct, st):
    """(alpha0, a1, B): the sign factor rho^(n+2) <grad P, v> is
    alpha + beta u with alpha = alpha0 - 2 a1 sin^2(phi/2) and
    beta = B sin(phi); alpha0 is its value at phi = 0.  Elementwise in
    the cosines ``ct`` and sines ``st`` of the angles."""
    return (ct * (1.0 - r) ** 2 * (n * (1.0 + r) - 2.0 * r),
            ct * (4.0 * r * r + n * (1.0 - r) * (1.0 + r)),
            n * (1.0 - r) * (1.0 + r) * st)


#: math.atan2 as a ufunc: numpy's own arctan2 may take a SIMD path that is
#: not correctly rounded (on AVX-512 it differs from libm in the last bit
#: for about 7% of arguments), and a kink one ulp off moves every node
#: of its two pieces
_atan2 = np.frompyfunc(math.atan2, 2, 1)


def _kink_points(alpha0, a1, B):
    """The zeros in [0, pi] of the sign factor (alpha0, a1, B) at u = -1
    and u = +1, where |alpha| = beta, stacked on a new first axis.  With
    -south = alpha0 - 2 a1 < 0 its value at phi = pi (ct > 0),
    tau = tan(phi/2) is the positive root of
    south tau^2 - 2 B u tau - alpha0 = 0: alpha0 / (d + B) for u = -1 and
    (B + d) / south for u = +1, d = sqrt(B^2 + alpha0 south), neither of
    which cancels.  At ct = 0 they sit at the poles."""
    south = 2.0 * a1 - alpha0
    dB = np.sqrt(B * B + alpha0 * south) + B
    return 2.0 * _atan2((alpha0, dB), (dB, south)).astype(float)


def _polar_pieces(n, r, thetas):
    """The pieces of the exact-azimuth query at every angle of ``thetas``
    for one (n, r): (alpha0, a1, B, ends), each angle's sign factor and,
    in its row of ``ends``, its piece ends.

    Each angle's polar interval is split at 0, pi, its two kinks and the
    grades (1 - r) 4^k < pi, which depend only on r, so every angle has
    the same number of pieces; where two ends meet (the kinks at
    theta = 0, the poles at theta = pi/2) the piece has zero width and
    adds exactly 0.
    """
    theta = np.asarray(thetas, dtype=float)
    # C(x, v) = C(x, -v): fold a last-bit negative cosine at pi/2
    sign = _sign_factor(n, r, np.abs(np.cos(theta)), np.sin(theta))
    fixed = [0.0, math.pi]
    grade = 1.0 - r  # (1 - r) 4^k below pi, the k-th grade
    while grade < math.pi:
        fixed.append(grade)
        grade *= 4.0
    ends = np.empty((theta.size, len(fixed) + 2))
    ends[:, :2] = _kink_points(*sign).T
    ends[:, 2:] = fixed
    ends.sort(axis=1)
    return (*sign, ends)


def _polar_integrals(n, r, pieces, nodes):
    """C(x, v) at every angle of ``pieces`` (from _polar_pieces), with
    ``nodes`` nodes per piece: a list, from one kernel call.  An angle's
    value does not depend on the others."""
    alpha0, a1, B, ends = pieces
    width = ends[:, 1:] - ends[:, :-1]
    s, w = _piece_rule(nodes, n % 2 == 1)
    phi = ends[:, :-1, None] + width[..., None] * s
    h2 = np.sin(0.5 * phi) ** 2
    sphi = np.sin(phi)
    alpha0, a1, B = alpha0[:, None, None], a1[:, None, None], B[:, None, None]
    kern = backend.get_backend()
    f = kern.polar_integrand_batch(sphi, alpha0 - 2.0 * a1 * h2, B * sphi,
                                   (1.0 - r) ** 2 + 4.0 * r * h2, n)
    scale = 0.5 / math.pi if n == 2 else sphere_area(n - 2) / sphere_area(n)
    # one (pieces, nodes) product per angle, so an angle's sums are those of
    # its own query; the total over its pieces is rounded once (math.fsum),
    # so no summation order moves it, and the census outputs were made so
    return [scale * math.fsum(row) for row in (width * (f @ w)).tolist()]


def direction_profile(n, r, thetas):
    """The product-rule C(x, v) at every angle of ``thetas`` for one
    (n, r), a list from one kernel call; an angle's value does not depend
    on the others."""
    thetas = [float(t) for t in thetas]
    _validate(n, r, thetas)
    return _polar_integrals(n, r, _polar_pieces(n, r, thetas), _NODES_POLAR)


def _mc_constant(q, sq):
    """The Monte Carlo estimate of C(x, v) and its standard error.

    zeta = g/|g| for g standard normal in R^n, and the kernel reads only
    zeta_n and zeta_1, so each sample draws g_1 and g_n as one row of a
    Philox normal block and the rest of |g|^2, a chi-square with n - 2
    degrees of freedom independent of them, as 2 Gamma((n-2)/2) from the
    seed's jumped stream.  Both streams are drawn _BLOCK rows at a time,
    which continues their one-shot draws bit for bit.
    """
    n, r, samples = q.n, q.r, sq.samples
    ct, st = math.cos(q.theta), math.sin(q.theta)
    bits = np.random.Philox(sq.seed)
    # jumped from the seed's state, before the normals advance it
    chi2 = np.random.Generator(bits.jumped())
    rng = np.random.Generator(bits)
    kern = backend.get_backend()
    g = np.empty(samples)
    for start in range(0, samples, _BLOCK):
        rows = slice(start, min(start + _BLOCK, samples))
        size = rows.stop - start
        pair = rng.standard_normal((size, 2))
        norm = chi2.standard_gamma(0.5 * (n - 2), size)
        norm *= 2.0
        norm += pair[:, 0] ** 2
        norm += pair[:, 1] ** 2
        np.sqrt(norm, out=norm)
        F = kern.grad_dot_batch(pair[:, 1] / norm, pair[:, 0] / norm,
                                1.0, r, n, ct, st)
        np.abs(F, out=g[rows])
    # np.mean and np.std(ddof=1), step by step, with g's deviations and
    # their squares taken in place: no second samples-long array
    mean = np.add.reduce(g) / samples
    g -= mean
    g *= g
    stderr = math.sqrt(np.add.reduce(g) / (samples - 1)) / math.sqrt(samples)
    return float(mean), stderr


def _error_proxies(n, r, pieces, values):
    """Error measures of ``values``, the product-rule answers on
    ``pieces``: their node-halving deltas, from one kernel call on the
    same pieces."""
    halved = _polar_integrals(n, r, pieces, _NODES_POLAR // 2)
    return [abs(v - c) for v, c in zip(values, halved)]


def directional_constant(q, sq=SphereQuadrature()):
    """Directional sharp constant C(x, v) for the canonical query."""
    if sq.method == "monte_carlo":
        return _mc_constant(q, sq)[0]
    return direction_profile(q.n, q.r, (q.theta,))[0]


def directional_constant_with_error(q, sq=SphereQuadrature()):
    """As directional_constant, plus an error measure: Monte-Carlo
    standard error, or the node-halving delta for the product rule."""
    if sq.method == "monte_carlo":
        return _mc_constant(q, sq)
    pieces = _polar_pieces(q.n, q.r, (q.theta,))
    values = _polar_integrals(q.n, q.r, pieces, _NODES_POLAR)
    return values[0], _error_proxies(q.n, q.r, pieces, values)[0]


@dataclass(frozen=True)
class BestDirection:
    theta_star: float
    profile: tuple
    allowance: float


def best_direction(n, r, theta_grid):
    """Maximize the product-rule direction profile over a theta grid.

    Returns the grid argmax, the full (theta, value) profile and the
    error allowance: the sum of the node-halving deltas at theta = 0 and
    at the argmax, from the profile's own pieces at those two angles.
    The verdict on the profile is ``proofcheck.conjecture_report``'s.
    """
    thetas = [float(t) for t in theta_grid]
    if not thetas:
        raise ValueError("theta_grid must be nonempty")
    _validate(n, r, thetas)
    if 0.0 not in thetas:
        raise ValueError("theta_grid must contain 0")
    pieces = _polar_pieces(n, r, thetas)
    values = _polar_integrals(n, r, pieces, _NODES_POLAR)
    star = max(range(len(thetas)), key=values.__getitem__)
    zero = thetas.index(0.0)
    at = sorted({zero, star})
    err = dict(zip(at, _error_proxies(n, r, tuple(p[at] for p in pieces),
                                      [values[i] for i in at])))
    return BestDirection(theta_star=thetas[star],
                         profile=tuple(zip(thetas, values)),
                         allowance=err[zero] + err[star] + 1e-9)


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
