"""The batched integrand kernels, in numpy.

Every function takes broadcastable float64 arrays plus parameters and
returns a new array; ``psi_integrand_parts`` returns its two parts
stacked on a new first axis.  Callers reach this module through
:func:`ballgrad.backend.get_backend`.
"""

import sys

import numpy as np

BACKEND_NAME = "python"


def psi_integrand_parts(w, r, n):
    """The two z-free parts (a, b) of the radial profile integrand.

    The integrand (n - beta + n*z*w - beta*w^2) * w^(n-2) / D(w) equals
    a(w) + z*b(w), with

        a = (n - beta - beta*w^2) * w^(n-2) / D(w),   b = n * w^(n-1) / D(w),

    D(w) = (1+w^2)^(n/2+1) * (1+k^2 w^2)^(n/2-1), k = (1-r)/(1+r) and
    beta = (n-(n-2)r)/2.  Returns a and b stacked on a new first axis.
    """
    k = (1.0 - r) / (1.0 + r)
    beta = (n - (n - 2) * r) / 2.0
    w2 = w * w
    wd = w ** (n - 2) / ((1.0 + w2) ** (n / 2.0 + 1.0)
                         * (1.0 + k * k * w2) ** (n / 2.0 - 1.0))
    return np.stack([(n - beta - beta * w2) * wd, n * w * wd])


def grad_dot_batch(cphi, sphi, u, r, n, ct, st):
    """Directional derivative of the Poisson kernel at canonical nodes.

    For x = r*e_n and v = ct*e_n + st*e_1, evaluates

        <grad_x P(x, zeta), v>

    at boundary points zeta with zeta_n = cphi and zeta_1 = sphi*u (on
    the product grid, ``cphi``/``sphi`` are the polar cosine and sine and
    ``u`` the azimuthal cosine).  The three arrays broadcast together.
    """
    rho2 = 1.0 - 2.0 * r * cphi + r * r
    xv = r * ct
    xz_v = xv - (cphi * ct + sphi * u * st)
    return (-2.0 * xv * rho2 - n * (1.0 - r * r) * xz_v) \
        / rho2 ** (n / 2.0 + 1.0)


def polar_integrand_batch(sphi, alpha, beta, rho2, n):
    """|<grad P, v>| integrated over the azimuth, at polar nodes.

    At the nodes with polar sines ``sphi``, rho^(n+2) <grad P, v> is
    alpha + beta*u in the azimuthal cosine u, beta >= 0, and ``rho2`` is
    rho^2.  Returns J sphi^(n-2) / rho2^(n/2+1), with J the integral of
    |alpha + beta u| (1-u^2)^((n-4)/2) over [-1, 1] (for n = 2, the sum
    over u = +/-1).  With t = -alpha/beta clipped to [-1, 1],
    J = -2 (alpha V(t) + beta W(t)), two terms >= 0, where
    W(t) = -(1-t^2)^((n-2)/2)/(n-2) and V(t), the weight's integral over
    [0, t], rises from arcsin t (odd n) or t (even n) to m = (n-4)/2 by
    V_m = (t (1-t^2)^m + 2m V_(m-1)) / (2m+1).  The arrays broadcast.
    """
    if n == 2:
        moment = 2.0 * np.maximum(np.abs(alpha), beta)
    else:
        # |alpha| >= beta (no sign change in u) gives t = -sign(alpha),
        # and J = 2 |alpha| V(1); the floor puts alpha = beta = 0 at t = 0
        t = -alpha / np.maximum(np.maximum(np.abs(alpha), beta),
                                 sys.float_info.min)
        s = (1.0 - t) * (1.0 + t)
        v, m = (np.arcsin(t), -0.5) if n % 2 else (t, 0.0)
        while m < (n - 4) / 2.0:
            m += 1.0
            v = (t * s ** m + 2.0 * m * v) / (2.0 * m + 1.0)
        moment = 2.0 * (beta * s ** (n / 2.0 - 1.0) / (n - 2) - alpha * v)
    return moment * sphi ** (n - 2) / rho2 ** (n / 2.0 + 1.0)
