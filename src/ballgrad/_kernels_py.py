"""The batched integrand kernels, in numpy.

Every function takes float64 arrays plus parameters and fills ``out``
in place.  Callers reach this module through
:func:`ballgrad.backend.get_backend`.
"""

import numpy as np

BACKEND_NAME = "python"


def psi_integrand_batch(w, r, z, n, out):
    """Integrand of the radial profile integral at the points ``w``.

    (n - beta + n*z*w - beta*w^2) * w^(n-2) /
        ((1+w^2)^(n/2+1) * (1+k^2 w^2)^(n/2-1))

    with k = (1-r)/(1+r) and beta = (n-(n-2)r)/2.
    """
    w = np.asarray(w)
    k = (1.0 - r) / (1.0 + r)
    beta = (n - (n - 2) * r) / 2.0
    w2 = w * w
    num = (n - beta + n * z * w - beta * w2) * w ** (n - 2)
    den = (1.0 + w2) ** (n / 2.0 + 1.0) * (1.0 + k * k * w2) ** (n / 2.0 - 1.0)
    np.divide(num, den, out=out)
    return out


def grad_dot_batch(cphi, sphi, u, r, n, ct, st, out):
    """Directional derivative of the Poisson kernel at canonical nodes.

    For x = r*e_n and v = ct*e_n + st*e_1, evaluates

        <grad_x P(x, zeta), v>

    at boundary points zeta with polar cosine ``cphi`` and azimuthal
    cosine ``u`` (zeta_n = cphi, zeta_1 = sphi*u).  ``u`` is a scalar or
    an array shaped like ``cphi``.
    """
    cphi = np.asarray(cphi)
    sphi = np.asarray(sphi)
    rho2 = 1.0 - 2.0 * r * cphi + r * r
    xv = r * ct
    xz_v = xv - (cphi * ct + sphi * u * st)
    np.copyto(out, -2.0 * xv / rho2 ** (n / 2.0)
              - n * (1.0 - r * r) * xz_v / rho2 ** (n / 2.0 + 1.0))
    return out
