"""Where callers find the batched integrand kernels.

The kernels live in ``_kernels_py``: plain numpy functions that take
broadcastable arrays and return their result.  ``kernelint`` and
``poisson_oracle`` look them up through :func:`get_backend` at call
time, so a wrapper installed on that one module (the layer tracer in
``perfbench/``) sees every kernel call, the Monte Carlo oracle's
included.
"""

from . import _kernels_py


def get_backend():
    """Return the kernel module."""
    return _kernels_py


def backend_name():
    return _kernels_py.BACKEND_NAME
