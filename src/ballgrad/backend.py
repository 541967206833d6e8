"""Where callers find the batched integrand kernels.

The kernels live in ``_kernels_py``.  ``kernelint`` and
``poisson_oracle`` look them up through :func:`get_backend` at call
time, so a wrapper installed on that one module (the layer tracer in
``perfbench/``) sees every kernel call.
"""

from . import _kernels_py


def get_backend():
    """Return the kernel module."""
    return _kernels_py


def backend_name():
    return _kernels_py.BACKEND_NAME
