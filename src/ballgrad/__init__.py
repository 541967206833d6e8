"""Sharp pointwise gradient bounds for bounded harmonic functions on the
unit ball: closed-form constants, independent quadrature oracles, and
machine verification of the identities and inequalities behind them.
"""

__version__ = "0.1.0"

from .backend import backend_name
from .closedform4 import (EvalPoint, SharpConstantReport, c_at_zero, c_closed,
                          c_components, disk_constant, envelope_L, envelope_g1,
                          frak_c, gradient_bound, halfspace_constant,
                          psi_closed, sharp_constant_report, v_certificate)
from .exceptions import EvaluationError, QuadratureError, SeriesBranchWarning
from .kernelint import (ParamSet, QuadratureSpec, adaptive_quad, c_numeric,
                        psi_numeric, q_partial_fractions, sphere_area)
from .poisson_oracle import (BestDirection, DirectionalQuery, SphereQuadrature,
                             best_direction, direction_profile,
                             directional_constant, directional_constant_vector,
                             directional_constant_with_error, extremal_check,
                             kernel_mass, poisson_gradient, poisson_kernel)
from .proofcheck import (DERIVATIVE_SUITE, IdentityCase, SupResult,
                         VerificationReport, case_deviation,
                         check_derivative_identity, check_inequality,
                         conjecture_report, identity_cases, inequality_cases,
                         locate_sup, run_identity_suite, run_inequality_suite)
