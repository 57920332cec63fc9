"""Exponential Runge-Kutta splitting integrators on interpolation couples.

The package provides the stage-weight machinery (Lagrange bases and phi
functions), diagonalizable model propagators with Lp smoothing bounds,
the fixed-point stepper with its contraction certificate, the discrete
Gronwall chain of a-priori constants, and a convergence-study harness
plus CLI on top.
"""

from .errors import (ContractionError, ExpsplitError,
                     FixedPointDivergenceError, StripViolationError,
                     StudyFailedError, ValidationError)
from .gronwall import (AprioriConstants, apriori_error_bound,
                       derivative_l1_norm, gronwall_bound,
                       taylor_kernel_bound)
from .harness import (ConvergenceReport, StudyPlan, convergence_study,
                      order_prediction, reference_solution, require_passed)
from .integrator import (SchemeSpec, StepPlan, TrajectoryRecord,
                         internal_stages, plan_step, run, step)
from .lagrange import LagrangeData, NodeSet, build_lagrange, default_nodes
from .nonlinearities import (AdvectionNonlinearity, PowerNonlinearity,
                             StripMonitor, WaveCubic, ZeroNonlinearity,
                             estimate_lipschitz)
from .phi import phi, stage_weights_diagonal
from .propagators import (HeatTorusProblem, OUProblem, SmoothingProfile,
                          WaveProblem, gaussian_smoothing_constant, lp_norm,
                          measure_smoothing)

__version__ = "0.1.0"

__all__ = [
    "AdvectionNonlinearity", "AprioriConstants", "ContractionError",
    "ConvergenceReport", "ExpsplitError", "FixedPointDivergenceError",
    "HeatTorusProblem", "LagrangeData", "NodeSet", "OUProblem",
    "PowerNonlinearity", "SchemeSpec", "SmoothingProfile", "StepPlan",
    "StripMonitor", "StripViolationError", "StudyFailedError", "StudyPlan",
    "TrajectoryRecord", "ValidationError", "WaveCubic", "WaveProblem",
    "ZeroNonlinearity", "apriori_error_bound", "build_lagrange",
    "convergence_study", "default_nodes", "derivative_l1_norm",
    "estimate_lipschitz", "gaussian_smoothing_constant", "gronwall_bound",
    "internal_stages", "lp_norm", "measure_smoothing", "order_prediction",
    "phi", "plan_step", "reference_solution", "require_passed", "run",
    "stage_weights_diagonal", "step", "taylor_kernel_bound",
]
