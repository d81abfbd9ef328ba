"""First-order solver for nonconvex programs with nonlinear equality constraints.

The method works on a perturbed Lagrangian whose dual proximal term makes
it strongly concave in each multiplier, giving closed-form multiplier and
perturbation updates inside a single projected-gradient loop.  A damped,
geometrically budgeted step on the auxiliary multiplier keeps all dual
iterates bounded without constraint qualifications or safeguards, which is
what lets the built-in test problems (all of which violate LICQ at their
solutions) converge to KKT points.
"""

from .diagnostics import InvariantViolation, RunHistory, check_trace, write_trace_csv
from .model import (Ball, Box, DimensionMismatch, NonnegativeOrthant, Problem,
                    ProjectionKind, ValidationCheck, ValidationReport, WholeSpace, compare,
                    fd_jacobian, validate)
from .problems import (BUILTIN_PROBLEMS, DEFAULT_START, QcqpSpec, example1,
                       example2, example2_spec, example3, from_qcqp)
from .solver import (FullState, KktReport, PenaltyParams, SolveOutcome, SolveStatus,
                     SolverParams, grad_x, kkt_report, solve, steps)

__version__ = "0.1.0"

__all__ = [
    "Ball", "Box", "BUILTIN_PROBLEMS", "DEFAULT_START", "DimensionMismatch",
    "FullState", "InvariantViolation", "KktReport", "NonnegativeOrthant",
    "PenaltyParams", "Problem", "ProjectionKind", "QcqpSpec", "RunHistory",
    "SolveOutcome", "SolveStatus", "SolverParams", "ValidationCheck", "ValidationReport",
    "WholeSpace", "check_trace", "compare", "example1", "example2", "example2_spec",
    "example3", "fd_jacobian", "from_qcqp", "grad_x", "kkt_report", "solve", "steps",
    "validate", "write_trace_csv",
]
