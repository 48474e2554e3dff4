"""coupledfix: coupled fixed points of bivariate operators by iteration.

A pair (x, y) is a coupled fixed point of F when F(x, y) = x and
F(y, x) = y. This package provides:

- inner-product space primitives on box domains (:mod:`coupledfix.space`),
- bivariate operators with checkable metadata and a registry of built-in
  test problems (:mod:`coupledfix.operators`),
- empirical estimation of per-argument Lipschitz constants, with
  certificate-based refutation of nonexpansiveness and contraction
  conditions (:mod:`coupledfix.contractivity`),
- plain and relaxed double iteration schemes with residual-driven
  stopping and trace-level convergence diagnostics
  (:mod:`coupledfix.iteration`),
- closed-form iterate oracles for the built-in problems
  (:mod:`coupledfix.closed_form`),
- lossless trace serialization and a CLI (:mod:`coupledfix.trace_io`,
  :mod:`coupledfix.cli`).
"""

# Each module's __all__ is its list of public names; the package's own
# __all__ below selects among them.
from .closed_form import *
from .contractivity import *
from .iteration import *
from .operators import *
from .space import *
from .trace_io import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # space
    "Box", "as_vector", "inner", "norm", "convex_combination",
    "convex_identity_defect", "project_box",
    # operators
    "BivariateOperator", "CoupledPair", "NonFiniteEvaluationError",
    "OutputDimensionError", "is_coupled_fixed_point", "make_linear_operator",
    "get_operator", "operator_names", "example_2_1", "example_2_2", "example_4_1",
    # contractivity
    "ContractivityReport", "Witness", "estimate_constants", "classify",
    "draw_quadruples", "analyze_operator", "witness_ratio",
    "report_to_dict", "report_to_json",
    # iteration
    "SchemeConfig", "IterationTrace", "DiagnosticCheck", "DiagnosticReport",
    "picard_double", "krasnoselskij_diagonal", "krasnoselskij_double",
    "run_scheme", "verify_fejer_monotonicity", "verify_residual_decay",
    "SCHEMES", "PICARD_DOUBLE", "KRASNOSELSKIJ_DIAGONAL", "KRASNOSELSKIJ_DOUBLE",
    "CONVERGED", "MAX_ITER_REACHED", "DIVERGED_NONFINITE", "LEFT_DOMAIN",
    # closed_form
    "OracleHandle", "oracle_iterate", "oracle_trace", "oracle_limit",
    "engine_theta", "ORACLE_KINDS", "PICARD_EXAMPLE_2_1",
    "KRASNOSELSKIJ_EXAMPLE_4_1", "DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1",
    # io
    "trace_to_json", "trace_from_json", "trace_to_csv",
]
