import coupledfix
from coupledfix import closed_form, contractivity, iteration, operators, space, trace_io

PUBLIC_NAMES = [
    "BivariateOperator", "Box", "CONVERGED", "ContractivityReport", "CoupledPair",
    "DIVERGED_NONFINITE", "DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1", "DiagnosticCheck",
    "DiagnosticReport", "IterationTrace", "KRASNOSELSKIJ_DIAGONAL", "KRASNOSELSKIJ_DOUBLE",
    "KRASNOSELSKIJ_EXAMPLE_4_1", "LEFT_DOMAIN", "MAX_ITER_REACHED", "NonFiniteEvaluationError",
    "ORACLE_KINDS", "OracleHandle", "OutputDimensionError", "PICARD_DOUBLE",
    "PICARD_EXAMPLE_2_1", "SCHEMES", "SchemeConfig", "Witness", "__version__",
    "analyze_operator", "as_vector", "classify", "convex_combination", "convex_identity_defect",
    "draw_quadruples", "engine_theta", "estimate_constants", "example_2_1", "example_2_2",
    "example_4_1", "get_operator", "inner", "is_coupled_fixed_point", "krasnoselskij_diagonal",
    "krasnoselskij_double", "make_linear_operator", "norm", "operator_names", "oracle_iterate",
    "oracle_limit", "oracle_trace", "picard_double", "project_box", "report_to_dict",
    "report_to_json", "run_scheme", "trace_from_json", "trace_to_csv", "trace_to_json",
    "verify_fejer_monotonicity", "verify_residual_decay", "witness_ratio",
]


def test_public_names_are_pinned():
    assert sorted(coupledfix.__all__) == PUBLIC_NAMES
    for name in coupledfix.__all__:
        assert hasattr(coupledfix, name), name



def test_every_module_export_is_a_package_attribute():
    for module in (closed_form, contractivity, iteration, operators, space, trace_io):
        for name in module.__all__:
            assert getattr(coupledfix, name) is getattr(module, name), name
