import importlib.util
import pathlib

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


def test_benchmark_tracer_finds_every_binding():
    # perfbench wraps these names where the workloads reach them; a binding
    # dropped from src/ would otherwise fail only the benchmark's own suite.
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for _, module, attr, bindings in tracing.TARGETS:
        for target in (module, *bindings):
            assert hasattr(target, attr), f"{target.__name__}.{attr}"
    for _, cls, attr in tracing.METHODS:
        assert hasattr(cls, attr), f"{cls.__name__}.{attr}"
