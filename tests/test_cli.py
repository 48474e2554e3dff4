import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coupledfix import (
    KRASNOSELSKIJ_DIAGONAL,
    SchemeConfig,
    format_float,
    get_operator,
    krasnoselskij_diagonal,
    trace_from_json,
)
from coupledfix.cli import build_parser, main, parse_problem_file


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_flags_converged(self, tmp_path):
        out = tmp_path / "trace.json"
        code = run_cli(
            "run", "--operator", "example_4_1", "--scheme", "krasnoselskij_diagonal",
            "--theta", "0.5", "--x0", "[1]", "--tol", "1e-10", "--out", str(out),
        )
        assert code == 0
        trace = trace_from_json(out.read_text())
        assert trace.status == "converged"
        assert len(trace.iterates) == 2
        assert np.array_equal(trace.final_pair.x, [0.0])

    def test_picard_cycle_exit_code(self, tmp_path):
        out = tmp_path / "trace.json"
        code = run_cli(
            "run", "--operator", "example_4_1", "--scheme", "picard_double",
            "--x0", "[1]", "--y0", "[1]", "--out", str(out),
        )
        assert code == 2
        doc = json.loads(out.read_text())
        assert doc["cycle_detected"] is True

    def test_bad_theta_names_field(self, capsys):
        code = run_cli(
            "run", "--operator", "example_4_1", "--scheme", "krasnoselskij_diagonal",
            "--theta", "1.5", "--x0", "[1]",
        )
        assert code == 1
        assert "theta" in capsys.readouterr().err

    def test_missing_x0_names_field(self, capsys):
        code = run_cli("run", "--operator", "example_4_1")
        assert code == 1
        assert "x0" in capsys.readouterr().err

    def test_missing_y0_for_double_scheme(self, capsys):
        code = run_cli(
            "run", "--operator", "example_2_1", "--scheme", "krasnoselskij_double",
            "--x0", "[1]",
        )
        assert code == 1
        assert "y0" in capsys.readouterr().err

    def test_unknown_operator(self, capsys):
        code = run_cli("run", "--operator", "nope", "--x0", "[1]")
        assert code == 1
        assert "operator" in capsys.readouterr().err

    def test_missing_operator_names_field(self, capsys):
        assert run_cli("run", "--x0", "[1]") == 1
        assert capsys.readouterr().err.startswith("error: operator: required")

    def test_json_round_trip_matches_library(self, tmp_path):
        out = tmp_path / "trace.json"
        code = run_cli(
            "run", "--operator", "example_4_1", "--scheme", "krasnoselskij_diagonal",
            "--theta", "0.3", "--x0", "[0.7]", "--tol", "1e-9", "--max-iter", "500",
            "--out", str(out),
        )
        assert code == 0
        from_cli = trace_from_json(out.read_text())
        direct = krasnoselskij_diagonal(
            get_operator("example_4_1"),
            [0.7],
            SchemeConfig(KRASNOSELSKIJ_DIAGONAL, theta=0.3, tol=1e-9, max_iter=500),
        )
        assert from_cli == direct

    def test_csv_output(self, tmp_path):
        out = tmp_path / "trace.csv"
        code = run_cli(
            "run", "--operator", "example_4_1", "--scheme", "krasnoselskij_diagonal",
            "--theta", "0.5", "--x0", "[1]", "--format", "csv", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,x0,y0,residual,distance_to_target"
        assert len(lines) == 3

    def test_stdout_default(self, capsys):
        code = run_cli(
            "run", "--operator", "example_4_1", "--scheme", "krasnoselskij_diagonal",
            "--theta", "0.5", "--x0", "[1]",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == "converged"

    def test_target_records_distances(self, capsys):
        code = run_cli(
            "run", "--operator", "example_4_1", "--scheme", "krasnoselskij_diagonal",
            "--theta", "0.25", "--x0", "[1]", "--target", "[0]",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["distances"] is not None

    def test_env_var_overrides_default_tol(self, capsys, monkeypatch):
        # A loose default tolerance makes the first iterate already pass.
        monkeypatch.setenv("COUPLEDFIX_DEFAULT_TOL", "3.0")
        code = run_cli(
            "run", "--operator", "example_4_1", "--scheme", "krasnoselskij_diagonal",
            "--theta", "0.25", "--x0", "[1]",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tol"] == 3.0
        assert len(doc["iterates"]) == 1

    def test_env_var_must_be_numeric(self, capsys, monkeypatch):
        monkeypatch.setenv("COUPLEDFIX_DEFAULT_TOL", "loose")
        code = run_cli(
            "run", "--operator", "example_4_1", "--scheme", "krasnoselskij_diagonal",
            "--theta", "0.25", "--x0", "[1]",
        )
        assert code == 1
        assert "COUPLEDFIX_DEFAULT_TOL" in capsys.readouterr().err


class TestProblemFiles:
    def test_parse_types(self, tmp_path):
        p = tmp_path / "problem.txt"
        p.write_text(
            """
            # a comment line
            operator = example_2_1
            scheme = krasnoselskij_double
            theta = 0.5          # trailing comment
            tol = 1e-8
            max_iter = 250
            x0 = [1]
            y0 = [0]
            guard_domain = false
            """
        )
        values = parse_problem_file(str(p))
        assert values["operator"] == "example_2_1"
        assert values["theta"] == 0.5
        assert values["max_iter"] == 250
        assert values["x0"] == [1]
        assert values["guard_domain"] is False

    def test_run_from_file(self, tmp_path, capsys):
        p = tmp_path / "problem.txt"
        p.write_text(
            "operator = example_2_1\nscheme = krasnoselskij_double\n"
            "theta = 0.5\ntol = 1e-10\nmax_iter = 300\nx0 = [1]\ny0 = [0]\n"
        )
        code = run_cli("run", "--problem", str(p))
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # The skew map keeps x - y fixed, so the limit is (0.5, -0.5).
        assert doc["iterates"][-1]["x"][0] == pytest.approx(0.5, abs=1e-9)

    def test_flag_overrides_file(self, tmp_path, capsys):
        p = tmp_path / "problem.txt"
        p.write_text(
            "operator = example_4_1\nscheme = krasnoselskij_diagonal\n"
            "theta = 0.9\nx0 = [1]\n"
        )
        code = run_cli("run", "--problem", str(p), "--theta", "0.5")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["theta"] == 0.5
        assert len(doc["iterates"]) == 2

    def test_linear_operator_from_file(self, tmp_path, capsys):
        p = tmp_path / "problem.txt"
        p.write_text(
            """
            operator = linear
            a_matrix = [[0.2, 0], [0, 0.1]]
            b_matrix = [[0.3, 0], [0, 0.4]]
            shift = [1, 1]
            lower = [-10, -10]
            upper = [10, 10]
            scheme = krasnoselskij_diagonal
            theta = 0.5
            x0 = [0, 0]
            tol = 1e-11
            max_iter = 2000
            """
        )
        code = run_cli("run", "--problem", str(p))
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        final = doc["iterates"][-1]
        assert final["x"] == pytest.approx([2.0, 2.0], abs=1e-9)

    def test_unknown_key_rejected(self, tmp_path, capsys):
        p = tmp_path / "problem.txt"
        p.write_text("operatr = example_2_1\n")
        assert run_cli("run", "--problem", str(p)) == 1
        assert "operatr" in capsys.readouterr().err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        p = tmp_path / "problem.txt"
        p.write_text("just some words\n")
        assert run_cli("run", "--problem", str(p)) == 1
        assert "key = value" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert run_cli("run", "--problem", "/does/not/exist.txt") == 1
        assert "problem" in capsys.readouterr().err

    def test_file_not_utf8(self, tmp_path, capsys):
        p = tmp_path / "problem.txt"
        p.write_bytes(b"\xff\xfe = 1\n")
        assert run_cli("run", "--problem", str(p)) == 1
        assert capsys.readouterr().err.startswith("error: problem: cannot read")

    def test_non_numeric_theta_named(self, tmp_path, capsys):
        p = tmp_path / "problem.txt"
        p.write_text("operator = example_4_1\ntheta = fast\nx0 = [1]\n")
        assert run_cli("run", "--problem", str(p)) == 1
        assert "theta" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "matrices, fault",
        [("a_matrix = [[0.25]]\n", r"^error: b_matrix: required"),
         ("a_matrix = [[0.25, 0.5]]\nb_matrix = [[0.25]]\n", r"^error: operator: a_matrix .*square")],
    )
    def test_linear_file_faults_named(self, tmp_path, capsys, matrices, fault):
        p = tmp_path / "problem.txt"
        p.write_text(f"operator = linear\n{matrices}shift = [0.0]\nlower = [-1]\nupper = [1]\nx0 = [0]\n")
        assert run_cli("run", "--problem", str(p)) == 1
        assert re.match(fault, capsys.readouterr().err)


class TestSpecLoader:
    def test_malformed_flag_literal_names_field(self, capsys):
        code = run_cli("run", "--operator", "example_4_1", "--x0", "[1")
        assert code == 1
        err = capsys.readouterr().err
        assert "x0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["maybe", "2"])
    def test_guard_domain_must_be_bool_or_auto(self, tmp_path, capsys, value):
        p = tmp_path / "problem.txt"
        p.write_text(f"operator = example_4_1\nx0 = [1]\nguard_domain = {value}\n")
        assert run_cli("run", "--problem", str(p)) == 1
        assert "guard_domain" in capsys.readouterr().err

    def test_guard_flag_auto_overrides_file(self, tmp_path, capsys):
        p = tmp_path / "problem.txt"
        p.write_text("operator = example_4_1\nx0 = [1]\nguard_domain = true\n")
        assert run_cli("run", "--problem", str(p), "--guard-domain", "auto") == 0
        # "auto" means False, which overrides the file's true; a self-map then runs unclamped.
        assert json.loads(capsys.readouterr().out)["guard_domain"] is False

    def test_target_flag_overrides_file(self, tmp_path, capsys):
        p = tmp_path / "problem.txt"
        p.write_text("operator = example_4_1\nx0 = [1]\nreference_fixed_point = [0.5]\n")
        assert run_cli("run", "--problem", str(p), "--target", "[0]") == 0
        assert json.loads(capsys.readouterr().out)["distances"][0] == 1.0

    def test_sweep_ignores_single_theta(self, capsys):
        argv = ("sweep", "--operator", "example_4_1", "--x0", "[1]", "--thetas", "0.5")
        assert run_cli(*argv) == 0
        without = capsys.readouterr().out
        assert run_cli(*argv, "--theta", "0.9") == 0
        assert capsys.readouterr().out == without


class TestScalarRules:
    # true, false, auto and none are words only for guard_domain, and a
    # scalar must be finite; each case exits 1 naming its key.
    @pytest.mark.parametrize(
        "command, line, key",
        [
            ("run", "tol = true", "tol"),
            ("run", "max_iter = true", "max_iter"),
            ("run", "theta = auto", "theta"),
            ("run", "seed = false", "seed"),
            ("run", "x0 = true", "x0"),
            ("run", "reference_fixed_point = none", "reference_fixed_point"),
            ("run", "tol = inf", "tol"),
            ("run", "theta = nan", "theta"),
            ("run", "max_iter = inf", "max_iter"),
            ("sweep", "max_iter = inf", "max_iter"),
            ("sweep", "max_iter = 1e999", "max_iter"),
            ("analyze", "samples = inf", "samples"),
            ("analyze", "seed = true", "seed"),
            ("run", "guard_domain = [1]", "guard_domain"),
            ("run", "guard_domain = [0]", "guard_domain"),
            pytest.param("run", "theta = 1" + "0" * 400, "theta", id="run-theta-int-past-float"),
            pytest.param("run", "tol = 1" + "0" * 400, "tol", id="run-tol-int-past-float"),
            pytest.param("run", "x0 = [1" + "0" * 400 + "]", "x0", id="run-x0-int-past-float"),
            ("run", "x0 = [1e999]", "x0"),
            ("run", "max_iter = 2.7", "max_iter"),
            ("analyze", "samples = 20.9", "samples"),
            ("run", "seed = 1.5", "seed"),
            ("run", "thetas = abc", "thetas"),
            ("sweep", "thetas = ,", "thetas"),
        ],
    )
    def test_problem_file_value(self, tmp_path, capsys, command, line, key):
        p = tmp_path / "problem.txt"
        p.write_text(f"operator = example_4_1\nx0 = [1]\nthetas = 0.5\n{line}\n")
        assert run_cli(command, "--problem", str(p)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value", [("--x0", "true"), ("--target", "false"), ("--tol", "inf"), ("--tol", "nan")]
    )
    def test_flag_value(self, capsys, flag, value):
        argv = ("run", "--operator", "example_4_1", "--x0", "[1]", flag, value)
        assert run_cli(*argv) == 1
        key = {"--target": "reference_fixed_point"}.get(flag, flag[2:])
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["a_matrix = true", "lower = abc"])
    def test_linear_operator_word(self, tmp_path, capsys, line):
        p = tmp_path / "problem.txt"
        p.write_text(
            "operator = linear\na_matrix = [[0.5]]\nb_matrix = [[0.25]]\nshift = [0]\n"
            f"lower = [-1]\nupper = [1]\nx0 = [0]\n{line}\n"
        )
        assert run_cli("run", "--problem", str(p)) == 1
        assert capsys.readouterr().err.startswith(f"error: {line.split()[0]}: expected a number")

    def test_guard_domain_words_stay(self, tmp_path):
        p = tmp_path / "problem.txt"
        for word, parsed in (("true", True), ("False", False), ("auto", False), ("NONE", False)):
            p.write_text(f"guard_domain = {word}\n")
            assert parse_problem_file(str(p)) == {"guard_domain": parsed}

    def test_box_too_wide_to_sample(self, tmp_path, capsys):
        p = tmp_path / "problem.txt"
        p.write_text(
            "operator = linear\na_matrix = [[0.5]]\nb_matrix = [[0.25]]\nshift = [0]\n"
            "lower = [-1.7976931348623157e308]\nupper = [1.7976931348623157e308]\n"
        )
        assert run_cli("analyze", "--problem", str(p), "--samples", "10") == 1
        assert "width" in capsys.readouterr().err


class TestOneGrammar:
    # Each row is (command, key, text, expected exit code). The value is
    # given once as a problem-file line, once as a flag and, for analyze,
    # once as a positional; every form must print and exit the same.
    @pytest.mark.parametrize(
        "command, key, text, code",
        [
            ("run", "guard_domain", "none", 0),
            ("run", "guard_domain", "TRUE", 0),
            ("run", "scheme", "foo", 1),
            ("run", "format", "xml", 1),
            ("run", "theta", "abc", 1),
            ("run", "theta", "1e999", 1),
            ("run", "max_iter", "2.5", 1),
            ("run", "seed", "1.0", 0),
            ("analyze", "seed", "1.0", 0),
            ("analyze", "samples", "1e3", 0),
        ],
    )
    def test_flag_file_and_positional_agree(self, tmp_path, capsys, command, key, text, code):
        base = {"run": {"operator": "example_4_1", "x0": "[1]"},
                "analyze": {"operator": "example_4_1", "samples": "50", "seed": "0"}}[command]
        flag = f"--{key.replace('_', '-')}"
        p = tmp_path / "problem.txt"
        p.write_text(f"{key} = {text}\n")
        flags = [arg for k, v in base.items() if k != key for arg in (f"--{k}", v)]
        forms = [[command, "--problem", str(p), *flags], [command, *flags, flag, text]]
        if command == "analyze":
            forms.append([command, *{**base, key: text}.values()])
        seen = []
        for argv in forms:
            exit_code = run_cli(*argv)
            out, err = capsys.readouterr()
            seen.append((exit_code, hashlib.sha256(out.encode()).hexdigest(), err))
        assert seen[0][0] == code
        assert seen == [seen[0]] * len(forms)
        if code == 1:
            assert seen[0][2].startswith(f"error: {key}")

    @pytest.mark.parametrize("value", ["inf", "nan", "1e999"])
    def test_default_tol_env_must_be_finite(self, capsys, monkeypatch, value):
        monkeypatch.setenv("COUPLEDFIX_DEFAULT_TOL", value)
        assert run_cli("run", "--operator", "example_4_1", "--x0", "[1]") == 1
        assert "COUPLEDFIX_DEFAULT_TOL" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [(), ("run", "--operator", "example_4_1", "--x0", "[1]", "--bogus", "1")]
    )
    def test_usage_error_exits_1(self, capsys, argv):
        assert run_cli(*argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_help_names_the_words(self, capsys):
        with pytest.raises(SystemExit) as stop:
            run_cli("run", "--help")
        assert stop.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for words in ("picard_double, krasnoselskij_diagonal, krasnoselskij_double", "json or csv",
                      "true, false or auto"):
            assert words in text


finite_doubles = st.floats(allow_nan=False, allow_infinity=False)
number_vectors = st.lists(finite_doubles, min_size=1, max_size=6)
number_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda cols: st.lists(st.lists(finite_doubles, min_size=cols, max_size=cols), min_size=1, max_size=4)
)


def float_hexes(value):
    return [float_hexes(v) for v in value] if isinstance(value, list) else float(value).hex()


def trace_spelling(value):
    # How a trace writes numbers: format_float per element, so -0.0 is -0.
    if isinstance(value, list):
        return "[" + ", ".join(map(trace_spelling, value)) + "]"
    return format_float(value)


class TestValueGrammar:
    @pytest.mark.parametrize(
        "literal",
        [
            "[1j]", '["1"]', "[true]", "[null]", '[{"a": 1}]', "[NaN]", "[-Infinity]",
            "[.5]", "[1.]", "[+1]", "[1, 2,]", "[(1, 2)]", "[True]", "['1']", "[None]",
        ],
    )
    def test_only_json_numbers_in_arrays(self, capsys, literal):
        assert run_cli("run", "--operator", "example_4_1", "--x0", literal) == 1
        err = capsys.readouterr().err
        assert f"x0: malformed array literal {literal!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, text, message",
        [("--seed", "{}", "expected a number, got {!r}"),
         ("--x0", "{}", "expected a number or an array literal, got {!r}"),
         ("--x0", "[{}]", "malformed array literal {!r}")],
    )
    def test_integer_past_the_digit_limit(self, capsys, flag, text, message):
        # The trace reader's decoder takes such an integer as a token; every CLI message stays.
        text = text.format("9" * 5001)
        assert run_cli("run", "--operator", "example_4_1", "--x0", "[1]", flag, text) == 1
        assert capsys.readouterr().err == f"error: {flag[2:]}: {message.format(text)}\n"

    @pytest.mark.parametrize("text", [".5", "5.", "+1", "1_000", "\u0661"])
    @pytest.mark.parametrize(
        "key, argv",
        [
            ("theta", ("run", "--operator", "example_4_1", "--x0", "[1]", "--theta")),
            ("seed", ("run", "--operator", "example_4_1", "--x0", "[1]", "--seed")),
            ("samples", ("analyze", "example_4_1")),
        ],
        ids=["theta", "seed", "samples"],
    )
    def test_only_json_numbers_alone(self, capsys, key, argv, text):
        # Python reads each of these as a number; JSON, and so a trace, does not.
        assert run_cli(*argv, text, *(["0"] if key == "samples" else [])) == 1
        assert capsys.readouterr().err == f"error: {key}: expected a number, got {text!r}\n"

    def test_nesting_too_deep_to_read(self, capsys):
        literal = "[" * 100_000 + "]" * 100_000
        assert run_cli("run", "--operator", "example_4_1", "--x0", literal) == 1
        assert capsys.readouterr().err.startswith("error: x0: malformed array literal '[[[")

    def test_ragged_array_names_its_key(self, capsys):
        assert run_cli("run", "--operator", "example_4_1", "--x0", "[[1, 2], [3]]") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: x0 is not an array of reals: setting an array element with a sequence")
        assert "Traceback" not in err

    def test_ragged_matrix_in_file_names_its_key(self, tmp_path, capsys):
        p = tmp_path / "problem.txt"
        p.write_text(
            "operator = linear\na_matrix = [[0.5, 1], [0.25]]\nb_matrix = [[0.25]]\n"
            "shift = [0.0]\nlower = [-1]\nupper = [1]\nx0 = [0]\n"
        )
        assert run_cli("run", "--problem", str(p)) == 1
        assert capsys.readouterr().err.startswith("error: operator: a_matrix is not an array of reals: ")

    def test_non_number_matrix_entry_in_file(self, tmp_path, capsys):
        p = tmp_path / "problem.txt"
        p.write_text(
            'operator = linear\na_matrix = [[0.5, "a"]]\nb_matrix = [[0.25]]\n'
            "shift = [0.0]\nlower = [-1]\nupper = [1]\nx0 = [0]\n"
        )
        assert run_cli("run", "--problem", str(p)) == 1
        err = capsys.readouterr().err
        assert "a_matrix" in err
        assert "Traceback" not in err

    @settings(deadline=None, max_examples=200)
    @given(number_vectors, number_matrices)
    @example([-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308], [[2.2250738585072014e-308]])
    def test_repr_and_json_round_trip_exactly(self, tmp_path_factory, vector, matrix):
        p = tmp_path_factory.mktemp("grammar") / "problem.txt"
        for write in (repr, json.dumps, trace_spelling):
            p.write_text(f"x0 = {write(vector)}\na_matrix = {write(matrix)}\n")
            values = parse_problem_file(str(p))
            assert float_hexes(values["x0"]) == float_hexes(vector)
            assert float_hexes(values["a_matrix"]) == float_hexes(matrix)
        p.write_text(f"x0 = {format_float(vector[0])}\n")
        assert float_hexes(parse_problem_file(str(p))["x0"]) == float_hexes(vector[0])


class TestAnalyze:
    def test_positional_form(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli("analyze", "example_2_1", "10000", "42", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert abs(doc["a_hat"] - 1.0 / 3.0) <= 1e-9
        assert abs(doc["b_hat"] - 2.0 / 3.0) <= 1e-9
        assert "refuted_nonexpansive" in doc["classification"]
        assert "refuted_contraction" in doc["classification"]

    def test_averaging_map_candidate(self, capsys):
        code = run_cli("analyze", "example_4_1", "2000", "42")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "nonexpansive_candidate" in doc["classification"]

    def test_quadratic_map_refuted_with_witness(self, capsys):
        code = run_cli("analyze", "example_2_2", "5000", "42")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert "refuted_weakly_nonexpansive" in doc["classification"]
        kinds = {w["kind"] for w in doc["witnesses"]}
        assert "weakly_nonexpansive_violation" in kinds

    def test_unknown_operator(self, capsys):
        assert run_cli("analyze", "missing_op", "100", "0") == 1
        assert "operator" in capsys.readouterr().err

    def test_flag_overrides_positional(self, capsys):
        code = run_cli("analyze", "example_4_1", "100", "1", "--samples", "50")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        # 50 per axis constant, twice, plus 50 general quadruples.
        assert doc["samples_used"] == 150


class TestSettingsOwner:
    # SchemeConfig owns the default tolerance and run_scheme the y0 rule; the
    # CLI reports their errors after its own.
    def test_default_tol_is_the_config_default(self, capsys, monkeypatch):
        monkeypatch.delenv("COUPLEDFIX_DEFAULT_TOL", raising=False)
        assert run_cli("run", "--operator", "example_4_1", "--x0", "[1]") == 0
        assert json.loads(capsys.readouterr().out)["tol"] == SchemeConfig.tol

    def test_env_not_read_when_tol_given(self, capsys, monkeypatch):
        monkeypatch.setenv("COUPLEDFIX_DEFAULT_TOL", "loose")
        assert run_cli("run", "--operator", "example_4_1", "--x0", "[1]", "--tol", "1e-9") == 0
        assert json.loads(capsys.readouterr().out)["tol"] == 1e-9

    @pytest.mark.parametrize(
        "argv, err",
        [
            (("run", "--operator", "example_2_1", "--scheme", "krasnoselskij_double", "--x0", "[1]"),
             "error: y0: required for scheme krasnoselskij_double\n"),
            (("run", "--operator", "example_2_1", "--scheme", "picard_double", "--x0", "[1]",
              "--format", "xml"),
             "error: format: must be json or csv, got 'xml'\n"),
            (("sweep", "--operator", "example_4_1", "--scheme", "picard_double", "--x0", "[1]",
              "--thetas", "0.5"),
             "error: scheme: sweep varies theta, which picard_double ignores\n"),
        ],
    )
    def test_first_error(self, capsys, argv, err):
        assert run_cli(*argv) == 1
        assert capsys.readouterr() == ("", err)


class TestSweep:
    def test_minimum_at_half(self, capsys):
        thetas = ",".join(str(t / 10) for t in range(1, 10))
        code = run_cli(
            "sweep", "--operator", "example_4_1", "--scheme", "krasnoselskij_diagonal",
            "--x0", "[1]", "--thetas", thetas, "--tol", "1e-10", "--max-iter", "5000",
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "theta,iterations,final_residual,status"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 9
        iters = {float(r[0]): int(r[1]) for r in rows}
        assert min(iters, key=iters.get) == 0.5
        assert iters[0.5] == 1
        assert all(r[3] == "converged" for r in rows)
        # Rows come out ordered by theta.
        assert [float(r[0]) for r in rows] == sorted(iters)

    def test_single_theta_matches_run(self, capsys):
        code = run_cli(
            "sweep", "--operator", "example_4_1", "--scheme", "krasnoselskij_diagonal",
            "--x0", "[1]", "--thetas", "0.5", "--tol", "1e-10",
        )
        assert code == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 1
        theta, iters, final_res, status = rows[0].split(",")
        direct = krasnoselskij_diagonal(
            get_operator("example_4_1"), [1.0],
            SchemeConfig(KRASNOSELSKIJ_DIAGONAL, theta=0.5, tol=1e-10),
        )
        assert int(iters) == direct.n_steps
        assert float(final_res) == direct.final_residual
        assert status == direct.status

    def test_out_of_range_theta_rejected(self, capsys):
        code = run_cli(
            "sweep", "--operator", "example_4_1", "--x0", "[1]", "--thetas", "0.5,1.5",
        )
        assert code == 1
        assert "thetas" in capsys.readouterr().err

    def test_array_literal_thetas(self, capsys):
        argv = ("sweep", "--operator", "example_4_1", "--x0", "[1]", "--thetas")
        assert run_cli(*argv, "0.3,0.5") == 0
        listed = capsys.readouterr().out
        assert run_cli(*argv, "[0.3,0.5]") == 0
        assert capsys.readouterr().out == listed
        assert run_cli(*argv, "[0.5,1.5]") == 1
        assert capsys.readouterr().err.startswith("error: thetas: ")

    def test_missing_thetas_named(self, capsys):
        assert run_cli("sweep", "--operator", "example_4_1", "--x0", "[1]") == 1
        assert capsys.readouterr().err.startswith("error: thetas: required")

    def test_picard_sweep_rejected(self, capsys):
        code = run_cli(
            "sweep", "--operator", "example_4_1", "--scheme", "picard_double",
            "--x0", "[1]", "--y0", "[1]", "--thetas", "0.5",
        )
        assert code == 1
        assert "scheme" in capsys.readouterr().err

    def test_linear_family_sweep(self, tmp_path, capsys):
        p = tmp_path / "problem.txt"
        d = 10
        rng = np.random.default_rng(14)
        m = rng.standard_normal((d, d))
        a = (m * (0.45 / max(np.linalg.norm(m, 2), np.linalg.norm(m, np.inf)))).tolist()
        p.write_text(
            f"operator = linear\na_matrix = {a}\nb_matrix = {a}\n"
            f"shift = {[0.1] * d}\nlower = {[-5.0] * d}\nupper = {[5.0] * d}\n"
            f"scheme = krasnoselskij_diagonal\nx0 = {[0.0] * d}\n"
            "tol = 1e-10\nmax_iter = 4000\n"
        )
        code = run_cli("sweep", "--problem", str(p), "--thetas", "0.25,0.5,0.75")
        assert code == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 3
        assert all(r.split(",")[3] == "converged" for r in rows)


class TestGuardFlag:
    def test_forced_guard_recorded(self, capsys):
        # The quadratic map is not a self-map: guarding is forced on even
        # when explicitly disabled, and the trace records the resolved flag.
        code = run_cli(
            "run", "--operator", "example_2_2", "--scheme", "krasnoselskij_diagonal",
            "--theta", "0.5", "--x0", "[3]", "--guard-domain", "false", "--max-iter", "40",
        )
        assert code in (0, 2)
        doc = json.loads(capsys.readouterr().out)
        assert doc["guard_domain"] is True

    def test_explicit_guard_on_self_map(self, capsys):
        code = run_cli(
            "run", "--operator", "example_4_1", "--scheme", "krasnoselskij_diagonal",
            "--theta", "0.5", "--x0", "[1]", "--guard-domain", "true",
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["guard_domain"] is True


class TestAnalyzeLinear:
    def test_linear_from_problem_file(self, tmp_path, capsys):
        p = tmp_path / "problem.txt"
        p.write_text(
            "operator = linear\na_matrix = [[0.25]]\nb_matrix = [[0.25]]\n"
            "shift = [0.0]\nlower = [-1]\nupper = [1]\n"
        )
        code = run_cli("analyze", "--problem", str(p), "--samples", "2000", "--seed", "3")
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["a_hat"] == pytest.approx(0.25, abs=1e-12)
        assert "contraction_candidate" in doc["classification"]

    def test_wide_box_without_a_warning(self, tmp_path, capsys):
        # The box's diameter, 4e200 * sqrt(2), is finite, but its square overflows:
        # the suite turns the RuntimeWarning numpy would print into an error.
        p = tmp_path / "problem.txt"
        p.write_text(
            "operator = linear\na_matrix = [[0.5, 0], [0, 0.25]]\nb_matrix = [[0.25, 0], [0, 0.5]]\n"
            "shift = [0, 0]\nlower = [-1e200, -1e200]\nupper = [1e200, 1e200]\n"
        )
        assert run_cli("analyze", "--problem", str(p), "--samples", "50", "--seed", "1") == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert "contraction_candidate" in json.loads(out)["classification"]


class TestOutPath:
    COMMANDS = {
        "run": ("run", "--operator", "example_4_1", "--x0", "[1]"),
        "sweep": ("sweep", "--operator", "example_4_1", "--x0", "[1]", "--thetas", "0.5"),
        "analyze": ("analyze", "example_4_1", "--samples", "10"),
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    @pytest.mark.parametrize("where", ["missing_dir", "directory"])
    def test_unwritable_out_is_an_error(self, tmp_path, capsys, command, where):
        out = tmp_path / "missing" / "t.json" if where == "missing_dir" else tmp_path
        assert run_cli(*self.COMMANDS[command], "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: out: cannot write {str(out)!r}: ")
        assert "Traceback" not in err


class TestListOperators:
    def test_lists_registry_and_linear(self, capsys):
        assert run_cli("list-operators") == 0
        out = capsys.readouterr().out
        for name in ("example_2_1", "example_2_2", "example_4_1", "linear"):
            assert name in out


class TestReusedParser:
    # One parser serves every command in a process; no command's values reach the next.
    def test_one_parser_per_process(self):
        assert build_parser() is build_parser()

    def test_theta_not_carried_over(self, capsys):
        argv = ["run", "--operator", "example_4_1", "--x0", "[1]", "--max-iter", "1"]
        run_cli(*argv, "--theta", "0.3")
        assert json.loads(capsys.readouterr().out)["theta"] == 0.3
        run_cli(*argv)
        assert json.loads(capsys.readouterr().out)["theta"] == 0.5

    def test_thetas_still_required(self, capsys):
        argv = ["sweep", "--operator", "example_4_1", "--x0", "[1]"]
        assert run_cli(*argv, "--thetas", "0.3,0.6") == 0
        capsys.readouterr()
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith("error: thetas: required")

    def test_problem_file_read_after_positionals(self, capsys, tmp_path):
        problem = tmp_path / "p.txt"
        problem.write_text("operator = example_4_1\nsamples = 50\nseed = 3\n")
        assert run_cli("analyze", "example_2_1", "100", "1") == 0
        first = json.loads(capsys.readouterr().out)
        assert (first["operator"], first["samples_used"], first["seed"]) == ("example_2_1", 300, 1)
        assert run_cli("analyze", "--problem", str(problem)) == 0
        second = json.loads(capsys.readouterr().out)
        assert (second["operator"], second["samples_used"], second["seed"]) == ("example_4_1", 150, 3)


class TestConsoleEntryPoint:
    def test_module_invocation(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "coupledfix.cli", "list-operators"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "example_4_1" in proc.stdout


# ---------------------------------------------------------------- pinned output

PINNED_FILES = {
    "linear_2": (
        "operator = linear\n"
        "a_matrix = [[0.25, 0.125], [0, 0.25]]\nb_matrix = [[0.125, 0], [0.0625, 0.125]]\n"
        "shift = [0.5, -0.25]\nlower = [-2, -2]\nupper = [2, 2]\n"
        "scheme = krasnoselskij_double\ntheta = 0.3\ntol = 1e-12\nx0 = [1, -1]\ny0 = [0.5, 0.5]\n"
    ),
    "point_box": (
        "operator = linear\na_matrix = [[0.5]]\nb_matrix = [[0.25]]\n"
        "shift = [0]\nlower = [0]\nupper = [0]\nx0 = [0]\n"
    ),
}

RUN_41 = ("run", "--operator", "example_4_1")

# name -> argv; "{file}" stands for the path of PINNED_FILES[file].
PINNED_COMMANDS = {
    "run_json": (*RUN_41, "--scheme", "krasnoselskij_diagonal", "--theta", "0.5", "--x0", "[1]", "--tol", "1e-10"),
    "run_csv_double_target": (
        "run", "--operator", "example_2_1", "--scheme", "krasnoselskij_double", "--theta", "0.3",
        "--x0", "[0.1]", "--y0", "[0.9]", "--target", "[0]", "--format", "csv",
    ),
    "run_picard_cycle": (*RUN_41, "--scheme", "picard_double", "--x0", "[1]", "--y0", "[1]"),
    "run_guarded": ("run", "--operator", "example_2_2", "--x0", "[3]", "--guard-domain", "true", "--max-iter", "40"),
    "run_linear_file": ("run", "--problem", "{linear_2}", "--target", "[0.5, 0.5]"),
    "sweep_flags": (
        "sweep", "--operator", "example_4_1", "--x0", "[1]", "--thetas", "0.1,0.3,0.5,0.7,0.9",
    ),
    "sweep_linear_file": ("sweep", "--problem", "{linear_2}", "--thetas", "0.25,0.75"),
    "analyze_positional": ("analyze", "example_2_1", "400", "42"),
    "analyze_linear_file": ("analyze", "--problem", "{linear_2}", "--samples", "50", "--seed", "3"),
    "list_operators": ("list-operators",),
    # Errors raised by the library.
    "error_config_theta": (*RUN_41, "--theta", "1.5", "--x0", "[1]"),
    "error_config_tol": (*RUN_41, "--tol", "-1", "--x0", "[1]"),
    "error_run_outside_domain": (*RUN_41, "--x0", "[5]"),
    "error_run_dimension": (*RUN_41, "--x0", "[0.5, 0.5]"),
    "error_run_target_dimension": (*RUN_41, "--x0", "[0.5]", "--target", "[0, 0]"),
    "error_sweep_outside_domain": ("sweep", "--operator", "example_4_1", "--x0", "[5]", "--thetas", "0.5"),
    "error_analyze_samples": ("analyze", "example_2_1", "0"),
    "error_analyze_point_box": ("analyze", "--problem", "{point_box}", "--samples", "10"),
    # Errors raised by the CLI itself.
    "error_unknown_operator": ("run", "--operator", "example_9_9", "--x0", "[1]"),
    "error_malformed_literal": (*RUN_41, "--x0", "[1"),
    "error_missing_y0": ("run", "--operator", "example_2_1", "--scheme", "picard_double", "--x0", "[1]"),
    "error_sweep_picard": (
        "sweep", "--operator", "example_4_1", "--scheme", "picard_double", "--x0", "[1]", "--y0", "[1]",
        "--thetas", "0.5",
    ),
    "error_sweep_thetas": ("sweep", "--operator", "example_4_1", "--x0", "[1]", "--thetas", "0.5,1.5"),
}

# name -> (exit code, first 16 hex digits of sha256(stdout), stderr), recorded
# before the code they pin was simplified.
PINNED_OUTPUT = {
    "analyze_linear_file": (0, "034052265ea7b969", ''),
    "analyze_positional": (0, "63a5d1aa1972e371", ''),
    "error_analyze_point_box": (1, "e3b0c44298fc1c14", "error: operator 'linear' has a single-point domain: cannot vary arguments\n"),
    "error_analyze_samples": (1, "e3b0c44298fc1c14", 'error: n_samples must be >= 1, got 0\n'),
    "error_config_theta": (1, "e3b0c44298fc1c14", 'error: theta must lie in (0, 1), got 1.5\n'),
    "error_config_tol": (1, "e3b0c44298fc1c14", 'error: tol must be positive, got -1.0\n'),
    "error_malformed_literal": (1, "e3b0c44298fc1c14", "error: x0: malformed array literal '[1'\n"),
    "error_missing_y0": (1, "e3b0c44298fc1c14", 'error: y0: required for scheme picard_double\n'),
    "error_run_dimension": (1, "e3b0c44298fc1c14", 'error: initial point has dimension 2, operator expects 1\n'),
    "error_run_outside_domain": (1, "e3b0c44298fc1c14", 'error: x0 = [5.0] lies outside the operator domain\n'),
    "error_run_target_dimension": (1, "e3b0c44298fc1c14", 'error: target has dimension 2, operator expects 1\n'),
    "error_sweep_outside_domain": (1, "e3b0c44298fc1c14", 'error: x0 = [5.0] lies outside the operator domain\n'),
    "error_sweep_picard": (1, "e3b0c44298fc1c14", 'error: scheme: sweep varies theta, which picard_double ignores\n'),
    "error_sweep_thetas": (1, "e3b0c44298fc1c14", 'error: thetas: every weight must lie in (0, 1), got 1.5\n'),
    "error_unknown_operator": (1, "e3b0c44298fc1c14", "error: operator: unknown operator 'example_9_9'; registered names: example_2_1, example_2_2, example_4_1\n"),
    "list_operators": (0, "a16d5da8caba573c", ''),
    "run_csv_double_target": (0, "c0032097a7950452", ''),
    "run_guarded": (0, "895194e6385dad43", ''),
    "run_json": (0, "7ab090988ba68467", ''),
    "run_linear_file": (0, "7b6639ea15d19dae", ''),
    "run_picard_cycle": (2, "2129abfc19931734", ''),
    "sweep_flags": (0, "3677227fd6c93d5d", ''),
    "sweep_linear_file": (0, "8badcd50bcd408f5", ''),
}


@pytest.mark.parametrize("name", sorted(PINNED_OUTPUT))
def test_pinned_cli_output(name, tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("COUPLEDFIX_DEFAULT_TOL", raising=False)
    paths = {}
    for key, text in PINNED_FILES.items():
        paths[key] = tmp_path / f"{key}.txt"
        paths[key].write_text(text)
    code = run_cli(*(arg.format(**paths) for arg in PINNED_COMMANDS[name]))
    out, err = capsys.readouterr()
    assert (code, hashlib.sha256(out.encode()).hexdigest()[:16], err) == PINNED_OUTPUT[name]
