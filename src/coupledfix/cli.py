"""Command-line front-end: run iterations, analyze operators, sweep weights.

Subcommands:

    run             execute one iteration scheme and write the trace
    analyze         estimate contractivity constants and classify
    sweep           run one scheme across a list of relaxation weights
    list-operators  show the registered operators

Examples:

    coupledfix run --operator example_4_1 --scheme krasnoselskij_diagonal \\
        --theta 0.5 --x0 [1] --tol 1e-10 --out trace.json
    coupledfix run --problem problem.txt --format csv
    coupledfix analyze example_2_1 10000 42 --out report.json
    coupledfix sweep --operator example_4_1 --x0 [1] \\
        --thetas 0.1,0.3,0.5,0.7,0.9
    coupledfix list-operators

Problem files are flat ``key = value`` lines; blank lines and ``#``
comments are ignored. A value that starts with ``[`` is a JSON array of
JSON numbers, nested for matrices: ``x0 = [1, 0.5]``,
``a_matrix = [[0.2, 0], [0, 0.1]]`` or ``shift = [1e-05, -0.0]``. Anything
else there is a malformed array literal, including the Python spellings
``[.5]``, ``[1.]``, ``[+1]``, ``[1, 2,]``, ``[(1, 2)]``, ``[True]``,
``['1']`` and ``[None]``. Recognized keys: operator, scheme, theta, tol,
max_iter, seed, guard_domain, x0, y0, reference_fixed_point, out, format,
samples, thetas, and, for inline linear operators (operator = linear):
a_matrix, b_matrix, shift, lower, upper. The values of operator, scheme,
out and format are kept as written.

Flag values use the same value grammar as the file (``--x0 [1, 0.5]``,
``--guard-domain auto``). Precedence: a flag given on the command line
wins over an ``analyze`` positional, which wins over the problem file.

Exit codes for ``run``: 0 converged, 2 max_iter_reached (including
detected cycles), 3 diverged or left the domain, 1 malformed input. The
default residual tolerance is 1e-10, overridable through the
COUPLEDFIX_DEFAULT_TOL environment variable.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import iteration
from .contractivity import analyze_operator, report_to_json
from .iteration import SchemeConfig, run_scheme
from .operators import get_operator, make_linear_operator, operator_names
from .space import Box
from .trace_io import format_float, trace_to_csv, trace_to_json

__all__ = ["main", "parse_problem_file", "DEFAULT_TOL_ENV"]

DEFAULT_TOL_ENV = "COUPLEDFIX_DEFAULT_TOL"

_EXIT_BY_STATUS = {
    iteration.CONVERGED: 0,
    iteration.MAX_ITER_REACHED: 2,
    iteration.DIVERGED_NONFINITE: 3,
    iteration.LEFT_DOMAIN: 3,
}

_DOUBLE_SCHEMES = (iteration.PICARD_DOUBLE, iteration.KRASNOSELSKIJ_DOUBLE)

_PROBLEM_KEYS = {
    "operator", "scheme", "theta", "tol", "max_iter", "seed", "guard_domain",
    "x0", "y0", "reference_fixed_point", "out", "format", "samples", "thetas",
    "a_matrix", "b_matrix", "shift", "lower", "upper",
}
_TEXT_KEYS = {"operator", "scheme", "out", "format"}


class CliError(Exception):
    """Bad input; the message names the offending field."""


def _is_number_array(value) -> bool:
    """A list whose leaves, at any depth, are numbers (``bool`` is not one)."""
    return type(value) is list and all(type(v) in (int, float) or _is_number_array(v) for v in value)


def _parse_value(key: str, text: str):
    text = text.strip()
    if key in _TEXT_KEYS:
        return text
    if text.startswith("["):
        try:  # NaN and Infinity come back as strings, which the leaf check rejects
            value = json.loads(text, parse_constant=str)
        except ValueError:
            value = None
        if not _is_number_array(value):
            raise CliError(f"{key}: malformed array literal {text!r}")
        return value
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    if low in ("auto", "none"):
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_problem_file(path: str) -> dict:
    """Parse a flat key = value problem file into a dict of typed values."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"problem: cannot read {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"problem: line {lineno} is not 'key = value': {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _PROBLEM_KEYS:
            raise CliError(f"problem: unknown key {key!r} on line {lineno}")
        values[key] = _parse_value(key, value)
    return values


def _default_tol() -> float:
    raw = os.environ.get(DEFAULT_TOL_ENV)
    if raw is None:
        return 1e-10
    try:
        tol = float(raw)
    except ValueError:
        raise CliError(f"tol: {DEFAULT_TOL_ENV}={raw!r} is not a number") from None
    if tol <= 0:
        raise CliError(f"tol: {DEFAULT_TOL_ENV} must be positive, got {raw}")
    return tol


def _load_spec(args: argparse.Namespace) -> dict:
    """Merge the problem file, the ``analyze`` positionals and the flags.

    Later sources win: file, then positionals, then every flag given. A
    flag's string value is parsed with the file's value grammar, here and
    nowhere else.
    """
    spec = parse_problem_file(args.problem) if getattr(args, "problem", None) else {}
    for key in ("operator", "samples", "seed"):
        positional = getattr(args, f"{key}_pos", None)
        if positional is not None:
            spec[key] = positional
    for key in _PROBLEM_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            spec[key] = _parse_value(key, value) if isinstance(value, str) else value
    return spec


def _vector_field(spec: dict, key: str, required: bool = False):
    value = spec.get(key)
    if value is None:
        if required:
            raise CliError(f"{key}: required but not given")
        return None
    if isinstance(value, (int, float)):
        value = [value]
    if not isinstance(value, list):
        raise CliError(f"{key}: expected a vector literal like [1, 0.5], got {value!r}")
    return value


def _build_operator(spec: dict):
    name = spec.get("operator")
    if name is None:
        raise CliError("operator: required but not given")
    if name != "linear":
        try:
            return get_operator(name)
        except ValueError as exc:
            raise CliError(f"operator: {exc}") from exc
    for key in ("a_matrix", "b_matrix", "shift", "lower", "upper"):
        if key not in spec:
            raise CliError(f"{key}: required for operator = linear")
    try:
        domain = Box(spec["lower"], spec["upper"])
        return make_linear_operator(spec["a_matrix"], spec["b_matrix"], spec["shift"], domain)
    except ValueError as exc:
        raise CliError(f"operator: {exc}") from exc


def _number_field(spec: dict, key: str, default, convert):
    value = spec.get(key)
    if value is None:
        return default
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise CliError(f"{key}: expected a number, got {value!r}") from None


def _build_config(spec: dict) -> SchemeConfig:
    scheme = spec.get("scheme") or iteration.KRASNOSELSKIJ_DIAGONAL
    guard = spec.get("guard_domain")
    if guard is not None and not isinstance(guard, bool):
        raise CliError(f"guard_domain: expected true, false or auto, got {guard!r}")
    tol = _default_tol() if spec.get("tol") is None else _number_field(spec, "tol", None, float)
    cfg = SchemeConfig(
        scheme=scheme,
        theta=_number_field(spec, "theta", 0.5, float),
        tol=tol,
        max_iter=_number_field(spec, "max_iter", 1000, int),
        guard_domain=guard,
        seed=_number_field(spec, "seed", 0, int),
    )
    try:
        cfg.validate()
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return cfg


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _build_run(spec: dict):
    """The operator, config and starting points shared by ``run`` and ``sweep``."""
    f = _build_operator(spec)
    cfg = _build_config(spec)
    x0 = _vector_field(spec, "x0", required=True)
    y0 = _vector_field(spec, "y0")
    if cfg.scheme in _DOUBLE_SCHEMES and y0 is None:
        raise CliError(f"y0: required for scheme {cfg.scheme}")
    return f, cfg, x0, y0


def _cmd_run(spec: dict) -> int:
    f, cfg, x0, y0 = _build_run(spec)
    target = _vector_field(spec, "reference_fixed_point")
    try:
        trace = run_scheme(f, cfg, x0, y0, target)
    except ValueError as exc:
        raise CliError(str(exc)) from exc

    fmt = spec.get("format", "json")
    if fmt not in ("json", "csv"):
        raise CliError(f"format: must be json or csv, got {fmt!r}")
    text = trace_to_json(trace) if fmt == "json" else trace_to_csv(trace)
    _write_output(text, spec.get("out"))
    return _EXIT_BY_STATUS[trace.status]


def _cmd_analyze(spec: dict) -> int:
    f = _build_operator(spec)
    samples = _number_field(spec, "samples", 10000, int)
    seed = _number_field(spec, "seed", 0, int)
    try:
        report = analyze_operator(f, samples, seed)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    _write_output(report_to_json(report) + "\n", spec.get("out"))
    return 0


def _cmd_sweep(spec: dict) -> int:
    raw = spec.get("thetas")
    if raw is None:
        raise CliError("thetas: required (comma-separated list in (0, 1))")
    if isinstance(raw, str):
        raw = [part for part in raw.split(",") if part.strip()]
    if isinstance(raw, (int, float)):
        raw = [raw]
    try:
        thetas = [float(t) for t in raw]
    except (TypeError, ValueError):
        raise CliError(f"thetas: malformed list {spec.get('thetas')!r}") from None
    for t in thetas:
        if not 0.0 < t < 1.0:
            raise CliError(f"thetas: every weight must lie in (0, 1), got {t}")

    f, base, x0, y0 = _build_run(spec)
    if base.scheme == iteration.PICARD_DOUBLE:
        raise CliError("scheme: sweep varies theta, which picard_double ignores")

    lines = ["theta,iterations,final_residual,status"]
    worst = 0
    for theta in sorted(thetas):
        try:
            trace = run_scheme(f, dataclasses.replace(base, theta=theta), x0, y0)
        except ValueError as exc:
            raise CliError(str(exc)) from exc
        worst = max(worst, _EXIT_BY_STATUS[trace.status])
        lines.append(
            f"{format_float(theta)},{trace.n_steps},"
            f"{format_float(trace.final_residual)},{trace.status}"
        )
    _write_output("\n".join(lines) + "\n", spec.get("out"))
    return worst


def _cmd_list_operators(_: dict) -> int:
    for name in operator_names():
        f = get_operator(name)
        sys.stdout.write(
            f"{name}: dim={f.dim} domain=[{f.domain.lower.tolist()}, {f.domain.upper.tolist()}] "
            f"range_in_domain={str(f.range_in_domain).lower()} "
            f"known_fixed_points={len(f.known_coupled_fixed_points)}\n"
        )
    sys.stdout.write(
        "linear: F(x, y) = A x + B y + c, via a problem file "
        "(a_matrix, b_matrix, shift, lower, upper)\n"
    )
    return 0


def _add_common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", help="problem file (flat key = value format)")
    p.add_argument("--operator", help="registry name, or 'linear' with a problem file")
    p.add_argument("--scheme", choices=iteration.SCHEMES)
    p.add_argument("--theta", type=float, help="weight on the operator image, in (0, 1)")
    p.add_argument("--tol", type=float, help="residual tolerance (default 1e-10)")
    p.add_argument("--max-iter", dest="max_iter", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--guard-domain", dest="guard_domain", choices=["auto", "true", "false"],
        help="project iterates back into the domain (default: auto)",
    )
    p.add_argument("--x0", help="starting point, e.g. [1] or [0.5, -0.5]")
    p.add_argument("--y0", help="second starting point for the double schemes")
    p.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coupledfix",
        description="Coupled fixed points of bivariate operators by relaxed iterations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one iteration scheme and write the trace")
    _add_common_run_flags(run_p)
    run_p.add_argument(
        "--target", dest="reference_fixed_point", metavar="TARGET",
        help="reference fixed point for distance tracking",
    )
    run_p.add_argument("--format", choices=["json", "csv"])
    run_p.set_defaults(func=_cmd_run)

    an_p = sub.add_parser("analyze", help="estimate contractivity constants and classify")
    an_p.add_argument("operator_pos", nargs="?", metavar="OPERATOR")
    an_p.add_argument("samples_pos", nargs="?", type=int, metavar="SAMPLES")
    an_p.add_argument("seed_pos", nargs="?", type=int, metavar="SEED")
    an_p.add_argument("--problem")
    an_p.add_argument("--operator")
    an_p.add_argument("--samples", type=int)
    an_p.add_argument("--seed", type=int)
    an_p.add_argument("--out")
    an_p.set_defaults(func=_cmd_analyze)

    sw_p = sub.add_parser("sweep", help="run a scheme across several relaxation weights")
    _add_common_run_flags(sw_p)
    sw_p.add_argument("--thetas", help="comma-separated weights, each in (0, 1)")
    sw_p.set_defaults(func=_cmd_sweep)

    ls_p = sub.add_parser("list-operators", help="show the registered operators")
    ls_p.set_defaults(func=_cmd_list_operators)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(_load_spec(args))
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
