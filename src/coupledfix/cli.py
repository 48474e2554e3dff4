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

Problem files are flat ``key = value`` lines; blank lines and ``#`` comments
are ignored. One value grammar covers file lines, flags (``--x0 [1, 0.5]``,
``--guard-domain auto``), ``analyze`` positionals and
COUPLEDFIX_DEFAULT_TOL: ``_KINDS`` gives each key one kind. operator,
scheme, out and format are text, kept as written. guard_domain is one of the
words true, false, auto or none (any case), which are values of no other
key. Every number, alone or in an array, is a JSON number, read as a trace
is read: ``-0`` is -0.0, and ``.5``, ``5.``, ``+1``, ``1_000``, non-ASCII
digits, ``inf`` and ``nan`` are no numbers. theta and tol are floats;
max_iter, seed and samples are integers (``1e3`` is one, ``2.5`` is not).
x0, y0, reference_fixed_point and, for operator = linear, a_matrix,
b_matrix, shift, lower and upper are a number or an array of numbers, nested
for matrices (``[1, 2,]`` or ``[True]`` is malformed). thetas is one or more
comma-separated numbers, or an array, each in (0, 1). Every number must be
finite: ``1e999`` and integers past the float range are rejected. A value
that does not fit its key's kind exits 1 naming the key, also under a
command that does not read that key (``thetas = abc`` in a ``run`` file). A
flag wins over an ``analyze`` positional, which wins over the file. The guard
words auto and none mean false.

Exit codes for ``run``: 0 converged, 2 max_iter_reached (including
detected cycles), 3 diverged or left the domain, 1 malformed input or a
usage error such as an unknown flag. The default residual tolerance is
``SchemeConfig``'s; COUPLEDFIX_DEFAULT_TOL, when set, overrides it.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import math
import os
import sys

from . import iteration
from .contractivity import analyze_operator, report_to_json
from .iteration import SchemeConfig, run_scheme
from .operators import get_operator, make_linear_operator, operator_names
from .space import Box, _as_tol
from .trace_io import _DECODER, _NUMBERS, format_float, trace_to_csv, trace_to_json

__all__ = ["main", "parse_problem_file", "DEFAULT_TOL_ENV"]

DEFAULT_TOL_ENV = "COUPLEDFIX_DEFAULT_TOL"

_EXIT_BY_STATUS = {
    iteration.CONVERGED: 0,
    iteration.MAX_ITER_REACHED: 2,
    iteration.DIVERGED_NONFINITE: 3,
    iteration.LEFT_DOMAIN: 3,
}

_GUARD_WORDS = {"true": True, "false": False, "auto": False, "none": False}
# The keys that give F(x, y) = A x + B y + c when operator = linear.
_LINEAR_KEYS = ("a_matrix", "b_matrix", "shift", "lower", "upper")


class CliError(ValueError):
    """Bad input; the message names the offending field.

    ``main`` reports it as it reports the library's ``ValueError``s.
    """


class _Parser(argparse.ArgumentParser):
    """Splits argv into strings; a usage error is a ``CliError`` (exit 1)."""

    def error(self, message):
        raise CliError(message)


def _is_finite(value) -> bool:
    """Every number in ``value``, a number or a nested list, is a finite float."""
    try:
        if type(value) is not list:
            return math.isfinite(value)
        return all(map(math.isfinite, value))
    except TypeError:  # a nested list: check each item
        return all(map(_is_finite, value))
    except OverflowError:  # an int past the float range
        return False


def _is_number_array(value) -> bool:
    """A list whose leaves, at any depth, are numbers (``bool`` is not one)."""
    return type(value) is list and (_NUMBERS.issuperset(map(type, value))
                                    or all(map(_is_number_array, value)))


def _number(text: str, arrays: bool = False):
    """A JSON number or, with ``arrays``, a JSON array of them, read as a trace is read."""
    try:  # NaN and Infinity decode as tokens, which are not numbers
        value = _DECODER.decode(text)
    except (ValueError, RecursionError):  # not JSON, or nested too deep to read
        value = None
    if type(value) not in _NUMBERS and not (arrays and _is_number_array(value)):
        if arrays and text.startswith("["):
            raise CliError(f"malformed array literal {text!r}")
        expected = "a number or an array literal" if arrays else "a number"
        raise CliError(f"expected {expected}, got {text!r}")
    if not _is_finite(value):
        raise CliError(f"expected a finite number, got {text!r}")
    return value


def _guard_word(text: str):
    if text.lower() not in _GUARD_WORDS:
        raise CliError(f"expected true, false, auto or none, got {text!r}")
    return _GUARD_WORDS[text.lower()]


def _float(text: str) -> float:
    return float(_number(text))


def _integer(text: str) -> int:
    value = _number(text)
    if int(value) != value:
        raise CliError(f"expected an integer, got {text!r}")
    return int(value)


def _array(text: str):
    """A number or a JSON array of JSON numbers; ``space`` and ``operators`` check its shape."""
    return _number(text, arrays=True)


def _weights(text: str) -> list[float]:
    """An array literal or a comma-separated list of numbers, each in (0, 1)."""
    if text.startswith("["):
        weights = _array(text)
    else:
        weights = [_float(part) for part in map(str.strip, text.split(",")) if part]
    if not weights:
        raise CliError(f"expected at least one weight, got {text!r}")
    for w in weights:
        if type(w) is list or not 0.0 < w < 1.0:
            raise CliError(f"every weight must lie in (0, 1), got {w}")
    return [float(w) for w in weights]


# The kind of every key, whichever source gives it: file, flag, positional.
_KINDS = {
    **dict.fromkeys(("operator", "scheme", "out", "format"), str),
    "guard_domain": _guard_word,
    **dict.fromkeys(("theta", "tol"), _float),
    **dict.fromkeys(("max_iter", "seed", "samples"), _integer),
    **dict.fromkeys(("x0", "y0", "reference_fixed_point"), _array),
    **dict.fromkeys(_LINEAR_KEYS, _array),
    "thetas": _weights,
}


def _parse_value(key: str, text: str):
    """Type and check one value, from a file line, a flag, a positional or the environment."""
    try:
        return _KINDS[key](text.strip())
    except CliError as exc:
        raise CliError(f"{key}: {exc}") from None


def parse_problem_file(path: str) -> dict:
    """Parse a flat key = value problem file into a dict of typed values."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeError) as exc:
        raise CliError(f"problem: cannot read {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"problem: line {lineno} is not 'key = value': {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _KINDS:
            raise CliError(f"problem: unknown key {key!r} on line {lineno}")
        values[key] = _parse_value(key, value)
    return values


def _env_tol() -> dict:
    """``tol`` from COUPLEDFIX_DEFAULT_TOL when it is set, checked by the one tolerance rule."""
    text = os.environ.get(DEFAULT_TOL_ENV)
    if text is None:
        return {}
    try:
        return {"tol": _as_tol(_parse_value("tol", text))}
    except ValueError as exc:
        raise CliError(f"{DEFAULT_TOL_ENV}: {exc}") from None


def _load_spec(args: argparse.Namespace) -> dict:
    """Merge the problem file, then the ``analyze`` positionals, then the flags; later sources win."""
    spec = parse_problem_file(args.problem) if getattr(args, "problem", None) else {}
    given = [(key, getattr(args, f"{key}_pos", None)) for key in ("operator", "samples", "seed")]
    given += [(key, getattr(args, key, None)) for key in _KINDS]
    for key, text in given:
        if text is not None:
            spec[key] = _parse_value(key, text)
    return spec


def _build_operator(spec: dict):
    name = spec.get("operator")
    if name is None:
        raise CliError("operator: required but not given")
    if name != "linear":
        try:
            return get_operator(name)
        except ValueError as exc:
            raise CliError(f"operator: {exc}") from exc
    for key in _LINEAR_KEYS:
        if key not in spec:
            raise CliError(f"{key}: required for operator = linear")
    try:
        domain = Box(spec["lower"], spec["upper"])
        return make_linear_operator(spec["a_matrix"], spec["b_matrix"], spec["shift"], domain)
    except ValueError as exc:
        raise CliError(f"operator: {exc}") from exc


def _build_config(spec: dict) -> SchemeConfig:
    return SchemeConfig(
        scheme=spec.get("scheme") or iteration.KRASNOSELSKIJ_DIAGONAL,
        **({} if "tol" in spec else _env_tol()),
        **{key: spec[key] for key in ("theta", "tol", "max_iter", "guard_domain", "seed") if key in spec},
    )


def _write_output(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliError(f"out: cannot write {out!r}: {exc}") from exc


def _build_run(spec: dict):
    """The operator, config and starting points shared by ``run`` and ``sweep``."""
    f = _build_operator(spec)
    cfg = _build_config(spec)
    if "x0" not in spec:
        raise CliError("x0: required but not given")
    return f, cfg, spec["x0"], spec.get("y0")


def _cmd_run(spec: dict) -> int:
    f, cfg, x0, y0 = _build_run(spec)
    fmt = spec.get("format", "json")
    if fmt not in ("json", "csv"):
        raise CliError(f"format: must be json or csv, got {fmt!r}")
    trace = run_scheme(f, cfg, x0, y0, spec.get("reference_fixed_point"))
    text = trace_to_json(trace) if fmt == "json" else trace_to_csv(trace)
    _write_output(text, spec.get("out"))
    return _EXIT_BY_STATUS[trace.status]


def _cmd_analyze(spec: dict) -> int:
    f = _build_operator(spec)
    report = analyze_operator(f, spec.get("samples", 10000), spec.get("seed", 0))
    _write_output(report_to_json(report) + "\n", spec.get("out"))
    return 0


def _cmd_sweep(spec: dict) -> int:
    thetas = spec.get("thetas")
    if thetas is None:
        raise CliError("thetas: required (comma-separated list in (0, 1))")
    f, base, x0, y0 = _build_run(spec)
    if base.scheme == iteration.PICARD_DOUBLE:
        raise CliError("scheme: sweep varies theta, which picard_double ignores")

    lines = ["theta,iterations,final_residual,status"]
    worst = 0
    for theta in sorted(thetas):
        trace = run_scheme(f, dataclasses.replace(base, theta=theta), x0, y0)
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
    sys.stdout.write(f"linear: F(x, y) = A x + B y + c, via a problem file ({', '.join(_LINEAR_KEYS)})\n")
    return 0


def _add_common_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", help="problem file (flat key = value format)")
    p.add_argument("--operator", help="registry name, or 'linear' with a problem file")
    schemes = ", ".join(iteration.SCHEMES)
    p.add_argument("--scheme", help=f"one of {schemes} (default: krasnoselskij_diagonal)")
    p.add_argument("--theta", help="weight on the operator image, in (0, 1)")
    p.add_argument("--tol", help=f"residual tolerance (default: {SchemeConfig.tol:g}, or ${DEFAULT_TOL_ENV})")
    p.add_argument("--max-iter", dest="max_iter", help="integer step cap (default: 1000)")
    p.add_argument("--seed", help="integer recorded in the trace (default: 0)")
    p.add_argument(
        "--guard-domain", dest="guard_domain",
        help="clamp every iterate into the domain: true, false or auto (the default); auto and none mean "
        "false, and an operator that does not map its domain into itself is clamped either way",
    )
    p.add_argument("--x0", help="starting point, e.g. [1] or [0.5, -0.5]")
    p.add_argument("--y0", help="second starting point for the double schemes")
    p.add_argument("--out", help="output path (default: stdout)")


@functools.cache  # built once per process: parse_args does not change it
def build_parser() -> argparse.ArgumentParser:
    """The subcommands and their flags; every value stays a string for ``_parse_value``."""
    parser = _Parser(
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
    run_p.add_argument("--format", help="json or csv (default: json)")
    run_p.set_defaults(func=_cmd_run)

    an_p = sub.add_parser("analyze", help="estimate contractivity constants and classify")
    an_p.add_argument("operator_pos", nargs="?", metavar="OPERATOR")
    an_p.add_argument("samples_pos", nargs="?", metavar="SAMPLES")
    an_p.add_argument("seed_pos", nargs="?", metavar="SEED")
    an_p.add_argument("--problem")
    an_p.add_argument("--operator")
    an_p.add_argument("--samples", help="integer sample count (default: 10000)")
    an_p.add_argument("--seed", help="integer seed of the sampler (default: 0)")
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
    try:
        args = build_parser().parse_args(argv)
        return args.func(_load_spec(args))
    except ValueError as exc:  # CliError, or a library error on a value the user gave
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
