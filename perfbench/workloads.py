"""The workloads: seeded inputs, one round of operations, and the checks.

A workload's ``build`` writes its inputs under a work directory and returns
one round: a list of operations. Each operation has a ``run`` callable,
which is the timed part, and a ``check`` callable, which runs outside the
timed part and returns a list of problems with the output (empty when it is
correct). Every round is the same list, so every run attempts whole rounds
of the same operations.

The program is driven in-process through ``cli.main`` and through library
calls looked up on their modules at call time, so the traced run can wrap
them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from coupledfix import cli, closed_form, iteration, trace_io
from coupledfix.operators import get_operator, make_linear_operator
from coupledfix.space import Box

import checks
import inputs as inp

TOL = 1e-10


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    context: dict = field(default_factory=dict)


def cli_stdout(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


class Verified:
    """Runs a full check once per distinct output; a byte-identical repeat passes.

    Operations repeat every round with the same inputs, so their outputs
    repeat too. Checking the first occurrence in full and later ones by
    digest keeps the untimed part of a run short without leaving any output
    unchecked.
    """

    def __init__(self, full_check: Callable[[object], list[str]], key: Callable[[object], bytes]):
        self.full_check = full_check
        self.key = key
        self.passed: set[bytes] = set()

    def __call__(self, out) -> list[str]:
        digest = hashlib.sha256(self.key(out)).digest()
        if digest in self.passed:
            return []
        problems = self.full_check(out)
        if not problems:
            self.passed.add(digest)
        return problems


def library_operator(spec: dict):
    """The operator a problem file describes, built through the library."""
    if spec["operator"] != "linear":
        return get_operator(spec["operator"])
    p: inp.LinearProblem = spec["problem"]
    box = Box(np.full(p.d, -inp.BOX_RADIUS), np.full(p.d, inp.BOX_RADIUS))
    return make_linear_operator(p.a, p.b, p.c, box)


def _rc_check(rc: int) -> list[str]:
    return [] if rc == 0 else [f"exit code {rc}, expected 0"]


# --------------------------------------------------------------------- sweep

SWEEP_DIMS = (1, 10, 100)
SWEEP_SCHEMES = (iteration.KRASNOSELSKIJ_DIAGONAL, iteration.KRASNOSELSKIJ_DOUBLE)
# Grids chosen so that every command takes a similar number of steps: the
# slowest factor per step is 0.9 and then 0.84 on every problem.
LINEAR_GRID = (0.5, 0.8)
EXAMPLE_GRIDS = {
    ("example_4_1", iteration.KRASNOSELSKIJ_DIAGONAL): (0.05, 0.08),
    ("example_4_1", iteration.KRASNOSELSKIJ_DOUBLE): (0.1, 0.16),
    ("example_2_1", iteration.KRASNOSELSKIJ_DIAGONAL): (0.075, 0.12),
    ("example_2_1", iteration.KRASNOSELSKIJ_DOUBLE): (0.075, 0.12),
}


def build_sweep(seed: int, workdir: str, short: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    dims = (1, 3) if short else SWEEP_DIMS
    specs = []
    for d in dims:
        p = inp.linear_problem(rng, d)
        specs.append({"operator": "linear", "problem": p, "x0": p.x0, "y0": p.y0, "grid": LINEAR_GRID})
    for name in ("example_4_1", "example_2_1"):
        x0 = inp.signed_start(rng)
        y0 = math.copysign(rng.uniform(0.5, 1.0), -x0 if name == "example_4_1" else x0)
        specs.append({"operator": name, "x0": np.array([x0]), "y0": np.array([y0])})
    ops = []
    for k, spec in enumerate(specs):
        for scheme in SWEEP_SCHEMES:
            grid = spec.get("grid") or EXAMPLE_GRIDS[(spec["operator"], scheme)]
            if short:
                grid = grid[-1:]
            entries = (
                inp.linear_entries(spec["problem"]) if spec["operator"] == "linear"
                else {"operator": spec["operator"]}
            )
            entries.update({
                "x0": inp.literal(spec["x0"]), "y0": inp.literal(spec["y0"]),
                "thetas": ",".join(repr(t) for t in grid), "tol": repr(TOL), "max_iter": 5000,
            })
            path = inp.write_problem(os.path.join(workdir, f"sweep_{k}_{scheme}.txt"), entries)
            argv = ["sweep", "--problem", path, "--scheme", scheme]
            ops.append(_sweep_op(f"sweep:{spec['operator']}:{len(spec['x0'])}:{scheme}", argv, spec, scheme, grid))
    return ops


def _sweep_op(label, argv, spec, scheme, grid) -> Op:
    def full_check(out) -> list[str]:
        rc, text = out
        problems = _rc_check(rc) + checks.sweep_rows(text, spec, scheme, grid, TOL)
        if problems:
            return problems
        f = library_operator(spec)
        for theta, row in zip(sorted(grid), checks.parse_sweep(text)):
            cfg = iteration.SchemeConfig(scheme, theta=theta, tol=TOL, max_iter=5000)
            trace = iteration.run_scheme(f, cfg, spec["x0"], spec["y0"])
            problems += checks.sweep_final_pair(trace, row, spec, scheme, TOL)
        return problems

    return Op(label, lambda: cli_stdout(argv), Verified(full_check, lambda out: out[1].encode()),
              {"spec": spec, "scheme": scheme, "grid": grid})


# ---------------------------------------------------------------- long_trace

TRACE_RUNS = (
    # (d, scheme, theta, max_iter, format, with target). A max_iter above
    # the trace cap of 100000 entries makes the recorder keep every k-th step.
    (1, iteration.KRASNOSELSKIJ_DIAGONAL, 0.08, 200_000, "json", True),
    (1, iteration.KRASNOSELSKIJ_DOUBLE, 0.08, 10_000, "csv", False),
    (10, iteration.KRASNOSELSKIJ_DOUBLE, 0.1, 10_000, "json", True),
    (10, iteration.KRASNOSELSKIJ_DIAGONAL, 0.1, 200_000, "csv", False),
    (100, iteration.KRASNOSELSKIJ_DOUBLE, 0.12, 400_000, "json", False),
    (100, iteration.KRASNOSELSKIJ_DIAGONAL, 0.12, 400_000, "csv", True),
)


def build_long_trace(seed: int, workdir: str, short: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 2])
    problems = {}
    ops = []
    for k, (d, scheme, theta, max_iter, fmt, with_target) in enumerate(TRACE_RUNS):
        if short:
            d, theta = min(d, 3), 0.5
        if d not in problems:
            problems[d] = inp.linear_problem(rng, d)
        p = problems[d]
        entries = inp.linear_entries(p)
        entries.update({
            "scheme": scheme, "theta": repr(theta), "tol": repr(TOL), "max_iter": max_iter,
            "x0": inp.literal(p.x0), "y0": inp.literal(p.y0), "format": fmt,
        })
        if with_target:
            entries["reference_fixed_point"] = inp.literal(p.xbar)
        path = inp.write_problem(os.path.join(workdir, f"trace_{k}.txt"), entries)
        out = os.path.join(workdir, f"trace_{k}.{fmt}")
        argv = ["run", "--problem", path, "--out", out]
        cfg = iteration.SchemeConfig(scheme, theta=theta, tol=TOL, max_iter=max_iter)
        spec = {"operator": "linear", "problem": p, "target": p.xbar if with_target else None}
        ops.append(_trace_op(f"run:{fmt}:{d}:{scheme}", argv, out, fmt, spec, cfg))
    return ops


def _trace_op(label, argv, out_path, fmt, spec, cfg) -> Op:
    def run():
        rc = cli.main(argv)
        parsed = None
        if fmt == "json":
            with open(out_path, "r", encoding="utf-8") as fh:
                parsed = trace_io.trace_from_json(fh.read())
        return rc, parsed

    expected = {}

    def in_memory():
        if "trace" not in expected:
            f = library_operator(spec)
            p = spec["problem"]
            expected["trace"] = iteration.run_scheme(f, cfg, p.x0, p.y0, spec["target"])
        return expected["trace"]

    def full_check(text: str) -> list[str]:
        trace = in_memory()
        if fmt == "json":
            return checks.trace_json(text, trace, spec, cfg, TOL)
        return checks.trace_csv(text, trace, spec, cfg, TOL)

    verified = Verified(full_check, lambda text: text.encode())

    def check(out) -> list[str]:
        rc, parsed = out
        with open(out_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        problems = _rc_check(rc) + verified(text)
        if parsed is not None and parsed != in_memory():
            problems.append("trace_from_json did not return a trace equal to the original")
        return problems

    return Op(label, run, check, {"out_path": out_path})


# ------------------------------------------------------------------- analyze

ANALYZE_SAMPLES = 400


def build_analyze(seed: int, workdir: str, short: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    samples = 50 if short else ANALYZE_SAMPLES
    ops = []
    for name in ("example_2_1", "example_2_2", "example_4_1", "linear"):
        analyzer_seed = int(rng.integers(0, 2**31))
        if name == "linear":
            p = inp.linear_problem(rng, 3 if short else 10)
            path = inp.write_problem(os.path.join(workdir, "analyze_linear.txt"), inp.linear_entries(p))
            argv = ["analyze", "--problem", path, "--samples", str(samples), "--seed", str(analyzer_seed)]
            spec = {"operator": "linear", "problem": p}
        else:
            argv = ["analyze", name, str(samples), str(analyzer_seed)]
            spec = {"operator": name}
        full = lambda out, spec=spec: _rc_check(out[0]) + checks.analyze_report(out[1], spec)
        ops.append(Op(f"analyze:{name}", lambda argv=argv: cli_stdout(argv),
                      Verified(full, lambda out: out[1].encode()), {"spec": spec}))
    return ops


# ------------------------------------------------------------ paper_examples

# (operator, scheme, oracle kind, theta). The weights make the relaxed runs
# take about a thousand steps each.
PAPER_RUNS = (
    ("example_2_1", iteration.PICARD_DOUBLE, closed_form.PICARD_EXAMPLE_2_1, None),
    ("example_4_1", iteration.KRASNOSELSKIJ_DIAGONAL, closed_form.KRASNOSELSKIJ_EXAMPLE_4_1, 0.012),
    ("example_4_1", iteration.KRASNOSELSKIJ_DOUBLE, closed_form.DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1, 0.024),
    ("example_4_1", iteration.KRASNOSELSKIJ_DIAGONAL, closed_form.KRASNOSELSKIJ_EXAMPLE_4_1, 0.012),
    ("example_4_1", iteration.KRASNOSELSKIJ_DOUBLE, closed_form.DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1, 0.024),
)


def build_paper_examples(seed: int, workdir: str, short: bool) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    ops = []
    for name, scheme, kind, theta in PAPER_RUNS:
        if short and theta is not None:
            theta *= 20
        x0 = inp.signed_start(rng)
        y0 = x0 if scheme == iteration.KRASNOSELSKIJ_DIAGONAL else math.copysign(rng.uniform(0.5, 1.0), -x0)
        sample_rng = np.random.default_rng([seed, 5, len(ops)])
        ops.append(_paper_op(name, scheme, kind, theta, x0, y0, sample_rng))
    return ops


def _paper_op(name, scheme, kind, theta, x0, y0, sample_rng) -> Op:
    cfg = iteration.SchemeConfig(scheme, theta=0.5 if theta is None else theta, tol=TOL, max_iter=20_000)
    f = get_operator(name)
    runner = {
        iteration.PICARD_DOUBLE: lambda: iteration.picard_double(f, [x0], [y0], cfg),
        iteration.KRASNOSELSKIJ_DIAGONAL: lambda: iteration.krasnoselskij_diagonal(f, [x0], cfg),
        iteration.KRASNOSELSKIJ_DOUBLE: lambda: iteration.krasnoselskij_double(f, [x0], [y0], cfg),
    }[scheme]
    handle = closed_form.OracleHandle(
        kind, [x0], None if scheme == iteration.KRASNOSELSKIJ_DIAGONAL else [y0], lam=theta
    )

    def run():
        trace = runner()
        return trace, closed_form.oracle_trace(handle, trace.n_steps)

    def check(out) -> list[str]:
        trace, oracle = out
        return checks.paper_example(trace, oracle, name, kind, theta, x0, y0, TOL, sample_rng)

    return Op(f"{scheme}:{name}", run, check)


def build_sweep_analyze(seed: int, workdir: str, short: bool) -> list[Op]:
    """Many short independent commands and no trace I/O: sweeps and analyses."""
    return build_sweep(seed, workdir, short) + build_analyze(seed, workdir, short)


def build_trace_paper(seed: int, workdir: str, short: bool) -> list[Op]:
    """Single long runs: traces written and parsed back, and oracle-checked runs."""
    return build_long_trace(seed, workdir, short) + build_paper_examples(seed, workdir, short)


BUILDERS = {
    "sweep_analyze": build_sweep_analyze,
    "trace_paper": build_trace_paper,
}
