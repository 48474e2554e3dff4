"""Acceptance suite: one test per stated criterion, with its tolerance pinned.

Each test prints a [PASS]/[FAIL] line (visible with ``pytest -s``); the
test outcome itself mirrors that line. Criteria 2 and 3 concern the skew
operator F(x, y) = (x - 2y)/3 and rest on two arithmetic facts:

- the whole antidiagonal {(t, -t)} is coupled-fixed: F(t, -t) = t and
  F(-t, t) = -t exactly, so (0, 0) is only the equal-component member of
  a line of coupled fixed points; and
- F(x, y) - F(y, x) = x - y identically, so both double schemes keep
  x - y unchanged, while the sum x + y is scaled by -1/3 per plain step
  and by 1 - 4*lam/3 per relaxed step.

Criterion 2 therefore checks that the plain double iteration from (1, 0)
follows its closed form to the antidiagonal limit (0.5, -0.5), which is a
coupled fixed point away from (0, 0), and that a pair which is not fixed
is rejected. Criterion 3 checks that the relaxed double scheme follows
the pair formula derived from the recurrence and ends at
((x0-y0)/2, (y0-x0)/2). Wider true-behavior coverage of both operators
lives in test_iteration.py and test_closed_form.py.
"""

import time

import numpy as np

from coupledfix import (
    KRASNOSELSKIJ_DIAGONAL,
    KRASNOSELSKIJ_DOUBLE,
    PICARD_DOUBLE,
    CoupledPair,
    OracleHandle,
    SchemeConfig,
    analyze_operator,
    convex_identity_defect,
    engine_theta,
    get_operator,
    inner,
    is_coupled_fixed_point,
    krasnoselskij_diagonal,
    krasnoselskij_double,
    norm,
    oracle_iterate,
    oracle_limit,
    picard_double,
    trace_from_json,
    trace_to_json,
    verify_fejer_monotonicity,
    verify_residual_decay,
    witness_ratio,
)
from coupledfix.cli import main as cli_main
from coupledfix.contractivity import (
    MARGIN,
    REFUTED_CONTRACTION,
    REFUTED_NONEXPANSIVE,
    REFUTED_WEAKLY_NONEXPANSIVE,
    WITNESS_WEAKLY_NONEXPANSIVE,
)
from helpers import random_linear_operator, sample_in_box


def finish(name: str, failures: list, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    if elapsed >= budget:
        failures.append(f"runtime {elapsed:.2f}s exceeded budget {budget}s")
    print(f"[{'PASS' if not failures else 'FAIL'}] {name} ({elapsed:.2f}s)")
    assert not failures, f"{name}: " + " | ".join(str(f) for f in failures)


def linear_test_set(count=50, seed=2024):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        f = random_linear_operator(rng, norm_sum=float(rng.uniform(0.2, 0.945)))
        x0 = sample_in_box(rng, f.domain)
        out.append((f, x0))
    return out


def test_criterion_01_closed_form_exactness_averaging_map():
    started = time.perf_counter()
    failures = []
    f = get_operator("example_4_1")
    for lam in (0.25, 0.5, 0.75):
        h = OracleHandle("krasnoselskij_example_4_1", [1.0], lam=lam)
        cfg = SchemeConfig(KRASNOSELSKIJ_DIAGONAL, theta=engine_theta(h), tol=1e-300, max_iter=60)
        trace = krasnoselskij_diagonal(f, [1.0], cfg)
        for n, pair in zip(trace.step_indices, trace.iterates):
            ref = oracle_iterate(h, n).x[0]
            if abs(pair.x[0] - ref) > 1e-12 * (1.0 + abs(ref)):
                failures.append(f"lam={lam} n={n}: engine {pair.x[0]!r} vs formula {ref!r}")
                break
    one_step = krasnoselskij_diagonal(
        f, [1.0], SchemeConfig(KRASNOSELSKIJ_DIAGONAL, theta=0.5, tol=1e-10)
    )
    if one_step.status != "converged" or one_step.step_indices != [0, 1]:
        failures.append(f"lam=0.5 did not converge in exactly one step: {one_step.step_indices}")
    if not np.array_equal(one_step.final_pair.x, [0.0]):
        failures.append("lam=0.5 endpoint is not exactly zero")
    finish("criterion 1: closed-form exactness, averaging map", failures, started, 1.0)


def test_criterion_02_plain_double_iteration_skew_map():
    started = time.perf_counter()
    failures = []
    f = get_operator("example_2_1")
    h = OracleHandle("picard_example_2_1", [1.0], [0.0])
    trace = picard_double(f, [1.0], [0.0], SchemeConfig(PICARD_DOUBLE, tol=1e-300, max_iter=60))
    for n, pair in zip(trace.step_indices, trace.iterates):
        ref = oracle_iterate(h, n)
        if abs(pair.x[0] - ref.x[0]) > 1e-12 * (1.0 + abs(ref.x[0])) or abs(
            pair.y[0] - ref.y[0]
        ) > 1e-12 * (1.0 + abs(ref.y[0])):
            failures.append(f"n={n}: engine {pair} vs formula {ref}")
            break
    limit = oracle_limit(h)
    if trace.final_pair != limit:
        failures.append(f"final pair {trace.final_pair} is not the formula limit {limit}")
    if not is_coupled_fixed_point(f, limit, 1e-12):
        failures.append(f"limit {limit} fails the coupled fixed point check at 1e-12")
    if not max(norm(limit.x), norm(limit.y)) > 0.4:
        failures.append(f"limit {limit} is within 0.4 of (0, 0)")
    for px, py in ((0.5, 0.5), (1.0, 0.0)):
        if is_coupled_fixed_point(f, CoupledPair([px], [py]), 1e-6):
            failures.append(f"non-fixed pair ({px}, {py}) passes the check at 1e-6")
    if not is_coupled_fixed_point(f, CoupledPair([0.0], [0.0]), 1e-12):
        failures.append("(0, 0) fails the coupled fixed point check at 1e-12")
    finish("criterion 2: plain double iteration, skew map", failures, started, 1.0)


def skew_relaxed_double_pair(x0: float, y0: float, lam: float, n: int) -> tuple[float, float]:
    """Iterate n of the relaxed double scheme on F(x, y) = (x - 2y)/3.

    From x' = (1-lam) x + lam F(x, y) and y' = (1-lam) y + lam F(y, x):
    x' - y' = x - y, because F(x, y) - F(y, x) = x - y, and
    x' + y' = (1 - 4*lam/3)(x + y), because F(x, y) + F(y, x) = -(x + y)/3.
    The power is built by repeated multiplication, as in closed_form.
    """
    p = 1.0
    for _ in range(n):
        p *= 1.0 - 4.0 * lam / 3.0
    half_sum = 0.5 * p * (x0 + y0)
    half_diff = 0.5 * (x0 - y0)
    return half_diff + half_sum, -half_diff + half_sum


def test_criterion_03_pair_formula_reproduction_skew_map():
    started = time.perf_counter()
    failures = []
    f = get_operator("example_2_1")
    rng = np.random.default_rng(7)
    starts = rng.uniform(-1.0, 1.0, size=(100, 2))
    mismatch = target_miss = no_converge = 0
    for lam in (0.3, 0.5, 0.7):
        for x0, y0 in starts:
            cfg = SchemeConfig(KRASNOSELSKIJ_DOUBLE, theta=lam, tol=1e-10, max_iter=200)
            trace = krasnoselskij_double(f, [x0], [y0], cfg)
            for n, pair in zip(trace.step_indices, trace.iterates):
                ref_x, ref_y = skew_relaxed_double_pair(x0, y0, lam, n)
                if abs(pair.x[0] - ref_x) > 1e-12 * (1.0 + abs(ref_x)) or abs(
                    pair.y[0] - ref_y
                ) > 1e-12 * (1.0 + abs(ref_y)):
                    mismatch += 1
                    break
            if trace.status != "converged" or trace.final_residual > 1e-10:
                no_converge += 1
            half_diff = 0.5 * (x0 - y0)
            if max(
                abs(trace.final_pair.x[0] - half_diff), abs(trace.final_pair.y[0] + half_diff)
            ) > 1e-8:
                target_miss += 1
    if mismatch:
        failures.append(f"{mismatch}/300 runs deviate from the skew-map pair formula")
    if no_converge:
        failures.append(f"{no_converge}/300 runs missed residual 1e-10 within 200 steps")
    if target_miss:
        failures.append(
            f"{target_miss}/300 runs did not end within 1e-8 of ((x0-y0)/2, (y0-x0)/2)"
        )
    finish("criterion 3: pair-formula reproduction, skew map", failures, started, 5.0)


def test_criterion_04_constant_recovery_skew_map():
    started = time.perf_counter()
    failures = []
    report = analyze_operator(get_operator("example_2_1"), 10_000, seed=42)
    if not abs(report.a_hat - 1.0 / 3.0) <= 1e-9:
        failures.append(f"a_hat {report.a_hat!r} not within 1e-9 of 1/3")
    if not abs(report.b_hat - 2.0 / 3.0) <= 1e-9:
        failures.append(f"b_hat {report.b_hat!r} not within 1e-9 of 2/3")
    if REFUTED_NONEXPANSIVE not in report.classification:
        failures.append("nonexpansiveness not refuted")
    if REFUTED_CONTRACTION not in report.classification:
        failures.append("strict contraction not refuted")
    finish("criterion 4: constant recovery, skew map", failures, started, 2.0)


def test_criterion_05_convex_identity_defect_suite():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(12345)
    per_dim = 33_334
    worst = 0.0
    for d in (1, 3, 10):
        pts = rng.uniform(-1e3, 1e3, size=(per_dim, 3, d))
        lams = rng.uniform(0.0, 1.0, size=per_dim)
        for i in range(per_dim):
            x, y, z = pts[i]
            defect = convex_identity_defect(lams[i], x, y, z)
            scale = 1.0 + inner(x, x) + inner(y, y) + inner(z, z)
            ratio = abs(defect) / scale
            if ratio > worst:
                worst = ratio
            if ratio > 1e-10:
                failures.append(f"dim {d} sample {i}: |defect|/scale = {ratio:.3e}")
                break
    finish(
        f"criterion 5: convex identity defect, 1e5 samples (worst {worst:.2e})",
        failures,
        started,
        5.0,
    )


def test_criterion_06_descent_inequalities_linear_family():
    started = time.perf_counter()
    failures = []
    for f, x0 in linear_test_set():
        (fixed,) = f.known_coupled_fixed_points
        for theta in (0.25, 0.5, 0.75):
            cfg = SchemeConfig(KRASNOSELSKIJ_DIAGONAL, theta=theta, tol=1e-10, max_iter=2000)
            trace = krasnoselskij_diagonal(f, x0, cfg)
            report = verify_fejer_monotonicity(trace, fixed.x)
            if not report.passed:
                bad = [c for c in report.checks if not c.passed]
                failures.append(f"{f.name} d={f.dim} theta={theta}: {bad}")
        if failures:
            break
    finish("criterion 6: descent inequalities, linear family", failures, started, 30.0)


def test_criterion_07_residual_decay_linear_family():
    started = time.perf_counter()
    failures = []
    for f, x0 in linear_test_set():
        cfg = SchemeConfig(KRASNOSELSKIJ_DIAGONAL, theta=0.5, tol=1e-300, max_iter=2000)
        trace = krasnoselskij_diagonal(f, x0, cfg)
        final = trace.final_residual
        if trace.status == "max_iter_reached" and trace.n_steps != 2000:
            failures.append(f"{f.name}: run stopped at step {trace.n_steps}")
        if final > 1e-8:
            failures.append(f"{f.name} d={f.dim}: residual at n=2000 is {final:.3e}")
        decay = verify_residual_decay(trace)
        if not decay.passed:
            failures.append(f"{f.name}: residuals do not decay: {decay.checks}")
        if failures:
            break
    finish("criterion 7: residual decay, linear family", failures, started, 30.0)


def test_criterion_08_scheme_coincidence_bitwise():
    started = time.perf_counter()
    failures = []
    rng = np.random.default_rng(88)
    for k in range(20):
        f = random_linear_operator(rng, name=f"linear_{k}")
        x0 = sample_in_box(rng, f.domain)
        theta = float(rng.uniform(0.05, 0.95))
        diag = krasnoselskij_diagonal(
            f, x0, SchemeConfig(KRASNOSELSKIJ_DIAGONAL, theta=theta, tol=1e-10, max_iter=500)
        )
        dbl = krasnoselskij_double(
            f, x0, x0.copy(),
            SchemeConfig(KRASNOSELSKIJ_DOUBLE, theta=theta, tol=1e-10, max_iter=500),
        )
        same = (
            diag.step_indices == dbl.step_indices
            and diag.residuals == dbl.residuals
            and diag.status == dbl.status
            and all(p == q for p, q in zip(diag.iterates, dbl.iterates))
        )
        if not same:
            failures.append(f"operator {k} (d={f.dim}, theta={theta}): traces differ")
    finish("criterion 8: double/diagonal bitwise coincidence", failures, started, 30.0)


def test_criterion_09_quadratic_map_fixed_points_and_witness():
    started = time.perf_counter()
    failures = []
    f = get_operator("example_2_2")
    for px, py in ((-4.0, -4.0), (1.0, 1.0), (-1.0, 2.0), (2.0, -1.0)):
        if not is_coupled_fixed_point(f, CoupledPair([px], [py]), 1e-12):
            failures.append(f"({px}, {py}) fails at 1e-12")
    report = analyze_operator(f, 10_000, seed=42)
    if REFUTED_WEAKLY_NONEXPANSIVE not in report.classification:
        failures.append("weak nonexpansiveness not refuted")
    else:
        witness = next(w for w in report.violations if w.kind == WITNESS_WEAKLY_NONEXPANSIVE)
        again = witness_ratio(f, witness)
        if abs(again - witness.ratio) > 1e-10 * max(1.0, abs(witness.ratio)):
            failures.append(f"witness ratio drifted: {witness.ratio!r} -> {again!r}")
        df = norm(f.eval(witness.x, witness.y) - f.eval(witness.u, witness.v))
        bound = max(norm(witness.x - witness.u), norm(witness.y - witness.v))
        if not df > bound + MARGIN:
            failures.append("stored witness does not re-validate the violated inequality")
    finish("criterion 9: quadratic map fixed points and witness", failures, started, 5.0)


def test_criterion_10_cli_round_trip_and_exit_codes(tmp_path):
    started = time.perf_counter()
    failures = []

    out = tmp_path / "trace.json"
    code = cli_main(
        ["run", "--operator", "example_4_1", "--scheme", "krasnoselskij_diagonal",
         "--theta", "0.5", "--x0", "[1]", "--tol", "1e-10", "--out", str(out)]
    )
    if code != 0:
        failures.append(f"converging spec exited {code}, expected 0")
    parsed = trace_from_json(out.read_text())
    direct = krasnoselskij_diagonal(
        get_operator("example_4_1"), [1.0],
        SchemeConfig(KRASNOSELSKIJ_DIAGONAL, theta=0.5, tol=1e-10),
    )
    if parsed != direct:
        failures.append("JSON round trip is not bit-exact against the in-memory trace")
    if len(parsed.iterates) != 2 or not np.array_equal(parsed.final_pair.x, [0.0]):
        failures.append("trace should have length 2 and end at [0]")

    out2 = tmp_path / "cycle.json"
    code = cli_main(
        ["run", "--operator", "example_4_1", "--scheme", "picard_double",
         "--x0", "[1]", "--y0", "[1]", "--out", str(out2)]
    )
    if code != 2:
        failures.append(f"cycling spec exited {code}, expected 2")
    cycle_trace = trace_from_json(out2.read_text())
    if not cycle_trace.cycle_detected:
        failures.append("cycle flag missing from the cycling spec's trace")
    if trace_from_json(trace_to_json(cycle_trace)) != cycle_trace:
        failures.append("cycling trace does not round trip")

    code = cli_main(
        ["run", "--operator", "example_4_1", "--scheme", "krasnoselskij_diagonal",
         "--theta", "1.5", "--x0", "[1]", "--out", str(tmp_path / "bad.json")]
    )
    if code != 1:
        failures.append(f"theta=1.5 exited {code}, expected 1")

    finish("criterion 10: CLI round trip and exit codes", failures, started, 5.0)
