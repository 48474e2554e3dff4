"""Correctness checks on the program's outputs.

Each check returns a list of problems, empty when the output is correct.
The expected values are computed here with numpy from the seeded inputs, or
are properties the method must have; none is a stored copy of an earlier
output. Tolerances follow the test suite's convention: two values agree to
``rel`` when ``|u - v| <= rel * (1 + |v|)``.
"""

from __future__ import annotations

import json

import numpy as np

import inputs as inp

EPS = np.finfo(float).eps
AGREE = 1e-12
# coupledfix keeps every iterate up to this many trace entries, and
# every k-th one (k minimal) beyond it; see its README.
TRACE_CAP = 100_000


def agree(u, v, rel: float = AGREE) -> bool:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u.shape == v.shape and bool(np.all(np.abs(u - v) <= rel * (1.0 + np.abs(v))))


def bitwise_equal(u, v) -> bool:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u.shape == v.shape and np.array_equal(u.view(np.int64), v.view(np.int64))


# --------------------------------------------------------------------- sweep

SWEEP_HEADER = "theta,iterations,final_residual,status"


def parse_sweep(text: str) -> list[tuple[float, int, float, str]]:
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        raise ValueError(f"unexpected sweep header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        theta, n, r, status = line.split(",")
        rows.append((float(theta), int(n), float(r), status))
    return rows


def sweep_rows(text: str, spec: dict, scheme: str, grid, tol: float) -> list[str]:
    """Every row converged within tol, in no more steps than the method allows."""
    try:
        rows = parse_sweep(text)
    except ValueError as exc:
        return [f"malformed sweep output: {exc}"]
    if [r[0] for r in rows] != sorted(grid):
        return [f"sweep rows cover thetas {[r[0] for r in rows]}, expected {sorted(grid)}"]
    problems = []
    for theta, n, r, status in rows:
        where = f"{spec['operator']} {scheme} theta={theta}"
        if status != "converged":
            problems.append(f"{where}: status {status!r}, expected 'converged'")
        if not r <= tol:
            problems.append(f"{where}: final residual {r!r} above tol {tol!r}")
        if spec["operator"] == "linear":
            p: inp.LinearProblem = spec["problem"]
            y0 = p.x0 if scheme == "krasnoselskij_diagonal" else p.y0
            q = 1.0 - theta + theta * p.lipschitz_sum
            bound = inp.step_bound(p.residual(p.x0, y0), q, tol)
            if n > bound:
                problems.append(f"{where}: {n} steps, the contraction bound allows {bound}")
        else:
            want = inp.example_steps(spec["operator"], scheme, theta, spec["x0"][0], spec["y0"][0], tol)
            if abs(n - want) > 1:
                problems.append(f"{where}: {n} steps, the closed form predicts {want}")
    return problems


def sweep_final_pair(trace, row, spec: dict, scheme: str, tol: float) -> list[str]:
    """The library run matches the CLI row and ends where the mathematics says."""
    theta, n, r, status = row
    where = f"{spec['operator']} {scheme} theta={theta}"
    problems = []
    if (trace.n_steps, trace.final_residual, trace.status) != (n, r, status):
        problems.append(
            f"{where}: library run gives {(trace.n_steps, trace.final_residual, trace.status)}, "
            f"CLI row gives {(n, r, status)}"
        )
    x, y = trace.final_pair.x, trace.final_pair.y
    if spec["operator"] == "linear":
        p: inp.LinearProblem = spec["problem"]
        lx = ly = p.xbar
        # A residual r bounds the distance to the fixed point by r / (1 - L).
        allowed = tol / (1.0 - p.lipschitz_sum)
    else:
        lx, ly = (np.array([v]) for v in inp.example_limit(spec["operator"], scheme, spec["x0"][0], spec["y0"][0]))
        allowed = tol
    allowed += 1e-12 * (1.0 + float(np.linalg.norm(lx)))
    dist = max(float(np.linalg.norm(x - lx)), float(np.linalg.norm(y - ly)))
    if not dist <= allowed:
        problems.append(f"{where}: final pair is {dist:.3e} from the fixed point, allowed {allowed:.3e}")
    return problems


# ---------------------------------------------------------------- long_trace


def _stride(max_iter: int) -> int:
    return 1 if max_iter + 1 <= TRACE_CAP else -(-(max_iter + 1) // TRACE_CAP)


def _trace_properties(steps, xs, ys, residuals, distances, spec, cfg, tol) -> list[str]:
    """Stride, convergence, and residuals recomputed from the recorded iterates."""
    p: inp.LinearProblem = spec["problem"]
    problems = []
    stride = _stride(cfg.max_iter)
    final = steps[-1]
    expected = list(range(0, final, stride))
    expected.append(final)
    if list(steps) != expected:
        problems.append(f"recorded steps are not the multiples of {stride} plus the final step {final}")
    fx = xs @ p.a.T + ys @ p.b.T + p.c
    fy = ys @ p.a.T + xs @ p.b.T + p.c
    res = np.maximum(np.linalg.norm(xs - fx, axis=1), np.linalg.norm(ys - fy, axis=1))
    if not agree(residuals, res):
        worst = float(np.max(np.abs(np.asarray(residuals) - res)))
        problems.append(f"recorded residuals differ from recomputed ones by up to {worst:.3e}")
    if not residuals[-1] <= tol:
        problems.append(f"final residual {residuals[-1]!r} above tol {tol!r}")
    target = spec["target"]
    if (distances is None) != (target is None):
        problems.append("distances present without a target, or missing with one")
    elif target is not None:
        dist = np.maximum(np.linalg.norm(xs - target, axis=1), np.linalg.norm(ys - target, axis=1))
        if not agree(distances, dist):
            problems.append("recorded distances differ from recomputed ones")
    return problems


def _memory_columns(trace):
    xs = np.array([pair.x for pair in trace.iterates])
    ys = np.array([pair.y for pair in trace.iterates])
    return xs, ys


def trace_json(text: str, trace, spec: dict, cfg, tol: float) -> list[str]:
    """A JSON trace parsed with json.loads equals the in-memory trace bitwise."""
    try:
        doc = json.loads(text)
        steps = [int(e["n"]) for e in doc["iterates"]]
        xs = np.array([e["x"] for e in doc["iterates"]], dtype=float)
        ys = np.array([e["y"] for e in doc["iterates"]], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed JSON trace: {exc!r}"]
    mx, my = _memory_columns(trace)
    rc = trace.scheme_config
    problems = []
    header = {
        "scheme": rc.scheme, "theta": rc.theta, "tol": rc.tol, "status": trace.status,
        "operator_name": trace.operator_name, "seed": rc.seed, "max_iter": rc.max_iter,
        "guard_domain": rc.guard_domain, "cycle_detected": trace.cycle_detected,
    }
    for key, want in header.items():
        got = doc.get(key)
        same = bitwise_equal(got, want) if isinstance(want, float) else got == want
        if not same:
            problems.append(f"JSON {key} is {got!r}, in-memory trace has {want!r}")
    if doc.get("status") != "converged":
        problems.append(f"status {doc.get('status')!r}, expected 'converged'")
    if steps != trace.step_indices:
        problems.append("JSON step indices differ from the in-memory trace")
    if not (bitwise_equal(xs, mx) and bitwise_equal(ys, my)):
        problems.append("JSON iterates differ from the in-memory trace")
    if not bitwise_equal(doc["residuals"], trace.residuals):
        problems.append("JSON residuals differ from the in-memory trace")
    dist = doc["distances"]
    if (dist is None) != (trace.distances_to_target is None) or (
        dist is not None and not bitwise_equal(dist, trace.distances_to_target)
    ):
        problems.append("JSON distances differ from the in-memory trace")
    if problems:
        return problems
    return _trace_properties(steps, xs, ys, doc["residuals"], dist, spec, cfg, tol)


def trace_csv(text: str, trace, spec: dict, cfg, tol: float) -> list[str]:
    """A CSV trace parsed with float() equals the in-memory trace bitwise."""
    lines = text.splitlines()
    d = trace.iterates[0].dim
    header = ["n"] + [f"x{i}" for i in range(d)] + [f"y{i}" for i in range(d)] + ["residual", "distance_to_target"]
    if not lines or lines[0].split(",") != header:
        return ["CSV header is not n, x0.., y0.., residual, distance_to_target"]
    try:
        cells = [line.split(",") for line in lines[1:]]
        steps = [int(c[0]) for c in cells]
        table = np.array([[float(v) for v in c[1 : 2 * d + 2]] for c in cells], dtype=float)
        dist = None if trace.distances_to_target is None else [float(c[2 * d + 2]) for c in cells]
    except (ValueError, IndexError) as exc:
        return [f"malformed CSV trace: {exc!r}"]
    if table.shape != (len(trace.step_indices), 2 * d + 1):
        return [f"CSV has {table.shape} values, in-memory trace has {len(trace.step_indices)} rows"]
    xs, ys, residuals = table[:, :d], table[:, d : 2 * d], table[:, 2 * d]
    if trace.distances_to_target is None and any(c[2 * d + 2] for c in cells):
        return ["CSV has distances but the trace has no target"]
    mx, my = _memory_columns(trace)
    problems = []
    if steps != trace.step_indices:
        problems.append("CSV step indices differ from the in-memory trace")
    if not (bitwise_equal(xs, mx) and bitwise_equal(ys, my) and bitwise_equal(residuals, trace.residuals)):
        problems.append("CSV values differ from the in-memory trace")
    if dist is not None and not bitwise_equal(dist, trace.distances_to_target):
        problems.append("CSV distances differ from the in-memory trace")
    if trace.status != "converged":
        problems.append(f"status {trace.status!r}, expected 'converged'")
    if problems:
        return problems
    return _trace_properties(steps, xs, ys, list(residuals), dist, spec, cfg, tol)


# ------------------------------------------------------------------- analyze

# Per-argument Lipschitz constants of the examples: F = (x - 2y)/3 has
# (1/3, 2/3), F = -(x + y)/2 has (1/2, 1/2), and F = 4 - x^2 - 2y on
# [-4, 4] has (sup |x + u| = 8, 2). The first two are linear maps of one
# variable, so every axis ratio equals the constant up to rounding.
KNOWN_CONSTANTS = {
    "example_2_1": (1.0 / 3.0, 2.0 / 3.0, True),
    "example_4_1": (0.5, 0.5, True),
    "example_2_2": (8.0, 2.0, False),
}


def expected_labels(a: float, b: float) -> set[str]:
    """Labels implied by the constants of an operator with these axis ratios.

    Along an axis the ratio reaches max(a, b), and no quadruple does better
    than a||x-u|| + b||y-v||. So weak nonexpansiveness fails exactly when
    max(a, b) > 1 (given a + b <= 1 otherwise), the 1/2-1/2 form exactly
    when max(a, b) > 1/2, and a strict contraction exactly when a + b >= 1.
    """
    return {
        "refuted_weakly_nonexpansive" if max(a, b) > 1.0 else "weakly_nonexpansive_candidate",
        "refuted_nonexpansive" if max(a, b) > 0.5 else "nonexpansive_candidate",
        "refuted_contraction" if a + b >= 1.0 else "contraction_candidate",
    }


def _witness_ratio(kind: str, w: dict, image) -> tuple[float, float]:
    """The witness ratio from its quadruple, and a rounding allowance for it."""
    x, y, u, v = (np.asarray(w[k], dtype=float) for k in ("x", "y", "u", "v"))
    df = float(np.linalg.norm(image(x, y) - image(u, v)))
    du = float(np.linalg.norm(x - u))
    dv = float(np.linalg.norm(y - v))
    denom = {
        "axis_ratio_a": du,
        "axis_ratio_b": dv,
        "nonexpansive_violation": (du + dv) / 2.0,
        "weakly_nonexpansive_violation": max(du, dv),
    }[kind]
    scale = 1.0 + max(float(np.abs(c).max()) for c in (x, y, u, v))
    return df / denom, 64.0 * EPS * scale / denom


def analyze_report(text: str, spec: dict) -> list[str]:
    try:
        doc = json.loads(text)
        a_hat, b_hat = float(doc["a_hat"]), float(doc["b_hat"])
        witnesses = doc["witnesses"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed analyze report: {exc!r}"]
    name = spec["operator"]
    if name == "linear":
        p: inp.LinearProblem = spec["problem"]
        a, b, exact = p.norm_a, p.norm_b, False
        image = p.image
    else:
        a, b, exact = KNOWN_CONSTANTS[name]
        image = lambda x, y: inp.example_image(name, x, y)
    problems = []
    if doc.get("operator") != name:
        problems.append(f"report names operator {doc.get('operator')!r}, expected {name!r}")
    allowance = {}
    for w in witnesses:
        try:
            ratio, slack = _witness_ratio(w["kind"], w, image)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"malformed witness: {exc!r}")
            continue
        if not agree(w["ratio"], ratio):
            problems.append(f"{w['kind']} witness ratio {w['ratio']!r}, recomputed {ratio!r}")
        allowance[w["kind"]] = AGREE + slack
    for label, hat, bound in (("a_hat", a_hat, a), ("b_hat", b_hat, b)):
        kind = "axis_ratio_a" if label == "a_hat" else "axis_ratio_b"
        slack = allowance.get(kind, AGREE) * (1.0 + bound)
        if not hat <= bound + slack:
            problems.append(f"{name}: {label} = {hat!r} exceeds its bound {bound!r}")
        if exact and not hat >= bound - slack:
            problems.append(f"{name}: {label} = {hat!r} below the constant {bound!r}")
    want = expected_labels(a, b)
    got = set(doc.get("classification", ()))
    if got != want:
        problems.append(f"{name}: labels {sorted(got)}, the constants imply {sorted(want)}")
    return problems


# ------------------------------------------------------------ paper_examples


def formula_pair(kind: str, theta, x0: float, y0: float, n: int) -> tuple[float, float]:
    """The closed forms of the paper's examples, evaluated with ``**``."""
    s0, d0 = x0 + y0, x0 - y0
    if kind == "picard_example_2_1":
        fast, slow = (-1.0 / 3.0) ** n, 1.0
    elif kind == "krasnoselskij_example_4_1":
        x = (1.0 - 2.0 * theta) ** n * x0
        return x, x
    else:
        fast, slow = (1.0 - 2.0 * theta) ** n, (1.0 - theta) ** n
    return (slow * d0 + fast * s0) / 2.0, (-slow * d0 + fast * s0) / 2.0


def paper_example(trace, oracle, operator, kind, theta, x0, y0, tol, sample_rng) -> list[str]:
    problems = []
    if trace.status != "converged":
        problems.append(f"status {trace.status!r}, expected 'converged'")
    if len(oracle) != trace.n_steps + 1:
        return problems + [f"oracle has {len(oracle)} iterates for {trace.n_steps} steps"]
    ex = np.array([pair.x[0] for pair in trace.iterates])
    ey = np.array([pair.y[0] for pair in trace.iterates])
    idx = np.asarray(trace.step_indices)
    ox = np.array([pair.x[0] for pair in oracle])[idx]
    oy = np.array([pair.y[0] for pair in oracle])[idx]
    close = (np.abs(ex - ox) <= AGREE * (1.0 + np.abs(ox))) & (np.abs(ey - oy) <= AGREE * (1.0 + np.abs(oy)))
    if not close.all():
        problems.append(f"engine and oracle differ at step {int(idx[np.argmin(close)])}")
    n = trace.n_steps
    picks = {0, 1, n // 3, n // 2, n, *sample_rng.integers(0, n + 1, size=3).tolist()}
    for k in sorted(picks):
        fx, fy = formula_pair(kind, theta, x0, y0, k)
        if not (agree(oracle[k].x[0], fx) and agree(oracle[k].y[0], fy)):
            problems.append(f"oracle iterate {k} is {oracle[k]}, the formula gives ({fx!r}, {fy!r})")
    if kind == "picard_example_2_1":
        lx, ly = (x0 - y0) / 2.0, (y0 - x0) / 2.0
    else:
        lx = ly = 0.0
    fin = trace.final_pair
    if not max(abs(fin.x[0] - lx), abs(fin.y[0] - ly)) <= tol + 1e-12:
        problems.append(f"{operator}: final pair {fin} is not within {tol} of ({lx!r}, {ly!r})")
    return problems
