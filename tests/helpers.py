"""Shared generators for test problems, and reference trace writers."""

from __future__ import annotations

import json
import math

import numpy as np

from coupledfix import BivariateOperator, Box, make_linear_operator
from coupledfix.trace_io import format_float


def reference_norm(v):
    """The norm of a vector written out on its own, so the library's one scaled path has a check.

    A square in [2**-968, inf) gives sqrt(dot(v, v)); any other nonzero vector is divided by
    its largest |coordinate| first, and a zero, infinite or NaN vector gives that coordinate.
    """
    sq = float(np.dot(v, v))
    if 2.0**-968 <= sq < math.inf:
        return math.sqrt(sq)
    scale = float(np.abs(v).max())
    if not 0.0 < scale < math.inf:
        return scale
    w = v / scale
    return scale * math.sqrt(float(np.dot(w, w)))


def random_linear_operator(rng, d=None, norm_sum=None, radius=2.0, name="linear"):
    """Random linear-family operator that maps its box domain into itself.

    Both matrices are scaled so that the spectral norm AND the max-row-sum
    norm stay below their share of ``norm_sum``; the box is centered at the
    solved fixed point with the given radius, so F(C x C) stays inside C by
    the row-sum bound and the attached fixed point is interior.
    """
    if d is None:
        d = int(rng.integers(1, 21))
    if norm_sum is None:
        norm_sum = float(rng.uniform(0.3, 0.945))
    split = float(rng.uniform(0.15, 0.85))
    targets = (norm_sum * split, norm_sum * (1.0 - split))
    mats = []
    for target in targets:
        m = rng.standard_normal((d, d))
        scale = max(np.linalg.norm(m, 2), np.linalg.norm(m, np.inf))
        mats.append(m * (target / scale))
    a, b = mats
    xbar = rng.uniform(-radius / 2, radius / 2, size=d)
    c = (np.eye(d) - a - b) @ xbar
    box = Box(xbar - radius, xbar + radius)
    return make_linear_operator(a, b, c, box, name=name)


def dyadic_linear(d):
    # Entries are multiples of 1/(16 d), so the matrices hold exactly and
    # ||A|| + ||B|| <= ||A||_F + ||B||_F <= 1/2 + 1/2: never refuted by a + b.
    rng = np.random.default_rng(100 + d)
    a = rng.integers(-8, 9, size=(d, d)) / (16.0 * d)
    b = rng.integers(-8, 9, size=(d, d)) / (16.0 * d)
    c = rng.integers(-8, 9, size=d) / 16.0
    return make_linear_operator(a, b, c, Box(-2.0 * np.ones(d), 2.0 * np.ones(d)), name=f"linear_{d}")


def sample_in_box(rng, box, n=None):
    if n is None:
        return rng.uniform(box.lower, box.upper)
    return rng.uniform(box.lower, box.upper, size=(n, box.dim))


def escaper():
    # Claims to be a self-map but pushes points outside its box.
    return BivariateOperator(
        name="escaper", domain=Box([-1.0], [1.0]), evaluator=lambda x, y: x + 1.5, range_in_domain=True
    )


def undefined_outside():
    return BivariateOperator(
        name="undefined_outside",
        domain=Box([-1.0], [1.0]),
        evaluator=lambda x, y: np.where(np.abs(x) <= 1.0, 1.5 * x, np.nan),
        range_in_domain=True,
    )


def blowup():
    return BivariateOperator(
        name="blowup",
        domain=Box([-np.finfo(float).max], [np.finfo(float).max]),
        evaluator=lambda x, y: x * 1e250,
        range_in_domain=True,
    )


# Reference writers: the trace formats spelt out value by value, one
# format_float call per number, for the writers' byte-equality tests.


def _reference_number(v) -> str:
    return "1e999" if v == math.inf else format_float(v)


def _reference_array(values) -> str:
    return "[" + ", ".join(_reference_number(v) for v in values) + "]"


def reference_trace_to_json(trace) -> str:
    cfg = trace.scheme_config
    entries = [
        f'    {{"n": {n}, "x": {_reference_array(p.x.tolist())}, "y": {_reference_array(p.y.tolist())}}}'
        for n, p in zip(trace.step_indices, trace.iterates)
    ]
    dists = trace.distances_to_target
    fields = {
        "scheme": json.dumps(cfg.scheme),
        "theta": format_float(cfg.theta),
        "tol": format_float(cfg.tol),
        "status": json.dumps(trace.status),
        "iterates": "[\n" + ",\n".join(entries) + "\n  ]",
        "residuals": _reference_array(trace.residuals),
        "distances": "null" if dists is None else _reference_array(dists),
        "operator_name": json.dumps(trace.operator_name),
        "seed": str(cfg.seed),
        "max_iter": str(cfg.max_iter),
        "guard_domain": json.dumps(cfg.guard_domain),
        "cycle_detected": json.dumps(bool(trace.cycle_detected)),
    }
    return "{\n" + ",\n".join(f'  "{key}": {value}' for key, value in fields.items()) + "\n}\n"


def reference_trace_to_csv(trace) -> str:
    d = trace.iterates[0].dim
    header = ["n", *(f"x{i}" for i in range(d)), *(f"y{i}" for i in range(d)), "residual", "distance_to_target"]
    lines = [",".join(header)]
    dists = trace.distances_to_target
    for k, (n, p) in enumerate(zip(trace.step_indices, trace.iterates)):
        cells = [str(n), *map(format_float, p.x.tolist()), *map(format_float, p.y.tolist())]
        cells.append(format_float(trace.residuals[k]))
        cells.append("" if dists is None else format_float(dists[k]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
