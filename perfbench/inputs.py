"""Seeded inputs for the benchmark, and the reference values its checks use.

Everything here is computed by the benchmark with numpy from the seed
alone; nothing is taken from coupledfix, so the checks stay independent of
the program they check.

Linear problems are F(x, y) = A x + B y + c with A = Q diag(alpha) Q^T and
B = Q diag(beta) Q^T for a seeded random rotation Q. The eigenvalues are
fixed and only the rotation, the fixed point and the start directions
depend on the seed. So the contraction rate, and with it the step count
and the cost of a run, is nearly the same on every seed, while the
matrices are still dense and differ from seed to seed. Half of the modes
sit at alpha + beta = ||A||_2 + ||B||_2 = L, so the rate bound
q = 1 - theta + theta L is attained and the step-count check is tight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NORM_A = 0.45
NORM_B = 0.35
BOX_RADIUS = 10.0
START_RADIUS = 1.0


@dataclass
class LinearProblem:
    """A seeded linear problem and the numbers the checks need."""

    d: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    xbar: np.ndarray
    x0: np.ndarray
    y0: np.ndarray
    norm_a: float
    norm_b: float

    @property
    def lipschitz_sum(self) -> float:
        return self.norm_a + self.norm_b

    def image(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return self.a @ x + self.b @ y + self.c

    def residual(self, x: np.ndarray, y: np.ndarray) -> float:
        return max(
            float(np.linalg.norm(x - self.image(x, y))),
            float(np.linalg.norm(y - self.image(y, x))),
        )


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def linear_problem(rng: np.random.Generator, d: int) -> LinearProblem:
    slow = (d + 1) // 2
    t = np.linspace(-1.0, 1.0, d - slow)
    alpha = NORM_A * np.concatenate([np.ones(slow), t])
    beta = NORM_B * np.concatenate([np.ones(slow), -t])
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.diag(r))
    a = (q * alpha) @ q.T
    b = (q * beta) @ q.T
    xbar = rng.uniform(-1.0, 1.0, d)
    c = (np.eye(d) - a - b) @ xbar
    # The start error has equal shares in the slow and the other modes, in
    # a seeded direction within each, so that every seed needs about the
    # same number of steps. y0 sits halfway between x0 and the fixed point.
    g = q.T @ rng.standard_normal(d)
    err = _unit(g[:slow]) if d == 1 else np.concatenate([_unit(g[:slow]), _unit(g[slow:])]) / math.sqrt(2.0)
    err = START_RADIUS * (q @ err)
    return LinearProblem(
        d=d,
        a=a,
        b=b,
        c=c,
        xbar=np.linalg.solve(np.eye(d) - a - b, c),
        x0=xbar + err,
        y0=xbar + 0.5 * err,
        norm_a=float(np.linalg.norm(a, 2)),
        norm_b=float(np.linalg.norm(b, 2)),
    )


def literal(v) -> str:
    """Bracketed literal with every float written to round-trip exactly."""
    return repr(np.asarray(v, dtype=float).tolist())


def write_problem(path: str, entries: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in entries.items():
            fh.write(f"{key} = {value}\n")
    return path


def linear_entries(p: LinearProblem) -> dict:
    return {
        "operator": "linear",
        "a_matrix": literal(p.a),
        "b_matrix": literal(p.b),
        "shift": literal(p.c),
        "lower": literal(np.full(p.d, -BOX_RADIUS)),
        "upper": literal(np.full(p.d, BOX_RADIUS)),
    }


def step_bound(r0: float, q: float, tol: float) -> int:
    """Steps after which a residual contracted by q per step is below tol, plus one."""
    if r0 <= tol:
        return 1
    return math.ceil(math.log(tol / r0) / math.log(q)) + 1


# Closed forms of the two scalar examples under the relaxed schemes. The
# residual max(|x - F(x, y)|, |y - F(y, x)|) of each is a function of the
# sum s = x + y and the difference d = x - y, which scale by fixed factors
# per step; the predicted count is the first n where it is within tol.


def example_residual(operator: str, scheme: str, theta: float, x0: float, y0: float, n: int) -> float:
    if scheme == "krasnoselskij_diagonal":
        y0 = x0
    s0, d0 = x0 + y0, x0 - y0
    if operator == "example_4_1":
        # F = -(x + y)/2: s scales by 1 - 2 theta, d by 1 - theta.
        s, dd = s0 * (1.0 - 2.0 * theta) ** n, d0 * (1.0 - theta) ** n
        return abs(s) + abs(dd) / 2.0
    if operator == "example_2_1":
        # F = (x - 2y)/3: s scales by 1 - 4 theta / 3, d is unchanged.
        s = s0 * (1.0 - 4.0 * theta / 3.0) ** n
        return 2.0 * abs(s) / 3.0
    raise ValueError(operator)


def example_steps(operator: str, scheme: str, theta: float, x0: float, y0: float, tol: float) -> int:
    n = 0
    while example_residual(operator, scheme, theta, x0, y0, n) > tol:
        n += 1
    return n


def example_limit(operator: str, scheme: str, x0: float, y0: float) -> tuple[float, float]:
    if operator == "example_2_1" and scheme != "krasnoselskij_diagonal":
        return (x0 - y0) / 2.0, (y0 - x0) / 2.0
    return 0.0, 0.0


def example_image(operator: str, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The example operators, written out by the benchmark."""
    if operator == "example_2_1":
        return (x - 2.0 * y) / 3.0
    if operator == "example_2_2":
        return 4.0 - x * x - 2.0 * y
    if operator == "example_4_1":
        return -(x + y) / 2.0
    raise ValueError(operator)


def signed_start(rng: np.random.Generator) -> float:
    """A start in [-1, -0.5] or [0.5, 1], so no run starts next to its limit."""
    return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.0))

