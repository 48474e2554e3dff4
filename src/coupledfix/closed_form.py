"""Closed-form iterate formulas used as ground truth for the iteration engines.

Each oracle kind is a literal transcription of an explicit formula for the
iterates of one of the built-in operators:

``picard_example_2_1``
    x_n = ((x0 - y0) + (-1/3)^n (x0 + y0)) / 2
    y_n = ((y0 - x0) + (-1/3)^n (x0 + y0)) / 2
    These are the iterates of the plain double iteration
    x_{n+1} = F(x_n, y_n), y_{n+1} = F(y_n, x_n) for F(x, y) = (x - 2y)/3.
    The difference x_n - y_n is invariant, so the limit is
    ((x0 - y0)/2, (y0 - x0)/2), which equals (0, 0) only when x0 = y0.

``krasnoselskij_example_4_1``
    x_n = (1 - 2*lam)^n x0, paired as (x_n, x_n).
    These are the iterates of x_{n+1} = (1 - lam) x_n + lam F(x_n, x_n)
    for the averaging operator F(x, y) = -(x + y)/2, i.e. lam is the
    weight placed on the operator image.

``double_krasnoselskij_example_2_1``
    x_n = ((1-lam)^n (x0 - y0) + (1-2*lam)^n (x0 + y0)) / 2
    y_n = ((1-lam)^n (y0 - x0) + (1-2*lam)^n (x0 + y0)) / 2
    These are the iterates of the componentwise relaxed double scheme
    x_{n+1} = (1-lam) x_n + lam F(x_n, y_n),
    y_{n+1} = (1-lam) y_n + lam F(y_n, x_n),
    again for the averaging operator F(x, y) = -(x + y)/2. Despite its
    name, this kind is the averaging map's formula: it is registered on
    ``example_4_1``, and the skew operator ``example_2_1`` does NOT
    generate it. The name is kept because callers already use it.

The skew operator F(x, y) = (x - 2y)/3 under the same relaxed double
scheme has no oracle kind of its own. Since F(x, y) - F(y, x) = x - y and
F(x, y) + F(y, x) = -(x + y)/3, the difference is unchanged and the sum
is scaled by 1 - 4*lam/3 per step:
    x_n = ((x0 - y0) + (1 - 4*lam/3)^n (x0 + y0)) / 2
    y_n = ((y0 - x0) + (1 - 4*lam/3)^n (x0 + y0)) / 2
so its pair iterates converge to ((x0-y0)/2, (y0-x0)/2), which is (0, 0)
only when x0 = y0. Acceptance criterion 3 checks the engine against this
formula.

Powers are accumulated by repeated multiplication (not ``pow``), so the
oracle's rounding path stays close to the engine's: ``oracle_iterate`` in a
scalar loop, ``oracle_trace`` with one ``np.multiply.accumulate`` over the
step weights, which multiplies in the same order. ``oracle_trace``
evaluates the formulas for all n at once, as one block of x rows and one of
y rows, and gives the same bits as ``oracle_iterate`` at each n; row 0 is
the initial pair exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import CoupledPair
from .space import _as_count, _as_number, as_vector

__all__ = [
    "PICARD_EXAMPLE_2_1",
    "KRASNOSELSKIJ_EXAMPLE_4_1",
    "DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1",
    "ORACLE_KINDS",
    "OracleHandle",
    "oracle_iterate",
    "oracle_trace",
    "oracle_limit",
    "engine_theta",
]

PICARD_EXAMPLE_2_1 = "picard_example_2_1"
KRASNOSELSKIJ_EXAMPLE_4_1 = "krasnoselskij_example_4_1"
DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1 = "double_krasnoselskij_example_2_1"

ORACLE_KINDS = (
    PICARD_EXAMPLE_2_1,
    KRASNOSELSKIJ_EXAMPLE_4_1,
    DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1,
)

_KINDS_WITH_LAM = (KRASNOSELSKIJ_EXAMPLE_4_1, DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1)
_KINDS_WITH_Y0 = (PICARD_EXAMPLE_2_1, DOUBLE_KRASNOSELSKIJ_EXAMPLE_2_1)


@dataclass(frozen=True, eq=False)
class OracleHandle:
    """A closed-form formula instantiated with initial values (and weight ``lam``)."""

    kind: str
    x0: np.ndarray
    y0: np.ndarray | None = None
    lam: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in ORACLE_KINDS:
            raise ValueError(f"unknown oracle kind {self.kind!r}")
        x0 = as_vector(self.x0, "x0")
        object.__setattr__(self, "x0", x0)
        if self.kind in _KINDS_WITH_Y0:
            if self.y0 is None:
                raise ValueError(f"oracle kind {self.kind!r} requires y0")
            y0 = as_vector(self.y0, "y0")
            if y0.shape != x0.shape:
                raise ValueError("x0 and y0 must have equal dimension")
            object.__setattr__(self, "y0", y0)
        elif self.y0 is not None:
            y0 = as_vector(self.y0, "y0")
            if not np.array_equal(y0, x0):
                raise ValueError(f"oracle kind {self.kind!r} is diagonal; y0 must equal x0")
            object.__setattr__(self, "y0", y0)
        if self.kind in _KINDS_WITH_LAM:
            lam = None if self.lam is None else _as_number(self.lam, "lam")
            if lam is None or not 0.0 < lam < 1.0:
                raise ValueError(f"oracle kind {self.kind!r} requires lam in (0, 1), got {self.lam}")
            object.__setattr__(self, "lam", lam)


def _weights(h: OracleHandle) -> tuple[float, float]:
    # The difference and sum weights: p_slow and p_fast at n are their n-th powers.
    if h.kind == PICARD_EXAMPLE_2_1:
        return 1.0, -1.0 / 3.0
    return 1.0 - h.lam, 1.0 - 2.0 * h.lam


def _powers(h: OracleHandle, n_max: int) -> np.ndarray:
    # Rows p_slow and p_fast for n = 0..n_max: running products of the weights.
    # accumulate multiplies in order, once per step, as oracle_iterate's loop does.
    slow, fast = _weights(h)
    factors = np.empty((2, n_max + 1))
    factors[:, 0] = 1.0
    factors[0, 1:], factors[1, 1:] = slow, fast
    return np.multiply.accumulate(factors, axis=1)


def oracle_iterate(h: OracleHandle, n: int) -> CoupledPair:
    """The n-th iterate pair of the formula; n = 0 returns the initial values exactly."""
    n = _as_count(n, "n", 0)
    # CoupledPair copies both components, so the pair never aliases h.
    if n == 0:
        return CoupledPair(h.x0, h.x0 if h.y0 is None else h.y0)
    # A scalar loop, not _powers' block, so a single iterate takes O(1) memory.
    slow, fast = _weights(h)
    p_slow = p_fast = 1.0
    for _ in range(n):
        p_slow *= slow
        p_fast *= fast
    if h.kind == KRASNOSELSKIJ_EXAMPLE_4_1:
        x = p_fast * h.x0
        return CoupledPair(x, x)
    half_sum = 0.5 * p_fast * (h.x0 + h.y0)
    half_diff = 0.5 * p_slow * (h.x0 - h.y0)
    return CoupledPair(half_diff + half_sum, -half_diff + half_sum)


def oracle_trace(h: OracleHandle, n_max: int) -> list[CoupledPair]:
    """Iterates 0..n_max inclusive, bit-identical to per-index ``oracle_iterate`` calls."""
    n_max = _as_count(n_max, "n_max", 0)
    # The formulas of oracle_iterate, a (n_max + 1, d) block each: row n is pair n.
    p_slow, p_fast = _powers(h, n_max)[:, :, None]
    if h.kind == KRASNOSELSKIJ_EXAMPLE_4_1:
        xs = p_fast * h.x0
        ys = xs.copy()
    else:
        half_sum = (0.5 * p_fast) * (h.x0 + h.y0)
        half_diff = (0.5 * p_slow) * (h.x0 - h.y0)
        xs = half_diff + half_sum
        ys = half_sum - half_diff
    xs[0], ys[0] = h.x0, h.x0 if h.y0 is None else h.y0
    # Each pair holds one row of xs and one of ys, which no other pair and not h holds.
    return list(map(CoupledPair._of, xs, ys))


def oracle_limit(h: OracleHandle) -> CoupledPair:
    """The analytic limit of the formula as n grows."""
    if h.kind == PICARD_EXAMPLE_2_1:
        half_diff = 0.5 * (h.x0 - h.y0)
        return CoupledPair(half_diff, -half_diff)
    # Both relaxed kinds contract to the origin, since |1 - lam| < 1 and
    # |1 - 2*lam| < 1 on (0, 1), and OracleHandle admits no lam outside it.
    zero = np.zeros_like(h.x0)
    return CoupledPair(zero, zero.copy())


def engine_theta(h: OracleHandle) -> float | None:
    """Relaxation weight theta for which the engines reproduce this formula.

    The engines always place theta on the operator image, which is exactly
    the role ``lam`` plays in the formulas above, so the mapping is the
    identity. Returns None for the plain (unrelaxed) double iteration.
    """
    if h.kind == PICARD_EXAMPLE_2_1:
        return None
    return h.lam
