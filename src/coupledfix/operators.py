"""Bivariate operators F: C x C -> R^d on box domains, plus built-in test problems.

Operators carry their domain and metadata (known coupled fixed points, a
range-containment flag, names of closed-form iterate formulas) so the
hypotheses of the convergence results they are used with become checkable
data rather than comments.

Built-in registry (addressable by name from the CLI):

``example_2_1``
    F(x, y) = (x - 2y)/3 on [-1, 1]. Weakly nonexpansive with per-argument
    constants (1/3, 2/3); not nonexpansive in the 1/2-1/2 sense and not a
    strict contraction. Every pair (t, -t) is a coupled fixed point, and
    (0, 0) is the unique one with equal components.
``example_2_2``
    F(x, y) = 4 - x^2 - 2y on [-4, 4]. Not weakly nonexpansive (the
    first-argument ratio approaches 8) and does not map its domain into
    itself, so iteration requires domain guarding. It has exactly four
    coupled fixed points: (-4, -4), (1, 1), (-1, 2), (2, -1).
``example_4_1``
    F(x, y) = -(x + y)/2 on [-1, 1]. Nonexpansive, with (0, 0) as its
    unique coupled fixed point. The plain double iteration oscillates
    (u_{n+1} = -u_n) while the relaxed schemes converge.
``linear``
    The family F(x, y) = A x + B y + c; configurable through the problem
    file format (see the cli module) or ``make_linear_operator``.

All operators are immutable after construction and evaluation is pure, so
instances are safe for concurrent use.

An evaluator that also maps two Python floats to one float, bit for bit with its
(1,)-array form, carries ``takes_floats = True``: the built-ins' and, at d = 1,
``make_linear_operator``'s do, and the engine runs such an operator's d = 1 runs
on floats. The mark rides on the callable, not the operator, so
``dataclasses.replace(f, evaluator=g)`` drops it: a wrapper that reads arrays is
handed arrays, and one that counts calls sees each. A float form must not raise,
and Python raises ``ZeroDivisionError`` where numpy returns inf, so only
evaluators that divide by constants alone are marked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .space import Box, _as_array, _as_tol, _count_nonzero, _max_row_norm, as_vector
from .space import norm  # noqa: F401 (perfbench/tracing.py wraps it here)

__all__ = [
    "NonFiniteEvaluationError",
    "OutputDimensionError",
    "CoupledPair",
    "BivariateOperator",
    "is_coupled_fixed_point",
    "make_linear_operator",
    "example_2_1",
    "example_2_2",
    "example_4_1",
    "get_operator",
    "operator_names",
]


def _takes_floats(evaluator: Callable) -> Callable:
    # Marks an evaluator whose float form is bit for bit its (1,)-array form; see the module docstring.
    evaluator.takes_floats = True
    return evaluator


class NonFiniteEvaluationError(ValueError):
    """An operator produced NaN/Inf output: an operator defect, not an input error."""


class OutputDimensionError(ValueError):
    """An evaluator returned an array whose shape differs from its arguments'.

    A defect of the evaluator (for example one that reads only the first row
    of a block), not a property of the iterates: no run status absorbs it.
    """


@dataclass(eq=False)
class CoupledPair:
    """An ordered pair (x, y) of vectors of equal dimension."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        self.x, self.y = as_vector(self.x, "x"), as_vector(self.y, "y")
        if self.x.shape != self.y.shape:
            raise ValueError(f"pair components differ in dimension: {self.x.shape[0]} vs {self.y.shape[0]}")

    @classmethod
    def _of(cls, x: np.ndarray, y: np.ndarray) -> CoupledPair:
        # Checked 1-D float64 arrays of equal shape, which the caller writes into no more: no copy, no check.
        pair = object.__new__(cls)
        pair.x, pair.y = x, y
        return pair

    @property
    def dim(self) -> int:
        return self.x.shape[0]

    def __iter__(self):
        return iter((self.x, self.y))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoupledPair):
            return NotImplemented
        return np.array_equal(self.x, other.x) and np.array_equal(self.y, other.y)

    def __repr__(self) -> str:
        return f"CoupledPair(x={self.x.tolist()}, y={self.y.tolist()})"


@dataclass(eq=False)
class BivariateOperator:
    """An evaluatable map F over a box domain C, with metadata.

    ``range_in_domain`` declares that F maps C x C into C; it is trusted by
    the iteration engines when deciding whether domain guarding is needed,
    and is spot-checked by sampling in the test suite. ``closed_forms``
    maps scheme names to oracle kinds from the closed_form module, for the
    combinations where an explicit iterate formula is known.
    """

    name: str
    domain: Box
    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    known_coupled_fixed_points: tuple[CoupledPair, ...] = ()
    closed_forms: Mapping[str, str] = field(default_factory=dict)
    range_in_domain: bool = False

    @property
    def dim(self) -> int:
        return self.domain.dim

    def eval(self, x, y, *, _checked: bool = False) -> np.ndarray:
        """Evaluate F at one pair of vectors, or row by row at a block of pairs.

        ``x`` and ``y`` are both vectors of shape (d,), or both arrays of
        shape (n, d) whose rows are evaluated as n separate pairs; the number
        of axes of ``x`` decides which, and one rule checks both. Each
        argument is coerced alone into a fresh copy, so a message names the
        one at fault and the evaluator never sees the caller's arrays. The
        evaluator must return the shape of its arguments, (d,) or (n, d);
        any other shape raises ``OutputDimensionError``. Deterministic and
        side-effect free.

        ``_checked`` is the iteration engine's entry, which it takes twice a
        step, once per argument order: the engine vouches that ``x`` and
        ``y`` are finite float64 rows of shape (d,) that it hands over fresh,
        rows of a block it copied for this call and holds nowhere else. It
        checked its starting pair at entry, and every later row is a relaxed
        combination of finite rows, a clamp, or an image it has counted
        finite. So this entry neither copies nor checks the arguments, and it
        leaves the finiteness count of the image to the engine, which makes
        it once on both images of a step; the image is still coerced with
        ``asarray`` and its shape checked (``OutputDimensionError``). Handed two
        floats, for an evaluator with ``takes_floats``, it returns a ``float`` or raises that.
        """
        if not _checked:
            x, y = _as_array(x, "x"), _as_array(y, "y")  # fresh copies
            # A block when x has two axes, else a vector, into which a 0-d
            # scalar turns; any other shape is named.
            block = x.ndim == 2
            x, y = (v if block else v.reshape(v.shape or (1,)) for v in (x, y))
            for name, v in (("x", x), ("y", y)):
                if v.ndim != 1 + block or not v.size:
                    rule = "a block of rows (n, d)" if block else "a 1-D sequence"
                    raise ValueError(f"{name} must be {rule} of reals, got shape {v.shape}")
            if block and x.shape[0] != y.shape[0]:
                raise ValueError(f"operator {self.name!r} got {x.shape[0]} and {y.shape[0]} rows")
            d, dx, dy = self.dim, x.shape[-1], y.shape[-1]
            if dx != d or dy != d:
                raise ValueError(
                    f"operator {self.name!r} has dimension {d}, got arguments of dimension {dx} and {dy}"
                )
        elif type(x) is float:
            out = self.evaluator(x, y)
            if type(out) is not float:  # np.float64 included
                raise OutputDimensionError(f"operator {self.name!r} returned {type(out).__name__} for floats")
            return out
        out = np.asarray(self.evaluator(x, y), dtype=float)
        if out.shape != x.shape:
            raise OutputDimensionError(f"operator {self.name!r} returned shape {out.shape}, expected {x.shape}")
        if not _checked and _count_nonzero(np.isfinite(out)) != out.size:
            raise NonFiniteEvaluationError(f"operator {self.name!r} returned non-finite output")
        return out


def is_coupled_fixed_point(f: BivariateOperator, pair: CoupledPair, tol: float) -> bool:
    """True iff ``norm(F(x,y) - x) <= tol`` and ``norm(F(y,x) - y) <= tol``.

    The residual is taken as the engine takes it, so the answer is True exactly
    when a run from ``pair`` with this ``tol`` stops converged at step 0; an
    overflowed difference is a residual of inf there too, so the answer is False.
    """
    tol = _as_tol(tol)
    images = (f.eval(pair.x, pair.y), f.eval(pair.y, pair.x))
    with np.errstate(over="ignore"):
        return _max_row_norm(np.array((pair.x, pair.y)) - np.array(images)) <= tol


def _as_square_matrix(value, name: str) -> np.ndarray:
    m = _as_array(value, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    return m


def _interval_range_contained(a: np.ndarray, b: np.ndarray, c: np.ndarray, box: Box) -> bool:
    # Exact componentwise range of A x + B y + c over the box, by interval arithmetic.
    # An overflowed product or sum (inf, or nan from inf - inf) fails a comparison
    # below, so the verdict is False and the engine guards the domain, which is safe.
    lo, hi = c, c  # each sum below makes a new array
    with np.errstate(over="ignore", invalid="ignore"):
        for m in (a, b):
            ml = m * box.lower[None, :]
            mu = m * box.upper[None, :]
            lo = lo + np.minimum(ml, mu).sum(axis=1)
            hi = hi + np.maximum(ml, mu).sum(axis=1)
    return bool((lo >= box.lower).all() and (hi <= box.upper).all())


def make_linear_operator(
    a_matrix,
    b_matrix,
    shift,
    domain: Box,
    name: str = "linear",
    attach_fixed_point: bool | None = None,
) -> BivariateOperator:
    """Build F(x, y) = A x + B y + c on the given box domain.

    ``attach_fixed_point`` decides whether the equal-component coupled
    fixed point solving ``(I - A - B) xbar = c`` is attached to the
    operator metadata: True attaches it (a singular system is a
    ``ValueError``), False attaches nothing, and None, the default,
    attaches it exactly when the spectral norms satisfy
    ``||A|| + ||B|| < 1``. Only None computes the two norms, and only an
    attached point is solved for, so False costs neither; the CLI builds
    its linear operators so, since no command reads the point. Range
    containment in the domain is decided exactly by interval arithmetic.
    """
    a = _as_square_matrix(a_matrix, "a_matrix")
    b = _as_square_matrix(b_matrix, "b_matrix")
    if a.shape != b.shape:
        raise ValueError(f"a_matrix and b_matrix differ in shape: {a.shape} vs {b.shape}")
    c = as_vector(shift, "shift")
    d = a.shape[0]
    if c.shape[0] != d:
        raise ValueError(f"shift has dimension {c.shape[0]}, matrices are {d}x{d}")
    if domain.dim != d:
        raise ValueError(f"domain has dimension {domain.dim}, matrices are {d}x{d}")

    known: tuple[CoupledPair, ...] = ()
    if attach_fixed_point is None:  # the one case that reads the norms, two SVDs
        attach_fixed_point = float(np.linalg.norm(a, 2)) + float(np.linalg.norm(b, 2)) < 1.0
    if attach_fixed_point:
        system = np.eye(d) - a - b
        try:
            xbar = np.linalg.solve(system, c)
        except np.linalg.LinAlgError as exc:
            raise ValueError("fixed point requested but (I - A - B) is singular") from exc
        known = (CoupledPair(xbar, xbar),)

    a1, b1, c1 = a.item(0), b.item(0), c.item(0)  # read only at d = 1
    def evaluator(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        if type(x) is float:
            # a @ x adds the product to 0.0, so [[2.0]] @ [-0.0] is +0.0 where 2.0 * -0.0 is -0.0.
            return (a1 * x + 0.0) + (b1 * y + 0.0) + c1
        if x.ndim == 1:
            return a @ x + b @ y + c
        # One matrix-vector product per row: equal to ``a @ x`` row by row,
        # bit for bit, where ``x @ a.T`` (one GEMM) would round differently.
        return np.matmul(a, x[..., None])[..., 0] + np.matmul(b, y[..., None])[..., 0] + c

    return BivariateOperator(
        name=name,
        domain=domain,
        evaluator=_takes_floats(evaluator) if d == 1 else evaluator,
        known_coupled_fixed_points=known,
        range_in_domain=_interval_range_contained(a, b, c, domain),
    )


def example_2_1() -> BivariateOperator:
    """The skew averaging map (x - 2y)/3 on [-1, 1], componentwise in any dimension."""
    zero = CoupledPair([0.0], [0.0])
    return BivariateOperator(
        name="example_2_1",
        domain=Box([-1.0], [1.0]),
        evaluator=_takes_floats(lambda x, y: (x - 2.0 * y) / 3.0),
        known_coupled_fixed_points=(zero,),
        closed_forms={"picard_double": "picard_example_2_1"},
        range_in_domain=True,
    )


def example_2_2() -> BivariateOperator:
    """The quadratic map 4 - x^2 - 2y on [-4, 4]; does not map its domain into itself."""
    fixed = tuple(
        CoupledPair([px], [py]) for px, py in ((-4.0, -4.0), (1.0, 1.0), (-1.0, 2.0), (2.0, -1.0))
    )
    return BivariateOperator(
        name="example_2_2",
        domain=Box([-4.0], [4.0]),
        evaluator=_takes_floats(lambda x, y: 4.0 - x * x - 2.0 * y),
        known_coupled_fixed_points=fixed,
        range_in_domain=False,
    )


def example_4_1() -> BivariateOperator:
    """The averaging map -(x + y)/2 on [-1, 1]."""
    zero = CoupledPair([0.0], [0.0])
    return BivariateOperator(
        name="example_4_1",
        domain=Box([-1.0], [1.0]),
        evaluator=_takes_floats(lambda x, y: -(x + y) / 2.0),
        known_coupled_fixed_points=(zero,),
        closed_forms={
            "krasnoselskij_diagonal": "krasnoselskij_example_4_1",
            "krasnoselskij_double": "double_krasnoselskij_example_2_1",
        },
        range_in_domain=True,
    )


_BUILDERS: dict[str, Callable[[], BivariateOperator]] = {
    "example_2_1": example_2_1,
    "example_2_2": example_2_2,
    "example_4_1": example_4_1,
}


def operator_names() -> tuple[str, ...]:
    """Registry names usable with :func:`get_operator` (plus 'linear' via the CLI)."""
    return tuple(sorted(_BUILDERS))


def get_operator(name: str) -> BivariateOperator:
    """Fresh instance of a registered operator."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown operator {name!r}; registered names: {', '.join(operator_names())}"
        ) from None
    return builder()
