"""Primitives for finite-dimensional real inner-product spaces.

Vectors are 1-D float64 numpy arrays. Every public operation validates
dimensions and rejects non-finite coordinates; mismatched dimensions are
hard errors, never broadcast. Domains are boxes (products of closed
intervals), which are bounded, closed and convex by construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

# count_nonzero without np.count_nonzero's Python wrapper: on a 2-CPU Xeon VM
# (Python 3.11, numpy 2.4) a count of 2 to 200 flags takes about 0.1 us this
# way and 0.33 us through the wrapper, and an unguarded engine step counts six times.
try:
    from numpy._core.multiarray import count_nonzero as _count_nonzero
except ImportError:  # pragma: no cover - a numpy that moved it
    _count_nonzero = np.count_nonzero

__all__ = [
    "as_vector",
    "inner",
    "norm",
    "convex_combination",
    "convex_identity_defect",
    "Box",
    "project_box",
]


def _as_array(value, name: str) -> np.ndarray:
    """Coerce ``value`` to a finite float64 array of any shape (a fresh copy); callers check the shape."""
    try:
        arr = np.array(value, dtype=float)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} has non-finite coordinates") from None
    if _count_nonzero(np.isfinite(arr)) != arr.size:  # one C call; .all() goes through Python
        raise ValueError(f"{name} has non-finite coordinates")
    return arr


def as_vector(value, name: str = "vector") -> np.ndarray:
    """Coerce ``value`` to a finite 1-D float64 array (always a fresh copy)."""
    arr = _as_array(value, name)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-D sequence of reals, got shape {arr.shape}")
    return arr


def _as_number(value, name: str, kind: type = float):
    """``value`` as a ``kind`` (float or int), never rounded; a ``ValueError`` names ``name``.

    A bool is a flag, not a number, so it is rejected too.
    """
    try:
        typed = kind(value) if isinstance(value, numbers.Real) and not isinstance(value, bool) else None
    except (ValueError, OverflowError):  # int() of nan or inf, float() of a huge int
        typed = None
    if typed is None or kind is int and typed != value:
        raise ValueError(f"{name} must be {'an integer' if kind is int else 'a real number'}, got {value!r}")
    return typed


def _require_same_dim(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch in {what}: {a.shape[0]} vs {b.shape[0]}")


def inner(x, y) -> float:
    """Euclidean inner product of two vectors of equal dimension."""
    xv = as_vector(x, "x")
    yv = xv if y is x else as_vector(y, "y")
    _require_same_dim(xv, yv, "inner")
    return float(np.dot(xv, yv))


def _norm(v: np.ndarray) -> float:
    sq = float(np.dot(v, v))
    if sq == math.inf:
        # The square overflowed (the norm exceeds about 1.3e154): scale by
        # the largest coordinate first. Finite squares keep sqrt(dot) bits.
        scale = float(np.abs(v).max())
        if scale == math.inf:
            return math.inf
        w = v / scale
        return scale * math.sqrt(float(np.dot(w, w)))
    return math.sqrt(sq)


def _max_row_norm(v: np.ndarray) -> float:
    """``max(_norm(v[0]), _norm(v[1]))`` of a (2, d) block, bit for bit, with one square root:
    sqrt is monotone and correctly rounded, so the root of the larger square is the larger root."""
    sx, sy = np.vecdot(v, v).tolist()
    sq = sx if sx >= sy else sy
    if sq == math.inf:  # a square overflowed: _norm scales
        return max(_norm(v[0]), _norm(v[1]))
    return math.sqrt(sq)


def _row_norms(v: np.ndarray) -> np.ndarray:
    """``_norm`` of each row of an (n, d) block, bit for bit."""
    with np.errstate(over="ignore"):  # an overflowed square is redone by _norm, which scales
        sq = np.vecdot(v, v)
        norms = np.sqrt(sq)
        big = sq == np.inf
        if big.any():
            norms[big] = [_norm(row) for row in v[big]]
    return norms


# Not on _norm, which the engine calls every step: errstate costs about 1 us a call.
@np.errstate(over="ignore", invalid="ignore")
def norm(x) -> float:
    """Euclidean norm, ``sqrt(inner(x, x))``, finite for every finite ``x``."""
    return _norm(as_vector(x, "x"))


def convex_combination(lam: float, x, y) -> np.ndarray:
    """Return ``lam * x + (1 - lam) * y`` componentwise, with ``lam`` in [0, 1]."""
    lam = _as_number(lam, "lam")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    xv = as_vector(x, "x")
    yv = as_vector(y, "y")
    _require_same_dim(xv, yv, "convex_combination")
    return lam * xv + (1.0 - lam) * yv


def convex_identity_defect(lam: float, x, y, z) -> float:
    """Floating-point defect of the convex-combination norm identity.

    For points x, y, z of an inner-product space and lam in [0, 1],

        ||lam*x + (1-lam)*y - z||^2
            = lam*||x - z||^2 + (1-lam)*||y - z||^2 - lam*(1-lam)*||x - y||^2

    holds exactly in real arithmetic. The return value is LHS - RHS as
    evaluated in double precision, so its magnitude measures rounding
    error only; it scales with the squared magnitudes of the operands.
    """
    lam = _as_number(lam, "lam")
    xv = as_vector(x, "x")
    yv = as_vector(y, "y")
    zv = as_vector(z, "z")
    _require_same_dim(xv, zv, "convex_identity_defect")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    _require_same_dim(xv, yv, "convex_identity_defect")
    w = lam * xv + (1.0 - lam) * yv - zv
    lhs = float(np.dot(w, w))
    dx = xv - zv
    dy = yv - zv
    dxy = xv - yv
    rhs = (
        lam * float(np.dot(dx, dx))
        + (1.0 - lam) * float(np.dot(dy, dy))
        - lam * (1.0 - lam) * float(np.dot(dxy, dxy))
    )
    return lhs - rhs


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box ``{v : lower <= v <= upper}`` in R^d (may be degenerate)."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self) -> None:
        lo = as_vector(self.lower, "lower")
        hi = as_vector(self.upper, "upper")
        _require_same_dim(lo, hi, "Box bounds")
        if not (lo <= hi).all():
            raise ValueError("Box requires lower[i] <= upper[i] for all i")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.shape[0]

    def contains(self, x, slack: float = 0.0) -> bool:
        """Whether ``x`` lies in the box, with optional absolute slack per coordinate."""
        xv = as_vector(x, "x")
        _require_same_dim(xv, self.lower, "Box.contains")
        return bool((xv >= self.lower - slack).all() and (xv <= self.upper + slack).all())

    def is_degenerate(self) -> bool:
        """True when the box is a single point (no argument can be varied)."""
        return bool((self.lower == self.upper).all())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return np.array_equal(self.lower, other.lower) and np.array_equal(self.upper, other.upper)


def _clamp(v: np.ndarray, box: Box) -> np.ndarray:
    # The one clamp rule, for a checked vector or a block of rows such as the engine's (2, d) pair.
    return np.minimum(np.maximum(v, box.lower), box.upper)


def project_box(x, box: Box) -> np.ndarray:
    """Componentwise clamp of ``x`` into the box; identity on interior points."""
    xv = as_vector(x, "x")
    _require_same_dim(xv, box.lower, "project_box")
    return _clamp(xv, box)
