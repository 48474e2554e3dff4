"""Primitives for finite-dimensional real inner-product spaces.

Vectors are 1-D float64 numpy arrays. Every public operation validates
dimensions and rejects non-finite coordinates; mismatched dimensions are
hard errors, never broadcast. Domains are boxes (products of closed
intervals), which are bounded, closed and convex by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_vector",
    "inner",
    "norm",
    "convex_combination",
    "convex_identity_defect",
    "Box",
    "project_box",
]


def as_vector(value, name: str = "vector") -> np.ndarray:
    """Coerce ``value`` to a finite 1-D float64 array (always a fresh copy)."""
    arr = np.array(value, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a 1-D sequence of reals, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} has non-finite coordinates")
    return arr


def _require_same_dim(a: np.ndarray, b: np.ndarray, what: str) -> None:
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch in {what}: {a.shape[0]} vs {b.shape[0]}")


def inner(x, y) -> float:
    """Euclidean inner product of two vectors of equal dimension."""
    xv = as_vector(x, "x")
    yv = as_vector(y, "y")
    _require_same_dim(xv, yv, "inner")
    return float(np.dot(xv, yv))


def _norm(v: np.ndarray) -> float:
    return float(np.sqrt(np.dot(v, v)))


def norm(x) -> float:
    """Euclidean norm, ``sqrt(inner(x, x))``."""
    return _norm(as_vector(x, "x"))


def convex_combination(lam: float, x, y) -> np.ndarray:
    """Return ``lam * x + (1 - lam) * y`` componentwise, with ``lam`` in [0, 1]."""
    lam = float(lam)
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
    lam = float(lam)
    xv = as_vector(x, "x")
    yv = as_vector(y, "y")
    zv = as_vector(z, "z")
    _require_same_dim(xv, zv, "convex_identity_defect")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    _require_same_dim(xv, yv, "convex_combination")
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


def project_box(x, box: Box) -> np.ndarray:
    """Componentwise clamp of ``x`` into the box; identity on interior points."""
    xv = as_vector(x, "x")
    _require_same_dim(xv, box.lower, "project_box")
    return np.minimum(np.maximum(xv, box.lower), box.upper)
