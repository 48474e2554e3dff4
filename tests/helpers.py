"""Shared generators for test problems."""

from __future__ import annotations

import numpy as np

from coupledfix import BivariateOperator, Box, make_linear_operator


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
