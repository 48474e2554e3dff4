"""Empirical estimation of per-argument Lipschitz constants and classification.

An operator F on C x C is probed with axis-restricted samples: pairs that
vary only the first argument bound the first constant from below,

    a_hat = max ||F(x, y) - F(u, y)|| / ||x - u||   over sampled (x, u, y),

and symmetrically for ``b_hat`` with only the second argument varied. The
hats are attained lower bounds for ANY admissible constants, which is what
makes refutations certificates:

- "weakly nonexpansive" (some a, b >= 0 with a + b <= 1 bounding
  ||F(x,y)-F(u,v)|| by a||x-u|| + b||y-v||) is refuted by a quadruple with
  ||dF|| > max(||x-u||, ||y-v||) + margin, since the max is the supremum
  of the right-hand side over the whole simplex a + b = 1.
- the 1/2-1/2 form ("nonexpansive") is refuted by a quadruple with
  ||dF|| > (||x-u|| + ||y-v||)/2 + margin.
- a strict contraction bound k||x-u|| + l||y-v|| with k + l < 1 is refuted
  as soon as a_hat + b_hat >= 1 - margin, because the axis witnesses force
  k >= a_hat and l >= b_hat.

Candidate labels mean only "no violation found among the samples"; they
are never certificates, since sampling cannot prove an inequality over a
continuum. Reports whose a_hat + b_hat sits within the margin of 1 carry
``boundary=True`` instead of a forced decision on which side they fall.

Sampling uses numpy's default PCG64 generator with explicit seed paths, so
reports are bit-for-bit reproducible, and the draws for a given seed are a
prefix of the draws for any larger sample count (nested sampling).
Estimation may be parallelized only if the result stays identical to the
sequential one; this implementation is sequential.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .operators import BivariateOperator
from .space import Box, _norm

__all__ = [
    "MARGIN",
    "MIN_SEPARATION",
    "CONTRACTION_CANDIDATE",
    "WEAKLY_NONEXPANSIVE_CANDIDATE",
    "NONEXPANSIVE_CANDIDATE",
    "REFUTED_WEAKLY_NONEXPANSIVE",
    "REFUTED_NONEXPANSIVE",
    "REFUTED_CONTRACTION",
    "WITNESS_AXIS_A",
    "WITNESS_AXIS_B",
    "WITNESS_NONEXPANSIVE",
    "WITNESS_WEAKLY_NONEXPANSIVE",
    "Witness",
    "ContractivityReport",
    "estimate_constants",
    "draw_quadruples",
    "classify",
    "analyze_operator",
    "witness_ratio",
    "report_to_dict",
    "report_to_json",
]

MARGIN = 1e-9
MIN_SEPARATION = 1e-12

CONTRACTION_CANDIDATE = "contraction_candidate"
WEAKLY_NONEXPANSIVE_CANDIDATE = "weakly_nonexpansive_candidate"
NONEXPANSIVE_CANDIDATE = "nonexpansive_candidate"
REFUTED_WEAKLY_NONEXPANSIVE = "refuted_weakly_nonexpansive"
REFUTED_NONEXPANSIVE = "refuted_nonexpansive"
REFUTED_CONTRACTION = "refuted_contraction"

WITNESS_AXIS_A = "axis_ratio_a"
WITNESS_AXIS_B = "axis_ratio_b"
WITNESS_NONEXPANSIVE = "nonexpansive_violation"
WITNESS_WEAKLY_NONEXPANSIVE = "weakly_nonexpansive_violation"


@dataclass(eq=False)
class Witness:
    """A quadruple (x, y, u, v) with the ratio it attains for its kind.

    Ratios by kind (dF = ||F(x,y) - F(u,v)||):
      axis_ratio_a:                  dF / ||x - u||        (drawn with y == v)
      axis_ratio_b:                  dF / ||y - v||        (drawn with x == u)
      nonexpansive_violation:        dF / ((||x-u|| + ||y-v||) / 2)
      weakly_nonexpansive_violation: dF / max(||x-u||, ||y-v||)
    """

    kind: str
    x: np.ndarray
    y: np.ndarray
    u: np.ndarray
    v: np.ndarray
    ratio: float


def witness_ratio(f: BivariateOperator, w: Witness) -> float:
    """Recompute the witness ratio from scratch; must reproduce ``w.ratio``."""
    df = _norm(f.eval(w.x, w.y) - f.eval(w.u, w.v))
    du = _norm(w.x - w.u)
    dv = _norm(w.y - w.v)
    if w.kind == WITNESS_AXIS_A:
        return df / du
    if w.kind == WITNESS_AXIS_B:
        return df / dv
    if w.kind == WITNESS_NONEXPANSIVE:
        return df / ((du + dv) / 2.0)
    if w.kind == WITNESS_WEAKLY_NONEXPANSIVE:
        return df / max(du, dv)
    raise ValueError(f"unknown witness kind {w.kind!r}")


@dataclass(eq=False)
class ContractivityReport:
    """Estimated constants, stored witnesses, and the classification label set."""

    operator_name: str
    a_hat: float
    b_hat: float
    samples_used: int
    seed: int
    violations: tuple[Witness, ...] = ()
    classification: frozenset[str] = frozenset()
    boundary: bool = False


def _uniform_in_box(rng: np.random.Generator, box: Box, shape: tuple[int, ...]) -> np.ndarray:
    return rng.uniform(box.lower, box.upper, size=shape + (box.dim,))


def _axis_scan(f: BivariateOperator, n_samples: int, seed: int, phase: int):
    """Max axis ratio over n_samples draws; returns (hat, argmax witness)."""
    box = f.domain
    draws = _uniform_in_box(np.random.default_rng([seed, phase]), box, (n_samples, 3))
    hat = 0.0
    best = None
    for i in range(n_samples):
        shared, p, q = draws[i]
        dist = _norm(p - q)
        attempt = 0
        while dist < MIN_SEPARATION:
            # Nearly coincident draw: resample this pair from a dedicated
            # per-sample stream so other samples are unaffected.
            sub = np.random.default_rng([seed, 10 + phase, i, attempt])
            p, q = _uniform_in_box(sub, box, (2,))
            dist = _norm(p - q)
            attempt += 1
        if phase == 0:
            df = _norm(f.eval(p, shared) - f.eval(q, shared))
            quad = (p, shared, q, shared)
        else:
            df = _norm(f.eval(shared, p) - f.eval(shared, q))
            quad = (shared, p, shared, q)
        ratio = df / dist
        if best is None or ratio > hat:
            hat = ratio
            best = quad
    kind = WITNESS_AXIS_A if phase == 0 else WITNESS_AXIS_B
    witness = Witness(kind, *(c.copy() for c in best), ratio=hat)
    return hat, witness


def estimate_constants(f: BivariateOperator, n_samples: int, seed: int) -> ContractivityReport:
    """Estimate attained lower bounds (a_hat, b_hat) for the per-argument constants.

    Draws ``n_samples`` axis-restricted samples per argument, uniformly
    over the operator's box domain. Deterministic for a fixed seed, and
    nested across sample counts: growing ``n_samples`` only appends draws,
    so both hats are nondecreasing in ``n_samples``. Classification is left
    empty; apply :func:`classify` for labels.
    """
    n_samples = int(n_samples)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if f.domain.is_degenerate():
        raise ValueError(f"operator {f.name!r} has a single-point domain: cannot vary arguments")
    a_hat, wa = _axis_scan(f, n_samples, seed, phase=0)
    b_hat, wb = _axis_scan(f, n_samples, seed, phase=1)
    return ContractivityReport(
        operator_name=f.name,
        a_hat=a_hat,
        b_hat=b_hat,
        samples_used=2 * n_samples,
        seed=int(seed),
        violations=(wa, wb),
    )


def draw_quadruples(f: BivariateOperator, n_samples: int, seed: int) -> np.ndarray:
    """Uniform general quadruples (x, y, u, v) over C^4, shape (n_samples, 4, d)."""
    n_samples = int(n_samples)
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    return _uniform_in_box(np.random.default_rng([seed, 2]), f.domain, (n_samples, 4))


def classify(
    report: ContractivityReport, general_samples, f: BivariateOperator
) -> ContractivityReport:
    """Label the operator against the three contractivity conditions.

    Scans the stored axis witnesses plus every general quadruple for
    certificates violating the nonexpansiveness inequalities; decides the
    strict-contraction question from a_hat + b_hat alone. Returns a new
    report carrying the label set, any refutation witnesses, and the
    boundary flag.
    """
    if report.operator_name != f.name:
        raise ValueError(
            f"report is for operator {report.operator_name!r}, classify got {f.name!r}"
        )

    best_weak = None  # (margin, quad, ratio)
    best_nonexp = None
    candidates = [(w.x, w.y, w.u, w.v) for w in report.violations]
    candidates.extend((q[0], q[1], q[2], q[3]) for q in general_samples)
    n_general = len(candidates) - len(report.violations)

    for x, y, u, v in candidates:
        df = _norm(f.eval(x, y) - f.eval(u, v))
        du = _norm(x - u)
        dv = _norm(y - v)
        hi = max(du, dv)
        if hi > 0.0:
            margin = df - hi
            if best_weak is None or margin > best_weak[0]:
                best_weak = (margin, (x, y, u, v), df / hi)
        mean = (du + dv) / 2.0
        if mean > 0.0:
            margin = df - mean
            if best_nonexp is None or margin > best_nonexp[0]:
                best_nonexp = (margin, (x, y, u, v), df / mean)

    labels: set[str] = set()
    witnesses = list(report.violations)

    if best_weak is not None and best_weak[0] > MARGIN:
        labels.add(REFUTED_WEAKLY_NONEXPANSIVE)
        quad = best_weak[1]
        witnesses.append(
            Witness(WITNESS_WEAKLY_NONEXPANSIVE, *(c.copy() for c in quad), ratio=best_weak[2])
        )
    else:
        labels.add(WEAKLY_NONEXPANSIVE_CANDIDATE)

    if best_nonexp is not None and best_nonexp[0] > MARGIN:
        labels.add(REFUTED_NONEXPANSIVE)
        quad = best_nonexp[1]
        witnesses.append(
            Witness(WITNESS_NONEXPANSIVE, *(c.copy() for c in quad), ratio=best_nonexp[2])
        )
    else:
        labels.add(NONEXPANSIVE_CANDIDATE)

    total = report.a_hat + report.b_hat
    if total >= 1.0 - MARGIN:
        labels.add(REFUTED_CONTRACTION)
    else:
        labels.add(CONTRACTION_CANDIDATE)

    return replace(
        report,
        classification=frozenset(labels),
        violations=tuple(witnesses),
        boundary=abs(total - 1.0) <= MARGIN,
        samples_used=report.samples_used + n_general,
    )


def analyze_operator(f: BivariateOperator, n_samples: int, seed: int) -> ContractivityReport:
    """Estimate constants and classify in one pass (the CLI's analyze command)."""
    report = estimate_constants(f, n_samples, seed)
    return classify(report, draw_quadruples(f, n_samples, seed), f)


def report_to_dict(report: ContractivityReport) -> dict:
    return {
        "operator": report.operator_name,
        "a_hat": report.a_hat,
        "b_hat": report.b_hat,
        "samples_used": report.samples_used,
        "seed": report.seed,
        "classification": sorted(report.classification),
        "boundary": report.boundary,
        "witnesses": [
            {
                "kind": w.kind,
                "x": w.x.tolist(),
                "y": w.y.tolist(),
                "u": w.u.tolist(),
                "v": w.v.tolist(),
                "ratio": w.ratio,
            }
            for w in report.violations
        ],
    }


def report_to_json(report: ContractivityReport) -> str:
    return json.dumps(report_to_dict(report), indent=2)
