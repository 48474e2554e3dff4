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
  of the right-hand side over the whole simplex a + b = 1; and by the two
  axis witnesses alone once a_hat + b_hat > 1 + margin, since they force
  a >= a_hat and b >= b_hat.
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

The scans run over blocks of at most ``_CHUNK`` rows. Each block is drawn
from the same generator as one whole draw would be, so its values are the
same whatever the block size, and memory stays bounded at any sample count.
A block is evaluated with two calls of ``BivariateOperator.eval`` on (n, d)
arrays, and its row norms equal ``_norm`` of each row bit for bit. An axis
pair drawn closer than ``MIN_SEPARATION`` is resampled afterwards, in a
pass over just the flagged rows, from its own per-sample stream, so no
other sample moves. Each scan keeps the rule of a sequential loop: the
first maximum wins, and a later value replaces it only when strictly
larger. Reports are therefore identical to a sample-by-sample scan.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, replace

import numpy as np

from .operators import BivariateOperator
from .space import Box, _as_array, _as_count, _norm, _row_norms, norm

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

# Rows per block of draws. Memory stays bounded at any sample count, and the
# reports do not depend on it: the draws are the same whatever the block size.
_CHUNK = 4096

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


# Images far apart overflow a difference, norm or ratio to inf (or nan, from
# inf - inf), which the scans and the report carry on; numpy need not warn.
@np.errstate(over="ignore", invalid="ignore")
def witness_ratio(f: BivariateOperator, w: Witness) -> float:
    """Recompute the witness ratio from scratch; must reproduce ``w.ratio``."""
    df = _norm(f.eval(w.x, w.y) - f.eval(w.u, w.v))
    du = _norm(w.x - w.u)
    dv = _norm(w.y - w.v)
    den = {
        WITNESS_AXIS_A: du,
        WITNESS_AXIS_B: dv,
        WITNESS_NONEXPANSIVE: (du + dv) / 2.0,
        WITNESS_WEAKLY_NONEXPANSIVE: max(du, dv),
    }.get(w.kind)
    if den is None:
        raise ValueError(f"unknown witness kind {w.kind!r}")
    if den == 0.0:
        raise ValueError(f"witness kind {w.kind!r} has a zero denominator")
    return df / den


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


def _require_drawable(f: BivariateOperator) -> None:
    # numpy draws uniformly only where upper - lower is a finite double.
    with np.errstate(over="ignore"):
        wide = np.flatnonzero(f.domain.upper - f.domain.lower == np.inf)
    if wide.size:
        raise ValueError(
            f"operator {f.name!r}: the width of coordinate {wide[0]} of its domain, "
            f"upper - lower, overflows to inf: cannot draw uniform samples"
        )


def _blocks(box: Box, n_samples: int, seed: int, phase: int, width: int):
    """Stream ``phase`` of the draws as (m, width, d) blocks of at most _CHUNK rows."""
    rng = np.random.default_rng([seed, phase])
    for start in range(0, n_samples, _CHUNK):
        yield _uniform_in_box(rng, box, (min(_CHUNK, n_samples - start), width))


def _pick(values: np.ndarray, best) -> int:
    """Index that ``for v in values: if best is None or v > best: best = v`` ends on, or -1.

    The first maximum wins. NaN compares above nothing and nothing compares
    above it, so a NaN is picked only as the first value of a whole scan.
    """
    if values.size == 0:
        return -1
    if best is None and np.isnan(values[0]):
        return 0
    ordered = np.where(np.isnan(values), -np.inf, values)
    i = int(np.argmax(ordered))
    return i if best is None or ordered[i] > best else -1


@np.errstate(over="ignore", invalid="ignore")
def _axis_scan(f: BivariateOperator, n_samples: int, seed: int, phase: int):
    """Max axis ratio over n_samples draws; returns (hat, argmax witness)."""
    box = f.domain
    hat = None
    start = 0
    for draws in _blocks(box, n_samples, seed, phase, 3):
        shared, p, q = draws[:, 0], draws[:, 1], draws[:, 2]
        dist = _row_norms(p - q)
        for j in np.flatnonzero(dist < MIN_SEPARATION).tolist():
            # Nearly coincident draw: resample this pair from a dedicated
            # per-sample stream so other samples are unaffected.
            attempt = 0
            while dist[j] < MIN_SEPARATION:
                sub = np.random.default_rng([seed, 10 + phase, start + j, attempt])
                p[j], q[j] = _uniform_in_box(sub, box, (2,))
                dist[j] = _norm(p[j] - q[j])
                attempt += 1
        quad = (p, shared, q, shared) if phase == 0 else (shared, p, shared, q)
        ratio = _row_norms(f.eval(quad[0], quad[1]) - f.eval(quad[2], quad[3])) / dist
        i = _pick(ratio, hat)
        if i >= 0:
            hat = float(ratio[i])
            best = tuple(c[i].copy() for c in quad)
        start += len(draws)
    kind = WITNESS_AXIS_A if phase == 0 else WITNESS_AXIS_B
    return hat, Witness(kind, *best, ratio=hat)


def estimate_constants(f: BivariateOperator, n_samples: int, seed: int) -> ContractivityReport:
    """Estimate attained lower bounds (a_hat, b_hat) for the per-argument constants.

    Draws ``n_samples`` axis-restricted samples per argument, uniformly
    over the operator's box domain. Deterministic for a fixed seed, and
    nested across sample counts: growing ``n_samples`` only appends draws,
    so both hats are nondecreasing in ``n_samples``. Classification is left
    empty; apply :func:`classify` for labels.
    """
    n_samples, seed = _as_count(n_samples, "n_samples", 1), _as_count(seed, "seed", 0)
    if f.domain.is_degenerate():
        raise ValueError(f"operator {f.name!r} has a single-point domain: cannot vary arguments")
    _require_drawable(f)
    diameter = norm(f.domain.upper - f.domain.lower)  # under errstate: an overflowed square prints no warning
    if diameter < MIN_SEPARATION:
        raise ValueError(
            f"operator {f.name!r} has a domain of diameter {diameter:g}, below "
            f"MIN_SEPARATION = {MIN_SEPARATION:g}: no two samples can be that far apart"
        )
    a_hat, wa = _axis_scan(f, n_samples, seed, phase=0)
    b_hat, wb = _axis_scan(f, n_samples, seed, phase=1)
    return ContractivityReport(
        operator_name=f.name,
        a_hat=a_hat,
        b_hat=b_hat,
        samples_used=2 * n_samples,
        seed=seed,
        violations=(wa, wb),
    )


def draw_quadruples(f: BivariateOperator, n_samples: int, seed: int) -> np.ndarray:
    """Uniform general quadruples (x, y, u, v) over C^4, shape (n_samples, 4, d)."""
    n_samples, seed = _as_count(n_samples, "n_samples", 0), _as_count(seed, "seed", 0)
    _require_drawable(f)
    return _uniform_in_box(np.random.default_rng([seed, 2]), f.domain, (n_samples, 4))


def classify(
    report: ContractivityReport, general_samples, f: BivariateOperator
) -> ContractivityReport:
    """Label the operator against the three contractivity conditions.

    ``general_samples`` holds quadruples (x, y, u, v) as an array of shape
    (n, 4, d) of finite reals, as ``draw_quadruples`` gives them; an empty
    sequence means none. It is checked once, and an error names it.
    Scans the stored axis witnesses plus every general quadruple for
    certificates violating the nonexpansiveness inequalities. Decides the
    strict-contraction question from a_hat + b_hat alone, and refutes weak
    nonexpansiveness from it as well when a_hat + b_hat > 1 + MARGIN, with
    the axis witnesses as the certificate. Returns a new report carrying
    the label set, any refutation witnesses, and the boundary flag.
    """
    if report.operator_name != f.name:
        raise ValueError(
            f"report is for operator {report.operator_name!r}, classify got {f.name!r}"
        )
    quads = _as_array(general_samples, "general_samples")
    if quads.shape == (0,):  # an empty sequence: no samples
        quads = quads.reshape(0, 4, f.dim)
    if quads.ndim != 3 or quads.shape[1:] != (4, f.dim):
        raise ValueError(f"general_samples must have shape (n, 4, {f.dim}), got shape {quads.shape}")
    return _classify_blocks(report, (quads[i : i + _CHUNK] for i in range(0, len(quads), _CHUNK)), f)


@np.errstate(over="ignore", invalid="ignore")
def _classify_blocks(report: ContractivityReport, blocks, f: BivariateOperator) -> ContractivityReport:
    """:func:`classify` with the general quadruples given as (m, 4, d) blocks."""
    # Per violation kind: (margin, quad, ratio) at the first largest margin.
    best = {WITNESS_WEAKLY_NONEXPANSIVE: None, WITNESS_NONEXPANSIVE: None}
    stored = [np.array([(w.x, w.y, w.u, w.v) for w in report.violations])] if report.violations else []
    scanned = 0
    for block in itertools.chain(stored, blocks):
        x, y, u, v = block[:, 0], block[:, 1], block[:, 2], block[:, 3]
        df = _row_norms(f.eval(x, y) - f.eval(u, v))
        du = _row_norms(x - u)
        dv = _row_norms(y - v)
        bounds = {WITNESS_WEAKLY_NONEXPANSIVE: np.maximum(du, dv), WITNESS_NONEXPANSIVE: (du + dv) / 2.0}
        for kind, rhs in bounds.items():
            rows = np.flatnonzero(rhs > 0.0)
            margin = df[rows] - rhs[rows]
            held = best[kind]
            j = _pick(margin, None if held is None else held[0])
            if j >= 0:
                i = rows[j]
                quad = tuple(c[i].copy() for c in (x, y, u, v))
                best[kind] = (float(margin[j]), quad, float(df[i] / rhs[i]))
        scanned += len(block)

    labels: set[str] = set()
    witnesses = list(report.violations)
    total = report.a_hat + report.b_hat

    weak = best[WITNESS_WEAKLY_NONEXPANSIVE]
    if weak is not None and weak[0] > MARGIN:
        labels.add(REFUTED_WEAKLY_NONEXPANSIVE)
        witnesses.append(Witness(WITNESS_WEAKLY_NONEXPANSIVE, *weak[1], ratio=weak[2]))
    elif total > 1.0 + MARGIN:
        # The axis witnesses force a >= a_hat and b >= b_hat on any admissible pair.
        labels.add(REFUTED_WEAKLY_NONEXPANSIVE)
    else:
        labels.add(WEAKLY_NONEXPANSIVE_CANDIDATE)

    nonexp = best[WITNESS_NONEXPANSIVE]
    if nonexp is not None and nonexp[0] > MARGIN:
        labels.add(REFUTED_NONEXPANSIVE)
        witnesses.append(Witness(WITNESS_NONEXPANSIVE, *nonexp[1], ratio=nonexp[2]))
    else:
        labels.add(NONEXPANSIVE_CANDIDATE)

    if total >= 1.0 - MARGIN:
        labels.add(REFUTED_CONTRACTION)
    else:
        labels.add(CONTRACTION_CANDIDATE)

    return replace(
        report,
        classification=frozenset(labels),
        violations=tuple(witnesses),
        boundary=abs(total - 1.0) <= MARGIN,
        samples_used=report.samples_used + scanned - len(report.violations),
    )


def analyze_operator(f: BivariateOperator, n_samples: int, seed: int) -> ContractivityReport:
    """Estimate constants and classify in one pass (the CLI's analyze command).

    Equal to ``classify(report, draw_quadruples(f, n_samples, seed), f)``,
    but draws the general quadruples block by block, so memory stays
    bounded at any sample count.
    """
    n_samples, seed = _as_count(n_samples, "n_samples", 1), _as_count(seed, "seed", 0)
    report = estimate_constants(f, n_samples, seed)
    return _classify_blocks(report, _blocks(f.domain, n_samples, seed, 2, 4), f)


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


# A JSON string, or json.dumps's Infinity outside one: the spelling of an
# infinite float (a ratio whose image distance overflowed), which is not JSON.
_STRING_OR_INFINITY = re.compile(r'("(?:[^"\\]|\\.)*")|Infinity')


def report_to_json(report: ContractivityReport) -> str:
    """The report as JSON; an infinite float is written ``1e999``, as a trace writes it."""
    text = json.dumps(report_to_dict(report), indent=2)
    return _STRING_OR_INFINITY.sub(lambda m: m.group(1) or "1e999", text)
