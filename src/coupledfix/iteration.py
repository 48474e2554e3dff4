"""Iteration schemes for coupled fixed points, with trace-level diagnostics.

Three schemes are provided, all driven by a residual stopping rule:

- ``picard_double``:            x_{n+1} = F(x_n, y_n),  y_{n+1} = F(y_n, x_n)
- ``krasnoselskij_diagonal``:   x_{n+1} = (1 - theta) x_n + theta F(x_n, x_n)
- ``krasnoselskij_double``:     x_{n+1} = (1 - theta) x_n + theta F(x_n, y_n),
                                y_{n+1} = (1 - theta) y_n + theta F(y_n, x_n)

Weight convention: ``theta`` is always the weight on the operator image,
applied literally as ``(1 - theta) * current + theta * image`` so that a
stated theta enters the arithmetic unchanged. The residual at a pair is

    r_n = max(||x_n - F(x_n, y_n)||, ||y_n - F(y_n, x_n)||),

the quantity the relaxed schemes drive to zero; iteration stops when
``r_n <= tol`` or after ``max_iter`` steps. The plain double iteration may
oscillate forever on period-2 orbits, so it additionally stops when a
2-cycle is detected (successive iterates two apart coincide to roughly
machine precision while the residual is still large); the trace then
carries ``cycle_detected=True`` with status ``max_iter_reached``.

Domain handling: when an operator does not map its domain into itself,
every new iterate is clamped back into the box (``guard_domain`` is forced
on and recorded in the trace's config). For self-maps the guard defaults
to off, and an iterate escaping the box anyway stops the run with status
``left_domain``.

Traces record every iterate up to a cap of 10**5 entries; longer runs keep
every k-th iterate (k minimal to stay under the cap) plus the final one,
with explicit step indices. Each run is inherently sequential; distinct
runs share no mutable state and may execute concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .operators import BivariateOperator, CoupledPair, NonFiniteEvaluationError
from .space import _as_number, _norm, as_vector, project_box

__all__ = [
    "PICARD_DOUBLE",
    "KRASNOSELSKIJ_DIAGONAL",
    "KRASNOSELSKIJ_DOUBLE",
    "SCHEMES",
    "CONVERGED",
    "MAX_ITER_REACHED",
    "DIVERGED_NONFINITE",
    "LEFT_DOMAIN",
    "TRACE_CAP",
    "SchemeConfig",
    "IterationTrace",
    "picard_double",
    "krasnoselskij_diagonal",
    "krasnoselskij_double",
    "run_scheme",
    "DiagnosticCheck",
    "DiagnosticReport",
    "verify_fejer_monotonicity",
    "verify_residual_decay",
]

PICARD_DOUBLE = "picard_double"
KRASNOSELSKIJ_DIAGONAL = "krasnoselskij_diagonal"
KRASNOSELSKIJ_DOUBLE = "krasnoselskij_double"
SCHEMES = (PICARD_DOUBLE, KRASNOSELSKIJ_DIAGONAL, KRASNOSELSKIJ_DOUBLE)

CONVERGED = "converged"
MAX_ITER_REACHED = "max_iter_reached"
DIVERGED_NONFINITE = "diverged_nonfinite"
LEFT_DOMAIN = "left_domain"

TRACE_CAP = 100_000

_CYCLE_RTOL = 1e-12
_CYCLE_MIN_AMPLITUDE = 1e-6


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selector plus numeric knobs for one iteration run.

    Typed and checked once, when built (also by ``dataclasses.replace`` and
    ``trace_from_json``): ``theta`` and ``tol`` become floats, ``max_iter``
    and ``seed`` ints, never rounded (a bool is rejected), and ``validate``
    must pass; ``theta`` is ignored by ``picard_double`` but must still be
    finite, since the trace's JSON carries it. ``guard_domain`` is a bool,
    or None for automatic: off for operators that map their domain into
    themselves, forced on otherwise. No scheme reads ``seed``; it travels
    into the trace, where the benchmark's checks (``perfbench/checks.py``)
    compare it.
    """

    scheme: str
    theta: float = 0.5
    tol: float = 1e-10
    max_iter: int = 1000
    guard_domain: bool | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        for name, kind in (("theta", float), ("tol", float), ("max_iter", int), ("seed", int)):
            object.__setattr__(self, name, _as_number(getattr(self, name), name, kind))
        if self.guard_domain is not None:
            object.__setattr__(self, "guard_domain", bool(self.guard_domain))
        self.validate()

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme != PICARD_DOUBLE and not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if not math.isfinite(self.theta):  # picard_double ignores it, but its trace JSON carries it
            raise ValueError(f"theta must be finite, got {self.theta}")
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.tol == math.inf:
            raise ValueError(f"tol must be finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


@dataclass
class IterationTrace:
    """Recorded history of one run.

    ``iterates[k]`` is the pair at step ``step_indices[k]`` (indices are
    consecutive unless the storage cap forced thinning), ``residuals[k]``
    its residual, and ``distances_to_target[k]`` its distance to the
    reference point when one was supplied. ``scheme_config`` is the
    resolved copy actually used (in particular ``guard_domain`` is a
    concrete bool). Two traces are equal when every field is; iterates
    compare element by element (``np.array_equal``, so 0.0 equals -0.0).
    """

    step_indices: list[int]
    iterates: list[CoupledPair]
    residuals: list[float]
    distances_to_target: list[float] | None
    status: str
    scheme_config: SchemeConfig
    operator_name: str
    cycle_detected: bool = False

    @property
    def final_pair(self) -> CoupledPair:
        return self.iterates[-1]

    @property
    def final_residual(self) -> float:
        return self.residuals[-1]

    @property
    def n_steps(self) -> int:
        """Index of the last recorded iterate (number of update steps taken)."""
        return self.step_indices[-1]


def _is_two_cycle(
    x: np.ndarray,
    y: np.ndarray,
    prev: tuple[np.ndarray, np.ndarray],
    prev2: tuple[np.ndarray, np.ndarray],
) -> bool:
    # Period-2 orbit: the pair two steps back coincides to rounding scale,
    # AND the intermediate step was macroscopic. Without the amplitude
    # requirement, any converging sequence eventually satisfies the first
    # condition (all late iterates are near the limit). Every term is
    # halved, which is exact away from subnormals and keeps the scales
    # finite wherever the norms are, up to the float maximum; a difference
    # that overflows is inf, and an inf amplitude is rightly macroscopic.
    sx = 0.5 + 0.5 * _norm(x) + 0.5 * _norm(prev2[0])
    sy = 0.5 + 0.5 * _norm(y) + 0.5 * _norm(prev2[1])
    if 0.5 * _norm(x - prev2[0]) > _CYCLE_RTOL * sx or 0.5 * _norm(y - prev2[1]) > _CYCLE_RTOL * sy:
        return False
    amplitude = 0.5 * max(_norm(prev[0] - prev2[0]), _norm(prev[1] - prev2[1]))
    return amplitude > _CYCLE_MIN_AMPLITUDE * max(sx, sy)


class _Recorder:
    """Stride-thinned trace storage that always keeps the final entry."""

    def __init__(self, max_iter: int, target: np.ndarray | None, cap: int):
        self.stride = 1 if max_iter + 1 <= cap else -(-(max_iter + 1) // cap)
        self.target = target
        self.steps: list[int] = []
        self.iterates: list[CoupledPair] = []
        self.residuals: list[float] = []
        self.distances: list[float] | None = [] if target is not None else None

    def record(self, n: int, x: np.ndarray, y: np.ndarray, r: float, force: bool = False) -> None:
        if n % self.stride != 0 and not force:
            return
        if self.steps and self.steps[-1] == n:
            return
        self.steps.append(n)
        self.iterates.append(CoupledPair(x, y))
        self.residuals.append(r)
        if self.distances is not None:
            self.distances.append(max(_norm(x - self.target), _norm(y - self.target)))


# Every overflow in a run ends in a status or in _norm's finite fallback, so
# numpy's warnings about it would say nothing the trace does not.
@np.errstate(over="ignore", invalid="ignore")
def _run_loop(
    f: BivariateOperator,
    x0,
    y0,
    cfg: SchemeConfig,
    target,
    scheme: str,
) -> IterationTrace:
    if cfg.scheme != scheme:
        raise ValueError(f"config scheme is {cfg.scheme!r}, expected {scheme!r}")
    x = as_vector(x0, "x0")
    y = as_vector(y0, "y0")
    d = f.dim
    for v in (x, y):
        if v.shape[0] != d:
            raise ValueError(f"initial point has dimension {v.shape[0]}, operator expects {d}")
    if not f.domain.contains(x):
        raise ValueError(f"x0 = {x.tolist()} lies outside the operator domain")
    if not f.domain.contains(y):
        raise ValueError(f"y0 = {y.tolist()} lies outside the operator domain")
    target_v = None if target is None else as_vector(target, "target")
    if target_v is not None and target_v.shape[0] != d:
        raise ValueError(f"target has dimension {target_v.shape[0]}, operator expects {d}")

    guard = not f.range_in_domain or bool(cfg.guard_domain)
    resolved = replace(cfg, guard_domain=guard)

    relaxed = cfg.scheme != PICARD_DOUBLE
    theta = cfg.theta
    one_minus_theta = 1.0 - theta
    box = f.domain
    escape_slack = 1e-12 * (1.0 + float(np.abs(np.concatenate([box.lower, box.upper])).max()))
    # The bounds Box.contains(v, slack=escape_slack) compares against; next
    # to the float maximum they round to inf, which is what they mean there.
    low, high = box.lower - escape_slack, box.upper + escape_slack

    rec = _Recorder(cfg.max_iter, target_v, TRACE_CAP)
    prev: tuple[np.ndarray, np.ndarray] | None = None
    prev2: tuple[np.ndarray, np.ndarray] | None = None
    last: tuple[int, np.ndarray, np.ndarray, float] | None = None
    cycle = False
    escaped = False
    status = None
    n = 0

    while True:
        try:
            fx = f.eval(x, y)
            fy = f.eval(y, x)
        except NonFiniteEvaluationError:
            if last is None:
                # Broken at the starting pair: nothing sane to trace.
                raise
            # F may be undefined off its domain, so a failure at an escaped
            # point reports the escape, ending at the last pair inside.
            status = LEFT_DOMAIN if escaped else DIVERGED_NONFINITE
            break
        r = max(_norm(x - fx), _norm(y - fy))
        last = (n, x, y, r)
        rec.record(*last)
        if escaped:
            status = LEFT_DOMAIN
        elif r <= cfg.tol:
            status = CONVERGED
        elif cfg.scheme == PICARD_DOUBLE and prev2 is not None and _is_two_cycle(x, y, prev, prev2):
            status, cycle = MAX_ITER_REACHED, True
        elif n >= cfg.max_iter:
            status = MAX_ITER_REACHED
        else:
            if relaxed:
                xn = one_minus_theta * x + theta * fx
                yn = one_minus_theta * y + theta * fy
            else:
                xn, yn = fx, fy
            if not (np.isfinite(xn).all() and np.isfinite(yn).all()):
                status = DIVERGED_NONFINITE
        if status is not None:
            break
        if guard:
            xn = project_box(xn, box)
            yn = project_box(yn, box)
        else:
            escaped = not all((v >= low).all() and (v <= high).all() for v in (xn, yn))
        prev2, prev = prev, (x, y)
        x, y = xn, yn
        n += 1
    rec.record(*last, force=True)

    return IterationTrace(
        step_indices=rec.steps,
        iterates=rec.iterates,
        residuals=rec.residuals,
        distances_to_target=rec.distances,
        status=status,
        scheme_config=resolved,
        operator_name=f.name,
        cycle_detected=cycle,
    )


def krasnoselskij_diagonal(
    f: BivariateOperator, x0, cfg: SchemeConfig, target=None
) -> IterationTrace:
    """Run the relaxed diagonal scheme from x0.

    Parameters
    ----------
    f : BivariateOperator
        The operator; x0 must lie in its domain.
    x0 : vector
        Starting point.
    cfg : SchemeConfig
        Must have ``scheme == "krasnoselskij_diagonal"``.
    target : vector, optional
        Known fixed point; when given, the trace records distances to it.

    The trace stores diagonal pairs (x_n, x_n). On convergence the final
    pair satisfies the coupled fixed point residual bound ``tol`` exactly
    by the stopping rule.
    """
    return _run_loop(f, x0, x0, cfg, target, KRASNOSELSKIJ_DIAGONAL)


def krasnoselskij_double(
    f: BivariateOperator, x0, y0, cfg: SchemeConfig, target=None
) -> IterationTrace:
    """Run the componentwise relaxed double scheme from (x0, y0).

    With x0 == y0 this produces a trace bit-identical to the diagonal
    scheme from x0: the two components then evolve through the exact same
    floating-point operations.
    """
    return _run_loop(f, x0, y0, cfg, target, KRASNOSELSKIJ_DOUBLE)


def picard_double(f: BivariateOperator, x0, y0, cfg: SchemeConfig, target=None) -> IterationTrace:
    """Run the plain double iteration from (x0, y0).

    No claim is made that the final pair of a converged trace is near any
    particular coupled fixed point: for operators that merely satisfy a
    weak nonexpansiveness bound, this iteration can converge to a limit
    determined by the starting pair, or oscillate (see the cycle flag).
    """
    return _run_loop(f, x0, y0, cfg, target, PICARD_DOUBLE)


def run_scheme(f: BivariateOperator, cfg: SchemeConfig, x0, y0=None, target=None) -> IterationTrace:
    """Dispatch to the engine selected by ``cfg.scheme``; the double schemes need ``y0``."""
    if cfg.scheme == KRASNOSELSKIJ_DIAGONAL:
        return krasnoselskij_diagonal(f, x0, cfg, target)
    if y0 is None:
        raise ValueError(f"y0: required for scheme {cfg.scheme}")
    if cfg.scheme == KRASNOSELSKIJ_DOUBLE:
        return krasnoselskij_double(f, x0, y0, cfg, target)
    return picard_double(f, x0, y0, cfg, target)


@dataclass
class DiagnosticCheck:
    name: str
    passed: bool
    worst_violation: float
    detail: str = ""


@dataclass
class DiagnosticReport:
    passed: bool
    checks: tuple[DiagnosticCheck, ...]

    def check(self, name: str) -> DiagnosticCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def verify_fejer_monotonicity(trace: IterationTrace, p) -> DiagnosticReport:
    """Check the descent inequalities of the relaxed schemes toward a fixed point.

    ``p`` is a vector, standing for the pair (p, p), or a ``CoupledPair``
    (p, q). For every consecutive recorded entry, with theta the weight on
    the operator image and a^2 = theta*(1-theta) (the largest admissible
    value):

        D_{n+1}         <=  D_n + 1e-12 * (1 + D_n)
        a^2 * r_n^2     <=  D_n^2 - D_{n+1}^2 + 1e-9 * (1 + D_n^2)

    where r_n is the recorded residual. On diagonal traces the distance is
    D_n = ||x_n - p||. On ``krasnoselskij_double`` traces it is the product
    distance D_n = sqrt(||x_n - p||^2 + ||y_n - q||^2): the map
    T(x, y) = (F(x, y), F(y, x)) is nonexpansive in the product norm when
    a + b <= 1, and r_n is at most the product residual, so both
    inequalities hold there. A term that is not finite (a distance or
    residual past about 1.3e154 overflows once squared) cannot be checked:
    it counts as a violation of inf, and the check's ``detail`` says how
    many there were. Raises for traces not produced by a relaxed
    (Krasnoselskij-type) scheme.
    """
    cfg = trace.scheme_config
    if cfg.scheme not in (KRASNOSELSKIJ_DIAGONAL, KRASNOSELSKIJ_DOUBLE):
        raise ValueError(f"trace comes from {cfg.scheme!r}, not a Krasnoselskij scheme")
    if isinstance(p, CoupledPair):
        pv, qv = p.x, p.y
    else:
        pv = qv = as_vector(p, "p")
    xs = np.asarray([it.x for it in trace.iterates], dtype=float)
    if xs.shape[1] != pv.shape[0]:
        raise ValueError(f"p has dimension {pv.shape[0]}, trace is {xs.shape[1]}-dimensional")
    a_sq = cfg.theta * (1.0 - cfg.theta)
    res = np.asarray(trace.residuals, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        sq_dists = ((xs - pv[None, :]) ** 2).sum(axis=1)
        if cfg.scheme == KRASNOSELSKIJ_DOUBLE:
            ys = np.asarray([it.y for it in trace.iterates], dtype=float)
            sq_dists = sq_dists + ((ys - qv[None, :]) ** 2).sum(axis=1)
        dists = np.sqrt(sq_dists)
        d0, d1 = dists[:-1], dists[1:]
        gap = d0**2 - d1**2
        checks = (
            _worst_violation("distance_nonincreasing", d1 - d0 - 1e-12 * (1.0 + d0)),
            _worst_violation("residual_energy_bound", a_sq * res[:-1] ** 2 - gap - 1e-9 * (1.0 + d0**2)),
        )
    return DiagnosticReport(all(c.passed for c in checks), checks)


def _worst_violation(name: str, terms: np.ndarray) -> DiagnosticCheck:
    # Worst violation over consecutive entries, 0.0 when none is positive. A
    # non-finite term (a distance or residual above about 1.3e154 overflows
    # once squared) cannot be checked, so it counts as a violation of inf.
    unchecked = int(np.count_nonzero(~np.isfinite(terms)))
    if unchecked:
        return DiagnosticCheck(name, False, math.inf, f"{unchecked} non-finite term(s) counted as inf")
    worst = float(np.max(terms, initial=0.0))
    return DiagnosticCheck(name, worst <= 0.0, worst)


def verify_residual_decay(trace: IterationTrace) -> DiagnosticReport:
    """Check that the residual sequence behaves like a vanishing one.

    Asserts the final residual is within tolerance for converged traces,
    that the running minimum of the residuals is nonincreasing, and, for
    traces of at least 50 entries, that the median of the last 10% of
    residuals is below the median of the first 10%.
    """
    res = np.asarray(trace.residuals, dtype=float)
    checks = []

    if trace.status == CONVERGED:
        final_ok = trace.final_residual <= trace.scheme_config.tol
        checks.append(
            DiagnosticCheck(
                "converged_final_residual",
                final_ok,
                0.0 if final_ok else trace.final_residual - trace.scheme_config.tol,
            )
        )

    running_min = np.minimum.accumulate(res)
    worst_rm = float(np.max(np.diff(running_min), initial=0.0))
    checks.append(DiagnosticCheck("running_min_nonincreasing", worst_rm <= 0.0, worst_rm))

    if len(res) >= 50:
        k = max(1, len(res) // 10)
        head = float(np.median(res[:k]))
        tail = float(np.median(res[-k:]))
        checks.append(
            DiagnosticCheck(
                "tail_median_below_head_median",
                tail < head,
                tail - head,
                detail=f"head={head:.3e} tail={tail:.3e}",
            )
        )

    return DiagnosticReport(all(c.passed for c in checks), tuple(checks))
