"""Iteration schemes for coupled fixed points, with trace-level diagnostics.

Three schemes are provided, all driven by a residual stopping rule:

- ``picard_double``:            x_{n+1} = F(x_n, y_n),  y_{n+1} = F(y_n, x_n)
- ``krasnoselskij_diagonal``:   x_{n+1} = (1 - theta) x_n + theta F(x_n, x_n)
- ``krasnoselskij_double``:     x_{n+1} = (1 - theta) x_n + theta F(x_n, y_n),
                                y_{n+1} = (1 - theta) y_n + theta F(y_n, x_n)

Weight convention: ``theta`` is always the weight on the operator image,
applied literally as ``(1 - theta) * current + theta * image`` so that a
stated theta enters the arithmetic unchanged. For theta in (0, 1) the rounded
combination of finite vectors is finite, even at the float maximum, so only F
can end a run ``diverged_nonfinite``. The residual at a pair is

    r_n = max(||x_n - F(x_n, y_n)||, ||y_n - F(y_n, x_n)||),

the quantity the relaxed schemes drive to zero; iteration stops when
``r_n <= tol`` or after ``max_iter`` steps. The plain double iteration may
oscillate forever on period-2 orbits, so it additionally stops when a
2-cycle is detected (successive iterates two apart coincide to roughly
machine precision while the residual is still large); the trace then
carries ``cycle_detected=True`` with status ``max_iter_reached``.

Domain handling: every new iterate is clamped back into the box when the
operator does not map its domain into itself, or when ``guard_domain`` is
set; the trace's config records whether the run clamped. Otherwise an
iterate escaping the box anyway stops the run with status ``left_domain``.

Traces record every iterate up to a cap of 10**5 entries; longer runs keep
every k-th iterate (k minimal to stay under the cap) plus the final one,
with explicit step indices. Each run is inherently sequential; distinct
runs share no mutable state and may execute concurrently.

A run checks its inputs once, at entry (``_start``). The block loop then carries
the pair as one (2, d) block ``z`` (row 0 is x, row 1 is y). A step:

- copies ``z`` once, into a fresh (4, d) block ``q = [x, y, y, x]``, and
  calls ``eval`` twice, ``F(x, y)`` on rows 0 and 1 and ``F(y, x)`` on rows
  2 and 3, stacking the images into a fresh block ``fz``: two calls a step,
  plus two at the final pair, as the benchmark's pins count them. Each call
  gets rows of its own, so an evaluator that writes into its arguments
  changes neither ``z`` nor the other call's rows. Both calls take
  ``eval``'s checked entry, which checks only the shape of the image: the
  rows are finite rows of shape (d,), since the starting pair was checked
  at entry and each later pair is a relaxed combination of finite rows, a
  clamp, or images found finite. ``F(y, x)`` is called even when ``F(x, y)``
  is not finite, so an exception it raises, such as ``OutputDimensionError``,
  propagates;
- takes the residual, the larger row norm of ``z - fz`` (one square root when
  both squares are in ``space``'s range). Only a residual that is not finite
  makes the loop count the finite entries of ``fz``: a non-finite image ends
  the run, or raises ``NonFiniteEvaluationError`` at the starting pair;
- for Picard, scales ``z`` once for the 2-cycle test, which reads the
  scaled pairs of the last three steps and takes their six norms from one
  stacked block;
- builds the next pair in a fresh block, ``zn = (1 - theta) * z`` and then
  ``zn += theta * fz`` in place; Picard takes ``fz`` itself;
- clamps ``zn`` into a new block when guarded, or else tests it for escape.

Nothing writes into ``z`` or into a block a trace entry holds, so every
recorded pair owns its rows.

A relaxed run at d = 1 that does not clamp takes ``_float_loop`` instead,
which carries x and y as Python floats; Picard runs, clamped runs and runs
at d > 1 take ``_block_loop``. The rule reads only the scheme, the resolved
guard and the dimension. The trace is the same, bit for bit:

- each step still calls ``eval``'s checked entry twice, on fresh rows of one
  (4, 1) block ``[x, y, y, x]``;
- the residual is ``max(|x - F(x, y)|, |y - F(y, x)|)`` with a NaN kept,
  which is what ``_max_row_norm`` returns for a (2, 1) block: for a square
  in [2**-968, inf), sqrt(fl(v * v)) rounds back to |v|, and any other
  square takes the scaled path, which gives |v| too;
- the relaxed update, the escape test against the same bounds (slack
  included), the non-finite exit and the thinned record are each the same
  IEEE operation on the same operands. The pairs are built at the end from
  one (m, 2, 1) array, and no two entries share a row of it.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass, replace

import numpy as np

from .operators import BivariateOperator, CoupledPair, NonFiniteEvaluationError
from .space import _as_count, _as_number, _as_tol, _clamp, _count_nonzero, _max_row_norm, _row_norms, as_vector
from .space import project_box  # noqa: F401 (perfbench/tracing.py wraps it here)

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
_STATUSES = (CONVERGED, MAX_ITER_REACHED, DIVERGED_NONFINITE, LEFT_DOMAIN)

TRACE_CAP = 100_000

_CYCLE_RTOL = 1e-12
_CYCLE_MIN_AMPLITUDE = 1e-6
# verify_residual_decay passes a tail median that has not risen and is at most this.
_DECAY_FLOOR = 1e-12
# Rows of the (4, d) block q = [x, y, y, x] that a step takes from the pair z = [x, y].
_XYYX = np.array([0, 1, 1, 0])


@dataclass(frozen=True)
class SchemeConfig:
    """Scheme selector plus numeric knobs for one iteration run.

    Typed and checked once, when built (also by ``dataclasses.replace`` and
    ``trace_from_json``): ``theta`` and ``tol`` become floats, ``max_iter``
    and ``seed`` ints, never rounded (a bool is rejected), and ``validate``
    must pass; ``theta`` is ignored by ``picard_double`` but must still be
    finite, since the trace's JSON carries it. ``guard_domain`` becomes a
    bool (None is False): True clamps every run, and a run on an operator
    that does not map its domain into itself clamps either way. No scheme
    reads ``seed``; it travels into the trace, where the benchmark's checks
    (``perfbench/checks.py``) compare it.
    """

    scheme: str
    theta: float = 0.5
    tol: float = 1e-10
    max_iter: int = 1000
    guard_domain: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        for name, kind in (("theta", float), ("tol", float), ("max_iter", int), ("seed", int)):
            object.__setattr__(self, name, _as_number(getattr(self, name), name, kind))
        object.__setattr__(self, "guard_domain", bool(self.guard_domain))
        self.validate()

    def validate(self) -> None:
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.scheme != PICARD_DOUBLE and not 0.0 < self.theta < 1.0:
            raise ValueError(f"theta must lie in (0, 1), got {self.theta}")
        if not math.isfinite(self.theta):  # picard_double ignores it, but its trace JSON carries it
            raise ValueError(f"theta must be finite, got {self.theta}")
        _as_tol(self.tol)
        _as_count(self.max_iter, "max_iter", 1)


@dataclass(frozen=True)
class IterationTrace:
    """Recorded history of one run.

    ``iterates[k]`` is the pair at step ``step_indices[k]`` (indices are
    consecutive unless the storage cap forced thinning), ``residuals[k]``
    its residual, and ``distances_to_target[k]`` its distance to the
    reference point when one was supplied. ``scheme_config`` is the copy
    actually used: its ``guard_domain`` says whether the run clamped. Two
    traces are equal when every field is; iterates compare element by
    element (``np.array_equal``, so 0.0 equals -0.0).

    A trace is built only if ``trace_from_json`` could read it back, as far
    as that takes constant time: ``status`` is one of the four statuses,
    ``operator_name`` a ``str``, ``cycle_detected`` a ``bool``, there is at
    least one entry, and ``step_indices``, ``residuals`` and any
    ``distances_to_target`` are as long as ``iterates``. Anything else
    raises the ``ValueError`` that ``trace_from_json`` raises for it.
    The fields cannot be assigned afterwards (``dataclasses.replace`` builds
    a checked copy); the lists they hold are plain lists.
    """

    step_indices: list[int]
    iterates: list[CoupledPair]
    residuals: list[float]
    distances_to_target: list[float] | None
    status: str
    scheme_config: SchemeConfig
    operator_name: str
    cycle_detected: bool = False

    def __post_init__(self) -> None:
        if self.status not in _STATUSES:
            raise ValueError(f"status must be one of {_STATUSES}, got {reprlib.repr(self.status)}")
        if type(self.operator_name) is not str:
            raise ValueError(f"operator_name must be a string, got {reprlib.repr(self.operator_name)}")
        if type(self.cycle_detected) is not bool:
            raise ValueError(f"cycle_detected must be a boolean, got {reprlib.repr(self.cycle_detected)}")
        m = len(self.iterates)
        if not m:
            raise ValueError(f"iterates must be a non-empty array, got {self.iterates!r}")
        for key, values in (
            ("step_indices", self.step_indices),
            ("residuals", self.residuals),
            ("distances", self.distances_to_target),
        ):
            if values is not None and len(values) != m:
                raise ValueError(f"{key} has {len(values)} entries, iterates has {m}")

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


def _is_two_cycle(sz: np.ndarray, sprev: np.ndarray, sprev2: np.ndarray, s: float) -> bool:
    # The pairs at steps n, n - 1 and n - 2 as (2, d) blocks, each scaled once,
    # by the power of two s = 2**-k with 2**k >= 2d (s = 1/2 at d = 1). Period-2
    # orbit: the pair two steps back coincides to rounding scale, AND the
    # intermediate step was macroscopic. Without the amplitude requirement, any
    # converging sequence eventually satisfies the first condition (all late
    # iterates are near the limit). Scaling by s is exact away from subnormals,
    # so no decision changes, and it keeps every difference, norm and scale
    # below the float maximum: each norm is at most s * 2 sqrt(d) * max <= max / sqrt(d).
    nx, ny, nqx, nqy, ndx, ndy = _row_norms(np.concatenate((sz, sprev2, sz - sprev2))).tolist()
    sx = s + nx + nqx
    sy = s + ny + nqy
    if ndx > _CYCLE_RTOL * sx or ndy > _CYCLE_RTOL * sy:
        return False
    return _max_row_norm(sprev - sprev2) > _CYCLE_MIN_AMPLITUDE * max(sx, sy)


def _start(f: BivariateOperator, x0, y0, cfg: SchemeConfig, target, scheme: str):
    """Check a run's inputs once; return what either loop takes: ``f``, the pair ``z`` as a
    (2, d) block, the target or None, the config as run (``guard_domain`` resolved) and the
    escape bounds."""
    if cfg.scheme != scheme:
        raise ValueError(f"config scheme is {cfg.scheme!r}, expected {scheme!r}")
    x = as_vector(x0, "x0")
    y = as_vector(y0, "y0")
    d = f.dim
    for v in (x, y):
        if v.shape[0] != d:
            raise ValueError(f"initial point has dimension {v.shape[0]}, operator expects {d}")
    for name, v in (("x0", x), ("y0", y)):
        if not f.domain.contains(v):
            raise ValueError(f"{name} = {v.tolist()} lies outside the operator domain")
    target_v = None if target is None else as_vector(target, "target")
    if target_v is not None and target_v.shape[0] != d:
        raise ValueError(f"target has dimension {target_v.shape[0]}, operator expects {d}")

    box = f.domain
    escape_slack = 1e-12 * (1.0 + float(np.abs(np.concatenate([box.lower, box.upper])).max()))
    # The bounds Box.contains(v, slack=escape_slack) compares against; next
    # to the float maximum they round to inf, which is what they mean there.
    low, high = box.lower - escape_slack, box.upper + escape_slack
    guard = cfg.guard_domain or not f.range_in_domain
    return f, np.array((x, y)), target_v, replace(cfg, guard_domain=guard), low, high


# Every overflow in a run ends in a status or in _row_norms' scaled path for squares
# out of range, so numpy's warnings about it would say nothing the trace does not.
@np.errstate(over="ignore", invalid="ignore")
def _run_loop(f: BivariateOperator, x0, y0, cfg: SchemeConfig, target, scheme: str) -> IterationTrace:
    start = _start(f, x0, y0, cfg, target, scheme)
    _, z, _, run_cfg, _, _ = start
    on_floats = z.shape[1] == 1 and not run_cfg.guard_domain and scheme != PICARD_DOUBLE
    return _float_loop(*start) if on_floats else _block_loop(*start)


def _stride(max_iter: int) -> int:
    # An entry is kept every stride-th step (the least stride that keeps at
    # most TRACE_CAP of them) and at the step where the run ends.
    return -(-(max_iter + 1) // TRACE_CAP)


def _block_loop(
    f: BivariateOperator,
    z: np.ndarray,
    target_v: np.ndarray | None,
    cfg: SchemeConfig,
    low: np.ndarray,
    high: np.ndarray,
) -> IterationTrace:
    stride = _stride(cfg.max_iter)
    steps: list[int] = []
    iterates: list[CoupledPair] = []
    residuals: list[float] = []
    distances: list[float] | None = None if target_v is None else []
    # Loop invariants, bound once.
    evaluate = f.eval
    box = f.domain
    guard = cfg.guard_domain
    picard = cfg.scheme == PICARD_DOUBLE
    theta = cfg.theta
    w = 1.0 - theta
    tol, max_iter = cfg.tol, cfg.max_iter
    keep_step, keep_pair, keep_residual = steps.append, iterates.append, residuals.append
    prev: np.ndarray | None = None
    # Picard's 2-cycle test reads the pairs it saw last, each scaled once: see _is_two_cycle.
    s = math.ldexp(1.0, -(2 * z.shape[1] - 1).bit_length())
    sz = sprev = sprev2 = None
    cycle = False
    escaped = False
    status = None
    n = 0

    while status is None:
        # Fresh rows for both evaluations, so an evaluator that writes into its
        # arguments changes neither z nor the other call's rows.
        q = z.take(_XYYX, axis=0)
        fz = np.array((evaluate(q[0], q[1], _checked=True), evaluate(q[2], q[3], _checked=True)))
        rn = _max_row_norm(z - fz)  # inf or NaN if fz is not finite, or if z - fz overflowed
        if not rn < math.inf and _count_nonzero(np.isfinite(fz)) != fz.size:
            if prev is None:
                # Broken at the starting pair: nothing sane to trace.
                raise NonFiniteEvaluationError(f"operator {f.name!r} returned non-finite output")
            # F may be undefined off its domain, so a failure at an escaped
            # point reports the escape, ending at the last pair inside.
            status = LEFT_DOMAIN if escaped else DIVERGED_NONFINITE
            n, z = n - 1, prev  # the pair evaluated last: r is its residual
            if n % stride == 0:  # thinning already kept that pair
                continue
        else:
            r = rn
            if picard:
                sz = s * z
            if escaped:
                status = LEFT_DOMAIN
            elif r <= tol:
                status = CONVERGED
            elif picard and sprev2 is not None and _is_two_cycle(sz, sprev, sprev2, s):
                status, cycle = MAX_ITER_REACHED, True
            elif n >= max_iter:
                status = MAX_ITER_REACHED
        if n % stride == 0 or status is not None:
            keep_step(n)
            keep_pair(CoupledPair._of(z[0], z[1]))
            keep_residual(r)
            if distances is not None:
                distances.append(_max_row_norm(z - target_v))
        if status is None:
            # No finiteness test: the images were counted finite, and for |a|, |b| <= the float
            # maximum and theta in (0, 1), |(1 - theta) * a + theta * b| rounds to at most it.
            # zn is a fresh block (fz is one for Picard), so writing into it leaves z alone.
            if picard:
                zn = fz
            else:
                zn = w * z
                zn += theta * fz
            if guard:
                zn = _clamp(zn, box)
            else:  # zn is finite, so < is the negation of >=
                escaped = _count_nonzero(zn < low) or _count_nonzero(zn > high)
            prev = z
            sprev2, sprev = sprev, sz
            z = zn
            n += 1

    return IterationTrace(steps, iterates, residuals, distances, status, cfg, f.name, cycle)


def _larger(a: float, b: float) -> float:
    # max(a, b) that keeps a NaN in either place, as _max_row_norm does; Python's max drops one in second place.
    return a if a >= b or a != a else b


def _float_loop(
    f: BivariateOperator,
    z: np.ndarray,
    target_v: np.ndarray | None,
    cfg: SchemeConfig,
    low: np.ndarray,
    high: np.ndarray,
) -> IterationTrace:
    # _block_loop for a relaxed run at d = 1 that does not clamp, with the pair as two Python floats.
    stride = _stride(cfg.max_iter)
    steps: list[int] = []
    coordinates: list[float] = []  # x and y of each kept entry, in turn
    residuals: list[float] = []
    distances: list[float] | None = None if target_v is None else []
    evaluate = f.eval
    theta = cfg.theta
    w = 1.0 - theta
    tol, max_iter = cfg.tol, cfg.max_iter
    lo, hi = low.item(), high.item()
    t = None if target_v is None else target_v.item()
    isfinite, inf = math.isfinite, math.inf
    keep_step, keep_coordinate, keep_residual = steps.append, coordinates.append, residuals.append
    x, y = z[:, 0].tolist()
    px = py = None
    escaped = False
    status = None
    n = 0

    # Each branch below is _block_loop's, on floats; see the module docstring for why the bits agree.
    while status is None:
        q = np.array((x, y, y, x))[:, None]  # fresh rows for both evaluations
        fx = evaluate(q[0], q[1], _checked=True).item()
        fy = evaluate(q[2], q[3], _checked=True).item()
        rn = _larger(abs(x - fx), abs(y - fy))  # inf or NaN if an image is not finite, or a difference overflowed
        if not rn < inf and not (isfinite(fx) and isfinite(fy)):
            if px is None:
                raise NonFiniteEvaluationError(f"operator {f.name!r} returned non-finite output")
            status = LEFT_DOMAIN if escaped else DIVERGED_NONFINITE
            n, x, y = n - 1, px, py  # the pair evaluated last: r is its residual
            if n % stride == 0:
                continue
        else:
            r = rn
            if escaped:
                status = LEFT_DOMAIN
            elif r <= tol:
                status = CONVERGED
            elif n >= max_iter:
                status = MAX_ITER_REACHED
        if n % stride == 0 or status is not None:
            keep_step(n)
            keep_coordinate(x)
            keep_coordinate(y)
            keep_residual(r)
            if distances is not None:
                distances.append(_larger(abs(x - t), abs(y - t)))
        if status is None:
            px, py = x, y
            x = w * x + theta * fx
            y = w * y + theta * fy
            escaped = x < lo or x > hi or y < lo or y > hi
            n += 1

    iterates = [CoupledPair._of(*pair) for pair in np.array(coordinates).reshape(-1, 2, 1)]
    return IterationTrace(steps, iterates, residuals, distances, status, cfg, f.name)


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
    many there were; so the distances are squared here, not scaled as ``space`` does.
    Raises for traces not produced by a relaxed (Krasnoselskij-type) scheme.
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

    Asserts the final residual is within tolerance for converged traces
    and, for traces of at least 50 entries, that the median of the last
    10% of residuals is below the median of the first 10%, or, when the
    residuals have not risen (tail median at most head median), is at most
    1e-12 in absolute terms. A run that reaches its rounding floor within
    its first tenth stays there, so its tail cannot fall below its head, yet
    it has vanished as far as floating point can tell. The floor is absolute,
    like ``SchemeConfig.tol``, and a tail above its head never passes.
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

    if len(res) >= 50:
        k = max(1, len(res) // 10)
        head = float(np.median(res[:k]))
        tail = float(np.median(res[-k:]))
        checks.append(
            DiagnosticCheck(
                "tail_median_below_head_median",
                tail < head or tail <= min(head, _DECAY_FLOOR),
                tail - head,
                detail=f"head={head:.3e} tail={tail:.3e}",
            )
        )

    return DiagnosticReport(all(c.passed for c in checks), tuple(checks))
