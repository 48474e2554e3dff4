"""Lossless serialization of iteration traces.

The JSON schema is a bit-exact contract: every float is written with 17
significant digits, which round-trips double precision exactly, so a trace
parsed back from its JSON form compares equal (bitwise on coordinates) to
the in-memory original. Top-level fields:

    scheme, theta, tol, status, iterates (array of {n, x, y}),
    residuals, distances (array or null), operator_name, seed,
    max_iter, guard_domain, cycle_detected

Iterates are finite; a residual or distance that overflowed is +inf,
which JSON cannot spell, so it is written as ``1e999`` (read back as inf).
``trace_from_json`` raises a ``ValueError`` naming what is wrong: a
missing key, a ``residuals`` or ``distances`` list whose length differs
from ``iterates``, or a config that ``SchemeConfig`` rejects (an unknown
scheme, theta outside (0, 1), a non-integral ``max_iter`` or ``seed``, ...).

CSV output has columns ``n, x0..x{d-1}, y0..y{d-1}, residual,
distance_to_target`` (the last column is empty when no reference point was
supplied); an infinite residual is written as ``inf``.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math

import numpy as np

from .iteration import IterationTrace, SchemeConfig
from .operators import CoupledPair

__all__ = ["format_float", "trace_to_json", "trace_from_json", "trace_to_csv"]


def format_float(v: float) -> str:
    """17-significant-digit decimal form; parses back to the identical double."""
    return format(float(v), ".17g")


def _json_float(v: float) -> str:
    # Residuals and distances are norms, so +inf is the one non-finite value
    # a trace holds; JSON has no word for it, and json.loads reads 1e999 as inf.
    return "1e999" if v == math.inf else format_float(v)


def _vec(v: np.ndarray) -> str:
    return "[" + ", ".join(format_float(c) for c in v) + "]"


def trace_to_json(trace: IterationTrace) -> str:
    cfg = trace.scheme_config
    out = io.StringIO()
    out.write("{\n")
    out.write(f'  "scheme": {json.dumps(cfg.scheme)},\n')
    out.write(f'  "theta": {format_float(cfg.theta)},\n')
    out.write(f'  "tol": {format_float(cfg.tol)},\n')
    out.write(f'  "status": {json.dumps(trace.status)},\n')
    out.write('  "iterates": [\n')
    rows = []
    for n, pair in zip(trace.step_indices, trace.iterates):
        rows.append(f'    {{"n": {n}, "x": {_vec(pair.x)}, "y": {_vec(pair.y)}}}')
    out.write(",\n".join(rows))
    out.write("\n  ],\n")
    out.write('  "residuals": [' + ", ".join(map(_json_float, trace.residuals)) + "],\n")
    if trace.distances_to_target is None:
        out.write('  "distances": null,\n')
    else:
        out.write(
            '  "distances": ['
            + ", ".join(map(_json_float, trace.distances_to_target))
            + "],\n"
        )
    out.write(f'  "operator_name": {json.dumps(trace.operator_name)},\n')
    out.write(f'  "seed": {cfg.seed},\n')
    out.write(f'  "max_iter": {cfg.max_iter},\n')
    out.write(f'  "guard_domain": {json.dumps(cfg.guard_domain)},\n')
    out.write(f'  "cycle_detected": {json.dumps(bool(trace.cycle_detected))}\n')
    out.write("}\n")
    return out.getvalue()


_CONFIG_KEYS = tuple(field.name for field in dataclasses.fields(SchemeConfig))
_TRACE_KEYS = ("status", "iterates", "residuals", "distances", "operator_name", "cycle_detected")


def trace_from_json(text: str) -> IterationTrace:
    """Parse what ``trace_to_json`` wrote; a ``ValueError`` names what is wrong."""
    doc = json.loads(text)
    missing = [key for key in (*_CONFIG_KEYS, *_TRACE_KEYS) if key not in doc]
    if missing:
        raise ValueError(f"trace has no {missing[0]!r} key")
    cfg = SchemeConfig(**{key: doc[key] for key in _CONFIG_KEYS})
    entries, distances = doc["iterates"], doc["distances"]
    for key in ("residuals",) if distances is None else ("residuals", "distances"):
        if len(doc[key]) != len(entries):
            raise ValueError(f"{key} has {len(doc[key])} entries, iterates has {len(entries)}")
    try:
        steps = [int(e["n"]) for e in entries]
        iterates = [
            CoupledPair(np.asarray(e["x"], dtype=float), np.asarray(e["y"], dtype=float)) for e in entries
        ]
    except KeyError as exc:
        k = next(k for k, e in enumerate(entries) if exc.args[0] not in e)
        raise ValueError(f"iterates[{k}] has no {exc.args[0]!r} key") from None
    return IterationTrace(
        step_indices=steps,
        iterates=iterates,
        residuals=[float(r) for r in doc["residuals"]],
        distances_to_target=None if distances is None else [float(d) for d in distances],
        status=doc["status"],
        scheme_config=cfg,
        operator_name=doc["operator_name"],
        cycle_detected=bool(doc["cycle_detected"]),
    )


def trace_to_csv(trace: IterationTrace) -> str:
    d = trace.iterates[0].dim if trace.iterates else 0
    header = (
        ["n"]
        + [f"x{i}" for i in range(d)]
        + [f"y{i}" for i in range(d)]
        + ["residual", "distance_to_target"]
    )
    lines = [",".join(header)]
    dists = trace.distances_to_target
    for k, (n, pair) in enumerate(zip(trace.step_indices, trace.iterates)):
        cells = [str(n)]
        cells.extend(format_float(c) for c in pair.x)
        cells.extend(format_float(c) for c in pair.y)
        cells.append(format_float(trace.residuals[k]))
        cells.append("" if dists is None else format_float(dists[k]))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
