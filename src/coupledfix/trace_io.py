"""Lossless serialization of iteration traces.

The JSON schema is a bit-exact contract: every float is written with 17
significant digits, which round-trips double precision exactly, so a trace
parsed back from its JSON form compares equal (bitwise on coordinates) to
the in-memory original. The top-level keys, their order and how each is
written are declared once, in ``_KEYS``; ``iterates`` is an array of
{n, x, y}, and ``distances`` is null when no reference point was given.

Iterates are finite; a residual or distance that overflowed is +inf,
which JSON cannot spell, so it is written as ``1e999`` (read back as inf).
A ``-0.0`` (a coordinate, or a Picard ``theta``) is written as ``-0``, and
``_DECODER`` reads ``-0`` as that float, not as the integer 0, so its sign
survives the round trip; the CLI reads every number it is given with it.
``trace_from_json`` reads back only what ``trace_to_json`` can write, and
raises a ``ValueError`` naming the key for anything else. It checks only
what JSON alone can get wrong, and leaves each value rule to the class
that owns it:

- a document that is not an object, or lacks a key or has one more, or
  is nested too deep for ``json`` to read;
- a config value of the wrong JSON kind, from ``_KEYS`` (a string
  ``theta``, a float ``max_iter``, ``"no"`` or ``1`` for
  ``guard_domain``), or an ``iterates``, ``residuals`` or ``distances``
  that is not an array;
- a config that ``SchemeConfig`` rejects (an unknown scheme, theta
  outside (0, 1), ``tol`` of 0, ...);
- what ``IterationTrace`` refuses when it is built: a ``status`` outside
  the four statuses, an ``operator_name`` that is not a string, a
  ``cycle_detected`` that is not a boolean, an empty ``iterates``, or a
  ``residuals`` or ``distances`` list whose length differs from it;
- an iterate that is not ``{n, x, y}``, step indices that are not
  integers rising from 0 (such as ``1.5`` or ``[0, 1, 7, 3]``), ``x`` or
  ``y`` that is not an array of finite numbers, or iterates of different
  dimensions;
- a residual or distance that is not a number >= 0 (a string, a boolean,
  NaN or a negative number), or that overflows a float but is not spelt
  ``1e999`` (such as ``1e400``), which the writer would rewrite;
- ``NaN``, ``Infinity`` and ``-Infinity``, which ``json`` alone reads as
  floats, and integers past ``int``'s 4300 digits, wherever they stand.

CSV output has columns ``n, x0..x{d-1}, y0..y{d-1}, residual,
distance_to_target`` (the last column is empty when no reference point was
supplied); an infinite residual is written as ``inf``.

Each writer fills one row template per trace, with one ``%`` a row (the
JSON ``{n, x, y}`` entry or the CSV line): ``"%.17g" % v`` is the same
string as ``format_float(v)``, inf and -0.0 included. A diagonal trace
(every entry's x and y the same bits, as in a double run started from
x0 == y0) formats each x once and writes that text for y too; the test
stops at the first entry whose x and y differ, so a double trace pays
for it about once. 0.0 and -0.0 differ in bits, so they never share
text. The JSON norms fill one template too, unless the list holds inf,
which goes value by value, for its ``1e999``. The reader checks each
entry's structure, then reads every coordinate as one (2, m, d) block,
whose rows are the pairs, and each list of norms in one array pass. Only
when that fails does it go entry by entry or value by value, to name the
first bad one.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import reprlib

from .iteration import IterationTrace, SchemeConfig
from .operators import CoupledPair
from .space import _as_array, _count_nonzero

__all__ = ["format_float", "trace_to_json", "trace_from_json", "trace_to_csv"]


def format_float(v: float) -> str:
    """17-significant-digit decimal form; parses back to the identical double."""
    return format(float(v), ".17g")


def _json_float(v: float) -> str:
    # Residuals and distances are norms, so +inf is the one non-finite value
    # a trace holds; JSON has no word for it, and json.loads reads 1e999 as inf.
    return "1e999" if v == math.inf else format_float(v)


def _array(values) -> str:
    # One template for the norms, as for the iterates; a list that holds inf goes value by value.
    if math.inf in values:
        return "[" + ", ".join(map(_json_float, values)) + "]"
    return ("[" + ", ".join(["%.17g"] * len(values)) + "]") % tuple(values)


def _diagonal_texts(trace: IterationTrace, template: str):
    # Each entry's x filled into template, when every entry's y is its x bit for bit
    # (so the same text); else None. The test stops at the first entry where they differ.
    if all(p.x.tobytes() == p.y.tobytes() for p in trace.iterates):
        return [template % tuple(p.x.tolist()) for p in trace.iterates]
    return None


def _iterates(trace: IterationTrace) -> str:
    # One template per trace: "%.17g" % v is format_float(v), and coordinates are finite.
    values = ", ".join(["%.17g"] * trace.iterates[0].dim)
    texts = _diagonal_texts(trace, values)
    if texts is None:
        row = '    {"n": %s, "x": [' + values + '], "y": [' + values + "]}"
        rows = [row % (n, *p.x.tolist(), *p.y.tolist()) for n, p in zip(trace.step_indices, trace.iterates)]
    else:
        rows = ['    {"n": %s, "x": [%s], "y": [%s]}' % (n, t, t) for n, t in zip(trace.step_indices, texts)]
    return "[\n" + ",\n".join(rows) + "\n  ]"


def _kind(name: str, *types: type):
    # A JSON value kind: its name in error messages, and a test of a parsed value.
    return name, lambda v: type(v) in types


_NUMBER = _kind("a number", float, int)
_INTEGER = _kind("an integer", int)

# The top-level keys in file order, each with its writer and the kind of
# value trace_from_json accepts for it, or None where IterationTrace checks
# the value when it is built; a trace has exactly these keys.
_KEYS = {
    "scheme": (lambda t: json.dumps(t.scheme_config.scheme), _kind("a string", str)),
    "theta": (lambda t: format_float(t.scheme_config.theta), _NUMBER),
    "tol": (lambda t: format_float(t.scheme_config.tol), _NUMBER),
    "status": (lambda t: json.dumps(t.status), None),
    "iterates": (_iterates, _kind("an array", list)),  # IterationTrace rejects an empty one
    "residuals": (lambda t: _array(t.residuals), _kind("an array", list)),
    "distances": (
        lambda t: "null" if t.distances_to_target is None else _array(t.distances_to_target),
        _kind("an array or null", list, type(None)),
    ),
    "operator_name": (lambda t: json.dumps(t.operator_name), None),
    "seed": (lambda t: str(t.scheme_config.seed), _INTEGER),
    "max_iter": (lambda t: str(t.scheme_config.max_iter), _INTEGER),
    "guard_domain": (lambda t: json.dumps(t.scheme_config.guard_domain), _kind("a boolean", bool)),
    "cycle_detected": (lambda t: json.dumps(t.cycle_detected), None),
}
_ENTRY_KEYS = dict.fromkeys(("n", "x", "y"))
_CONFIG_KEYS = tuple(field.name for field in dataclasses.fields(SchemeConfig))
_NUMBERS = frozenset({float, int})


class _Token(str):
    # NaN, Infinity or -Infinity, which JSON lacks and json alone reads as floats, or an
    # integer too long for int(). The reader's checks test exact types, so none takes it.
    __repr__ = str.__str__


def _int(text: str):
    # format_float writes -0.0 as "-0", which json alone reads as the integer 0. An
    # integer past int()'s limit of 4300 digits is a token, which the key's check names.
    try:
        return -0.0 if text == "-0" else int(text)
    except ValueError:
        return _Token(text)


# How number text is read, in a trace and in every CLI value: JSON numbers only.
_DECODER = json.JSONDecoder(parse_int=_int, parse_constant=_Token)


def _float(text: str):
    # A decimal that overflows a float is a token unless it is the writer's own 1e999.
    v = float(text)
    return _Token(text) if math.isinf(v) and text != "1e999" else v


# _DECODER plus that rule, for the rare trace that holds an infinite norm: a
# parse_float hook on every float would slow every read.
_INF_DECODER = json.JSONDecoder(parse_int=_int, parse_constant=_Token, parse_float=_float)


def trace_to_json(trace: IterationTrace) -> str:
    return "{\n" + ",\n".join(f'  "{key}": {write(trace)}' for key, (write, _) in _KEYS.items()) + "\n}\n"


def _wrong_keys(where: str, doc, keys) -> ValueError:
    if type(doc) is not dict:
        return ValueError(f"{where} must be a JSON object, got {reprlib.repr(doc)}")
    missing = [key for key in keys if key not in doc]
    if missing:
        return ValueError(f"{where} has no {missing[0]!r} key")
    return ValueError(f"{where} has an unknown key {min(doc.keys() - keys)!r}")


def _norm_value(key: str, k: int, v) -> float:
    # A residual or distance as the writer writes it: a number >= 0, inf included.
    try:
        f = float(v) if type(v) in _NUMBERS else math.nan
    except OverflowError:  # an integer past the float range
        f = math.nan
    if not f >= 0.0:
        raise ValueError(f"{key}[{k}] must be a number >= 0, got {reprlib.repr(v)}")
    return f


def _norms(key: str, values: list, text: str) -> list[float]:
    # One type pass and one array pass when every value is a finite number >= 0; else value
    # by value, which names a bad value and reads inf back only where the writer wrote 1e999.
    try:
        arr = _as_array(values, key) if _NUMBERS.issuperset(map(type, values)) else None
    except ValueError:  # an inf, or an integer past the float range
        arr = None
    if arr is not None and _count_nonzero(arr >= 0.0) == arr.size:
        return arr.tolist()
    values = [_norm_value(key, k, v) for k, v in enumerate(values)]
    if math.inf in values:  # written 1e999, or an overflowing literal the writer never writes
        values = [_norm_value(key, k, v) for k, v in enumerate(_INF_DECODER.decode(text)[key])]
    return values


def _iterates_of(entries: list, one_by_one: bool) -> tuple[list[int], list[CoupledPair]]:
    # Each entry's structure, and then every coordinate as one (2, m, d) block; or, one by one,
    # each entry's own CoupledPair, which names the first bad entry.
    steps, xs, ys, iterates = [], [], [], []
    for k, e in enumerate(entries):
        if type(e) is not dict or e.keys() != _ENTRY_KEYS.keys():
            raise _wrong_keys(f"iterates[{k}]", e, _ENTRY_KEYS)
        n, x, y = e["n"], e["x"], e["y"]
        if type(n) is not int or (n <= steps[-1] if steps else n != 0):
            raise ValueError(f"iterates[{k}] has n = {n!r}: step indices are integers rising from 0")
        if type(x) is not list or type(y) is not list or not _NUMBERS.issuperset(map(type, x + y)):
            raise ValueError(f"iterates[{k}]: x and y must be arrays of numbers, got {reprlib.repr(e)}")
        if one_by_one:
            try:
                pair = CoupledPair(x, y)
            except ValueError as exc:
                raise ValueError(f"iterates[{k}]: {exc}") from None
            if iterates and pair.dim != iterates[0].dim:
                raise ValueError(f"iterates[{k}] has dimension {pair.dim}, iterates[0] has {iterates[0].dim}")
            iterates.append(pair)
        steps.append(n)
        xs.append(x)
        ys.append(y)
    if one_by_one:
        return steps, iterates
    block = _as_array((xs, ys), "iterates")  # ragged rows or a non-finite coordinate raise here
    if not block.size:  # no entry, or empty rows: the pass entry by entry names the fault
        raise ValueError("iterates holds no coordinates")
    return steps, list(map(CoupledPair._of, block[0], block[1]))


def trace_from_json(text: str) -> IterationTrace:
    """Parse what ``trace_to_json`` wrote; a ``ValueError`` names what is wrong."""
    try:
        doc = _DECODER.decode(text)
    except RecursionError:
        raise ValueError("trace is nested too deep to read") from None
    if type(doc) is not dict or doc.keys() != _KEYS.keys():
        raise _wrong_keys("trace", doc, _KEYS)
    for key, (_, kind) in _KEYS.items():
        if kind is not None and not kind[1](doc[key]):
            raise ValueError(f"{key} must be {kind[0]}, got {reprlib.repr(doc[key])}")
    cfg = SchemeConfig(**{key: doc[key] for key in _CONFIG_KEYS})
    try:
        steps, iterates = _iterates_of(doc["iterates"], one_by_one=False)
    except ValueError:  # entry by entry, the first bad entry raises what it alone would
        steps, iterates = _iterates_of(doc["iterates"], one_by_one=True)
    # Each list is walked on its own; the constructor compares the lengths.
    norms = {key: _norms(key, doc[key], text) for key in ("residuals", "distances") if doc[key] is not None}
    return IterationTrace(
        step_indices=steps,
        iterates=iterates,
        residuals=norms["residuals"],
        distances_to_target=norms.get("distances"),
        status=doc["status"],
        scheme_config=cfg,
        operator_name=doc["operator_name"],
        cycle_detected=doc["cycle_detected"],
    )


def trace_to_csv(trace: IterationTrace) -> str:
    d = trace.iterates[0].dim
    header = (
        ["n"]
        + [f"x{i}" for i in range(d)]
        + [f"y{i}" for i in range(d)]
        + ["residual", "distance_to_target"]
    )
    # One template per trace, filled once a row: "%.17g" % v is format_float(v), inf included.
    dists = trace.distances_to_target
    last = "%s" if dists is None else "%.17g"
    if dists is None:  # the last cell is empty
        dists = itertools.repeat("")
    lines = [",".join(header)]
    texts = _diagonal_texts(trace, "%.17g," * d)
    if texts is None:
        row = "%s," + "%.17g," * (2 * d + 1) + last
        lines += [
            row % (n, *p.x.tolist(), *p.y.tolist(), r, dist)
            for n, p, r, dist in zip(trace.step_indices, trace.iterates, trace.residuals, dists)
        ]
    else:
        row = "%s,%s%s%.17g," + last
        lines += [
            row % (n, t, t, r, dist)
            for n, t, r, dist in zip(trace.step_indices, texts, trace.residuals, dists)
        ]
    lines.append("")  # one join, to the final newline: no copy of the text is added to it
    return "\n".join(lines)
