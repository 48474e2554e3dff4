"""Spans around calls into coupledfix's modules, and the per-layer metrics.

The traced run wraps the public functions of each module at every binding
the workloads reach: a function imported by name into another module (for
example ``space.as_vector`` in ``operators`` and ``iteration``, or
``iteration.run_scheme`` in ``cli``) is wrapped in that module too. Each
span keeps its name, start, end, parent span and operation id in compact
arrays; the arrays are written out when the run ends, and the metrics are
derived from them. Spans are recorded only inside timed operations.

A layer's self time is the time of its spans minus the part covered by
their child spans. The cost of the wrappers themselves lands in the self
time of the enclosing span, which is why the traced run also reports its
own ``op_p50_ms``: the gap to the untraced run is the tracing overhead.
"""

from __future__ import annotations

import json
import time
from array import array

import numpy as np

from coupledfix import cli, closed_form, contractivity, iteration, operators, space, trace_io

LAYERS = ("cli", "iteration", "operators", "space", "trace_io", "contractivity", "closed_form")

# (layer, module, attribute, binding modules). The wrapper replaces the
# attribute on the owning module and on every module that imported it by name.
TARGETS = (
    ("cli", cli, "main", ()),
    ("iteration", iteration, "run_scheme", (cli,)),
    ("iteration", iteration, "picard_double", ()),
    ("iteration", iteration, "krasnoselskij_diagonal", ()),
    ("iteration", iteration, "krasnoselskij_double", ()),
    ("operators", operators, "get_operator", (cli,)),
    ("operators", operators, "make_linear_operator", (cli,)),
    ("operators", operators, "is_coupled_fixed_point", ()),
    ("space", space, "as_vector", (operators, iteration, closed_form)),
    ("space", space, "norm", (operators,)),
    ("space", space, "inner", ()),
    ("space", space, "convex_combination", ()),
    ("space", space, "convex_identity_defect", ()),
    ("space", space, "project_box", (iteration,)),
    ("trace_io", trace_io, "trace_to_json", (cli,)),
    ("trace_io", trace_io, "trace_to_csv", (cli,)),
    ("trace_io", trace_io, "trace_from_json", ()),
    ("contractivity", contractivity, "analyze_operator", (cli,)),
    ("contractivity", contractivity, "estimate_constants", ()),
    ("contractivity", contractivity, "draw_quadruples", ()),
    ("contractivity", contractivity, "classify", ()),
    ("contractivity", contractivity, "report_to_json", (cli,)),
    ("closed_form", closed_form, "oracle_trace", ()),
    ("closed_form", closed_form, "oracle_iterate", ()),
    ("closed_form", closed_form, "oracle_limit", ()),
)
METHODS = (
    ("operators", operators.BivariateOperator, "eval"),
    ("space", space.Box, "contains"),
)

# Amounts recorded on a span when it returns: steps and trace entries of a
# scheme run, bytes a writer produced or a reader consumed, samples an
# analysis used, and iterates an oracle produced.
SCHEME_RUNS = ("picard_double", "krasnoselskij_diagonal", "krasnoselskij_double")
AMOUNTS = {
    **{name: lambda args, out: {"steps": out.n_steps, "entries": len(out.step_indices)} for name in SCHEME_RUNS},
    "trace_to_json": lambda args, out: {"bytes": len(out.encode())},
    "trace_to_csv": lambda args, out: {"bytes": len(out.encode())},
    "trace_from_json": lambda args, out: {"bytes": len(args[0].encode())},
    "analyze_operator": lambda args, out: {"samples": out.samples_used},
    "oracle_trace": lambda args, out: {"iterates": len(out)},
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.amounts: dict[int, dict] = {}
        self.stack: list[int] = []
        self.op_id = -1
        self._undo: list[tuple[object, str, object]] = []

    def span_wrapper(self, layer: str, attr: str, fn):
        nid = len(self.names)
        self.names.append(f"{layer}.{attr}")
        clock = time.perf_counter
        stack = self.stack
        amount_of = AMOUNTS.get(attr)

        def wrapper(*args, **kwargs):
            if self.op_id < 0:
                return fn(*args, **kwargs)
            idx = len(self.start)
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(nid)
            self.op.append(self.op_id)
            self.start.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if amount_of is not None:
                self.amounts[idx] = amount_of(args, out)
            return out

        return wrapper

    def install(self) -> None:
        for layer, module, attr, bindings in TARGETS:
            fn = getattr(module, attr)
            wrapped = self.span_wrapper(layer, attr, fn)
            for target in (module, *bindings):
                self._undo.append((target, attr, getattr(target, attr)))
                setattr(target, attr, wrapped)
        for layer, cls, attr in METHODS:
            fn = getattr(cls, attr)
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self.span_wrapper(layer, attr, fn))

    def uninstall(self) -> None:
        while self._undo:
            target, attr, fn = self._undo.pop()
            setattr(target, attr, fn)

    def save(self, path: str) -> None:
        np.savez(
            path,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            names=np.array(json.dumps(self.names)),
            amounts=np.array(json.dumps({str(k): v for k, v in self.amounts.items()})),
        )


def load(path: str) -> dict:
    with np.load(path) as z:
        data = {k: z[k] for k in ("start", "end", "name", "parent", "op")}
        data["names"] = json.loads(str(z["names"]))
        data["amounts"] = {int(k): v for k, v in json.loads(str(z["amounts"])).items()}
    return data


def _under(parent: np.ndarray, layer_of: np.ndarray, layer: int) -> np.ndarray:
    """For each span, whether some ancestor span belongs to ``layer``."""
    flag = np.zeros(parent.shape[0], dtype=bool)
    cur = parent.copy()
    live = cur >= 0
    while live.any():
        flag[live] |= layer_of[cur[live]] == layer
        cur[live] = parent[cur[live]]
        live = cur >= 0
    return flag


def per_layer_metrics(spans: dict, n_ops: int) -> dict[str, float]:
    """Per-layer figures, per operation where they are totals."""
    names = spans["names"]
    lid = {name: i for i, name in enumerate(LAYERS)}
    layer_of_name = np.array([lid[n.split(".", 1)[0]] for n in names] or [0], dtype=np.int64)
    name = spans["name"].astype(np.int64)
    parent = spans["parent"].astype(np.int64)
    dur = spans["end"] - spans["start"]
    layer_of = layer_of_name[name]
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.shape[0])
    self_time = dur - child_time
    layer_self = np.bincount(layer_of, weights=self_time, minlength=len(LAYERS))
    parent_layer = np.where(has_parent, layer_of[np.maximum(parent, 0)], -1)
    top_of_layer = parent_layer != layer_of  # a call into the layer from outside it

    def amount(key: str, attrs) -> float:
        ids = [i for i, n in enumerate(names) if n.split(".", 1)[1] in attrs]
        total = 0
        for idx, am in spans["amounts"].items():
            if name[idx] in ids and key in am:
                total += am[key]
        return total

    def count(mask) -> int:
        return int(np.count_nonzero(mask))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def is_name(*full):
        ids = [i for i, n in enumerate(names) if n in full]
        return np.isin(name, ids)

    ops = max(n_ops, 1)
    steps = amount("steps", SCHEME_RUNS)
    entries = amount("entries", SCHEME_RUNS)
    in_iteration = _under(parent, layer_of, lid["iteration"])
    in_contractivity = _under(parent, layer_of, lid["contractivity"])
    evals = is_name("operators.eval")
    space_calls = (layer_of == lid["space"]) & top_of_layer
    written = amount("bytes", ("trace_to_json", "trace_to_csv"))
    read = amount("bytes", ("trace_from_json",))
    write_s = float(self_time[is_name("trace_io.trace_to_json", "trace_io.trace_to_csv")].sum())
    read_s = float(self_time[is_name("trace_io.trace_from_json")].sum())
    samples = amount("samples", ("analyze_operator",))
    analyze_s = float(dur[is_name("contractivity.analyze_operator") & top_of_layer].sum())
    iterates = amount("iterates", ("oracle_trace",))
    oracle_s = float(dur[is_name("closed_form.oracle_trace") & top_of_layer].sum())
    ms = 1e3
    us = 1e6
    return {
        "cli.self_ms_per_op": layer_self[lid["cli"]] * ms / ops,
        "iteration.steps": steps / ops,
        "iteration.self_us_per_step": ratio(layer_self[lid["iteration"]] * us, steps),
        "iteration.recorded_entries": entries / ops,
        "operators.eval_calls": count(evals) / ops,
        "operators.evals_per_step": ratio(count(evals & in_iteration), steps),
        "operators.eval_self_us": ratio(float(self_time[evals].sum()) * us, count(evals)),
        "space.calls_per_step": ratio(count(space_calls & in_iteration), steps),
        "space.self_ms_per_op": layer_self[lid["space"]] * ms / ops,
        "trace_io.write_ms_per_op": write_s * ms / ops,
        "trace_io.read_ms_per_op": read_s * ms / ops,
        "trace_io.bytes_written": written / ops,
        "trace_io.write_mb_per_s": ratio(written / 1e6, write_s),
        "trace_io.read_mb_per_s": ratio(read / 1e6, read_s),
        "contractivity.samples": samples / ops,
        "contractivity.samples_per_s": ratio(samples, analyze_s),
        "contractivity.evals_per_sample": ratio(count(evals & in_contractivity), samples),
        "contractivity.self_ms_per_op": layer_self[lid["contractivity"]] * ms / ops,
        "closed_form.iterates": iterates / ops,
        "closed_form.us_per_iterate": ratio(oracle_s * us, iterates),
    }
