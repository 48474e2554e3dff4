"""Tests of the benchmark itself: short runs, and checks that reject corrupted outputs.

Run from the root of the repository:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from coupledfix import CoupledPair, iteration  # noqa: E402

WORKLOADS = tuple(workloads.BUILDERS)


def bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_short_run_is_correct_and_reports_every_metric(workload, trace):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--short"))
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in res["metrics"].items()} == units
    if trace == "0":
        assert all(v["value"] > 0 for v in res["metrics"].values())


LAYERS_RUN = {
    "sweep_analyze": {"cli.self_ms_per_op", "iteration.steps", "space.calls_per_step", "contractivity.samples"},
    "trace_paper": {"cli.self_ms_per_op", "iteration.steps", "trace_io.bytes_written", "trace_io.read_mb_per_s",
                    "closed_form.iterates"},
}
LAYERS_IDLE = {
    "sweep_analyze": {"trace_io.bytes_written", "closed_form.iterates"},
    "trace_paper": {"contractivity.samples", "contractivity.samples_per_s"},
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_each_layer_where_it_runs(workload):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--short"))
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert all(m[k] > 0 for k in LAYERS_RUN[workload])
    assert all(m[k] == 0 for k in LAYERS_IDLE[workload])
    # Every scheme evaluates F twice per step, plus twice at the final pair.
    assert 2.0 < m["operators.evals_per_step"] < 2.2


def test_metrics_match_the_benchmark_file():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------- corrupted outputs


def test_sweep_rejects_a_final_pair_moved_by_1e_6(tmp_path):
    op = workloads.build_sweep(5, str(tmp_path), True)[0]
    rc, text = op.run()
    spec, scheme = op.context["spec"], op.context["scheme"]
    row = checks.parse_sweep(text)[0]
    f = workloads.library_operator(spec)
    cfg = iteration.SchemeConfig(scheme, theta=row[0], tol=workloads.TOL, max_iter=5000)
    trace = iteration.run_scheme(f, cfg, spec["x0"], spec["y0"])
    assert checks.sweep_final_pair(trace, row, spec, scheme, workloads.TOL) == []
    last = trace.iterates[-1]
    trace.iterates[-1] = CoupledPair(last.x + 1e-6, last.y)
    assert checks.sweep_final_pair(trace, row, spec, scheme, workloads.TOL)


def test_sweep_rejects_a_flipped_status(tmp_path):
    op = workloads.build_sweep(5, str(tmp_path), True)[0]
    rc, text = op.run()
    args = (op.context["spec"], op.context["scheme"], op.context["grid"], workloads.TOL)
    assert checks.sweep_rows(text, *args) == []
    flipped = text.replace("converged", "max_iter_reached", 1)
    assert checks.sweep_rows(flipped, *args)
    assert op.check((0, flipped))


def test_long_trace_rejects_one_changed_digit_in_a_json_float(tmp_path):
    op = next(o for o in workloads.build_long_trace(5, str(tmp_path), True) if o.label.startswith("run:json"))
    out = op.run()
    assert op.check(out) == []
    with open(op.context["out_path"], encoding="utf-8") as fh:
        text = fh.read()
    # Change the tenth significant digit of a residual written with at least that many.
    head, tail = text.split('"residuals": [', 1)
    values = tail.split(", ")
    k = next(i for i, v in enumerate(values) if re.match(r"-?\d\.\d{10}", v))
    old = values[k][10]
    values[k] = values[k][:10] + ("1" if old != "1" else "2") + values[k][11:]
    corrupted = head + '"residuals": [' + ", ".join(values)
    assert json.loads(corrupted)["residuals"][k] != json.loads(text)["residuals"][k]
    with open(op.context["out_path"], "w", encoding="utf-8") as fh:
        fh.write(corrupted)
    assert op.check(out)


def test_analyze_rejects_an_a_hat_above_its_bound(tmp_path):
    for op in workloads.build_analyze(5, str(tmp_path), True):
        rc, text = op.run()
        assert op.check((rc, text)) == []
        spec = op.context["spec"]
        bound = spec["problem"].norm_a if spec["operator"] == "linear" else checks.KNOWN_CONSTANTS[spec["operator"]][0]
        doc = json.loads(text)
        doc["a_hat"] = bound + 1e-6
        assert op.check((rc, json.dumps(doc))), op.label


def test_paper_examples_reject_an_oracle_step_perturbed_by_1e_9(tmp_path):
    for op in workloads.build_paper_examples(5, str(tmp_path), True):
        trace, oracle = op.run()
        assert op.check((trace, oracle)) == []
        k = len(oracle) // 2
        oracle[k] = CoupledPair(oracle[k].x + 1e-9, oracle[k].y)
        assert op.check((trace, oracle)), op.label


def test_labels_follow_the_constants():
    assert checks.expected_labels(1 / 3, 2 / 3) == {
        "weakly_nonexpansive_candidate", "refuted_nonexpansive", "refuted_contraction"}
    assert checks.expected_labels(0.5, 0.5) == {
        "weakly_nonexpansive_candidate", "nonexpansive_candidate", "refuted_contraction"}
    assert "refuted_weakly_nonexpansive" in checks.expected_labels(8.0, 2.0)


def test_self_time_subtracts_child_spans():
    spans = {
        "names": ["cli.main", "iteration.krasnoselskij_diagonal", "operators.eval", "space.as_vector"],
        "name": np.array([0, 1, 2, 3, 2]),
        "parent": np.array([-1, 0, 1, 2, 1]),
        "start": np.array([0.0, 1.0, 2.0, 2.5, 4.0]),
        "end": np.array([10.0, 6.0, 3.0, 2.7, 5.0]),
        "op": np.zeros(5, dtype=np.int32),
        "amounts": {1: {"steps": 1, "entries": 2}},
    }
    m = tracing.per_layer_metrics(spans, 1)
    assert m["cli.self_ms_per_op"] == pytest.approx(5e3)
    assert m["iteration.self_us_per_step"] == pytest.approx(3e6)
    assert m["operators.eval_self_us"] == pytest.approx(0.9e6)
    assert m["operators.evals_per_step"] == 2 and m["space.calls_per_step"] == 1
