"""Regenerate the benchmark's reference figures.

    python3 perfbench/reference.py --seeds 10 --seconds 20

Runs two sets of untraced runs of every workload, each with its own seeds
(set 1 uses seeds 1..N, set 2 uses N+1..2N), interleaving the workloads
within each seed so that drift in the host's speed reaches them all alike.
Then makes one traced run per workload. Writes every result to
.perfbench_out/reference.json and prints the README's tables: per set and
metric the median, the quartiles, the spread (q3 - q1) / median, and the
change of the second median against the first; then the per-layer figures
and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res.update(workload=workload, seed=seed, trace=trace, wall_s=time.perf_counter() - started)
    print(json.dumps(res), file=sys.stderr, flush=True)
    return res


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    import numpy

    return {
        "cpu": model, "cpus": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "platform": platform.platform(),
    }


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def report(results: list[dict], spec: dict) -> str:
    lines = []
    for w in (w["name"] for w in spec["workloads"]):
        lines.append(f"\n**{w}**\n")
        lines.append("| metric | set 1 median [q1, q3] | spread | set 2 median [q1, q3] | spread | set 2 vs set 1 | bound |")
        lines.append("|---|---|---|---|---|---|---|")
        for m in spec["end_to_end"]:
            cells = []
            medians = []
            for s in (1, 2):
                vals = [r["metrics"][m["name"]]["value"] for r in results
                        if r["workload"] == w and r["set"] == s and not r["trace"]]
                med, q1, q3, sp = spread(vals)
                medians.append(med)
                cells += [f"{med:.4g} [{q1:.4g}, {q3:.4g}]", f"{sp:.3f}"]
            lines.append(f"| {m['name']} ({m['unit']}) | " + " | ".join(cells)
                         + f" | {medians[1] / medians[0] - 1:+.3f} | {m['bound']} |")
        failed = sum(r["failed"] for r in results if r["workload"] == w)
        attempted = sum(r["attempted"] for r in results if r["workload"] == w)
        lines.append(f"\n{attempted} operations attempted, {failed} failed.")
    lines.append("\n**Per-layer figures (one traced run per workload, seed 1)**\n")
    names = [w["name"] for w in spec["workloads"]]
    lines.append("| metric | " + " | ".join(names) + " |")
    lines.append("|---|" + "---|" * len(names))
    traced = {r["workload"]: r for r in results if r["trace"]}
    for m in spec["per_layer"]:
        cells = [f"{traced[w]['metrics'][m['name']]['value']:.4g}" for w in names]
        lines.append(f"| {m['name']} ({m['unit']}) | " + " | ".join(cells) + " |")
    cells = []
    for w in names:
        untraced = statistics.median(r["metrics"]["op_p50_ms"]["value"] for r in results
                                     if r["workload"] == w and not r["trace"])
        cells.append(f"{traced[w]['metrics']['traced.op_p50_ms']['value'] / untraced:.2f}x")
    lines.append("| tracing overhead (traced op_p50_ms / untraced median) | " + " | ".join(cells) + " |")
    return "\n".join(lines)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds of BENCHMARK.json")
    args = p.parse_args()
    spec = bench_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    results = []
    for s in (1, 2):
        for seed in range((s - 1) * args.seeds + 1, s * args.seeds + 1):
            for w in workloads:
                results.append(dict(one_run(w, seed, seconds, 0), set=s))
    for w in workloads:
        results.append(dict(one_run(w, 1, seconds, 1), set=0))
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump({"machine": machine(), "seconds": seconds, "results": results}, fh, indent=1)
    print(json.dumps(machine()))
    print(report(results, spec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
