"""Benchmark for coupledfix: one workload per process, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_analyze --seed 1 --seconds 60 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` they are the per-layer ones,
from a run with spans around every call into the program's modules.
``--short`` runs one round at small sizes, for the benchmark's own tests.
See README.md in this directory for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")

# Set-up is repeated this many times per run and its median reported, since
# a single import of numpy in a fresh process varies by more than 2x.
SETUP_REPEATS = 7
# The tail reported is p90. Every full-length run repeats each operation
# at least ten times, so at least ten operations lie beyond it.
TAIL_PERCENTILE = 90

END_TO_END_UNITS = {
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    "cli.self_ms_per_op": "ms",
    "iteration.steps": "count",
    "iteration.self_us_per_step": "us",
    "iteration.recorded_entries": "count",
    "operators.eval_calls": "count",
    "operators.evals_per_step": "ratio",
    "operators.eval_self_us": "us",
    "space.calls_per_step": "ratio",
    "space.self_ms_per_op": "ms",
    "trace_io.write_ms_per_op": "ms",
    "trace_io.read_ms_per_op": "ms",
    "trace_io.bytes_written": "bytes",
    "trace_io.write_mb_per_s": "MB/s",
    "trace_io.read_mb_per_s": "MB/s",
    "contractivity.samples": "count",
    "contractivity.samples_per_s": "samples/s",
    "contractivity.evals_per_sample": "ratio",
    "contractivity.self_ms_per_op": "ms",
    "closed_form.iterates": "count",
    "closed_form.us_per_iterate": "us",
    "traced.op_p50_ms": "ms",
}

IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import numpy, coupledfix, coupledfix.cli\n"
    "print(time.perf_counter() - t)\n"
)


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("sweep_analyze", "trace_paper"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--short", action="store_true", help="one round at small sizes")
    return p.parse_args(argv)


def timed_import_in_child() -> float:
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    return float(out.stdout.strip().splitlines()[-1])


def set_up(workload: str, seed: int, short: bool, repeats: int):
    """Build the inputs ``repeats`` times; return the last round and the median set-up time.

    One set-up is the import of numpy and coupledfix in a fresh process plus
    building the operators and writing the seeded inputs in this one.
    """
    import workloads

    times = []
    ops = None
    for i in range(repeats):
        imported = timed_import_in_child() if repeats > 1 else 0.0
        workdir = os.path.join(WORK, str(os.getpid()), str(i))
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        os.makedirs(workdir)
        ops = workloads.BUILDERS[workload](seed, workdir, short)
        times.append(imported + time.perf_counter() - t0)
    return ops, statistics.median(times)


def measure(ops, seconds: float, short: bool, tracer=None):
    """Run whole rounds until ``seconds`` have passed; return op times and failures."""
    times: list[float] = []
    failed = 0
    problems: list[str] = []
    clock = time.perf_counter
    deadline = clock() + seconds
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(times)
            try:
                t0 = clock()
                out = op.run()
                t1 = clock()
            except Exception as exc:  # an operation that raises counts as failed
                t1 = clock()
                out, found = None, [f"{op.label}: raised {exc!r}"]
            else:
                found = None
            if tracer is not None:
                tracer.op_id = -1
            times.append(t1 - t0)
            if found is None:
                found = [f"{op.label}: {p}" for p in op.check(out)]
            if found:
                failed += 1
                problems.extend(found)
        if short or clock() >= deadline:
            return times, failed, problems


def percentile(values, q: float) -> float:
    s = sorted(values)
    rank = max(1, -(-len(s) * q // 100))  # nearest rank
    return s[int(rank) - 1]


def end_to_end(times: list[float], round_len: int) -> dict[str, float]:
    """Latency and throughput, with each operation timed at its fastest repeat.

    On a shared virtual machine the CPU speed can drop to about half for
    seconds or minutes at a time, and the share of slow time drifts. A raw
    median lands in whichever speed dominated the run; an operation's
    fastest repeat is its cost with the CPU at full speed. Every operation
    of a round repeats once per round, so each one's fastest repeat stands
    for all its repeats.
    """
    best = [min(times[k::round_len]) for k in range(round_len)]
    steady = sorted(best * (len(times) // round_len))
    return {
        "op_p50_ms": statistics.median(steady) * 1e3,
        "op_tail_ms": percentile(steady, TAIL_PERCENTILE) * 1e3,
        "ops_per_s": len(steady) / sum(steady),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coupledfix", "__init__.py")):
        print(f"error: no coupledfix sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    repeats = 1 if args.trace or args.short else SETUP_REPEATS
    try:
        ops, setup_s = set_up(args.workload, args.seed, args.short, repeats)
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        times, failed, problems = measure(ops, args.seconds, args.short, tracer)
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(os.path.join(WORK, str(os.getpid())), ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans_{args.workload}.npz")
        tracer.save(path)
        values = tracing.per_layer_metrics(tracing.load(path), len(times))
        values["traced.op_p50_ms"] = end_to_end(times, len(ops))["op_p50_ms"]
        units = PER_LAYER_UNITS
    else:
        values = end_to_end(times, len(ops))
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["setup_s"] = setup_s
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(times),
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
