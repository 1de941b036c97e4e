"""Closed-loop benchmark of pairedops: suites, finite sections and kernels.

Usage (from the repository root):

    python3 perfbench/run.py --workload {suites,sections,kernels} --seed N \
        --seconds S --trace {0,1}

One client issues one op at a time through the library's public entry
points and checks every answer against an oracle in ``oracles.py``.

* ``--trace 0`` runs ops for S seconds and prints the end-to-end metrics.
  Ops are cycled from a fixed pool generated from the seed.  The timed
  phase is the sum of the library calls: each op's clocks stop before the
  benchmark digests and parses its output.  Ops are checked after the
  loop.  The set-up is then repeated in fresh child processes, and
  ``setup_s`` is the median over all set-ups.
* ``--trace 1`` runs the ops untraced for S/2 seconds, then runs the same
  ops again with ``tracer.Tracer`` installed.  It prints the per-layer
  metrics and ``trace.overhead_ratio``, which is traced wall time over
  untraced wall time.  Outputs of the two passes must match op for op.
  End-to-end numbers come only from ``--trace 0``.

The last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``failed`` counts ops that
crashed or exited with an undocumented code.  ``correct`` is false when any
op failed, or when an answer contradicts a guarantee the library states: a
norm off the oracle or above its bounds, or a kernel dimension above the
index formula.  In trace mode it is also false when the two passes
disagree.  Two kinds of answer only lower ``correct_ratio``: kernel
dimensions below the index formula (the known band-limited shortfall), and
suite verdicts other than ``pass`` (violations the suite itself reports).
Per-op records and trace spans go to ``perfbench/out/``.
"""

import os
import sys
import time

_START = time.perf_counter()  # runner start, before numpy is imported

# One BLAS/OpenMP thread: on a 2-core machine the idle BLAS thread spins,
# which made SVD timings both slower and far noisier.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = os.path.join(HERE, "out")
SETUP_CHILDREN = 4
# Fixed for every workload and op count, so a faster library cannot move the
# tail to another percentile; at 200 ops or more it leaves ten samples beyond.
# On kernels the slowest tenth is the answered coburn ops, whose count varies
# with the seed; p95 sits where their cost rises more slowly than p90.
TAIL_PERCENTILE = 95.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% of samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def blas_info() -> dict:
    """BLAS build name and version from numpy, and its runtime thread count."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs", "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = int(getter())
    return {"name": blas.get("name"), "version": blas.get("version"), "runtime_threads": threads}


def setup(workload: str, seed: int):
    """Generate the op pool and run the fixed warm-up; returns (ops, setup seconds)."""
    ops = workloads.generate(workload, seed)
    for op in workloads.warmup_ops(workload):
        outcome = workloads.execute(op)
        if outcome.failed:
            raise RuntimeError(f"warm-up op {op.kind} failed: {outcome.error}")
    return ops, time.perf_counter() - _START


def run_loop(pool, seconds: float = float("inf"), count: int | None = None, tracer=None):
    """Closed loop: each op starts when the previous one returned.

    Cycles through ``pool`` until ``seconds`` have passed, or for ``count``
    ops.  Returns the ops run and their outcomes.
    """
    ran, outcomes = [], []
    deadline = time.perf_counter() + seconds
    for op in itertools.cycle(pool):
        if tracer is not None:
            tracer.begin_op(op.index, op.N)
        ran.append(op)
        outcomes.append(workloads.execute(op))
        if len(ran) == count or time.perf_counter() >= deadline:
            return ran, outcomes


def check_all(ops, outcomes):
    """Per-op (correct, hard_error), checked outside any timed phase."""
    return [workloads.check(op, outcome) for op, outcome in zip(ops, outcomes)]


def write_records(path: str, ops, outcomes, checks) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for op, outcome, (ok, hard) in zip(ops, outcomes, checks):
            record = {"op": op.index, "kind": op.suite or op.kind, "N": op.N, "seed": op.seed,
                      "ms": outcome.seconds * 1e3, "cpu_ms": outcome.cpu_seconds * 1e3,
                      "answered": outcome.answered, "correct": ok,
                      "hard_error": hard, "failed": outcome.failed, "digest": outcome.digest}
            if outcome.error:
                record["error"] = outcome.error
            handle.write(json.dumps(record) + "\n")


def child_setup_seconds(args) -> list[float]:
    """Repeat the whole set-up in fresh interpreters, one after another."""
    samples = []
    for _ in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--trace", "0", "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def end_to_end(ops, outcomes, rss_mb: float, setup_samples):
    n = len(outcomes)
    wall, cpu = sum(o.seconds for o in outcomes), sum(o.cpu_seconds for o in outcomes)
    latencies = [o.seconds * 1e3 for o in outcomes]
    tail = percentile(latencies, TAIL_PERCENTILE)
    checks = check_all(ops, outcomes)
    metrics = {
        "ops_per_s": (n / wall, "1/s"),
        "latency_p50_ms": (percentile(latencies, 50.0), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "cpu_ms_per_op": (cpu * 1e3 / n, "ms"),
        "answered_ratio": (sum(o.answered for o in outcomes) / n, "ratio"),
        "correct_ratio": (sum(ok for ok, _ in checks) / n, "ratio"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    # wall time the process spent off the CPU inside ops: on a shared VM,
    # time the host gave to others, which moves the wall-clock metrics
    info = {"samples": n, "tail_percentile": TAIL_PERCENTILE, "tail_beyond": sum(v > tail for v in latencies),
            "distinct_ops": len({op.index for op in ops}), "offcpu_share": 1.0 - cpu / wall,
            "setup_samples": setup_samples}
    return metrics, checks, info


def layer_run(pool, seconds: float):
    """Untraced pass, then the same ops traced; returns metrics and checks."""
    ops, plain = run_loop(pool, seconds / 2)
    with tracing.Tracer() as tracer:
        _, traced = run_loop(pool, count=len(ops), tracer=tracer)
    mismatches = sum(p.digest != t.digest for p, t in zip(plain, traced))
    metrics = tracing.layer_metrics(tracer, len(ops), traced)
    wall = [sum(o.seconds for o in outcomes) for outcomes in (plain, traced)]
    metrics["trace.overhead_ratio"] = (wall[1] / wall[0], "ratio")
    metrics["trace.output_mismatches"] = (mismatches, "count")
    checks = check_all(ops, traced)
    return ops, traced, metrics, checks, {"samples": len(ops), "mismatches": mismatches}, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    args = parser.parse_args(argv)

    pool, setup_s = setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        ops, outcomes, metrics, checks, info, tracer = layer_run(pool, args.seconds)
        tracer.write(stem + ".spans.jsonl")
    else:
        ops, outcomes = run_loop(pool, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before checks allocate
        setup_samples = [setup_s] + child_setup_seconds(args)
        metrics, checks, info = end_to_end(ops, outcomes, rss_mb, setup_samples)
    write_records(stem + ".ops.jsonl", ops, outcomes, checks)

    failed = sum(o.failed for o in outcomes)
    hard = sum(h for _, h in checks)
    correct = failed == 0 and hard == 0 and info.get("mismatches", 0) == 0
    meta = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "ops": len(outcomes),
        "hard_errors": hard, "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_info(), "thread_env": THREAD_ENV, "nproc": os.cpu_count(), **info,
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
