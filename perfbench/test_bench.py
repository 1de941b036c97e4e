"""Self-test of the benchmark: ``python3 -m pytest perfbench -q`` from the repository root."""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_wrong_kernel_dim_lowers_correct_ratio_and_is_a_hard_error():
    ops = workloads.generate("kernels", 3, 8)
    outcomes = [workloads.Outcome(0.01, 0.01, True, False, "d", answer=dict(op.expect)) for op in ops]
    metrics, checks, _ = run.end_to_end(ops, outcomes, 50.0, [0.2])
    assert metrics["correct_ratio"][0] == 1.0 and not any(h for _, h in checks)
    outcomes[0].answer["kernel"] += 1
    metrics, checks, _ = run.end_to_end(ops, outcomes, 50.0, [0.2])
    assert metrics["correct_ratio"][0] == 7 / 8
    assert checks[0] == (False, True)


def test_suite_verdicts_other_than_pass_are_not_correct():
    op = workloads.Op(0, "suite", suite="kernels", seed=1)
    for verdict, answered, expected in (("pass", True, (True, False)), ("fail", True, (False, False)),
                                        ("ambiguous", False, (False, False))):
        outcome = workloads.Outcome(0.01, 0.01, answered, False, "d", answer={"verdict": verdict})
        assert workloads.check(op, outcome) == expected


def test_tail_selection_leaves_ten_samples_beyond():
    for count in list(range(200, 3000)) + [9999, 10000, 20000]:
        values = list(range(count))
        tail = run.percentile(values, run.TAIL_PERCENTILE)
        assert sum(v > tail for v in values) >= 10, count


def test_generation_is_seeded():
    for workload in workloads.WORKLOADS:
        first, again, other = (workloads.generate(workload, s, 64) for s in (5, 5, 6))
        assert [(o.argv, o.seed) for o in first] == [(o.argv, o.seed) for o in again]
        assert [(o.argv, o.seed) for o in first] != [(o.argv, o.seed) for o in other]


def test_every_stretch_of_the_band_range_holds_each_band_once():
    bands = workloads._sizes(np.random.default_rng(0), 3, 6, 10)
    assert sorted(bands[:4]) == sorted(bands[4:8]) == [3, 4, 5, 6]


def test_loop_cycles_the_pool_and_repeats_outputs():
    pool = workloads.generate("kernels", 4, 2)
    ops, outcomes = run.run_loop(pool, count=3)
    assert [op.index for op in ops] == [0, 1, 0]
    assert outcomes[0].digest == outcomes[2].digest


def test_section_oracle_on_known_operators():
    one = np.array([1.0 + 0j])
    assert oracles.sigma_max(one, 0, one, 0, 8) == pytest.approx(1.0, rel=1e-14)
    # a = z, b = 1: columns k >= 0 map to k + 1 (dropped past the band), k < 0 stay
    band = 3
    expected = np.zeros((2 * band + 1, 2 * band + 1))
    for j, k in enumerate(range(-band, band + 1)):
        target = k + 1 if k >= 0 else k
        if target <= band:
            expected[target + band, j] = 1.0
    assert np.array_equal(oracles.paired_section(one, 1, one, 0, band), expected)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_end_to_end_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "1", "--seconds", "0.3", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_second_seed_traced_reports_every_layer_metric(workload):
    result = _result(_bench("--workload", workload, "--seed", "2", "--seconds", "0.6", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["metrics"]["trace.output_mismatches"]["value"] == 0


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "sections", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
