"""Suite-layer tests: generators, determinism, reports, replay."""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from pairedops.operators import SymbolPair, apply_paired
from pairedops.properties import (
    GeneratorConfig,
    SUITES,
    Violation,
    _draw_pair,
    _SuiteRun,
    gen_symbol,
    replay_violation,
    run_all,
    suite_norm_bounds,
)
from pairedops.symbols import (
    AnalyticityClass,
    RationalSymbol,
    parse_symbol,
    poly_roots,
    unit_grid,
)

SMALL = GeneratorConfig(seed=0, trials=8)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_gen_symbol_families_classify():
    for trial in range(10):
        assert gen_symbol(replace(SMALL, family="analytic"), trial).classify() in (
            AnalyticityClass.ANALYTIC,
            AnalyticityClass.CONSTANT,
        )
        assert gen_symbol(
            replace(SMALL, family="coanalytic_vanishing"), trial
        ).classify() is AnalyticityClass.COANALYTIC_VANISHING
        co = gen_symbol(replace(SMALL, family="coanalytic"), trial)
        assert co.kmax <= 0


def test_gen_symbol_deterministic():
    cfg = replace(SMALL, family="general")
    assert gen_symbol(cfg, 3) == gen_symbol(cfg, 3)
    assert gen_symbol(cfg, 3) != gen_symbol(cfg, 4)


def test_gen_symbol_invertible_family_root_distance():
    cfg = replace(SMALL, family="invertible_on_T")
    for trial in range(10):
        sym = gen_symbol(cfg, trial)
        lifted = sym.shift(-sym.kmin)
        if lifted.kmax == 0:
            continue
        for root in poly_roots(lifted).roots:
            assert abs(abs(root) - 1.0) > 1e-3


def test_gen_symbol_blaschke_is_inner():
    cfg = replace(SMALL, family="blaschke")
    sym = gen_symbol(cfg, 2)
    assert isinstance(sym, RationalSymbol)
    vals = np.abs(sym(unit_grid(256)))
    assert np.max(np.abs(vals - 1.0)) <= 1e-10


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(family="nope")
    with pytest.raises(ValueError):
        GeneratorConfig(degree_range=(3, 1))
    with pytest.raises(ValueError):
        GeneratorConfig(trials=-1)


def test_draw_pair_counts_rejections_and_raises():
    run = _SuiteRun("draw", SMALL)
    seen = []

    def third(pair):
        seen.append(pair)
        return len(seen) == 3

    drawn = _draw_pair(SMALL, run, "analytic", 5, "coanalytic", 900, step=2, accept=third)
    assert drawn == SymbolPair(
        gen_symbol(replace(SMALL, family="analytic"), 9),
        gen_symbol(replace(SMALL, family="coanalytic"), 904),
    )
    assert run.stats["resamples"] == 2
    with pytest.raises(RuntimeError):
        _draw_pair(SMALL, run, "general", 0, "general", 1, accept=lambda pair: False)
    assert run.stats["resamples"] == 52


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_smoke(name):
    report = SUITES[name](SMALL)
    assert report.passed, (report.violations, report.ambiguities)
    assert report.verdict == "pass"
    assert report.trials_run == SMALL.trials


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_deterministic_reports(name):
    first = SUITES[name](SMALL).to_json_dict(include_runtime=False)
    second = SUITES[name](SMALL).to_json_dict(include_runtime=False)
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


def test_suite_zero_trials_no_evidence():
    report = suite_norm_bounds(GeneratorConfig(seed=0, trials=0))
    assert report.verdict == "no-evidence"
    assert report.passed
    assert report.trials_run == 0


def test_violations_imply_not_passed():
    report = SUITES["kernels"](SMALL)
    assert report.passed == (not report.violations and not report.ambiguities)


def test_report_runtime_field_toggle():
    report = suite_norm_bounds(replace(SMALL, trials=2))
    with_runtime = report.to_json_dict(include_runtime=True)
    without = report.to_json_dict(include_runtime=False)
    assert "runtime" in with_runtime and "runtime" not in without


# ---------------------------------------------------------------------------
# aggregate runs
# ---------------------------------------------------------------------------


def test_run_all_smoke_and_exit_code():
    agg = run_all(GeneratorConfig(seed=0, trials=4))
    assert agg.passed and agg.exit_code == 0 and agg.verdict == "pass"
    assert sorted(agg.reports) == sorted(SUITES)


def test_run_all_derives_distinct_seeds():
    agg = run_all(GeneratorConfig(seed=0, trials=1))
    seeds = {report.seed for report in agg.reports.values()}
    assert len(seeds) == len(SUITES)


def test_run_all_seed_changes_inputs_not_verdict():
    a = run_all(GeneratorConfig(seed=1, trials=4))
    b = run_all(GeneratorConfig(seed=2, trials=4))
    assert a.passed and b.passed
    assert a.reports["norm_bounds"].stats != b.reports["norm_bounds"].stats


def test_run_all_carries_no_state_between_runs():
    # shared caches (the unit grids) must not make a report depend on earlier runs
    def report() -> str:
        return json.dumps(run_all(GeneratorConfig(seed=0, trials=2)).to_json_dict(include_runtime=False))

    before = report()
    run_all(GeneratorConfig(seed=1, trials=2))
    assert report() == before


def test_run_all_zero_trials_vacuous():
    agg = run_all(GeneratorConfig(seed=0, trials=0))
    assert agg.verdict == "no-evidence"
    assert agg.exit_code == 0


# ---------------------------------------------------------------------------
# violation replay
# ---------------------------------------------------------------------------


def test_replay_reproduces_residuals():
    pair = SymbolPair(parse_symbol("1 + z^-1"), parse_symbol("z - 2"))
    f = parse_symbol("1 + z")
    residual = apply_paired(pair, f).l2_norm()
    record = Violation(
        trial=7,
        check="kernel_annihilation",
        inputs={"pair": {"__pair__": pair.to_json_dict()}, "f": {"__laurent__": f.to_json_dict()}},
        residuals={"residual": residual},
        message="synthetic",
    )
    replayed = replay_violation(record)
    assert abs(replayed["residual"] - residual) <= 1e-12

    # round trip through JSON text, as a report consumer would do
    blob = json.loads(json.dumps(record.to_json_dict()))
    replayed = replay_violation(blob)
    assert abs(replayed["residual"] - residual) <= 1e-12


def test_replay_composition_check():
    first = SymbolPair(parse_symbol("1"), parse_symbol("z"))
    second = SymbolPair(parse_symbol("z^-1"), parse_symbol("z^-1"))
    record = {
        "check": "composition",
        "inputs": {
            "first": {"__pair__": first.to_json_dict()},
            "second": {"__pair__": second.to_json_dict()},
            "band": 6,
            "kind": "paired",
        },
    }
    out = replay_violation(record)
    assert out["residual"] > 1e-8
    assert out["discrepancy"] <= 1e-12


def test_replay_unknown_check_rejected():
    with pytest.raises(KeyError):
        replay_violation({"check": "nonsense", "inputs": {}})
