"""Suite-layer tests: generators, determinism, reports, replay."""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

from pairedops import kernels, properties
from pairedops.kernels import l2_kernel, subspace_angle
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
    LaurentPoly,
    RationalSymbol,
    in_conj_hardy_vanishing,
    in_hardy,
    parse_symbol,
    poly_roots,
    rational_to_coeffs,
    unit_grid,
)

SMALL = GeneratorConfig(seed=0, trials=8)

# A kernels-suite violation recorded at seed 9162066140707153004 under the
# seed-XOR streams: at band 12 the base pair's kernel has dim 2, its index 3.
SHORTFALL = Path(__file__).parent / "data" / "kernels_shortfall.json"


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def test_gen_symbol_families_classify():
    for trial in range(10):
        assert in_hardy(gen_symbol(SMALL, default_rng(trial), "analytic"))
        vanishing = gen_symbol(SMALL, default_rng(trial), "coanalytic_vanishing")
        assert in_conj_hardy_vanishing(vanishing) and not vanishing.is_zero
        co = gen_symbol(SMALL, default_rng(trial), "coanalytic")
        assert co.kmax <= 0


def test_gen_symbol_deterministic():
    assert gen_symbol(SMALL, default_rng(3)) == gen_symbol(SMALL, default_rng(3), "general")
    assert gen_symbol(SMALL, default_rng(3)) != gen_symbol(SMALL, default_rng(4))


def test_gen_symbol_invertible_family_root_distance():
    for trial in range(10):
        sym = gen_symbol(SMALL, default_rng(trial), "invertible_on_T")
        lifted = sym.shift(-sym.kmin)
        if lifted.kmax == 0:
            continue
        for root in poly_roots(lifted).roots:
            assert abs(abs(root) - 1.0) > 1e-3


def test_gen_symbol_blaschke_is_inner():
    sym = gen_symbol(SMALL, default_rng(2), "blaschke")
    assert isinstance(sym, RationalSymbol)
    vals = np.abs(sym(unit_grid(256)))
    assert np.max(np.abs(vals - 1.0)) <= 1e-10


def test_generator_config_validation():
    with pytest.raises(ValueError):
        gen_symbol(SMALL, default_rng(0), "nope")
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

    drawn = _draw_pair(SMALL, run, 5, "pair", "analytic", "coanalytic", accept=third)
    # the candidates are successive draws from the one stream of (trial 5, "pair")
    stream = run.stream(5, "pair")
    candidates = [
        SymbolPair(gen_symbol(SMALL, stream, "analytic"), gen_symbol(SMALL, stream, "coanalytic"))
        for _ in range(3)
    ]
    assert seen == candidates and drawn == candidates[-1]
    assert run.stats["resamples"] == 2
    with pytest.raises(RuntimeError):
        _draw_pair(SMALL, run, 0, "pair", accept=lambda pair: False)
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


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_zero_trials_no_evidence(name):
    report = SUITES[name](GeneratorConfig(seed=0, trials=0))
    assert report.verdict == "no-evidence"
    assert report.passed
    assert report.trials_run == 0


def test_kernels_suite_passes_where_band_limited_kernels_fell_short():
    # band-limited kernels judged these wrongly: at seed 1 a band-24
    # kernel_group angle of 1.55e-8 failed its check, and of these seeds from
    # the perfbench `suites` pool (seed 7) the first exhausted a band ladder
    # and the other two failed that angle at band 12
    assert SUITES["kernels"](GeneratorConfig(seed=1, trials=50)).verdict == "pass"
    for seed in (5441712883290670430, 6864884374755299848, 2259885230483665525):
        report = SUITES["kernels"](GeneratorConfig(seed=seed, trials=1))
        assert report.verdict == "pass", (seed, report.violations, report.ambiguities)


def test_kernel_group_without_a_closed_form_is_an_ambiguity(monkeypatch):
    # there is no band-limited group check to fall back on
    monkeypatch.setattr(properties, "l2_kernel", lambda pair: None)
    report = SUITES["kernels"](GeneratorConfig(seed=0, trials=3))
    assert report.verdict == "ambiguous" and not report.violations
    assert [a["context"] for a in report.ambiguities] == ["kernel group"] * 3
    assert "no closed-form L2 kernel" in report.ambiguities[0]["error"]


def test_refused_inner_factor_element_is_an_ambiguity(monkeypatch):
    # a refused membership certificate is recorded, and the trial goes on
    def refuse(a, b):
        raise ArithmeticError("inner-factor kernel element has membership residual 2.226e-09, above 1e-10")

    monkeypatch.setattr(properties, "kernel_element_from_inner_factor", refuse)
    report = SUITES["kernels"](GeneratorConfig(seed=0, trials=3))
    assert report.verdict == "ambiguous" and not report.violations and report.trials_run == 3
    refused = [a for a in report.ambiguities if a["context"] == "inner-factor kernel element"]
    assert [a["trial"] for a in refused] == [0, 1, 2]
    assert "membership residual" in refused[0]["error"]
    agg = run_all(GeneratorConfig(seed=0, trials=2))
    assert sorted(agg.reports) == sorted(SUITES) and len(SUITES) == 7
    assert agg.reports["kernels"].verdict == "ambiguous" and agg.verdict == "ambiguous"


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


def test_run_all_draws_every_input_from_its_own_stream(monkeypatch):
    # every generator the suites ask numpy for, identified by its seed state;
    # the fixed Lanczos start vector of operators.op_norm is no suite input
    states = []
    real = np.random.default_rng

    def recording(seed):
        seq = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        if sys._getframe(1).f_globals["__name__"] == properties.__name__:
            states.append(tuple(seq.generate_state(4)))
        return real(seq)

    monkeypatch.setattr(np.random, "default_rng", recording)
    run_all(GeneratorConfig(seed=0, trials=20))
    assert len(states) > 20 * len(SUITES)
    assert len(set(states)) == len(states)


def test_run_all_reports_equal_suites_run_alone():
    cfg = GeneratorConfig(seed=5, trials=3)
    agg = run_all(cfg)
    for name, suite in SUITES.items():
        alone = json.dumps(suite(cfg).to_json_dict(include_runtime=False), sort_keys=True)
        assert json.dumps(agg.reports[name].to_json_dict(include_runtime=False), sort_keys=True) == alone


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


@pytest.mark.parametrize("scale", [1e-6, 1e6])
def test_every_suite_passes_at_extreme_coefficient_scales(scale):
    # every decision reads a relative residual, so a common scale of the draws changes none
    agg = run_all(GeneratorConfig(seed=0, trials=3, coefficient_scale=scale))
    assert {name: r.verdict for name, r in agg.reports.items()} == dict.fromkeys(SUITES, "pass")


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
    # a P+f + b P-f over the larger of its two terms (here P-f = 0)
    residual = apply_paired(pair, f).max_abs_coeff() / (pair.a * f).max_abs_coeff()
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


def test_replay_of_a_zero_pair_reads_zero_residuals():
    # every relative residual of the zero pair is 0 over a zero size, so the
    # suites still see a violation (no strictness gap, no witness), not an error
    zero = SymbolPair(LaurentPoly.zero(), LaurentPoly.zero())
    second = SymbolPair(parse_symbol("z^-1"), parse_symbol("z^-1"))
    pair_json = {"__pair__": zero.to_json_dict()}
    poly_json = {"__laurent__": LaurentPoly.zero().to_json_dict()}
    bounds = replay_violation({"check": "norm_bounds", "inputs": {"a": poly_json, "b": poly_json}})
    assert bounds == {
        "norm": 0.0, "monotonicity_violation": 0.0, "lower_violation": 0.0, "upper_violation": 0.0, "gap": 0.0
    }
    inputs = {"first": pair_json, "second": {"__pair__": second.to_json_dict()}, "band": 6}
    composed = replay_violation({"check": "composition", "inputs": {**inputs, "kind": "paired"}})
    assert composed == {"residual": 0.0, "formula_residual": 0.0, "discrepancy": 0.0}
    commuted = replay_violation({"check": "commutator", "inputs": inputs})
    assert commuted == {"commutator_norm": 0.0, "identity_discrepancy": 0.0}


def test_replay_unknown_check_rejected():
    with pytest.raises(KeyError):
        replay_violation({"check": "nonsense", "inputs": {}})


# Every suite threshold set so that each check it guards fails.  With the
# membership certificate off, a null threshold of 1 counts every band-limited
# direction null, so the pinned (1, 1 - z) and the coburn dichotomy fail too.
_FORCING = {
    (properties, "_EXACT_TOL"): -1.0,
    (properties, "_WITNESS_FLOOR"): math.inf,
    (properties, "_MODEL_SPACE_TOL"): -1.0,
    (properties, "_PINNED_NORM_TOL"): -1.0,
    (properties, "_TRUNCATION_TOL"): -1.0,
    (properties, "_MEMBERSHIP_TOL"): math.inf,
    (kernels, "_MEMBERSHIP_TOL"): math.inf,
    (kernels, "NULL_SPACE_REL_THRESHOLD"): 1.0,
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_forced_violations_replay_exactly(name, monkeypatch):
    for (module, constant), value in _FORCING.items():
        monkeypatch.setattr(module, constant, value)
    cfg = GeneratorConfig(seed=0, trials=3)
    report = SUITES[name](cfg)
    assert report.violations
    if name in ("kernels", "coburn"):
        # the null threshold shows through a wrong band-limited dimension
        assert {v.check for v in report.violations} & {"kernel_dimension", "coburn"}
    if name == "kernels":
        # an infinite membership tolerance keeps zbar*f of every element in the kernel
        assert "multiplier_invariance" in {v.check for v in report.violations}
    for v in report.violations:
        assert replay_violation(v) == v.residuals, (v.check, v.message)
    # the JSON form replays too, as a report consumer would read it
    blob = json.loads(json.dumps(report.violations[0].to_json_dict()))
    assert replay_violation(blob) == report.violations[0].residuals


def test_refused_pinned_kernel_is_an_ambiguity(monkeypatch):
    # a null threshold of 1e-2 puts section singular values of (1, 1 - z) in the gray zone
    monkeypatch.setattr(kernels, "NULL_SPACE_REL_THRESHOLD", 1e-2)
    report = SUITES["kernels"](GeneratorConfig(seed=0, trials=3))
    assert report.verdict == "ambiguous" and not report.violations
    assert report.ambiguities[0]["context"] == "pinned kernel (1, 1 - z)"
    assert report.ambiguities[0]["singular_values"]


def test_kernels_suite_counts_both_invariance_outcomes():
    stats = SUITES["kernels"](SMALL).stats
    assert stats["invariance_kept"] == stats["invariance_left"] == SMALL.trials
    assert "invariance_vacuous_trials" not in stats


def test_kernel_dimension_check_reads_the_index_where_it_can():
    def dimension(a: str, b: str) -> dict:
        return replay_violation({"check": "kernel_dimension", "inputs": {"pair": _pair_input(a, b), "band": 8}})

    assert dimension("1", "z - 0.3") == {"dim": 1, "route": "index"}  # band 8 alone finds dim 0 here
    assert dimension("z^-2", "1 - z") == {"dim": 2, "route": "band-limited"}
    # a record that still carries the deleted threshold input is refused
    inputs = {"pair": _pair_input("z^-2", "1 - z"), "band": 8, "rel_threshold": 1e-8}
    with pytest.raises(TypeError, match="rel_threshold"):
        replay_violation({"check": "kernel_dimension", "inputs": inputs})


def _pair_input(a: str, b: str) -> dict:
    return {"__pair__": SymbolPair(parse_symbol(a), parse_symbol(b)).to_json_dict()}


def test_l2_kernel_group_on_the_recorded_shortfall():
    record = json.loads(SHORTFALL.read_text(encoding="utf-8"))
    inputs = {name: record["inputs"][name] for name in ("base", "scaled", "other")}
    group = replay_violation({"check": "l2_kernel_group", "inputs": inputs})
    assert group["closed_form"] and (group["dim"], group["dim_scaled"], group["dim_other"]) == (3, 3, 1)
    assert group["scaled_on_base"] <= 1e-14 and not group["same_kernel_other"]
    assert min(group["other_on_base"], group["base_on_other"]) > 1e-2
    # a pair compared with itself shares its generator
    inputs["other"] = inputs["base"]
    same = replay_violation({"check": "l2_kernel_group", "inputs": inputs})
    assert same["same_kernel_other"] and max(same["other_on_base"], same["base_on_other"]) <= 1e-15
    # without a closed form the check says so, and the suite records an ambiguity
    inputs["other"] = _pair_input("z^-1", "1 - z")
    assert replay_violation({"check": "l2_kernel_group", "inputs": inputs}) == {"closed_form": False}


def test_recorded_shortfall_pairs_have_the_index_dimension_in_closed_form():
    # the L2 kernel of the common-factor group, where band 12 found dim 2
    record = json.loads(SHORTFALL.read_text(encoding="utf-8"))
    closed = [l2_kernel(properties._decode(record["inputs"][name])) for name in ("base", "scaled")]
    assert [(k.dim, k.wind_b - k.wind_a) for k in closed] == [(3, 3), (3, 3)]
    base, scaled = (
        [rational_to_coeffs(p, 64).coeffs + rational_to_coeffs(m, 64).coeffs for p, m in k.basis] for k in closed
    )
    assert subspace_angle(base, scaled) <= 1e-12
