"""Randomized verification suites with seeded generators and replayable reports.

Each suite restates a family of operator identities as executable checks over
deterministic pseudo-random symbol streams.  A suite returns a
:class:`TrialReport`; a report with no violations and no ambiguities passed.
Every violation record carries the serialized inputs of the failing check, so
:func:`replay_violation` can reproduce its residuals independently.

Determinism contract: identical :class:`GeneratorConfig` values produce
byte-identical JSON reports (the wall-clock ``runtime`` field excluded).
Per-trial randomness comes from substreams seeded by ``seed XOR trial``.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np

from .kernels import (
    AmbiguousKernelError,
    _containment_gap,
    adjoint_inverse_report,
    adjoint_kernel_map,
    coburn_check,
    invertible_on_circle,
    kernel_basis,
    kernel_conjugate,
    kernel_element_direct,
    kernel_element_from_inner_factor,
    pair_from_function,
    same_kernel_test,
    subspace_angle,
)
from .operators import (
    SymbolPair,
    apply_paired,
    commutator_residual,
    composition_residual,
    inner_product,
    op_norm,
    riesz_minus,
    riesz_plus,
)
from .symbols import (
    ConditioningError,
    LaurentPoly,
    RationalSymbol,
    blaschke,
    parse_symbol,
    poly_from_roots,
    rational_to_coeffs,
)

__all__ = [
    "AggregateReport",
    "GeneratorConfig",
    "SUITES",
    "TrialReport",
    "Violation",
    "gen_symbol",
    "replay_violation",
    "run_all",
    "suite_brown_halmos",
    "suite_coburn",
    "suite_commutant",
    "suite_kernels",
    "suite_model_space",
    "suite_norm_bounds",
    "suite_pointwise_commutation",
]

_FAMILIES = (
    "general",
    "analytic",
    "coanalytic",
    "coanalytic_vanishing",
    "blaschke",
    "invertible_on_T",
)

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class GeneratorConfig:
    """Seeded description of a random symbol stream plus suite tolerances."""

    seed: int = 0
    degree_range: tuple[int, int] = (1, 4)
    coefficient_scale: float = 1.0
    family: str = "general"
    trials: int = 100
    exact_tol: float = 1e-12
    numeric_tol: float = 1e-8

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = self.degree_range
        if lo < 0 or hi < lo:
            raise ValueError("degree_range must satisfy 0 <= lo <= hi")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.coefficient_scale <= 0:
            raise ValueError("coefficient_scale must be positive")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")


def _trial_rng(cfg: GeneratorConfig, trial: int) -> np.random.Generator:
    return np.random.default_rng((cfg.seed ^ trial) & _MASK64)


def _gauss_coeffs(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (scale / math.sqrt(2.0))


def gen_symbol(cfg: GeneratorConfig, trial: int):
    """Draw the trial-th symbol of the configured family.

    Families select the band: ``analytic`` gives [0, d], ``coanalytic``
    [-d, 0], ``coanalytic_vanishing`` [-d, -1], ``general`` [-d, d]; the
    degree d is uniform over ``degree_range`` and coefficients are complex
    Gaussians.  ``invertible_on_T`` resamples a general symbol until all roots
    stay 1e-3 away from the circle, and ``blaschke`` returns a
    :class:`RationalSymbol` with zeros sampled in the disk of radius 0.8.
    """
    rng = _trial_rng(cfg, trial)
    lo, hi = cfg.degree_range
    degree = int(rng.integers(lo, hi + 1))
    if cfg.family == "blaschke":
        count = max(1, degree)
        radii = 0.8 * np.sqrt(rng.uniform(0, 1, count))
        angles = rng.uniform(0, 2 * np.pi, count)
        return blaschke([complex(r * np.cos(t), r * np.sin(t)) for r, t in zip(radii, angles)])
    for _ in range(100):
        if cfg.family == "analytic":
            kmin, kmax = 0, degree
        elif cfg.family == "coanalytic":
            kmin, kmax = -degree, 0
        elif cfg.family == "coanalytic_vanishing":
            kmin, kmax = -max(1, degree), -1
        else:
            kmin, kmax = -degree, degree
        values = _gauss_coeffs(rng, kmax - kmin + 1, cfg.coefficient_scale)
        sym = LaurentPoly.from_dense(values, kmin)
        if sym.is_zero:
            continue
        if cfg.family == "invertible_on_T" and not invertible_on_circle(sym, 1e-3):
            continue
        return sym
    raise RuntimeError(f"could not draw a valid {cfg.family!r} symbol")


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    trial: int
    check: str
    inputs: dict
    residuals: dict
    message: str

    def to_json_dict(self) -> dict:
        return {
            "trial": self.trial,
            "check": self.check,
            "inputs": self.inputs,
            "residuals": self.residuals,
            "message": self.message,
        }


@dataclass(frozen=True)
class TrialReport:
    suite: str
    seed: int
    trials_run: int
    violations: tuple[Violation, ...]
    ambiguities: tuple[dict, ...]
    max_residual: float
    stats: dict
    runtime: float

    @property
    def passed(self) -> bool:
        return not self.violations and not self.ambiguities

    @property
    def verdict(self) -> str:
        if self.violations:
            return "fail"
        if self.ambiguities:
            return "ambiguous"
        if self.trials_run == 0:
            return "no-evidence"
        return "pass"

    def to_json_dict(self, include_runtime: bool = True) -> dict:
        out = {
            "suite": self.suite,
            "seed": self.seed,
            "trials_run": self.trials_run,
            "violations": [v.to_json_dict() for v in self.violations],
            "ambiguities": list(self.ambiguities),
            "max_residual": self.max_residual,
            "stats": self.stats,
            "verdict": self.verdict,
            "passed": self.passed,
        }
        if include_runtime:
            out["runtime"] = self.runtime
        return out


class _SuiteRun:
    """Accumulator shared by all suites."""

    def __init__(self, name: str, cfg: GeneratorConfig):
        self.name = name
        self.cfg = cfg
        self.started = time.perf_counter()
        self.violations: list[Violation] = []
        self.ambiguities: list[dict] = []
        self.max_residual = 0.0
        self.stats: dict = {}

    def observe(self, *residuals: float) -> None:
        for r in residuals:
            if r > self.max_residual:
                self.max_residual = float(r)

    def violation(self, trial: int, check: str, inputs: dict, residuals: dict, message: str):
        self.violations.append(
            Violation(
                trial=trial,
                check=check,
                inputs=_encode(inputs),
                residuals={k: _plain(v) for k, v in residuals.items()},
                message=message,
            )
        )

    def ambiguity(self, trial: int, error: AmbiguousKernelError | ConditioningError, context: str):
        record = {"trial": trial, "context": context, "error": str(error)}
        if isinstance(error, AmbiguousKernelError):
            record["singular_values"] = list(error.singular_values)
        self.ambiguities.append(record)

    def bump(self, key: str, amount: int = 1) -> None:
        self.stats[key] = self.stats.get(key, 0) + amount

    def finish(self) -> TrialReport:
        return TrialReport(
            suite=self.name,
            seed=self.cfg.seed,
            trials_run=self.cfg.trials,
            violations=tuple(self.violations),
            ambiguities=tuple(self.ambiguities),
            max_residual=self.max_residual,
            stats={k: self.stats[k] for k in sorted(self.stats)},
            runtime=time.perf_counter() - self.started,
        )


def _plain(value):
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return float(value)
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


def _encode(value):
    if isinstance(value, LaurentPoly):
        return {"__laurent__": value.to_json_dict()}
    if isinstance(value, RationalSymbol):
        return {"__rational__": value.to_json_dict()}
    if isinstance(value, SymbolPair):
        return {"__pair__": value.to_json_dict()}
    if isinstance(value, Mapping):
        return {k: _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return _plain(value)


def _decode(value):
    if isinstance(value, Mapping):
        if "__laurent__" in value:
            return LaurentPoly.from_json_dict(value["__laurent__"])
        if "__rational__" in value:
            return RationalSymbol.from_json_dict(value["__rational__"])
        if "__pair__" in value:
            return SymbolPair.from_json_dict(value["__pair__"])
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# replayable checks
# ---------------------------------------------------------------------------

_CHECKS: dict[str, Callable[..., dict]] = {}


def _register(name: str):
    def decorate(fn):
        _CHECKS[name] = fn
        return fn

    return decorate


def replay_violation(record: Violation | Mapping) -> dict:
    """Re-run the named check on a violation's serialized inputs."""
    if isinstance(record, Violation):
        check, inputs = record.check, record.inputs
    else:
        check, inputs = record["check"], record["inputs"]
    fn = _CHECKS.get(check)
    if fn is None:
        raise KeyError(f"unknown check {check!r}")
    kwargs = {k: _decode(v) for k, v in inputs.items()}
    return fn(**kwargs)


@_register("norm_bounds")
def check_norm_bounds(a: LaurentPoly, b: LaurentPoly) -> dict:
    """Norm sandwich, monotonicity and strictness gap for one symbol pair."""
    pair = SymbolPair(a, b)
    sup_a, sup_b = a.sup_norm(), b.sup_norm()
    m = max(sup_a, sup_b)
    norms = [op_norm(pair, n) for n in (8, 16, 32, 64, 128)]
    monotonicity = max(
        [max(0.0, lo - hi) for lo, hi in zip(norms, norms[1:])] or [0.0]
    )
    top = norms[-1]
    lower_violation = max(0.0, 0.95 * m - top)
    upper_violation = max(0.0, top - min(math.sqrt(2.0) * m, sup_a + sup_b) - 1e-9)
    gap = (sup_a + sup_b) - top
    return {
        "norm": top,
        "monotonicity_violation": monotonicity,
        "lower_violation": lower_violation,
        "upper_violation": upper_violation,
        "gap": gap,
    }


@_register("composition")
def check_composition(
    first: SymbolPair, second: SymbolPair, band: int, kind: str
) -> dict:
    report = composition_residual(first, second, band, kind=kind)
    return {
        "residual": report.residual,
        "formula_residual": report.formula_residual,
        "discrepancy": report.discrepancy,
    }


@_register("commutator")
def check_commutator(first: SymbolPair, second: SymbolPair, band: int) -> dict:
    report = commutator_residual(first, second, band)
    return {
        "commutator_norm": report.commutator_norm,
        "identity_discrepancy": report.identity_discrepancy,
    }


@_register("pointwise_commutation")
def check_pointwise_commutation(
    pair: SymbolPair, eta: LaurentPoly, f: LaurentPoly
) -> dict:
    """Residuals of the four equivalent commutation statements for (eta, f)."""
    plus, minus = riesz_plus(f), riesz_minus(f)
    image = eta * apply_paired(pair, f) - apply_paired(pair, eta * f)
    hankel_m = riesz_minus(eta * plus)
    hankel_p = riesz_plus(eta * minus)
    proj_plus = eta * plus - riesz_plus(eta * f)
    proj_minus = eta * minus - riesz_minus(eta * f)
    return {
        "commute": image.l2_norm(),
        "hankel_minus": hankel_m.l2_norm(),
        "hankel_plus": hankel_p.l2_norm(),
        "projection_plus": proj_plus.l2_norm(),
        "projection_minus": proj_minus.l2_norm(),
    }


@_register("model_space_identity")
def check_model_space_identity(
    eta_coeffs: LaurentPoly, f_coeffs: LaurentPoly
) -> dict:
    """Projection-commutation residuals for truncated eta and f."""
    product = eta_coeffs * f_coeffs
    res_plus = (riesz_plus(product) - eta_coeffs * riesz_plus(f_coeffs)).l2_norm()
    res_minus = (riesz_minus(product) - eta_coeffs * riesz_minus(f_coeffs)).l2_norm()
    return {"residual_plus": res_plus, "residual_minus": res_minus}


@_register("kernel_annihilation")
def check_kernel_annihilation(pair: SymbolPair, f: LaurentPoly) -> dict:
    return {"residual": apply_paired(pair, f).l2_norm()}


@_register("kernel_dimension")
def check_kernel_dimension(pair: SymbolPair, band: int) -> dict:
    k = kernel_basis(pair, band)
    return {"dim": k.dim, "stabilized": k.stabilized}


@_register("coburn")
def check_coburn(pair: SymbolPair, band: int) -> dict:
    report = coburn_check(pair, band)
    return {
        "dim_kernel": report.dim_kernel,
        "dim_swapped": report.dim_swapped,
        "dim_conjugated": report.dim_conjugated,
        "dim_adjoint": report.dim_adjoint,
        "dichotomy": report.dichotomy_holds,
        "conjugate_dims_match": report.conjugate_dims_match,
    }


# ---------------------------------------------------------------------------
# drawing helpers
# ---------------------------------------------------------------------------


def _draw_pair(
    cfg: GeneratorConfig,
    run: _SuiteRun,
    family_a: str,
    key_a: int,
    family_b: str,
    key_b: int,
    step: int = 1,
    accept: Callable[[SymbolPair], bool] = lambda pair: pair.nondegenerate,
) -> SymbolPair:
    """First accepted pair over 50 attempts, keys advancing by ``step``; each
    rejected candidate counts as one resample."""
    for offset in range(0, 50 * step, step):
        pair = SymbolPair(
            gen_symbol(replace(cfg, family=family_a), key_a + offset),
            gen_symbol(replace(cfg, family=family_b), key_b + offset),
        )
        if accept(pair):
            return pair
        run.bump("resamples")
    raise RuntimeError(f"could not draw an accepted ({family_a}, {family_b}) pair")


def _draw_nondegenerate_pair(cfg: GeneratorConfig, run: _SuiteRun, base: int) -> SymbolPair:
    return _draw_pair(cfg, run, "general", base, "general", base + 1, step=2)


def _forced_nonconforming(
    cfg: GeneratorConfig, trial_key: int, run: _SuiteRun
) -> SymbolPair:
    """A second-factor pair that genuinely breaks the composition criterion."""
    rng = _trial_rng(cfg, trial_key)
    a = gen_symbol(replace(cfg, family="general"), trial_key + 101_000)
    b = gen_symbol(replace(cfg, family="general"), trial_key + 102_000)
    if rng.uniform() < 0.5:
        a = a + LaurentPoly({-int(rng.integers(1, 4)): 0.5 + 0.25j})
    else:
        b = b + LaurentPoly({int(rng.integers(1, 4)): 0.5 - 0.25j})
    pair = SymbolPair(a, b)
    if not pair.nondegenerate:
        run.bump("resamples")
        return _forced_nonconforming(cfg, trial_key + 1, run)
    return pair


def _rooted_analytic(rng: np.random.Generator, interior: int, exterior: int) -> LaurentPoly:
    """Analytic polynomial with root radii kept away from the unit circle."""
    roots = []
    for _ in range(interior):
        radius = rng.uniform(0.25, 0.8)
        angle = rng.uniform(0, 2 * np.pi)
        roots.append(complex(radius * np.cos(angle), radius * np.sin(angle)))
    for _ in range(exterior):
        radius = rng.uniform(1.3, 2.5)
        angle = rng.uniform(0, 2 * np.pi)
        roots.append(complex(radius * np.cos(angle), radius * np.sin(angle)))
    lead = complex(*(rng.standard_normal(2)))
    if abs(lead) < 0.3:
        lead += 0.5
    return poly_from_roots(roots, leading=lead)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_norm_bounds(cfg: GeneratorConfig) -> TrialReport:
    """Norm sandwich, monotonicity, zero characterization, strictness gap."""
    run = _SuiteRun("norm_bounds", cfg)
    if cfg.trials == 0:
        return run.finish()

    pinned = [
        ("1+0*z", LaurentPoly.one(), LaurentPoly.monomial(1), math.sqrt(2.0), 1e-9),
        ("identity", LaurentPoly.one(), LaurentPoly.one(), 1.0, 1e-12),
        ("halfspace", LaurentPoly({0: 3.0}), LaurentPoly.zero(), 3.0, 1e-9),
    ]
    for name, a, b, expected, tol in pinned:
        value = op_norm(SymbolPair(a, b), 8)
        run.observe(abs(value - expected))
        if abs(value - expected) > tol:
            run.violation(
                -1,
                "norm_bounds",
                {"a": a, "b": b},
                {"norm": value, "expected": expected},
                f"pinned case {name} missed its exact norm",
            )
    zero_norm = op_norm(SymbolPair(LaurentPoly.zero(), LaurentPoly.zero()), 8)
    if zero_norm > 1e-12:
        run.violation(
            -1,
            "norm_bounds",
            {"a": LaurentPoly.zero(), "b": LaurentPoly.zero()},
            {"norm": zero_norm},
            "zero pair has a nonzero section norm",
        )

    gaps = []
    for trial in range(cfg.trials):
        pair = _draw_nondegenerate_pair(cfg, run, trial * 128)
        result = check_norm_bounds(pair.a, pair.b)
        run.observe(
            result["monotonicity_violation"],
            result["lower_violation"],
            result["upper_violation"],
        )
        gaps.append(result["gap"])
        bad = (
            result["monotonicity_violation"] > 1e-12 * max(1.0, result["norm"])
            or result["lower_violation"] > 0
            or result["upper_violation"] > 0
            or result["gap"] <= 0
            or result["norm"] <= 1e-12
        )
        if bad:
            run.violation(
                trial,
                "norm_bounds",
                {"a": pair.a, "b": pair.b},
                result,
                "norm bound check failed",
            )
    run.stats["gap_min"] = min(gaps)
    run.stats["gap_mean"] = sum(gaps) / len(gaps)
    run.stats["gap_max"] = max(gaps)
    return run.finish()


def suite_brown_halmos(cfg: GeneratorConfig) -> TrialReport:
    """Composition of paired operators: forward identity and converse witnesses."""
    run = _SuiteRun("brown_halmos", cfg)
    if cfg.trials == 0:
        return run.finish()
    band = 8

    pinned_first = SymbolPair(parse_symbol("1"), parse_symbol("z"))
    pinned = check_composition(
        pinned_first, SymbolPair(parse_symbol("z"), parse_symbol("z^-1")), band, "paired"
    )
    run.observe(pinned["residual"], pinned["discrepancy"])
    if pinned["residual"] > cfg.exact_tol:
        run.violation(
            -1,
            "composition",
            {"first": pinned_first, "second": SymbolPair(parse_symbol("z"), parse_symbol("z^-1")), "band": band, "kind": "paired"},
            pinned,
            "pinned conforming composition not exact",
        )
    witness = check_composition(
        pinned_first, SymbolPair(parse_symbol("z^-1"), parse_symbol("z^-1")), band, "paired"
    )
    if witness["residual"] < cfg.numeric_tol:
        run.violation(
            -1,
            "composition",
            {"first": pinned_first, "second": SymbolPair(parse_symbol("z^-1"), parse_symbol("z^-1")), "band": band, "kind": "paired"},
            witness,
            "pinned nonconforming composition unexpectedly small",
        )

    for trial in range(cfg.trials):
        first = _draw_nondegenerate_pair(cfg, run, trial * 64)
        # conforming second factor: analytic upper symbol, coanalytic lower symbol
        second = _draw_pair(cfg, run, "analytic", trial * 64 + 7_000, "coanalytic", trial * 64 + 8_000)
        result = check_composition(first, second, band, "paired")
        run.observe(result["residual"], result["discrepancy"])
        if result["residual"] > cfg.exact_tol or result["discrepancy"] > cfg.exact_tol:
            run.violation(
                trial,
                "composition",
                {"first": first, "second": second, "band": band, "kind": "paired"},
                result,
                "conforming composition failed to vanish",
            )

        # transposed version: the criterion sits on the first factor
        transposed_first = _draw_pair(
            cfg, run, "coanalytic", trial * 64 + 9_000, "analytic", trial * 64 + 10_000
        )
        transposed_second = _draw_nondegenerate_pair(cfg, run, trial * 64 + 11_000)
        transposed_result = check_composition(transposed_first, transposed_second, band, "transposed")
        run.observe(transposed_result["residual"], transposed_result["discrepancy"])
        if transposed_result["residual"] > cfg.exact_tol or transposed_result["discrepancy"] > cfg.exact_tol:
            run.violation(
                trial,
                "composition",
                {"first": transposed_first, "second": transposed_second, "band": band, "kind": "transposed"},
                transposed_result,
                "conforming transposed composition failed to vanish",
            )

        # nonconforming second factor with a well-separated first pair
        first_nc = None
        for offset in range(50):
            cand = _draw_nondegenerate_pair(cfg, run, trial * 64 + 12_000 + offset)
            if (cand.a - cand.b).l2_norm() >= 0.3:
                first_nc = cand
                break
            run.bump("resamples")
        second_nc = _forced_nonconforming(cfg, trial * 64 + 13_000, run)
        nc = check_composition(first_nc, second_nc, band, "paired")
        run.observe(nc["discrepancy"])
        if nc["residual"] < cfg.numeric_tol or nc["discrepancy"] > cfg.exact_tol:
            run.violation(
                trial,
                "composition",
                {"first": first_nc, "second": second_nc, "band": band, "kind": "paired"},
                nc,
                "nonconforming composition residual below the witness floor",
            )

        # transposed converse witness: a first factor violating the criterion
        transposed_first_nc = _forced_nonconforming(cfg, trial * 64 + 14_000, run).swapped()
        if (transposed_first_nc.a - transposed_first_nc.b).l2_norm() < 0.3:
            transposed_first_nc = SymbolPair(
                transposed_first_nc.a + LaurentPoly({0: 0.5}), transposed_first_nc.b
            )
        transposed_nc = check_composition(transposed_first_nc, transposed_second, band, "transposed")
        run.observe(transposed_nc["discrepancy"])
        if transposed_nc["residual"] < cfg.numeric_tol or transposed_nc["discrepancy"] > cfg.exact_tol:
            run.violation(
                trial,
                "composition",
                {
                    "first": transposed_first_nc,
                    "second": transposed_second,
                    "band": band,
                    "kind": "transposed",
                },
                transposed_nc,
                "nonconforming transposed composition residual below the witness floor",
            )
    return run.finish()


def suite_commutant(cfg: GeneratorConfig) -> TrialReport:
    """Only constants commute with every nondegenerate paired operator."""
    run = _SuiteRun("commutant", cfg)
    if cfg.trials == 0:
        return run.finish()
    band = 8

    base = SymbolPair(parse_symbol("1"), parse_symbol("z"))
    shift = SymbolPair(parse_symbol("z"), parse_symbol("z"))
    pinned = check_commutator(base, shift, band)
    if pinned["commutator_norm"] < cfg.numeric_tol:
        run.violation(-1, "commutator", {"first": base, "second": shift, "band": band}, pinned, "pinned shift commutator vanished")
    const = SymbolPair(LaurentPoly({0: 2.0}), LaurentPoly({0: 2.0}))
    pinned_const = check_commutator(base, const, band)
    if pinned_const["commutator_norm"] > cfg.exact_tol:
        run.violation(-1, "commutator", {"first": base, "second": const, "band": band}, pinned_const, "pinned constant failed to commute")

    for trial in range(cfg.trials):
        pair = _draw_nondegenerate_pair(cfg, run, trial * 32)
        rng = _trial_rng(cfg, trial + 500_000)
        scale_bound = max(
            1.0, pair.a.max_abs_coeff() + pair.b.max_abs_coeff()
        )

        value = complex(*rng.standard_normal(2))
        constant = SymbolPair(LaurentPoly({0: value}), LaurentPoly({0: value}))
        result = check_commutator(pair, constant, band)
        run.observe(result["commutator_norm"], result["identity_discrepancy"])
        if result["commutator_norm"] > cfg.exact_tol * scale_bound * max(1.0, abs(value)):
            run.violation(
                trial,
                "commutator",
                {"first": pair, "second": constant, "band": band},
                result,
                "constant multiplier failed to commute",
            )

        eta = gen_symbol(replace(cfg, family="general"), trial * 32 + 600_000)
        offender = int(rng.integers(1, 3)) * (1 if rng.uniform() < 0.5 else -1)
        eta = eta + LaurentPoly({offender: 0.5 + 0.5j})
        multiplier = SymbolPair(eta, eta)
        result = check_commutator(pair, multiplier, band)
        run.observe(result["identity_discrepancy"])
        if result["commutator_norm"] < cfg.numeric_tol:
            run.violation(
                trial,
                "commutator",
                {"first": pair, "second": multiplier, "band": band},
                result,
                "nonconstant multiplier commuted with a nondegenerate pair",
            )
        if result["identity_discrepancy"] > cfg.exact_tol * scale_bound * max(1.0, eta.max_abs_coeff()):
            run.violation(
                trial,
                "commutator",
                {"first": pair, "second": multiplier, "band": band},
                result,
                "commutator closed form disagreed with the direct evaluation",
            )
    return run.finish()


def suite_pointwise_commutation(cfg: GeneratorConfig) -> TrialReport:
    """Four-way equivalence for multiplication commuting on a single function."""
    run = _SuiteRun("pointwise_commutation", cfg)
    if cfg.trials == 0:
        return run.finish()

    def classify_flags(pair: SymbolPair, eta: LaurentPoly, f: LaurentPoly):
        res = check_pointwise_commutation(pair, eta, f)
        scale = max(
            1.0,
            f.l2_norm() * max(1.0, eta.max_abs_coeff())
            * max(1.0, pair.a.max_abs_coeff() + pair.b.max_abs_coeff()),
        )
        tol = cfg.exact_tol * scale
        flags = {
            "commute": res["commute"] <= tol,
            "hankel": max(res["hankel_minus"], res["hankel_plus"]) <= tol,
            "plus": res["projection_plus"] <= tol,
            "minus": res["projection_minus"] <= tol,
        }
        return res, flags

    pinned_pair = SymbolPair(parse_symbol("1"), parse_symbol("z"))
    for eta_text, f_text, expected in (("z", "z^-2", True), ("z", "z^-1", False)):
        res, flags = classify_flags(pinned_pair, parse_symbol(eta_text), parse_symbol(f_text))
        if set(flags.values()) != {expected}:
            run.violation(
                -1,
                "pointwise_commutation",
                {"pair": pinned_pair, "eta": parse_symbol(eta_text), "f": parse_symbol(f_text)},
                res,
                f"pinned case ({eta_text}, {f_text}) did not uniformly evaluate to {expected}",
            )

    for trial in range(cfg.trials):
        pair = _draw_nondegenerate_pair(cfg, run, trial * 16)
        rng = _trial_rng(cfg, trial + 700_000)

        eta = gen_symbol(replace(cfg, family="general"), trial * 16 + 1)
        f = gen_symbol(replace(cfg, family="general"), trial * 16 + 2)
        res, flags = classify_flags(pair, eta, f)
        if len(set(flags.values())) != 1:
            run.violation(
                trial,
                "pointwise_commutation",
                {"pair": pair, "eta": eta, "f": f},
                res,
                "four-way equivalence split",
            )

        # constructed member/non-member for a monomial multiplier
        m = int(rng.integers(1, 4))
        eta_mono = LaurentPoly.monomial(m)
        depth = int(rng.integers(m + 1, m + 4))
        member = LaurentPoly(
            {int(rng.integers(0, 4)): complex(*rng.standard_normal(2)), -depth: complex(*rng.standard_normal(2))}
        )
        res_m, flags_m = classify_flags(pair, eta_mono, member)
        if set(flags_m.values()) != {True}:
            run.violation(
                trial,
                "pointwise_commutation",
                {"pair": pair, "eta": eta_mono, "f": member},
                res_m,
                "constructed member rejected",
            )
        nonmember = member + LaurentPoly({-int(rng.integers(1, m + 1)): 1.0})
        res_n, flags_n = classify_flags(pair, eta_mono, nonmember)
        if set(flags_n.values()) != {False}:
            run.violation(
                trial,
                "pointwise_commutation",
                {"pair": pair, "eta": eta_mono, "f": nonmember},
                res_n,
                "constructed non-member accepted",
            )

        # model-space style member: eta = zbar^s * h with deg h <= s
        s = int(rng.integers(1, 4))
        h = LaurentPoly.from_dense(_gauss_coeffs(rng, s + 1, cfg.coefficient_scale), 0)
        if h.is_zero:
            h = LaurentPoly.one()
        eta_model = h.shift(-s)
        f_model = gen_symbol(replace(cfg, family="coanalytic_vanishing"), trial * 16 + 3) + gen_symbol(
            replace(cfg, family="analytic"), trial * 16 + 4
        ).shift(s)
        res_k, flags_k = classify_flags(pair, eta_model, f_model)
        if set(flags_k.values()) != {True}:
            run.violation(
                trial,
                "pointwise_commutation",
                {"pair": pair, "eta": eta_model, "f": f_model},
                res_k,
                "model-space style member rejected",
            )
    return run.finish()


def suite_model_space(cfg: GeneratorConfig) -> TrialReport:
    """Projection commutation for co-analytic multipliers built from inner factors."""
    run = _SuiteRun("model_space", cfg)
    if cfg.trials == 0:
        return run.finish()
    working_band = 96
    conversion_band = 2 * working_band
    run.stats["working_band"] = working_band
    run.stats["conversion_band"] = conversion_band
    run.stats["band_margin_factor"] = 2

    # exact monomial cases
    for eta, f in (
        (LaurentPoly.monomial(-2), LaurentPoly.monomial(3)),
        (LaurentPoly.monomial(-2), LaurentPoly.monomial(-1)),
    ):
        res = check_model_space_identity(eta, f)
        if max(res.values()) > cfg.exact_tol:
            run.violation(
                -1,
                "model_space_identity",
                {"eta_coeffs": eta, "f_coeffs": f},
                res,
                "monomial model-space identity failed",
            )

    def disk_points(rng, count):
        radii = 0.8 * np.sqrt(rng.uniform(0, 1, count))
        angles = rng.uniform(0, 2 * np.pi, count)
        return [complex(r * np.cos(t), r * np.sin(t)) for r, t in zip(radii, angles)]

    for trial in range(cfg.trials):
        rng = _trial_rng(cfg, trial + 900_000)
        # theta = alpha * theta0; a multiplier alpha * conj(theta) * h is then
        # co-analytic exactly when h lies in the model space of theta0, so h
        # is drawn as a combination of reproducing kernels at theta0's zeros.
        zeros0 = disk_points(rng, int(rng.integers(1, 3)))
        theta0 = blaschke(zeros0)
        alpha = blaschke(disk_points(rng, int(rng.integers(1, 3))))
        theta = alpha * theta0
        h = RationalSymbol(LaurentPoly.zero())
        for zero in zeros0:
            weight = complex(*rng.standard_normal(2))
            h = h + RationalSymbol(
                LaurentPoly({0: weight}), LaurentPoly({0: 1.0, 1: -zero.conjugate()})
            )
        eta = alpha * theta.conj_reflect() * h
        f_plus = gen_symbol(replace(cfg, family="analytic"), trial * 8 + 3)
        f_minus = gen_symbol(replace(cfg, family="coanalytic_vanishing"), trial * 8 + 4)
        f_rational = theta * f_plus + f_minus

        try:
            eta_c = rational_to_coeffs(eta, conversion_band).coeffs
            f_c = rational_to_coeffs(f_rational, conversion_band).coeffs
        except ConditioningError as err:
            run.ambiguity(trial, err, "model-space conversion")
            continue
        res = check_model_space_identity(eta_c, f_c)
        run.observe(*res.values())
        scale = max(1.0, f_c.l2_norm())
        if max(res.values()) > cfg.numeric_tol * scale:
            run.violation(
                trial,
                "model_space_identity",
                {"eta_coeffs": eta_c, "f_coeffs": f_c},
                res,
                "model-space projection identity exceeded tolerance",
            )
    return run.finish()


def _kernels_at_common_band(pairs, band0: int, run: _SuiteRun, cap: int = 128):
    """Kernel bases for several pairs at one shared band, escalating on ambiguity.

    Truncated tails of slowly decaying kernel elements can land in the
    thresholding gray zone at small bands; doubling the band moves them
    cleanly to the null side.
    """
    band = band0
    last_error: AmbiguousKernelError | None = None
    while band <= cap:
        try:
            return band, [kernel_basis(p, band) for p in pairs]
        except AmbiguousKernelError as err:
            last_error = err
            run.bump("band_escalations")
            band *= 2
    raise last_error


def suite_kernels(cfg: GeneratorConfig) -> TrialReport:
    """Kernel triviality criteria, equality criterion and single-function pairs."""
    run = _SuiteRun("kernels", cfg)
    if cfg.trials == 0:
        return run.finish()

    pinned = (
        ("z^-1", "z", 2),
        ("z^-1", "1", 1),
        ("1", "1 - z", 0),
    )
    for a_text, b_text, expected in pinned:
        pair = SymbolPair(parse_symbol(a_text), parse_symbol(b_text))
        result = check_kernel_dimension(pair, 32)
        if result["dim"] != expected or not result["stabilized"]:
            run.violation(
                -1,
                "kernel_dimension",
                {"pair": pair, "band": 32},
                result,
                f"pinned kernel dimension for ({a_text}, {b_text}) wrong",
            )

    for trial in range(cfg.trials):
        rng = _trial_rng(cfg, trial + 1_100_000)

        # analytic/coanalytic pairs have trivial kernels (vacuous invariance)
        pair_i = _draw_pair(cfg, run, "analytic", trial * 48, "coanalytic", trial * 48 + 1_000)
        band_i = max(4, pair_i.band_radius() + 2)
        try:
            band_i, (k_i,) = _kernels_at_common_band([pair_i], band_i, run)
        except AmbiguousKernelError as err:
            run.ambiguity(trial, err, "analytic/coanalytic kernel")
            k_i = None
        if k_i is not None:
            if k_i.dim != 0:
                run.violation(
                    trial,
                    "kernel_dimension",
                    {"pair": pair_i, "band": band_i},
                    {"dim": k_i.dim},
                    "analytic/coanalytic pair with a nontrivial kernel",
                )
            else:
                run.bump("invariance_vacuous_trials")

        # nontrivial inner factor produces an explicit kernel element
        a_ii = gen_symbol(replace(cfg, family="coanalytic"), trial * 48 + 2_000)
        b_ii = _rooted_analytic(rng, interior=int(rng.integers(1, 3)), exterior=int(rng.integers(0, 2)))
        f_ii = kernel_element_from_inner_factor(a_ii, b_ii)
        res_ii = check_kernel_annihilation(SymbolPair(a_ii, b_ii), f_ii)
        run.observe(res_ii["residual"])
        if res_ii["residual"] > 1e-9 * max(1.0, f_ii.l2_norm()) or f_ii.is_zero:
            run.violation(
                trial,
                "kernel_annihilation",
                {"pair": SymbolPair(a_ii, b_ii), "f": f_ii},
                res_ii,
                "inner-factor kernel element failed",
            )

        # strictly co-analytic against analytic: direct element and containment
        base = _draw_pair(
            cfg, run, "coanalytic_vanishing", trial * 48 + 3_000, "analytic", trial * 48 + 4_000
        )
        f_iii = kernel_element_direct(base.a, base.b)
        res_iii = check_kernel_annihilation(base, f_iii)
        run.observe(res_iii["residual"])
        scale_iii = max(1.0, base.a.max_abs_coeff() * base.b.max_abs_coeff())
        if res_iii["residual"] > cfg.exact_tol * scale_iii:
            run.violation(
                trial,
                "kernel_annihilation",
                {"pair": base, "f": f_iii},
                res_iii,
                "direct kernel element failed",
            )
        # multiplying both symbols by a common factor preserves the kernel
        eta = gen_symbol(replace(cfg, family="general"), trial * 48 + 5_000)
        scaled = SymbolPair(eta * base.a, eta * base.b)
        if not same_kernel_test(base, scaled):
            run.violation(
                trial,
                "kernel_annihilation",
                {"pair": scaled, "f": f_iii},
                {"residual": 1.0},
                "common-factor pair failed the kernel equality criterion",
            )

        # independent pair: cross products differ, so kernels must differ
        try:
            other = _draw_pair(
                cfg,
                run,
                "coanalytic_vanishing",
                trial * 48 + 6_000,
                "analytic",
                trial * 48 + 7_000,
                accept=lambda cand: cand.nondegenerate
                and (cand.a * base.b - base.a * cand.b).max_abs_coeff() > 1e-6,
            )
        except RuntimeError:
            other = None

        band = max(4, abs(f_iii.kmin), f_iii.kmax) + 2
        group = [base, scaled] + ([other] if other is not None else [])
        try:
            band, kernels = _kernels_at_common_band(group, band, run)
        except AmbiguousKernelError as err:
            run.ambiguity(trial, err, "kernel group")
            continue
        k_base, k_scaled = kernels[0], kernels[1]
        if k_base.dim == 0:
            run.violation(
                trial,
                "kernel_dimension",
                {"pair": base, "band": band},
                {"dim": 0},
                "expected nontrivial kernel",
            )
            continue
        angle = subspace_angle(list(k_base.basis), list(k_scaled.basis))
        run.observe(angle)
        if angle > cfg.numeric_tol:
            run.violation(
                trial,
                "kernel_dimension",
                {"pair": scaled, "band": band},
                {"dim": k_scaled.dim, "angle": angle},
                "common-factor pair has a different band-limited kernel",
            )
        if other is not None:
            k_other = kernels[2]
            if k_other.dim > 0:
                if same_kernel_test(base, other):
                    run.violation(
                        trial,
                        "kernel_dimension",
                        {"pair": other, "band": band},
                        {"dim": k_other.dim},
                        "differing cross products but equality criterion held",
                    )
                angle_other = subspace_angle(list(k_base.basis), list(k_other.basis))
                if angle_other <= 1e-6 and k_base.dim == k_other.dim:
                    run.violation(
                        trial,
                        "kernel_dimension",
                        {"pair": other, "band": band},
                        {"dim": k_other.dim, "angle": angle_other},
                        "distinct pairs share a band-limited kernel",
                    )
                # inclusion dichotomy: distinct kernels admit no strict
                # nontrivial inclusion in either direction
                for inner_k, outer_k in ((k_base, k_other), (k_other, k_base)):
                    contained = _containment_gap(list(inner_k.basis), list(outer_k.basis)) <= 1e-8
                    if contained and inner_k.dim < outer_k.dim:
                        run.violation(
                            trial,
                            "kernel_dimension",
                            {"pair": other, "band": band},
                            {"dims": [k_base.dim, k_other.dim]},
                            "strict nontrivial kernel inclusion observed",
                        )

        # a kernel vector determines its kernel: rebuild the pair from a
        # random multiple of the known low-degree element.  (Higher-degree
        # combinations of escalated-band basis vectors would push the exact
        # cross-product comparison outside its rounding envelope.)
        phi = f_iii * complex(*rng.standard_normal(2))
        if phi.is_zero or riesz_plus(phi).is_zero or riesz_minus(phi).is_zero:
            run.bump("resamples")
            continue
        if not (
            invertible_on_circle(riesz_plus(phi), 1e-2)
            and invertible_on_circle(riesz_minus(phi).conj_reflect(), 1e-2)
        ):
            run.bump("conditioning_skips")
            continue
        try:
            rebuilt = pair_from_function(phi)
        except (ConditioningError, ArithmeticError) as err:
            run.ambiguity(trial, err, "pair_from_function")
            continue
        run.observe(rebuilt.residual)
        if rebuilt.residual > 1e-9 * max(1.0, phi.l2_norm()) or not same_kernel_test(rebuilt, base):
            run.violation(
                trial,
                "kernel_annihilation",
                {"pair": base, "f": phi},
                {"residual": rebuilt.residual},
                "pair rebuilt from a kernel vector failed the round trip",
            )
    return run.finish()


def suite_coburn(cfg: GeneratorConfig) -> TrialReport:
    """Kernel dichotomy, conjugate dimension bookkeeping, adjoint round trips."""
    run = _SuiteRun("coburn", cfg)
    if cfg.trials == 0:
        return run.finish()

    def escalated_coburn(pair: SymbolPair, trial: int):
        last_error = None
        for band in (16, 32, 64, 128):
            try:
                report = coburn_check(pair, band)
            except AmbiguousKernelError as err:
                last_error = err
                run.bump("band_escalations")
                continue
            if not report.all_stabilized:
                run.bump("band_escalations")
                continue
            return report
        if last_error is not None:
            run.ambiguity(trial, last_error, "coburn escalation exhausted")
        return None

    def process(pair: SymbolPair, trial: int):
        report = escalated_coburn(pair, trial)
        if report is None:
            return
        payload = {
            "dim_kernel": report.dim_kernel,
            "dim_swapped": report.dim_swapped,
            "dim_conjugated": report.dim_conjugated,
            "dim_adjoint": report.dim_adjoint,
        }
        if not report.dichotomy_holds:
            run.violation(trial, "coburn", {"pair": pair, "band": report.band}, payload, "dichotomy violated")
        if not report.conjugate_dims_match:
            run.violation(trial, "coburn", {"pair": pair, "band": report.band}, payload, "swapped/conjugated dimensions differ")
        if report.adjoint_dim_matches is False:
            run.violation(trial, "coburn", {"pair": pair, "band": report.band}, payload, "adjoint dimension mismatch")
        if report.dim_kernel:
            run.bump("nontrivial_kernels")
            images = [kernel_conjugate(v, pair) for v in report.kernel.basis]
            gram = np.array([[inner_product(u, v) for v in images] for u in images])
            if images and np.max(np.abs(gram - np.eye(len(images)))) > 1e-10:
                run.violation(
                    trial,
                    "coburn",
                    {"pair": pair, "band": report.band},
                    payload,
                    "conjugate images not orthonormal",
                )
        if report.dim_adjoint and report.invertible_cases:
            run.bump("adjoint_round_trips")
            for psi in report.adjoint.basis:
                phi = adjoint_kernel_map(psi, pair)
                try:
                    inverses = adjoint_inverse_report(phi, pair)
                except ConditioningError as err:
                    run.ambiguity(trial, err, "adjoint inverse conversion")
                    continue
                run.observe(inverses.max_discrepancy)
                if inverses.max_discrepancy > 1e-9:
                    run.violation(
                        trial,
                        "coburn",
                        {"pair": pair, "band": report.band},
                        {"discrepancy": inverses.max_discrepancy},
                        "inverse case formulas disagree",
                    )
                for case, back in inverses.results.items():
                    err_norm = (back - psi).l2_norm()
                    run.observe(err_norm)
                    if err_norm > 1e-9 * max(1.0, psi.l2_norm()):
                        run.violation(
                            trial,
                            "coburn",
                            {"pair": pair, "band": report.band},
                            {"round_trip": err_norm, "case": case},
                            "adjoint transfer round trip failed",
                        )

    for a_text, b_text in (("1", "z"), ("z^-1", "z"), ("1", "1 - z"), ("z", "1"), ("1", "z^-1")):
        process(SymbolPair(parse_symbol(a_text), parse_symbol(b_text)), -1)

    for trial in range(cfg.trials):
        rng = _trial_rng(cfg, trial + 1_300_000)
        if trial % 5 == 4:
            # constructed pair with nontrivial swapped/adjoint kernels
            shift = int(rng.integers(1, 3))
            p = _rooted_analytic(rng, interior=int(rng.integers(0, 2)), exterior=int(rng.integers(0, 2)))
            a = p.shift(shift)
            q = _rooted_analytic(rng, interior=int(rng.integers(0, 2)), exterior=int(rng.integers(0, 2)))
            b = q.conj_reflect()
            pair = SymbolPair(a, b)
            if not pair.nondegenerate:
                pair = _draw_nondegenerate_pair(cfg, run, trial * 96)
        else:
            pair = _draw_nondegenerate_pair(cfg, run, trial * 96)
        process(pair, trial)
    return run.finish()


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

SUITES: dict[str, Callable[[GeneratorConfig], TrialReport]] = {
    "brown_halmos": suite_brown_halmos,
    "coburn": suite_coburn,
    "commutant": suite_commutant,
    "kernels": suite_kernels,
    "model_space": suite_model_space,
    "norm_bounds": suite_norm_bounds,
    "pointwise_commutation": suite_pointwise_commutation,
}


def _derive_seed(seed: int, name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return (seed ^ int.from_bytes(digest[:8], "big")) & _MASK64


@dataclass(frozen=True)
class AggregateReport:
    seed: int
    reports: dict

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports.values())

    @property
    def exit_code(self) -> int:
        if any(r.violations for r in self.reports.values()):
            return 1
        if any(r.ambiguities for r in self.reports.values()):
            return 2
        return 0

    @property
    def verdict(self) -> str:
        if self.exit_code == 1:
            return "fail"
        if self.exit_code == 2:
            return "ambiguous"
        if all(r.trials_run == 0 for r in self.reports.values()):
            return "no-evidence"
        return "pass"

    def to_json_dict(self, include_runtime: bool = True) -> dict:
        return {
            "seed": self.seed,
            "verdict": self.verdict,
            "passed": self.passed,
            "exit_code": self.exit_code,
            "suites": {
                name: report.to_json_dict(include_runtime=include_runtime)
                for name, report in sorted(self.reports.items())
            },
        }


def run_all(cfg: GeneratorConfig) -> AggregateReport:
    """Run every suite with per-suite derived seeds; merge in name order."""
    reports = {}
    for name in sorted(SUITES):
        sub_cfg = replace(cfg, seed=_derive_seed(cfg.seed, name))
        reports[name] = SUITES[name](sub_cfg)
    return AggregateReport(seed=cfg.seed, reports=reports)
