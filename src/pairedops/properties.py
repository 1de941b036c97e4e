"""Randomized verification suites with seeded generators and replayable reports.

Each suite restates a family of operator identities as executable checks over
deterministic pseudo-random symbol streams.  A suite returns a
:class:`TrialReport`; a report with no violations and no ambiguities passed.

Check/replay contract: suite bodies only draw inputs and state failure
conditions.  ``_SuiteRun.check`` calls the registered check once per input
set, and a violation records exactly those inputs and that output, so
:func:`replay_violation`, which calls the same check, returns its residuals.
A check that raises ``ValueError`` on its inputs is recorded the same way,
with no residuals and the error text; its replay raises the same error.

Kernel dimensions come from the closed-form L2 kernels wherever a and b are
invertible on the circle; the closed-form band-limited kernels answer, at one
band, only for the other pairs.  Kernel groups are compared only in closed
form; a group without one is recorded as an ambiguity.  The ``coburn`` suite
also samples band-16 kernel elements, each passing the one membership rule
of :mod:`pairedops.kernels`, for its Gram and adjoint round-trip checks.

Determinism contract: identical :class:`GeneratorConfig` values produce
byte-identical JSON reports (the wall-clock ``runtime`` field excluded).
Every random input is drawn from its own named stream,
``SeedSequence(seed, spawn_key=(suite, trial, role))``, so no two inputs share
draws and a suite's report is the same whether it runs alone or in
:func:`run_all`.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import asdict, dataclass
from typing import Callable, Mapping

import numpy as np

from .kernels import (
    _MEMBERSHIP_TOL,
    AmbiguousKernelError,
    _check_membership,
    _paired_residual,
    _relative,
    adjoint_inverse_report,
    adjoint_kernel_basis,
    adjoint_kernel_map,
    coburn_check,
    invertible_on_circle,
    kernel_basis,
    kernel_conjugate,
    kernel_element_direct,
    kernel_element_from_inner_factor,
    l2_kernel,
    pair_from_function,
    same_kernel_test,
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

# Every check reports relative residuals: a residual over the size of the
# terms that should cancel, so a common scale of the symbols changes no
# decision, and each threshold below is a constant.
_EXACT_TOL = 1e-12  # identities that hold to rounding: products of degree-4 symbols leave ~1e-15
_WITNESS_FLOOR = 1e-8  # a witness of a broken identity: its defect is of order one (0.5 x the scale)
_MODEL_SPACE_TOL = 1e-8  # the identity on rationals cut at band 192: poles within 0.8 leave 0.8^192 < 1e-18
_PINNED_NORM_TOL = 1e-9  # section norms of (1, z) and (3, 0) against sqrt(2) and 3
_TRUNCATION_TOL = 1e-9  # the adjoint round trip, through a truncated inverse
_DRAW_ATTEMPTS = 50  # candidates an accept loop draws before it gives up
_DEGREE_RANGE = (1, 4)  # gen_symbol's degree d is uniform over these, both included


@dataclass(frozen=True)
class GeneratorConfig:
    """Seed, coefficient scale and trial count: what a run draws."""

    seed: int = 0
    coefficient_scale: float = 1.0
    trials: int = 100

    def __post_init__(self):
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.coefficient_scale <= 0:
            raise ValueError("coefficient_scale must be positive")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError("seed must fit in 64 bits")


def _name_key(name: str) -> int:
    """A spawn-key entry for a suite or role name: its UTF-8 bytes, zero-padded to 32.

    Read big-endian, a name of 1 to 32 bytes is always eight 32-bit words.
    SeedSequence concatenates the words of its spawn-key entries, so entries
    of varying width could alias (spawn keys (2**32,) and (0, 1) give one
    stream); fixed-width names keep (suite, trial, role) keys apart.
    """
    return int.from_bytes(name.encode("utf-8").ljust(32, b"\0"), "big")


def _gauss_coeffs(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * (scale / math.sqrt(2.0))


def _disk_points(rng: np.random.Generator, count: int) -> list[complex]:
    """``count`` points uniform in the disk of radius 0.8: all radii, then all angles."""
    radii = 0.8 * np.sqrt(rng.uniform(0, 1, count))
    angles = rng.uniform(0, 2 * np.pi, count)
    return [complex(r * np.cos(t), r * np.sin(t)) for r, t in zip(radii, angles)]


def gen_symbol(cfg: GeneratorConfig, rng: np.random.Generator, family: str = "general"):
    """Draw a symbol of ``family`` from ``rng``.

    Families select the band: ``analytic`` gives [0, d], ``coanalytic``
    [-d, 0], ``coanalytic_vanishing`` [-d, -1], ``general`` [-d, d]; the
    degree d is uniform over ``_DEGREE_RANGE`` and coefficients are complex
    Gaussians.  ``invertible_on_T`` resamples a general symbol until all roots
    stay 1e-3 away from the circle, and ``blaschke`` returns a
    :class:`RationalSymbol` with zeros sampled in the disk of radius 0.8.
    """
    if family not in _FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    lo, hi = _DEGREE_RANGE
    degree = int(rng.integers(lo, hi + 1))
    if family == "blaschke":
        return blaschke(_disk_points(rng, max(1, degree)))
    for _ in range(100):
        if family == "analytic":
            kmin, kmax = 0, degree
        elif family == "coanalytic":
            kmin, kmax = -degree, 0
        elif family == "coanalytic_vanishing":
            kmin, kmax = -max(1, degree), -1
        else:
            kmin, kmax = -degree, degree
        values = _gauss_coeffs(rng, kmax - kmin + 1, cfg.coefficient_scale)
        sym = LaurentPoly.from_dense(values, kmin)
        if sym.is_zero:
            continue
        if family == "invertible_on_T" and not invertible_on_circle(sym, 1e-3):
            continue
        return sym
    raise RuntimeError(f"could not draw a valid {family!r} symbol")



# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _verdict(exit_code: int, vacuous: bool) -> str:
    return ("no-evidence" if vacuous else "pass", "fail", "ambiguous")[exit_code]


@dataclass(frozen=True)
class Violation:
    trial: int
    check: str
    inputs: dict
    residuals: dict
    message: str

    def to_json_dict(self) -> dict:
        return asdict(self)


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
    def exit_code(self) -> int:
        """1 with violations, else 2 with ambiguities, else 0."""
        return 1 if self.violations else (2 if self.ambiguities else 0)

    @property
    def passed(self) -> bool:
        return self.exit_code == 0

    @property
    def verdict(self) -> str:
        return _verdict(self.exit_code, self.trials_run == 0)

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


@dataclass(frozen=True)
class _Checked:
    """One run of a registered check, and the only way a suite records a violation."""

    run: _SuiteRun
    trial: int
    check: str
    inputs: dict
    result: dict

    def __getitem__(self, key: str):
        return self.result[key]

    def fail_if(self, condition: bool, message: str) -> None:
        """Record a violation with exactly these inputs and this output if ``condition`` holds."""
        if condition:
            residuals = {k: _plain(v) for k, v in self.result.items()}
            record = Violation(self.trial, self.check, _encode(self.inputs), residuals, message)
            self.run.violations.append(record)


class _Refused(Exception):
    """A registered check refused its inputs; :func:`_suite` ends the body, the violation already recorded."""


class _SuiteRun:
    """Accumulator shared by all suites, and their one way to run a check."""

    def __init__(self, name: str, cfg: GeneratorConfig):
        self.name = name
        self.cfg = cfg
        self.started = time.perf_counter()
        self.violations: list[Violation] = []
        self.ambiguities: list[dict] = []
        self.max_residual = 0.0
        self.stats: dict = {}

    def stream(self, trial: int, role: str) -> np.random.Generator:
        """The generator of input ``role`` in ``trial``, the only source of suite randomness.

        Its key is ``SeedSequence(seed, spawn_key=(suite, trial, role))``;
        each (trial, role) is drawn once per run, and accept loops keep
        drawing from the same generator.
        """
        key = (_name_key(self.name), trial, _name_key(role))
        return np.random.default_rng(np.random.SeedSequence(self.cfg.seed, spawn_key=key))

    def observe(self, *residuals: float) -> None:
        for r in residuals:
            if r > self.max_residual:
                self.max_residual = float(r)

    def check(self, trial: int, name: str, inputs: dict, observe: tuple = ()) -> _Checked:
        """Run the registered check ``name`` once on ``inputs``.

        The residuals named in ``observe`` feed ``max_residual``; the suite
        states its failure conditions on the returned :class:`_Checked`.  A
        ``ValueError`` of the check (an input outside the kernel) is a violation
        with no residuals that ends the suite's body (:class:`_Refused`).
        """
        try:
            result = _CHECKS[name](**inputs)
        except ValueError as err:
            self.violations.append(Violation(trial, name, _encode(inputs), {}, str(err)))
            raise _Refused from err
        self.observe(*(result[key] for key in observe))
        return _Checked(self, trial, name, inputs, result)

    def ambiguity(self, trial: int, error: ArithmeticError, context: str):
        self.ambiguities.append({"trial": trial, "context": context, "error": str(error)})

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
    """Python floats for numpy scalars (integers included), other values as they are."""
    return float(value) if isinstance(value, (float, np.floating, np.integer)) else value


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
    """Norm sandwich, monotonicity and strictness gap for one symbol pair.

    The three violations are relative to m, the larger sup norm; the gap
    below the naive sum is absolute.  ``sup_norm`` estimates each sup norm
    from below, so the upper check reads the upper ends G + B of their
    enclosures instead: a section norm at the true bound passes it.
    """
    pair = SymbolPair(a, b)
    (sup_a, upper_a), (sup_b, upper_b) = a._sup_norm_enclosure(), b._sup_norm_enclosure()
    m = max(sup_a, sup_b)
    norms = [op_norm(pair, n) for n in (8, 16, 32, 64, 128)]
    top = norms[-1]
    return {
        "norm": top,
        "monotonicity_violation": _over(max(max(0.0, lo - hi) for lo, hi in zip(norms, norms[1:])), m),
        "lower_violation": _over(max(0.0, 0.95 * m - top), m),
        "upper_violation": _over(max(0.0, top - min(math.sqrt(2.0) * max(upper_a, upper_b), upper_a + upper_b)), m),
        "gap": (sup_a + sup_b) - top,
    }


@_register("pinned_norm")
def check_pinned_norm(a: LaurentPoly, b: LaurentPoly, band: int, expected: float) -> dict:
    """Section norm of a pair against its closed-form value, relative to the larger of the two."""
    norm = op_norm(SymbolPair(a, b), band)
    return {"norm": norm, "expected": expected, "error": _over(abs(norm - expected), max(norm, expected))}


def _over(value: float, size: float) -> float:
    """value / size; 0 when size is 0, where every term, and so value, vanishes."""
    return value / size if size else 0.0


def _over_sizes(report, first: SymbolPair, second: SymbolPair, *fields: str) -> dict:
    """The ``fields`` of ``report`` over the product of the two pairs' sizes, each its largest coefficient."""
    size = math.prod(max(pair.a.max_abs_coeff(), pair.b.max_abs_coeff()) for pair in (first, second))
    return {name: _over(getattr(report, name), size) for name in fields}


@_register("composition")
def check_composition(
    first: SymbolPair, second: SymbolPair, band: int, kind: str
) -> dict:
    """:func:`composition_residual`'s column norms over the product of the two pairs' sizes."""
    report = composition_residual(first, second, band, kind=kind)
    return _over_sizes(report, first, second, "residual", "formula_residual", "discrepancy")


@_register("commutator")
def check_commutator(first: SymbolPair, second: SymbolPair, band: int) -> dict:
    """:func:`commutator_residual`'s column norms over the product of the two pairs' sizes."""
    report = commutator_residual(first, second, band)
    return _over_sizes(report, first, second, "commutator_norm", "identity_discrepancy")


@_register("pointwise_commutation")
def check_pointwise_commutation(
    pair: SymbolPair, eta: LaurentPoly, f: LaurentPoly
) -> dict:
    """Relative residuals of the four equivalent commutation statements for (eta, f).

    Each is the defect over the larger of its terms (:func:`_relative`):
    eta*Op f against Op(eta f), P-(eta f+) against eta f+, P+(eta f-)
    against eta f-, and eta f+- against P+-(eta f).
    """
    eta_f, eta_plus, eta_minus = eta * f, eta * riesz_plus(f), eta * riesz_minus(f)
    eta_image, image_eta = eta * apply_paired(pair, f), apply_paired(pair, eta_f)
    project_plus, project_minus = riesz_plus(eta_f), riesz_minus(eta_f)
    return {
        "commute": _relative(eta_image - image_eta, eta_image, image_eta),
        "hankel_minus": _relative(riesz_minus(eta_plus), eta_plus),
        "hankel_plus": _relative(riesz_plus(eta_minus), eta_minus),
        "projection_plus": _relative(eta_plus - project_plus, eta_plus, project_plus),
        "projection_minus": _relative(eta_minus - project_minus, eta_minus, project_minus),
    }


@_register("model_space_identity")
def check_model_space_identity(
    eta_coeffs: LaurentPoly, f_coeffs: LaurentPoly
) -> dict:
    """Relative residuals of P+-(eta f) = eta P+-(f) for truncated eta and f."""
    product = eta_coeffs * f_coeffs

    def residual(projection) -> float:
        whole, part = projection(product), eta_coeffs * projection(f_coeffs)
        return _relative(whole - part, whole, part)

    return {"residual_plus": residual(riesz_plus), "residual_minus": residual(riesz_minus)}


@_register("kernel_annihilation")
def check_kernel_annihilation(pair: SymbolPair, plus, minus) -> dict:
    """a*plus + b*minus over the larger of its two terms, denominators cleared (:func:`_paired_residual`)."""
    return {"residual": _paired_residual(pair.a, pair.b, plus, minus)}


@_register("multiplier_invariance")
def check_multiplier_invariance(pair: SymbolPair, eta: LaurentPoly, f: LaurentPoly) -> dict:
    """Both sides of  eta*f in kernel  <=>  both Hankel parts of f under eta vanish.

    ``f`` must be a kernel element of ``pair``, else ``ValueError``.  Each
    side is read from relative residuals (:func:`_relative`) at the
    membership tolerance: a P+(eta f) + b P-(eta f) over the larger of its
    terms, P-(eta f+) over eta f+ and P+(eta f-) over eta f-.
    """
    pair.require_nondegenerate()
    _check_membership(pair, f, "paired")
    eta_f, eta_plus, eta_minus = eta * f, eta * riesz_plus(f), eta * riesz_minus(f)
    image = _relative(apply_paired(pair, eta_f), pair.a * riesz_plus(eta_f), pair.b * riesz_minus(eta_f))
    hankel_minus = _relative(riesz_minus(eta_plus), eta_plus)
    hankel_plus = _relative(riesz_plus(eta_minus), eta_minus)
    return {
        "image_residual": image,
        "hankel_minus_residual": hankel_minus,
        "hankel_plus_residual": hankel_plus,
        "keeps_kernel": image <= _MEMBERSHIP_TOL,
        "hankel_parts_vanish": max(hankel_minus, hankel_plus) <= _MEMBERSHIP_TOL,
    }


@_register("kernel_dimension")
def check_kernel_dimension(pair: SymbolPair, band: int) -> dict:
    """The L2 kernel dimension from the index; the band-``band`` one where there is no closed form."""
    closed = l2_kernel(pair)
    if closed is not None:
        return {"dim": closed.dim, "route": "index"}
    return {"dim": kernel_basis(pair, band).dim, "route": "band-limited"}


@_register("same_kernel")
def check_same_kernel(first: SymbolPair, second: SymbolPair) -> dict:
    """The exact cross-product criterion for equality of two paired kernels."""
    return {"same_kernel": same_kernel_test(first, second)}


@_register("l2_kernel_group")
def check_l2_kernel_group(base: SymbolPair, scaled: SymbolPair, other: SymbolPair | None) -> dict:
    """Closed-form L2 kernels of a pair, a common-factor multiple and an unrelated pair.

    Every element of a kernel of dimension d is p*G, with G its first basis
    element (the generator) and deg p < d, so a pair annihilates a nonzero
    element of a kernel exactly when it annihilates G: no truncation and no
    SVD.  Reports the dimensions, the membership residual
    (:func:`_paired_residual`) of ``scaled`` on G_base, and with ``other``
    the equality criterion and the residuals of ``other`` on G_base and of
    ``base`` on G_other; infinity where a trivial kernel has no generator.
    A pair without a closed form leaves only ``closed_form`` False.
    """
    kernels = [l2_kernel(p) for p in (base, scaled, other) if p is not None]
    if None in kernels:
        return {"closed_form": False}
    g_base, _, *g_other = [k.basis[0] if k.dim else None for k in kernels]
    out = {"closed_form": True, "dim": kernels[0].dim, "dim_scaled": kernels[1].dim}
    out["scaled_on_base"] = _paired_residual(scaled.a, scaled.b, *g_base) if g_base else math.inf
    if other is not None:
        shared = g_base and g_other[0]
        out["dim_other"] = kernels[2].dim
        out["same_kernel_other"] = same_kernel_test(base, other)
        out["other_on_base"] = _paired_residual(other.a, other.b, *g_base) if shared else math.inf
        out["base_on_other"] = _paired_residual(base.a, base.b, *g_other[0]) if shared else math.inf
    return out


@_register("pair_from_function")
def check_pair_from_function(phi: LaurentPoly, pair: SymbolPair) -> dict:
    """Rebuild the pair whose kernel holds ``phi`` and compare it with ``pair``."""
    rebuilt = pair_from_function(phi)
    return {"residual": rebuilt.residual, "same_kernel": same_kernel_test(rebuilt, pair)}


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
        "adjoint_dim_matches": report.adjoint_dim_matches,
        "invertible_cases": list(report.invertible_cases),
        "route": report.route,
    }


@_register("conjugate_orthonormality")
def check_conjugate_orthonormality(pair: SymbolPair, basis: list) -> dict:
    """Largest entry of |G(images) - conj G(basis)| over the largest of |G(basis)|.

    G is the Gram matrix, and the images are the conjugated basis.  The
    conjugation is antiunitary, <Cu, Cv> = conj <u, v>, so on an orthonormal
    basis this is the largest entry of |G(images) - I|.
    """
    images = [kernel_conjugate(v, pair) for v in basis]
    before, after = (np.array([[inner_product(u, v) for v in vs] for u in vs]) for vs in (basis, images))
    return {"gram_deviation": float(np.max(np.abs(after - before.conj())) / np.max(np.abs(before)))}


@_register("adjoint_round_trip")
def check_adjoint_round_trip(pair: SymbolPair, psi: LaurentPoly) -> dict:
    """An adjoint kernel element through the transfer map and back by every inverse case.

    ``discrepancy`` is the largest disagreement between the cases,
    ``round_trip`` the largest distance of a case's result from ``psi``, both
    relative to the norm of ``psi``.
    """
    inverses = adjoint_inverse_report(adjoint_kernel_map(psi, pair), pair)
    errors = [(back - psi).l2_norm() for back in inverses.results.values()]
    size = psi.l2_norm()
    return {"discrepancy": _over(inverses.max_discrepancy, size), "round_trip": _over(max(errors, default=0.0), size)}


# ---------------------------------------------------------------------------
# drawing helpers
# ---------------------------------------------------------------------------


def _draw_pair(
    cfg: GeneratorConfig,
    run: _SuiteRun,
    trial: int,
    role: str,
    family_a: str = "general",
    family_b: str = "general",
    accept: Callable[[SymbolPair], bool] = lambda pair: pair.nondegenerate,
) -> SymbolPair:
    """First accepted pair drawn from the stream of ``role``; each rejected
    candidate counts as one resample."""
    rng = run.stream(trial, role)
    for _ in range(_DRAW_ATTEMPTS):
        pair = SymbolPair(gen_symbol(cfg, rng, family_a), gen_symbol(cfg, rng, family_b))
        if accept(pair):
            return pair
        run.bump("resamples")
    raise RuntimeError(f"could not draw an accepted ({family_a}, {family_b}) pair")


def _forced_nonconforming(cfg: GeneratorConfig, run: _SuiteRun, trial: int, role: str) -> SymbolPair:
    """A nondegenerate second-factor pair that genuinely breaks the composition criterion."""
    rng = run.stream(trial, role)
    for _ in range(_DRAW_ATTEMPTS):
        a, b = gen_symbol(cfg, rng), gen_symbol(cfg, rng)
        if rng.uniform() < 0.5:
            a = a + LaurentPoly({-int(rng.integers(1, 4)): (0.5 + 0.25j) * cfg.coefficient_scale})
        else:
            b = b + LaurentPoly({int(rng.integers(1, 4)): (0.5 - 0.25j) * cfg.coefficient_scale})
        pair = SymbolPair(a, b)
        if pair.nondegenerate:
            return pair
        run.bump("resamples")
    raise RuntimeError("could not draw a nondegenerate nonconforming pair")


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

SUITES: dict[str, Callable[[GeneratorConfig], TrialReport]] = {}


def _suite(name: str):
    """Register ``body(cfg, run)`` as suite ``name``; zero trials skip the body, a refused check ends it."""

    def decorate(body):
        def suite(cfg: GeneratorConfig) -> TrialReport:
            run = _SuiteRun(name, cfg)
            if cfg.trials:
                with contextlib.suppress(_Refused):
                    body(cfg, run)
            return run.finish()

        suite.__name__ = suite.__qualname__ = body.__name__
        suite.__doc__ = body.__doc__
        SUITES[name] = suite
        return suite

    return decorate


@_suite("norm_bounds")
def suite_norm_bounds(cfg: GeneratorConfig, run: _SuiteRun) -> None:
    """Norm sandwich, monotonicity, zero characterization, strictness gap."""
    pinned = [
        ("1+0*z", LaurentPoly.one(), LaurentPoly.monomial(1), math.sqrt(2.0), _PINNED_NORM_TOL),
        ("identity", LaurentPoly.one(), LaurentPoly.one(), 1.0, _EXACT_TOL),
        ("halfspace", LaurentPoly({0: 3.0}), LaurentPoly.zero(), 3.0, _PINNED_NORM_TOL),
        ("zero", LaurentPoly.zero(), LaurentPoly.zero(), 0.0, _EXACT_TOL),
    ]
    for name, a, b, expected, tol in pinned:
        inputs = {"a": a, "b": b, "band": 8, "expected": expected}
        result = run.check(-1, "pinned_norm", inputs, observe=("error",))
        result.fail_if(result["error"] > tol, f"pinned case {name} missed its exact norm")

    observed = ("monotonicity_violation", "lower_violation", "upper_violation")
    gaps = []
    for trial in range(cfg.trials):
        pair = _draw_pair(cfg, run, trial, "pair")
        result = run.check(trial, "norm_bounds", {"a": pair.a, "b": pair.b}, observed)
        gaps.append(result["gap"])
        bad = (
            result["monotonicity_violation"] > _EXACT_TOL
            or result["lower_violation"] > 0
            or result["upper_violation"] > _EXACT_TOL
            or result["gap"] <= 0
        )
        result.fail_if(bad, "norm bound check failed")
    run.stats["gap_min"] = min(gaps)
    run.stats["gap_mean"] = sum(gaps) / len(gaps)
    run.stats["gap_max"] = max(gaps)


@_suite("brown_halmos")
def suite_brown_halmos(cfg: GeneratorConfig, run: _SuiteRun) -> None:
    """Composition of paired operators: forward identity and converse witnesses."""

    def compose(trial, first, second, kind, observe=("residual", "discrepancy")):
        inputs = {"first": first, "second": second, "band": 8, "kind": kind}
        return run.check(trial, "composition", inputs, observe)

    def vanish_failed(result):
        return result["residual"] > _EXACT_TOL or result["discrepancy"] > _EXACT_TOL

    def witness_failed(result):
        return result["residual"] < _WITNESS_FLOOR or result["discrepancy"] > _EXACT_TOL

    pinned_first = SymbolPair(parse_symbol("1"), parse_symbol("z"))
    pinned = compose(-1, pinned_first, SymbolPair(parse_symbol("z"), parse_symbol("z^-1")), "paired")
    pinned.fail_if(pinned["residual"] > _EXACT_TOL, "pinned conforming composition not exact")
    nonconforming = SymbolPair(parse_symbol("z^-1"), parse_symbol("z^-1"))
    witness = compose(-1, pinned_first, nonconforming, "paired", observe=())
    message = "pinned nonconforming composition unexpectedly small"
    witness.fail_if(witness["residual"] < _WITNESS_FLOOR, message)

    for trial in range(cfg.trials):
        first = _draw_pair(cfg, run, trial, "first")
        # conforming second factor: analytic upper symbol, coanalytic lower symbol
        second = _draw_pair(cfg, run, trial, "second", "analytic", "coanalytic")
        result = compose(trial, first, second, "paired")
        result.fail_if(vanish_failed(result), "conforming composition failed to vanish")

        # transposed version: the criterion sits on the first factor
        transposed_first = _draw_pair(cfg, run, trial, "transposed_first", "coanalytic", "analytic")
        transposed_second = _draw_pair(cfg, run, trial, "transposed_second")
        result = compose(trial, transposed_first, transposed_second, "transposed")
        result.fail_if(vanish_failed(result), "conforming transposed composition failed to vanish")

        # nonconforming second factor with a well-separated first pair
        separation = 0.3 * cfg.coefficient_scale
        first_nc = _draw_pair(
            cfg, run, trial, "first_nc", accept=lambda p: p.nondegenerate and (p.a - p.b).l2_norm() >= separation
        )
        second_nc = _forced_nonconforming(cfg, run, trial, "second_nc")
        result = compose(trial, first_nc, second_nc, "paired", observe=("discrepancy",))
        result.fail_if(witness_failed(result), "nonconforming composition residual below the witness floor")

        # transposed converse witness: a first factor violating the criterion
        transposed_first_nc = _forced_nonconforming(cfg, run, trial, "transposed_first_nc").swapped()
        if (transposed_first_nc.a - transposed_first_nc.b).l2_norm() < separation:
            transposed_first_nc = SymbolPair(
                transposed_first_nc.a + LaurentPoly({0: 0.5 * cfg.coefficient_scale}), transposed_first_nc.b
            )
        result = compose(
            trial, transposed_first_nc, transposed_second, "transposed", observe=("discrepancy",)
        )
        result.fail_if(
            witness_failed(result), "nonconforming transposed composition residual below the witness floor"
        )


@_suite("commutant")
def suite_commutant(cfg: GeneratorConfig, run: _SuiteRun) -> None:
    """Only constants commute with every nondegenerate paired operator."""

    def commutator(trial, first, second, observe=()):
        return run.check(trial, "commutator", {"first": first, "second": second, "band": 8}, observe)

    base = SymbolPair(parse_symbol("1"), parse_symbol("z"))
    pinned = commutator(-1, base, SymbolPair(parse_symbol("z"), parse_symbol("z")))
    pinned.fail_if(pinned["commutator_norm"] < _WITNESS_FLOOR, "pinned shift commutator vanished")
    const = SymbolPair(LaurentPoly({0: 2.0}), LaurentPoly({0: 2.0}))
    pinned = commutator(-1, base, const)
    pinned.fail_if(pinned["commutator_norm"] > _EXACT_TOL, "pinned constant failed to commute")

    for trial in range(cfg.trials):
        pair = _draw_pair(cfg, run, trial, "pair")
        rng = run.stream(trial, "multipliers")

        value = complex(*rng.standard_normal(2))
        constant = SymbolPair(LaurentPoly({0: value}), LaurentPoly({0: value}))
        result = commutator(trial, pair, constant, ("commutator_norm", "identity_discrepancy"))
        result.fail_if(result["commutator_norm"] > _EXACT_TOL, "constant multiplier failed to commute")

        eta = gen_symbol(cfg, rng)
        offender = int(rng.integers(1, 3)) * (1 if rng.uniform() < 0.5 else -1)
        eta = eta + LaurentPoly({offender: (0.5 + 0.5j) * cfg.coefficient_scale})
        result = commutator(trial, pair, SymbolPair(eta, eta), ("identity_discrepancy",))
        result.fail_if(
            result["commutator_norm"] < _WITNESS_FLOOR,
            "nonconstant multiplier commuted with a nondegenerate pair",
        )
        result.fail_if(
            result["identity_discrepancy"] > _EXACT_TOL,
            "commutator closed form disagreed with the direct evaluation",
        )


@_suite("pointwise_commutation")
def suite_pointwise_commutation(cfg: GeneratorConfig, run: _SuiteRun) -> None:
    """Four-way equivalence for multiplication commuting on a single function."""

    def classify(trial: int, pair: SymbolPair, eta: LaurentPoly, f: LaurentPoly):
        """The check's output and the set of truth values of the four statements."""
        result = run.check(trial, "pointwise_commutation", {"pair": pair, "eta": eta, "f": f})
        flags = {
            result["commute"] <= _EXACT_TOL,
            max(result["hankel_minus"], result["hankel_plus"]) <= _EXACT_TOL,
            result["projection_plus"] <= _EXACT_TOL,
            result["projection_minus"] <= _EXACT_TOL,
        }
        return result, flags

    pinned_pair = SymbolPair(parse_symbol("1"), parse_symbol("z"))
    for eta_text, f_text, expected in (("z", "z^-2", True), ("z", "z^-1", False)):
        result, flags = classify(-1, pinned_pair, parse_symbol(eta_text), parse_symbol(f_text))
        result.fail_if(
            flags != {expected},
            f"pinned case ({eta_text}, {f_text}) did not uniformly evaluate to {expected}",
        )

    for trial in range(cfg.trials):
        pair = _draw_pair(cfg, run, trial, "pair")

        rng = run.stream(trial, "generic")
        eta, f = gen_symbol(cfg, rng), gen_symbol(cfg, rng)
        result, flags = classify(trial, pair, eta, f)
        result.fail_if(len(flags) != 1, "four-way equivalence split")

        # constructed member/non-member for a monomial multiplier
        rng = run.stream(trial, "monomial")
        m = int(rng.integers(1, 4))
        eta_mono = LaurentPoly.monomial(m)
        depth = int(rng.integers(m + 1, m + 4))
        member = LaurentPoly(
            {int(rng.integers(0, 4)): complex(*rng.standard_normal(2)), -depth: complex(*rng.standard_normal(2))}
        )
        result, flags = classify(trial, pair, eta_mono, member)
        result.fail_if(flags != {True}, "constructed member rejected")
        nonmember = member + LaurentPoly({-int(rng.integers(1, m + 1)): 1.0})
        result, flags = classify(trial, pair, eta_mono, nonmember)
        result.fail_if(flags != {False}, "constructed non-member accepted")

        # model-space style member: eta = zbar^s * h with deg h <= s
        rng = run.stream(trial, "model")
        s = int(rng.integers(1, 4))
        h = LaurentPoly.from_dense(_gauss_coeffs(rng, s + 1, cfg.coefficient_scale), 0)
        if h.is_zero:
            h = LaurentPoly.one()
        eta_model = h.shift(-s)
        f_model = gen_symbol(cfg, rng, "coanalytic_vanishing") + gen_symbol(cfg, rng, "analytic").shift(s)
        result, flags = classify(trial, pair, eta_model, f_model)
        result.fail_if(flags != {True}, "model-space style member rejected")


@_suite("model_space")
def suite_model_space(cfg: GeneratorConfig, run: _SuiteRun) -> None:
    """Projection commutation for co-analytic multipliers built from inner factors."""
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
        result = run.check(-1, "model_space_identity", {"eta_coeffs": eta, "f_coeffs": f})
        result.fail_if(max(result.result.values()) > _EXACT_TOL, "monomial model-space identity failed")

    for trial in range(cfg.trials):
        rng = run.stream(trial, "multiplier")
        # theta = alpha * theta0; a multiplier alpha * conj(theta) * h is then
        # co-analytic exactly when h lies in the model space of theta0, so h
        # is drawn as a combination of reproducing kernels at theta0's zeros.
        zeros0 = _disk_points(rng, int(rng.integers(1, 3)))
        theta0 = blaschke(zeros0)
        alpha = blaschke(_disk_points(rng, int(rng.integers(1, 3))))
        theta = alpha * theta0
        h = RationalSymbol(LaurentPoly.zero())
        for zero in zeros0:
            weight = complex(*rng.standard_normal(2))
            h = h + RationalSymbol(
                LaurentPoly({0: weight}), LaurentPoly({0: 1.0, 1: -zero.conjugate()})
            )
        eta = alpha * theta.conj_reflect() * h
        rng = run.stream(trial, "f")
        f_plus = gen_symbol(cfg, rng, "analytic")
        f_minus = gen_symbol(cfg, rng, "coanalytic_vanishing")
        f_rational = theta * f_plus + f_minus

        try:
            eta_c = rational_to_coeffs(eta, conversion_band).coeffs
            f_c = rational_to_coeffs(f_rational, conversion_band).coeffs
        except ConditioningError as err:
            run.ambiguity(trial, err, "model-space conversion")
            continue
        inputs = {"eta_coeffs": eta_c, "f_coeffs": f_c}
        result = run.check(trial, "model_space_identity", inputs, ("residual_plus", "residual_minus"))
        result.fail_if(
            max(result.result.values()) > _MODEL_SPACE_TOL, "model-space projection identity exceeded tolerance"
        )


@_suite("kernels")
def suite_kernels(cfg: GeneratorConfig, run: _SuiteRun) -> None:
    """Kernel triviality criteria, equality criterion and single-function pairs."""
    pinned = (
        ("z^-1", "z", 2),
        ("z^-1", "1", 1),
        ("1", "1 - z", 0),
    )
    for a_text, b_text, expected in pinned:
        pair = SymbolPair(parse_symbol(a_text), parse_symbol(b_text))
        inputs = {"pair": pair, "band": 32}
        try:
            result = run.check(-1, "kernel_dimension", inputs)
        except AmbiguousKernelError as err:
            run.ambiguity(-1, err, f"pinned kernel ({a_text}, {b_text})")
            continue
        result.fail_if(result["dim"] != expected, f"pinned kernel dimension for ({a_text}, {b_text}) wrong")

    def invariance(trial: int, pair: SymbolPair, f: LaurentPoly, keeps: bool) -> None:
        """zbar*f stays in the kernel of ``pair`` exactly when f+(0) = 0, which ``keeps`` states."""
        result = run.check(trial, "multiplier_invariance", {"pair": pair, "eta": LaurentPoly.monomial(-1), "f": f})
        result.fail_if(result["keeps_kernel"] != result["hankel_parts_vanish"], "multiplier invariance equivalence split")
        result.fail_if(result["keeps_kernel"] != keeps, f"zbar*f {'left' if keeps else 'stayed in'} the kernel")
        run.bump("invariance_kept" if result["keeps_kernel"] else "invariance_left")

    for trial in range(cfg.trials):
        # analytic/coanalytic pairs have trivial kernels
        pair_i = _draw_pair(cfg, run, trial, "trivial", "analytic", "coanalytic")
        inputs = {"pair": pair_i, "band": max(4, pair_i.band_radius() + 2)}
        try:
            k_i = run.check(trial, "kernel_dimension", inputs)
        except AmbiguousKernelError as err:
            run.ambiguity(trial, err, "analytic/coanalytic kernel")
        else:
            k_i.fail_if(k_i["dim"] != 0, "analytic/coanalytic pair with a nontrivial kernel")

        # nontrivial inner factor produces an explicit kernel element
        rng = run.stream(trial, "inner_factor")
        a_ii = gen_symbol(cfg, rng, "coanalytic")
        b_ii = _rooted_analytic(rng, interior=int(rng.integers(1, 3)), exterior=int(rng.integers(0, 2)))
        try:
            plus_ii, minus_ii = kernel_element_from_inner_factor(a_ii, b_ii)
        except ArithmeticError as err:
            run.ambiguity(trial, err, "inner-factor kernel element")
        else:
            inputs = {"pair": SymbolPair(a_ii, b_ii), "plus": plus_ii, "minus": minus_ii}
            res_ii = run.check(trial, "kernel_annihilation", inputs, ("residual",))
            vanished = plus_ii.num.is_zero and minus_ii.num.is_zero
            res_ii.fail_if(res_ii["residual"] > _EXACT_TOL or vanished, "inner-factor kernel element failed")

        # strictly co-analytic against analytic: direct element and containment
        base = _draw_pair(cfg, run, trial, "base", "coanalytic_vanishing", "analytic")
        f_iii = kernel_element_direct(base.a, base.b)
        inputs = {"pair": base, "plus": riesz_plus(f_iii), "minus": riesz_minus(f_iii)}
        res_iii = run.check(trial, "kernel_annihilation", inputs, ("residual",))
        res_iii.fail_if(res_iii["residual"] > _EXACT_TOL, "direct kernel element failed")
        # nearly invariant: f+(0) = b(0) != 0 sends zbar*f out; z*b - a, of (a, z*b), has f+(0) = 0
        invariance(trial, base, f_iii, keeps=False)
        shifted = SymbolPair(base.a, base.b.shift(1))
        invariance(trial, shifted, kernel_element_direct(shifted.a, shifted.b), keeps=True)
        # multiplying both symbols by a common factor preserves the kernel
        eta = gen_symbol(cfg, run.stream(trial, "eta"))
        scaled = SymbolPair(eta * base.a, eta * base.b)
        same = run.check(trial, "same_kernel", {"first": base, "second": scaled})
        same.fail_if(not same["same_kernel"], "common-factor pair failed the kernel equality criterion")

        # independent pair: cross products differ, so kernels must differ
        try:
            other = _draw_pair(
                cfg, run, trial, "other", "coanalytic_vanishing", "analytic",
                accept=lambda cand: cand.nondegenerate and not same_kernel_test(base, cand),
            )
        except RuntimeError:
            other = None

        inputs = {"base": base, "scaled": scaled, "other": other}
        try:
            group = run.check(trial, "l2_kernel_group", inputs)
            if not group["closed_form"]:
                raise AmbiguousKernelError("a pair of the group has no closed-form L2 kernel")
        except AmbiguousKernelError as err:
            run.ambiguity(trial, err, "kernel group")
            continue
        group.fail_if(group["dim"] == 0, "expected nontrivial kernel")
        if group["dim"] == 0:
            continue
        run.observe(group["scaled_on_base"])
        group.fail_if(
            group["dim_scaled"] != group["dim"] or not group["scaled_on_base"] <= _MEMBERSHIP_TOL,
            "common-factor pair has a different L2 kernel",
        )
        if other is not None:
            group.fail_if(group["same_kernel_other"], "differing cross products but equality criterion held")
            # distinct kernels meet only in 0: neither pair annihilates the other's generator
            group.fail_if(
                not group["other_on_base"] > _MEMBERSHIP_TOL or not group["base_on_other"] > _MEMBERSHIP_TOL,
                "distinct pairs share a kernel element",
            )

        # a kernel vector determines its kernel: rebuild the pair from a
        # random multiple of the known low-degree element.  (Higher-degree
        # combinations of kernel basis vectors would push the exact
        # cross-product comparison outside its rounding envelope.)
        phi = f_iii * complex(*run.stream(trial, "phi").standard_normal(2))
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
            rebuilt = run.check(trial, "pair_from_function", {"phi": phi, "pair": base}, ("residual",))
        except (ConditioningError, ArithmeticError) as err:
            run.ambiguity(trial, err, "pair_from_function")
            continue
        rebuilt.fail_if(not rebuilt["same_kernel"], "pair rebuilt from a kernel vector failed the round trip")


@_suite("coburn")
def suite_coburn(cfg: GeneratorConfig, run: _SuiteRun) -> None:
    """Kernel dichotomy, conjugate dimension bookkeeping, adjoint round trips."""

    band = 16

    def sample(basis_of, pair: SymbolPair) -> tuple:
        """Band-16 kernel elements; a refused basis is skipped, its dimension already decided."""
        try:
            return basis_of(pair, band).basis
        except AmbiguousKernelError:
            run.bump("element_checks_skipped")
            return ()

    def process(pair: SymbolPair, trial: int):
        try:
            result = run.check(trial, "coburn", {"pair": pair, "band": band})
        except AmbiguousKernelError as err:
            run.ambiguity(trial, err, "coburn")
            return
        result.fail_if(not result["dichotomy"], "dichotomy violated")
        result.fail_if(not result["conjugate_dims_match"], "swapped/conjugated dimensions differ")
        result.fail_if(result["adjoint_dim_matches"] is False, "adjoint dimension mismatch")
        if result["dim_kernel"]:
            run.bump("nontrivial_kernels")
            basis = sample(kernel_basis, pair)
            if basis:
                run.bump("gram_checks")
                gram = run.check(trial, "conjugate_orthonormality", {"pair": pair, "basis": list(basis)})
                gram.fail_if(gram["gram_deviation"] > _EXACT_TOL, "conjugation did not keep the Gram matrix")
        adjoint = sample(adjoint_kernel_basis, pair) if result["dim_adjoint"] and result["invertible_cases"] else ()
        if adjoint:
            run.bump("adjoint_round_trips")
        for psi in adjoint:
            try:
                trip = run.check(trial, "adjoint_round_trip", {"pair": pair, "psi": psi}, ("discrepancy", "round_trip"))
            except ConditioningError as err:
                run.ambiguity(trial, err, "adjoint inverse conversion")
                continue
            trip.fail_if(trip["discrepancy"] > _TRUNCATION_TOL, "inverse case formulas disagree")
            trip.fail_if(trip["round_trip"] > _TRUNCATION_TOL, "adjoint transfer round trip failed")

    for a_text, b_text in (("1", "z"), ("z^-1", "z"), ("1", "1 - z"), ("z", "1"), ("1", "z^-1")):
        process(SymbolPair(parse_symbol(a_text), parse_symbol(b_text)), -1)

    for trial in range(cfg.trials):
        pair = None
        if trial % 5 == 4:
            # constructed pair with nontrivial swapped/adjoint kernels
            rng = run.stream(trial, "constructed")
            shift = int(rng.integers(1, 3))
            p = _rooted_analytic(rng, interior=int(rng.integers(0, 2)), exterior=int(rng.integers(0, 2)))
            q = _rooted_analytic(rng, interior=int(rng.integers(0, 2)), exterior=int(rng.integers(0, 2)))
            pair = SymbolPair(p.shift(shift), q.conj_reflect())
        if pair is None or not pair.nondegenerate:
            pair = _draw_pair(cfg, run, trial, "pair")
        process(pair, trial)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregateReport:
    seed: int
    reports: dict

    @property
    def exit_code(self) -> int:
        codes = {r.exit_code for r in self.reports.values()}
        return 1 if 1 in codes else (2 if 2 in codes else 0)

    @property
    def passed(self) -> bool:
        return self.exit_code == 0

    @property
    def verdict(self) -> str:
        return _verdict(self.exit_code, all(r.trials_run == 0 for r in self.reports.values()))

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
    """Run every suite on ``cfg``; merge in name order.

    Each stream's key names its suite, so every report equals the one the
    suite gives when run alone.
    """
    return AggregateReport(seed=cfg.seed, reports={name: SUITES[name](cfg) for name in sorted(SUITES)})
