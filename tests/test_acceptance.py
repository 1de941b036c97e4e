"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines.  Every tolerance below is pinned; runtime caps are asserted where the
criterion carries one.
"""

from __future__ import annotations

import json
import math
import time
from contextlib import contextmanager

import numpy as np

from pairedops.kernels import (
    AmbiguousKernelError,
    adjoint_inverse_report,
    adjoint_kernel_basis,
    adjoint_kernel_map,
    coburn_check,
    kernel_basis,
    pair_from_function,
    same_kernel_test,
    toeplitz_kernel_bridge,
)
from pairedops.operators import (
    SymbolPair,
    apply_paired,
    composition_residual,
    finite_section,
    op_norm,
)
from pairedops.properties import GeneratorConfig, run_all
from pairedops.symbols import (
    LaurentPoly,
    inner_outer_factor,
    parse_symbol,
    poly_from_roots,
    poly_roots,
    unit_grid,
)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number:02d} [{description}]: FAIL")
        raise
    print(f"ACCEPTANCE {number:02d} [{description}]: PASS")


def lp(text: str) -> LaurentPoly:
    return parse_symbol(text)


def _random_poly(rng, kmin: int, kmax: int) -> LaurentPoly:
    values = rng.standard_normal(kmax - kmin + 1) + 1j * rng.standard_normal(kmax - kmin + 1)
    return LaurentPoly.from_dense(values / math.sqrt(2.0), kmin)


def _nondegenerate_pair(rng, radius: int) -> SymbolPair:
    while True:
        pair = SymbolPair(_random_poly(rng, -radius, radius), _random_poly(rng, -radius, radius))
        if pair.nondegenerate:
            return pair


def _roots_clear(p: LaurentPoly, distance: float) -> bool:
    lifted = p.shift(-p.kmin)
    if lifted.kmax == 0:
        return True
    return all(abs(abs(r) - 1.0) > distance for r in poly_roots(lifted).roots)


def test_criterion_01_extremal_norms():
    with criterion(1, "extremal finite-section norms"):
        started = time.perf_counter()
        assert abs(op_norm(SymbolPair(lp("1"), lp("z")), 8) - math.sqrt(2.0)) <= 1e-9
        for band in (1, 4, 8, 16):
            assert abs(op_norm(SymbolPair(lp("1"), lp("1")), band) - 1.0) <= 1e-12
        assert time.perf_counter() - started < 1.0


def test_criterion_02_pinned_application():
    with criterion(2, "pinned paired application equals the constant 2"):
        image = apply_paired(SymbolPair(lp("1"), lp("z")), lp("1 + z^-1"))
        assert (image - LaurentPoly({0: 2.0})).max_abs_coeff() <= 1e-14


def test_criterion_03_kernel_dimensions():
    with criterion(3, "pinned kernel dimensions with exact membership"):
        started = time.perf_counter()
        for band in (2, 8):
            basis = kernel_basis(SymbolPair(lp("z^-1"), lp("z")), band)
            assert basis.dim == 2 and basis.certified
            for v in basis.basis:
                assert apply_paired(basis.pair, v).l2_norm() <= 1e-10
        basis = kernel_basis(SymbolPair(lp("z^-1"), lp("1")), 8)
        assert basis.dim == 1 and basis.certified
        for v in basis.basis:
            assert apply_paired(basis.pair, v).l2_norm() <= 1e-10
        for band in (32, 64):
            # b vanishes at 1: no index, so the band-limited dimension is not certified
            basis = kernel_basis(SymbolPair(lp("1"), lp("1 - z")), band)
            assert basis.dim == 0 and basis.expected_dim is None and not basis.certified
        assert time.perf_counter() - started < 5.0


def test_criterion_04_composition_identity_suite():
    with criterion(4, "composition identity: 100 conforming + 100 nonconforming"):
        started = time.perf_counter()
        rng = np.random.default_rng(20240801)
        band = 8
        for _ in range(100):
            first = _nondegenerate_pair(rng, 3)
            while True:
                second = SymbolPair(_random_poly(rng, 0, 3), _random_poly(rng, -3, 0))
                if second.nondegenerate:
                    break
            report = composition_residual(first, second, band)
            assert report.residual <= 1e-12
            assert report.discrepancy <= 1e-12
        floor = math.inf
        for _ in range(100):
            while True:
                first = _nondegenerate_pair(rng, 3)
                if (first.a - first.b).l2_norm() >= 0.3:
                    break
            a2 = _random_poly(rng, -3, 3)
            b2 = _random_poly(rng, -3, 3)
            if rng.uniform() < 0.5:
                a2 = a2 + LaurentPoly({-int(rng.integers(1, 4)): 0.5 + 0.25j})
            else:
                b2 = b2 + LaurentPoly({int(rng.integers(1, 4)): 0.5 - 0.25j})
            second = SymbolPair(a2, b2)
            if not second.nondegenerate:
                continue
            report = composition_residual(first, second, band)
            floor = min(floor, report.residual)
            assert report.residual >= 1e-8
            assert report.discrepancy <= 1e-12
        assert time.perf_counter() - started < 30.0
        print(f"    nonconforming residual floor: {floor:.3e}")


def test_criterion_05_06_coburn_and_adjoint_round_trips():
    with criterion(5, "kernel dichotomy over 200 random pairs plus pinned"):
        started = time.perf_counter()
        rng = np.random.default_rng(20240805)
        pinned = [
            SymbolPair(lp("1"), lp("z")),
            SymbolPair(lp("z^-1"), lp("z")),
            SymbolPair(lp("1"), lp("1 - z")),
        ]
        pairs = pinned + [_nondegenerate_pair(rng, 4) for _ in range(200)]
        reports = []
        for pair in pairs:
            report = coburn_check(pair, 16)
            assert min(report.dim_kernel, report.dim_swapped) == 0
            assert report.conjugate_dims_match
            reports.append(report)
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        print(f"    203 dichotomy checks in {elapsed:.1f}s")

    with criterion(6, "adjoint transfer round trips where applicable"):
        rng = np.random.default_rng(20240806)

        def off_circle_root(lo: float, hi: float) -> complex:
            return complex(rng.uniform(lo, hi) * np.exp(2j * np.pi * rng.uniform()))

        # constructed pairs with nontrivial adjoint kernels and invertible cases
        constructed = []
        for _ in range(20):
            roots = [off_circle_root(0.2, 0.7) for _ in range(int(rng.integers(0, 2)))]
            roots += [off_circle_root(1.4, 2.4) for _ in range(int(rng.integers(0, 2)))]
            a = poly_from_roots(roots, leading=1.0, shift=int(rng.integers(1, 3)))
            q = poly_from_roots(
                [off_circle_root(1.4, 2.4) for _ in range(int(rng.integers(1, 3)))], leading=1.0
            )
            pair = SymbolPair(a, q.conj_reflect())
            if pair.nondegenerate:
                constructed.append(pair)
        round_trips = skipped = 0
        for pair in constructed:
            report = coburn_check(pair, 16)
            if report.invertible_cases and report.adjoint_dim_matches is not None:
                assert report.adjoint_dim_matches
            if report.dim_adjoint == 0 or not report.invertible_cases:
                continue
            try:
                adjoint = adjoint_kernel_basis(pair, report.band)
            except AmbiguousKernelError:
                # a gray-zone sample; the index has already decided the dimension
                skipped += 1
                continue
            for psi in adjoint.basis:
                phi = adjoint_kernel_map(psi, pair)
                inverses = adjoint_inverse_report(phi, pair)
                assert inverses.max_discrepancy <= 1e-9
                for case, back in inverses.results.items():
                    assert (back - psi).l2_norm() <= 1e-9 * max(1.0, psi.l2_norm())
                    round_trips += 1
        assert round_trips > 0 and skipped < len(constructed)
        print(f"    {round_trips} adjoint round trips exercised, {skipped} gray-zone samples skipped")


def test_criterion_07_pair_from_function():
    with criterion(7, "pairs from single functions: annihilation and uniqueness"):
        rng = np.random.default_rng(20240807)
        done = 0
        while done < 100:
            plus = _random_poly(rng, 0, int(rng.integers(0, 6)))
            minus = _random_poly(rng, -int(rng.integers(1, 6)), -1)
            phi = plus + minus
            if plus.is_zero or minus.is_zero:
                continue
            if not (_roots_clear(plus, 1e-2) and _roots_clear(minus.conj_reflect(), 1e-2)):
                continue
            kp = pair_from_function(phi)
            assert kp.residual <= 1e-9
            done += 1
        done = 0
        while done < 50:
            while True:
                source = SymbolPair(_random_poly(rng, -3, -1), _random_poly(rng, 0, 3))
                if source.nondegenerate:
                    break
            phi = (source.b - source.a) * complex(*rng.standard_normal(2))
            if phi.is_zero:
                continue
            if not (
                _roots_clear(source.b, 1e-2)
                and _roots_clear(source.a.conj_reflect(), 1e-2)
            ):
                continue
            kp = pair_from_function(phi)
            assert kp.residual <= 1e-9
            assert same_kernel_test(kp, source)
            done += 1


def test_criterion_08_adjoint_compression():
    with criterion(8, "adjoint of the section equals the conjugated transposed section"):
        rng = np.random.default_rng(20240808)
        for _ in range(50):
            pair = SymbolPair(_random_poly(rng, -4, 4), _random_poly(rng, -4, 4))
            lhs = finite_section(pair, "paired", 16).matrix.conj().T
            rhs = finite_section(pair.conjugated(), "transposed", 16).matrix
            assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_criterion_09_inner_outer():
    with criterion(9, "inner-outer factorization over 100 random + 10 circle-root inputs"):
        rng = np.random.default_rng(20240809)
        grid = unit_grid(1024)

        def check(p: LaurentPoly):
            io = inner_outer_factor(p)
            inner_vals = io.inner(grid)
            assert np.max(np.abs(np.abs(inner_vals) - 1.0)) <= 1e-8
            scale = max(1.0, float(np.max(np.abs(p(grid)))))
            assert np.max(np.abs(inner_vals * io.outer(grid) - p(grid))) <= 1e-8 * scale
            at_zero = io.outer.value_at_zero()
            assert at_zero.real > 0 and abs(at_zero.imag) <= 1e-10 * max(1.0, abs(at_zero))

        done = 0
        while done < 90:
            degree = int(rng.integers(1, 7))
            p = _random_poly(rng, 0, degree)
            if p.is_zero or p.kmax == p.kmin:
                continue
            if not _roots_clear(p, 1e-6):
                continue
            check(p)
            done += 1
        for j in range(10):
            circle = [np.exp(2j * np.pi * (j + 1) / 11.0)]
            inside = [0.3 * np.exp(2j * np.pi * j / 7.0)] if j % 2 else []
            outside = [1.7 * np.exp(2j * np.pi * j / 5.0)] if j % 3 else []
            check(poly_from_roots(circle + inside + outside, leading=1.0 + 0.5j))


def test_criterion_10_toeplitz_bridge():
    with criterion(10, "Toeplitz kernels match projected paired kernels"):
        rng = np.random.default_rng(20240810)
        done = 0
        while done < 50:
            k = int(rng.integers(0, 4))
            p = _random_poly(rng, 0, int(rng.integers(0, 4)))
            g = p.shift(-k)
            if g.is_zero or (g - LaurentPoly.one()).is_zero:
                continue
            if not _roots_clear(p, 1e-3):
                continue
            band = 12
            while True:
                try:
                    report = toeplitz_kernel_bridge(g, band)
                    break
                except AmbiguousKernelError:
                    band *= 2
                    assert band <= 192, "bridge escalation exhausted"
            assert report.dim_toeplitz == report.dim_projected
            assert report.angle <= 1e-8
            done += 1


def test_criterion_11_determinism():
    with criterion(11, "byte-identical aggregate reports for a fixed seed"):
        cfg = GeneratorConfig(seed=0, trials=25)
        first = run_all(cfg)
        second = run_all(cfg)
        assert first.passed and second.passed
        blob1 = json.dumps(first.to_json_dict(include_runtime=False), sort_keys=True).encode()
        blob2 = json.dumps(second.to_json_dict(include_runtime=False), sort_keys=True).encode()
        assert blob1 == blob2
