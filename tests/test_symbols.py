"""Symbol-layer tests: parser, Laurent algebra, factorization, model spaces."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairedops import symbols
from pairedops.operators import riesz_minus, riesz_plus
from pairedops.symbols import (
    ConditioningError,
    FactorizationError,
    LaurentPoly,
    PolyRoots,
    RationalSymbol,
    SymbolParseError,
    blaschke,
    in_conj_hardy,
    in_conj_hardy_vanishing,
    in_hardy,
    inner_outer_factor,
    is_nondegenerate,
    parse_symbol,
    poly_from_roots,
    poly_roots,
    rational_to_coeffs,
    rational_to_coeffs_auto,
    unit_grid,
    _cabs,
    _fft_size,
    _golden_max,
)


def lp(text: str) -> LaurentPoly:
    return parse_symbol(text)


coeff_values = st.complex_numbers(
    min_magnitude=0.0, max_magnitude=4.0, allow_nan=False, allow_infinity=False
)


@st.composite
def laurent_polys(draw, kmin=-5, kmax=5):
    exponents = draw(st.lists(st.integers(kmin, kmax), max_size=6, unique=True))
    return LaurentPoly({k: draw(coeff_values) for k in exponents})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def test_parse_literal_sum():
    assert lp("1+z^-1") == LaurentPoly({-1: 1.0, 0: 1.0})


def test_parse_product_expands():
    assert lp("(1+z)*(1-z)") == LaurentPoly({0: 1.0, 2: -1.0})


def test_parse_zero():
    assert lp("0").is_zero
    assert lp("0").coeffs == {}


def test_parse_imaginary_and_floats():
    assert lp("2.5i") == LaurentPoly({0: 2.5j})
    assert lp("i*z^2") == LaurentPoly({2: 1j})
    assert lp("1e2") == LaurentPoly({0: 100.0})
    assert lp("3j*z") == LaurentPoly({1: 3j})


def test_parse_unary_and_precedence():
    assert lp("-z") == LaurentPoly({1: -1.0})
    assert lp("1 - 2*z^-2") == LaurentPoly({0: 1.0, -2: -2.0})
    assert lp("2*z + z*z") == LaurentPoly({1: 2.0, 2: 1.0})


def test_parse_division_rejected():
    with pytest.raises(SymbolParseError) as err:
        lp("1/z")
    assert err.value.position == 1


def test_parse_errors_carry_position():
    with pytest.raises(SymbolParseError) as err:
        lp("1 + $")
    assert err.value.position == 4
    with pytest.raises(SymbolParseError):
        lp("z^1.5")
    with pytest.raises(SymbolParseError):
        lp("(1+z")
    with pytest.raises(SymbolParseError):
        lp("1 2")


def test_expression_round_trip():
    for text in ["1+z^-1", "(1+z)*(1-z)", "0", "2.5i - z^3"]:
        sym = lp(text)
        assert parse_symbol(sym.to_expression()) == sym


# ---------------------------------------------------------------------------
# Laurent algebra
# ---------------------------------------------------------------------------


def test_mul_identity_and_cancellation():
    one = LaurentPoly.one()
    a = lp("1 - 2*z + z^-3")
    assert one * a == a
    assert lp("1+z") * lp("1-z") == LaurentPoly({0: 1.0, 2: -1.0})
    assert lp("z^-1") * lp("z") == one
    assert lp("z") * LaurentPoly.monomial(3) == LaurentPoly.monomial(4)
    assert (LaurentPoly.zero() * a).is_zero


def test_zero_band_convention():
    zero = LaurentPoly.zero()
    assert zero.band == (0, 0)
    assert in_hardy(zero) and in_conj_hardy(zero) and in_conj_hardy_vanishing(zero)


@settings(max_examples=60, deadline=None)
@given(laurent_polys(), laurent_polys())
def test_product_matches_pointwise_values(a, b):
    grid = unit_grid(64)
    lhs = (a * b)(grid)
    rhs = a(grid) * b(grid)
    scale = max(1.0, np.max(np.abs(rhs)))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(laurent_polys())
def test_conj_reflect_involution_exact(a):
    assert a.conj_reflect().conj_reflect() == a


@settings(max_examples=60, deadline=None)
@given(laurent_polys(), laurent_polys())
def test_conj_reflect_multiplicative(a, b):
    lhs = (a * b).conj_reflect()
    rhs = a.conj_reflect() * b.conj_reflect()
    diff = lhs - rhs
    scale = max(1.0, lhs.max_abs_coeff())
    assert diff.max_abs_coeff() <= 1e-13 * scale


def test_conj_reflect_pinned():
    assert lp("z").conj_reflect() == lp("z^-1")
    assert lp("z + z^-1").conj_reflect() == lp("z + z^-1")
    assert LaurentPoly({0: 1j}).conj_reflect() == LaurentPoly({0: -1j})


def _sides(text: str) -> tuple[bool, bool, bool]:
    a = lp(text)
    return in_hardy(a), in_conj_hardy(a), in_conj_hardy_vanishing(a)


def test_classify_cases():
    assert _sides("z^2 + 3") == (True, False, False)
    assert _sides("z^-1") == (False, True, True)
    assert _sides("z + z^-1") == (False, False, False)
    assert _sides("4") == (True, True, False)
    assert _sides("1 + z^-2") == (False, True, False)


@settings(max_examples=60, deadline=None)
@given(laurent_polys())
def test_classify_reflect_swaps_sides(a):
    refl = a.conj_reflect()
    assert in_hardy(a) == in_conj_hardy(refl)
    assert in_conj_hardy(a) == in_hardy(refl)
    # strictly coanalytic reflects to analytic and vanishing at 0
    assert in_conj_hardy_vanishing(a) == (in_hardy(refl) and refl.coeff(0) == 0)


def test_is_nondegenerate_reports():
    assert is_nondegenerate(lp("1"), lp("z")).ok
    rep = is_nondegenerate(lp("1"), lp("1"))
    assert not rep.ok and rep.failures == ("a - b is zero",)
    rep = is_nondegenerate(lp("0"), lp("1"))
    assert not rep.ok and "a is zero" in rep.failures


def test_sup_norm_pinned():
    assert lp("z").sup_norm() == pytest.approx(1.0, abs=1e-12)
    assert lp("1+z").sup_norm() == pytest.approx(2.0, abs=1e-12)
    assert lp("1 + 0.5*z").sup_norm() == pytest.approx(1.5, abs=1e-12)
    assert LaurentPoly.zero().sup_norm() == 0.0


def test_norms_scale_out_of_overflow_and_underflow():
    # squaring 1e308 overflows and squaring 1e-200 underflows, though both norms are representable
    assert lp("z^-1 + 1e308*z").l2_norm() == 1e308
    assert LaurentPoly({0: 1e-200}).l2_norm() == 1e-200
    assert lp("3 + 4i*z^2 - 0.5*z^-1").l2_norm() == math.sqrt(9 + 16 + 0.25)
    assert lp("1e308*z - 7e307").sup_norm() == pytest.approx(1.7e308, rel=1e-12)
    too_large = LaurentPoly({k: 1e308 for k in range(4)})
    for value in (too_large.l2_norm, too_large.sup_norm, lp("1e308*z + 1e308").sup_norm):
        with pytest.raises(OverflowError):
            value()


_TIED_PEAKS = LaurentPoly({0: 1j, 2: -1.1441845782070718e-4, 3: -1.0})


@settings(max_examples=30, deadline=None)
@given(laurent_polys())
@example(_TIED_PEAKS)
def test_sup_norm_dominates_grid(a):
    grid = unit_grid(97)
    bound = a.sup_norm()
    assert np.max(np.abs(a(grid))) <= bound + 1e-9 * max(1.0, bound)


def test_sup_norm_refines_every_peak_near_the_top():
    # two peaks within 1e-4 of each other: the grid argmax is the lower one
    fine = float(np.max(np.abs(_TIED_PEAKS(unit_grid(100_000)))))
    assert fine > 2.00009
    assert _TIED_PEAKS.sup_norm() >= fine - 1e-12


# |1 + c z| peaks at 1 + |c| = 1.5 where c z > 0: half a step between two
# points of sup_norm's 256-point grid
_OFF_GRID_PEAK = LaurentPoly({0: 1.0, 1: 0.5 * np.exp(-1j * np.pi / 256)})


def test_sup_norm_enclosure_holds_a_peak_between_grid_points():
    lower, upper = _OFF_GRID_PEAK._sup_norm_enclosure()
    grid = float(np.max(np.abs(_OFF_GRID_PEAK(unit_grid(256)))))
    assert grid < 1.5 - 2e-5
    assert lower == _OFF_GRID_PEAK.sup_norm() == pytest.approx(1.5, abs=1e-15)
    # B = (h^2 / 2) sum (k - kbar)^2 |c_k| = (2 pi / 256)^2 / 6 for kbar = 1/3
    assert upper == pytest.approx(grid + (2 * math.pi / 256) ** 2 / 6, rel=1e-14)
    assert 1.5 < upper
    # a table too large for unscaled Horner scales both ends back exactly
    big = LaurentPoly({k: 2.0**1022 * c for k, c in _OFF_GRID_PEAK.items()})
    assert big._sup_norm_enclosure() == (2.0**1022 * lower, 2.0**1022 * upper)


# ---------------------------------------------------------------------------
# roots and inner-outer factorization
# ---------------------------------------------------------------------------


def test_poly_roots_pinned():
    rr = poly_roots(lp("z^2 - 1"))
    assert rr.monomial_order == 0
    assert sorted(r.real for r in rr.roots) == pytest.approx([-1.0, 1.0], abs=1e-10)

    rr = poly_roots(lp("z^3"))
    assert rr.roots == ()
    assert rr.monomial_order == 3


def test_poly_roots_residual_oracle():
    p = lp("z^2 - z - 6")
    rr = poly_roots(p)
    for r in rr.roots:
        assert abs(r * r - r - 6) <= 1e-10 * max(1.0, abs(r)) ** 2 * 6


def test_poly_roots_of_subnormal_and_huge_coefficients():
    # (z + 1) * 1e-320: the coefficients are scaled by a power of two before the solve
    rr = poly_roots(lp("1e-320*z + 1e-320"))
    assert rr.roots == (-1 + 0j,) and rr.residuals == (0.0,)
    # that scaling is exact, so roots and residuals do not see it
    p = lp("(z - 0.5)*(z + 2i)*(z - 3)")
    for e in (-1060, -600, 600, 1000):
        assert poly_roots(p * math.ldexp(1.0, e)) == poly_roots(p)


def test_a_root_above_1e154_keeps_a_finite_residual_and_disk():
    # |r|^2 overflows for r about -1e307: the residual and the inclusion disk are formed without it
    p = lp("1e-307*z^2 + z + 1")
    rr = poly_roots(p)
    assert len(rr.roots) == 2 and all(math.isfinite(e) and e <= 1e-10 for e in rr.residuals)
    inside, near, outside = symbols._root_split(p)
    assert inside == () and near == (-1 + 0j,) and len(outside) == 1
    assert abs(outside[0] + 1e307) <= 1e-12 * 1e307
    # one huge disk, finite, leaves the root at -0.5 inside
    assert symbols._root_split(lp("1e-307*z^2 + z + 0.5"))[0] == (-0.5 + 0j,)


def test_exact_cofactors_divide_out_the_exact_gcd():
    # the parser expands (1 + z)(z - 0.25) exactly, and (1 + z)(z - 0.3) with rounding
    alpha, beta = symbols._exact_cofactors(lp("(1 + z)*(z - 0.25)"), lp("(1 + z)*(z + 2)"))
    assert (alpha, beta) == (lp("z - 0.25"), lp("z + 2"))
    p, q = lp("(1 + z)*(z - 0.3)"), lp("(1 + z)*(z + 2)")
    assert symbols._exact_cofactors(p, q) == (p, q)
    # a common Gaussian factor of degree 2, a constant and a monomial; the cofactors keep their scale
    common = lp("(z - 0.5i)*(z + 1)")
    alpha, beta = symbols._exact_cofactors(common * lp("2i*(z - 3)"), common * lp("z*z + 0.75"))
    assert (alpha, beta) == (lp("2i*(z - 3)"), lp("z*z + 0.75"))
    assert symbols._exact_cofactors(lp("3"), lp("z + 2")) == (lp("3"), lp("z + 2"))
    assert symbols._exact_cofactors(lp("2i*z + 2i"), lp("4*z*z + 4*z")) == (lp("2i"), lp("4*z"))


def test_poly_roots_rejects_non_analytic():
    with pytest.raises(ValueError):
        poly_roots(lp("z^-1"))
    with pytest.raises(ValueError):
        poly_roots(LaurentPoly.zero())


def _check_factorization(p: LaurentPoly):
    io = inner_outer_factor(p)
    grid = unit_grid(1024)
    assert np.max(np.abs(np.abs(io.inner(grid)) - 1.0)) <= 1e-8
    scale = max(1.0, np.max(np.abs(p(grid))))
    assert np.max(np.abs(io.inner(grid) * io.outer(grid) - p(grid))) <= 1e-8 * scale
    at_zero = io.outer.value_at_zero()
    assert abs(at_zero.imag) <= 1e-10 * max(1.0, abs(at_zero))
    assert at_zero.real > 0
    # outer factor keeps no roots strictly inside the disk
    outer_poly = io.outer.as_laurent()
    if outer_poly.kmax > outer_poly.kmin:
        for r in poly_roots(outer_poly).roots:
            assert abs(r) > 1.0 - 1e-6
    return io


def test_inner_outer_monomial():
    io = _check_factorization(lp("z"))
    assert io.monomial_order == 1
    assert io.outer.as_laurent() == LaurentPoly.one()


def test_inner_outer_interior_root():
    io = _check_factorization(lp("z - 0.5"))
    assert io.monomial_order == 0
    assert len(io.interior_roots) == 1


def test_inner_outer_exterior_root():
    io = _check_factorization(lp("z - 2"))
    assert io.unimodular_constant == pytest.approx(-1.0)
    assert io.inner_is_constant
    assert io.outer.as_laurent() == LaurentPoly({0: 2.0, 1: -1.0})


def test_inner_outer_circle_roots_go_outer():
    io = _check_factorization(lp("(z-1)*(z-0.5)"))
    assert len(io.circle_roots) == 1
    assert len(io.interior_roots) == 1


def test_inner_outer_random_sweep():
    rng = np.random.default_rng(7)
    for _ in range(25):
        degree = int(rng.integers(1, 7))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        p = LaurentPoly.from_dense(coeffs, 0)
        if p.is_zero:
            continue
        if p.kmax > p.kmin and any(
            abs(abs(r) - 1) < 1e-6 for r in poly_roots(p).roots
        ):
            continue
        _check_factorization(p)


def test_inner_outer_rejects_zero():
    with pytest.raises(ValueError):
        inner_outer_factor(LaurentPoly.zero())


# ---------------------------------------------------------------------------
# Blaschke products and rational symbols
# ---------------------------------------------------------------------------


def test_blaschke_zero_at_origin_is_shift():
    b = blaschke([0.0])
    assert b.num == LaurentPoly.monomial(1)
    assert b.den == LaurentPoly.one()


def test_blaschke_empty_is_constant():
    b = blaschke([])
    assert b.num == LaurentPoly.one() and b.den == LaurentPoly.one()


def test_blaschke_grid_modulus_oracle():
    b = blaschke([0.5])
    vals = np.abs(b(unit_grid(512)))
    assert np.max(np.abs(vals - 1.0)) <= 1e-10


def test_blaschke_rejects_boundary_zero():
    with pytest.raises(ValueError):
        blaschke([0.9999])


def test_rational_monic_normalization():
    r = RationalSymbol(lp("z"), lp("2 - z"))
    assert r.den.coeff(r.den.kmax) == 1.0
    grid = unit_grid(128)
    assert np.allclose(r(grid), grid / (2 - grid))


def test_rational_rejects_circle_denominator():
    with pytest.raises(ConditioningError):
        RationalSymbol(LaurentPoly.one(), lp("1 - z"))
    with pytest.raises(ValueError):
        RationalSymbol(LaurentPoly.one(), lp("z^-1 + 2"))


def test_rational_conj_reflect_matches_conjugate_values():
    r = blaschke([0.3 + 0.4j, -0.2])
    grid = unit_grid(256)
    assert np.max(np.abs(r.conj_reflect()(grid) - np.conj(r(grid)))) <= 1e-12


# ---------------------------------------------------------------------------
# rational truncation
# ---------------------------------------------------------------------------


def test_rational_to_coeffs_monomial_exact():
    vec, err = rational_to_coeffs(RationalSymbol(lp("z")), 8)
    assert err <= 1e-12
    assert set(vec.coeffs) == {1}
    assert vec.coeff(1) == pytest.approx(1.0, abs=1e-12)


def test_rational_to_coeffs_geometric_oracle():
    r = RationalSymbol(LaurentPoly.one(), lp("1 - 0.5*z"))
    vec, err = rational_to_coeffs(r, 64)
    assert err <= 1e-12
    for k in range(0, 40):
        assert vec.coeff(k) == pytest.approx(0.5**k, abs=1e-12)
    assert all(k >= 0 for k in vec.coeffs)


def test_rational_to_coeffs_constant():
    vec, err = rational_to_coeffs(RationalSymbol(lp("5")), 4)
    assert vec == LaurentPoly({0: 5.0})
    assert err <= 1e-12


def test_rational_to_coeffs_conditioning_guard():
    # denominator root at distance ~1e-7: construction fine, conversion rejected
    r = RationalSymbol(LaurentPoly.one(), lp("1 - z") + LaurentPoly({1: -1e-7}))
    with pytest.raises(ConditioningError):
        rational_to_coeffs(r, 16)


def test_rational_to_coeffs_auto_reaches_tolerance():
    r = RationalSymbol(LaurentPoly.one(), lp("1 - 0.9*z"))
    vec, err = rational_to_coeffs_auto(r)
    assert err <= 1e-12 * max(1.0, vec.max_abs_coeff())


# ---------------------------------------------------------------------------
# poles: composed through arithmetic, checked against a fresh root solve
# ---------------------------------------------------------------------------


def _assert_poles_are_den_roots(r: RationalSymbol) -> None:
    """``r.poles`` and np.roots of ``r.den`` agree as multisets.

    Each pole is a root of the denominator table up to a backward error of
    64 deg eps sum |d_k| |p|^k, and pairing every pole with its nearest
    unpaired np.roots value moves none by more than 1e-8 (|p| + 1): the
    test symbols keep their poles apart.
    """
    assert r.den.kmin == 0 and r.den.coeff(r.den.kmax) == 1.0
    degree = r.den.kmax
    assert len(r.poles) == degree
    dense = r.den.to_dense(0, degree)
    unpaired = list(np.roots(dense[::-1]))
    for pole in r.poles:
        powers = abs(pole) ** np.arange(degree + 1)
        assert abs(np.polyval(dense[::-1], pole)) <= 64 * degree * _EPS * float(np.sum(np.abs(dense) * powers))
        nearest = min(range(len(unpaired)), key=lambda i: abs(unpaired[i] - pole))
        assert abs(unpaired.pop(nearest) - pole) <= 1e-8 * (abs(pole) + 1)


def _pole_cases() -> dict[str, RationalSymbol]:
    theta = blaschke([0.3 + 0.4j, -0.5, 0.0])
    outside = RationalSymbol(lp("2 - z"), lp("(z - 1.5)*(z + 2i)"))
    kernel = RationalSymbol(LaurentPoly({0: 0.7 - 0.2j}), lp("1 + 0.6i*z"))
    return {
        "blaschke": theta,
        "coefficients": outside,
        "product": theta * outside,
        "sum": theta + outside,
        "difference": outside - kernel,
        "negation": -outside,
        "shift": outside.shift(-3),
        "conj_reflect": outside.conj_reflect(),
        "conj_reflect_blaschke": theta.conj_reflect(),
        "composed": blaschke([0.2j]) * theta.conj_reflect() * (kernel + outside),
        "inner": inner_outer_factor(lp("(z - 0.5)*(z + 0.25i)*(z - 3)*z")).inner,
        "reciprocal": RationalSymbol(lp("z^2"), lp("(z - 0.4) * (z + 1.7 - 0.3i)")),
        "from_json": RationalSymbol.from_json_dict(json.loads(json.dumps((theta * outside).to_json_dict()))),
    }


@pytest.mark.parametrize("name", list(_pole_cases()))
def test_poles_are_the_roots_of_the_denominator(name):
    _assert_poles_are_den_roots(_pole_cases()[name])


def test_poles_of_coefficient_input_and_of_polynomials():
    assert RationalSymbol(lp("1 + z^-2")).poles == ()
    assert RationalSymbol(lp("z"), lp("3")).poles == ()
    assert blaschke([0.0, 1e-12]).poles == ()
    r = RationalSymbol(LaurentPoly.one(), lp("z - 0.5"))
    assert r.poles == (0.5,)
    assert (r * 2).poles == (2 * r).poles == r.poles


def _count_root_solves(monkeypatch) -> list[int]:
    calls = [0]
    solve = symbols.poly_roots

    def counting(*args, **kwargs):
        calls[0] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(symbols, "poly_roots", counting)
    return calls


def test_rational_arithmetic_and_truncation_solve_no_roots(monkeypatch):
    theta = blaschke([0.3 + 0.4j, -0.5])
    calls = _count_root_solves(monkeypatch)
    outside = RationalSymbol(lp("2 - z"), lp("(z - 1.5)*(z + 2i)"))
    assert calls == [1]
    composed = [
        theta * outside,
        theta + outside,
        outside - theta,
        -outside,
        outside.shift(2),
        outside.conj_reflect(),
        3 * theta.conj_reflect() + lp("z^-1") - 1,
    ]
    for r in composed:
        rational_to_coeffs(r, 32)
        rational_to_coeffs_auto(r)
    assert calls == [1]
    RationalSymbol(lp("z"), lp("(z - 0.4) * (z - 2)"))  # the reciprocal of z^-1 (z - 0.4)(z - 2)
    assert calls == [2]


def test_composed_poles_keep_the_conditioning_guards():
    # |p| - 1 > 1e-8, but 1 - |1/conj(p)| <= 1e-8 after rounding
    p = 0.9999155111891901 + 0.012999633966423771j
    den = LaurentPoly({0: -p, 1: 1.0})
    # as coefficient input the pole is refused: its inclusion disk reaches within 1e-8
    with pytest.raises(ConditioningError, match="on or near"):
        RationalSymbol(LaurentPoly.one(), den)
    r = RationalSymbol._from_poles(LaurentPoly.one(), den, (p,))
    assert r.poles == (p,)
    with pytest.raises(ConditioningError, match="within"):
        r.conj_reflect()
    # a pole 5e-7 off the circle passes construction, composes, and fails the 1e-6 conversion guard
    near = RationalSymbol(LaurentPoly.one(), lp("z - 1.0000005"))
    with pytest.raises(ConditioningError, match="distance"):
        rational_to_coeffs(blaschke([0.5]) * near.conj_reflect() + 1, 16)


# ---------------------------------------------------------------------------
# model spaces
# ---------------------------------------------------------------------------


def _orthogonal_to_theta_h2(theta: RationalSymbol, vec: np.ndarray, shifts: int) -> bool:
    """Whether ``vec`` (exponents 0..band) is orthogonal to theta * z^j for j < ``shifts``."""
    band = len(vec) - 1
    theta_c = rational_to_coeffs(theta, band).coeffs
    return all(abs(np.vdot(theta_c.shift(j).to_dense(0, band), vec)) <= 1e-8 for j in range(shifts))


def test_model_space_monomial():
    # K_(z^2) = span{1, z}: both are orthogonal to z^2 H2, and z^2 is not
    theta = RationalSymbol(lp("z^2"))
    for k in range(3):
        assert _orthogonal_to_theta_h2(theta, np.eye(17)[k], 4) == (k < 2)


def test_model_space_blaschke_orthogonality_oracle():
    # the reproducing kernel at a zero w, coefficients conj(w)^k, lies in the model space
    theta = blaschke([0.5])
    ks = np.arange(65)
    assert _orthogonal_to_theta_h2(theta, 0.5**ks, 4)
    # the kernel at another point does not: <theta, k_0.3> = theta(0.3)
    assert not _orthogonal_to_theta_h2(theta, 0.3**ks, 1)


def test_model_space_gram_identity():
    zeros = [0.5, -0.3 + 0.2j, 0.0]
    theta = blaschke(zeros)
    ks = np.arange(97)
    kernels_at_zeros = np.column_stack([np.conj(w) ** ks for w in zeros])
    for column in kernels_at_zeros.T:
        assert _orthogonal_to_theta_h2(theta, column, 3)
    # the kernels span a space of dimension 3: Gram entries 1 / (1 - w_i conj(w_j))
    gram = kernels_at_zeros.conj().T @ kernels_at_zeros
    expected = 1.0 / (1.0 - np.outer(zeros, np.conj(zeros)))
    assert np.max(np.abs(gram - expected)) <= 1e-12
    assert np.linalg.eigvalsh(gram).min() > 1e-2


def test_model_space_double_zero():
    # a double zero w adds the derivative kernel k conj(w)^(k-1) to the model space
    ks = np.arange(97)
    derivative = ks * 0.4 ** np.maximum(ks - 1, 0)
    assert _orthogonal_to_theta_h2(blaschke([0.4, 0.4]), 0.4**ks, 3)
    assert _orthogonal_to_theta_h2(blaschke([0.4, 0.4]), derivative, 3)
    # a simple zero does not: <theta, derivative kernel> = conj(theta'(w))
    assert not _orthogonal_to_theta_h2(blaschke([0.4]), derivative, 1)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_json_round_trip():
    a = lp("1 + 2i*z^-3 - z^2")
    assert LaurentPoly.from_json_dict(a.to_json_dict()) == a
    data = a.to_json_dict()["coeffs"]
    assert [row[0] for row in data] == sorted(row[0] for row in data)
    r = blaschke([0.25, -0.5j])
    back = RationalSymbol.from_json_dict(r.to_json_dict())
    grid = unit_grid(64)
    assert np.max(np.abs(back(grid) - r(grid))) <= 1e-12


# ---------------------------------------------------------------------------
# vectorised exact layer against the loops it replaced
# ---------------------------------------------------------------------------


def _from_dense_oracle(values, kmin) -> LaurentPoly:
    return LaurentPoly({kmin + i: v for i, v in enumerate(values)})


def _rational_to_coeffs_oracle(r: RationalSymbol, band: int, prune_rel: float = 1e-14):
    """Coefficient table and grid error built one exponent at a time."""
    n = _fft_size(band, (r.num.kmax - r.num.kmin) + r.den.kmax)
    grid = np.exp(2j * np.pi * np.arange(n) / n)
    vals = r.num(grid) / r.den(grid)
    spectrum = np.fft.fft(vals) / n
    table = {}
    for k in range(-band, band + 1):
        table[k] = complex(spectrum[k % n])
    top = max(abs(v) for v in table.values()) if table else 0.0
    pruned = LaurentPoly({k: v for k, v in table.items() if abs(v) > prune_rel * top})
    recon_spec = np.zeros(n, dtype=complex)
    for k, v in pruned.coeffs.items():
        recon_spec[k % n] = v
    recon = np.fft.ifft(recon_spec) * n
    return pruned, float(np.max(np.abs(recon - vals)))


def _poly_roots_oracle(p: LaurentPoly, residual_tol: float = 1e-10) -> PolyRoots:
    """Companion roots, each polished and checked on its own in Python arithmetic.

    Horner's rule steps through every coefficient, zero or not, and the
    coefficients are not scaled: poly_roots divides them by a power of two,
    which is exact on these inputs.
    """
    order = p.kmin
    degree = p.kmax - order
    if degree == 0:
        return PolyRoots((), order, ())
    rev = [p.coeff(k) for k in range(p.kmax, order - 1, -1)]
    deriv = [(k - order) * p.coeff(k) for k in range(p.kmax, order, -1)]
    scale = max(abs(c) for c in rev)
    companion = np.eye(degree, k=-1, dtype=complex)
    companion[0] = [-c / rev[0] for c in rev[1:]]
    polished, residuals = [], []
    for r in sorted(np.linalg.eigvals(companion).tolist(), key=lambda w: (w.real, w.imag)):
        val = dval = 0j
        for c in rev:
            val = val * r + c
        for c in deriv:
            dval = dval * r + c
        if abs(dval) > 1e-8 * scale:
            r = r - val / dval
            val = 0j
            for c in rev:
                val = val * r + c
        res = abs(val) / (scale * max(1.0, abs(r)) ** degree)
        if res > residual_tol:
            raise FactorizationError(f"root residual {res:.3e} exceeds {residual_tol:.1e}")
        polished.append(r)
        residuals.append(res)
    return PolyRoots(tuple(polished), order, tuple(residuals))


def _poly_roots_polyval(p: LaurentPoly, residual_tol: float = 1e-10) -> PolyRoots:
    """Companion roots through ``np.roots``, each polished and checked with ``np.polyval``."""
    order = p.kmin
    q = p.shift(-order)
    degree = q.kmax
    if degree == 0:
        return PolyRoots((), order, ())
    dense = q.to_dense(0, degree)
    scale = float(np.max(np.abs(dense)))
    raw = np.roots(dense[::-1])
    deriv = dense[1:] * np.arange(1, degree + 1)
    polished, residuals = [], []
    for r in sorted(raw, key=lambda w: (w.real, w.imag)):
        val = np.polyval(dense[::-1], r)
        dval = np.polyval(deriv[::-1], r)
        if abs(dval) > 1e-8 * scale:
            r = r - val / dval
            val = np.polyval(dense[::-1], r)
        res = abs(val) / (scale * max(1.0, abs(r)) ** degree)
        if res > residual_tol:
            raise FactorizationError(f"root residual {res:.3e} exceeds {residual_tol:.1e}")
        polished.append(complex(r))
        residuals.append(float(res))
    return PolyRoots(tuple(polished), order, tuple(residuals))


def _assert_same_table(got: LaurentPoly, want: LaurentPoly) -> None:
    """Equal as canonical tables, down to key order and signed zeros."""
    assert list(got.items()) == list(want.items())
    assert list(got._coeffs) == list(want._coeffs)
    assert (got.kmin, got.kmax) == (want.kmin, want.kmax)
    assert hash(got) == hash(want)
    assert json.dumps(got.to_json_dict()) == json.dumps(want.to_json_dict())
    assert all(type(k) is int and type(v) is complex for k, v in got._coeffs.items())


def _random_dense(rng: np.random.Generator, length: int) -> np.ndarray:
    """Complex entries over many magnitudes, with exact and signed zeros mixed in."""
    values = (rng.standard_normal(length) + 1j * rng.standard_normal(length)) * 10.0 ** rng.uniform(-20, 5, length)
    special = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0),
               complex(-0.0, 1.5), complex(2.5, -0.0), complex(-3.0, 0.0), complex(0.0, -4.0)]
    for i in np.flatnonzero(rng.random(length) < 0.3):
        values[i] = special[rng.integers(len(special))]
    return values


@pytest.mark.parametrize("seed", range(6))
def test_from_dense_matches_dict_oracle(seed):
    rng = np.random.default_rng(seed)
    for length in (0, 1, 2, 7, 40, 129):
        values = _random_dense(rng, length)
        kmin = int(rng.integers(-50, 50))
        _assert_same_table(LaurentPoly.from_dense(values, kmin), _from_dense_oracle(values, kmin))
        as_list = values.tolist()
        _assert_same_table(LaurentPoly.from_dense(as_list, kmin), _from_dense_oracle(as_list, kmin))
        _assert_same_table(LaurentPoly.from_dense(values.real, kmin), _from_dense_oracle(values.real, kmin))
        numpy_kmin = np.int64(kmin)
        _assert_same_table(LaurentPoly.from_dense(values, numpy_kmin), _from_dense_oracle(values, numpy_kmin))


def test_from_dense_zero_vectors():
    for values in (np.zeros(0, dtype=complex), np.zeros(5, dtype=complex), np.array([complex(-0.0, -0.0)] * 3)):
        p = LaurentPoly.from_dense(values, -2)
        _assert_same_table(p, _from_dense_oracle(values, -2))
        assert p.is_zero and p.band == (0, 0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf)])
def test_from_dense_non_finite_raises_oracle_error(bad):
    values = np.array([0.0, 1.0, bad, 2.0, bad], dtype=complex)
    with pytest.raises(ValueError) as oracle_error:
        _from_dense_oracle(values, np.int64(-3))
    with pytest.raises(ValueError) as error:
        LaurentPoly.from_dense(values, np.int64(-3))
    assert str(error.value) == str(oracle_error.value) == "non-finite coefficient at exponent -1"


def _random_rational(rng: np.random.Generator) -> RationalSymbol:
    kmin = int(rng.integers(-4, 3))
    num = LaurentPoly.from_dense(rng.standard_normal(int(rng.integers(1, 6))) + 1j * rng.standard_normal(1), kmin)
    if num.is_zero:
        num = LaurentPoly.one()
    count = int(rng.integers(0, 4))
    moduli = np.where(rng.random(count) < 0.5, rng.uniform(0.2, 0.9, count), rng.uniform(1.15, 4.0, count))
    roots = moduli * np.exp(2j * np.pi * rng.random(count))
    return RationalSymbol(num, poly_from_roots(roots, 1.0))


@pytest.mark.parametrize("seed", range(4))
def test_rational_to_coeffs_matches_loop_oracle(seed, monkeypatch):
    rng = np.random.default_rng(100 + seed)
    for _ in range(6):
        r = _random_rational(rng)
        for band in (0, 1, 5, 32, 200):
            for prune_rel in (1e-14, 0.0, 1e-3):
                monkeypatch.setattr(symbols, "_PRUNE_REL", prune_rel)
                got = rational_to_coeffs(r, band)
                table, err = _rational_to_coeffs_oracle(r, band, prune_rel)
                _assert_same_table(got.coeffs, table)
                assert got.grid_error == err


def test_rational_to_coeffs_exact_zeros_match_oracle():
    # a polynomial numerator gives exact zeros and signed zeros off its band
    for r in (RationalSymbol(lp("z^-2 - 0.5*z + 3i*z^3")), RationalSymbol(LaurentPoly.one()), blaschke([0.5, -0.25j])):
        for band in (0, 2, 16):
            got = rational_to_coeffs(r, band)
            table, err = _rational_to_coeffs_oracle(r, band)
            _assert_same_table(got.coeffs, table)
            assert got.grid_error == err


def _assert_same_roots(p: LaurentPoly) -> None:
    try:
        want = _poly_roots_oracle(p, symbols._ROOT_RESIDUAL_TOL)
    except FactorizationError as oracle_error:
        with pytest.raises(FactorizationError) as error:
            poly_roots(p)
        assert str(error.value) == str(oracle_error)
        return
    got = poly_roots(p)
    assert got == want
    assert repr(got) == repr(want)
    assert all(type(r) is complex for r in got.roots) and all(type(e) is float for e in got.residuals)


@pytest.mark.parametrize("seed", range(4))
def test_poly_roots_matches_per_root_oracle(seed):
    rng = np.random.default_rng(200 + seed)
    for _ in range(25):
        degree = int(rng.integers(0, 9))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1) * (rng.random() < 0.7)
        coeffs[-1] = coeffs[-1] or 1.0
        p = LaurentPoly.from_dense(coeffs, int(rng.integers(0, 4)))
        _assert_same_roots(p)


def test_poly_roots_pinned_cases_match_oracle(monkeypatch):
    for text in ("z^2 - 1", "z^2 - z - 6", "z^3", "(z - 0.5)*(z - 0.5)*(z + 2)", "z*(z - 0.5i)*(z + 1.5)", "7"):
        _assert_same_roots(lp(text))
    _assert_same_roots(poly_from_roots([0.3, 0.3, 0.3, -2.0], 1.0 + 1j, shift=2))
    # a tolerance no residual meets: the same first failure and message
    monkeypatch.setattr(symbols, "_ROOT_RESIDUAL_TOL", 1e-300)
    _assert_same_roots(lp("z^3 - 2*z + 0.7"))


def _assert_near_polyval_roots(p: LaurentPoly) -> None:
    got, want = poly_roots(p), _poly_roots_polyval(p, symbols._ROOT_RESIDUAL_TOL)
    assert got.monomial_order == want.monomial_order and len(got.roots) == len(want.roots)
    for r in got.roots:
        assert min(abs(r - w) for w in want.roots) <= 1e-12 * max(1.0, abs(r))


def test_poly_roots_agrees_with_numpy_polyval():
    for seed in range(4):
        rng = np.random.default_rng(200 + seed)
        for _ in range(25):
            degree = int(rng.integers(0, 9))
            coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1) * (rng.random() < 0.7)
            coeffs[-1] = coeffs[-1] or 1.0
            _assert_near_polyval_roots(LaurentPoly.from_dense(coeffs, int(rng.integers(0, 4))))
    for text in ("z^2 - 1", "z^2 - z - 6", "z^3", "(z - 0.5)*(z - 0.5)*(z + 2)", "z*(z - 0.5i)*(z + 1.5)", "7"):
        _assert_near_polyval_roots(lp(text))
    _assert_near_polyval_roots(poly_from_roots([0.3, 0.3, 0.3, -2.0], 1.0 + 1j, shift=2))


def test_poly_roots_refuses_as_numpy_polyval(monkeypatch):
    monkeypatch.setattr(symbols, "_ROOT_RESIDUAL_TOL", 1e-300)
    p = lp("z^3 - 2*z + 0.7")
    with pytest.raises(FactorizationError) as oracle_error:
        _poly_roots_polyval(p, symbols._ROOT_RESIDUAL_TOL)
    with pytest.raises(FactorizationError) as error:
        poly_roots(p)
    assert str(error.value) == str(oracle_error.value)


# Literal symbols of degree 1 to 8 after the monomial, roots on both sides,
# one double root and three roots within 1e-3 of the circle.  Written out
# rather than drawn with numpy: a generator's own texts may change with SIMD.
_DETERMINISM_PROBES = (
    "(0.7-1.3i)*(z-0.45+0.2i)*(z+1.9i)",
    "1.1*(z-0.62)*(z+0.31i)*(z-2.75+1.1i)",
    "(0.55+0.9i)*z^2*(z-0.12-0.6i)*(z+3.1)",
    "(z-0.3)*(z-0.3)*(z+2.2i)",
    "0.8*(z+0.71i)*(z-1.41)*(z+0.2-0.5i)*(z-3.3i)",
    "z^5 - 0.37*z^3 + (0.2+1.1i)*z - 0.45i",
    "(1.7+0.2i)*(z-0.15+0.68i)*(z+1.37)*(z-0.9i)*(z+2.6-1.2i)*(z-0.05)",
    "(0.3-0.9i) + (1.2+0.4i)*z + (0.5-2.1i)*z^2 + 1.3*z^3",
    "(z-0.51)*(z-0.52i)*(z+0.53)*(z+0.54i)*(z-1.55)*(z-1.56i)*(z+1.57)",
    "(2.2-0.7i)*(z-1.35+0.1i)*(z+0.66-0.29i)*(z-3.9i)*(z+0.24)*(z-1.8)*(z+2.5i)*(z-0.73+0.41i)",
    "(z+0.999)*(z-1.001i)*(z-0.4)",
)

# Per probe: the roots and the split, then the decisions alone.
_PROBE_SCRIPT = """
import sys
from pairedops.symbols import _root_split, parse_symbol, poly_roots
for text in sys.argv[1:]:
    p = parse_symbol(text)
    roots, split = poly_roots(p), _root_split(p)
    print(repr(roots), split)
    print(roots.monomial_order, [len(side) for side in split])
"""


def _probe_lines(**env_vars: str) -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(Path(symbols.__file__).parents[1]), OPENBLAS_NUM_THREADS="1", **env_vars)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE_SCRIPT, *_DETERMINISM_PROBES], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 * len(_DETERMINISM_PROBES)
    return lines


def test_roots_are_byte_identical_with_numpy_simd_off():
    from numpy._core import _multiarray_umath as umath

    # the dispatched features this CPU has above numpy's baseline, which cannot be disabled
    features = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f) and f not in umath.__cpu_baseline__]
    if not features:
        pytest.skip("numpy dispatches no SIMD feature above its baseline on this CPU")
    assert _probe_lines(NPY_DISABLE_CPU_FEATURES=" ".join(features)) == _probe_lines()


def test_root_decisions_are_identical_under_another_blas_core():
    # the eigensolve runs OpenBLAS kernels for the core type, which may move
    # the roots in the last bits; every side-of-circle count stays
    decisions = slice(1, None, 2)
    assert _probe_lines(OPENBLAS_CORETYPE="Nehalem")[decisions] == _probe_lines()[decisions]


def _trusted_cases() -> list[LaurentPoly]:
    rng = np.random.default_rng(7)
    cases = [LaurentPoly.zero(), LaurentPoly.one(), lp("2i*z^-3 - z^2 + 0.5"), lp("-z^-1"), lp("z^4")]
    cases += [LaurentPoly.from_dense(_random_dense(rng, 9), int(rng.integers(-6, 3))) for _ in range(8)]
    cases.append(LaurentPoly({-2: complex(-0.0, 1.0), 1: complex(3.0, -0.0)}))
    return cases


@pytest.mark.parametrize("p", _trusted_cases(), ids=str)
def test_trusted_results_equal_validated_tables(p):
    old = p.coeffs
    results = {
        "neg": (-p, LaurentPoly({k: -v for k, v in old.items()})),
        "shift": (p.shift(np.int64(3)), LaurentPoly({j + np.int64(3): v for j, v in old.items()})),
        "shift_back": (p.shift(np.int64(-5)), LaurentPoly({j + np.int64(-5): v for j, v in old.items()})),
        "conj_reflect": (p.conj_reflect(), LaurentPoly({-k: v.conjugate() for k, v in old.items()})),
        "riesz_plus": (riesz_plus(p), LaurentPoly({k: c for k, c in old.items() if k >= 0})),
        "riesz_minus": (riesz_minus(p), LaurentPoly({k: c for k, c in old.items() if k <= -1})),
    }
    for name, (got, validated) in results.items():
        assert got == LaurentPoly(dict(got._coeffs)), name
        _assert_same_table(got, validated)
        json.dumps(got.to_json_dict())


def test_unit_grid_is_shared_read_only_and_bitwise_fresh():
    for n in (1, 7, 512, 1024):
        grid = unit_grid(n)
        assert grid.tobytes() == np.exp(2j * np.pi * np.arange(n) / n).tobytes()
        assert unit_grid(n) is grid
        with pytest.raises(ValueError):
            grid[0] = 2.0


# ---------------------------------------------------------------------------
# the Horner evaluator against the power sum it replaced
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps


def _power_sum_oracle(p: LaurentPoly, z):
    """The replaced evaluator: one complex power over the whole input per coefficient."""
    zs = np.asarray(z, dtype=complex)
    out = np.zeros_like(zs)
    for k, v in p.coeffs.items():
        out = out + v * zs**k
    if np.isscalar(z) or np.ndim(z) == 0:
        return complex(out)
    return out


def _sup_norm_oracle(p: LaurentPoly) -> float:
    """sup_norm's search in power sums: the grid, then 60 golden steps at each peak near its top.

    A peak is a grid local maximum within (h^2/2) sum (k - kbar)^2 |c_k| of
    the grid maximum, kbar the |c_k|-weighted mean exponent.  The search runs
    on p scaled up by an exact power of two to a largest coefficient in
    [1/2, 1), and its result is scaled back: power sums of subnormal
    coefficients lose bits.
    """
    if p.is_zero:
        return 0.0
    e = min(0, math.frexp(p.max_abs_coeff())[1])
    scaled = LaurentPoly({k: complex(math.ldexp(c.real, -e), math.ldexp(c.imag, -e)) for k, c in p.items()})
    return math.ldexp(_normalized_sup_norm_oracle(scaled), e)


def _normalized_sup_norm_oracle(p: LaurentPoly) -> float:
    n = max(256, 16 * (p.kmax - p.kmin + 1))
    theta = 2 * np.pi * np.arange(n) / n
    vals = np.abs(_power_sum_oracle(p, np.exp(1j * theta)))
    h = 2 * np.pi / n
    ks = np.array(list(p.coeffs), dtype=float)
    weights = np.abs(np.array(list(p.coeffs.values())))
    kbar = np.sum(ks * weights) / np.sum(weights)
    slack = h * h / 2 * np.sum((ks - kbar) ** 2 * weights)
    j = int(np.argmax(vals))
    peaks = {j} | {i for i in range(n) if vals[i - 1] < vals[i] >= vals[(i + 1) % n] and vals[i] >= vals[j] - slack}

    def objective(t: float) -> float:
        return abs(_power_sum_oracle(p, complex(math.cos(t), math.sin(t))))

    return max(max(float(vals[i]), _golden_max(objective, theta[i] - h, theta[i] + h)) for i in peaks)


def _horner_tol(p: LaurentPoly) -> float:
    """Rounding allowance of Horner against the power sum on |z| = 1.

    4 (w + 1) eps sum |c_k| for normal-range values, and at least
    8 (w + 1) times the smallest subnormal 2^-1074: below the normal range
    rounding is absolute, and each complex product errs by up to 2 sqrt(2)
    of that spacing, which the relative bound underflows to 0 there.
    """
    return 4 * (p.kmax - p.kmin + 1) * _EPS * p.l1_norm() + 8 * (p.kmax - p.kmin + 1) * math.ulp(0.0)


_EVAL_CASES = [
    LaurentPoly.zero(),
    LaurentPoly.one(),
    LaurentPoly({5: 3.0}),
    LaurentPoly({-7: -2j}),
    lp("z^-40 + z^40"),
    lp("1 - 2*z + z^-3"),
    lp("(0.5+2i)*z^-2 + 3i*z - z^4"),
    LaurentPoly({-2: 1e150, 1: -3e150j, 3: 1e-150}),
    LaurentPoly({-1: 2e-150 - 1e-150j, 2: 1e-150}),
]


def _assert_close_to_oracle(p: LaurentPoly, z) -> None:
    got = p(z)
    want = _power_sum_oracle(p, z)
    if np.ndim(z) == 0:
        assert type(got) is complex
        assert abs(got - want) <= _horner_tol(p)
    else:
        assert isinstance(got, np.ndarray) and got.dtype == np.complex128 and got.shape == np.shape(z)
        assert np.max(np.abs(got - want), initial=0.0) <= _horner_tol(p)


@pytest.mark.parametrize("p", _EVAL_CASES, ids=str)
def test_horner_matches_power_sum_oracle(p):
    rng = np.random.default_rng(31)
    on_circle = np.exp(2j * np.pi * rng.random((3, 5)))
    scalars = [1.0, -1, 1j, complex(on_circle[0, 0]), np.complex128(on_circle[1, 2]), np.float64(-1.0)]
    for z in scalars + [np.array(on_circle[2, 3]), np.array(1.0)]:
        _assert_close_to_oracle(p, z)
    for z in (unit_grid(64), on_circle, on_circle[0].tolist(), np.where(on_circle.real < 0, -1.0, 1.0), np.zeros((0,), complex)):
        _assert_close_to_oracle(p, z)


@settings(max_examples=80, deadline=None)
@given(
    laurent_polys(kmin=-12, kmax=12),
    st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=6),
)
# subnormal coefficients: Horner and the power sum differ by one 5e-324 step
@example(LaurentPoly({1: 2.2e-313, 2: 2.2e-313}), [0.0031415926535897933, 1.0, 2.5])
def test_horner_matches_power_sum_oracle_drawn(p, angles):
    zs = np.exp(1j * np.array(angles))
    _assert_close_to_oracle(p, zs)
    _assert_close_to_oracle(p, complex(zs[0]))


def test_horner_keeps_the_input_and_returns_fresh_arrays():
    p = lp("2 - z^-1 + 0.5i*z^3")
    grid = unit_grid(32)
    before = grid.copy()
    first, second = p(grid), p(grid)
    assert first is not second and first.flags.writeable
    assert np.array_equal(grid, before)
    assert np.array_equal(first, second)


def _random_symbols(count: int) -> list[LaurentPoly]:
    """Complex coefficients of widths 0-8: no symmetry makes two grid points tie for the maximum."""
    rng = np.random.default_rng(17)
    out = []
    for _ in range(count):
        width = int(rng.integers(0, 9))
        coeffs = (rng.standard_normal(width + 1) + 1j * rng.standard_normal(width + 1)) * 10.0 ** rng.uniform(-2, 2)
        out.append(LaurentPoly.from_dense(coeffs, int(rng.integers(-6, 3))))
    return out


def _assert_sup_norm_against_oracle(p: LaurentPoly) -> None:
    got = p.sup_norm()
    want = _sup_norm_oracle(p)
    assert abs(got - want) <= 8 * _EPS * want
    assert got <= p.l1_norm() + _horner_tol(p)
    n = max(256, 16 * (p.kmax - p.kmin + 1))
    # without the factor z^kmin, as sup_norm evaluates: its numpy power alone
    # may round past the Horner allowance (|c z^8| read 4e-15 above |c|)
    grid_max = float(np.max(_cabs(p.shift(-p.kmin)(unit_grid(n)))))
    assert got >= grid_max - _horner_tol(p)


def test_sup_norm_within_rounding_of_replaced_algorithm():
    assert LaurentPoly.zero().sup_norm() == 0.0
    narrow = [p for p in _EVAL_CASES if not p.is_zero and p.kmax - p.kmin <= 8]
    for p in narrow + _random_symbols(40):
        _assert_sup_norm_against_oracle(p)
    # a width-80 gap: z^80 costs about 80 roundings in any evaluation order
    gapped = lp("z^-40 + z^40")
    assert abs(gapped.sup_norm() - 2.0) <= _horner_tol(gapped)


@settings(max_examples=40, deadline=None)
@given(laurent_polys(kmin=-8, kmax=8))
@example(LaurentPoly({8: 2.75 + 2.75j}))
@example(LaurentPoly({0: 1.0, 1: 0.001953125, 6: 1j}))
@example(LaurentPoly({1: 2.225073858507e-311}))
def test_sup_norm_within_rounding_of_replaced_algorithm_drawn(p):
    _assert_sup_norm_against_oracle(p)


def test_sup_norm_makes_one_array_pass_and_reports_python_arithmetic(monkeypatch):
    cases = _random_symbols(24)
    expected = [p.sup_norm() for p in cases]
    horner_array = symbols._horner_array
    calls = []

    def counting(terms, zs):
        calls.append(zs.shape)
        return horner_array(terms, zs)

    monkeypatch.setattr(symbols, "_horner_array", counting)
    for p in cases:
        calls.clear()
        p.sup_norm()
        assert calls == [(max(256, 16 * (p.kmax - p.kmin + 1)),)]
    # the array pass only picks the grid argmax: last-bit changes in its values,
    # as another CPU's SIMD complex multiply gives, leave every result's bits
    rng = np.random.default_rng(5)

    def perturbed(terms, zs):
        values = horner_array(terms, zs)
        return values * (1 + _EPS * rng.integers(-2, 3, values.shape))

    monkeypatch.setattr(symbols, "_horner_array", perturbed)
    assert [p.sup_norm() for p in cases] == expected
    # and the result is the largest value the scalar Horner evaluator saw
    monkeypatch.setattr(symbols, "_horner_array", horner_array)
    monkeypatch.setattr(symbols, "_golden_max", lambda fn, lo, hi: -math.inf)
    for p in cases:
        n = max(256, 16 * (p.kmax - p.kmin + 1))
        j = int(np.argmax(_cabs(horner_array(p._horner_terms(), unit_grid(n)))))
        assert p.sup_norm() == abs(symbols._horner(p._horner_terms(), complex(unit_grid(n)[j])))


# ---------------------------------------------------------------------------
# products with one term against np.convolve
# ---------------------------------------------------------------------------


def _convolve_oracle(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The dense product path: np.convolve of the two coefficient runs."""
    if a.is_zero or b.is_zero:
        return LaurentPoly()
    dense = np.convolve(a.to_dense(a.kmin, a.kmax), b.to_dense(b.kmin, b.kmax))
    return LaurentPoly.from_dense(dense, a.kmin + b.kmin)


def _assert_same_product(a: LaurentPoly, b: LaurentPoly) -> None:
    try:
        want = _convolve_oracle(a, b)
    except ValueError as oracle_error:
        with pytest.raises(ValueError) as error:
            a * b
        assert str(error.value) == str(oracle_error)
        return
    _assert_same_table(a * b, want)


_SPECIAL_PARTS = [0.0, -0.0, 1.0, -2.5, 1e-200, -3e-170, 5e-324, 1e200, -1e308]


def test_single_term_product_matches_convolve_oracle():
    rng = np.random.default_rng(23)

    def value():
        if rng.random() < 0.5:
            return complex(rng.choice(_SPECIAL_PARTS), rng.choice(_SPECIAL_PARTS))
        return complex(*(rng.standard_normal(2) * 10.0 ** rng.uniform(-150, 150, 2)))

    for _ in range(1500):
        exponents = rng.choice(np.arange(-6, 7), int(rng.integers(1, 6)), replace=False)
        p = LaurentPoly({int(k): value() for k in exponents})
        term = LaurentPoly({int(rng.integers(-4, 5)): value() or 1.0})
        _assert_same_product(p, term)
        _assert_same_product(term, p)


def test_single_term_product_pinned_cases():
    signed = LaurentPoly({-2: complex(-0.0, 1.0), 0: complex(3.0, -0.0), 3: -1.5 + 2j})
    for term in (LaurentPoly({1: -1.0}), LaurentPoly({0: complex(0.0, -2.0)}), LaurentPoly({-3: -0.5 - 0.5j})):
        _assert_same_product(signed, term)
        _assert_same_product(term, signed)
    # underflow to exact zero drops the entry; a lone underflow gives the zero symbol
    tiny = LaurentPoly({-1: 1e-200, 2: 1.0})
    assert (tiny * LaurentPoly({1: 1e-200})).band == (3, 3)
    _assert_same_product(tiny, LaurentPoly({1: 1e-200}))
    assert (LaurentPoly({4: 1e-200}) * LaurentPoly({0: 1e-200})).is_zero
    # overflow raises the validating constructor's error at the first bad exponent
    with pytest.raises(ValueError, match="non-finite coefficient at exponent 2"):
        LaurentPoly({0: 1.0, 1: 1e200, 3: 1e300}) * LaurentPoly({1: 1e200})
    _assert_same_product(LaurentPoly({0: 1.0, 1: 1e200, 3: 1e300}), LaurentPoly({1: 1e200}))
    # the parser builds every coef*z^k through this path
    text = "(0.3+-1.2*i)*z^-2 + (1.5+0.25*i)*z^-1 - 2*z^0 + (-0.0+0.9*i)*z^2"
    _assert_same_table(parse_symbol(text), LaurentPoly({-2: 0.3 - 1.2j, -1: 1.5 + 0.25j, 0: -2.0, 2: 0.9j}))
