"""Symbol-layer tests: parser, Laurent algebra, factorization, model spaces."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairedops.operators import riesz_minus, riesz_plus
from pairedops.symbols import (
    AnalyticityClass,
    ConditioningError,
    FactorizationError,
    LaurentPoly,
    PolyRoots,
    RationalSymbol,
    SymbolParseError,
    blaschke,
    in_conj_hardy,
    in_hardy,
    inner_outer_factor,
    is_nondegenerate,
    model_space_basis,
    parse_symbol,
    poly_from_roots,
    poly_roots,
    rational_to_coeffs,
    rational_to_coeffs_auto,
    unit_grid,
    _fft_size,
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


def test_zero_band_convention():
    zero = LaurentPoly.zero()
    assert zero.band == (0, 0)
    assert zero.classify() is AnalyticityClass.CONSTANT


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


def test_classify_cases():
    assert lp("z^2 + 3").classify() is AnalyticityClass.ANALYTIC
    assert lp("z^-1").classify() is AnalyticityClass.COANALYTIC_VANISHING
    assert lp("z + z^-1").classify() is AnalyticityClass.NEITHER
    assert lp("4").classify() is AnalyticityClass.CONSTANT
    assert lp("1 + z^-2").classify() is AnalyticityClass.COANALYTIC


@settings(max_examples=60, deadline=None)
@given(laurent_polys())
def test_classify_reflect_swaps_sides(a):
    cls = a.classify()
    refl = a.conj_reflect().classify()
    if cls is AnalyticityClass.ANALYTIC:
        assert refl in (AnalyticityClass.COANALYTIC, AnalyticityClass.COANALYTIC_VANISHING)
    if cls in (AnalyticityClass.COANALYTIC, AnalyticityClass.COANALYTIC_VANISHING):
        assert refl is AnalyticityClass.ANALYTIC
    if cls is AnalyticityClass.CONSTANT:
        assert refl is AnalyticityClass.CONSTANT
    if cls is AnalyticityClass.NEITHER:
        assert refl is AnalyticityClass.NEITHER
    assert in_hardy(a) == in_conj_hardy(a.conj_reflect())


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


@settings(max_examples=30, deadline=None)
@given(laurent_polys())
def test_sup_norm_dominates_grid(a):
    grid = unit_grid(97)
    bound = a.sup_norm()
    assert np.max(np.abs(a(grid))) <= bound + 1e-9 * max(1.0, bound)


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
    b = blaschke([], constant=1j)
    assert b.num == LaurentPoly({0: 1j})


def test_blaschke_grid_modulus_oracle():
    b = blaschke([0.5])
    vals = np.abs(b(unit_grid(512)))
    assert np.max(np.abs(vals - 1.0)) <= 1e-10


def test_blaschke_rejects_boundary_zero():
    with pytest.raises(ValueError):
        blaschke([0.9999])
    with pytest.raises(ValueError):
        blaschke([0.5], constant=2.0)


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
    vec, err = rational_to_coeffs_auto(r, tol=1e-12)
    assert err <= 1e-12 * max(1.0, vec.max_abs_coeff())


# ---------------------------------------------------------------------------
# model spaces
# ---------------------------------------------------------------------------


def test_model_space_monomial():
    theta = RationalSymbol(lp("z^2"))
    basis = model_space_basis(theta, 16)
    assert basis == [LaurentPoly.monomial(0), LaurentPoly.monomial(1)]
    assert model_space_basis(RationalSymbol(lp("z")), 16) == [LaurentPoly.monomial(0)]


def test_model_space_blaschke_orthogonality_oracle():
    theta = blaschke([0.5])
    band = 64
    basis = model_space_basis(theta, band)
    assert len(basis) == 1
    # reproducing-kernel direction
    ks = np.arange(band + 1)
    kernel = 0.5**ks
    vec = basis[0].to_dense(0, band)
    inner = abs(np.vdot(kernel, vec))
    assert inner == pytest.approx(np.linalg.norm(kernel), abs=1e-8)
    # orthogonal to theta * e_j for j = 0..3
    theta_c = rational_to_coeffs(theta, band).coeffs
    for j in range(4):
        shifted = theta_c.shift(j).to_dense(0, band)
        assert abs(np.vdot(shifted, vec)) <= 1e-8


def test_model_space_gram_identity():
    theta = blaschke([0.5, -0.3 + 0.2j, 0.0])
    band = 96
    basis = model_space_basis(theta, band)
    assert len(basis) == 3
    mat = np.column_stack([v.to_dense(0, band) for v in basis])
    gram = mat.conj().T @ mat
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-10
    theta_c = rational_to_coeffs(theta, band).coeffs
    for j in range(3):
        shifted = theta_c.shift(j).to_dense(0, band)
        for v in basis:
            assert abs(np.vdot(shifted, v.to_dense(0, band))) <= 1e-8


def test_model_space_double_zero():
    theta = blaschke([0.4, 0.4])
    basis = model_space_basis(theta, 96)
    assert len(basis) == 2
    with pytest.raises(ValueError):
        model_space_basis(blaschke([0.4, 0.4, 0.4]), 64)


def test_model_space_rejects_non_inner():
    with pytest.raises(ValueError):
        model_space_basis(RationalSymbol(lp("1 + 0.5*z")), 16)


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
    """Companion roots, each polished and checked on its own."""
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
def test_rational_to_coeffs_matches_loop_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    for _ in range(6):
        r = _random_rational(rng)
        for band in (0, 1, 5, 32, 200):
            for prune_rel in (1e-14, 0.0, 1e-3):
                got = rational_to_coeffs(r, band, prune_rel=prune_rel)
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


def _assert_same_roots(p: LaurentPoly, residual_tol: float = 1e-10) -> None:
    try:
        want = _poly_roots_oracle(p, residual_tol)
    except FactorizationError as oracle_error:
        with pytest.raises(FactorizationError) as error:
            poly_roots(p, residual_tol)
        assert str(error.value) == str(oracle_error)
        return
    got = poly_roots(p, residual_tol)
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


def test_poly_roots_pinned_cases_match_oracle():
    for text in ("z^2 - 1", "z^2 - z - 6", "z^3", "(z - 0.5)*(z - 0.5)*(z + 2)", "z*(z - 0.5i)*(z + 1.5)", "7"):
        _assert_same_roots(lp(text))
    _assert_same_roots(poly_from_roots([0.3, 0.3, 0.3, -2.0], 1.0 + 1j, shift=2))
    # a tolerance no residual meets: the same first failure and message
    _assert_same_roots(lp("z^3 - 2*z + 0.7"), residual_tol=1e-300)


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
