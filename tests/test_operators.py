"""Operator-layer tests: projections, exact actions, sections, residual reports."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from pairedops import kernels
from pairedops.operators import (
    DegeneratePairError,
    SymbolPair,
    apply_paired,
    apply_transposed,
    block_decompose,
    commutator_residual,
    composition_residual,
    conjugation_identity_residual,
    exact_action_matrix,
    finite_section,
    hankel_minus,
    hankel_plus,
    inner_product,
    mul_apply,
    op_norm,
    riesz_minus,
    riesz_plus,
)
from pairedops.symbols import LaurentPoly, parse_symbol

from test_symbols import laurent_polys


def lp(text: str) -> LaurentPoly:
    return parse_symbol(text)


def pair(a: str, b: str) -> SymbolPair:
    return SymbolPair(lp(a), lp(b))


def _random_poly(rng, kmin=-4, kmax=4, terms=5) -> LaurentPoly:
    exps = rng.choice(np.arange(kmin, kmax + 1), size=min(terms, kmax - kmin + 1), replace=False)
    vals = rng.standard_normal(len(exps)) + 1j * rng.standard_normal(len(exps))
    return LaurentPoly(dict(zip((int(e) for e in exps), vals)))


# ---------------------------------------------------------------------------
# projections and exact applications
# ---------------------------------------------------------------------------


def test_riesz_pinned_split():
    v = lp("1 + z^-1")
    assert riesz_plus(v) == lp("1")
    assert riesz_minus(v) == lp("z^-1")
    assert riesz_minus(lp("z")).is_zero


@settings(max_examples=50, deadline=None)
@given(laurent_polys())
def test_riesz_complementary_exact(v):
    assert riesz_plus(v) + riesz_minus(v) == v
    assert riesz_plus(riesz_minus(v)).is_zero
    assert riesz_minus(riesz_plus(v)).is_zero


def test_mul_apply_basics():
    v = lp("2 + z^-1")
    assert mul_apply(LaurentPoly.one(), v) == v
    assert mul_apply(lp("z"), LaurentPoly.monomial(3)) == LaurentPoly.monomial(4)
    assert mul_apply(LaurentPoly.zero(), v).is_zero


def test_apply_paired_pinned_constant_two():
    # the extremal vector for the pair (1, z): image is the constant 2
    out = apply_paired(pair("1", "z"), lp("1 + z^-1"))
    assert out == LaurentPoly({0: 2.0})
    assert (out - LaurentPoly({0: 2.0})).max_abs_coeff() <= 1e-14


def test_apply_paired_equal_symbols_is_multiplication():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = _random_poly(rng)
        v = _random_poly(rng)
        diff = apply_paired(SymbolPair(a, a), v) - a * v
        assert diff.max_abs_coeff() <= 1e-13 * max(1.0, a.max_abs_coeff() * v.max_abs_coeff())


def test_apply_paired_kernel_vector_exact_zero():
    # zbar * 1 + z * (-zbar^2) cancels exactly
    out = apply_paired(pair("z^-1", "z"), lp("1 - z^-2"))
    assert out.is_zero


def test_apply_transposed_examples():
    assert apply_transposed(pair("1", "1"), lp("3 + z^-2 - z")) == lp("3 + z^-2 - z")
    assert apply_transposed(pair("z^-1", "1"), lp("1")).is_zero


def test_adjoint_consistency_inner_products():
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = SymbolPair(_random_poly(rng), _random_poly(rng))
        u = _random_poly(rng)
        v = _random_poly(rng)
        lhs = inner_product(apply_paired(p, u), v)
        rhs = inner_product(u, apply_transposed(p.conjugated(), v))
        assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


@settings(max_examples=40, deadline=None)
@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_apply_paired_linearity(a, b, v):
    p = SymbolPair(a, b)
    lhs = apply_paired(p, v * (2 - 1j) + b * 0)  # scalar combination
    rhs = apply_paired(p, v) * (2 - 1j)
    assert (lhs - rhs).max_abs_coeff() <= 1e-12 * max(1.0, rhs.max_abs_coeff())


# ---------------------------------------------------------------------------
# Hankel pieces
# ---------------------------------------------------------------------------


def test_hankel_examples():
    assert hankel_minus(lp("z"), lp("1")).is_zero
    assert hankel_minus(lp("z^-2"), lp("1")) == lp("z^-2")
    assert hankel_plus(lp("z^2"), lp("z^-2")) == lp("1")


def test_hankel_band_violations():
    with pytest.raises(ValueError):
        hankel_minus(lp("z"), lp("z^-1"))
    with pytest.raises(ValueError):
        hankel_plus(lp("z"), lp("1"))


# ---------------------------------------------------------------------------
# conjugation identity
# ---------------------------------------------------------------------------


def test_conjugation_identity_pinned():
    assert conjugation_identity_residual(pair("1", "z"), lp("1 + z^-1")) <= 1e-14
    assert conjugation_identity_residual(pair("z^-1", "z^2 + 1"), lp("z + z^-3")) <= 1e-13


def test_conjugation_identity_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = SymbolPair(_random_poly(rng), _random_poly(rng))
        v = _random_poly(rng)
        scale = max(1.0, v.l2_norm() * (p.a.max_abs_coeff() + p.b.max_abs_coeff()))
        assert conjugation_identity_residual(p, v) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# finite sections
# ---------------------------------------------------------------------------


def test_section_multiplication_shift():
    sec = finite_section(lp("z"), "multiplication", 1)
    expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
    assert np.array_equal(sec.matrix, expected)
    assert sec.row_exponents == (-1, 0, 1)


def test_section_paired_columns_oracle():
    # columns of the (1, z) section at N=1: e_-1 -> e_0, e_0 -> e_0, e_1 -> e_1
    sec = finite_section(pair("1", "z"), "paired", 1)
    expected = np.array([[0, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=complex)
    assert np.array_equal(sec.matrix, expected)


def test_section_toeplitz_matches_classical():
    rng = np.random.default_rng(5)
    g = _random_poly(rng, -3, 3, 6)
    n = 4
    sec = finite_section(g, "toeplitz", n)
    expected = np.array([[g.coeff(j - k) for k in range(n + 1)] for j in range(n + 1)])
    assert np.max(np.abs(sec.matrix - expected)) == 0.0


def test_section_hankel_shapes():
    g = lp("z^-2 + z")
    n = 3
    minus = finite_section(g, "hankel_minus", n)
    assert minus.matrix.shape == (n, n + 1)
    assert minus.row_exponents == (-3, -2, -1)
    plus = finite_section(g, "hankel_plus", n)
    assert plus.matrix.shape == (n + 1, n)
    # entries are symbol coefficients at row - col exponent
    for i, je in enumerate(plus.row_exponents):
        for j, ke in enumerate(plus.col_exponents):
            assert plus.matrix[i, j] == g.coeff(je - ke)


def test_adjoint_compression_identity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = SymbolPair(_random_poly(rng), _random_poly(rng))
        lhs = finite_section(p, "paired", 8).matrix.conj().T
        rhs = finite_section(p.conjugated(), "transposed", 8).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_section_json_export():
    sec = finite_section(lp("z"), "multiplication", 1)
    data = sec.to_json_dict()
    assert data["n"] == 3 and data["m"] == 3
    # zero entries omitted; the shift has exactly two nonzero entries
    assert sorted(data["entries"]) == [[1, 0, 1.0, 0.0], [2, 1, 1.0, 0.0]]


# ---------------------------------------------------------------------------
# exact action matrices
# ---------------------------------------------------------------------------


def test_exact_action_identity_embedding():
    m = exact_action_matrix(pair("1", "1"), 3)
    assert m.shape == (7, 7)
    assert np.array_equal(m, np.eye(7))


def _column_oracle(image, rows: range, cols: range, exact: bool = False) -> np.ndarray:
    """Column by column exact application, truncated to the row window.

    Column j is ``image`` of the monomial z^cols[j]; with ``exact`` no
    coefficient of any image may fall outside ``rows``.
    """
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    for j, k in enumerate(cols):
        for exp, c in image(LaurentPoly.monomial(k)).coeffs.items():
            if exp in rows:
                out[exp - rows.start, j] = c
            else:
                assert not exact, f"image of z^{k} has a coefficient at z^{exp}"
    return out


def test_exact_action_null_dimension_bruteforce_oracle():
    p = pair("z^-1", "z")
    m = exact_action_matrix(p, 2)
    oracle = _column_oracle(lambda e: apply_paired(p, e), range(-3, 4), range(-2, 3), exact=True)
    assert np.array_equal(m, oracle)
    rank = np.linalg.matrix_rank(oracle)
    assert oracle.shape[1] - rank == 2


_ORACLE_RNG = np.random.default_rng(61)
# zero, analytic, co-analytic, mixed, and wider than the N = 1, 2 windows
_ORACLE_SYMBOLS = (
    LaurentPoly.zero(),
    _random_poly(_ORACLE_RNG, 0, 4),
    _random_poly(_ORACLE_RNG, -4, -1),
    _random_poly(_ORACLE_RNG, -4, 4),
    lp("z^5"),
    lp("2 - z^-5"),
)
_ORACLE_PAIRS = tuple(SymbolPair(a, b) for a in _ORACLE_SYMBOLS for b in _ORACLE_SYMBOLS)


def _bridge_matrix(monkeypatch, symbol: LaurentPoly, band: int) -> np.ndarray:
    """The matrix toeplitz_kernel_bridge hands to its first null-space call."""

    class Captured(Exception):
        pass

    def capture(matrix, *args, **kwargs):
        raise Captured(matrix)

    monkeypatch.setattr(kernels, "_null_space", capture)
    with pytest.raises(Captured) as info:
        kernels.toeplitz_kernel_bridge(symbol, band)
    monkeypatch.undo()
    return info.value.args[0]


def _builder_cases(builder: str, n: int, monkeypatch):
    """(library matrix, oracle matrix) for every oracle symbol or pair."""
    full, plus, minus = range(-n, n + 1), range(0, n + 1), range(-n, 0)
    windows = {
        "paired": (full, full, apply_paired),
        "transposed": (full, full, apply_transposed),
        "multiplication": (full, full, mul_apply),
        "toeplitz": (plus, plus, lambda g, e: riesz_plus(g * e)),
        "hankel_minus": (minus, plus, hankel_minus),
        "hankel_plus": (plus, minus, hankel_plus),
    }
    if builder in ("paired", "transposed"):
        rows, cols, apply = windows[builder]
        for p in _ORACLE_PAIRS:
            sec = finite_section(p, builder, n)
            assert (sec.row_exponents, sec.col_exponents) == (tuple(rows), tuple(cols))
            yield sec.matrix, _column_oracle(lambda e: apply(p, e), rows, cols)
    elif builder in windows:
        rows, cols, apply = windows[builder]
        for g in _ORACLE_SYMBOLS:
            sec = finite_section(g, builder, n)
            assert (sec.row_exponents, sec.col_exponents) == (tuple(rows), tuple(cols))
            yield sec.matrix, _column_oracle(lambda e: apply(g, e), rows, cols)
    elif builder.startswith("exact_"):
        kind = builder[len("exact_"):]
        apply = apply_paired if kind == "paired" else apply_transposed
        for p in _ORACLE_PAIRS:
            d = p.band_radius()
            rows = range(-(n + d), n + d + 1)
            oracle = _column_oracle(lambda e: apply(p, e), rows, full, exact=True)
            yield exact_action_matrix(p, n, kind), oracle
    else:
        for g in _ORACLE_SYMBOLS[1:]:
            rows = range(0, n + max(0, g.kmax) + 1)
            yield _bridge_matrix(monkeypatch, g, n), _column_oracle(lambda e: riesz_plus(g * e), rows, plus)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
@pytest.mark.parametrize(
    "builder",
    [
        "paired",
        "transposed",
        "multiplication",
        "toeplitz",
        "hankel_minus",
        "hankel_plus",
        "exact_paired",
        "exact_transposed",
        "bridge",
    ],
)
def test_builders_match_column_oracle(builder, n, monkeypatch):
    cases = list(_builder_cases(builder, n, monkeypatch))
    assert cases
    for matrix, oracle in cases:
        assert matrix.shape == oracle.shape
        assert np.array_equal(matrix, oracle)


def test_exact_action_trivial_null_space():
    m = exact_action_matrix(pair("1", "1 - z"), 32)
    assert np.linalg.matrix_rank(m) == m.shape[1]
    assert m.shape == (2 * 33 + 1, 65)


# ---------------------------------------------------------------------------
# operator norms
# ---------------------------------------------------------------------------


def test_op_norm_extremal_sqrt2():
    assert op_norm(pair("1", "z"), 8) == pytest.approx(np.sqrt(2.0), abs=1e-9)


def test_op_norm_identity_and_halfspace():
    for n in (1, 4, 16):
        assert op_norm(pair("1", "1"), n) == pytest.approx(1.0, abs=1e-12)
    assert op_norm(pair("2", "0"), 8) == pytest.approx(2.0, abs=1e-12)


def test_op_norm_monotone_in_band():
    rng = np.random.default_rng(31)
    for _ in range(5):
        p = SymbolPair(_random_poly(rng), _random_poly(rng))
        norms = [op_norm(p, n) for n in (8, 16, 32, 64)]
        for lo, hi in zip(norms, norms[1:]):
            assert lo <= hi + 1e-12


def test_op_norm_sandwich_random():
    rng = np.random.default_rng(37)
    for _ in range(10):
        a = _random_poly(rng, -3, 3, 4)
        b = _random_poly(rng, -3, 3, 4)
        if a.is_zero or b.is_zero:
            continue
        big_a, big_b = a.sup_norm(), b.sup_norm()
        m = max(big_a, big_b)
        norm = op_norm(SymbolPair(a, b), 128)
        assert norm >= 0.95 * m
        assert norm <= min(np.sqrt(2.0) * m, big_a + big_b) + 1e-9


def test_op_norm_zero_characterization():
    assert op_norm(SymbolPair(LaurentPoly.zero(), LaurentPoly.zero()), 8) <= 1e-12
    rng = np.random.default_rng(41)
    for _ in range(5):
        a = _random_poly(rng)
        if a.is_zero:
            continue
        assert op_norm(SymbolPair(a, LaurentPoly.zero()), 8) > 1e-12


# ---------------------------------------------------------------------------
# block structure
# ---------------------------------------------------------------------------


def test_block_decompose_half_pairs():
    blocks = block_decompose(SymbolPair(_random_poly(np.random.default_rng(2)), LaurentPoly.zero()), 3)
    assert np.max(np.abs(blocks.top_right)) == 0.0
    assert np.max(np.abs(blocks.bottom_right)) == 0.0
    assert blocks.residual == 0.0

    blocks = block_decompose(pair("1", "1"), 3)
    assert np.array_equal(blocks.top_left, np.eye(4))
    assert np.array_equal(blocks.bottom_right, np.eye(3))
    assert np.max(np.abs(blocks.top_right)) == 0.0
    assert np.max(np.abs(blocks.bottom_left)) == 0.0


def test_block_decompose_single_coupling_entry():
    # pair (zbar, z): the only analytic-to-coanalytic coupling is e_0 -> e_-1
    blocks = block_decompose(pair("z^-1", "z"), 2)
    assert blocks.residual == 0.0
    bottom_left = blocks.bottom_left  # rows exponents -2,-1; cols 0,1,2
    expected = np.zeros((2, 3), dtype=complex)
    expected[1, 0] = 1.0
    assert np.array_equal(bottom_left, expected)
    # the pair (z, zbar) decouples entirely
    blocks = block_decompose(pair("z", "z^-1"), 2)
    assert np.max(np.abs(blocks.bottom_left)) == 0.0
    assert np.max(np.abs(blocks.top_right)) == 0.0


# ---------------------------------------------------------------------------
# composition and commutator residuals
# ---------------------------------------------------------------------------


def test_composition_conforming_second_factor():
    rng = np.random.default_rng(43)
    first = SymbolPair(_random_poly(rng), _random_poly(rng))
    second = pair("z", "z^-1")
    report = composition_residual(first, second, 6)
    assert report.residual <= 1e-13
    assert report.discrepancy <= 1e-13


def test_composition_nonconforming_witness():
    report = composition_residual(pair("1", "z"), pair("z^-1", "z^-1"), 6)
    assert report.residual > 1e-8
    assert report.discrepancy <= 1e-12
    # the constant basis vector already witnesses the defect
    assert report.formula_residual > 1e-8


def test_composition_equal_symbols_degenerate_factor():
    rng = np.random.default_rng(47)
    a = _random_poly(rng)
    first = SymbolPair(a, a)
    second = SymbolPair(_random_poly(rng), _random_poly(rng))
    report = composition_residual(first, second, 5)
    assert report.residual <= 1e-12 * max(1.0, a.max_abs_coeff() ** 2)


def test_composition_transposed_conforming():
    rng = np.random.default_rng(53)
    # transposed products compose when the first pair is (coanalytic, analytic)
    first = pair("z^-2 + 1", "3 + z")
    second = SymbolPair(_random_poly(rng), _random_poly(rng))
    report = composition_residual(first, second, 6, kind="transposed")
    assert report.residual <= 1e-12
    assert report.discrepancy <= 1e-12


def test_composition_transposed_nonconforming():
    report = composition_residual(pair("z", "1"), pair("1", "z"), 6, kind="transposed")
    assert report.residual > 1e-8
    assert report.discrepancy <= 1e-12


def test_commutator_analytic_coanalytic_family_commutes():
    rng = np.random.default_rng(59)
    for _ in range(5):
        first = SymbolPair(_random_poly(rng, 0, 3), _random_poly(rng, -3, 0))
        second = SymbolPair(_random_poly(rng, 0, 3), _random_poly(rng, -3, 0))
        report = commutator_residual(first, second, 6)
        assert report.commutator_norm <= 1e-12 * 100
        assert report.identity_discrepancy <= 1e-11


def test_commutator_scalar_and_shift():
    base = pair("1", "z")
    shift = pair("z", "z")
    assert commutator_residual(base, shift, 6).commutator_norm > 1e-8
    const = pair("2", "2")
    assert commutator_residual(base, const, 6).commutator_norm <= 1e-13


def test_degenerate_pair_flag_and_error():
    p = pair("1", "1")
    assert not p.nondegenerate
    with pytest.raises(DegeneratePairError):
        p.require_nondegenerate()
    assert pair("1", "z").nondegenerate
