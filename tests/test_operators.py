"""Operator-layer tests: projections, exact actions, sections, residual reports."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from pairedops import operators
from pairedops.operators import (
    CommutatorResidual,
    CompositionResidual,
    DegeneratePairError,
    SymbolPair,
    apply_paired,
    apply_transposed,
    commutator_residual,
    composition_residual,
    exact_action_matrix,
    finite_section,
    inner_product,
    op_norm,
    riesz_minus,
    riesz_plus,
    toeplitz_window,
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
    # the multiplication operator M_a acts as the Laurent product a * v
    v = lp("2 + z^-1")
    assert LaurentPoly.one() * v == v
    assert lp("z") * LaurentPoly.monomial(3) == LaurentPoly.monomial(4)
    assert (LaurentPoly.zero() * v).is_zero


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
    # the off-diagonal blocks of a paired section are the Hankel pieces: on
    # exponents -2..2, P-(z^-2 z^k) = z^(k-2) and P+(z^2 z^-k) = z^(2-k)
    m = finite_section(pair("z^-2", "z^2"), "paired", 2).matrix
    assert np.array_equal(m[:2, 2:], [[1, 0, 0], [0, 1, 0]])
    assert np.array_equal(m[2:, :2], [[1, 0], [0, 1], [0, 0]])
    # P-(z z^k) = 0 for k >= 0: the analytic columns of (z, 1) stay analytic
    assert not finite_section(pair("z", "1"), "paired", 2).matrix[:2, 2:].any()


# ---------------------------------------------------------------------------
# conjugation identity
# ---------------------------------------------------------------------------


def _conjugation_identity_residual(p: SymbolPair, v: LaurentPoly) -> float:
    """|| conj(T v) - z T'(zbar conj(v)) ||, T' the paired operator of (conj b, conj a)."""
    rhs = apply_paired(p.conj_swapped(), v.conj_reflect().shift(-1)).shift(1)
    return (apply_paired(p, v).conj_reflect() - rhs).l2_norm()


def test_conjugation_identity_pinned():
    assert _conjugation_identity_residual(pair("1", "z"), lp("1 + z^-1")) <= 1e-14
    assert _conjugation_identity_residual(pair("z^-1", "z^2 + 1"), lp("z + z^-3")) <= 1e-13


def test_conjugation_identity_random():
    rng = np.random.default_rng(17)
    for _ in range(50):
        p = SymbolPair(_random_poly(rng), _random_poly(rng))
        v = _random_poly(rng)
        scale = max(1.0, v.l2_norm() * (p.a.max_abs_coeff() + p.b.max_abs_coeff()))
        assert _conjugation_identity_residual(p, v) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# finite sections
# ---------------------------------------------------------------------------


def test_section_multiplication_shift():
    # (z, z) is multiplication by z: its section is the shift window
    sec = finite_section(pair("z", "z"), "paired", 1)
    expected = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=complex)
    assert np.array_equal(sec.matrix, expected)
    assert np.array_equal(toeplitz_window(lp("z"), range(-1, 2), range(-1, 2)), expected)
    assert sec.row_exponents == (-1, 0, 1)


def test_section_paired_columns_oracle():
    # columns of the (1, z) section at N=1: e_-1 -> e_0, e_0 -> e_0, e_1 -> e_1
    sec = finite_section(pair("1", "z"), "paired", 1)
    expected = np.array([[0, 0, 0], [1, 1, 0], [0, 0, 1]], dtype=complex)
    assert np.array_equal(sec.matrix, expected)


def test_finite_section_takes_only_the_paired_kinds():
    for kind in ("multiplication", "toeplitz", "hankel_minus", "hankel_plus"):
        with pytest.raises(ValueError, match="section kind"):
            finite_section(pair("1", "z"), kind, 2)


def test_section_toeplitz_matches_classical():
    rng = np.random.default_rng(5)
    g = _random_poly(rng, -3, 3, 6)
    n = 4
    # the analytic block of a paired section of (g, .) is the Toeplitz matrix of g
    top_left = finite_section(SymbolPair(g, lp("1")), "paired", n).matrix[n:, n:]
    expected = np.array([[g.coeff(j - k) for k in range(n + 1)] for j in range(n + 1)])
    assert np.max(np.abs(top_left - expected)) == 0.0
    assert np.array_equal(toeplitz_window(g, range(n + 1), range(n + 1)), expected)


def test_section_hankel_shapes():
    g = lp("z^-2 + z")
    n = 3
    m = finite_section(SymbolPair(g, g), "paired", n).matrix
    plus, minus = range(0, n + 1), range(-n, 0)
    # P-(g .) on analytic columns: rows -N..-1, columns 0..N
    assert m[:n, n:].shape == (n, n + 1)
    assert np.array_equal(m[:n, n:], toeplitz_window(g, minus, plus))
    # P+(g .) on coanalytic columns: entries are coefficients at row - col exponent
    assert m[n:, :n].shape == (n + 1, n)
    for i, je in enumerate(plus):
        for j, ke in enumerate(minus):
            assert m[n + i, j] == g.coeff(je - ke)


def test_adjoint_compression_identity():
    rng = np.random.default_rng(23)
    for _ in range(20):
        p = SymbolPair(_random_poly(rng), _random_poly(rng))
        lhs = finite_section(p, "paired", 8).matrix.conj().T
        rhs = finite_section(p.conjugated(), "transposed", 8).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-14


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


def _builder_cases(builder: str, n: int):
    """(library matrix, oracle matrix) for every oracle symbol or pair."""
    full, plus, minus = range(-n, n + 1), range(0, n + 1), range(-n, 0)
    windows = {
        "paired": (full, full, apply_paired),
        "transposed": (full, full, apply_transposed),
        "multiplication": (full, full, lambda g, e: g * e),
        "toeplitz": (plus, plus, lambda g, e: riesz_plus(g * e)),
        "hankel_minus": (minus, plus, lambda g, e: riesz_minus(g * e)),
        "hankel_plus": (plus, minus, lambda g, e: riesz_plus(g * e)),
    }
    if builder in ("paired", "transposed"):
        rows, cols, apply = windows[builder]
        for p in _ORACLE_PAIRS:
            sec = finite_section(p, builder, n)
            assert (sec.row_exponents, sec.col_exponents) == (tuple(rows), tuple(cols))
            yield sec.matrix, _column_oracle(lambda e: apply(p, e), rows, cols)
    elif builder in windows:
        rows, cols, apply = windows[builder]
        # the windows the paired and transposed sections are built from
        for g in _ORACLE_SYMBOLS:
            yield toeplitz_window(g, rows, cols), _column_oracle(lambda e: apply(g, e), rows, cols)
    else:
        kind = builder[len("exact_"):]
        apply = apply_paired if kind == "paired" else apply_transposed
        for p in _ORACLE_PAIRS:
            d = p.band_radius()
            rows = range(-(n + d), n + d + 1)
            oracle = _column_oracle(lambda e: apply(p, e), rows, full, exact=True)
            yield exact_action_matrix(p, n, kind), oracle


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
    ],
)
def test_builders_match_column_oracle(builder, n):
    cases = list(_builder_cases(builder, n))
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


def _svd_sigma(p: SymbolPair, band: int) -> float:
    """Oracle: the dense values-only SVD of the paired section."""
    return float(np.linalg.svd(finite_section(p, "paired", band).matrix, compute_uv=False)[0])


def _banded_poly(rng, d: int) -> LaurentPoly:
    values = rng.standard_normal(2 * d + 1) + 1j * rng.standard_normal(2 * d + 1)
    return LaurentPoly(dict(zip(range(-d, d + 1), values)))


def _oracle_cases():
    rng = np.random.default_rng(43)
    cases = [
        (SymbolPair(_banded_poly(rng, int(da)), _banded_poly(rng, int(db))), band)
        for band in (8, 32, 63, 64, 100, 128, 256)
        for da, db in rng.integers(0, 5, (3, 2))
    ]
    cases += [
        (SymbolPair(_banded_poly(rng, 3), LaurentPoly.zero()), 100),
        (SymbolPair(LaurentPoly.zero(), _banded_poly(rng, 2)), 128),
        (pair("z^2", "z^-1"), 100),  # partial isometries: the top value 1 is repeated
        (pair("z^-3", "z^3"), 128),
        (pair("1", "1"), 64),
        (pair("1 - z", "1 - z"), 128),
        (pair("z + z^-1", "z + z^-1"), 128),
        (pair("z^300", "1"), 40),  # band wider than the section: dense SVD
        (SymbolPair(LaurentPoly.zero(), LaurentPoly.zero()), 100),  # zero Gram band: 0.0
        (pair("1e200 + 3e199*z", "2e200*z^-1"), 100),  # M^H M would overflow
        (pair("1e-200 + 3e-201*z", "2e-200*z^-1"), 100),  # and underflow
    ]
    return cases


def _op_norm_and_svd_shapes(p: SymbolPair, band: int) -> tuple[float, list]:
    """op_norm, and the shape of every matrix it hands to np.linalg.svd."""
    svd, shapes = np.linalg.svd, []

    def counting(matrix, *args, **kwargs):
        shapes.append(matrix.shape)
        return svd(matrix, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.linalg, "svd", counting)
        return op_norm(p, band), shapes


def test_op_norm_matches_dense_svd_and_certifies_above_the_size_rule():
    for p, band in _oracle_cases():
        expected = _svd_sigma(p, band)
        got, shapes = _op_norm_and_svd_shapes(p, band)
        assert abs(got - expected) <= 1e-13 * expected, (p, band)
        # the band path never falls back on these inputs
        takes_band = operators._band_path_pays(2 * band + 1, p.band_radius())
        assert len(shapes) == (0 if takes_band else 1), (p, band)
    assert operators._band_path_pays(2 * 64 + 1, 4)
    assert not operators._band_path_pays(2 * 63 + 1, 4)
    assert not operators._band_path_pays(2 * 40 + 1, 300)


def test_gram_band_is_the_band_of_the_dense_gram():
    rng = np.random.default_rng(47)
    for d, band in ((1, 5), (3, 20), (4, 64)):
        p = SymbolPair(_banded_poly(rng, d), _banded_poly(rng, d))
        matrix = finite_section(p, "paired", band).matrix
        dense = matrix.conj().T @ matrix
        gram, exponent = operators._gram_band(p, band)
        gram *= 4.0**exponent
        n, w = len(matrix), 2 * d
        for s in range(2 * w + 1):
            rows = np.arange(max(0, w - s), min(n, n + w - s))
            assert np.allclose(gram[rows, s], dense[rows, rows - w + s], rtol=0, atol=1e-13)
            outside = np.setdiff1d(np.arange(n), rows)
            assert not gram[outside, s].any()


def test_certificate_brackets_the_top_eigenvalue():
    rng = np.random.default_rng(53)
    for d, band in ((1, 64), (2, 100), (4, 128), (4, 256)):
        p = SymbolPair(_banded_poly(rng, d), _banded_poly(rng, d))
        gram, exponent = operators._gram_band(p, band)
        top = (_svd_sigma(p, band) * 2.0**-exponent) ** 2
        assert operators._dominates(gram, top * (1 + 1e-13))
        assert operators._dominates(gram, top * (1 + 1e-10))
        # a Ritz value 1e-10 relative below lambda_max fails the test
        assert not operators._dominates(gram, top * (1 - 1e-10) * (1 + 1e-13))


def _band_of(dense: np.ndarray, w: int) -> np.ndarray:
    """Row j, column s is dense[j, j - w + s], zero off the matrix."""
    n = len(dense)
    band = np.zeros((n, 2 * w + 1), dtype=complex)
    for s in range(2 * w + 1):
        rows = np.arange(max(0, w - s), min(n, n + w - s))
        band[rows, s] = dense[rows, rows - w + s]
    return band


# (n, d): G = M^H M for an n x n M of half-bandwidth d, so G has w = 2d.
# Blocks of max(w, 4) rows: n below one block, multiples of the block with
# power-of-two and other block counts, odd n with both, and a wide band
@pytest.mark.parametrize("n, d", [(3, 1), (32, 2), (48, 2), (37, 1), (129, 4), (256, 4), (201, 32), (513, 32)])
def test_certificate_matches_a_dense_eigvalsh_on_every_block_layout(n, d):
    rng = np.random.default_rng(71 + n + d)
    offsets = np.subtract.outer(np.arange(n), np.arange(n))
    m = np.where(np.abs(offsets) <= d, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 0)
    dense = m.conj().T @ m
    gram = _band_of(dense, 2 * d)
    assert np.array_equal(np.abs(offsets) <= 2 * d, dense != 0)
    top = float(np.linalg.eigvalsh(dense)[-1])
    for rel in (1e-12, 1e-10):
        assert operators._dominates(gram, top * (1 + rel)), (n, d, rel)
        assert not operators._dominates(gram, top * (1 - rel)), (n, d, rel)


def test_start_vector_orthogonal_to_the_top_singular_vector(monkeypatch):
    # a = 2z, b = 1 + z/2: columns of negative exponent and the others hit
    # disjoint rows, so G = M^H M is exactly block diagonal.  The top value
    # sigma = 2 lives on the nonnegative columns; a start vector supported
    # on the negative ones never reaches it, the Ritz value stalls near 1.5
    # and only the fallback gives the right answer.
    p, band = pair("2*z", "1 + 0.5*z"), 100
    n = 2 * band + 1
    start = np.zeros(n, dtype=complex)
    start[:band] = operators._start_vector(band)
    gram, _ = operators._gram_band(p, band)
    assert operators._lanczos_sigma(gram, start) is None

    monkeypatch.setattr(operators, "_start_vector", lambda size: start)
    got, shapes = _op_norm_and_svd_shapes(p, band)
    assert shapes == [(n, n)]
    assert got == _svd_sigma(p, band)
    assert abs(got - 2.0) <= 1e-13 * 2.0


_EPS = np.finfo(float).eps


def _exact_count_above(alphas, beta2s, x: float) -> int:
    """Eigenvalues of T above x: sign changes of the Sturm sequence
    f_j = (x - alpha_j) f_(j-1) - beta2_j f_(j-2), in exact integers.

    Every float is an integer over a power of two, so with S the largest of
    those denominators F_j = S^j f_j obeys F_j = U_j F_(j-1) - V_j F_(j-2)
    for the integers U_j = (x - alpha_j) S and V_j = beta2_j S^2.
    """
    scale = max(Fraction(v).denominator for v in [x, *alphas, *beta2s])
    f_prev, f, changes = 1, 1, 0
    for a, b2 in zip(alphas, beta2s):
        u, v = (Fraction(x) - Fraction(a)) * scale, Fraction(b2) * scale * scale
        f_prev, f = f, int(u) * f - int(v) * f_prev
        assert f, "an exact zero of the sequence: pick another x"
        changes += (f < 0) != (f_prev < 0)
    return changes


def _random_tridiagonal(rng, k: int) -> tuple[list, list]:
    """T = L L^T for a random lower bidiagonal L: positive semidefinite, as
    the Lanczos tridiagonals of a Gram matrix are."""
    diag, sub = rng.standard_normal(k), rng.standard_normal(k)
    alphas = diag**2 + np.concatenate([[0.0], sub[:-1] ** 2])
    betas = diag[1:] * sub[:-1]
    return [float(a) for a in alphas], [0.0] + [float(b * b) for b in betas]


def _assert_top(alphas, beta2s, lower: float | None = None, rise: float = 0.0) -> float:
    """The routine's top eigenvalue against eigvalsh and against the exact count."""
    lower = max(alphas) if lower is None else lower
    got = operators._tridiagonal_top(alphas, beta2s, lower, rise)
    betas = np.sqrt(beta2s[1:])
    want = float(np.linalg.eigvalsh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))[-1])
    # eigvalsh errs by up to p(k) eps ||T|| for a slowly growing p (LAPACK
    # Users' Guide, section 4.7): on random tridiagonals with k >= 64 it sits
    # up to 16 eps from the exact top, so it is held to 4 sqrt(k) eps, and
    # the routine's own 4 eps to exact Sturm counts on either side
    assert abs(got - want) <= 4 * len(alphas) ** 0.5 * _EPS * want, (got, want)
    assert _exact_count_above(alphas, beta2s, got * (1 + 4 * _EPS)) == 0
    assert _exact_count_above(alphas, beta2s, got * (1 - 4 * _EPS)) >= 1
    return got


@pytest.mark.parametrize("k", [1, 2, 8, 64, 300])
def test_tridiagonal_top_matches_eigvalsh(k):
    rng = np.random.default_rng(61 + k)
    for _ in range(3 if k == 300 else 10):
        alphas, beta2s = _random_tridiagonal(rng, k)
        top = _assert_top(alphas, beta2s)
        # a lower bound from a shorter leading block and a rise, as Lanczos passes them
        if k > 1:
            inner = operators._tridiagonal_top(alphas[: k // 2], beta2s[: k // 2], max(alphas[: k // 2]), 0.0)
            _assert_top(alphas, beta2s, inner, 0.1 * (top - inner) + 1e-3)


def test_tridiagonal_top_near_double_and_at_a_zero_pivot():
    # two copies of one block joined by beta = 1e-12: the top pair splits by
    # at most 2e-12, and Newton from above meets an almost double root
    alphas, beta2s = _random_tridiagonal(np.random.default_rng(67), 8)
    doubled = _assert_top(alphas + alphas, beta2s + [1e-24] + beta2s[1:])
    assert doubled == pytest.approx(_assert_top(alphas, beta2s), rel=1e-11)
    # T = [[1, 1], [1, 1]] has eigenvalues 0 and 2.  The first try at
    # 1 + 2 * 0.5 = 2 makes the last pivot exactly zero; the try at
    # 0.5 + 2 * 0.25 = 1 makes the first pivot zero and the next -inf
    ones, coupling = [1.0, 1.0], [0.0, 1.0]
    assert operators._sturm(ones, coupling, 2.0)[0] == 0
    assert operators._sturm(ones, coupling, 1.0)[0] == 1
    assert operators._tridiagonal_top(ones, coupling, 1.0, 0.5) == 2.0
    assert operators._tridiagonal_top(ones, coupling, 0.5, 0.25) == 2.0
    # eigenvalues 1 - sqrt 2, 1 and 1 + sqrt 2: at x = 1 the first and last
    # pivots are zero, and only 1 + sqrt 2 lies above
    assert operators._sturm([1.0, 1.0, 1.0], [0.0, 1.0, 1.0], 1.0)[0] == 1
    assert operators._tridiagonal_top([1.0, 1.0, 1.0], [0.0, 1.0, 1.0], 1.0, 0.0) == pytest.approx(
        1 + np.sqrt(2), rel=4 * _EPS
    )


def test_ritz_values_of_a_clustered_section_match_eigvalsh():
    # (1 - z, 1 - z) at band 256: singular values clustered within O(1/n^2),
    # about n Lanczos steps; every check's tridiagonal is compared
    seen, real = [], operators._tridiagonal_top

    def recording(alphas, beta2s, lower, rise):
        seen.append((list(alphas), list(beta2s), lower, rise))
        return real(alphas, beta2s, lower, rise)

    p, band = pair("1 - z", "1 - z"), 256
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "_tridiagonal_top", recording)
        got = op_norm(p, band)
    assert abs(got - _svd_sigma(p, band)) <= 1e-13 * got
    assert len(seen) >= 20 and len(seen[-1][0]) >= 256
    for alphas, beta2s, lower, rise in seen:
        _assert_top(alphas, beta2s, lower, rise)


def _band_path_calls(name: str, owner) -> int:
    """Calls op_norm makes to ``owner.name`` over the band-path oracle cases."""
    calls, real = [], getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    cases = [(p, band) for p, band in _oracle_cases() if operators._band_path_pays(2 * band + 1, p.band_radius())]
    assert len(cases) > 20
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, name, counting)
        for p, band in cases:
            op_norm(p, band)
    return len(calls)


def test_op_norm_band_path_calls_no_eigvalsh():
    assert _band_path_calls("eigvalsh", np.linalg) == 0


def test_op_norm_band_path_builds_no_dense_section():
    assert _band_path_calls("finite_section", operators) == 0


def test_op_norm_tries_one_certificate_and_settles_each_check_in_few_passes():
    # the certificate is tried once the Ritz value has converged, and succeeds
    # there: one attempt per case whose Gram band is not zero
    nonzero = [p for p, band in _oracle_cases() if operators._band_path_pays(2 * band + 1, p.band_radius())]
    nonzero = [p for p in nonzero if not (p.a.is_zero and p.b.is_zero)]
    assert _band_path_calls("_dominates", operators) == len(nonzero)
    # a check takes one bracketing pass and a few Newton steps, even over the
    # ghost copies of the clustered and partial-isometry cases: 6.5 a check
    passes, checks = _band_path_calls("_sturm", operators), _band_path_calls("_tridiagonal_top", operators)
    assert passes < 8 * checks, (passes, checks)


def test_op_norm_is_bitwise_repeatable():
    rng = np.random.default_rng(59)
    p = SymbolPair(_banded_poly(rng, 4), _banded_poly(rng, 3))
    for band in (64, 256):
        first = op_norm(p, band)
        assert all(op_norm(p, band) == first for _ in range(3))


# ---------------------------------------------------------------------------
# block structure
# ---------------------------------------------------------------------------


def _blocks(p: SymbolPair, n: int) -> dict:
    """The paired section's blocks, exponents split into 0..N and -N..-1, each
    checked against the symbol window it is."""
    m = finite_section(p, "paired", n).matrix
    plus, minus = range(0, n + 1), range(-n, 0)
    blocks = {
        "top_left": (m[n:, n:], p.a, plus, plus),
        "top_right": (m[n:, :n], p.b, plus, minus),
        "bottom_left": (m[:n, n:], p.a, minus, plus),
        "bottom_right": (m[:n, :n], p.b, minus, minus),
    }
    for block, symbol, rows, cols in blocks.values():
        assert np.array_equal(block, toeplitz_window(symbol, rows, cols))
    return {name: block for name, (block, *_) in blocks.items()}


def test_block_decompose_half_pairs():
    blocks = _blocks(SymbolPair(_random_poly(np.random.default_rng(2)), LaurentPoly.zero()), 3)
    assert np.max(np.abs(blocks["top_right"])) == 0.0
    assert np.max(np.abs(blocks["bottom_right"])) == 0.0

    blocks = _blocks(pair("1", "1"), 3)
    assert np.array_equal(blocks["top_left"], np.eye(4))
    assert np.array_equal(blocks["bottom_right"], np.eye(3))
    assert np.max(np.abs(blocks["top_right"])) == 0.0
    assert np.max(np.abs(blocks["bottom_left"])) == 0.0


def test_block_decompose_single_coupling_entry():
    # pair (zbar, z): the only analytic-to-coanalytic coupling is e_0 -> e_-1
    blocks = _blocks(pair("z^-1", "z"), 2)
    expected = np.zeros((2, 3), dtype=complex)  # rows -2, -1; columns 0, 1, 2
    expected[1, 0] = 1.0
    assert np.array_equal(blocks["bottom_left"], expected)
    # the pair (z, zbar) decouples entirely
    blocks = _blocks(pair("z", "z^-1"), 2)
    assert np.max(np.abs(blocks["bottom_left"])) == 0.0
    assert np.max(np.abs(blocks["top_right"])) == 0.0


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


def _composition_oracle(first, second, band, kind):
    """Composition defect applied to each basis vector z^k by exact products.

    Returns the report fields and the column norms of the direct defect.
    """
    apply = apply_paired if kind == "paired" else apply_transposed
    product = first.product(second)
    diff1 = first.a - first.b
    diff2 = second.a - second.b
    residual = 0.0
    formula_residual = 0.0
    discrepancy = 0.0
    worst = -band
    norms = []
    for k in range(-band, band + 1):
        e = LaurentPoly.monomial(k)
        direct = apply(first, apply(second, e)) - apply(product, e)
        if kind == "paired":
            formula = diff1 * (
                riesz_plus(second.b * riesz_minus(e)) - riesz_minus(second.a * riesz_plus(e))
            )
        else:
            w = diff2 * e
            formula = riesz_minus(first.b * riesz_plus(w)) - riesz_plus(first.a * riesz_minus(w))
        norm = direct.l2_norm()
        norms.append(norm)
        if norm > residual:
            residual = norm
            worst = k
        formula_residual = max(formula_residual, formula.l2_norm())
        discrepancy = max(discrepancy, (direct - formula).l2_norm())
    report = CompositionResidual(kind, band, residual, formula_residual, discrepancy, worst)
    return report, norms


def _commutator_oracle(first, second, band):
    """Commutator applied to each basis vector z^k by exact products, checked
    against its closed-form difference of one-sided defect operators."""
    diff1 = first.a - first.b
    diff2 = second.a - second.b
    commutator_norm = 0.0
    discrepancy = 0.0
    worst = -band
    norms = []
    for k in range(-band, band + 1):
        e = LaurentPoly.monomial(k)
        direct = apply_paired(first, apply_paired(second, e)) - apply_paired(
            second, apply_paired(first, e)
        )
        plus = riesz_plus(e)
        minus = riesz_minus(e)
        lhs = diff1 * (riesz_minus(second.a * plus) - riesz_plus(second.b * minus))
        rhs = diff2 * (riesz_minus(first.a * plus) - riesz_plus(first.b * minus))
        formula = rhs - lhs
        norm = direct.l2_norm()
        norms.append(norm)
        if norm > commutator_norm:
            commutator_norm = norm
            worst = k
        discrepancy = max(discrepancy, (direct - formula).l2_norm())
    return CommutatorResidual(band, commutator_norm, discrepancy, worst), norms


_RESIDUAL_RNG = np.random.default_rng(67)


def _residual_pair(a_band: tuple[int, int], b_band: tuple[int, int] | None = None) -> SymbolPair:
    """Random pair with a on exponents a_band and b on b_band (default a_band)."""
    return SymbolPair(_random_poly(_RESIDUAL_RNG, *a_band), _random_poly(_RESIDUAL_RNG, *(b_band or a_band)))


_shared = _random_poly(_RESIDUAL_RNG)
_RESIDUAL_CASES = {
    "constants": (pair("2", "-1"), SymbolPair(LaurentPoly({0: 0.5 + 1j}), lp("3"))),
    "analytic": (_residual_pair((0, 4)), _residual_pair((0, 3))),
    "coanalytic": (_residual_pair((-4, -1)), _residual_pair((-3, 0))),
    "conforming": (_residual_pair((-4, 4)), _residual_pair((0, 3), (-3, 0))),
    "equal_first": (SymbolPair(_shared, _shared), _residual_pair((-4, 4))),
    "equal_second": (_residual_pair((-4, 4)), SymbolPair(_shared, _shared)),
    "wide": (pair("1", "z"), pair("z^5", "2 - z^-5")),
    "random": (_residual_pair((-4, 4)), _residual_pair((-4, 4))),
    "random_wide": (_residual_pair((-6, 2)), _residual_pair((-1, 7))),
}


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
@pytest.mark.parametrize("kind", ["paired", "transposed", "commutator"])
def test_residual_reports_match_column_oracle(kind, n):
    for name, (first, second) in _RESIDUAL_CASES.items():
        if kind == "commutator":
            report = commutator_residual(first, second, n)
            oracle, norms = _commutator_oracle(first, second, n)
            top = oracle.commutator_norm
        else:
            report = composition_residual(first, second, n, kind)
            oracle, norms = _composition_oracle(first, second, n, kind)
            top = oracle.residual
        for field in dataclasses.fields(oracle):
            got, want = getattr(report, field.name), getattr(oracle, field.name)
            if isinstance(want, float):
                assert abs(got - want) <= 1e-13 * max(1.0, want), (name, field.name, got, want)
            elif field.name != "worst_exponent":
                assert got == want, (name, field.name)
        # equal-norm columns can tie, so any column at the maximum will do
        assert -n <= report.worst_exponent <= n, name
        assert norms[report.worst_exponent + n] >= top - 1e-13 * max(1.0, top), name


def test_residual_reports_reject_empty_band():
    with pytest.raises(ValueError):
        composition_residual(pair("1", "z"), pair("z", "1"), 0)
    with pytest.raises(ValueError):
        commutator_residual(pair("1", "z"), pair("z", "1"), 0)
    with pytest.raises(ValueError):
        composition_residual(pair("1", "z"), pair("z", "1"), 4, kind="adjoint")


def test_degenerate_pair_flag_and_error():
    p = pair("1", "1")
    assert not p.nondegenerate
    with pytest.raises(DegeneratePairError):
        p.require_nondegenerate()
    assert pair("1", "z").nondegenerate
