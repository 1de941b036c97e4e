"""Kernel-layer tests: null spaces, structure maps, dichotomy, invariance."""

from __future__ import annotations

import cmath
import dataclasses
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pairedops import kernels
from pairedops.kernels import (
    NULL_SPACE_REL_THRESHOLD,
    AmbiguousKernelError,
    _null_count,
    _null_space,
    _paired_residual,
    _residual,
    _root_split,
    adjoint_inverse_report,
    adjoint_kernel_basis,
    adjoint_kernel_map,
    adjoint_kernel_map_inverse,
    coburn_check,
    invertible_on_circle,
    kernel_basis,
    kernel_conjugate,
    kernel_element_direct,
    kernel_element_from_inner_factor,
    l2_kernel,
    pair_from_function,
    reciprocal_symbol,
    same_kernel_test,
    subspace_angle,
    toeplitz_kernel_bridge,
)
from pairedops.operators import (
    DegeneratePairError,
    SymbolPair,
    apply_paired,
    exact_action_matrix,
    op_norm,
)
from pairedops.properties import check_multiplier_invariance, check_norm_bounds
from pairedops.symbols import (
    FactorizationError,
    LaurentPoly,
    RationalSymbol,
    parse_symbol,
    poly_from_roots,
    poly_roots,
    rational_to_coeffs,
)


def lp(text: str) -> LaurentPoly:
    return parse_symbol(text)


def pair(a: str, b: str) -> SymbolPair:
    return SymbolPair(lp(a), lp(b))


def wind(symbol: LaurentPoly) -> int | None:
    """Winding number from the certified root split; None where it is refused."""
    split = _root_split(symbol)
    return None if split is None else symbol.kmin + len(split[0])


# ---------------------------------------------------------------------------
# null-space machinery
# ---------------------------------------------------------------------------


def _full_svd_null_space(matrix: np.ndarray):
    """Oracle for ``_null_space``: count and vectors from one full SVD."""
    _, svals, vh = np.linalg.svd(matrix, full_matrices=False)
    count = _null_count(svals, matrix.shape[1])
    columns = vh[len(svals) - count :].conj().T if svals[0] else np.eye(count, dtype=complex)
    return columns, sorted(float(s) for s in svals)


def test_null_space_gap_guard(monkeypatch):
    ambiguous = np.diag([1.0, 3e-8]).astype(complex)
    with pytest.raises(AmbiguousKernelError) as err:
        _null_space(ambiguous)
    assert len(err.value.singular_values) == 2
    clean_cols, svals = _null_space(np.diag([1.0, 1e-12]).astype(complex))
    assert clean_cols.shape[1] == 1
    assert svals == sorted(svals)
    # the count path applies the same rule to values-only singular values
    with pytest.raises(AmbiguousKernelError) as err:
        _null_count(np.linalg.svd(ambiguous, compute_uv=False), 2)
    assert err.value.singular_values == (3e-8, 1.0)
    clean = np.diag([1.0, 1e-12]).astype(complex)
    assert NULL_SPACE_REL_THRESHOLD == 1e-8
    assert _null_count(np.linalg.svd(clean, compute_uv=False), 2) == 1
    # a zero matrix is null in every column, also wider than tall
    zero = np.zeros((2, 3), dtype=complex)
    assert _null_count(np.linalg.svd(zero, compute_uv=False), 3) == 3
    assert np.array_equal(_null_space(zero)[0], np.eye(3))
    # the threshold is read at call time
    monkeypatch.setattr(kernels, "NULL_SPACE_REL_THRESHOLD", 1e-13)
    assert _null_count(np.linalg.svd(clean, compute_uv=False), 2) == 0


def test_kernel_basis_pinned_dimensions():
    k = kernel_basis(pair("z^-1", "z"), 4)
    assert k.dim == 2 == l2_kernel(k.pair).dim
    expected = [lp("1 - z^-2"), lp("z - z^-1")]
    assert subspace_angle(list(k.basis), expected) <= 1e-10

    k = kernel_basis(pair("z^-1", "1"), 4)
    assert k.dim == 1 == l2_kernel(k.pair).dim
    assert subspace_angle(list(k.basis), [lp("1 - z^-1")]) <= 1e-10

    # b vanishes at 1: no index to compare with
    for band in (32, 64):
        k = kernel_basis(pair("1", "1 - z"), band)
        assert k.dim == 0 and l2_kernel(k.pair) is None


def _rooted(rng, kmin: int) -> LaurentPoly:
    """z^kmin times a monic polynomial with 1 or 2 roots of log-uniform modulus."""
    moduli = np.exp(rng.uniform(math.log(0.005), math.log(200.0), size=int(rng.integers(1, 3))))
    roots = moduli * np.exp(2j * np.pi * rng.random(len(moduli)))
    return LaurentPoly.from_dense(np.poly(roots)[::-1].astype(complex), kmin)


def test_values_first_null_space_matches_full_svd():
    rng = np.random.default_rng(5)
    seen = Counter()
    for _ in range(30):
        p = SymbolPair(_rooted(rng, int(rng.integers(-1, 2))), _rooted(rng, int(rng.integers(-1, 2))))
        for kind in ("paired", "transposed"):
            for n in (2, 8, 17):
                matrix = exact_action_matrix(p, n, kind=kind)
                try:
                    columns, svals = _full_svd_null_space(matrix)
                except AmbiguousKernelError:
                    with pytest.raises(AmbiguousKernelError):
                        _null_space(matrix)
                    seen["refused"] += 1
                    continue
                got_columns, got_svals = _null_space(matrix)
                assert got_columns.shape == columns.shape
                assert np.array_equal(got_columns, columns)
                # LAPACK computes values with and without vectors on different paths
                assert max(abs(s - t) for s, t in zip(got_svals, svals)) <= 1e-14 * svals[-1]
                seen[columns.shape[1] > 0] += 1
    assert seen[True] and seen[False] and seen["refused"]


def _far_rooted(rng, kmin: int) -> LaurentPoly:
    """z^kmin times a monic polynomial with 1 or 2 roots at least 0.3 from the circle."""
    count = int(rng.integers(1, 3))
    moduli = np.where(rng.random(count) < 0.5, rng.uniform(0.05, 0.7, count), rng.uniform(1.3, 8.0, count))
    roots = moduli * np.exp(2j * np.pi * rng.random(count))
    return LaurentPoly.from_dense(np.poly(roots)[::-1].astype(complex), kmin)


def test_index_matches_large_band_null_count():
    # at band 96 the slowest kernel tail, (1/1.3)^96 ~ 1e-11, is far below the threshold
    rng = np.random.default_rng(13)
    seen = Counter()
    for _ in range(12):
        p = SymbolPair(_far_rooted(rng, int(rng.integers(-1, 2))), _far_rooted(rng, int(rng.integers(-1, 2))))
        expected = l2_kernel(p).dim
        for kind in ("paired", "transposed"):
            assert _full_svd_null_space(exact_action_matrix(p, 96, kind=kind))[0].shape[1] == expected
            seen[expected > 0] += 1
    assert seen[True] and seen[False]


def test_winding_unknown_off_the_fredholm_case():
    assert wind(lp("z^-2 * (z - 0.5) * (z - 3)")) == -1
    assert wind(lp("2*z^3")) == 3
    for symbol in (LaurentPoly.zero(), lp("1 - z"), lp("z - 1.000000001")):
        assert wind(symbol) is None and not invertible_on_circle(symbol)
    assert wind(lp("z - 1.001")) == 0 and not invertible_on_circle(lp("z - 1.001"), 1e-2)


@st.composite
def clustered_symbols(draw):
    """(z^shift * prod of up to three root clusters, its winding number).

    Each cluster is an m-fold root, m in 1..16, of modulus in [0.5, 0.95] or
    [1.05, 2] and any argument; a root solve scatters it over a disk of
    radius about eps^(1/m), which for large m reaches across the circle.
    """
    clusters = draw(
        st.lists(
            st.tuples(
                st.integers(1, 16),
                st.one_of(st.floats(0.5, 0.95), st.floats(1.05, 2.0)),
                st.floats(0.0, 2 * math.pi),
            ),
            min_size=1,
            max_size=3,
        )
    )
    shift = draw(st.integers(-3, 3))
    roots = [modulus * cmath.exp(1j * angle) for m, modulus, angle in clusters for _ in range(m)]
    return poly_from_roots(roots, 1.0, shift), shift + sum(m for m, modulus, _ in clusters if modulus < 1.0)


@settings(max_examples=60, deadline=None)
@given(clustered_symbols())
def test_winding_is_right_or_refused(drawn):
    symbol, expected = drawn
    assert wind(symbol) in (None, expected)


def test_winding_refuses_clusters_whose_disks_reach_the_circle():
    # computed roots alone would read 10, 9 and 4 here
    for root, multiplicity in ((0.9, 16), (0.95, 12), (1.05, 12)):
        assert wind(poly_from_roots([root] * multiplicity)) is None
    assert wind(poly_from_roots([0.5] * 8)) == 8
    assert wind(lp("z - 1.000000001")) is None


@pytest.mark.parametrize(
    "call, solves",
    [
        (lambda p: invertible_on_circle(p.b), 1),
        (lambda p: kernel_basis(p, 24), 0),
        (lambda p: coburn_check(p, 24), 3),
        (lambda p: l2_kernel(p), 2),
    ],
    ids=["invertible_on_circle", "kernel_basis", "coburn_check", "l2_kernel"],
)
def test_one_root_solve_per_symbol(monkeypatch, call, solves):
    calls = []
    solve = kernels.poly_roots
    monkeypatch.setattr(kernels, "poly_roots", lambda p: calls.append(p) or solve(p))
    call(pair("1 - 0.2*z", "z^2 - 0.25*z"))
    assert len(calls) == solves


def test_failed_root_solve_leaves_the_index_unknown(monkeypatch):
    def failing(_):
        raise FactorizationError("root residual above tolerance")

    monkeypatch.setattr(kernels, "poly_roots", failing)
    p = pair("1", "z - 0.3")
    assert l2_kernel(p) is None and coburn_check(p, 8).route == "band-limited"
    # the band-limited route reads no roots
    assert kernel_basis(p, 8).dim == 0


def test_certified_pinned_cases(monkeypatch):
    # the band-limited dimension against the index dimension of l2_kernel
    p = pair("1", "z - 0.01")
    assert (kernel_basis(p, 2).dim, kernel_basis(p, 8).dim, l2_kernel(p).dim) == (0, 1, 1)
    # the known shortfall: dim 0 at band 8, where the index says 1
    p = pair("1", "z - 0.3")
    k = kernel_basis(p, 8)
    assert (k.dim, l2_kernel(p).dim) == (0, 1)
    assert not {"stabilized", "certified", "expected_dim"} & set(k.to_json_dict())
    p = pair("z^-1", "z - 0.05")
    assert (kernel_basis(p, 5).dim, kernel_basis(p, 12).dim, l2_kernel(p).dim) == (1, 2, 2)
    # one action matrix and one values-only SVD per basis, at band N only
    bands = []
    build = kernels.exact_action_matrix
    monkeypatch.setattr(kernels, "exact_action_matrix", lambda p, n, kind: bands.append(n) or build(p, n, kind=kind))
    k = kernel_basis(pair("1", "z - 0.3"), 11)
    assert (k.dim, bands) == (0, [11])


def test_svd_counts_per_call(monkeypatch):
    counts = Counter()
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        counts["full" if kwargs.get("compute_uv", True) else "values"] += 1
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    kernel_basis(pair("z^-1", "z"), 8)
    assert counts == {"full": 1, "values": 1}

    # the index route settles all four dimensions without an SVD; off it,
    # each of the four band-limited kernels takes one values-only SVD
    counts.clear()
    coburn_check(pair("1", "z"), 8)
    assert counts == {}
    coburn_check(pair("1", "1 - z"), 8)
    assert counts == {"values": 4}

    # dim 0 below the index 1: no vectors, and no wider band
    counts.clear()
    kernel_basis(pair("1", "z - 0.01"), 2)
    assert counts == {"values": 1}

    # only sections below op_norm's size rule take the SVD: N = 16, and
    # N = 8, 16, 32 of the five norm_bounds sections; 64 and 128 take Lanczos
    counts.clear()
    op_norm(pair("1", "z"), 16)
    check_norm_bounds(lp("1 + z"), lp("2 - z^-1"))
    assert counts == {"values": 4}


def test_kernel_basis_membership_and_gram():
    k = kernel_basis(pair("z^-1", "z"), 6)
    for v in k.basis:
        assert apply_paired(k.pair, v).l2_norm() <= 1e-10
    mat = np.column_stack([v.to_dense(-6, 6) for v in k.basis])
    gram = mat.conj().T @ mat
    assert np.max(np.abs(gram - np.eye(k.dim))) <= 1e-12


def test_membership_residual_is_an_exact_cancellation():
    p = pair("z^-1", "z")
    assert _residual(p, lp("z - z^-1"), "paired") == 0.0
    assert _residual(p, LaurentPoly.zero(), "paired") == 0.0
    # a non-member reads the same at every common scale of a and b
    outside = lp("1 + 2*z - z^-1")
    ratios = {_residual(SymbolPair(p.a * c, p.b * c), outside, "paired") for c in (1e-300, 1.0, 1e300)}
    assert len(ratios) == 1 and ratios.pop() > 1e-2
    # P+(a v) + P-(b v) for the transposed kind: 1 lies in the transposed kernel of (z^-1, 1)
    assert _residual(pair("z^-1", "1"), lp("1"), "transposed") == 0.0
    assert _residual(pair("z^-1", "1"), lp("z"), "transposed") == 1.0
    # rational parts clear their denominators: f = 1 - 1/(z - 0.3) in ker(1, z - 0.3)
    minus = RationalSymbol(lp("-1"), lp("z - 0.3"))
    assert _paired_residual(lp("1"), lp("z - 0.3"), RationalSymbol.one(), minus) == 0.0
    assert _paired_residual(RationalSymbol(lp("2"), lp("2")), lp("z - 0.3"), lp("1"), minus) == 0.0
    assert _paired_residual(lp("1"), lp("z - 0.3"), lp("1"), minus * 2.0) == 0.5  # |a f+ - 2 a f+| / |2 a f+|


def _dim_or_refused(p: SymbolPair, band: int) -> int | None:
    try:
        return kernel_basis(p, band).dim
    except AmbiguousKernelError:
        return None


def test_kernel_basis_is_scale_invariant_off_the_fredholm_class():
    # b = (1 - z) q vanishes on the circle, so only the band-limited route
    # answers; a common factor c changes neither the kernel nor its certificate
    cases = [(pair("z^-2", "1 - z"), 8)]
    for seed in range(12):
        rng = np.random.default_rng(seed)
        a = _rooted(rng, int(rng.integers(-3, 1)))
        b = _rooted(rng, int(rng.integers(-1, 2))) * lp("1 - z")
        cases.append((SymbolPair(a, b), int(rng.integers(6, 13))))
    seen = Counter()
    for p, band in cases:
        assert l2_kernel(p) is None
        expected = _dim_or_refused(p, band)
        for c in (1e-12, 1e12):
            assert _dim_or_refused(SymbolPair(p.a * c, p.b * c), band) == expected, (p, band, c)
        seen["refused" if expected is None else expected > 0] += 1
    assert seen[True] >= 3 and seen[False] and seen["refused"]
    assert _dim_or_refused(*cases[0]) == 2


def test_kernel_basis_rejects_degenerate():
    with pytest.raises(DegeneratePairError):
        kernel_basis(pair("1", "1"), 4)
    with pytest.raises(DegeneratePairError):
        kernel_basis(SymbolPair(LaurentPoly.zero(), lp("z")), 4)


# ---------------------------------------------------------------------------
# Toeplitz bridge
# ---------------------------------------------------------------------------


def test_subspace_angle_ignores_a_common_scale():
    # sin of the angle between span(1 + z) and span(1 + z + 1e-3 z^2) is 1e-3/sqrt(2) to first order
    angles = [subspace_angle([lp("1 + z") * s], [lp("1 + z + 0.001*z^2") * s]) for s in (1.0, 1e-13, 1e13)]
    assert abs(angles[0] - 7.07e-4) <= 1e-6
    assert angles[1:] == pytest.approx([angles[0]] * 2, rel=1e-9)


def test_bridge_pinned():
    r = toeplitz_kernel_bridge(lp("z^-1"), 8)
    assert r.dim_toeplitz == 1 and r.dim_projected == 1
    assert r.angle <= 1e-8

    r = toeplitz_kernel_bridge(lp("z"), 8)
    assert r.dim_toeplitz == 0 and r.dim_projected == 0
    assert r.angle <= 1e-8

    r = toeplitz_kernel_bridge(lp("z^-2"), 8)
    assert r.dim_toeplitz == 2 and r.dim_projected == 2
    assert r.angle <= 1e-8


def bridge_with_escalation(g, band=12, cap=128):
    while band <= cap:
        try:
            return toeplitz_kernel_bridge(g, band)
        except AmbiguousKernelError:
            band *= 2
    raise AssertionError("bridge band escalation exhausted")


def test_bridge_random_symbols():
    rng = np.random.default_rng(61)
    for _ in range(10):
        k = int(rng.integers(1, 4))
        degree = int(rng.integers(0, 4))
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        g = LaurentPoly.from_dense(coeffs, 0).shift(-k)
        if g.is_zero or (g - LaurentPoly.one()).is_zero:
            continue
        r = bridge_with_escalation(g)
        assert r.dim_toeplitz == r.dim_projected
        assert r.angle <= 1e-8


# ---------------------------------------------------------------------------
# kernel equality criterion
# ---------------------------------------------------------------------------


def test_same_kernel_multiplied_pair():
    eta = lp("1 + 2*z")
    base = pair("z^-1", "1")
    scaled = SymbolPair(eta * base.a, eta * base.b)
    assert same_kernel_test(base, scaled)


def test_same_kernel_negative_case():
    assert not same_kernel_test(pair("z^-1", "z"), pair("z^-2", "z^2"))


def test_same_kernel_scalar_multiple():
    assert same_kernel_test(pair("1", "z"), pair("2", "2*z"))


def test_same_kernel_ignores_a_common_scale():
    # the cross products differ by 0.5 z^-1 against 1 at every scale
    for scale in (1.0, 1e-7, 1e7):
        first = SymbolPair(lp("z^-1") * scale, lp("z") * scale)
        second = SymbolPair(lp("z^-1") * scale, lp("z + 0.5") * scale)
        assert not same_kernel_test(first, second)
        assert same_kernel_test(first, SymbolPair(lp("z^-1"), lp("z")))


def test_same_kernel_requires_nondegenerate():
    with pytest.raises(DegeneratePairError):
        same_kernel_test(pair("1", "1"), pair("1", "z"))


# ---------------------------------------------------------------------------
# explicit kernel elements
# ---------------------------------------------------------------------------


def test_kernel_element_direct_pinned():
    f = kernel_element_direct(lp("z^-1"), lp("1"))
    assert f == lp("1 - z^-1")
    assert apply_paired(pair("z^-1", "1"), f).is_zero

    f = kernel_element_direct(lp("z^-3"), lp("z^2 + 1"))
    assert apply_paired(pair("z^-3", "z^2 + 1"), f).l2_norm() <= 1e-13


def test_kernel_element_direct_shift_identity():
    base = pair("z^-1", "1")
    shifted = SymbolPair(lp("z") * base.a, lp("z") * base.b)
    assert same_kernel_test(base, shifted)
    f = kernel_element_direct(base.a, base.b)
    assert apply_paired(shifted, f).l2_norm() <= 1e-13


def test_kernel_element_direct_preconditions():
    with pytest.raises(ValueError):
        kernel_element_direct(lp("1"), lp("z"))  # first symbol not vanishing
    with pytest.raises(ValueError):
        kernel_element_direct(lp("z^-1"), lp("z^-1"))  # second not analytic


def test_kernel_element_inner_factor_monomial_cases():
    f = kernel_element_from_inner_factor(lp("z^-1"), lp("z"))
    assert f == lp("1 - z^-2")
    f = kernel_element_from_inner_factor(lp("z^-2"), lp("z^2"))
    assert f == lp("z - z^-3")


def test_kernel_element_inner_factor_blaschke_case():
    a = lp("z^-1 + 2")
    b = lp("z - 0.5")
    f = kernel_element_from_inner_factor(a, b)
    assert not f.is_zero
    assert apply_paired(SymbolPair(a, b), f).l2_norm() <= 1e-9


def test_kernel_element_inner_factor_rejects_trivial_inner():
    with pytest.raises(ValueError):
        kernel_element_from_inner_factor(lp("z^-1"), lp("z - 2"))
    with pytest.raises(ValueError):
        kernel_element_from_inner_factor(lp("z"), lp("z"))


# ---------------------------------------------------------------------------
# pair determined by one function
# ---------------------------------------------------------------------------


def test_pair_from_function_matches_known_kernels():
    kp = pair_from_function(lp("1 - z^-1"))
    assert kp.residual <= 1e-9
    assert same_kernel_test(kp, pair("z^-1", "1"))

    kp = pair_from_function(lp("1 - z^-2"))
    assert kp.residual <= 1e-9
    assert same_kernel_test(kp, pair("z^-1", "z"))


def test_pair_from_function_halfspace_conventions():
    kp = pair_from_function(lp("z - 0.5"))
    assert kp.convention == "analytic_halfspace"
    assert kp.a.num.is_zero and kp.b.num == LaurentPoly.one()
    # the degenerate pair still annihilates the source
    assert apply_paired(SymbolPair(kp.a.num, kp.b.num), lp("z - 0.5")).is_zero

    kp = pair_from_function(lp("z^-2 + z^-1"))
    assert kp.convention == "coanalytic_halfspace"
    assert apply_paired(SymbolPair(kp.a.num, kp.b.num), lp("z^-2 + z^-1")).is_zero


def test_pair_from_function_random_annihilation():
    rng = np.random.default_rng(67)
    for _ in range(15):
        plus = LaurentPoly.from_dense(rng.standard_normal(4) + 1j * rng.standard_normal(4), 0)
        minus = LaurentPoly.from_dense(rng.standard_normal(3) + 1j * rng.standard_normal(3), -3)
        phi = plus + minus
        if plus.is_zero or minus.is_zero:
            continue
        kp = pair_from_function(phi)
        assert kp.residual <= 1e-9


def test_pair_from_function_rejects_zero():
    with pytest.raises(ValueError):
        pair_from_function(LaurentPoly.zero())


# ---------------------------------------------------------------------------
# conjugation map between mirrored kernels
# ---------------------------------------------------------------------------


def test_kernel_conjugate_pinned():
    p = pair("z^-1", "1")
    phi = lp("1 - z^-1")
    image = kernel_conjugate(phi, p)
    assert image == lp("z^-1 - 1")
    assert apply_paired(p.conj_swapped(), image).is_zero


def test_kernel_conjugate_involution():
    p = pair("z^-1", "z")
    phi = lp("z - z^-1")
    image = kernel_conjugate(phi, p)
    back = kernel_conjugate(image, p.conj_swapped())
    assert back == phi


def test_kernel_conjugate_antilinear():
    p = pair("z^-1", "1")
    phi = lp("1 - z^-1")
    alpha = 2 + 3j
    lhs = kernel_conjugate(phi * alpha, p)
    rhs = kernel_conjugate(phi, p) * complex(alpha).conjugate()
    assert (lhs - rhs).max_abs_coeff() <= 1e-14


def test_kernel_conjugate_dimension_transfer():
    cases = [pair("z^-1", "z"), pair("z^-1", "1"), pair("z^-2", "z^2 + 1")]
    for p in cases:
        k = kernel_basis(p, 6)
        mirrored = kernel_basis(p.conj_swapped(), 7)
        assert mirrored.dim == k.dim
        images = [kernel_conjugate(v, p) for v in k.basis]
        if images:
            # images stay orthonormal and land in the mirrored kernel
            mat = np.column_stack([v.to_dense(-7, 7) for v in images])
            assert np.max(np.abs(mat.conj().T @ mat - np.eye(k.dim))) <= 1e-10
            assert subspace_angle(images, list(mirrored.basis)) <= 1e-8


def test_kernel_conjugate_zero_and_rejection():
    p = pair("z^-1", "1")
    assert kernel_conjugate(LaurentPoly.zero(), p).is_zero
    with pytest.raises(ValueError):
        kernel_conjugate(lp("1 + z"), p)


# ---------------------------------------------------------------------------
# adjoint kernel transfer
# ---------------------------------------------------------------------------


def test_adjoint_kernel_pinned_dimensions():
    k = adjoint_kernel_basis(pair("z", "1"), 6)
    assert k.dim == 1
    assert subspace_angle(list(k.basis), [lp("1")]) <= 1e-10

    assert adjoint_kernel_basis(pair("1", "z"), 6).dim == 0


def test_adjoint_kernel_map_pinned():
    p = pair("z", "1")
    psi = lp("1")
    image = adjoint_kernel_map(psi, p)
    assert image == lp("z^-1 - 1")
    assert apply_paired(p.conjugated(), image).l2_norm() <= 1e-12


def test_adjoint_inverse_cases_agree():
    p = pair("z", "1")
    phi = lp("z^-1 - 1")
    # a = z and b = 1 are invertible on the circle; a - b = z - 1 is not
    assert invertible_on_circle(p.a) and invertible_on_circle(p.b)
    assert not invertible_on_circle(p.a - p.b)
    via_a = adjoint_kernel_map_inverse(phi, p, "a")
    via_b = adjoint_kernel_map_inverse(phi, p, "b")
    assert (via_a - lp("1")).l2_norm() <= 1e-9
    assert (via_b - lp("1")).l2_norm() <= 1e-9
    report = adjoint_inverse_report(phi, p)
    assert report.applicable == ("a", "b")
    assert report.max_discrepancy <= 1e-9


def test_adjoint_round_trip():
    p = pair("z", "1")
    for psi in adjoint_kernel_basis(p, 6).basis:
        phi = adjoint_kernel_map(psi, p)
        for case in ("a", "b"):
            back = adjoint_kernel_map_inverse(phi, p, case)
            assert (back - psi).l2_norm() <= 1e-9


def test_adjoint_inverse_rejects_non_invertible_case():
    p = pair("z", "1")
    phi = lp("z^-1 - 1")
    from pairedops.symbols import ConditioningError

    with pytest.raises(ConditioningError):
        adjoint_kernel_map_inverse(phi, p, "difference")


def test_adjoint_trivial_kernel_all_invertible():
    p = pair("2", "1")
    k = adjoint_kernel_basis(p, 6)
    assert k.dim == 0
    assert invertible_on_circle(p.a) and invertible_on_circle(p.b)
    assert invertible_on_circle(p.a - p.b)


def test_reciprocal_symbol_exact_shift():
    r = reciprocal_symbol(lp("z^-1"))
    assert r.num == lp("z") and r.den == LaurentPoly.one()
    from pairedops.symbols import ConditioningError

    with pytest.raises(ConditioningError):
        reciprocal_symbol(lp("1 - z"))


# ---------------------------------------------------------------------------
# Coburn dichotomy
# ---------------------------------------------------------------------------


def test_coburn_pinned_cases():
    r = coburn_check(pair("1", "z"), 8)
    assert (r.dim_kernel, r.dim_swapped) == (1, 0)
    assert r.dichotomy_holds and r.conjugate_dims_match
    assert r.adjoint_dim_matches

    r = coburn_check(pair("z^-1", "z"), 8)
    assert (r.dim_kernel, r.dim_swapped) == (2, 0)
    assert r.dichotomy_holds and r.conjugate_dims_match

    r = coburn_check(pair("1", "1 - z"), 16)
    assert (r.dim_kernel, r.dim_swapped) == (0, 0)
    assert r.dichotomy_holds


def test_coburn_solves_each_symbol_once(monkeypatch):
    calls = []
    solve = kernels.poly_roots
    monkeypatch.setattr(kernels, "poly_roots", lambda p: calls.append(p) or solve(p))
    p = pair("1 - 0.2*z", "z^2 - 0.25*z")  # wind a = 0, wind b = 2
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: svds.append(args) or svd(*args, **kwargs))
    r = coburn_check(p, 24)
    assert len(calls) == 3 and not svds  # a, b and a - b; the index route takes no SVD
    assert r.route == "index" and r.invertible_cases == ("a", "b", "difference")
    assert (r.dim_kernel, r.dim_swapped, r.dim_conjugated, r.dim_adjoint) == (2, 0, 0, 0)
    # the band-limited route solves each symbol once too, and takes the SVDs
    calls.clear()
    r = coburn_check(pair("1 - z", "z^2 - 0.25*z"), 8)
    assert len(calls) == 3 and svds
    assert r.route == "band-limited" and r.invertible_cases == ("b", "difference")


def test_coburn_rejects_zero_symbol():
    with pytest.raises(DegeneratePairError):
        coburn_check(SymbolPair(LaurentPoly.zero(), lp("z")), 8)


def test_coburn_equal_symbols_special_case():
    r = coburn_check(pair("1 + z", "1 + z"), 8)
    assert r.degenerate_difference and r.route == "band-limited"
    assert (r.dim_kernel, r.dim_swapped, r.dim_conjugated, r.dim_adjoint) == (0, 0, 0, 0)
    assert r.dichotomy_holds and r.adjoint_dim_matches is None


# ---------------------------------------------------------------------------
# closed-form L2 kernels, with the band-limited SVD route as the oracle
# ---------------------------------------------------------------------------


def _fredholm_symbol(rng: np.random.Generator) -> LaurentPoly:
    """c z^k prod(z - r): one to three roots of modulus in [0.1, 0.6] or [1.7, 4], k in -2..2."""
    count = int(rng.integers(1, 4))
    moduli = np.where(rng.random(count) < 0.5, rng.uniform(0.1, 0.6, count), rng.uniform(1.7, 4.0, count))
    roots = moduli * np.exp(2j * np.pi * rng.random(count))
    lead = rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.random())
    return poly_from_roots(roots.tolist(), lead, int(rng.integers(-2, 3)))


def _truncations(kernel, band: int) -> list[LaurentPoly]:
    """The basis elements on exponents [-band, band]; the tails are below 0.6^band."""
    return [rational_to_coeffs(p, band).coeffs + rational_to_coeffs(m, band).coeffs for p, m in kernel.basis]


@pytest.mark.parametrize("seed", range(20))
def test_l2_kernel_agrees_with_the_band_limited_kernel(seed):
    rng = np.random.default_rng(seed)
    p = SymbolPair(_fredholm_symbol(rng), _fredholm_symbol(rng))
    dims = []
    for variant in (p, p.swapped(), p.conjugated()):
        closed = l2_kernel(variant)
        svd = kernel_basis(variant, 64)
        assert closed.dim == svd.dim == max(0, closed.wind_b - closed.wind_a)
        assert closed.residual <= 1e-10
        assert subspace_angle(svd.basis, _truncations(closed, 64)) <= 1e-9
        dims.append(closed.dim)
    assert kernel_basis(p, 64, kind="transposed").dim == dims[0]
    report = coburn_check(p, 64)
    assert report.route == "index"
    assert (report.dim_kernel, report.dim_swapped, report.dim_conjugated) == tuple(dims)
    assert report.dim_adjoint == adjoint_kernel_basis(p, 64).dim


def test_l2_kernel_draws_cover_both_sides_of_the_dichotomy():
    # the oracle test above is not vacuous: its pairs have nontrivial kernels both ways
    dims = []
    for seed in range(20):
        rng = np.random.default_rng(seed)
        p = SymbolPair(_fredholm_symbol(rng), _fredholm_symbol(rng))
        dims.append((l2_kernel(p).dim, l2_kernel(p.swapped()).dim))
    assert sum(d > 0 for d, _ in dims) >= 5 and sum(d > 0 for _, d in dims) >= 5
    assert max(max(d) for d in dims) >= 3


def test_l2_kernel_pinned():
    k = l2_kernel(pair("1", "z - 0.3"))
    assert (k.wind_a, k.wind_b, k.dim, k.residual) == (0, 1, 1, 0.0)
    ((plus, minus),) = k.basis
    # f = 1 - 1/(z - 0.3): a*1 + b*(-1/(z - 0.3)) = 0
    assert plus == RationalSymbol.one()
    assert (minus.num, minus.den, minus.poles) == (lp("-1"), lp("z - 0.3"), (0.3,))
    k = l2_kernel(pair("z^-1", "z"))
    assert [(p.num, m.num) for p, m in k.basis] == [(lp("1"), lp("-z^-2")), (lp("z"), lp("-z^-1"))]
    assert l2_kernel(pair("z", "z^-1")).dim == 0


def test_l2_kernel_is_none_off_the_fredholm_class(monkeypatch):
    assert l2_kernel(pair("1", "1 - z")) is None
    assert l2_kernel(pair("(z - 1)*(z - 3)", "z")) is None
    # a 16-fold root at 0.9: the solve scatters it over moduli 0.73 to 1.09,
    # which would read wind b = 10; the inclusion disks cross the circle
    cluster = SymbolPair(lp("1"), poly_from_roots([0.9] * 16))
    assert sum(abs(r) < 1 for r in poly_roots(cluster.b).roots) < 16
    assert l2_kernel(cluster) is None
    # an 8-fold root at 0.5 stays well inside its disks
    assert l2_kernel(SymbolPair(lp("1"), poly_from_roots([0.5] * 8))).dim == 8
    with pytest.raises(DegeneratePairError):
        l2_kernel(pair("1 + z", "1 + z"))

    def failing(p):
        raise FactorizationError("root residual too large")

    monkeypatch.setattr(kernels, "poly_roots", failing)
    assert l2_kernel(pair("1", "z - 0.3")) is None


@pytest.mark.parametrize("seed", range(3))
def test_l2_kernel_elements_share_one_residual(seed):
    # element j is z^j times element 0, so certifying both ends certifies all
    rng = np.random.default_rng(seed)
    def roots(lo: float, hi: float) -> list:
        return (rng.uniform(lo, hi, 2) * np.exp(2j * np.pi * rng.random(2))).tolist()

    # wind a = -2 and wind b = 3
    p = SymbolPair(poly_from_roots(roots(1.5, 3.0), 0.7, -2), poly_from_roots(roots(0.1, 0.8) + roots(1.5, 3.0), 1j, 1))
    k = l2_kernel(p)
    assert k.dim == 5
    assert {_paired_residual(p.a, p.b, *f) for f in k.basis} == {k.residual}


def test_l2_certificate_refuses_a_wrong_element():
    a, b = lp("6 - 2*z"), lp("z - 0.3")  # wind a = 0, wind b = 1, -c_a/c_b = 2
    plus, minus = l2_kernel(SymbolPair(a, b)).basis[0]
    assert kernels._certify_l2_element(a, b, plus, minus) <= 1e-15
    # a pole inside the disk in the analytic part
    inside = RationalSymbol._from_poles(plus.num, plus.den * lp("z - 0.5"), plus.poles + (0.5,))
    # the factor -c_a/c_b dropped
    unscaled = RationalSymbol._from_poles(minus.num * 0.5, minus.den, minus.poles)
    # z^1 * minus does not vanish at infinity, though it annihilates z * plus
    shifted = (plus.shift(1), minus.shift(1))
    for bad in ((inside, minus), (plus, unscaled), shifted):
        with pytest.raises(AmbiguousKernelError):
            kernels._certify_l2_element(a, b, *bad)


def test_coburn_check_routes_share_keys_and_special_cases():
    p = pair("1 - 0.2*z", "z^2 - 0.25*z")
    r = coburn_check(p, 24)
    assert r.to_json_dict()["route"] == "index"
    # the index route does not read the band, which it only reports
    assert dataclasses.replace(coburn_check(p, 4), band=24) == r
    limited = coburn_check(pair("1", "1 - z"), 8)
    assert limited.to_json_dict()["route"] == "band-limited"
    assert set(limited.to_json_dict()) == set(r.to_json_dict())
    same = coburn_check(pair("1 + 0.5*z", "1 + 0.5*z"), 8)
    assert same.route == "index" and same.invertible_cases == ("a", "b")
    assert same.degenerate_difference and same.dim_kernel == 0


# ---------------------------------------------------------------------------
# multiplier invariance
# ---------------------------------------------------------------------------


def _invariance(p: SymbolPair, eta: LaurentPoly, f: LaurentPoly) -> tuple[bool, bool]:
    """(eta*f stays in the kernel, both Hankel parts vanish), from the registered check."""
    result = check_multiplier_invariance(p, eta, f)
    return result["keeps_kernel"], result["hankel_parts_vanish"]


def test_invariance_constant_multiplier():
    assert _invariance(pair("z^-1", "z"), lp("3"), lp("z - z^-1")) == (True, True)


def test_invariance_fails_consistently():
    result = check_multiplier_invariance(pair("z^-1", "z"), lp("z^2"), lp("1 - z^-2"))
    assert (result["keeps_kernel"], result["hankel_parts_vanish"]) == (False, False)
    assert result["hankel_plus_residual"] > 1e-8
    # f+(0) = 1 != 0, so zbar*f leaves; f = z - 1 of (zbar, z) has f+(0) = 0 and stays
    assert _invariance(pair("z^-1", "1"), lp("z^-1"), lp("1 - z^-1")) == (False, False)
    assert _invariance(pair("z^-1", "z"), lp("z^-1"), lp("z - z^-1")) == (True, True)
    assert _invariance(pair("z^-1", "1"), lp("z"), lp("1 - z^-1")) == (False, False)


def test_invariance_ignores_a_common_scale():
    # eta*f leaves the kernel and f- under z has a nonzero Hankel part, at every scale
    f = lp("1 - z^-1")
    for scale in (1e-12, 1.0, 1e12):
        assert _invariance(SymbolPair(lp("z^-1") * scale, lp("1") * scale), lp("z"), f) == (False, False)
        assert _invariance(pair("z^-1", "1"), lp("z"), f * scale) == (False, False)


def test_invariance_member_case():
    # eta = z^2 with a kernel element whose parts clear both Hankel conditions
    p = pair("z^-3", "z^3")
    f = kernel_element_from_inner_factor(p.a, p.b)
    keeps, vanish = _invariance(p, lp("z^2"), f)
    assert keeps == vanish
    assert _invariance(p, lp("1"), f)[0]


def test_invariance_requires_membership():
    with pytest.raises(ValueError):
        check_multiplier_invariance(pair("z^-1", "z"), lp("z"), lp("1 + z"))
