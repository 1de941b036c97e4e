"""Kernels of paired operators and the structure maps between them.

Two routes compute a kernel.

* **Index route** (:func:`l2_kernel`, :func:`l2_coburn`).  When a and b are
  invertible on the circle the operator is Fredholm, with index
  wind b - wind a, and its L2 kernel has a closed-form rational basis from
  the Wiener-Hopf factorization of b^-1 a: two root solves, one per symbol,
  and no SVD.  Every element f = f+ + f- is certified in exact arithmetic:
  f+ analytic with its poles outside the disk, f- strictly coanalytic with
  its poles inside, and a*f+ + b*f- = 0 after clearing denominators.
* **Band-limited route** (:func:`kernel_basis`, :func:`coburn_check`).  The
  null space of the exact band-growing action on trigonometric polynomials
  of band N, so every reported basis vector is a genuine kernel element of
  the operator restricted to them, not merely a null vector of a truncation.
  The band-limited kernel is always a subspace of the true kernel; the
  ``stabilized`` flag is evidence, not proof, that the two coincide.

Every winding number, Fredholm index and invertibility test reads one rule,
:func:`_root_split`: one root solve per symbol, whose inclusion disks must
all stay more than ``CIRCLE_MARGIN`` (1e-8) from the circle.  A root on or
near the circle, a root cluster whose disks reach it, or a failed solve
leaves the symbol not invertible and its winding number unknown.

On the band-limited route the dimension comes from a values-only SVD of the
band-N action matrix; a full SVD runs only when that count is positive, and
its null vectors become the basis.  For a Fredholm pair the index gives the
L2 kernel dimension max(0, wind b - wind a) (``expected_dim``).  A band-N
dimension equal to it is ``stabilized``; otherwise ``stabilized`` compares
the dimension with the null count of a values-only SVD of the band-(N+2)
action matrix, under the same threshold and gray-zone rule.

Singular values below 1e-8 of the largest one count as null; any singular
value landing in the gray zone just above the threshold, or a candidate
kernel element whose exact residual fails certification, raises
:class:`AmbiguousKernelError` instead of silently committing to a dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Literal, Sequence

import numpy as np

from .operators import (
    CoeffVector,
    DegeneratePairError,
    SymbolPair,
    apply_paired,
    apply_transposed,
    exact_action_matrix,
    riesz_minus,
    riesz_plus,
    toeplitz_window,
)
from .symbols import (
    CIRCLE_MARGIN,
    ConditioningError,
    LaurentPoly,
    RationalSymbol,
    in_conj_hardy,
    in_conj_hardy_vanishing,
    in_hardy,
    inner_outer_factor,
    is_nondegenerate,
    poly_from_roots,
    poly_roots,
    rational_to_coeffs_auto,
)

__all__ = [
    "AdjointInverseReport",
    "AmbiguousKernelError",
    "BridgeReport",
    "CoburnReport",
    "InvarianceReport",
    "KernelBasis",
    "KernelPair",
    "KernelProjections",
    "L2Kernel",
    "NULL_SPACE_REL_THRESHOLD",
    "adjoint_kernel_basis",
    "adjoint_kernel_map",
    "adjoint_kernel_map_inverse",
    "adjoint_inverse_report",
    "coburn_check",
    "invertible_on_circle",
    "kernel_basis",
    "kernel_conjugate",
    "kernel_element_direct",
    "kernel_element_from_inner_factor",
    "kernel_projections",
    "l2_coburn",
    "l2_kernel",
    "multiplier_invariance_test",
    "pair_from_function",
    "reciprocal_symbol",
    "same_kernel_test",
    "subspace_angle",
    "toeplitz_kernel_bridge",
]

NULL_SPACE_REL_THRESHOLD = 1e-8
_NULL_GAP_FACTOR = 10.0
_MEMBERSHIP_TOL = 1e-10
_EPS = float(np.finfo(float).eps)
# error bounds of the rational expansions behind explicit kernel elements
_INNER_FACTOR_CONVERSION_TOL = 1e-13
_CONVERSION_TOL = 1e-12


class AmbiguousKernelError(ArithmeticError):
    """Null-space detection could not separate zero from nonzero singular values."""

    def __init__(self, message: str, singular_values: Sequence[float]):
        super().__init__(message)
        self.singular_values = tuple(float(s) for s in singular_values)


def _null_count(svals: np.ndarray, width: int, rel_threshold: float) -> int:
    """Number of null directions of a matrix with ``width`` columns.

    ``svals`` are its singular values in descending order; values at most
    ``rel_threshold`` times the largest count as null, and a zero matrix is
    null in every column.  Raises :class:`AmbiguousKernelError` when a
    singular value lands between the threshold and ten times the threshold.
    """
    smax = float(svals[0])
    if smax == 0.0:
        return width
    threshold = rel_threshold * smax
    gray = [float(s) for s in svals if threshold < s < _NULL_GAP_FACTOR * threshold]
    if gray:
        raise AmbiguousKernelError(
            f"singular values {gray} within a factor {_NULL_GAP_FACTOR:g} of the "
            f"null threshold {threshold:.3e}",
            sorted(float(s) for s in svals),
        )
    return int(np.count_nonzero(svals <= threshold))


def _null_space(matrix: np.ndarray, rel_threshold: float = NULL_SPACE_REL_THRESHOLD):
    """Orthonormal null basis of a tall matrix with gap-checked thresholding.

    Returns (columns, singular_values_ascending).  The null count, the
    gray-zone refusal of :func:`_null_count` and the returned values all come
    from a values-only SVD; the full SVD runs only for a positive count of a
    nonzero matrix, and its last ``count`` right singular vectors are the basis.
    """
    if matrix.size == 0:
        raise ValueError("empty matrix")
    svals = np.linalg.svd(matrix, compute_uv=False)
    count = _null_count(svals, matrix.shape[1], rel_threshold)
    if count and svals[0]:
        columns = np.linalg.svd(matrix, full_matrices=False)[2][len(svals) - count :].conj().T
    else:
        # no null columns, or a zero matrix, null in every column
        columns = np.eye(matrix.shape[1], count, dtype=complex)
    return columns, sorted(float(s) for s in svals)


def _certified_null_space(
    matrix: np.ndarray, kmin: int, image: Callable, what: str, rel_threshold: float = NULL_SPACE_REL_THRESHOLD
) -> tuple[list[LaurentPoly], list[float]]:
    """:func:`_null_space` as vectors from exponent ``kmin``, each certified by its exact ``image``.

    A vector whose image norm exceeds 1e-10 times max(1, its norm) raises
    :class:`AmbiguousKernelError`, which names the vector by ``what``.
    """
    columns, svals = _null_space(matrix, rel_threshold)
    vectors = []
    for j in range(columns.shape[1]):
        v = LaurentPoly.from_dense(columns[:, j], kmin)
        r = image(v).l2_norm()
        if r > _MEMBERSHIP_TOL * max(1.0, v.l2_norm()):
            raise AmbiguousKernelError(
                f"{what} has exact-action residual {r:.3e}, above the kernel certification tolerance",
                svals,
            )
        vectors.append(v)
    return vectors, svals


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal basis of the band-limited kernel plus its diagnostics.

    ``expected_dim`` is the L2 kernel dimension the Fredholm index gives, or
    None when a symbol is not invertible on the circle.
    """

    pair: SymbolPair
    band: int
    basis: tuple[CoeffVector, ...]
    singular_values: tuple[float, ...]
    stabilized: bool
    transposed: bool = False
    expected_dim: int | None = None

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_json_dict(self) -> dict:
        return {
            "spec": self.pair.to_json_dict(),
            "N": self.band,
            "dim": self.dim,
            "stabilized": self.stabilized,
            "expected_dim": self.expected_dim,
            "transposed": self.transposed,
            "singular_values": list(self.singular_values),
            "basis": [v.to_json_dict() for v in self.basis],
        }


_Split = tuple[tuple[complex, ...], tuple[complex, ...]]


def _root_split(symbol: LaurentPoly, margin: float = CIRCLE_MARGIN) -> _Split | None:
    """(roots inside the disk, roots outside) of p = symbol * z^-kmin, certified.

    One :func:`poly_roots` solve.  None when the symbol is zero, the solve or
    the certificate fails, or an inclusion disk comes within ``margin`` of
    the circle: the symbol is then not invertible on the circle, or its
    winding number cannot be certified.

    The disks: p has degree n, leading coefficient c and distinct computed
    roots r_i, and W_i = p(r_i) / (c prod_{j != i} (r_i - r_j)).  The matrix
    diag(r) - W 1^T has characteristic polynomial p / c, since both are monic
    and agree at every r_i.  Its Gerschgorin disks, centre r_i - W_i and
    radius (n - 1)|W_i|, lie inside |z - r_i| <= n |W_i|.  So a connected
    component of k of these disks holds exactly k roots of p (Carstensen,
    Numer. Math. 59, 1991), and one that stays clear of the circle lies on
    one side of it together with its computed roots.  |p(r_i)| is taken as
    its computed value plus the rounding bound 2(n + 1) eps sum |c_k| |r_i|^k.
    A root cluster, which a solve scatters over a disk of radius about
    eps^(1/multiplicity), gives disks of about that radius, so near the
    circle it is refused rather than split.
    """
    if symbol.is_zero:
        return None
    lifted = symbol.shift(-symbol.kmin)
    n, lead = lifted.kmax, lifted.coeff(lifted.kmax)
    try:
        roots = poly_roots(lifted).roots if n else ()
        for i, r in enumerate(roots):
            gaps = math.prod(r - s for j, s in enumerate(roots) if j != i)
            modulus = abs(r)
            value = abs(lifted(r)) + 2 * (n + 1) * _EPS * sum(abs(c) * modulus**k for k, c in lifted.items())
            # `not x > margin` also refuses a NaN from an overflowing certificate
            if gaps == 0 or not abs(modulus - 1.0) - n * value / abs(lead * gaps) > margin:
                return None
    except ArithmeticError:
        return None
    return tuple(r for r in roots if abs(r) < 1.0), tuple(r for r in roots if abs(r) > 1.0)


def _winding(symbol: LaurentPoly) -> int | None:
    """Winding number of the symbol around 0 on the unit circle; None as in :func:`_root_split`."""
    split = _root_split(symbol)
    return None if split is None else symbol.kmin + len(split[0])


def _index_dim(wind_a: int | None, wind_b: int | None) -> int | None:
    """L2 kernel dimension max(0, wind b - wind a) of aP+ + bP- and of P+a + P-b.

    Both are Fredholm with index wind b - wind a when a and b are invertible
    on the circle, and by Coburn's lemma the kernel or the cokernel is
    trivial.  None when either winding number is unknown.
    """
    if wind_a is None or wind_b is None:
        return None
    return max(0, wind_b - wind_a)


def _expected_dim(a: LaurentPoly, b: LaurentPoly) -> int | None:
    """:func:`_index_dim` of (a, b)."""
    return _index_dim(_winding(a), _winding(b))


def _kernel_basis(
    pair: SymbolPair, band: int, kind: str, rel_threshold: float, expected_dim: int | None
) -> KernelBasis:
    """:func:`kernel_basis` of a nondegenerate pair, given its ``expected_dim``."""
    if band < 1:
        raise ValueError("band must be at least 1")
    apply = apply_paired if kind == "paired" else apply_transposed
    matrix = exact_action_matrix(pair, band, kind=kind)
    vectors, svals = _certified_null_space(matrix, -band, lambda v: apply(pair, v), "null candidate", rel_threshold)
    stabilized = expected_dim == len(vectors)
    if not stabilized:
        wider = exact_action_matrix(pair, band + 2, kind=kind)
        stabilized = _null_count(np.linalg.svd(wider, compute_uv=False), wider.shape[1], rel_threshold) == len(vectors)
    return KernelBasis(
        pair=pair,
        band=band,
        basis=tuple(vectors),
        singular_values=tuple(svals),
        stabilized=stabilized,
        transposed=(kind == "transposed"),
        expected_dim=expected_dim,
    )


def kernel_basis(
    pair: SymbolPair,
    band: int,
    *,
    kind: str = "paired",
    rel_threshold: float = NULL_SPACE_REL_THRESHOLD,
) -> KernelBasis:
    """Orthonormal basis of {v with band in [-N, N] : Op v = 0}, exact action.

    The dimension and the reported singular values come from a values-only
    SVD; only a nontrivial kernel takes a full SVD for its vectors.  Every
    returned vector is certified by applying the operator exactly and
    demanding a residual of at most 1e-10 (relative to the section scale);
    certification failures surface as :class:`AmbiguousKernelError`.

    ``expected_dim`` is max(0, wind b - wind a) when a and b are invertible
    on the circle, the same for ``kind="transposed"``.  A dimension equal to
    it is ``stabilized``.  Otherwise ``stabilized`` records whether the
    dimension equals the null count of a values-only SVD of the band-(N + 2)
    action matrix, under the same threshold and gray-zone rule (a gray value
    there also raises).
    """
    pair.require_nondegenerate()
    return _kernel_basis(pair, band, kind, rel_threshold, _expected_dim(pair.a, pair.b))


def adjoint_kernel_basis(
    pair: SymbolPair, band: int, *, rel_threshold: float = NULL_SPACE_REL_THRESHOLD
) -> KernelBasis:
    """Kernel of the adjoint of the paired operator of ``pair``.

    Realized as the exact kernel of the transposed operator of the
    conjugated pair, so membership is exact rather than a matrix adjoint of
    a truncation.  Conjugation negates winding numbers, so the expected
    dimension is max(0, wind a - wind b), read from the roots of a and b.
    """
    pair.require_nondegenerate()
    return _kernel_basis(pair.conjugated(), band, "transposed", rel_threshold, _expected_dim(pair.b, pair.a))


# ---------------------------------------------------------------------------
# closed-form L2 kernels of Fredholm pairs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class L2Kernel:
    """Basis of the L2 kernel of a Fredholm paired operator.

    Each element is f = plus + minus: ``plus`` analytic, with its poles
    outside the disk, and ``minus`` strictly coanalytic, with its poles inside.
    ``residual`` is the largest relative residual of the certificate over the
    basis (0 for a trivial kernel).
    """

    pair: SymbolPair
    wind_a: int
    wind_b: int
    basis: tuple[tuple[RationalSymbol, RationalSymbol], ...]
    residual: float

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_json_dict(self) -> dict:
        return {
            "spec": self.pair.to_json_dict(),
            "wind_a": self.wind_a,
            "wind_b": self.wind_b,
            "dim": self.dim,
            "residual": self.residual,
            "basis": [{"plus": p.to_json_dict(), "minus": m.to_json_dict()} for p, m in self.basis],
        }


def _certify_l2_element(a: LaurentPoly, b: LaurentPoly, plus: RationalSymbol, minus: RationalSymbol) -> float:
    """Relative residual of a*plus + b*minus = 0 with denominators cleared.

    Raises :class:`AmbiguousKernelError` unless ``plus`` is analytic with
    poles outside the disk, ``minus`` has poles inside and degree at most -1
    at infinity, and the residual of a*num+*den- + b*num-*den+ is at most
    1e-10 of the larger of the two terms.
    """
    if plus.num.kmin < 0 or not all(abs(p) > 1.0 for p in plus.poles):
        raise AmbiguousKernelError("the analytic part has a pole in the disk or a negative mode", ())
    if not all(abs(p) < 1.0 for p in minus.poles) or minus.num.kmax - minus.den.kmax > -1:
        raise AmbiguousKernelError("the coanalytic part has a pole outside the disk or no zero at infinity", ())
    left, right = a * plus.num * minus.den, b * minus.num * plus.den
    residual = (left + right).max_abs_coeff() / max(left.max_abs_coeff(), right.max_abs_coeff())
    if not residual <= _MEMBERSHIP_TOL:
        raise AmbiguousKernelError(f"closed-form kernel element has residual {residual:.3e}", ())
    return residual


def _l2_kernel(pair: SymbolPair, split_a: _Split, split_b: _Split) -> L2Kernel:
    """:func:`l2_kernel` of a pair whose symbols have the root splits ``split_a`` and ``split_b``.

    With a = c_a z^k_a prod(z - alpha) and b = c_b z^k_b prod(z - beta), the
    elements are, for j = 0 .. wind b - wind a - 1,

        plus_j  = z^j prod(z - beta_out) / prod(z - alpha_out)
        minus_j = -(c_a / c_b) z^(k_a - k_b + j) prod(z - alpha_in) / prod(z - beta_in),

    so that a*plus_j = -b*minus_j.  The poles are passed on, not solved again.
    """
    a, b = pair.a, pair.b
    (alpha_in, alpha_out), (beta_in, beta_out) = split_a, split_b
    wind_a, wind_b = a.kmin + len(alpha_in), b.kmin + len(beta_in)
    num_plus, den_plus = poly_from_roots(beta_out), poly_from_roots(alpha_out)
    num_minus = poly_from_roots(alpha_in, -a.coeff(a.kmax) / b.coeff(b.kmax), a.kmin - b.kmin)
    den_minus = poly_from_roots(beta_in)
    basis, residual = [], 0.0
    for j in range(wind_b - wind_a):
        plus = RationalSymbol._from_poles(num_plus.shift(j), den_plus, alpha_out)
        minus = RationalSymbol._from_poles(num_minus.shift(j), den_minus, beta_in)
        residual = max(residual, _certify_l2_element(a, b, plus, minus))
        basis.append((plus, minus))
    return L2Kernel(pair=pair, wind_a=wind_a, wind_b=wind_b, basis=tuple(basis), residual=residual)


def l2_kernel(pair: SymbolPair) -> L2Kernel | None:
    """The L2 kernel of aP+ + bP- in closed form, from one root solve per symbol.

    None when the root split of a or of b (:func:`_root_split`) is None, as
    for ``expected_dim``: the operator is not Fredholm, or its index cannot
    be certified.  Callers then fall back to :func:`kernel_basis`.  Every
    element is certified (see :func:`_certify_l2_element`); a failed
    certificate raises :class:`AmbiguousKernelError`.
    """
    pair.require_nondegenerate()
    split_a, split_b = _root_split(pair.a), _root_split(pair.b)
    if split_a is None or split_b is None:
        return None
    return _l2_kernel(pair, split_a, split_b)


@dataclass(frozen=True)
class KernelProjections:
    """Componentwise Riesz projections of a kernel basis."""

    plus: tuple[CoeffVector, ...]
    minus: tuple[CoeffVector, ...]


def kernel_projections(kernel: KernelBasis) -> KernelProjections:
    return KernelProjections(
        plus=tuple(riesz_plus(v) for v in kernel.basis),
        minus=tuple(riesz_minus(v) for v in kernel.basis),
    )


# ---------------------------------------------------------------------------
# subspace geometry
# ---------------------------------------------------------------------------


def _orthonormal(vectors: Sequence[CoeffVector], kmin: int, kmax: int) -> np.ndarray:
    q, r = np.linalg.qr(np.column_stack([v.to_dense(kmin, kmax) for v in vectors]))
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.max(np.abs(r))))
    return q[:, keep]


def _orthonormal_pair(first: Sequence[CoeffVector], second: Sequence[CoeffVector]):
    """Orthonormal bases of two nonempty spans over one common exponent window."""
    vectors = list(first) + list(second)
    kmin = min(v.kmin for v in vectors)
    kmax = max(v.kmax for v in vectors)
    return _orthonormal(first, kmin, kmax), _orthonormal(second, kmin, kmax)


def _sine(q_inner: np.ndarray, q_outer: np.ndarray) -> float:
    """sin of the largest angle from span(q_inner) into span(q_outer), both orthonormal."""
    return float(np.linalg.norm(q_inner - q_outer @ (q_outer.conj().T @ q_inner), 2))


def subspace_angle(
    first: Sequence[CoeffVector], second: Sequence[CoeffVector]
) -> float:
    """Largest principal angle (radians) between the spans of two vector lists.

    Computed through the sine of the angle, which stays accurate for nearly
    identical subspaces.  Empty-vs-empty is 0; dimensions differing leads to
    the maximal angle pi/2.
    """
    if not first and not second:
        return 0.0
    if not first or not second:
        return math.pi / 2
    q1, q2 = _orthonormal_pair(first, second)
    if q1.shape[1] != q2.shape[1]:
        return math.pi / 2
    return math.asin(min(1.0, max(_sine(q2, q1), _sine(q1, q2))))


def _containment_gap(inner: Sequence[CoeffVector], outer: Sequence[CoeffVector]) -> float:
    """sin of the largest angle from span(inner) into span(outer)."""
    if not inner:
        return 0.0
    if not outer:
        return 1.0
    return _sine(*_orthonormal_pair(inner, outer))


# ---------------------------------------------------------------------------
# Toeplitz bridge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BridgeReport:
    """Comparison of a Toeplitz kernel with the projected paired kernel."""

    symbol: LaurentPoly
    band: int
    dim_toeplitz: int
    dim_projected: int
    angle: float


def toeplitz_kernel_bridge(symbol: LaurentPoly, band: int) -> BridgeReport:
    """Compare ker of the analytic compression of M_G with P+ ker of (G, 1).

    The Toeplitz null vectors come from the coefficient window and are each
    certified by exact application; the report carries the largest principal
    angle between the two null spaces, which the bridge identity forces to
    zero (tested at 1e-8).
    """
    if symbol.is_zero:
        raise ValueError("bridge requires a nonzero symbol")
    top = band + max(0, symbol.kmax)
    window = toeplitz_window(symbol, range(top + 1), range(band + 1))
    toeplitz_null, _ = _certified_null_space(window, 0, lambda v: riesz_plus(symbol * v), "Toeplitz null candidate")
    kernel = kernel_basis(SymbolPair(symbol, LaurentPoly.one()), band)
    projected = [riesz_plus(v) for v in kernel.basis]
    angle = subspace_angle(toeplitz_null, projected)
    return BridgeReport(
        symbol=symbol,
        band=band,
        dim_toeplitz=len(toeplitz_null),
        dim_projected=len(projected),
        angle=angle,
    )


# ---------------------------------------------------------------------------
# kernel equality and explicit elements
# ---------------------------------------------------------------------------


def _as_rational(symbol) -> RationalSymbol:
    if isinstance(symbol, RationalSymbol):
        return symbol
    return RationalSymbol(symbol)


def same_kernel_test(first, second, tol: float = 1e-12) -> bool:
    """Exact cross-multiplication criterion for equality of two paired kernels.

    For nondegenerate pairs with a nontrivial kernel, the kernels agree
    exactly when  a1 * b2 = a2 * b1 ; the caller supplies the nontriviality
    evidence.  Accepts :class:`SymbolPair` as well as rational pairs such as
    :class:`KernelPair`; the products are compared coefficientwise after
    clearing denominators, relative to the largest coefficient.
    """
    for p in (first, second):
        if isinstance(p, SymbolPair):
            p.require_nondegenerate()
    a1, b1 = _as_rational(first.a), _as_rational(first.b)
    a2, b2 = _as_rational(second.a), _as_rational(second.b)
    lhs = a1.num * b2.num * a2.den * b1.den
    rhs = a2.num * b1.num * a1.den * b2.den
    scale = max(1.0, lhs.max_abs_coeff(), rhs.max_abs_coeff())
    return (lhs - rhs).max_abs_coeff() <= tol * scale


def kernel_element_direct(a: LaurentPoly, b: LaurentPoly) -> CoeffVector:
    """The kernel element b - a for strictly co-analytic a and analytic b.

    The analytic part of the result is b, the co-analytic part is -a, and the
    paired action cancels exactly:  a*b + b*(-a) = 0.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("both symbols must be nonzero")
    if not in_conj_hardy_vanishing(a):
        raise ValueError("first symbol must have only strictly negative modes")
    if not in_hardy(b):
        raise ValueError("second symbol must be analytic")
    return b - a


def kernel_element_from_inner_factor(a: LaurentPoly, b: LaurentPoly) -> CoeffVector:
    """An explicit nonzero kernel element when b carries a nontrivial inner factor.

    With b = (inner)(outer) and c = inner(0), the element is

        f  =  (b - c * outer) / z   +   ( -a * (1 - c * conj(inner)) / z )

    whose analytic part is an exact polynomial and whose co-analytic part is
    rational (truncated here with an automatically grown band).  The exact
    paired action on the result is verified to 1e-9.
    """
    if a.is_zero or b.is_zero:
        raise ValueError("both symbols must be nonzero")
    if not in_conj_hardy(a):
        raise ValueError("first symbol must be co-analytic")
    if not in_hardy(b):
        raise ValueError("second symbol must be analytic")
    io = inner_outer_factor(b)
    if io.inner_is_constant:
        raise ValueError("second symbol has a trivial inner factor")
    c = io.inner.value_at_zero()
    outer_poly = io.outer.as_laurent()
    numerator = b - outer_poly * c
    drift = numerator.coeff(0)
    f_plus = (numerator - LaurentPoly({0: drift})).shift(-1)
    if abs(c) < 1e-14:
        f_minus = (-a).shift(-1)
    else:
        rational = (RationalSymbol.one() - io.inner.conj_reflect() * c) * (-a)
        truncation = rational_to_coeffs_auto(rational.shift(-1), tol=_INNER_FACTOR_CONVERSION_TOL)
        f_minus = riesz_minus(truncation.coeffs)
    f = f_plus + f_minus
    if f.is_zero:
        raise ArithmeticError("constructed kernel element vanished")
    residual = apply_paired(SymbolPair(a, b), f).l2_norm()
    if residual > 1e-9 * max(1.0, f.l2_norm()):
        raise ArithmeticError(f"kernel element residual {residual:.3e} exceeds 1e-9")
    return f


# ---------------------------------------------------------------------------
# the pair determined by a single function
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelPair:
    """A symbol pair whose paired kernel contains a prescribed function."""

    a: RationalSymbol
    b: RationalSymbol
    convention: str  # "generic", "analytic_halfspace" or "coanalytic_halfspace"
    source: CoeffVector
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "a": self.a.to_json_dict(),
            "b": self.b.to_json_dict(),
            "residual": self.residual,
            "convention": self.convention,
            "source": self.source.to_json_dict(),
        }


def pair_from_function(phi: CoeffVector) -> KernelPair:
    """Construct the unique paired kernel containing a nonzero function.

    Generic case (both Riesz parts nonzero): factor the analytic part as
    inner*outer, reflect the co-analytic part to an analytic polynomial and
    factor it likewise, then combine the inner factors with reflected outer
    factors into a co-analytic symbol ``a`` and an analytic symbol ``b`` with
    a*phi_plus + b*phi_minus = 0 on the circle.

    If one Riesz part vanishes identically, no nondegenerate pair can
    annihilate the function (its kernel mate would have to vanish on a set of
    positive measure), so the halfspace conventions (0, 1) and (1, 0) are
    returned, whose kernels are exactly the corresponding halfspaces.
    """
    if phi.is_zero:
        raise ValueError("the zero function determines no paired kernel")
    plus = riesz_plus(phi)
    minus = riesz_minus(phi)
    if minus.is_zero:
        return KernelPair(
            a=RationalSymbol(LaurentPoly.zero()),
            b=RationalSymbol.one(),
            convention="analytic_halfspace",
            source=phi,
            residual=0.0,
        )
    if plus.is_zero:
        return KernelPair(
            a=RationalSymbol.one(),
            b=RationalSymbol(LaurentPoly.zero()),
            convention="coanalytic_halfspace",
            source=phi,
            residual=0.0,
        )

    io_plus = inner_outer_factor(plus)
    reflected = minus.conj_reflect()  # analytic, vanishing at 0
    io_refl = inner_outer_factor(reflected)

    a = io_plus.inner.conj_reflect() * io_refl.outer.conj_reflect()
    b = -(io_refl.inner * io_plus.outer)
    # the pair is only determined up to a common nonzero factor; normalize it
    # so conversion and residual tolerances see order-one magnitudes
    size = max(a.num.max_abs_coeff(), b.num.max_abs_coeff())
    if size > 0:
        a = a * (1.0 / size)
        b = b * (1.0 / size)

    a_c = rational_to_coeffs_auto(a, tol=_CONVERSION_TOL).coeffs
    b_c = rational_to_coeffs_auto(b, tol=_CONVERSION_TOL).coeffs
    residual = (a_c * plus + b_c * minus).l2_norm()
    scale = max(1.0, phi.l2_norm())
    if residual > 1e-9 * scale:
        raise ArithmeticError(f"annihilation residual {residual:.3e} exceeds 1e-9")
    return KernelPair(
        a=a,
        b=b,
        convention="generic",
        source=phi,
        residual=float(residual),
    )


# ---------------------------------------------------------------------------
# conjugation and adjoint transfer maps
# ---------------------------------------------------------------------------


def _check_membership(pair: SymbolPair, v: CoeffVector, kind: str, tol: float) -> None:
    apply = apply_paired if kind == "paired" else apply_transposed
    residual = apply(pair, v).l2_norm()
    if residual > tol * max(1.0, v.l2_norm()):
        raise ValueError(
            f"vector is not a kernel element (residual {residual:.3e} > {tol:.1e})"
        )


def kernel_conjugate(phi: CoeffVector, pair: SymbolPair) -> CoeffVector:
    """Antilinear transfer  phi -> zbar * conj(phi)  between mirrored kernels.

    Maps kernel elements of (a, b) onto kernel elements of (conj b, conj a);
    applying it twice, with the pair swapped accordingly, returns the input
    exactly.  The zero vector passes through.
    """
    _check_membership(pair, phi, "paired", _MEMBERSHIP_TOL)
    result = phi.conj_reflect().shift(-1)
    if not result.is_zero:
        _check_membership(pair.conj_swapped(), result, "paired", _MEMBERSHIP_TOL)
    return result


def invertible_on_circle(symbol: LaurentPoly, min_distance: float = CIRCLE_MARGIN) -> bool:
    """True when inclusion disks keep every root more than ``min_distance`` from the circle.

    For Laurent polynomials a root-free circle is exactly invertibility of
    the symbol as a bounded multiplier.  False also means that this could not
    be certified: the root solve failed, or the disks of a root cluster reach
    within ``min_distance`` of the circle (see :func:`_root_split`).
    """
    return _root_split(symbol, min_distance) is not None


def reciprocal_symbol(symbol: LaurentPoly) -> RationalSymbol:
    """1/symbol as a rational symbol; requires a certified root-free circle (:func:`invertible_on_circle`)."""
    split = _root_split(symbol)
    if split is None:
        raise ConditioningError("symbol has a root on or near the unit circle")
    inside, outside = split
    return RationalSymbol._from_poles(LaurentPoly.monomial(-symbol.kmin), symbol.shift(-symbol.kmin), inside + outside)


def adjoint_kernel_map(psi: CoeffVector, pair: SymbolPair) -> CoeffVector:
    """Transfer  psi -> (conj a - conj b) * psi  from ker of the adjoint.

    Sends kernel elements of the adjoint of the paired operator into the
    paired kernel of the conjugated pair.  Injective for nondegenerate pairs.
    """
    pair.require_nondegenerate()
    conj_pair = pair.conjugated()
    _check_membership(conj_pair, psi, "transposed", _MEMBERSHIP_TOL)
    result = (conj_pair.a - conj_pair.b) * psi
    if not result.is_zero:
        _check_membership(conj_pair, result, "paired", 1e-9)
    return result


_INVERSE_CASES = ("difference", "a", "b")


def adjoint_kernel_map_inverse(
    phi: CoeffVector,
    pair: SymbolPair,
    case: Literal["difference", "a", "b"],
) -> CoeffVector:
    """Inverse of :func:`adjoint_kernel_map` under an invertibility hypothesis.

    ``case`` selects which symbol is assumed invertible on the circle:

    * ``"difference"``: returns  phi / (conj a - conj b)
    * ``"a"``: returns  (P- phi) / conj a
    * ``"b"``: returns  -(P+ phi) / conj b

    The requested symbol is root-checked; the division is realized through a
    rational reciprocal truncated at an automatically grown band.
    """
    pair.require_nondegenerate()
    if case not in _INVERSE_CASES:
        raise ValueError(f"case must be one of {_INVERSE_CASES}")
    conj_pair = pair.conjugated()
    _check_membership(conj_pair, phi, "paired", _MEMBERSHIP_TOL)
    if case == "difference":
        divisor_source = pair.a - pair.b
        numerator = phi
    elif case == "a":
        divisor_source = pair.a
        numerator = riesz_minus(phi)
    else:
        divisor_source = pair.b
        numerator = -riesz_plus(phi)
    if not invertible_on_circle(divisor_source):
        raise ConditioningError(f"case {case!r}: symbol is not invertible on the circle")
    divisor = divisor_source.conj_reflect()
    if numerator.is_zero:
        return LaurentPoly.zero()
    quotient = RationalSymbol(LaurentPoly.one()) * numerator * reciprocal_symbol(divisor)
    result = rational_to_coeffs_auto(quotient, tol=_CONVERSION_TOL).coeffs
    _check_membership(conj_pair, result, "transposed", 1e-9)
    return result


@dataclass(frozen=True)
class AdjointInverseReport:
    """All applicable inverse-case results and their mutual agreement."""

    applicable: tuple[str, ...]
    results: dict
    max_discrepancy: float


def adjoint_inverse_report(phi: CoeffVector, pair: SymbolPair) -> AdjointInverseReport:
    """Evaluate every applicable inverse formula and report their agreement."""
    applicable = tuple(
        case
        for case, source in (
            ("difference", pair.a - pair.b),
            ("a", pair.a),
            ("b", pair.b),
        )
        if invertible_on_circle(source)
    )
    results = {case: adjoint_kernel_map_inverse(phi, pair, case) for case in applicable}
    values = list(results.values())
    max_disc = 0.0
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            max_disc = max(max_disc, (values[i] - values[j]).l2_norm())
    return AdjointInverseReport(applicable=applicable, results=results, max_discrepancy=max_disc)


# ---------------------------------------------------------------------------
# Coburn dichotomy
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoburnReport:
    """Kernel dimensions of the four associated operators and the dichotomy."""

    pair: SymbolPair
    band: int
    dim_kernel: int
    dim_swapped: int
    dim_conjugated: int
    dim_adjoint: int
    dichotomy_holds: bool
    conjugate_dims_match: bool
    invertible_cases: tuple[str, ...]
    adjoint_dim_matches: bool | None
    all_stabilized: bool
    degenerate_difference: bool = False
    # the bases behind dim_kernel and dim_adjoint; None for a degenerate difference
    kernel: KernelBasis | None = field(default=None, compare=False, repr=False)
    adjoint: KernelBasis | None = field(default=None, compare=False, repr=False)

    def to_json_dict(self) -> dict:
        return {
            "spec": self.pair.to_json_dict(),
            "N": self.band,
            "dims": {
                "kernel": self.dim_kernel,
                "swapped": self.dim_swapped,
                "conjugated": self.dim_conjugated,
                "adjoint": self.dim_adjoint,
            },
            "dichotomy_holds": self.dichotomy_holds,
            "conjugate_dims_match": self.conjugate_dims_match,
            "invertible_cases": list(self.invertible_cases),
            "adjoint_dim_matches": self.adjoint_dim_matches,
            "all_stabilized": self.all_stabilized,
            "degenerate_difference": self.degenerate_difference,
        }


def coburn_check(
    pair: SymbolPair, band: int, *, rel_threshold: float = NULL_SPACE_REL_THRESHOLD
) -> CoburnReport:
    """Verify the kernel dichotomy for a pair of nonzero symbols.

    Computes the band-limited kernels of the pair, its swap, its conjugate
    and its adjoint, all under the null threshold ``rel_threshold`` of
    :func:`kernel_basis`; asserts that the pair kernel and the swapped kernel
    cannot both be nontrivial, that the swapped and conjugated dimensions
    agree (they are antilinearly isomorphic), and, whenever one of a, b or
    a - b is invertible on the circle, that the adjoint kernel dimension
    matches the conjugated one.
    """
    if pair.a.is_zero or pair.b.is_zero:
        raise DegeneratePairError(is_nondegenerate(pair.a, pair.b))
    wind_a, wind_b = _winding(pair.a), _winding(pair.b)
    invertible = tuple(
        case
        for case, holds in (
            ("a", wind_a is not None),
            ("b", wind_b is not None),
            ("difference", invertible_on_circle(pair.a - pair.b)),
        )
        if holds
    )
    if (pair.a - pair.b).is_zero:
        # a multiplication operator by a nonzero symbol: all four kernels trivial
        return CoburnReport(
            pair=pair,
            band=band,
            dim_kernel=0,
            dim_swapped=0,
            dim_conjugated=0,
            dim_adjoint=0,
            dichotomy_holds=True,
            conjugate_dims_match=True,
            invertible_cases=invertible,
            adjoint_dim_matches=True if invertible else None,
            all_stabilized=True,
            degenerate_difference=True,
        )
    # conjugation negates both winding numbers, so the swapped, conjugated
    # and adjoint kernels all expect max(0, wind a - wind b)
    backward = _index_dim(wind_b, wind_a)
    k = _kernel_basis(pair, band, "paired", rel_threshold, _index_dim(wind_a, wind_b))
    k_swap = _kernel_basis(pair.swapped(), band, "paired", rel_threshold, backward)
    conjugated = pair.conjugated()
    k_conj = _kernel_basis(conjugated, band, "paired", rel_threshold, backward)
    k_adj = _kernel_basis(conjugated, band, "transposed", rel_threshold, backward)
    stable = all(x.stabilized for x in (k, k_swap, k_conj, k_adj))
    return CoburnReport(
        pair=pair,
        band=band,
        dim_kernel=k.dim,
        dim_swapped=k_swap.dim,
        dim_conjugated=k_conj.dim,
        dim_adjoint=k_adj.dim,
        dichotomy_holds=min(k.dim, k_swap.dim) == 0,
        conjugate_dims_match=k_swap.dim == k_conj.dim,
        invertible_cases=invertible,
        adjoint_dim_matches=(k_adj.dim == k_conj.dim) if invertible else None,
        all_stabilized=stable,
        kernel=k,
        adjoint=k_adj,
    )


def l2_coburn(pair: SymbolPair, band: int) -> CoburnReport | None:
    """:func:`coburn_check` from the closed-form L2 kernels of a Fredholm pair.

    Solves the roots of a, b and a - b once each; None where
    :func:`l2_kernel` is None.  The swapped pair reuses the roots, and the
    conjugated pair (conj a, conj b) has the roots 1/conj(r).  The kernel,
    swapped and conjugated bases are built and certified.  The adjoint
    kernel is (1/conj b) * P+ of the conjugated pair's kernel (g = f+/conj b,
    with inverse f = conj b * g - conj a * g), so its dimension is that
    kernel's.  The flags then follow from the index and the certified
    elements; ``band`` is only reported.
    """
    split_a, split_b = _root_split(pair.a), _root_split(pair.b)
    if split_a is None or split_b is None:
        return None
    difference = pair.a - pair.b
    invertible = ("a", "b") + (("difference",) if invertible_on_circle(difference) else ())
    # conj a and conj b have the roots 1/conj(r): the outside side becomes the inside one
    reflected = [
        (tuple(1.0 / r.conjugate() for r in outside), tuple(1.0 / r.conjugate() for r in inside))
        for inside, outside in (split_a, split_b)
    ]
    kernel = _l2_kernel(pair, split_a, split_b)
    swapped = _l2_kernel(pair.swapped(), split_b, split_a)
    conjugated = _l2_kernel(pair.conjugated(), *reflected)
    return CoburnReport(
        pair=pair,
        band=band,
        dim_kernel=kernel.dim,
        dim_swapped=swapped.dim,
        dim_conjugated=conjugated.dim,
        dim_adjoint=conjugated.dim,
        dichotomy_holds=min(kernel.dim, swapped.dim) == 0,
        conjugate_dims_match=swapped.dim == conjugated.dim,
        invertible_cases=invertible,
        adjoint_dim_matches=True,
        all_stabilized=True,
        degenerate_difference=difference.is_zero,
    )


# ---------------------------------------------------------------------------
# invariance under multipliers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InvarianceReport:
    """Both sides of the multiplier-invariance equivalence for one input."""

    multiplier_keeps_kernel: bool
    hankel_parts_vanish: bool
    image_residual: float
    hankel_minus_residual: float
    hankel_plus_residual: float

    @property
    def consistent(self) -> bool:
        return self.multiplier_keeps_kernel == self.hankel_parts_vanish


def multiplier_invariance_test(
    pair: SymbolPair, eta: LaurentPoly, f: CoeffVector, tol: float = 1e-12
) -> InvarianceReport:
    """Test  eta*f in kernel  <=>  both Hankel parts of f under eta vanish.

    ``f`` must already be a kernel element (residual-checked).  Both sides of
    the equivalence are evaluated exactly; a contradiction between them would
    indicate numerical trouble and raises :class:`ArithmeticError`.
    """
    pair.require_nondegenerate()
    _check_membership(pair, f, "paired", _MEMBERSHIP_TOL)
    scale = max(1.0, f.l2_norm() * max(1.0, eta.max_abs_coeff()))
    image_residual = apply_paired(pair, eta * f).l2_norm()
    h_minus = riesz_minus(eta * riesz_plus(f)).l2_norm()
    h_plus = riesz_plus(eta * riesz_minus(f)).l2_norm()
    report = InvarianceReport(
        multiplier_keeps_kernel=image_residual <= tol * scale,
        hankel_parts_vanish=max(h_minus, h_plus) <= tol * scale,
        image_residual=float(image_residual),
        hankel_minus_residual=float(h_minus),
        hankel_plus_residual=float(h_plus),
    )
    if not report.consistent:
        raise ArithmeticError(
            "multiplier invariance equivalence failed numerically: "
            f"image residual {image_residual:.3e}, hankel residuals "
            f"({h_minus:.3e}, {h_plus:.3e})"
        )
    return report
