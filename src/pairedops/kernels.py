"""Kernels of paired operators and the structure maps between them.

Kernel computations run on the exact band-growing action, so every reported
basis vector is a genuine kernel element of the operator restricted to
trigonometric polynomials, not merely a null vector of a truncation.  The
band-limited kernel is always a subspace of the true kernel; the
``stabilized`` flag (equal dimensions at bands N and N+2) is evidence, not
proof, that the two coincide.

Singular values below 1e-8 of the largest one count as null; any singular
value landing in the gray zone just above the threshold, or a candidate null
vector whose exact-action residual fails certification, raises
:class:`AmbiguousKernelError` instead of silently committing to a dimension.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

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
    ConditioningError,
    LaurentPoly,
    RationalSymbol,
    in_conj_hardy,
    in_conj_hardy_vanishing,
    in_hardy,
    inner_outer_factor,
    is_nondegenerate,
    poly_roots,
    rational_to_coeffs_auto,
)

__all__ = [
    "AdjointInverseReport",
    "AmbiguousKernelError",
    "BridgeReport",
    "CoburnReport",
    "FactorizationProvenance",
    "InvarianceReport",
    "KernelBasis",
    "KernelPair",
    "KernelProjections",
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


class AmbiguousKernelError(ArithmeticError):
    """Null-space detection could not separate zero from nonzero singular values."""

    def __init__(self, message: str, singular_values: Sequence[float]):
        super().__init__(message)
        self.singular_values = tuple(float(s) for s in singular_values)


def _null_space(matrix: np.ndarray, rel_threshold: float = NULL_SPACE_REL_THRESHOLD):
    """Orthonormal null basis of a tall matrix with gap-checked thresholding.

    Returns (columns, singular_values_ascending).  Raises
    :class:`AmbiguousKernelError` when a singular value lands between the
    threshold and ten times the threshold.
    """
    if matrix.size == 0:
        raise ValueError("empty matrix")
    _, svals, vh = np.linalg.svd(matrix, full_matrices=False)
    smax = float(svals[0]) if len(svals) else 0.0
    if smax == 0.0:
        return np.eye(matrix.shape[1], dtype=complex), sorted(float(s) for s in svals)
    threshold = rel_threshold * smax
    gray = [float(s) for s in svals if threshold < s < _NULL_GAP_FACTOR * threshold]
    if gray:
        raise AmbiguousKernelError(
            f"singular values {gray} within a factor {_NULL_GAP_FACTOR:g} of the "
            f"null threshold {threshold:.3e}",
            sorted(float(s) for s in svals),
        )
    null_mask = svals <= threshold
    columns = vh[null_mask].conj().T
    return columns, sorted(float(s) for s in svals)


@dataclass(frozen=True)
class KernelBasis:
    """Orthonormal basis of the band-limited kernel plus its diagnostics."""

    pair: SymbolPair
    band: int
    basis: tuple[CoeffVector, ...]
    singular_values: tuple[float, ...]
    stabilized: bool
    transposed: bool = False

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_json_dict(self) -> dict:
        return {
            "spec": self.pair.to_json_dict(),
            "N": self.band,
            "dim": self.dim,
            "stabilized": self.stabilized,
            "transposed": self.transposed,
            "singular_values": list(self.singular_values),
            "basis": [v.to_json_dict() for v in self.basis],
        }


def _kernel_columns(pair: SymbolPair, band: int, kind: str, rel_threshold: float):
    matrix = exact_action_matrix(pair, band, kind=kind)
    return _null_space(matrix, rel_threshold)


def kernel_basis(
    pair: SymbolPair,
    band: int,
    *,
    kind: str = "paired",
    rel_threshold: float = NULL_SPACE_REL_THRESHOLD,
) -> KernelBasis:
    """Orthonormal basis of {v with band in [-N, N] : Op v = 0}, exact action.

    Every returned vector is certified by applying the operator exactly and
    demanding a residual of at most 1e-10 (relative to the section scale);
    certification failures surface as :class:`AmbiguousKernelError`.  The
    ``stabilized`` flag records whether the dimension is unchanged at band
    N + 2.
    """
    pair.require_nondegenerate()
    if band < 1:
        raise ValueError("band must be at least 1")
    columns, svals = _kernel_columns(pair, band, kind, rel_threshold)
    apply = apply_paired if kind == "paired" else apply_transposed
    vectors = []
    for j in range(columns.shape[1]):
        v = LaurentPoly.from_dense(columns[:, j], -band)
        residual = apply(pair, v).l2_norm()
        if residual > _MEMBERSHIP_TOL * max(1.0, v.l2_norm()):
            raise AmbiguousKernelError(
                f"null candidate has exact-action residual {residual:.3e}, "
                "above the kernel certification tolerance",
                svals,
            )
        vectors.append(v)
    wider_columns, _ = _kernel_columns(pair, band + 2, kind, rel_threshold)
    return KernelBasis(
        pair=pair,
        band=band,
        basis=tuple(vectors),
        singular_values=tuple(svals),
        stabilized=wider_columns.shape[1] == columns.shape[1],
        transposed=(kind == "transposed"),
    )


def adjoint_kernel_basis(pair: SymbolPair, band: int) -> KernelBasis:
    """Kernel of the adjoint of the paired operator of ``pair``.

    Realized as the exact kernel of the transposed operator of the
    conjugated pair, so membership is exact rather than a matrix adjoint of
    a truncation.
    """
    return kernel_basis(pair.conjugated(), band, kind="transposed")


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


def _stack(vectors: Sequence[CoeffVector], kmin: int, kmax: int) -> np.ndarray:
    return np.column_stack([v.to_dense(kmin, kmax) for v in vectors])


def _orthonormal(vectors: Sequence[CoeffVector], kmin: int, kmax: int) -> np.ndarray:
    matrix = _stack(vectors, kmin, kmax)
    q, r = np.linalg.qr(matrix)
    keep = np.abs(np.diag(r)) > 1e-12 * max(1.0, float(np.max(np.abs(r))))
    return q[:, keep]


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
    vectors = list(first) + list(second)
    kmin = min(v.kmin for v in vectors)
    kmax = max(v.kmax for v in vectors)
    q1 = _orthonormal(first, kmin, kmax)
    q2 = _orthonormal(second, kmin, kmax)
    if q1.shape[1] != q2.shape[1]:
        return math.pi / 2
    s12 = float(np.linalg.norm(q2 - q1 @ (q1.conj().T @ q2), 2))
    s21 = float(np.linalg.norm(q1 - q2 @ (q2.conj().T @ q1), 2))
    return math.asin(min(1.0, max(s12, s21)))


def _containment_gap(inner: Sequence[CoeffVector], outer: Sequence[CoeffVector]) -> float:
    """sin of the largest angle from span(inner) into span(outer)."""
    if not inner:
        return 0.0
    if not outer:
        return 1.0
    vectors = list(inner) + list(outer)
    kmin = min(v.kmin for v in vectors)
    kmax = max(v.kmax for v in vectors)
    qi = _orthonormal(inner, kmin, kmax)
    qo = _orthonormal(outer, kmin, kmax)
    return float(np.linalg.norm(qi - qo @ (qo.conj().T @ qi), 2))


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
    columns, svals = _null_space(toeplitz_window(symbol, range(top + 1), range(band + 1)))
    toeplitz_null = []
    for j in range(columns.shape[1]):
        v = LaurentPoly.from_dense(columns[:, j], 0)
        residual = riesz_plus(symbol * v).l2_norm()
        if residual > _MEMBERSHIP_TOL * max(1.0, v.l2_norm()):
            raise AmbiguousKernelError(
                f"Toeplitz null candidate has exact-action residual {residual:.3e}",
                svals,
            )
        toeplitz_null.append(v)

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


def kernel_element_from_inner_factor(
    a: LaurentPoly, b: LaurentPoly, *, conversion_tol: float = 1e-13
) -> CoeffVector:
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
        truncation = rational_to_coeffs_auto(rational.shift(-1), tol=conversion_tol)
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
class FactorizationProvenance:
    """Factorization data behind a constructed annihilating pair."""

    inner_plus: RationalSymbol | None
    outer_plus: RationalSymbol | None
    inner_minus: RationalSymbol | None
    outer_minus: RationalSymbol | None
    convention: str


@dataclass(frozen=True)
class KernelPair:
    """A symbol pair whose paired kernel contains a prescribed function."""

    a: RationalSymbol
    b: RationalSymbol
    provenance: FactorizationProvenance
    source: CoeffVector
    residual: float

    def to_json_dict(self) -> dict:
        return {
            "a": self.a.to_json_dict(),
            "b": self.b.to_json_dict(),
            "residual": self.residual,
            "convention": self.provenance.convention,
            "source": self.source.to_json_dict(),
        }


def pair_from_function(phi: CoeffVector, *, conversion_tol: float = 1e-12) -> KernelPair:
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
            provenance=FactorizationProvenance(None, None, None, None, "analytic_halfspace"),
            source=phi,
            residual=0.0,
        )
    if plus.is_zero:
        return KernelPair(
            a=RationalSymbol.one(),
            b=RationalSymbol(LaurentPoly.zero()),
            provenance=FactorizationProvenance(None, None, None, None, "coanalytic_halfspace"),
            source=phi,
            residual=0.0,
        )

    io_plus = inner_outer_factor(plus)
    reflected = minus.conj_reflect()  # analytic, vanishing at 0
    io_refl = inner_outer_factor(reflected)

    inner_minus = io_refl.inner.conj_reflect().shift(1)  # z * conj(reflected inner)
    outer_minus = io_refl.outer.conj_reflect().shift(-1)  # zbar * conj(reflected outer)

    a = io_plus.inner.conj_reflect() * io_refl.outer.conj_reflect()
    b = -(io_refl.inner * io_plus.outer)
    # the pair is only determined up to a common nonzero factor; normalize it
    # so conversion and residual tolerances see order-one magnitudes
    size = max(a.num.max_abs_coeff(), b.num.max_abs_coeff())
    if size > 0:
        a = a * (1.0 / size)
        b = b * (1.0 / size)

    a_c = rational_to_coeffs_auto(a, tol=conversion_tol).coeffs
    b_c = rational_to_coeffs_auto(b, tol=conversion_tol).coeffs
    residual = (a_c * plus + b_c * minus).l2_norm()
    scale = max(1.0, phi.l2_norm())
    if residual > 1e-9 * scale:
        raise ArithmeticError(f"annihilation residual {residual:.3e} exceeds 1e-9")
    return KernelPair(
        a=a,
        b=b,
        provenance=FactorizationProvenance(
            inner_plus=io_plus.inner,
            outer_plus=io_plus.outer,
            inner_minus=inner_minus,
            outer_minus=outer_minus,
            convention="generic",
        ),
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


def kernel_conjugate(phi: CoeffVector, pair: SymbolPair, *, check: bool = True) -> CoeffVector:
    """Antilinear transfer  phi -> zbar * conj(phi)  between mirrored kernels.

    Maps kernel elements of (a, b) onto kernel elements of (conj b, conj a);
    applying it twice, with the pair swapped accordingly, returns the input
    exactly.  The zero vector passes through.
    """
    if check:
        _check_membership(pair, phi, "paired", _MEMBERSHIP_TOL)
    result = phi.conj_reflect().shift(-1)
    if check and not result.is_zero:
        _check_membership(pair.conj_swapped(), result, "paired", _MEMBERSHIP_TOL)
    return result


def invertible_on_circle(symbol: LaurentPoly, min_distance: float = 1e-8) -> bool:
    """True when the symbol has no roots within ``min_distance`` of the circle.

    For Laurent polynomials this is exactly invertibility of the symbol as a
    bounded multiplier.
    """
    if symbol.is_zero:
        return False
    lifted = symbol.shift(-symbol.kmin)
    if lifted.kmax == 0:
        return True
    roots = poly_roots(lifted).roots
    return all(abs(abs(r) - 1.0) > min_distance for r in roots)


def reciprocal_symbol(symbol: LaurentPoly) -> RationalSymbol:
    """1/symbol as a rational symbol; requires no roots near the circle."""
    if not invertible_on_circle(symbol):
        raise ConditioningError("symbol has a root on or near the unit circle")
    return RationalSymbol(LaurentPoly.monomial(-symbol.kmin), symbol.shift(-symbol.kmin))


def adjoint_kernel_map(psi: CoeffVector, pair: SymbolPair, *, check: bool = True) -> CoeffVector:
    """Transfer  psi -> (conj a - conj b) * psi  from ker of the adjoint.

    Sends kernel elements of the adjoint of the paired operator into the
    paired kernel of the conjugated pair.  Injective for nondegenerate pairs.
    """
    pair.require_nondegenerate()
    conj_pair = pair.conjugated()
    if check:
        _check_membership(conj_pair, psi, "transposed", _MEMBERSHIP_TOL)
    result = (conj_pair.a - conj_pair.b) * psi
    if check and not result.is_zero:
        _check_membership(conj_pair, result, "paired", 1e-9)
    return result


_INVERSE_CASES = ("difference", "a", "b")


def adjoint_kernel_map_inverse(
    phi: CoeffVector,
    pair: SymbolPair,
    case: Literal["difference", "a", "b"],
    *,
    check: bool = True,
    conversion_tol: float = 1e-12,
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
    if check:
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
    result = rational_to_coeffs_auto(quotient, tol=conversion_tol).coeffs
    if check:
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


def coburn_check(pair: SymbolPair, band: int) -> CoburnReport:
    """Verify the kernel dichotomy for a pair of nonzero symbols.

    Computes the band-limited kernels of the pair, its swap, its conjugate
    and its adjoint; asserts that the pair kernel and the swapped kernel
    cannot both be nontrivial, that the swapped and conjugated dimensions
    agree (they are antilinearly isomorphic), and, whenever one of a, b or
    a - b is invertible on the circle, that the adjoint kernel dimension
    matches the conjugated one.
    """
    if pair.a.is_zero or pair.b.is_zero:
        raise DegeneratePairError(is_nondegenerate(pair.a, pair.b))
    invertible = tuple(
        case
        for case, source in (
            ("a", pair.a),
            ("b", pair.b),
            ("difference", pair.a - pair.b),
        )
        if invertible_on_circle(source)
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
    k = kernel_basis(pair, band)
    k_swap = kernel_basis(pair.swapped(), band)
    k_conj = kernel_basis(pair.conjugated(), band)
    k_adj = adjoint_kernel_basis(pair, band)
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
