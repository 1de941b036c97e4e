"""Kernels of paired operators and the structure maps between them.

Two routes compute a kernel.

* **Index route** (:func:`l2_kernel`, :func:`coburn_check`).  When a and b
  are invertible on the circle the operator is Fredholm, with index
  wind b - wind a, and its L2 kernel has a closed-form rational basis from
  the Wiener-Hopf factorization of b^-1 a: two root solves, one per symbol,
  and no SVD.  Every element f = f+ + f- is certified: f+ analytic with its
  poles outside the disk, f- strictly coanalytic with its poles inside, and
  the membership rule below.  The kernel has dimension
  max(0, wind b - wind a), and its first element generates it: every
  element is p*f with p a polynomial of degree below the dimension.
  :func:`coburn_check` reads its dimensions from the winding numbers.
* **Band-limited route** (:func:`kernel_basis`, and :func:`coburn_check`
  where a or b is not invertible on the circle).  The exact kernel on
  trigonometric polynomials of band N, in closed form and with no SVD: the
  paired kernel from the exponents and degrees of a, b and their gcd
  (:func:`_paired_range`), the transposed kernel as a span of monomials
  (:func:`_transposed_range`).  Its one decision is the degree of the gcd,
  where the dimension depends on it (:func:`_cofactors`).  The band-N
  kernel is a subspace of the L2 kernel and claims nothing more.

Membership has one rule, :func:`_certify`.  A kernel is an exact
cancellation, so the residual is scale-invariant: the largest coefficient of
a*f+ + b*f- (denominators cleared) over the larger of its two terms for the
paired kernel, and of P+(a*f) + P-(b*f) over the larger of a*f and b*f for
the transposed one (:func:`_paired_residual`, :func:`_residual`).  It must
be at most ``_MEMBERSHIP_TOL`` (1e-10); the zero element has residual 0.
Band-limited and closed-form elements, explicit elements and the inputs and
outputs of the structure maps all pass through it.

Every winding number, Fredholm index and invertibility test reads one rule,
``symbols._root_split``: one root solve per symbol, whose inclusion disks
must all stay more than ``CIRCLE_MARGIN`` (1e-8) from the circle.  A root
near the circle, a root cluster whose disks reach it, or a failed solve
leaves the symbol not invertible and its winding number unknown.  The
thresholds named here are module constants; only :func:`invertible_on_circle`
takes its margin as a parameter.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .operators import (
    CoeffVector,
    DegeneratePairError,
    SymbolPair,
    apply_paired,  # unused here, but perfbench/tracer.py times kernels.apply_paired
    apply_transposed,
    riesz_minus,
    riesz_plus,
)
from .symbols import (
    CIRCLE_MARGIN,
    ConditioningError,
    LaurentPoly,
    RationalSymbol,
    _exact_cofactors,
    _root_disks,
    _split_disks,
    _unit_exponent,
    in_conj_hardy,
    in_conj_hardy_vanishing,
    in_hardy,
    inner_outer_factor,
    is_nondegenerate,
    poly_from_roots,
    rational_to_coeffs_auto,
)

__all__ = [
    "AdjointInverseReport",
    "AmbiguousKernelError",
    "BridgeReport",
    "CoburnReport",
    "KernelBasis",
    "KernelPair",
    "L2Kernel",
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
    "l2_kernel",
    "pair_from_function",
    "same_kernel_test",
    "subspace_angle",
    "toeplitz_kernel_bridge",
]

_MEMBERSHIP_TOL = 1e-10  # relative residual: rounding, plus the adjoint inverse's truncation (symbols._CONVERSION_TOL)
_RANK_CUT = 1e-12  # _orthonormal drops a QR direction with |R_jj| below this share of max |R|: rounding leaves ~n eps


class AmbiguousKernelError(ArithmeticError):
    """A kernel the library cannot decide: a common root left open, or an element failing the membership rule."""


def _relative(residual: LaurentPoly, *terms: LaurentPoly) -> float:
    """Largest coefficient of ``residual`` over the largest of its ``terms``; 0 when they all vanish."""
    size = max(t.max_abs_coeff() for t in terms)
    return residual.max_abs_coeff() / size if size else 0.0


def _paired_residual(a, b, plus, minus) -> float:
    """Membership residual of f = plus + minus in the kernel of aP+ + bP-.

    Each argument is a :class:`LaurentPoly` or a :class:`RationalSymbol`.
    With denominators cleared, left = a*plus*den(b)*den(minus) and right =
    b*minus*den(a)*den(plus); the residual is :func:`_relative` of left +
    right, so scaling a and b together leaves it unchanged.
    """
    left, right = _numerator(a) * _numerator(plus), _numerator(b) * _numerator(minus)
    for den in _denominators(b, minus):
        left = left * den
    for den in _denominators(a, plus):
        right = right * den
    return _relative(left + right, left, right)


def _numerator(symbol) -> LaurentPoly:
    return symbol.num if isinstance(symbol, RationalSymbol) else symbol


def _denominators(*symbols) -> list[LaurentPoly]:
    return [s.den for s in symbols if isinstance(s, RationalSymbol)]


def _residual(pair: SymbolPair, v: CoeffVector, kind: str) -> float:
    """Membership residual of ``v`` in the ``kind`` ("paired" or "transposed") kernel of ``pair``.

    The transposed one is P+(a v) + P-(b v) relative to the larger of a v and b v.
    """
    if kind == "paired":
        return _paired_residual(pair.a, pair.b, riesz_plus(v), riesz_minus(v))
    return _relative(apply_transposed(pair, v), pair.a * v, pair.b * v)


def _certify(residual: float, what: str, error: Callable[[str], Exception]) -> float:
    """The one membership rule: ``residual`` if it is at most ``_MEMBERSHIP_TOL``, else ``error``."""
    # `not x <= tol` also refuses a NaN from an overflowing product
    if not residual <= _MEMBERSHIP_TOL:
        raise error(f"{what} has membership residual {residual:.3e}, above {_MEMBERSHIP_TOL:.0e}")
    return residual


@dataclass(frozen=True)
class KernelBasis:
    """Basis of the band-limited kernel: exact, and not orthonormal."""

    pair: SymbolPair
    band: int
    basis: tuple[CoeffVector, ...]
    transposed: bool = False

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_json_dict(self) -> dict:
        return {
            "spec": self.pair.to_json_dict(),
            "N": self.band,
            "dim": self.dim,
            "transposed": self.transposed,
            "basis": [v.to_json_dict() for v in self.basis],
        }


def _disks(symbol: LaurentPoly) -> tuple | None:
    """``symbols._root_disks`` of a nonzero symbol; None when its root solve fails."""
    try:
        return _root_disks(symbol)
    except ArithmeticError:
        return None


def _certified_split(symbol: LaurentPoly, margin: float = CIRCLE_MARGIN) -> tuple[tuple, tuple] | None:
    """(roots inside, roots outside) of ``symbols._root_split`` at ``margin``.

    None when the symbol is zero, the root solve fails, or a root is near
    the circle: the symbol is then not invertible on the circle, or its
    winding number cannot be certified.
    """
    return None if symbol.is_zero else _sides(_disks(symbol), margin)


def _sides(disks: tuple | None, margin: float = CIRCLE_MARGIN) -> tuple[tuple, tuple] | None:
    """:func:`_certified_split` from a symbol's :func:`_disks`."""
    if disks is None:
        return None
    inside, near, outside = _split_disks(disks, margin)
    return None if near else (inside, outside)


def _meet(first, second) -> bool:
    """Whether an inclusion disk of ``first`` meets one of ``second`` (:func:`_disks`; None meets all)."""
    if first is None or second is None:
        return True
    return any(abs(r - s) <= rho + sigma for r, rho in zip(*first) for s, sigma in zip(*second))


def _degree(symbol: LaurentPoly) -> int:
    return symbol.kmax - symbol.kmin


def _paired_range(a: LaurentPoly, b: LaurentPoly, lo: int, hi: int, common: int) -> range:
    """The exponents j of the paired kernel's basis on the window [lo, hi], for deg g = ``common``.

    Write a = z^k_a a~ and b = z^k_b b~ with a~(0), b~(0) nonzero, and
    g = gcd(a~, b~), a~ = g alpha, b~ = g beta.  As alpha and beta are
    coprime, a f+ = -b f- holds exactly when z^k_a f+ = beta u and
    z^k_b f- = -alpha u for a Laurent polynomial u.  With f+ on [0, hi] and
    f- on [lo, -1], u has its support in this range, and u = z^j gives the
    element f_j = z^(j - k_a) beta - z^(j - k_b) alpha.
    """
    deg_alpha, deg_beta = _degree(a) - common, _degree(b) - common
    return range(max(a.kmin, b.kmin + lo), min(hi + a.kmin - deg_beta, b.kmin - 1 - deg_alpha) + 1)


def _transposed_range(pair: SymbolPair, band: int) -> range:
    """The exponents j of the monomials z^j that span the band-``band`` transposed kernel: P+(a f) = P-(b f) = 0."""
    return range(max(-band, -pair.b.kmin), min(band, -1 - pair.a.kmax) + 1)


def _cofactors(
    a: LaurentPoly, b: LaurentPoly, windows: Sequence[tuple], disks: tuple | None = None
) -> tuple[LaurentPoly, LaurentPoly]:
    """(alpha, beta): a~ and b~ with their gcd g divided out where deg g changes a paired kernel.

    ``windows`` are the (a, b, lo, hi) of :func:`_paired_range` in question.
    Its upper end grows by exactly deg g, so deg g matters only where the
    range at the largest deg g is nonempty.  g = 1 when no inclusion disk of
    a~ meets one of b~ (``disks``, the caller's :func:`_disks` of a and b, or
    two new solves).  Where they meet, g is the exact gcd over Q(i)
    (``symbols._exact_cofactors``), and :class:`AmbiguousKernelError` is
    raised when the disks of alpha and beta still meet: the input does not
    decide a common root there.
    """
    a_t, b_t = a.shift(-a.kmin), b.shift(-b.kmin)
    top = min(_degree(a), _degree(b))
    if not any(_paired_range(*w, top) for w in windows) or not _meet(*(disks or (_disks(a), _disks(b)))):
        return a_t, b_t
    alpha, beta = _exact_cofactors(a_t, b_t)
    if _degree(alpha) == _degree(a_t) or _meet(_disks(alpha), _disks(beta)):
        raise AmbiguousKernelError(
            f"a common root of a and b is not decided: their root disks meet, and still meet "
            f"after the exact common factor of degree {_degree(a_t) - _degree(alpha)} is divided out"
        )
    return alpha, beta


def kernel_basis(pair: SymbolPair, band: int, *, kind: str = "paired") -> KernelBasis:
    """Basis of {v with band in [-N, N] : Op v = 0}, in closed form (see the module docstring).

    The paired kernel's elements are f_j = z^(j - k_a) beta - z^(j - k_b)
    alpha, and the transposed kernel's are monomials.  Element j is z^j
    times element 0, so the first and the last pass the membership rule
    (:func:`_certify`) for all, or :class:`AmbiguousKernelError` is raised,
    as it is where deg gcd(a~, b~) is not decided (:func:`_cofactors`).  The
    basis spans a subspace of the L2 kernel; :func:`l2_kernel` gives the
    whole of it where a and b are invertible on the circle.
    """
    pair.require_nondegenerate()
    if band < 1:
        raise ValueError("band must be at least 1")
    if kind not in ("paired", "transposed"):
        raise ValueError("kind must be 'paired' or 'transposed'")
    if kind == "paired":
        a, b = pair.a, pair.b
        alpha, beta = _cofactors(a, b, [(a, b, -band, band)])
        exponents = _paired_range(a, b, -band, band, _degree(a) - _degree(alpha))
        vectors = [beta.shift(j - a.kmin) - alpha.shift(j - b.kmin) for j in exponents]
    else:
        vectors = [LaurentPoly.monomial(j) for j in _transposed_range(pair, band)]
    for v in vectors[:1] + vectors[1:][-1:]:
        _certify(_residual(pair, v, kind), "kernel element", AmbiguousKernelError)
    return KernelBasis(pair=pair, band=band, basis=tuple(vectors), transposed=(kind == "transposed"))


def adjoint_kernel_basis(pair: SymbolPair, band: int) -> KernelBasis:
    """Kernel of the adjoint of the paired operator of ``pair``.

    Realized as the exact kernel of the transposed operator of the
    conjugated pair, so membership is exact rather than a matrix adjoint of
    a truncation.
    """
    return kernel_basis(pair.conjugated(), band, kind="transposed")


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
    """:func:`_paired_residual` of a certified L2 kernel element of (a, b).

    Raises :class:`AmbiguousKernelError` unless ``plus`` is analytic with
    poles outside the disk, ``minus`` has poles inside and degree at most -1
    at infinity, and the residual passes :func:`_certify`.
    """
    if plus.num.kmin < 0 or not all(abs(p) > 1.0 for p in plus.poles):
        raise AmbiguousKernelError("the analytic part has a pole in the disk or a negative mode")
    if not all(abs(p) < 1.0 for p in minus.poles) or minus.num.kmax - minus.den.kmax > -1:
        raise AmbiguousKernelError("the coanalytic part has a pole outside the disk or no zero at infinity")
    return _certify(_paired_residual(a, b, plus, minus), "closed-form kernel element", AmbiguousKernelError)


def l2_kernel(pair: SymbolPair) -> L2Kernel | None:
    """The L2 kernel of aP+ + bP- in closed form, from one root solve per symbol.

    None when :func:`_certified_split` of a or of b is None: the operator is
    not Fredholm, or its index cannot be certified.  Callers then take
    :func:`kernel_basis`.

    With a = c_a z^k_a prod(z - alpha) and b = c_b z^k_b prod(z - beta), the
    elements are, for j = 0 .. wind b - wind a - 1,

        plus_j  = z^j prod(z - beta_out) / prod(z - alpha_out)
        minus_j = -(c_a / c_b) z^(k_a - k_b + j) prod(z - alpha_in) / prod(z - beta_in),

    so that a*plus_j = -b*minus_j.  The poles are passed on, not solved again.
    Element j is z^j times element 0, and shifts are exact, so all elements
    have one residual: certifying the first and the last element (the lowest
    analytic mode and the highest coanalytic one) certifies every element
    (:func:`_certify_l2_element`); a failed certificate raises
    :class:`AmbiguousKernelError`.

    A trivial kernel builds no factors.  Where -c_a/c_b is zero or not
    finite, every element is scaled by a power of two (:func:`_split_ratio`).
    """
    pair.require_nondegenerate()
    a, b = pair.a, pair.b
    split_a, split_b = _certified_split(a), _certified_split(b)
    if split_a is None or split_b is None:
        return None
    (alpha_in, alpha_out), (beta_in, beta_out) = split_a, split_b
    wind_a, wind_b = a.kmin + len(alpha_in), b.kmin + len(beta_in)
    if wind_b <= wind_a:
        return L2Kernel(pair=pair, wind_a=wind_a, wind_b=wind_b, basis=(), residual=0.0)
    num_plus, den_plus = poly_from_roots(beta_out), poly_from_roots(alpha_out)
    ratio = -a.coeff(a.kmax) / b.coeff(b.kmax)
    if ratio == 0 or not cmath.isfinite(ratio):
        ratio, e = _split_ratio(a.coeff(a.kmax), b.coeff(b.kmax))
        num_plus = num_plus.ldexp(-e)
    num_minus = poly_from_roots(alpha_in, ratio, a.kmin - b.kmin)
    den_minus = poly_from_roots(beta_in)
    basis = tuple(
        (
            RationalSymbol._from_poles(num_plus.shift(j), den_plus, alpha_out),
            RationalSymbol._from_poles(num_minus.shift(j), den_minus, beta_in),
        )
        for j in range(wind_b - wind_a)
    )
    residual = max((_certify_l2_element(a, b, *f) for f in basis[:1] + basis[1:][-1:]), default=0.0)
    return L2Kernel(pair=pair, wind_a=wind_a, wind_b=wind_b, basis=basis, residual=residual)


def _split_ratio(c_a: complex, c_b: complex) -> tuple[complex, int]:
    """(r, e) with -c_a/c_b = r * 2^e: the exponent is split evenly, so r and 2^-e are normal floats."""
    k_a, k_b = (math.frexp(max(abs(c.real), abs(c.imag)))[1] for c in (c_a, c_b))
    m_a, m_b = (complex(math.ldexp(c.real, -k), math.ldexp(c.imag, -k)) for c, k in ((c_a, k_a), (c_b, k_b)))
    e = (k_a - k_b) // 2
    r = -m_a / m_b
    return complex(math.ldexp(r.real, k_a - k_b - e), math.ldexp(r.imag, k_a - k_b - e)), e


# ---------------------------------------------------------------------------
# subspace geometry
# ---------------------------------------------------------------------------


def _orthonormal(vectors: Sequence[CoeffVector], kmin: int, kmax: int) -> np.ndarray:
    q, r = np.linalg.qr(np.column_stack([v.to_dense(kmin, kmax) for v in vectors]))
    keep = np.abs(np.diag(r)) > _RANK_CUT * float(np.max(np.abs(r)))
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

    An analytic v has P+(G v) = 0 exactly when it lies in the transposed
    kernel of (G, 1), so the band-N Toeplitz kernel is that kernel: the span
    of 1, ..., z^min(N, -kmax G - 1).  The report carries the largest
    principal angle between it and the projected paired kernel, which the
    bridge identity forces to zero (tested at 1e-8).
    """
    if symbol.is_zero:
        raise ValueError("bridge requires a nonzero symbol")
    pair = SymbolPair(symbol, LaurentPoly.one())
    toeplitz = kernel_basis(pair, band, kind="transposed").basis
    projected = [riesz_plus(v) for v in kernel_basis(pair, band).basis]
    return BridgeReport(
        symbol=symbol,
        band=band,
        dim_toeplitz=len(toeplitz),
        dim_projected=len(projected),
        angle=subspace_angle(toeplitz, projected),
    )


# ---------------------------------------------------------------------------
# kernel equality and explicit elements
# ---------------------------------------------------------------------------


def _as_rational(symbol) -> RationalSymbol:
    if isinstance(symbol, RationalSymbol):
        return symbol
    return RationalSymbol(symbol)


def same_kernel_test(first, second) -> bool:
    """Exact cross-multiplication criterion for equality of two paired kernels.

    For nondegenerate pairs with a nontrivial kernel, the kernels agree
    exactly when  a1 * b2 = a2 * b1 ; the caller supplies the nontriviality
    evidence.  Accepts :class:`SymbolPair` as well as rational pairs such as
    :class:`KernelPair`.  With denominators cleared, the difference of the
    two products over the larger of them (:func:`_relative`) must be at most
    ``_MEMBERSHIP_TOL``, so scaling either pair leaves the answer unchanged.
    """
    for p in (first, second):
        if isinstance(p, SymbolPair):
            p.require_nondegenerate()
    a1, b1 = _as_rational(first.a), _as_rational(first.b)
    a2, b2 = _as_rational(second.a), _as_rational(second.b)
    lhs = a1.num * b2.num * a2.den * b1.den
    rhs = a2.num * b1.num * a1.den * b2.den
    return _relative(lhs - rhs, lhs, rhs) <= _MEMBERSHIP_TOL


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


def kernel_element_from_inner_factor(a: LaurentPoly, b: LaurentPoly) -> tuple[RationalSymbol, RationalSymbol]:
    """An explicit nonzero kernel element (plus, minus) when b carries a nontrivial inner factor.

    With b = (inner)(outer) and c = inner(0), the element f = plus + minus is

        plus  =  (b - c * outer) / z,      minus  =  (1 - c * conj(inner)) * (-a) / z.

    ``plus`` is a polynomial: b - c * outer vanishes at 0, and the constant
    term that rounding leaves is dropped before the division.  ``minus`` is
    rational with every pole inside the disk and a zero at infinity, so it is
    its own P- and nothing is truncated.  The parts have the shape of an
    :class:`L2Kernel` basis element and pass its certificate
    (:func:`_certify_l2_element`), or :class:`AmbiguousKernelError` is raised.
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
    numerator = b - io.outer.as_laurent() * c
    plus = RationalSymbol((numerator - LaurentPoly({0: numerator.coeff(0)})).shift(-1))
    minus = (1 - io.inner.conj_reflect() * c) * (-a).shift(-1)
    if plus.num.is_zero and minus.num.is_zero:
        raise ArithmeticError("constructed kernel element vanished")
    _certify_l2_element(a, b, plus, minus)
    return plus, minus


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
    a*phi_plus + b*phi_minus = 0 on the circle.  That cancellation is checked
    on the rational pair itself, with no truncation: ``residual`` is its
    membership residual (:func:`_paired_residual`), and one that fails
    :func:`_certify` raises :class:`ArithmeticError`.

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
    # the pair is only determined up to a common nonzero factor; scale it by
    # the power of two that brings its largest numerator part into [1, 2),
    # which is exact and cannot overflow (a symbol that underflows to zero
    # then fails the certificate); [1, 2) rather than _unit_exponent's
    # [1/2, 1) leaves a pair whose largest coefficient is 1 as it prints
    if not (a.num.is_zero and b.num.is_zero):
        e = 1 - _unit_exponent(a.num, b.num)
        a, b = (RationalSymbol._from_poles(s.num.ldexp(e), s.den, s.poles) for s in (a, b))
    residual = _certify(_paired_residual(a, b, plus, minus), "the source function", ArithmeticError)
    return KernelPair(a=a, b=b, convention="generic", source=phi, residual=residual)


# ---------------------------------------------------------------------------
# conjugation and adjoint transfer maps
# ---------------------------------------------------------------------------


def _check_membership(pair: SymbolPair, v: CoeffVector, kind: str) -> None:
    """A ``ValueError`` unless ``v`` passes :func:`_certify` in the ``kind`` kernel of ``pair``."""
    _certify(_residual(pair, v, kind), "the vector", ValueError)


def kernel_conjugate(phi: CoeffVector, pair: SymbolPair) -> CoeffVector:
    """Antilinear transfer  phi -> zbar * conj(phi)  between mirrored kernels.

    Maps kernel elements of (a, b) onto kernel elements of (conj b, conj a);
    applying it twice, with the pair swapped accordingly, returns the input
    exactly.  The zero vector passes through.
    """
    _check_membership(pair, phi, "paired")
    result = phi.conj_reflect().shift(-1)
    _check_membership(pair.conj_swapped(), result, "paired")
    return result


def invertible_on_circle(symbol: LaurentPoly, min_distance: float = CIRCLE_MARGIN) -> bool:
    """True when inclusion disks keep every root more than ``min_distance`` from the circle.

    For Laurent polynomials a root-free circle is exactly invertibility of
    the symbol as a bounded multiplier.  False also means that this could not
    be certified: the root solve failed, or the disks of a root cluster reach
    within ``min_distance`` of the circle (see :func:`_certified_split`).
    """
    return _certified_split(symbol, min_distance) is not None


def adjoint_kernel_map(psi: CoeffVector, pair: SymbolPair) -> CoeffVector:
    """Transfer  psi -> (conj a - conj b) * psi  from ker of the adjoint.

    Sends kernel elements of the adjoint of the paired operator into the
    paired kernel of the conjugated pair.  Injective for nondegenerate pairs.
    """
    pair.require_nondegenerate()
    conj_pair = pair.conjugated()
    _check_membership(conj_pair, psi, "transposed")
    result = (conj_pair.a - conj_pair.b) * psi
    _check_membership(conj_pair, result, "paired")
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
    _check_membership(conj_pair, phi, "paired")
    if case == "difference":
        divisor_source = pair.a - pair.b
        numerator = phi
    elif case == "a":
        divisor_source = pair.a
        numerator = riesz_minus(phi)
    else:
        divisor_source = pair.b
        numerator = -riesz_plus(phi)
    split = _certified_split(divisor_source)
    if split is None:
        raise ConditioningError(f"case {case!r}: symbol is not invertible on the circle")
    if numerator.is_zero:
        return LaurentPoly.zero()
    # the reciprocal of the reflection, from the source's one solve: each
    # nonzero root r of the source is a pole 1/conj(r) of 1/conj_reflect(source)
    divisor = divisor_source.conj_reflect()
    reciprocal = RationalSymbol._from_poles(
        LaurentPoly.monomial(-divisor.kmin),
        divisor.shift(-divisor.kmin),
        tuple(1.0 / r.conjugate() for r in split[0] + split[1]),
    )
    quotient = RationalSymbol(LaurentPoly.one()) * numerator * reciprocal
    result = rational_to_coeffs_auto(quotient).coeffs
    _check_membership(conj_pair, result, "transposed")
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
    """Kernel dimensions of the four associated operators and the dichotomy.

    ``route`` is "index" when the dimensions come from the closed-form L2
    kernels, "band-limited" when they are the dimensions of the band-N kernels.
    """

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
    route: str
    degenerate_difference: bool = False

    def to_json_dict(self) -> dict:
        return {
            "spec": self.pair.to_json_dict(),
            "N": self.band,
            "route": self.route,
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
            "degenerate_difference": self.degenerate_difference,
        }


def coburn_check(pair: SymbolPair, band: int) -> CoburnReport:
    """Kernel dimensions of the pair, its swap, its conjugate and its adjoint, and the dichotomy.

    Solves the roots of a, b and a - b once each.  The report states that
    the pair kernel and the swapped kernel are not both nontrivial, that the
    swapped and conjugated dimensions agree (they are antilinearly
    isomorphic), and, whenever one of a, b or a - b is invertible on the
    circle, that the adjoint dimension matches the conjugated one.

    When a and b are invertible on the circle (route "index") the
    dimensions are those of the L2 kernels (:func:`l2_kernel`), read from
    k = wind b - wind a with no basis built: max(0, k) for the pair, and
    max(0, -k) for the swapped pair and for (conj a, conj b).  The adjoint
    kernel is (1/conj b) * P+ of the conjugated pair's kernel (g = f+/conj b,
    with inverse f = conj b * g - conj a * g), so its dimension is that
    kernel's; ``band`` is only reported.  Otherwise (route "band-limited")
    the dimensions are the lengths of the ranges of :func:`kernel_basis`,
    with no basis built.  f -> zbar * conj(f) maps the band [-N, N] onto
    [-N-1, N-1], so the conjugated dimension is taken there.  The swapped
    and conjugated pairs have gcds of the degree of gcd(a~, b~): one
    :func:`_cofactors`, on the disks of the solves of a and b, serves all.
    """
    if pair.a.is_zero or pair.b.is_zero:
        raise DegeneratePairError(is_nondegenerate(pair.a, pair.b))
    disks = _disks(pair.a), _disks(pair.b)
    split_a, split_b = _sides(disks[0]), _sides(disks[1])
    difference = pair.a - pair.b
    invertible = tuple(
        case
        for case, holds in (
            ("a", split_a is not None),
            ("b", split_b is not None),
            ("difference", invertible_on_circle(difference)),
        )
        if holds
    )
    route = "band-limited" if split_a is None or split_b is None else "index"
    if difference.is_zero:
        # a multiplication operator by a nonzero symbol: all four kernels trivial
        dims = (0, 0, 0, 0)
    elif route == "index":
        k = pair.b.kmin + len(split_b[0]) - pair.a.kmin - len(split_a[0])  # wind b - wind a
        dims = (max(0, k),) + (max(0, -k),) * 3  # swapped, conjugated and adjoint
    else:
        conj = pair.conjugated()
        windows = ((pair.a, pair.b, -band, band), (pair.b, pair.a, -band, band), (conj.a, conj.b, -band - 1, band - 1))
        common = _degree(pair.a) - _degree(_cofactors(pair.a, pair.b, windows, disks)[0])
        dims = [len(_paired_range(*w, common)) for w in windows] + [len(_transposed_range(conj, band))]
    dim_kernel, dim_swapped, dim_conjugated, dim_adjoint = dims
    return CoburnReport(
        pair=pair,
        band=band,
        dim_kernel=dim_kernel,
        dim_swapped=dim_swapped,
        dim_conjugated=dim_conjugated,
        dim_adjoint=dim_adjoint,
        dichotomy_holds=min(dim_kernel, dim_swapped) == 0,
        conjugate_dims_match=dim_swapped == dim_conjugated,
        invertible_cases=invertible,
        adjoint_dim_matches=(dim_adjoint == dim_conjugated) if invertible else None,
        route=route,
        degenerate_difference=difference.is_zero,
    )
