"""Operator layer: Riesz projections, paired operators, sections, norms.

Two evaluation regimes coexist here on purpose.  The *exact* regime applies
an operator to a trigonometric polynomial with full band growth and no
truncation, so algebraic identities hold to rounding; it backs every kernel
and identity computation.  The *finite section* regime compresses an operator
to the exponent window [-N, N] and is used only where a limit N -> infinity
is the object of interest (operator norms, adjoint/block structure).

Both regimes build their matrices from symbol coefficients, not by applying
operators to basis vectors: the paired operator has entry a[i - j] in the
columns j >= 0 and b[i - j] in the others, its transposed companion splits
by row instead, and :func:`toeplitz_window` gathers each such window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .symbols import LaurentPoly, NondegeneracyReport, is_nondegenerate

__all__ = [
    "BlockDecomposition",
    "CoeffVector",
    "CompositionResidual",
    "CommutatorResidual",
    "DegeneratePairError",
    "FiniteSection",
    "SectionKind",
    "SymbolPair",
    "apply_paired",
    "apply_transposed",
    "block_decompose",
    "commutator_residual",
    "composition_residual",
    "conjugation_identity_residual",
    "exact_action_matrix",
    "finite_section",
    "hankel_minus",
    "hankel_plus",
    "inner_product",
    "mul_apply",
    "op_norm",
    "riesz_minus",
    "riesz_plus",
    "toeplitz_window",
]

# Role alias: a CoeffVector is a trigonometric polynomial regarded as an
# element of L2 rather than as a multiplier.  Same representation, same
# canonicalization rules.
CoeffVector = LaurentPoly

SectionKind = Literal[
    "paired", "transposed", "multiplication", "toeplitz", "hankel_minus", "hankel_plus"
]

_Z = LaurentPoly.monomial(1)
_Z_INV = LaurentPoly.monomial(-1)


class DegeneratePairError(ValueError):
    """A symbol pair failed the nondegeneracy requirement (a, b, a-b nonzero)."""

    def __init__(self, report: NondegeneracyReport):
        super().__init__("degenerate symbol pair: " + "; ".join(report.failures))
        self.report = report


@dataclass(frozen=True)
class SymbolPair:
    """An ordered pair of Laurent symbols (a, b) with cached nondegeneracy.

    The pair identifies both the paired operator  f -> a*P+f + b*P-f  and its
    transposed companion  f -> P+(a f) + P-(b f).
    """

    a: LaurentPoly
    b: LaurentPoly
    nondegenerate: bool = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "nondegenerate", bool(is_nondegenerate(self.a, self.b)))

    def require_nondegenerate(self) -> "SymbolPair":
        if not self.nondegenerate:
            raise DegeneratePairError(is_nondegenerate(self.a, self.b))
        return self

    def conjugated(self) -> "SymbolPair":
        return SymbolPair(self.a.conj_reflect(), self.b.conj_reflect())

    def swapped(self) -> "SymbolPair":
        return SymbolPair(self.b, self.a)

    def conj_swapped(self) -> "SymbolPair":
        return SymbolPair(self.b.conj_reflect(), self.a.conj_reflect())

    def product(self, other: "SymbolPair") -> "SymbolPair":
        return SymbolPair(self.a * other.a, self.b * other.b)

    def band_radius(self) -> int:
        return max(
            abs(self.a.kmin), abs(self.a.kmax), abs(self.b.kmin), abs(self.b.kmax), 0
        )

    def to_json_dict(self) -> dict:
        return {"a": self.a.to_json_dict(), "b": self.b.to_json_dict()}

    @classmethod
    def from_json_dict(cls, data) -> "SymbolPair":
        return cls(LaurentPoly.from_json_dict(data["a"]), LaurentPoly.from_json_dict(data["b"]))


# ---------------------------------------------------------------------------
# exact applications
# ---------------------------------------------------------------------------


def riesz_plus(v: CoeffVector) -> CoeffVector:
    """Keep the nonnegative Fourier modes (projection onto the Hardy space)."""
    return LaurentPoly._trusted({k: c for k, c in v._coeffs.items() if k >= 0})


def riesz_minus(v: CoeffVector) -> CoeffVector:
    """Keep the strictly negative Fourier modes."""
    return LaurentPoly._trusted({k: c for k, c in v._coeffs.items() if k <= -1})


def mul_apply(symbol: LaurentPoly, v: CoeffVector) -> CoeffVector:
    """Exact band-growing multiplication operator."""
    return symbol * v


def apply_paired(pair: SymbolPair, v: CoeffVector) -> CoeffVector:
    """Exact action  a * (P+ v) + b * (P- v)  with full band growth."""
    return pair.a * riesz_plus(v) + pair.b * riesz_minus(v)


def apply_transposed(pair: SymbolPair, v: CoeffVector) -> CoeffVector:
    """Exact action  P+(a v) + P-(b v)  with full band growth."""
    return riesz_plus(pair.a * v) + riesz_minus(pair.b * v)


def hankel_minus(symbol: LaurentPoly, v: CoeffVector) -> CoeffVector:
    """P- (symbol * v) for v supported on nonnegative exponents."""
    if not v.is_zero and v.kmin < 0:
        raise ValueError("hankel_minus expects an analytic argument (kmin >= 0)")
    return riesz_minus(symbol * v)


def hankel_plus(symbol: LaurentPoly, v: CoeffVector) -> CoeffVector:
    """P+ (symbol * v) for v supported on strictly negative exponents."""
    if not v.is_zero and v.kmax > -1:
        raise ValueError("hankel_plus expects a co-analytic argument (kmax <= -1)")
    return riesz_plus(symbol * v)


def inner_product(u: CoeffVector, v: CoeffVector) -> complex:
    """L2 inner product  sum_k u_k conj(v_k)."""
    if len(u._coeffs) <= len(v._coeffs):
        return sum((c * v.coeff(k).conjugate() for k, c in u.items()), 0j)
    return sum((u.coeff(k) * c.conjugate() for k, c in v.items()), 0j)


def conjugation_identity_residual(pair: SymbolPair, v: CoeffVector) -> float:
    """Residual of the conjugation identity linking (a, b) and (conj b, conj a).

    Computes || conj(T v) - z * T'( zbar * conj(v) ) ||_2 where T is the paired
    operator of ``pair``, T' the paired operator of the conjugated-swapped
    pair, and conj acts coefficientwise (realizing pointwise conjugation on
    the circle).  The value is zero to rounding for every input.
    """
    lhs = apply_paired(pair, v).conj_reflect()
    rhs = _Z * apply_paired(pair.conj_swapped(), _Z_INV * v.conj_reflect())
    return (lhs - rhs).l2_norm()


# ---------------------------------------------------------------------------
# finite sections
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteSection:
    """Compression of an operator to a finite window of Fourier exponents.

    ``matrix[i, j]`` is the coefficient of ``row_exponents[i]`` in the image
    of the basis vector ``col_exponents[j]``.
    """

    kind: str
    band: int
    matrix: np.ndarray
    row_exponents: tuple[int, ...]
    col_exponents: tuple[int, ...]

    def to_json_dict(self) -> dict:
        entries = []
        for i in range(self.matrix.shape[0]):
            for j in range(self.matrix.shape[1]):
                v = self.matrix[i, j]
                if v != 0:
                    entries.append([i, j, v.real, v.imag])
        return {"n": self.matrix.shape[0], "m": self.matrix.shape[1], "entries": entries}


def toeplitz_window(
    symbol: LaurentPoly, rows: range, cols: range, out: np.ndarray | None = None
) -> np.ndarray:
    """Entry (i, j) is the coefficient of ``symbol`` at ``rows[i] - cols[j]``.

    ``rows`` and ``cols`` are nonempty ranges of step 1.  A strided view over
    the symbol's dense coefficients on the window's offsets is copied into
    ``out`` (a new complex matrix by default).
    """
    n_rows, n_cols = len(rows), len(cols)
    if out is None:
        out = np.empty((n_rows, n_cols), dtype=complex)
    dense = symbol.to_dense(rows.start - cols[-1], rows[-1] - cols.start)
    # dense has n_rows + n_cols - 1 entries; entry (i, j) of the view is
    # dense[n_cols - 1 + i - j], whose index runs over 0 .. n_rows + n_cols - 2
    step = dense.strides[0]
    out[...] = np.lib.stride_tricks.as_strided(
        dense[n_cols - 1 :], (n_rows, n_cols), (step, -step), writeable=False
    )
    return out


def _paired_window(pair: SymbolPair, kind: str, rows: range, band: int) -> np.ndarray:
    """Paired (a on columns >= 0, b on the rest) or transposed (split by row)
    matrix on the columns -N..N."""
    cols = range(-band, band + 1)
    matrix = np.empty((len(rows), len(cols)), dtype=complex)
    if kind == "paired":
        toeplitz_window(pair.b, rows, cols[:band], matrix[:, :band])
        toeplitz_window(pair.a, rows, cols[band:], matrix[:, band:])
    else:
        split = -rows.start
        toeplitz_window(pair.b, rows[:split], cols, matrix[:split])
        toeplitz_window(pair.a, rows[split:], cols, matrix[split:])
    return matrix


def _section_exponents(kind: str, band: int) -> tuple[range, range]:
    full = range(-band, band + 1)
    plus = range(0, band + 1)
    minus = range(-band, 0)
    if kind in ("paired", "transposed", "multiplication"):
        return full, full
    if kind == "toeplitz":
        return plus, plus
    if kind == "hankel_minus":
        return minus, plus
    if kind == "hankel_plus":
        return plus, minus
    raise ValueError(f"unknown section kind {kind!r}")


def finite_section(operand, kind: SectionKind, band: int) -> FiniteSection:
    """Matrix of the compression  Pi_N Op Pi_N  in the exponent basis.

    ``operand`` is a :class:`SymbolPair` for the paired/transposed kinds and a
    single symbol for multiplication, Toeplitz and the two Hankel kinds.
    Every kind is a window of symbol coefficients at row - col exponent (see
    :func:`toeplitz_window`); the paired and transposed kinds take a on one
    side of exponent 0 and b on the other.
    """
    if band < 1:
        raise ValueError("band must be at least 1")
    rows, cols = _section_exponents(kind, band)
    if kind in ("paired", "transposed"):
        matrix = _paired_window(operand, kind, rows, band)
    else:
        matrix = toeplitz_window(operand, rows, cols)
    return FiniteSection(kind, band, matrix, row_exponents=tuple(rows), col_exponents=tuple(cols))


def exact_action_matrix(pair: SymbolPair, band: int, kind: str = "paired") -> np.ndarray:
    """Matrix of the exact action on the band [-N, N], with no row truncation.

    Rows run over exponents -(N+d)..(N+d) where d is the band radius of the
    symbols, so null vectors of this matrix are genuine kernel elements of
    the operator restricted to trigonometric polynomials.
    """
    if band < 1:
        raise ValueError("band must be at least 1")
    if kind not in ("paired", "transposed"):
        raise ValueError("kind must be 'paired' or 'transposed'")
    d = pair.band_radius()
    return _paired_window(pair, kind, range(-(band + d), band + d + 1), band)


def op_norm(pair: SymbolPair, band: int) -> float:
    """Largest singular value of the paired finite section.

    Nondecreasing in the band (sections are nested principal submatrices) and
    converges to the operator norm from below.
    """
    section = finite_section(pair, "paired", band)
    return float(np.linalg.svd(section.matrix, compute_uv=False)[0])


@dataclass(frozen=True)
class BlockDecomposition:
    """The 2x2 Toeplitz/Hankel block structure of a paired finite section.

    Indices are split into the analytic window 0..N and the co-analytic
    window -N..-1 (both ascending).  ``residual`` is the maximum entrywise
    deviation from the blocks constructed directly from symbol coefficients;
    it is zero to rounding by construction.
    """

    top_left: np.ndarray
    top_right: np.ndarray
    bottom_left: np.ndarray
    bottom_right: np.ndarray
    residual: float


def block_decompose(pair: SymbolPair, band: int) -> BlockDecomposition:
    section = finite_section(pair, "paired", band)
    exps = section.row_exponents
    plus_idx = [i for i, k in enumerate(exps) if k >= 0]
    minus_idx = [i for i, k in enumerate(exps) if k < 0]
    m = section.matrix
    top_left = m[np.ix_(plus_idx, plus_idx)]
    top_right = m[np.ix_(plus_idx, minus_idx)]
    bottom_left = m[np.ix_(minus_idx, plus_idx)]
    bottom_right = m[np.ix_(minus_idx, minus_idx)]

    plus_exps = [exps[i] for i in plus_idx]
    minus_exps = [exps[i] for i in minus_idx]

    def direct(symbol: LaurentPoly, row_exps, col_exps) -> np.ndarray:
        out = np.zeros((len(row_exps), len(col_exps)), dtype=complex)
        for i, je in enumerate(row_exps):
            for j, ke in enumerate(col_exps):
                out[i, j] = symbol.coeff(je - ke)
        return out

    residual = max(
        float(np.max(np.abs(top_left - direct(pair.a, plus_exps, plus_exps)))) if top_left.size else 0.0,
        float(np.max(np.abs(bottom_left - direct(pair.a, minus_exps, plus_exps)))) if bottom_left.size else 0.0,
        float(np.max(np.abs(top_right - direct(pair.b, plus_exps, minus_exps)))) if top_right.size else 0.0,
        float(np.max(np.abs(bottom_right - direct(pair.b, minus_exps, minus_exps)))) if bottom_right.size else 0.0,
    )
    return BlockDecomposition(top_left, top_right, bottom_left, bottom_right, residual)


# ---------------------------------------------------------------------------
# composition and commutation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompositionResidual:
    """How far the composition of two paired operators is from a paired operator.

    ``residual`` is the largest column norm of the untruncated matrix of
    T1 T2 - T12  on the basis vectors z^k, |k| <= N; ``formula_residual`` is
    the same for an independent closed form of the defect, and
    ``discrepancy`` is the largest column norm of the difference between the
    two routes (an algebraic identity, so zero to rounding).
    """

    kind: str
    band: int
    residual: float
    formula_residual: float
    discrepancy: float
    worst_exponent: int


def _composition_defect(
    first: SymbolPair, second: SymbolPair, band: int, kind: str
) -> tuple[np.ndarray, np.ndarray]:
    """Direct and factored matrices of  Op(first) Op(second) - Op(first.product(second)).

    Columns are the exponents -N..N; rows run over -(N+d1+d2)..(N+d1+d2) for
    band radii d1, d2, so column k is the whole defect on z^k.
    """
    if band < 1:
        raise ValueError("band must be at least 1")
    d1, d2 = first.band_radius(), second.band_radius()
    rows = range(-(band + d1 + d2), band + d1 + d2 + 1)
    inner = range(-(band + d2), band + d2 + 1)
    direct = _paired_window(first, kind, rows, band + d2) @ _paired_window(second, kind, inner, band)
    direct -= _paired_window(first.product(second), kind, rows, band)
    # the factored form keeps only the off-diagonal blocks of a paired window
    if kind == "paired":
        # (a1 - b1) (P+ b2 P- - P- a2 P+)
        switch = _paired_window(SymbolPair(-second.a, second.b), kind, inner, band)
        switch[: band + d2, :band] = switch[band + d2 :, band:] = 0
        factored = toeplitz_window(first.a - first.b, rows, inner) @ switch
    else:
        # (P- b1 P+ - P+ a1 P-) M_(a2 - b2)
        switch = _paired_window(SymbolPair(-first.a, first.b), kind, rows, band + d2)
        switch[: -rows.start, : band + d2] = switch[-rows.start :, band + d2 :] = 0
        factored = switch @ toeplitz_window(second.a - second.b, inner, range(-band, band + 1))
    return direct, factored


def _worst_column(defect: np.ndarray, closed_form: np.ndarray, band: int) -> tuple[float, int, float]:
    """Largest column norm of ``defect``, the first exponent reaching it, and
    the largest column norm of ``defect - closed_form``."""
    norms = np.linalg.norm(defect, axis=0)
    worst = int(np.argmax(norms))
    return float(norms[worst]), worst - band, float(np.linalg.norm(defect - closed_form, axis=0).max())


def composition_residual(
    first: SymbolPair, second: SymbolPair, band: int, kind: str = "paired"
) -> CompositionResidual:
    """Residual of  Op(first) Op(second) = Op(first.product(second)).

    For the paired kind the defect operator factors as
    ``(a1 - b1) (P+ b2 P- - P- a2 P+)``; for the transposed kind as
    ``(P- b1 P+ - P+ a1 P-) M_(a2 - b2)``.  Both the direct difference and the
    factored form are built from symbol coefficients and cross-checked.
    """
    if kind not in ("paired", "transposed"):
        raise ValueError("kind must be 'paired' or 'transposed'")
    direct, factored = _composition_defect(first, second, band, kind)
    residual, worst, discrepancy = _worst_column(direct, factored, band)
    formula_residual = float(np.linalg.norm(factored, axis=0).max())
    return CompositionResidual(kind, band, residual, formula_residual, discrepancy, worst)


@dataclass(frozen=True)
class CommutatorResidual:
    """Commutator of two paired operators on a basis window.

    ``commutator_norm`` is the largest column norm of the untruncated matrix
    of  T1 T2 - T2 T1  on the basis vectors z^k, |k| <= N;
    ``identity_discrepancy`` compares it with the difference of the two
    factored composition defects and is zero to rounding for all inputs.
    """

    band: int
    commutator_norm: float
    identity_discrepancy: float
    worst_exponent: int


def commutator_residual(first: SymbolPair, second: SymbolPair, band: int) -> CommutatorResidual:
    # both orders share the product (a1 a2, b1 b2), so T1 T2 - T2 T1 is the
    # difference of the two composition defects
    direct_12, factored_12 = _composition_defect(first, second, band, "paired")
    direct_21, factored_21 = _composition_defect(second, first, band, "paired")
    norm, worst, discrepancy = _worst_column(direct_12 - direct_21, factored_12 - factored_21, band)
    return CommutatorResidual(band, norm, discrepancy, worst)
