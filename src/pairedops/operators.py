"""Operator layer: Riesz projections, paired operators, sections, norms.

Two evaluation regimes coexist here on purpose.  The *exact* regime applies
an operator to a trigonometric polynomial with full band growth and no
truncation, so algebraic identities hold to rounding; it backs every kernel
and identity computation.  The *finite section* regime compresses an operator
to the exponent window [-N, N] and is used only where a limit N -> infinity
is the object of interest (operator norms, the adjoint of a section).

Both regimes build their matrices from symbol coefficients, not by applying
operators to basis vectors: the paired operator has entry a[i - j] in the
columns j >= 0 and b[i - j] in the others, its transposed companion splits
by row instead, and :func:`toeplitz_window` gathers each such window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .symbols import LaurentPoly, NondegeneracyReport, is_nondegenerate

__all__ = [
    "CoeffVector",
    "CompositionResidual",
    "CommutatorResidual",
    "DegeneratePairError",
    "FiniteSection",
    "SectionKind",
    "SymbolPair",
    "apply_paired",
    "apply_transposed",
    "commutator_residual",
    "composition_residual",
    "exact_action_matrix",
    "finite_section",
    "inner_product",
    "op_norm",
    "riesz_minus",
    "riesz_plus",
    "toeplitz_window",
]

# Role alias: a CoeffVector is a trigonometric polynomial regarded as an
# element of L2 rather than as a multiplier.  Same representation, same
# canonicalization rules.
CoeffVector = LaurentPoly

SectionKind = Literal["paired", "transposed"]


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


def apply_paired(pair: SymbolPair, v: CoeffVector) -> CoeffVector:
    """Exact action  a * (P+ v) + b * (P- v)  with full band growth."""
    return pair.a * riesz_plus(v) + pair.b * riesz_minus(v)


def apply_transposed(pair: SymbolPair, v: CoeffVector) -> CoeffVector:
    """Exact action  P+(a v) + P-(b v)  with full band growth."""
    return riesz_plus(pair.a * v) + riesz_minus(pair.b * v)


def inner_product(u: CoeffVector, v: CoeffVector) -> complex:
    """L2 inner product  sum_k u_k conj(v_k)."""
    if len(u._coeffs) <= len(v._coeffs):
        return sum((c * v.coeff(k).conjugate() for k, c in u.items()), 0j)
    return sum((u.coeff(k) * c.conjugate() for k, c in v.items()), 0j)


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


def finite_section(pair: SymbolPair, kind: SectionKind, band: int) -> FiniteSection:
    """Matrix of the compression  Pi_N Op Pi_N  in the exponent basis.

    ``kind`` is "paired" or "transposed".  The matrix is a window of symbol
    coefficients at row - col exponent (see :func:`toeplitz_window`), taking
    a on one side of exponent 0 and b on the other.
    """
    if band < 1:
        raise ValueError("band must be at least 1")
    if kind not in ("paired", "transposed"):
        raise ValueError(f"unknown section kind {kind!r}")
    window = range(-band, band + 1)
    matrix = _paired_window(pair, kind, window, band)
    return FiniteSection(kind, band, matrix, row_exponents=tuple(window), col_exponents=tuple(window))


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

    The section M of symbols of band radius d is banded, so G = M^H M has
    half-bandwidth 2d and is built from the symbols' coefficients alone
    (:func:`_gram_band`).  Plain Lanczos on G from a fixed start vector gives
    a top Ritz value theta <= lambda_max(G); once theta stops moving it is
    accepted only if a Cholesky factorization shows mu I - G positive
    definite for mu = theta (1 + 1e-13), which certifies lambda_max within
    1e-13 relative of theta, and sqrt(theta) is returned.  A section of
    n = 2N + 1 rows too small or too wide for the band to pay (see
    :func:`_band_path_pays`), or one not certified within 2n steps, takes
    the dense values-only SVD, the only place the dense section is built.

    Nondecreasing in the band up to that certified tolerance (sections are
    nested principal submatrices) and converges to the operator norm from
    below.
    """
    n = 2 * band + 1
    if _band_path_pays(n, pair.band_radius()):
        gram, exponent = _gram_band(pair, band)
        sigma = _lanczos_sigma(gram, _start_vector(n))
        if sigma is not None:
            return math.ldexp(sigma, exponent)
    matrix = finite_section(pair, "paired", band).matrix
    return float(np.linalg.svd(matrix, compute_uv=False)[0])


# Measured on a 2-core x86 VM with one OpenBLAS thread, against the dense
# values-only SVD of the same section: the band path breaks even at about
# n = 2N+1 = 113-161 rows for band radius d = 1..16 (2.3x slower at n = 65,
# d = 4), and at about n = 7.5 d for d = 32..64, where the Gram band is wide.
_LANCZOS_MIN_ROWS = 129
_LANCZOS_ROWS_PER_RADIUS = 8
_CERTIFY_SLACK = 1e-13
_RITZ_STALL = 1e-15
_RITZ_EVERY = 8


def _band_path_pays(n: int, d: int) -> bool:
    return n >= max(_LANCZOS_MIN_ROWS, _LANCZOS_ROWS_PER_RADIUS * d)


def _start_vector(n: int) -> np.ndarray:
    """A fixed pseudo-random complex start vector: same n, same bytes."""
    parts = np.random.default_rng(n).standard_normal((2, n))
    return parts[0] + 1j * parts[1]


def _gram_band(pair: SymbolPair, band: int) -> tuple[np.ndarray, int]:
    """The band of G = M^H M for M = 2^-e times the paired section, and e.

    Row j, column s of the band is G[j, j - 2d + s], d the pair's band
    radius.  Row i of the section is read from the coefficients of a and b
    on -d..d alone: entry t is M[i, i - d + t], the coefficient at exponent
    d - t of b for columns of negative exponent and of a for the others,
    and zero off the section, so no dense section is built.  2^e is the
    power of two next above the largest entry, so G neither overflows nor
    underflows and sigma scales back exactly.  Row i of M, supported on
    columns i-d..i+d, adds conj(M[i, k]) M[i, :] to Gram row k; with the
    band rows laid out at stride 4d+1 in a zero-padded buffer that is one
    strided view and one batched matmul.
    """
    d = pair.band_radius()
    n, width = 2 * band + 1, 4 * d + 1
    cols = np.arange(n)[:, None] + np.arange(-d, d + 1)
    # flipped so that entry t holds the coefficient at exponent d - t
    coeffs = np.where(cols < band, pair.b.to_dense(-d, d)[::-1], pair.a.to_dense(-d, d)[::-1])
    entries = np.where((cols >= 0) & (cols < n), coeffs, 0)
    exponent = math.frexp(float(np.abs(entries).max()))[1]
    padded = np.zeros((n + 2 * d, width), dtype=complex)
    padded[d : n + d, : 2 * d + 1] = entries * 2.0**-exponent
    flat = padded.reshape(-1)
    step = flat.strides[0]
    # shifted[j, p, s] = M[j - d + p, j - 2d + s]; column[j, p] = M[j - d + p, j]
    shifted = np.lib.stride_tricks.as_strided(
        flat, (n, 2 * d + 1, width), (width * step, (width - 1) * step, step), writeable=False
    )
    column = np.lib.stride_tricks.as_strided(
        flat[2 * d :], (n, 2 * d + 1), (width * step, (width - 1) * step), writeable=False
    )
    return np.matmul(column.conj()[:, None, :], shifted)[:, 0], exponent


def _lanczos_sigma(gram: np.ndarray, start: np.ndarray) -> float | None:
    """Certified sqrt(lambda_max) of the Hermitian band ``gram``, or None.

    Three-term Lanczos without reorthogonalization.  The coefficients are
    kept as Python floats, and the top eigenvalue theta of the real
    tridiagonal T_k is found every ``_RITZ_EVERY`` steps (less often past
    64) by :func:`_tridiagonal_top` in O(k), bracketed below by the
    previous check's theta (eigenvalues of T_k interlace those of T_k+1).
    Once theta moves by at most ``_RITZ_STALL`` relative it is certified by
    :func:`_dominates`; if the certificate fails, iteration goes on.  None
    after ``2n`` steps, or at an invariant subspace whose Ritz value fails
    the certificate.  A section whose top singular values cluster within
    O(1/n^2), such as that of (1 - z, 1 - z), needs about n steps; random
    bands need at most about 0.6 n.
    """
    if not gram.any():
        return 0.0
    n, w = gram.shape[0], gram.shape[1] // 2
    # Gershgorin: no eigenvalue of G exceeds the largest absolute row sum
    tiny = np.finfo(float).eps * float(np.abs(gram).sum(axis=1).max())
    padded = np.zeros(n + 2 * w, dtype=complex)
    step = padded.strides[0]
    window = np.lib.stride_tricks.as_strided(padded, (n, 2 * w + 1), (step, step), writeable=False)
    q, q_prev = start / np.linalg.norm(start), np.zeros(n, dtype=complex)
    # beta2s[j] couples row j of T to row j - 1; the leading 0.0 stands for row 0
    alphas, beta2s, beta, theta_prev, rise, check = [], [0.0], 0.0, None, 0.0, _RITZ_EVERY
    for k in range(1, 2 * n + 1):
        padded[w : n + w] = q
        v = np.einsum("js,js->j", gram, window)
        v -= beta * q_prev
        alpha = float(np.vdot(q, v).real)
        v -= alpha * q
        beta = float(np.vdot(v, v).real) ** 0.5
        alphas.append(alpha)
        invariant = beta <= tiny
        if invariant or k == check:
            check += max(_RITZ_EVERY, k // 8)
            lower = max(alphas) if theta_prev is None else theta_prev
            theta = _tridiagonal_top(alphas, beta2s, lower, rise)
            stalled = theta_prev is not None and abs(theta - theta_prev) <= _RITZ_STALL * theta
            if (invariant or stalled) and _dominates(gram, theta * (1 + _CERTIFY_SLACK)):
                return theta**0.5
            if invariant:
                return None
            rise, theta_prev = theta - lower, theta
        beta2s.append(beta * beta)
        q_prev, q = q, v / beta
    return None


def _sturm(alphas: list[float], beta2s: list[float], x: float) -> tuple[int, float]:
    """Eigenvalues of T above x, and f'/f at x for f(x) = det(x I - T).

    T is the real symmetric tridiagonal with diagonal ``alphas`` and squared
    off-diagonal ``beta2s[1:]`` (``beta2s[0]`` is 0.0).  The LDL^T pivots of
    x I - T are p_1 = x - alpha_1 and p_j = x - alpha_j - beta2_j / p_(j-1);
    the number of negative pivots is the count (Sylvester's law of
    inertia), and f'/f is the sum of p_j' / p_j.  An exactly zero pivot
    means x is an eigenvalue of a leading block: it is read at x plus an
    infinitesimal, as the smallest positive float, so the next pivot is
    very negative or -inf and f'/f turns infinite or NaN.
    """
    p, r, count, ratio = 1.0, 0.0, 0, 0.0
    for a, b2 in zip(alphas, beta2s):
        dp = 1.0 + b2 * r / p
        p = x - a - b2 / p
        if not p:
            p = math.ulp(0.0)
        r = dp / p
        ratio += r
        count += p < 0
    return count, ratio


def _tridiagonal_top(alphas: list[float], beta2s: list[float], lower: float, rise: float) -> float:
    """Largest eigenvalue of the tridiagonal T of :func:`_sturm`, in O(k).

    ``lower`` is at most that eigenvalue (up to rounding), and ``rise`` the
    amount the last estimate rose by.  An upper bracket is tried at
    lower + 2 |rise| (at the Gershgorin cap max alpha + 2 max beta when
    ``rise`` is 0) and widened 4x until no eigenvalue lies above it; each
    failed try raises the lower end.  Newton on det(x I - T) then descends
    monotonically from there, since the determinant is convex right of its
    largest root.  A point that lands below it by rounding, with exactly
    one eigenvalue above and f'/f < 0, steps up by Newton as well; a step
    from anywhere else, or one that leaves the bracket, is replaced by
    bisection.  The search stops at one ulp or when Newton makes no
    progress.
    """
    cap = max(alphas) + 2.0 * max(beta2s) ** 0.5
    lo, gap = lower, 2.0 * abs(rise) if rise else max(cap - lower, 0.0)
    while True:
        hi = min(lo + gap, cap)
        count, ratio = _sturm(alphas, beta2s, hi)
        if not count or hi == cap:
            break
        lo, gap = hi, 4.0 * gap
    x = hi
    while True:
        y = x - 1.0 / ratio if ratio else math.nan
        if y == x:
            return x
        if not lo < y < hi:
            y = 0.5 * (lo + hi)
            if not lo < y < hi:
                return hi
        count, ratio = _sturm(alphas, beta2s, y)
        if count:
            lo = y
            if count > 1 or ratio > 0:
                ratio = math.nan
        else:
            hi = y
        x = y


def _dominates(gram: np.ndarray, mu: float) -> bool:
    """Whether mu I - G is positive definite, for G given by its band.

    Blocks of at least the half-bandwidth make mu I - G block tridiagonal;
    it is positive definite exactly when every Schur complement
    S_k = D_k - E_k S_(k-1)^-1 E_k^H of its block LDL^H factorization is,
    which one batched Cholesky decides.
    """
    n, w = gram.shape[0], gram.shape[1] // 2
    # 16 rows per block beat 8 and 32 at n = 513: the loop runs n / size times
    size = max(w, 16)
    count = -(-n // size)
    # blocks[k, r, c] is entry (k size + r, (k - 1) size + c) of mu I - G,
    # with identity rows and columns padding n up to count * size
    rows = np.arange(count * size).reshape(count, size, 1)
    cols = rows[:, :1] - size + np.arange(2 * size)
    offset = cols - rows + w
    inside = (offset >= 0) & (offset <= 2 * w) & (cols >= 0) & (cols < n) & (rows < n)
    blocks = np.where(inside, -gram[rows.clip(max=n - 1), offset.clip(0, 2 * w)], 0)
    diagonal = np.arange(size)
    blocks[:, diagonal, size + diagonal] += np.where(rows[:, :, 0] < n, mu, 1.0)
    schur = blocks[:, :, size:]
    try:
        for k in range(1, count):
            below = blocks[k, :, :size]
            schur[k] -= below @ np.linalg.solve(schur[k - 1], below.conj().T)
        np.linalg.cholesky(schur)
    except np.linalg.LinAlgError:
        return False
    return True


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
