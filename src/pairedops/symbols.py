"""Exact symbol algebra on the unit circle.

The basic object is a Laurent polynomial: a finite two-sided Fourier
coefficient table that represents either a bounded multiplier (a symbol) or
a trigonometric polynomial regarded as an element of L2.  On top of that sit
rational symbols with circle-free denominators (Blaschke products and
reciprocals), inner-outer factorization of analytic polynomials, Fourier
truncation of rationals, and a small expression parser used by the command
line tools.

Everything in this module is pure and deterministic.  "Exact" always means
exact up to IEEE double rounding; identity-style checks elsewhere in the
package use tolerances of 1e-12 or tighter for this layer.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "BLASCHKE_BOUNDARY_MARGIN",
    "CIRCLE_ROOT_TOL",
    "ConditioningError",
    "FactorizationError",
    "InnerOuterFactorization",
    "LaurentPoly",
    "NondegeneracyReport",
    "PolyRoots",
    "RationalSymbol",
    "RationalTruncation",
    "SymbolParseError",
    "blaschke",
    "in_conj_hardy",
    "in_conj_hardy_vanishing",
    "in_hardy",
    "inner_outer_factor",
    "is_nondegenerate",
    "parse_symbol",
    "poly_from_roots",
    "poly_roots",
    "rational_to_coeffs",
    "rational_to_coeffs_auto",
    "unit_grid",
]

# Distance from the unit circle below which a polynomial root counts as lying
# on the circle for factorization purposes.
CIRCLE_ROOT_TOL = 1e-7
# Blaschke zeros must stay at least this far inside the open disk.
BLASCHKE_BOUNDARY_MARGIN = 1e-3
# Distance from the unit circle that a pole, or a root whose side decides a
# winding number, must exceed.
CIRCLE_MARGIN = 1e-8
# Smallest sum of squared coefficient moduli that l2_norm takes unscaled: below
# it a subnormal square could carry more than rounding error into the sum.
_L2_UNSCALED_MIN = 2.0**-969
# Largest sum of coefficient moduli that sup_norm evaluates unscaled, with
# room for the rounding of every Horner step.
_HORNER_UNSCALED_MAX = 2.0**1020
_GOLDEN_ITERS = 60  # sup_norm refinement steps: 0.618^60 < 3e-13 of the window, below the grid's O(h^2)
_ROOT_RESIDUAL_TOL = 1e-10  # of a polished root, relative: a backward-stable companion solve leaves ~n eps
_FACTOR_CHECK_TOL = 1e-8  # inner-outer self-checks: simple roots within _ROOT_RESIDUAL_TOL stay far below
_FACTOR_CHECK_GRID = 1024  # points of those self-checks
_PRUNE_REL = 1e-14  # truncated coefficients below this share are noise: an FFT errs by ~log2(n) eps
_MIN_POLE_DISTANCE = 1e-6  # of a truncated pole from the circle: coefficients decay like (1 - d)^k
_START_BAND, _MAX_BAND = 32, 1 << 15  # rational_to_coeffs_auto's ladder: 1e-13 for poles ~1e-3 from the circle
_NEWTON_STEP_MIN = 1e-8  # poly_roots polishes where |p'| exceeds this share of the coefficients: steps stay ~n eps / 1e-8
_ORIGIN_TOL = 1e-9  # a zero within this of 0 takes the factor z, O(1e-9) from its own up to a unit, below _FACTOR_CHECK_TOL
_UNIMODULAR_TOL = 1e-12  # of a Blaschke constant's modulus from 1: a computed unit constant errs by a few eps
_SWEEP_GRID, _SWEEP_MIN = 512, 1e-9  # min |den| over 512 roots of unity below 1e-9 of its max refuses, behind CIRCLE_MARGIN

_Scalar = (int, float, complex, np.integer, np.floating, np.complexfloating)


class SymbolParseError(ValueError):
    """Raised on malformed symbol expressions; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class ConditioningError(ArithmeticError):
    """Raised when a rational symbol is too close to singular on the circle."""


class FactorizationError(ArithmeticError):
    """Raised when an inner-outer factorization fails its own residual checks."""


@functools.lru_cache(maxsize=16)
def unit_grid(n: int) -> np.ndarray:
    """Return the n-th roots of unity as a read-only complex vector.

    The array is cached per ``n`` and shared between callers, hence read-only.
    """
    grid = np.exp(2j * np.pi * np.arange(n) / n)
    grid.flags.writeable = False
    return grid


def _cabs(values: np.ndarray) -> np.ndarray:
    """Entrywise modulus, bit for bit Python's ``abs`` on each entry.

    ``np.abs`` on complex arrays may take a SIMD path that differs from libm
    ``hypot`` in the last bit, which would move pruning and residual decisions.
    """
    return np.hypot(values.real, values.imag)


class LaurentPoly:
    """A finite sum  sum_k c_k z^k  over integer exponents.

    Coefficients are stored sparsely; exactly-zero coefficients are dropped,
    so the zero symbol has an empty table and the canonical band (0, 0).
    Instances are immutable by convention and safe to share across threads.

    Every instance holds a canonical table: keys are Python ``int`` and values
    are finite, nonzero Python ``complex``.  Input from outside (the
    constructor, :meth:`from_dense`, :meth:`from_json_dict`) and arithmetic
    that can cancel to zero or overflow (``+``, ``-``, scalar ``*``) is
    validated entry by entry.  Maps that keep the invariant by construction
    (negation, :meth:`shift`, :meth:`conj_reflect`, the Riesz projections)
    and the nonzero entries of a finite dense vector go through the trusted
    :meth:`_trusted` path, which skips that pass.
    """

    __slots__ = ("_coeffs", "_kmin", "_kmax")

    def __init__(self, coeffs: Mapping[int, complex] | Iterable[tuple[int, complex]] = ()):
        items = coeffs.items() if type(coeffs) is dict or isinstance(coeffs, Mapping) else coeffs
        table: dict[int, complex] = {}
        for k, v in items:
            c = complex(v)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite coefficient at exponent {k}")
            if c != 0:
                table[int(k)] = c
        self._coeffs = table
        self._kmin, self._kmax = (min(table), max(table)) if table else (0, 0)

    @classmethod
    def _trusted(cls, table: dict[int, complex]) -> "LaurentPoly":
        """Adopt a table that already meets the class invariant, unchecked."""
        self = object.__new__(cls)
        self._coeffs = table
        self._kmin, self._kmax = (min(table), max(table)) if table else (0, 0)
        return self

    # -- construction helpers -------------------------------------------------

    @classmethod
    def monomial(cls, exponent: int, coefficient: complex = 1.0) -> "LaurentPoly":
        return cls({exponent: coefficient})

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1.0})

    @classmethod
    def from_dense(cls, values: Sequence[complex], kmin: int) -> "LaurentPoly":
        arr = np.asarray(values, dtype=complex)
        if not np.isfinite(arr).all():
            # the validating path names the first non-finite exponent
            return cls({kmin + i: v for i, v in enumerate(values)})
        nz = np.flatnonzero(arr)
        return cls._trusted(dict(zip((nz + kmin).tolist(), arr[nz].tolist())))

    # -- basic queries ---------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[int, complex]:
        return dict(self._coeffs)

    @property
    def band(self) -> tuple[int, int]:
        return (self._kmin, self._kmax)

    @property
    def kmin(self) -> int:
        return self._kmin

    @property
    def kmax(self) -> int:
        return self._kmax

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, k: int) -> complex:
        return self._coeffs.get(k, 0j)

    def items(self) -> list[tuple[int, complex]]:
        """Coefficients as (exponent, value) pairs in ascending exponent order."""
        return sorted(self._coeffs.items())

    def to_dense(self, kmin: int, kmax: int) -> np.ndarray:
        out = np.zeros(kmax - kmin + 1, dtype=complex)
        for k, v in self._coeffs.items():
            if kmin <= k <= kmax:
                out[k - kmin] = v
        return out

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.items()))

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(self.items())!r})"

    def __str__(self) -> str:
        return self.to_expression()

    def to_expression(self) -> str:
        """Render as a parseable expression string (for reports and the CLI)."""
        if self.is_zero:
            return "0"
        parts = []
        for k, c in self.items():
            if c.imag == 0:
                lit = repr(c.real)
            elif c.real == 0:
                lit = f"{c.imag!r}*i"
            else:
                lit = f"({c.real!r}+{c.imag!r}*i)"
            if k == 0:
                parts.append(lit)
            elif k == 1:
                parts.append(f"{lit}*z")
            else:
                parts.append(f"{lit}*z^{k}")
        return " + ".join(parts)

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other) -> "LaurentPoly":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        table = dict(self._coeffs)
        for k, v in other._coeffs.items():
            table[k] = table.get(k, 0j) + v
        return LaurentPoly(table)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted({k: -v for k, v in self._coeffs.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, _Scalar):
            c = complex(other)
            return LaurentPoly({k: v * c for k, v in self._coeffs.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return LaurentPoly()
        if len(other._coeffs) == 1:
            return self._times_term(*next(iter(other._coeffs.items())))
        if len(self._coeffs) == 1:
            return other._times_term(*next(iter(self._coeffs.items())))
        a = self.to_dense(self._kmin, self._kmax)
        b = other.to_dense(other._kmin, other._kmax)
        return LaurentPoly.from_dense(np.convolve(a, b), self._kmin + other._kmin)

    def _times_term(self, e: int, c: complex) -> "LaurentPoly":
        """Product with the single term c*z^e, entry for entry as ``np.convolve`` gives it.

        ``0j + v * c`` is the convolution sum of one product (signed zeros
        included); exact zeros are dropped and keys ascend, as in :meth:`from_dense`.
        """
        table = {}
        for k, v in sorted(self._coeffs.items()):
            p = 0j + v * c
            if not cmath.isfinite(p):
                raise ValueError(f"non-finite coefficient at exponent {k + e}")
            if p:
                table[k + e] = p
        return LaurentPoly._trusted(table)

    def __rmul__(self, other) -> "LaurentPoly":
        if isinstance(other, _Scalar):
            return self * other
        return NotImplemented

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k (exact exponent shift)."""
        k = int(k)
        return LaurentPoly._trusted({j + k: v for j, v in self._coeffs.items()})

    def conj_reflect(self) -> "LaurentPoly":
        """The symbol with boundary values conj(self(z)) for |z| = 1.

        Coefficientwise: the exponent-k coefficient of the result is the
        complex conjugate of the exponent-(-k) coefficient of the input.
        """
        return LaurentPoly._trusted({-k: v.conjugate() for k, v in self._coeffs.items()})

    # -- analysis ----------------------------------------------------------------

    def __call__(self, z):
        """Value at z, for z != 0 (callers evaluate on the unit circle).

        One Horner pass over the coefficients from kmax down to kmin, times
        z**kmin.  A scalar or 0-d input is evaluated in Python ``complex``
        arithmetic and returns a ``complex``; any other input returns a complex
        array of its shape.
        """
        terms = self._horner_terms()
        if not isinstance(z, _Scalar):
            zs = np.asarray(z, dtype=complex)
            if zs.ndim:
                out = _horner_array(terms, zs)
                if self._kmin:
                    out *= zs**self._kmin
                return out
            z = zs.item()
        z = complex(z)
        out = _horner(terms, z)
        return out * z**self._kmin if self._kmin else out

    def _horner_terms(self) -> list[tuple[int, complex]]:
        """Nonzero coefficients from kmax down to kmin, each after its exponent gap.

        The gap is the distance to the previous (higher) exponent, 0 for the
        first: a run of zero coefficients costs one power, not one step each.
        """
        exponents = sorted(self._coeffs, reverse=True)
        gaps = [0] + [k - j for k, j in zip(exponents, exponents[1:])]
        return [(gap, self._coeffs[k]) for gap, k in zip(gaps, exponents)]

    def l2_norm(self) -> float:
        """Euclidean norm of the coefficients.

        The squares are summed as they are unless that overflows or the sum
        falls below 2^-969; then the table is scaled first (:func:`_unit_scaled`).
        An unrepresentable norm raises :class:`OverflowError`.
        """
        values = self._coeffs.values()
        try:
            total = sum(abs(v) ** 2 for v in values)
        except OverflowError:
            total = math.inf
        if _L2_UNSCALED_MIN <= total < math.inf or not values:
            return math.sqrt(total)
        scaled, e = _unit_scaled(self)
        return _scaled_back(math.sqrt(sum(abs(v) ** 2 for v in scaled._coeffs.values())), e, "l2 norm")

    def ldexp(self, e: int) -> "LaurentPoly":
        """self * 2^e, exact except where a part falls into the subnormal range; entries that vanish are dropped."""
        scaled = ((k, complex(math.ldexp(v.real, e), math.ldexp(v.imag, e))) for k, v in self._coeffs.items())
        return LaurentPoly._trusted({k: v for k, v in scaled if v})

    def l1_norm(self) -> float:
        """Sum of coefficient magnitudes (an upper bound for the sup norm)."""
        return sum(abs(v) for v in self._coeffs.values())

    def max_abs_coeff(self) -> float:
        return max((abs(v) for v in self._coeffs.values()), default=0.0)

    def sup_norm(self, grid_points: int | None = None) -> float:
        """Max of |self| over the circle, estimated from below.

        Evaluates on the cached grid of n >= max(256, 16 * (band width + 1))
        roots of unity, spacing h = 2*pi/n.  Every grid local maximum theta_j
        = 2*pi*j/n whose value lies within B = (h^2/2) * sum (k - kbar)^2 |c_k|
        of the largest grid value G, with kbar = sum k |c_k| / sum |c_k|, gets
        one golden-section refinement pass over [theta_j - h, theta_j + h];
        the result underestimates the true sup norm by O(h^2).

        The bound B: for real kbar, F(t) = e^(-i kbar t) self(e^(it)) has
        |F| = |self| on the circle.  Let t* be a maximizer, M = |F(t*)|, and
        phi(t) = Re(conj(F(t*)) F(t)) / M.  Then phi <= |F| <= M = phi(t*), so
        phi'(t*) = 0 and |phi''| <= sum (k - kbar)^2 |c_k|, hence |self| >= phi
        >= M - B within h of t*.  The local maximum whose window holds t* has
        a grid value of at least M - B >= G - B, so no lower peak needs a
        pass; this kbar minimizes B.

        Both stages run the Horner evaluator of :meth:`__call__` (defined for
        z != 0) without the factor z**kmin, which has modulus one on the
        circle, over a term list built once.  The grid takes one array pass
        and only picks the peaks: numpy's complex multiply may take a SIMD
        path whose last bit depends on the CPU.  The values at the peaks and
        every refinement step are computed in Python ``complex`` arithmetic,
        with moduli from ``hypot``.

        On the circle every Horner partial sum is at most sum |c_k|.  When
        that may overflow, the table is scaled first (:func:`_unit_scaled`);
        an unrepresentable sup norm raises :class:`OverflowError`.
        """
        if self.is_zero:
            return 0.0
        n = max(grid_points or 0, 256, 16 * (self._kmax - self._kmin + 1))
        try:
            weights = [(k, abs(v)) for k, v in self._coeffs.items()]
            total = sum(w for _, w in weights)
        except OverflowError:
            total = math.inf
        if not total <= _HORNER_UNSCALED_MAX:
            scaled, e = _unit_scaled(self)
            return _scaled_back(scaled.sup_norm(n), e, "sup norm")
        terms = self._horner_terms()
        grid = unit_grid(n)
        values = _cabs(_horner_array(terms, grid))
        j = int(np.argmax(values))
        h = 2 * math.pi / n
        kbar = sum(k * w for k, w in weights) / total
        slack = h * h / 2 * sum((k - kbar) ** 2 * w for k, w in weights)
        near = np.flatnonzero(values >= values[j] - slack)
        top = values[near]
        peaks = near[(top > values[near - 1]) & (top >= values[(near + 1) % n])]

        def objective(t: float) -> float:
            return abs(_horner(terms, complex(math.cos(t), math.sin(t))))

        best = 0.0
        for i in {j, *peaks.tolist()}:
            theta = 2 * math.pi * i / n
            refined = _golden_max(objective, theta - h, theta + h)
            best = max(best, abs(_horner(terms, complex(grid[i]))), refined)
        return best

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"coeffs": [[k, v.real, v.imag] for k, v in self.items()]}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LaurentPoly":
        return cls({int(k): complex(re_, im) for k, re_, im in data["coeffs"]})


def _lift(value) -> "LaurentPoly":
    if isinstance(value, LaurentPoly):
        return value
    if isinstance(value, _Scalar):
        return LaurentPoly({0: complex(value)})
    return NotImplemented


def _unit_exponent(*polys: LaurentPoly) -> int:
    """The e for which 2^-e brings the largest real or imaginary part of the polys, not all zero, into [1/2, 1)."""
    return math.frexp(max(max(abs(v.real), abs(v.imag)) for p in polys for v in p._coeffs.values()))[1]


def _unit_scaled(p: LaurentPoly) -> tuple[LaurentPoly, int]:
    """(p / 2^e, e) for e = :func:`_unit_exponent` of nonzero p."""
    e = _unit_exponent(p)
    return p.ldexp(-e), e


def _scaled_back(value: float, e: int, what: str) -> float:
    """value * 2^e; :class:`OverflowError` when that is above the largest float."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        raise OverflowError(f"{what} {value!r} * 2^{e} is above the largest float") from None


def _horner(terms: list[tuple[int, complex]], z: complex) -> complex:
    """Horner's rule over :meth:`LaurentPoly._horner_terms` in Python arithmetic."""
    acc = 0j
    for gap, c in terms:
        acc = (acc * z if gap == 1 else acc * z**gap) + c
    return acc


def _horner_array(terms: list[tuple[int, complex]], zs: np.ndarray) -> np.ndarray:
    """:func:`_horner` at every entry of ``zs``, in place: one multiply and one add per term."""
    acc = np.zeros(zs.shape, dtype=complex)
    for gap, c in terms:
        if gap == 1:
            acc *= zs
        elif gap:
            acc *= zs**gap
        acc += c
    return acc


def _golden_max(fn, lo: float, hi: float) -> float:
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_GOLDEN_ITERS):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return max(fc, fd)


def in_hardy(a: LaurentPoly) -> bool:
    """True when the symbol has no negative Fourier modes (constants included)."""
    return a.is_zero or a.kmin >= 0


def in_conj_hardy(a: LaurentPoly) -> bool:
    """True when the symbol has no positive Fourier modes (constants included)."""
    return a.is_zero or a.kmax <= 0


def in_conj_hardy_vanishing(a: LaurentPoly) -> bool:
    """True when every Fourier mode is strictly negative."""
    return a.is_zero or a.kmax <= -1


@dataclass(frozen=True)
class NondegeneracyReport:
    """Which of the three nondegeneracy conditions hold for a symbol pair."""

    a_nonzero: bool
    b_nonzero: bool
    difference_nonzero: bool

    @property
    def ok(self) -> bool:
        return self.a_nonzero and self.b_nonzero and self.difference_nonzero

    @property
    def failures(self) -> tuple[str, ...]:
        out = []
        if not self.a_nonzero:
            out.append("a is zero")
        if not self.b_nonzero:
            out.append("b is zero")
        if not self.difference_nonzero:
            out.append("a - b is zero")
        return tuple(out)

    def __bool__(self) -> bool:
        return self.ok


def is_nondegenerate(a: LaurentPoly, b: LaurentPoly) -> NondegeneracyReport:
    """Check that a, b and a - b are all nonzero.

    A nonzero Laurent polynomial vanishes on at most finitely many points of
    the circle, so "nonzero almost everywhere" reduces to "not identically
    zero" for this symbol class.
    """
    return NondegeneracyReport(
        a_nonzero=not a.is_zero,
        b_nonzero=not b.is_zero,
        difference_nonzero=not (a - b).is_zero,
    )


# ---------------------------------------------------------------------------
# expression parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?)
      | (?P<unit>[ij])
      | (?P<z>z)
      | (?P<op>[-+*^()])
      | (?P<div>/)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SymbolParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind == "div":
            raise SymbolParseError("division is not part of the symbol grammar", pos)
        if kind == "num":
            tok = _Token("num", m.group("num"), pos)
            tokens.append(tok)
            end = m.end("num")
            # a number directly followed by i/j is an imaginary literal
            if end < len(text) and text[end] in "ij":
                tokens.append(_Token("unit", text[end], end))
                pos = end + 1
                continue
            pos = end
            continue
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    """Recursive-descent parser for +, -, *, parentheses, z^k and literals."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def parse(self) -> LaurentPoly:
        value = self.expression()
        tok = self.peek()
        if tok.kind != "end":
            raise SymbolParseError(f"unexpected {tok.text!r}", tok.pos)
        return value

    def expression(self) -> LaurentPoly:
        value = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> LaurentPoly:
        value = self.factor()
        while self.peek().kind == "op" and self.peek().text == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> LaurentPoly:
        tok = self.peek()
        if tok.kind == "op" and tok.text in "+-":
            self.advance()
            value = self.factor()
            return value if tok.text == "+" else -value
        return self.atom()

    def atom(self) -> LaurentPoly:
        tok = self.advance()
        if tok.kind == "num":
            imag_mark = self.peek()
            if imag_mark.kind == "unit" and imag_mark.pos == tok.pos + len(tok.text):
                self.advance()
                return LaurentPoly({0: complex(0.0, float(tok.text))})
            return LaurentPoly({0: float(tok.text)})
        if tok.kind == "unit":
            return LaurentPoly({0: 1j})
        if tok.kind == "z":
            if self.peek().kind == "op" and self.peek().text == "^":
                self.advance()
                return LaurentPoly.monomial(self.exponent())
            return LaurentPoly.monomial(1)
        if tok.kind == "op" and tok.text == "(":
            value = self.expression()
            closing = self.advance()
            if not (closing.kind == "op" and closing.text == ")"):
                raise SymbolParseError("expected ')'", closing.pos)
            return value
        raise SymbolParseError(f"unexpected {tok.text!r}" if tok.text else "unexpected end of input", tok.pos)

    def exponent(self) -> int:
        sign = 1
        tok = self.advance()
        if tok.kind == "op" and tok.text in "+-":
            sign = -1 if tok.text == "-" else 1
            tok = self.advance()
        if tok.kind != "num" or any(ch in tok.text for ch in ".eE"):
            raise SymbolParseError("exponent must be an integer", tok.pos)
        return sign * int(tok.text)


def parse_symbol(text: str) -> LaurentPoly:
    """Parse an expression over complex literals, z, z^k, +, -, * and parens.

    Negative powers are written ``z^-2``.  Division is rejected with a
    position-carrying :class:`SymbolParseError`, as is any other malformed
    input.  Parsing is exact over the given literals.
    """
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# roots and factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyRoots:
    """Roots-with-multiplicity of the polynomial part plus the z^m factor."""

    roots: tuple[complex, ...]
    monomial_order: int
    residuals: tuple[float, ...]


def poly_roots(p: LaurentPoly) -> PolyRoots:
    """Roots of a nonzero analytic polynomial via companion-matrix eigenvalues.

    The monomial factor z^kmin is split off first and reported as
    ``monomial_order``.  Each root receives one Newton polishing step (one
    vectorised pass over all roots) and is checked against
    ``_ROOT_RESIDUAL_TOL`` relative to the coefficient magnitude.  Companion
    entries c_k / c_n that would not be finite raise :class:`FactorizationError`.
    """
    if p.is_zero:
        raise ValueError("cannot take roots of the zero polynomial")
    if p.kmin < 0:
        raise ValueError("poly_roots requires an analytic band (kmin >= 0)")
    order = p.kmin
    q = p.shift(-order)
    degree = q.kmax
    if degree == 0:
        return PolyRoots((), order, ())
    dense = q.to_dense(0, degree)  # ascending powers
    # an exact power of two brings the largest part into [1/2, 1): subnormal
    # coefficients then reach neither the companion matrix nor the residuals
    e = math.frexp(float(np.max(np.maximum(np.abs(dense.real), np.abs(dense.imag)))))[1]
    dense = np.ldexp(dense.real, -e) + 1j * np.ldexp(dense.imag, -e)
    scale = float(np.max(np.abs(dense)))
    rev = dense[::-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if not np.isfinite(rev[1:] / rev[0]).all():
            raise FactorizationError("the companion matrix would not be finite: the leading coefficient is too small")
    roots = np.array(sorted(np.roots(rev), key=lambda w: (w.real, w.imag)), dtype=complex)
    deriv = dense[1:] * np.arange(1, degree + 1)
    val = np.polyval(rev, roots)
    dval = np.polyval(deriv[::-1], roots)
    step = _cabs(dval) > _NEWTON_STEP_MIN * scale
    roots[step] -= val[step] / dval[step]
    val[step] = np.polyval(rev, roots[step])
    # float powers one by one: numpy's array power may differ from libm pow in the last bit
    residuals = tuple(
        v / (scale * max(1.0, m) ** degree) for v, m in zip(_cabs(val).tolist(), _cabs(roots).tolist())
    )
    for res in residuals:
        if res > _ROOT_RESIDUAL_TOL:
            raise FactorizationError(f"root residual {res:.3e} exceeds {_ROOT_RESIDUAL_TOL:.1e}")
    return PolyRoots(tuple(roots.tolist()), order, residuals)


def poly_from_roots(roots: Sequence[complex], leading: complex = 1.0, shift: int = 0) -> LaurentPoly:
    """Build  leading * z^shift * prod (z - r)  as an exact coefficient table."""
    poly = LaurentPoly({0: leading})
    for r in roots:
        poly = poly * LaurentPoly({0: -complex(r), 1: 1.0})
    return poly.shift(shift)


def _monic(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """(num, den) divided by the leading coefficient of the analytic ``den``."""
    if den.is_zero:
        raise ZeroDivisionError("rational symbol with zero denominator")
    if den.kmin < 0:
        raise ValueError("denominator must be an analytic polynomial")
    inv = 1.0 / den.coeff(den.kmax)
    den = LaurentPoly({**{k: v * inv for k, v in den._coeffs.items() if k != den.kmax}, den.kmax: 1.0})
    return num * inv, den


class RationalSymbol:
    """Quotient of Laurent polynomials with an analytic, circle-free denominator.

    The denominator is normalized to be monic, and ``poles`` holds its roots
    with multiplicity.  Coefficient input (``RationalSymbol(num, den)``, as
    the parser, :meth:`from_json_dict` and callers' own tables give it) is
    solved once with :func:`poly_roots`; the roots must keep a distance of
    more than 1e-8 from the unit circle, and a minimum-modulus sweep over a
    grid must agree.  Every operation that already knows the roots composes
    them instead: products and sums concatenate the poles, negation and
    :meth:`shift` keep them, :meth:`conj_reflect` maps p to 1/conj(p), and
    :func:`blaschke` and :func:`inner_outer_factor` pass 1/conj(w) for each
    nonzero zero w.  The composed path keeps the normalization and the
    distance check, but neither solves nor sweeps.
    """

    __slots__ = ("num", "den", "poles")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        num, den = _monic(num, LaurentPoly.one() if den is None else den)
        if den.kmax == 0:
            self._adopt(num, den, ())
            return
        rr = poly_roots(den)
        if rr.monomial_order > 0:
            raise ValueError("denominator must not vanish at the origin")
        self._adopt(num, den, rr.roots)
        grid_vals = np.abs(den(unit_grid(_SWEEP_GRID)))
        if grid_vals.min() <= _SWEEP_MIN * grid_vals.max():
            raise ConditioningError("denominator nearly vanishes on the circle")

    @classmethod
    def _from_poles(cls, num: LaurentPoly, den: LaurentPoly, poles: Sequence[complex]) -> "RationalSymbol":
        """The symbol num/den, whose denominator has the known roots ``poles``."""
        self = object.__new__(cls)
        self._adopt(*_monic(num, den), tuple(poles))
        return self

    def _adopt(self, num: LaurentPoly, den: LaurentPoly, poles: tuple[complex, ...]) -> None:
        dist = min((abs(abs(p) - 1.0) for p in poles), default=math.inf)
        if dist <= CIRCLE_MARGIN:
            raise ConditioningError(f"denominator root within {dist:.2e} of the unit circle")
        self.num = num
        self.den = den
        self.poles = poles

    # -- helpers ---------------------------------------------------------------

    @classmethod
    def one(cls) -> "RationalSymbol":
        return cls(LaurentPoly.one())

    @property
    def is_polynomial(self) -> bool:
        return self.den == LaurentPoly.one()

    def as_laurent(self) -> LaurentPoly:
        if not self.is_polynomial:
            raise ValueError("rational symbol has a nontrivial denominator")
        return self.num

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def value_at_zero(self) -> complex:
        if self.num.kmin < 0:
            raise ValueError("numerator has negative exponents; no value at 0")
        return complex(self.num.coeff(0) / self.den.coeff(0))

    def __eq__(self, other) -> bool:
        if isinstance(other, RationalSymbol):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __repr__(self) -> str:
        return f"RationalSymbol({self.num!r}, {self.den!r})"

    # -- algebra -----------------------------------------------------------------

    def _coerce(self, other) -> "RationalSymbol":
        if isinstance(other, RationalSymbol):
            return other
        if isinstance(other, LaurentPoly):
            return RationalSymbol(other)
        if isinstance(other, _Scalar):
            return RationalSymbol(LaurentPoly({0: complex(other)}))
        return None

    def __mul__(self, other) -> "RationalSymbol":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return RationalSymbol._from_poles(self.num * rhs.num, self.den * rhs.den, self.poles + rhs.poles)

    __rmul__ = __mul__

    def __add__(self, other) -> "RationalSymbol":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return RationalSymbol._from_poles(
            self.num * rhs.den + rhs.num * self.den, self.den * rhs.den, self.poles + rhs.poles
        )

    __radd__ = __add__

    def __neg__(self) -> "RationalSymbol":
        return RationalSymbol._from_poles(-self.num, self.den, self.poles)

    def __sub__(self, other) -> "RationalSymbol":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other) -> "RationalSymbol":
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs + (-self)

    def shift(self, k: int) -> "RationalSymbol":
        return RationalSymbol._from_poles(self.num.shift(k), self.den, self.poles)

    def conj_reflect(self) -> "RationalSymbol":
        """Boundary conjugate: the rational with values conj(self(z)) on |z| = 1."""
        d = self.den.kmax
        return RationalSymbol._from_poles(
            self.num.conj_reflect().shift(d),
            self.den.conj_reflect().shift(d),
            tuple(1.0 / p.conjugate() for p in self.poles),
        )

    def to_json_dict(self) -> dict:
        return {"num": self.num.to_json_dict(), "den": self.den.to_json_dict()}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "RationalSymbol":
        return cls(LaurentPoly.from_json_dict(data["num"]), LaurentPoly.from_json_dict(data["den"]))


@dataclass(frozen=True)
class InnerOuterFactorization:
    """Inner x outer splitting of an analytic polynomial.

    The inner factor is z^m times a finite Blaschke product times a unimodular
    constant; the outer factor is a polynomial with no zeros strictly inside
    the disk, normalized so that its value at 0 is real and positive.  Roots
    lying on the unit circle are assigned to the outer factor.
    """

    inner: RationalSymbol
    outer: RationalSymbol
    unimodular_constant: complex
    monomial_order: int
    interior_roots: tuple[complex, ...]
    circle_roots: tuple[complex, ...]
    exterior_roots: tuple[complex, ...]

    @property
    def inner_is_constant(self) -> bool:
        return self.monomial_order == 0 and not self.interior_roots


def _blaschke_factor(zero: complex) -> tuple[LaurentPoly, LaurentPoly, tuple[complex, ...]]:
    """Numerator, denominator and denominator root of one Blaschke factor for a zero inside the disk."""
    if abs(zero) < _ORIGIN_TOL:
        return LaurentPoly.monomial(1), LaurentPoly.one(), ()
    u = abs(zero) / zero
    num = LaurentPoly({0: u * zero, 1: -u})
    den = LaurentPoly({0: 1.0, 1: -zero.conjugate()})
    return num, den, (1.0 / zero.conjugate(),)


def inner_outer_factor(p: LaurentPoly) -> InnerOuterFactorization:
    """Factor a nonzero analytic polynomial into inner and outer parts.

    Verifies its own output: the inner factor must be unimodular on a grid and
    the product must reproduce the input, both within ``_FACTOR_CHECK_TOL``
    relative.  The
    second check runs on p and the outer factor divided by one power of two
    (:func:`_unit_scaled`), so values of p that overflow cannot break it.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if p.kmin < 0:
        raise ValueError("inner_outer_factor requires an analytic polynomial")
    rr = poly_roots(p)
    interior = tuple(r for r in rr.roots if abs(r) < 1.0 - CIRCLE_ROOT_TOL)
    circle = tuple(r for r in rr.roots if abs(abs(r) - 1.0) <= CIRCLE_ROOT_TOL)
    exterior = tuple(r for r in rr.roots if abs(r) > 1.0 + CIRCLE_ROOT_TOL)
    leading = p.coeff(p.kmax)

    blaschke_num = LaurentPoly.one()
    blaschke_den = LaurentPoly.one()
    poles: tuple[complex, ...] = ()
    outer_poly = LaurentPoly({0: leading})
    for r in interior:
        fn, fd, fp = _blaschke_factor(r)
        blaschke_num = blaschke_num * fn
        blaschke_den = blaschke_den * fd
        poles += fp
        if abs(r) < _ORIGIN_TOL:
            continue
        outer_poly = outer_poly * LaurentPoly({0: 1.0, 1: -r.conjugate()})
        outer_poly = outer_poly * (-r / abs(r))
    for r in circle + exterior:
        outer_poly = outer_poly * LaurentPoly({0: -r, 1: 1.0})

    at_zero = outer_poly.coeff(0)
    if at_zero == 0:
        raise FactorizationError("outer candidate vanishes at the origin")
    gamma = at_zero / abs(at_zero)
    outer_poly = outer_poly * (1.0 / gamma)
    inner = RationalSymbol._from_poles(blaschke_num.shift(rr.monomial_order) * gamma, blaschke_den, poles)
    outer = RationalSymbol(outer_poly)

    grid = unit_grid(_FACTOR_CHECK_GRID)
    inner_vals = inner(grid)
    # written as `not x <= tol` so that a NaN from overflowing values refuses
    if not np.max(np.abs(np.abs(inner_vals) - 1.0)) <= _FACTOR_CHECK_TOL:
        raise FactorizationError("inner factor is not unimodular on the circle")
    unit_p, e = _unit_scaled(p)
    p_vals = unit_p(grid)
    product = inner_vals * outer_poly.ldexp(-e)(grid)
    if not np.max(np.abs(product - p_vals)) <= _FACTOR_CHECK_TOL * np.max(np.abs(p_vals)):
        raise FactorizationError("inner * outer does not reproduce the input")
    return InnerOuterFactorization(
        inner=inner,
        outer=outer,
        unimodular_constant=complex(gamma),
        monomial_order=rr.monomial_order,
        interior_roots=interior,
        circle_roots=circle,
        exterior_roots=exterior,
    )


def blaschke(zeros: Sequence[complex], constant: complex = 1.0) -> RationalSymbol:
    """Finite Blaschke product with the given zeros, times a unimodular constant."""
    c = complex(constant)
    if abs(abs(c) - 1.0) > _UNIMODULAR_TOL:
        raise ValueError("constant must be unimodular")
    num = LaurentPoly({0: c})
    den = LaurentPoly.one()
    poles: tuple[complex, ...] = ()
    for zero in zeros:
        w = complex(zero)
        if abs(w) >= 1.0 - BLASCHKE_BOUNDARY_MARGIN:
            raise ValueError(f"Blaschke zero {w!r} too close to the unit circle")
        fn, fd, fp = _blaschke_factor(w)
        num = num * fn
        den = den * fd
        poles += fp
    return RationalSymbol._from_poles(num, den, poles)


# ---------------------------------------------------------------------------
# Fourier truncation of rational symbols
# ---------------------------------------------------------------------------


class RationalTruncation(NamedTuple):
    coeffs: LaurentPoly
    grid_error: float


def _fft_size(band: int, extra: int) -> int:
    need = max(1024, 4 * (2 * band + 1), 4 * (extra + 1))
    n = 1
    while n < need:
        n <<= 1
    return n


def rational_to_coeffs(r: RationalSymbol, band: int) -> RationalTruncation:
    """Fourier coefficients of a rational symbol on exponents [-band, band].

    Sampled on an oversampled FFT grid; coefficients below ``_PRUNE_REL`` times
    the largest one are dropped as sampling noise.  The maximum reconstruction
    error over the grid is returned alongside; it decays geometrically in the
    band at a rate set by the distance of the denominator roots from the
    circle, which is why poles closer than ``_MIN_POLE_DISTANCE`` are rejected.
    """
    if band < 0:
        raise ValueError("band must be nonnegative")
    if r.poles:
        dist = min(abs(abs(p) - 1.0) for p in r.poles)
        if dist < _MIN_POLE_DISTANCE:
            raise ConditioningError(
                f"denominator root at distance {dist:.2e} from the circle; "
                f"need at least {_MIN_POLE_DISTANCE:.1e}"
            )
    width = (r.num.kmax - r.num.kmin) + r.den.kmax
    n = _fft_size(band, width)
    grid = unit_grid(n)
    vals = r.num(grid) / r.den(grid)
    spectrum = np.fft.fft(vals) / n
    slots = np.arange(-band, band + 1) % n
    window = spectrum[slots]
    magnitude = _cabs(window)
    window[~(magnitude > _PRUNE_REL * magnitude.max())] = 0
    pruned = LaurentPoly.from_dense(window, -band)
    recon_spec = np.zeros(n, dtype=complex)
    recon_spec[slots] = window
    recon = np.fft.ifft(recon_spec) * n
    err = float(np.max(np.abs(recon - vals)))
    return RationalTruncation(pruned, err)


def rational_to_coeffs_auto(r: RationalSymbol, *, tol: float = 1e-12) -> RationalTruncation:
    """Grow the band geometrically until the grid reconstruction error meets tol.

    The target is relative to the function magnitude (bounded through the l1
    norm of the coefficients), since the attainable floor of the grid error
    scales with the largest values the symbol takes on the circle; so the
    band does not depend on a common scale of the symbol.
    """
    band = _START_BAND
    last: RationalTruncation | None = None
    while band <= _MAX_BAND:
        last = rational_to_coeffs(r, band)
        if last.grid_error <= tol * last.coeffs.l1_norm():
            return last
        band *= 2
    raise ConditioningError(
        f"could not reach reconstruction tolerance {tol:.1e} within band {_MAX_BAND}"
        + (f"; best error {last.grid_error:.2e}" if last else "")
    )
