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
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

__all__ = [
    "BLASCHKE_BOUNDARY_MARGIN",
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

# Blaschke zeros must stay at least this far inside the open disk.
BLASCHKE_BOUNDARY_MARGIN = 1e-3
# Distance from the unit circle that a root's inclusion disk, or a pole, must
# exceed for the root to count as inside or outside (see _root_split).
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
_CONVERSION_TOL = 1e-12  # rational_to_coeffs_auto's grid error over the l1 norm: below kernels._MEMBERSHIP_TOL
_NEWTON_STEP_MIN = 1e-8  # poly_roots polishes where |p'| exceeds this share of the coefficients: steps stay ~n eps / 1e-8
_ORIGIN_TOL = 1e-9  # a zero within this of 0 takes the factor z, O(1e-9) from its own up to a unit, below _FACTOR_CHECK_TOL
_EPS = float(np.finfo(float).eps)

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
        _accumulate(table, other._coeffs, False)
        return LaurentPoly._trusted(table)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._trusted({k: -v for k, v in self._coeffs.items()})

    def __sub__(self, other) -> "LaurentPoly":
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        table = dict(self._coeffs)
        _accumulate(table, other._coeffs, True)
        return LaurentPoly._trusted(table)

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
        """Product with the single term c*z^e (see :func:`_term_product`)."""
        return LaurentPoly._trusted(_term_product(self._coeffs, e, c))

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

    def sup_norm(self) -> float:
        """Max of |self| over the circle, estimated from below.

        Evaluates on the cached grid of n = max(256, 16 * (band width + 1))
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
        :meth:`_sup_norm_enclosure` returns this value together with G + B.
        """
        return self._sup_norm_enclosure()[0]

    def _sup_norm_enclosure(self) -> tuple[float, float]:
        """:meth:`sup_norm`, and G + B from its grid, which bounds the sup norm above.

        G is the grid value at the grid argmax, in Python arithmetic.  The
        upper end is infinite when it is not representable.
        """
        if self.is_zero:
            return 0.0, 0.0
        n = max(256, 16 * (self._kmax - self._kmin + 1))
        try:
            weights = [(k, abs(v)) for k, v in self._coeffs.items()]
            total = sum(w for _, w in weights)
        except OverflowError:
            total = math.inf
        if not total <= _HORNER_UNSCALED_MAX:
            scaled, e = _unit_scaled(self)
            lower, upper = scaled._sup_norm_enclosure()
            lower = _scaled_back(lower, e, "sup norm")
            try:
                return lower, math.ldexp(upper, e)
            except OverflowError:
                return lower, math.inf
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
        return best, max(best, abs(_horner(terms, complex(grid[j]))) + slack)

    # -- serialization -----------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"coeffs": [[k, v.real, v.imag] for k, v in self.items()]}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "LaurentPoly":
        return cls({int(k): complex(re_, im) for k, re_, im in data["coeffs"]})


def _term_product(table: dict[int, complex], e: int, c: complex) -> dict[int, complex]:
    """The table of table * c*z^e, entry for entry as ``np.convolve`` gives it.

    ``0j + v * c`` is the convolution sum of one product (signed zeros
    included); exact zeros are dropped and keys ascend, as in
    :meth:`LaurentPoly.from_dense`.
    """
    out = {}
    for k, v in sorted(table.items()):
        p = 0j + v * c
        if not cmath.isfinite(p):
            raise ValueError(f"non-finite coefficient at exponent {k + e}")
        if p:
            out[k + e] = p
    return out


def _accumulate(table: dict[int, complex], terms: Mapping[int, complex], subtract: bool) -> None:
    """table -= terms if subtract else table += terms, in place, for canonical tables.

    Only the touched entries are checked, and exact zeros are popped, so keys,
    key order and values are those the validating constructor leaves of
    ``table.get(k, 0j) + v`` (or ``+ (-v)``, which IEEE subtraction equals).
    An overflow names the first non-finite exponent in table order, as it does.
    """
    finite = True
    for k, v in terms.items():
        s = table.get(k, 0j) - v if subtract else table.get(k, 0j) + v
        if s:
            table[k] = s
            finite = finite and cmath.isfinite(s)
        else:
            del table[k]  # only an existing entry can cancel: v != 0
    if not finite:
        k = next(k for k, v in table.items() if not cmath.isfinite(v))
        raise ValueError(f"non-finite coefficient at exponent {k}")


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

# A number with its glued imaginary unit, or any other non-space character.
_TOKEN_RE = re.compile(r"(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?[ij]?|\S")
# tuples, not strings: the end-of-input token "" is in every string
_SIGNS = ("+", "-")
_UNITS = ("i", "j")


def parse_symbol(text: str) -> LaurentPoly:
    """Parse an expression over complex literals, z, z^k, +, -, * and parens.

    Negative powers are written ``z^-2``.  Division is rejected with a
    position-carrying :class:`SymbolParseError`, as is any other malformed
    input.  Parsing is exact over the given literals, and linear in the
    length of the text: sums accumulate into one coefficient table in place,
    and runs of unary signs fold into one parity.  Parentheses nested deeper
    than the interpreter's stack allows are a :class:`SymbolParseError`.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # end of input
    i = 0  # index of the next token

    def error_at(message: str, index: int) -> SymbolParseError:
        # positions only on this path: a unit split off its number sits at the number's end
        matches = list(_TOKEN_RE.finditer(text))
        at = matches[index].end() - len(tokens[index]) if index < len(matches) else len(text)
        return SymbolParseError(message, at)

    def total() -> dict[int, complex]:
        nonlocal i
        table = product()
        while tokens[i] in _SIGNS:
            subtract = tokens[i] == "-"
            i += 1
            _accumulate(table, product(), subtract)
        return table

    def product() -> dict[int, complex]:
        nonlocal i
        table = None
        while True:
            negate = False
            while tokens[i] in _SIGNS:
                negate ^= tokens[i] == "-"
                i += 1
            tok = tokens[i]
            i += 1
            if tok == "(":
                factor = total()
                if tokens[i] != ")":
                    raise error_at("expected ')'", i)
                i += 1
            elif tok == "z":
                factor = {exponent() if tokens[i] == "^" else 1: 1 + 0j}
            elif tok in _UNITS:
                factor = {0: 1j}
            elif tok[:1].isdecimal() or tok[:1] == ".":
                c = complex(0.0, float(tok[:-1])) if tok[-1] in _UNITS else complex(float(tok))
                if not cmath.isfinite(c):
                    raise ValueError("non-finite coefficient at exponent 0")
                factor = {0: c} if c else {}
            else:
                raise error_at(f"unexpected {tok!r}" if tok else "unexpected end of input", i - 1)
            if negate:
                factor = {k: -v for k, v in factor.items()}
            if table is None:
                table = factor
            elif len(factor) == 1:
                table = _term_product(table, *next(iter(factor.items())))
            elif len(table) == 1:
                table = _term_product(factor, *next(iter(table.items())))
            else:  # as LaurentPoly.__mul__: zero, or the dense product
                table = (LaurentPoly._trusted(table) * LaurentPoly._trusted(factor))._coeffs
            if tokens[i] != "*":
                return table
            i += 1

    def exponent() -> int:
        nonlocal i
        sign = -1 if tokens[i + 1] == "-" else 1
        i += 2 if tokens[i + 1] in _SIGNS else 1
        tok = tokens[i]
        digits = tok[:-1] if tok[-1:] in _UNITS else tok
        if not digits.isdecimal():
            raise error_at("exponent must be an integer", i)
        if digits is tok:
            i += 1
        else:
            tokens[i] = tok[-1]  # a glued unit is the next token
        return sign * int(digits)

    try:
        table = total()
        if tokens[i]:
            tok = tokens[i]
            raise error_at(f"unexpected {tok[:-1] if len(tok) > 1 and tok[-1] in _UNITS else tok!r}", i)
    except (ValueError, RecursionError) as error:
        # a character outside the grammar is reported first, wherever it is
        for m in _TOKEN_RE.finditer(text):
            tok = m.group()
            if tok == "/":
                raise SymbolParseError("division is not part of the symbol grammar", m.start()) from None
            if len(tok) == 1 and tok not in "+-*^()ijz" and not tok.isdecimal():
                raise SymbolParseError(f"unexpected character {tok!r}", m.start()) from None
        if isinstance(error, RecursionError):
            depth = deepest = at = 0
            for index, tok in enumerate(tokens):
                depth += (tok == "(") - (tok == ")")
                if depth > deepest:
                    deepest, at = depth, index
            raise error_at(f"parentheses nested {deepest} deep exceed the recursion limit", at) from None
        raise
    return LaurentPoly._trusted(table)


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
    ``monomial_order``.  Each root receives one Newton polishing step and is
    checked against ``_ROOT_RESIDUAL_TOL`` relative to the coefficient
    magnitude.  Companion entries c_k / c_n that would not be finite raise
    :class:`FactorizationError`.

    All but the eigensolve runs in Python ``complex`` arithmetic: the
    companion row, the sort, and the polish and residuals through
    :func:`_horner`.  So the roots depend on the CPU only through LAPACK, not
    through numpy's SIMD complex multiply.
    """
    if p.is_zero:
        raise ValueError("cannot take roots of the zero polynomial")
    if p.kmin < 0:
        raise ValueError("poly_roots requires an analytic band (kmin >= 0)")
    order = p.kmin
    degree = p.kmax - order
    if degree == 0:
        return PolyRoots((), order, ())
    # an exact power of two brings the largest part into [1/2, 1): subnormal
    # coefficients then reach neither the companion matrix nor the residuals
    e = _unit_exponent(p)
    rev = [0j] * (degree + 1)  # descending powers
    for k, v in p._coeffs.items():
        rev[p.kmax - k] = complex(math.ldexp(v.real, -e), math.ldexp(v.imag, -e))
    lead = rev[0]
    row = [-c / lead for c in rev[1:]] if lead else [math.inf]
    if not all(map(cmath.isfinite, row)):
        raise FactorizationError("the companion matrix would not be finite: the leading coefficient is too small")
    companion = np.eye(degree, k=-1, dtype=complex)
    companion[0] = row
    terms = _dense_horner_terms(rev)
    deriv = _dense_horner_terms([k * c for k, c in zip(range(degree, 0, -1), rev)])
    scale = max(map(abs, rev))
    roots, residuals = [], []
    for r in sorted(np.linalg.eigvals(companion).tolist(), key=lambda w: (w.real, w.imag)):
        val = _horner(terms, r)
        dval = _horner(deriv, r)
        if abs(dval) > _NEWTON_STEP_MIN * scale:
            r -= val / dval
            val = _horner(terms, r)
        modulus = max(1.0, abs(r))
        try:
            res = abs(val) / (scale * modulus**degree)
        except OverflowError:  # |r|^degree above the largest float: one division per power, which may underflow
            res = abs(val) / scale
            for _ in range(degree):
                res /= modulus
        if res > _ROOT_RESIDUAL_TOL:
            raise FactorizationError(f"root residual {res:.3e} exceeds {_ROOT_RESIDUAL_TOL:.1e}")
        roots.append(r)
        residuals.append(res)
    return PolyRoots(tuple(roots), order, tuple(residuals))


def _dense_horner_terms(rev: list[complex]) -> list[tuple[int, complex]]:
    """The :func:`_horner` terms of the descending coefficients ``rev``, whose first entry is nonzero.

    Zero entries become exponent gaps, as in :meth:`LaurentPoly._horner_terms`;
    a trailing run of them ends the list with a zero term after its gap.
    """
    terms, gap = [], 0
    for c in rev:
        if c:
            terms.append((gap, c))
            gap = 1
        else:
            gap += 1
    if gap > 1:
        terms.append((gap - 1, 0j))
    return terms


def _root_split(symbol: LaurentPoly, margin: float = CIRCLE_MARGIN) -> tuple[tuple, tuple, tuple]:
    """:func:`_split_disks` of :func:`_root_disks`, whose :class:`FactorizationError` propagates."""
    return _split_disks(_root_disks(symbol), margin)


def _split_disks(disks: tuple, margin: float = CIRCLE_MARGIN) -> tuple[tuple, tuple, tuple]:
    """(inside, near, outside): the roots of :func:`_root_disks` ``disks`` by side of the circle.

    Every decision about a root's side of the circle reads this split.  A
    root is inside or outside when the component of its inclusion disk stays
    more than ``margin`` from the circle on that side, and near when the
    component reaches within ``margin`` of it or a disk in it cannot be
    computed.  A connected component of k disks holds exactly k roots, so one
    that stays clear of the circle lies on one side of it together with its
    computed roots.
    """
    roots, radii = disks
    n = len(roots)
    # `not x > margin` also makes a NaN distance near
    near = {i for i, r in enumerate(roots) if not abs(abs(r) - 1.0) - radii[i] > margin}
    grown = near
    while grown:  # a disk that overlaps a near disk is in its component
        overlap = (j for j in range(n) if any(abs(roots[j] - roots[i]) <= radii[i] + radii[j] for i in grown))
        grown = set(overlap) - near
        near |= grown
    return (
        tuple(r for i, r in enumerate(roots) if i not in near and abs(r) < 1.0),
        tuple(roots[i] for i in sorted(near)),
        tuple(r for i, r in enumerate(roots) if i not in near and abs(r) > 1.0),
    )


def _root_disks(symbol: LaurentPoly) -> tuple[tuple[complex, ...], tuple[float, ...]]:
    """(roots, radii): the computed roots of p = symbol * z^-kmin and the radii of their inclusion disks.

    The one place that solves for roots (:func:`poly_roots`, whose
    :class:`FactorizationError` propagates).  Every root of p lies in the
    union of the disks |z - r_i| <= radii[i], and a connected component of k
    of them holds exactly k roots.

    The disks: p has degree n, leading coefficient c and distinct computed
    roots r_i, and W_i = p(r_i) / (c prod_{j != i} (r_i - r_j)).  The matrix
    diag(r) - W 1^T has characteristic polynomial p / c, since both are monic
    and agree at every r_i.  Its Gerschgorin disks, centre r_i - W_i and
    radius (n - 1)|W_i|, lie inside |z - r_i| <= n |W_i|, which gives the
    counts (Carstensen, Numer. Math. 59, 1991).  |p(r_i)| is taken as its
    computed value plus the rounding bound 2(n + 1) eps sum |c_k| |r_i|^k.
    A root cluster, which a solve scatters over a disk of radius about
    eps^(1/multiplicity), gives disks of about that radius.  Coincident
    computed roots and a certificate that cannot be computed, even in
    logarithms (:func:`_disk_radius`), give a disk of infinite radius.
    """
    lifted = symbol.shift(-symbol.kmin)
    roots = poly_roots(lifted).roots if lifted.kmax else ()
    radii = tuple(_disk_radius(lifted, r, [r - s for j, s in enumerate(roots) if j != i]) for i, r in enumerate(roots))
    return roots, radii


def _disk_radius(lifted: LaurentPoly, r: complex, gaps: list[complex]) -> float:
    """n |W_i| of :func:`_root_disks` for the root r of ``lifted``, whose differences to the other roots are ``gaps``.

    Where a power |r|^k or the gap product is above the largest float, the
    radius is formed in logarithms (a huge root's disk stays finite); inf
    where it still cannot be computed, as for coincident roots.
    """
    n = len(gaps) + 1
    rounding = 2 * (n + 1) * _EPS
    value = abs(lifted(r))
    try:
        modulus = abs(r)
        bound = sum(abs(c) * modulus**k for k, c in lifted.items())
        denominator = abs(lifted.coeff(n) * math.prod(gaps))
        if denominator < math.inf:
            radius = n * (value + rounding * bound) / denominator
            return math.inf if math.isnan(radius) else radius
    except ZeroDivisionError:
        return math.inf
    except OverflowError:
        pass
    try:
        log_modulus = math.log(abs(r))
        logs = [math.log(rounding) + math.log(abs(c)) + k * log_modulus for k, c in lifted.items()]
        logs += [math.log(value)] if value else []
        top = max(logs)
        log_value = top + math.log(math.fsum(math.exp(t - top) for t in logs))
        log_gaps = math.log(abs(lifted.coeff(n))) + math.fsum(math.log(abs(g)) for g in gaps)
        radius = n * math.exp(log_value - log_gaps)
    except (ValueError, OverflowError):
        return math.inf
    return math.inf if math.isnan(radius) else radius


# Exact polynomial arithmetic over Q(i).  A float is a dyadic rational, so
# the coefficients of a parsed or drawn symbol are exact Gaussian rationals,
# kept as (re, im) pairs of Fractions in ascending order of exponent.


def _gaussian(p: LaurentPoly) -> list[tuple[Fraction, Fraction]]:
    """The coefficients of z^0 .. z^kmax of the analytic ``p``, exactly."""
    return [(Fraction(c.real), Fraction(c.imag)) for c in map(p.coeff, range(p.kmax + 1))]


def _gaussian_divmod(num: list, den: list) -> tuple[list, list]:
    """Quotient and remainder of ``num`` by ``den``, whose last coefficient is nonzero; the remainder is stripped."""
    (lead_re, lead_im), shift = den[-1], len(den) - 1
    norm = lead_re * lead_re + lead_im * lead_im
    rem, quot = list(num), [(Fraction(0), Fraction(0))] * max(0, len(num) - shift)
    for k in range(len(quot) - 1, -1, -1):
        re, im = rem[k + shift]
        c_re, c_im = (re * lead_re + im * lead_im) / norm, (im * lead_re - re * lead_im) / norm
        quot[k] = (c_re, c_im)
        for i, (d_re, d_im) in enumerate(den):
            r_re, r_im = rem[k + i]
            rem[k + i] = (r_re - (c_re * d_re - c_im * d_im), r_im - (c_re * d_im + c_im * d_re))
    rem = rem[:shift]
    while rem and rem[-1] == (0, 0):
        rem.pop()
    return quot, rem


def _exact_cofactors(p: LaurentPoly, q: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """(p / g, q / g) for g = gcd(p, q) of two nonzero analytic polynomials, exact over Q(i).

    Euclid's algorithm on the exact coefficients, each remainder made monic,
    which keeps the Fractions small; the quotients by the monic gcd leave no
    remainder, and each of their coefficients is then rounded once to the
    nearest float.  So
    deg p - deg(p / g) is the exact degree of the gcd of the polynomials the
    floats are.
    """
    first, second = _gaussian(q), _gaussian(p)
    while second:
        second = _gaussian_divmod(second, second[-1:])[0]
        first, second = second, _gaussian_divmod(first, second)[1]

    def reduced(poly: LaurentPoly) -> LaurentPoly:
        quot = _gaussian_divmod(_gaussian(poly), first)[0]
        return LaurentPoly({k: complex(float(re), float(im)) for k, (re, im) in enumerate(quot)})

    return reduced(p), reduced(q)


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
    solved once by :func:`_root_split`: a root near the circle raises
    :class:`ConditioningError`, and the roots inside and outside are the
    poles.  Every operation that already knows the roots composes them
    instead: products and sums concatenate the poles, negation and
    :meth:`shift` keep them, :meth:`conj_reflect` maps p to 1/conj(p), and
    :func:`blaschke` and :func:`inner_outer_factor` pass 1/conj(w) for each
    nonzero zero w.  The composed path keeps the normalization and the
    ``CIRCLE_MARGIN`` distance check, but solves nothing.  A product with a
    zero numerator is the zero symbol over 1.
    """

    __slots__ = ("num", "den", "poles")

    def __init__(self, num: LaurentPoly, den: LaurentPoly | None = None):
        num, den = _monic(num, LaurentPoly.one() if den is None else den)
        if den.kmin > 0:
            raise ValueError("denominator must not vanish at the origin")
        inside, near, outside = _root_split(den)
        if near:
            raise ConditioningError("denominator has a root on or near the unit circle")
        self._adopt(num, den, inside + outside)

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
        num = self.num * rhs.num
        if num.is_zero:
            return RationalSymbol(num)
        return RationalSymbol._from_poles(num, self.den * rhs.den, self.poles + rhs.poles)

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
    constant; the outer factor is a polynomial, normalized so that its value
    at 0 is real and positive.  The root tuples are the classes of
    :func:`_root_split`; the near and outside ones go to the outer factor.
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

    Each root goes by its class in :func:`_root_split`.  Verifies its own
    output: the inner factor must be unimodular on a grid and the product
    must reproduce the input, both within ``_FACTOR_CHECK_TOL`` relative.
    The second check runs on p and the outer factor divided by one power of
    two (:func:`_unit_scaled`), so values of p that overflow cannot break it.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if p.kmin < 0:
        raise ValueError("inner_outer_factor requires an analytic polynomial")
    interior, circle, exterior = _root_split(p)
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
    inner = RationalSymbol._from_poles(blaschke_num.shift(p.kmin) * gamma, blaschke_den, poles)
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
        monomial_order=p.kmin,
        interior_roots=interior,
        circle_roots=circle,
        exterior_roots=exterior,
    )


def blaschke(zeros: Sequence[complex]) -> RationalSymbol:
    """Finite Blaschke product with the given zeros, one :func:`_blaschke_factor` each."""
    num = LaurentPoly.one()
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


def rational_to_coeffs_auto(r: RationalSymbol) -> RationalTruncation:
    """Grow the band geometrically until the grid reconstruction error meets ``_CONVERSION_TOL``.

    The target is relative to the function magnitude (bounded through the l1
    norm of the coefficients), since the attainable floor of the grid error
    scales with the largest values the symbol takes on the circle; so the
    band does not depend on a common scale of the symbol.
    """
    band = _START_BAND
    last: RationalTruncation | None = None
    while band <= _MAX_BAND:
        last = rational_to_coeffs(r, band)
        if last.grid_error <= _CONVERSION_TOL * last.coeffs.l1_norm():
            return last
        band *= 2
    raise ConditioningError(
        f"could not reach reconstruction tolerance {_CONVERSION_TOL:.1e} within band {_MAX_BAND}"
        + (f"; best error {last.grid_error:.2e}" if last else "")
    )
