"""The symbol parser against its reference, and the table arithmetic it shares with LaurentPoly.

The reference below is the recursive-descent parser the library used before
it parsed straight to coefficient tables: a tokenizer pass that builds
``_Token`` tuples and a parser that makes every literal, ``z^k`` and partial
sum a ``LaurentPoly``.  It is kept here verbatim as the oracle; the library
parser must give the same table (key order and the ``repr`` of every value,
signed zeros included) or the same exception, message and position.
"""

from __future__ import annotations

import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pairedops.symbols import LaurentPoly, SymbolParseError, parse_symbol

# ---------------------------------------------------------------------------
# the reference parser
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
        try:
            return sign * int(tok.text)
        except ValueError:  # past the interpreter's integer-conversion digit limit
            raise SymbolParseError("exponent is too large", tok.pos) from None


def oracle_parse(text: str) -> LaurentPoly:
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# agreement with the reference
# ---------------------------------------------------------------------------


def _table(p: LaurentPoly) -> list[tuple[int, str]]:
    """The coefficient table in key order, each value by its repr (signed zeros included)."""
    return [(k, repr(v)) for k, v in p._coeffs.items()]


def _assert_agrees(text: str) -> None:
    try:
        want = oracle_parse(text)
    except ValueError as expected:
        with pytest.raises(ValueError) as error:
            parse_symbol(text)
        assert type(error.value) is type(expected)
        assert str(error.value) == str(expected)
        assert getattr(error.value, "position", None) == getattr(expected, "position", None)
        return
    got = parse_symbol(text)
    assert _table(got) == _table(want)
    assert got.band == want.band


# literal parts as test_symbols.py draws them: signed zeros, subnormals, huge
_SPECIAL_PARTS = [0.0, -0.0, 1.0, -2.5, 1e-200, -3e-170, 5e-324, 1e200, -1e308]
_SPACES = st.sampled_from(["", "", "", " ", "  ", "\t", "\n "])
_SIGN_RUNS = st.sampled_from(["", "", "", "", "-", "+", "--", "-+-", "+-+-+"])


@st.composite
def _literals(draw) -> str:
    kind = draw(st.integers(0, 4))
    if kind == 0:
        mantissa = str(draw(st.integers(0, 10**6)))
    elif kind == 1:
        mantissa = f"{draw(st.integers(0, 999))}.{draw(st.sampled_from(['', '5', '25', '000001']))}"
    elif kind == 2:
        mantissa = "." + draw(st.sampled_from(["5", "125", "0001"]))
    elif kind == 3:
        mantissa = repr(abs(draw(st.sampled_from(_SPECIAL_PARTS))))
    else:
        mantissa = repr(draw(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)))
    if "e" not in mantissa and draw(st.booleans()):
        exponent = draw(st.sampled_from(["0", "2", "17", "200", "308", "320", "400"]))
        mantissa += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"])) + exponent
    return mantissa + draw(st.sampled_from(["", "", "", "i", "j"]))


@st.composite
def _atoms(draw, depth: int) -> str:
    kind = draw(st.integers(0, 4 if depth < 3 else 3))
    if kind == 0:
        return draw(_literals())
    if kind == 1:
        return draw(st.sampled_from(["i", "j"]))
    if kind == 2:
        return "z"
    if kind == 3:
        sign = draw(st.sampled_from(["", "-", "+"]))
        return f"z^{draw(_SPACES)}{sign}{draw(st.integers(0, 12))}"
    return "(" + draw(_SPACES) + draw(_expressions(depth + 1)) + draw(_SPACES) + ")"


@st.composite
def _expressions(draw, depth: int = 0) -> str:
    text = ""
    for n in range(draw(st.integers(1, 4 if depth < 2 else 2))):
        if n:
            text += draw(_SPACES) + draw(st.sampled_from("+-")) + draw(_SPACES)
        for m in range(draw(st.integers(1, 3))):
            if m:
                text += draw(_SPACES) + "*" + draw(_SPACES)
            text += draw(_SIGN_RUNS) + draw(_atoms(depth))
    return text


# pieces that break the grammar: a glued unit on an exponent, juxtaposition,
# a fractional exponent, division, a foreign character, unbalanced parentheses
_BREAKS = ["z^2i", " 2", "1 2", "z^1.5", "/", "$", "(", ")", "^", "*", ".", "e", " i", "+", "z^", "é", "١"]


@st.composite
def _malformed(draw) -> str:
    text = draw(_expressions())
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(text)))
        if draw(st.booleans()) and text:
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + draw(st.sampled_from(_BREAKS)) + text[at:]
    return text


_PINNED = [
    # underflow, cancellation, overflow and signed zeros
    "1e-400", "1e-200*1e-200*z", "1e-200*z*1e-200 + 1", "z - z", "1 - 1 + z", "(1+z) - (z+1)",
    "1e400", "1e400i", "1e308 + 1e308", "1e308*z + 1e308 + 1e308*z + 1e308", "1e200*1e200",
    "(1e200 + 1e200*z)*(1e200 + z)", "i*i", "-0.0", "-0.0i", "--0", "-(0.0*i)", "(-1)*(-0.0)", "-0.0*z - 0.0",
    "0*z", "0i", "5e-324*0.5", "(1 + 5e-324*z)*(1 - z)",
    # literals and units, glued and spaced
    "2i", "2j", "2 i", "2*i", "3j*z", ".5", "5.", "5.e3", "1E+2", "2.5e-3j", "i", "j*j",
    # powers
    "z^+3", "z^-0", "z^ -2", "z^007", "z^99999999999999999999", "z*z^-1", "z^2i", "(z^2i)", "z^2i*3", "z^1.5", "z^1e2",
    "z^", "z^-", "z^(2)", "z^i", "z^--2",
    # sums, products, parentheses, whitespace
    "(1+z)*(1-z)", "(0.3+-1.2*i)*z^-2 + (1.5+0.25*i)*z^-1 - 2*z^0 + (-0.0+0.9*i)*z^2",
    " 1 +\tz^-1\n", "-(1 - z)*(z + 2i)", "+-+-z", "2*-3", "((((z))))", "(z)(z)",
    # malformed
    "", " ", "1 2", "z z", "z 2i", "/", "1/z", "$", "1 + $", "(1 + $", "(", ")", "(1+z", "1+z)", "()", "1e", ".", "1..2",
    "*z", "z*", "z+", "z^2^3", "é", "١٢ + z", "1 2 /",
]


@pytest.mark.parametrize("text", _PINNED)
def test_parser_agrees_with_the_reference_on_pinned_cases(text):
    _assert_agrees(text)


@settings(max_examples=250, deadline=None)
@given(_expressions())
@example("(0.3+-1.2*i)*z^-2 - -0.0*z")
def test_parser_agrees_with_the_reference_on_grammar_expressions(text):
    _assert_agrees(text)


@settings(max_examples=250, deadline=None)
@given(_malformed())
def test_parser_agrees_with_the_reference_on_malformed_expressions(text):
    _assert_agrees(text)


def test_sign_runs_of_any_length_parse():
    for n in range(12):
        _assert_agrees("-" * n + "z" + " - " + "+-" * n + "1")
    assert _table(parse_symbol("-" * 3000 + "1")) == [(0, "(1+0j)")]
    assert _table(parse_symbol("-" * 3001 + "2.5*z")) == _table(oracle_parse("-2.5*z"))
    assert _table(parse_symbol("-" * 3001 + "2.5")) == [(0, "(-2.5-0j)")]
    assert _table(parse_symbol("z^-2 -" + "+-" * 5000 + "z")) == _table(oracle_parse("z^-2 - z"))


def test_an_exponent_past_the_digit_limit_is_a_parse_error():
    digits = "9" * 5000
    for text in (f"z^{digits}", f"1 + z^-{digits}", f"z^{digits}i"):
        _assert_agrees(text)
        with pytest.raises(SymbolParseError, match="exponent is too large") as error:
            parse_symbol(text)
        assert error.value.position == text.index(digits)


def test_deep_nesting_parses_or_is_a_parse_error():
    # shallow enough for the reference too
    _assert_agrees("(" * 60 + "1 + z" + ")" * 60 + "*(" * 30 + "2" + ")" * 30)
    # the parser takes two frames a level, the reference four
    assert parse_symbol("(" * 200 + "z" + ")" * 200) == LaurentPoly({1: 1.0})
    with pytest.raises(SymbolParseError) as error:
        parse_symbol("(" * 3000 + "1" + ")" * 3000)
    assert str(error.value) == "parentheses nested 3000 deep exceed the recursion limit (at position 2999)"
    with pytest.raises(SymbolParseError, match="nested 3000 deep .* position 3005"):
        parse_symbol("(z) + " + "(" * 3000 + "1")
    # a character outside the grammar is still reported first
    with pytest.raises(SymbolParseError, match=r"unexpected character '\$' \(at position 6001\)"):
        parse_symbol("(" * 3000 + "1" + ")" * 3000 + "$")


# ---------------------------------------------------------------------------
# sums against rebuild-and-validate
# ---------------------------------------------------------------------------


def _rebuilt_sum(a: LaurentPoly, b: LaurentPoly, subtract: bool) -> LaurentPoly:
    """The sum as it was computed before the in-place accumulate: a + (-b), rebuilt and validated."""
    if subtract:
        b = LaurentPoly._trusted({k: -v for k, v in b._coeffs.items()})
    table = dict(a._coeffs)
    for k, v in b._coeffs.items():
        table[k] = table.get(k, 0j) + v
    return LaurentPoly(table)


def _assert_same_sum(a: LaurentPoly, b: LaurentPoly) -> None:
    for subtract in (False, True):
        try:
            want = _rebuilt_sum(a, b, subtract)
        except ValueError as expected:
            with pytest.raises(ValueError) as error:
                a - b if subtract else a + b
            assert str(error.value) == str(expected)
            continue
        got = a - b if subtract else a + b
        assert _table(got) == _table(want)
        assert got.band == want.band


_parts = st.one_of(
    st.sampled_from(_SPECIAL_PARTS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-4.0, max_value=4.0),
)


@st.composite
def _sum_operands(draw) -> tuple[LaurentPoly, LaurentPoly]:
    exponents = st.lists(st.integers(-6, 6), max_size=7, unique=True)
    a = LaurentPoly({k: complex(draw(_parts), draw(_parts)) for k in draw(exponents)})
    b = {k: complex(draw(_parts), draw(_parts)) for k in draw(exponents)}
    # copy, negate or flip a part of some shared entries so that sums and differences cancel to exact zero
    for k, v in a._coeffs.items():
        how = draw(st.integers(0, 4))
        if how == 1:
            b[k] = v
        elif how == 2:
            b[k] = -v
        elif how == 3:
            b[k] = complex(-v.real, b.get(k, v).imag)
    return a, LaurentPoly(b)


@settings(max_examples=400, deadline=None)
@given(_sum_operands())
def test_sums_match_rebuild_and_validate(operands):
    _assert_same_sum(*operands)


def test_sums_pinned_cases():
    a = LaurentPoly({0: 1.0, -1: complex(0.0, -0.0), 2: 1e308, 3: -1e308 + 1j})
    for b in (
        LaurentPoly({0: -1.0}),  # cancels to the zero entry, which goes
        LaurentPoly({0: 1.0, -1: complex(-0.0, 0.0), 5: 2.0}),  # signed zeros: 0.0 + -0.0 is 0.0
        LaurentPoly({3: 1e308, 2: 1e308}),  # one entry cancels its real part, the other overflows
        LaurentPoly({3: -1e308, 2: 1e308}),  # two overflows: the first in a's key order is named
        a,
    ):
        _assert_same_sum(a, b)
        _assert_same_sum(b, a)
    with pytest.raises(ValueError, match="exponent 2$"):
        a + LaurentPoly({3: -1e308, 2: 1e308})
    assert (a - a).is_zero and (a + (-a)).is_zero
    # a scalar lifts to the constant term, which cancels
    assert _table(1 - LaurentPoly({0: 1.0, 1: 2.0})) == [(1, "(-2+0j)")]


# ---------------------------------------------------------------------------
# linear time: one table, one trusted build
# ---------------------------------------------------------------------------


def _long_sum(n: int, seed: int) -> tuple[str, LaurentPoly]:
    rng = np.random.default_rng(seed)
    exponents = rng.permutation(np.arange(-n // 2, n - n // 2)).tolist()
    values = (rng.standard_normal(n) * 10.0 ** rng.uniform(-20, 20, n)).tolist()
    text = " ".join(f"{'-' if v < 0 else '+'} {abs(v)!r}*z^{k}" for k, v in zip(exponents, values))
    return text, LaurentPoly(dict(zip(exponents, values)))


def test_a_20000_term_sum_parses_to_the_constructor_table():
    text, want = _long_sum(20000, 11)
    got = parse_symbol(text)
    assert _table(got) == _table(want)
    assert got.band == want.band == (-10000, 9999)


def test_a_sum_of_terms_builds_one_trusted_table_and_validates_none(monkeypatch):
    builds = []
    trusted, init = LaurentPoly._trusted.__func__, LaurentPoly.__init__

    def counting_trusted(cls, table):
        builds.append("trusted")
        return trusted(cls, table)

    def counting_init(self, *args):
        builds.append("validated")
        init(self, *args)

    text, want = _long_sum(300, 12)
    monkeypatch.setattr(LaurentPoly, "_trusted", classmethod(counting_trusted))
    monkeypatch.setattr(LaurentPoly, "__init__", counting_init)
    got = parse_symbol(text + " + (1 - 2i)*(z^3 - z^-2)*i")
    assert builds == ["trusted"]
    assert got == want + LaurentPoly({3: 2 + 1j, -2: -2 - 1j})
