"""The polynomial text parser on ``LaurentPolynomial`` values: the
reference reader.

It reads one token at a time, and looks past the whitespace for a bad
character where no token matches.  Every token becomes a
``LaurentPolynomial``, each ``+`` and ``-`` adds the next term to a copy of
the running sum, and each ``*`` multiplies two polynomials.
``laurent.parse_polynomial`` sums and multiplies plain term maps
instead; this serves only as its oracle.  It makes the same checks in
the same order, bounds the coefficients of a power by the same
``_power_bound`` before computing it, and counts the term pairs of its
products against the same ``PARSE_PRODUCT_CAP`` before forming them,
once as they are and once weighted by the 1,024-bit blocks of the largest
coefficient on each side.
"""

import math
import re
from fractions import Fraction

from fanolab.laurent import (PARSE_COEFFICIENT_BITS, PARSE_NESTING_CAP,
                             PARSE_POWER_CAP, PARSE_PRODUCT_CAP,
                             PARSE_TERM_CAP,
                             LaurentPolynomial, ParseError, _power_bound,
                             _variable_order, factor_powers)

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<var>[a-z]\d*)|(?P<op>[-+*/^()]))")


def _blocks(poly):
    """ceil(b / 1024) for the largest b = bits of |numerator| plus bits of
    the denominator over the coefficients of poly; 0 for zero."""
    bits = [len(bin(abs(Fraction(c).numerator))) - 2
            + len(bin(Fraction(c).denominator)) - 2
            for c in poly.terms.values()]
    return math.ceil(max(bits, default=0) / 1024)


class _Parser:
    def __init__(self, text, rank_hint):
        self.text = text
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                rest = text[pos:].lstrip()
                if rest:
                    raise ParseError(f"unexpected character {rest[0]!r}",
                                     len(text) - len(rest))
                break
            self.tokens.append((m.lastgroup, m.group(m.lastgroup),
                                m.start(m.lastgroup)))
            pos = m.end()
        self.var_index, self.rank = _variable_order(
            sorted({val for kind, val, _ in self.tokens if kind == "var"}))
        if rank_hint is not None:
            if rank_hint < self.rank:
                raise ParseError(f"rank hint {rank_hint} smaller than "
                                 f"required rank {self.rank}")
            self.rank = rank_hint
        if self.rank == 0 and rank_hint is None:
            raise ParseError("constant polynomial needs a rank hint")
        self.i = 0
        self.depth = 0
        self.pairs = 0
        self.blocks = 0

    def peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self):
        poly = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected token {val!r}", pos)
        return poly

    def expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        poly = self.term()
        if negate:
            poly = -poly
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                poly = poly - rhs if val == "-" else poly + rhs
            else:
                return poly

    def term(self):
        poly = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                divisor_pos = self.peek()[2]
                rhs = self.factor()
                if val == "/":
                    rhs = self._invert(rhs, divisor_pos)
                self.pairs += len(poly) * len(rhs)
                self.blocks += (len(poly) * len(rhs) * _blocks(poly)
                                * _blocks(rhs))
                if self.pairs > PARSE_PRODUCT_CAP:
                    raise ParseError(f"the products form more than "
                                     f"{PARSE_PRODUCT_CAP} term pairs", pos)
                if self.blocks > PARSE_PRODUCT_CAP:
                    raise ParseError(f"the products' coefficients form more "
                                     f"than {PARSE_PRODUCT_CAP} pairs of "
                                     f"1,024-bit blocks", pos)
                poly = poly * rhs
            else:
                return poly

    def _invert(self, poly, pos):
        if poly.is_zero():
            raise ParseError("zero denominator", pos)
        if len(poly) != 1:
            raise ParseError("division is only defined by monomials", pos)
        (e, c), = poly.terms.items()
        return LaurentPolynomial(self.rank,
                                 {tuple(-x for x in e): Fraction(1, 1) / c})

    def factor(self):
        base = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            k = self._signed_int()
            if k < 0:
                base, k = self._invert(base, pos), -k
            return self._power(base, k, pos)
        return base

    @staticmethod
    def _power(base, k, pos):
        if len(base) > 1 and k > PARSE_POWER_CAP:
            raise ParseError(
                f"the exponent {k} is above {PARSE_POWER_CAP}", pos)
        if len(base):
            common, total = _power_bound(base.terms.values())
            bits = math.log2(total * common)
            if bits and k > PARSE_COEFFICIENT_BITS / bits:
                raise ParseError(f"the coefficients of the power could pass "
                                 f"{PARSE_COEFFICIENT_BITS} bits", pos)
        if len(base) <= 1:
            return base ** k
        for power in factor_powers(base, range(k + 1)):
            if len(power) > PARSE_TERM_CAP:
                raise ParseError(
                    f"the power has more than {PARSE_TERM_CAP} terms", pos)
        return power

    def _signed_int(self):
        kind, val, pos = self.next()
        sign = 1
        if kind == "op" and val == "-":
            sign = -1
            kind, val, pos = self.next()
        if kind != "num":
            raise ParseError("expected integer exponent", pos)
        return sign * int(val)

    def base(self):
        kind, val, pos = self.next()
        if kind == "num":
            return LaurentPolynomial(self.rank, {(0,) * self.rank: int(val)})
        if kind == "var":
            e = [0] * self.rank
            e[self.var_index[val]] = 1
            return LaurentPolynomial(self.rank, {tuple(e): 1})
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > PARSE_NESTING_CAP:
                raise ParseError(f"parentheses nested more than "
                                 f"{PARSE_NESTING_CAP} deep", pos)
            poly = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return poly
        if kind is None:
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {val!r}", pos)


def oracle_parse(text, rank_hint=None):
    """``parse_polynomial`` as it was before it summed term maps."""
    return _Parser(text, rank_hint).parse()
