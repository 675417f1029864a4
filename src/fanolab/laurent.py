"""Exact sparse Laurent polynomial arithmetic in n variables.

A polynomial's terms are nonzero exact rational coefficients (plain ints
where possible) keyed by exponent.  It holds them in one or both of two
maps and builds the missing one from the other on first read:

* ``terms`` maps exponent tuples of length ``rank``; it is the public view.
* ``packed()`` maps Kronecker-packed keys: the exponent e is the one int
  sum of e_i * 2^(PACK_BITS * i) over signed e_i.  The key is linear in e,
  so adding exponents is one integer add and -e has the key -key.  Packing
  is exact while every |e_i| < 2^(PACK_BITS - 1); each packed map carries
  its span, a bound on the largest |e_i|, and a product's span is at most
  the sum of its factors' spans.

``__mul__`` multiplies packed maps while the product's span stays under
that bound, and multiplies exponent tuples past it; a packed product holds
only its packed map.  The public constructor checks every exponent and
coefficient.  Internal results already known to be clean (nonzero,
normalised coefficients, int tuples of length ``rank``) skip those checks
through ``_from_clean``.  Polynomials are immutable after construction.

The parser expands ``(...)^k`` only up to ``PARSE_TERM_CAP`` terms, a base
of two or more terms only up to the exponent ``PARSE_POWER_CAP``, and no
power whose coefficients could pass ``PARSE_COEFFICIENT_BITS`` bits; it
multiplies term maps only while the products of one text form at most
``PARSE_PRODUCT_CAP`` term pairs, and as many once each pair is weighted
by the 1,024-bit blocks of the largest coefficient on either side, and
refuses parentheses nested more than ``PARSE_NESTING_CAP`` deep.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import chain
from operator import index, neg

from .linalg import hnf_rows, unimodular_inverse

PACK_BITS = 24
_HALF = 1 << (PACK_BITS - 1)  # packing needs every |e_i| below this
_MASK = (1 << PACK_BITS) - 1

# the largest power the parser expands, in terms
PARSE_TERM_CAP = 10_000
# the largest exponent the parser expands a base of two or more terms to
PARSE_POWER_CAP = 1_000
# the most term pairs that the products of one text may form, summed over
# every * and /, and the most such pairs when each is weighted by the
# 1,024-bit blocks of the largest coefficient on either side (see _blocks),
# both checked before the product is formed: 10^6 pairs of small
# coefficients take 0.7-1.7 s, of the 300-digit binomials of (x + 1)^999
# 1.4-2.8 s, and of 1,001-bit coefficients, the slowest accepted input
# measured, 4.9 s, while 999 x 999 terms of 100,000-bit coefficients,
# minutes of work, are refused (2-core Xeon, Python 3.11)
PARSE_PRODUCT_CAP = 1_000_000
# the most bits, log2(|numerator| * denominator), that the parser lets a
# coefficient of a power reach, by the bound of _power_bound
PARSE_COEFFICIENT_BITS = 100_000
# the deepest nesting of parentheses the parser reads: each level takes four
# Python frames, and from a shallow stack about 250 levels exhaust the
# default recursion limit of 1,000, so the cap leaves the caller room
PARSE_NESTING_CAP = 100


class RankMismatchError(ValueError):
    pass


class ZeroPolynomialError(ValueError):
    pass


class ParseError(ValueError):
    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


def _norm_coeff(c):
    """Keep integer coefficients as plain ints."""
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    if isinstance(c, int):
        return c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c)!r}")


def _clean(acc):
    """``acc`` without its zero coefficients, integral Fractions as ints."""
    out = {k: c for k, c in acc.items() if c}
    if any(type(c) is not int for c in out.values()):
        out = {k: _norm_coeff(c) for k, c in out.items()}
    return out


def _pack(e):
    """The packed key of an exponent tuple whose entries are below _HALF."""
    key = 0
    for x in reversed(e):
        key = (key << PACK_BITS) + x
    return key


def _unpack(key, rank):
    """The exponent tuple of a packed key: its signed base-2^PACK_BITS
    digits, lowest first."""
    e = []
    for _ in range(rank - 1):
        x = ((key + _HALF) & _MASK) - _HALF
        e.append(x)
        key = (key - x) >> PACK_BITS
    e.append(key)
    return tuple(e)


def _opposite(e):
    return tuple(-x for x in e)


def _packed_product(a, b):
    """The product of two packed term maps, zero sums included."""
    if len(a) > len(b):
        a, b = b, a
    if not a:
        return {}
    (k0, c0), *rows = a.items()
    # the keys of one row are distinct, so the first fills the map directly
    acc = {k0 + kb: c0 * cb for kb, cb in b.items()}
    get = acc.get
    for ka, ca in rows:
        for kb, cb in b.items():
            k = ka + kb
            acc[k] = get(k, 0) + ca * cb
    return acc


def _tuple_product(a, b):
    """The product of two tuple-keyed term maps, zero sums included."""
    if len(a) > len(b):
        a, b = b, a
    acc = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            acc[e] = acc.get(e, 0) + ca * cb
    return acc


class LaurentPolynomial:
    """A Laurent polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples (length ``rank``) to nonzero coefficients.
    The zero polynomial is the empty term map.  ``_terms`` and ``_packed``
    hold the two views, either one None until first read; ``_span`` is None
    until the packed view is built, then a bound on the largest |e_i| (at
    least _HALF when the polynomial cannot be packed).
    """

    __slots__ = ("rank", "_terms", "_packed", "_span")

    def __init__(self, rank, terms):
        if rank < 1:
            raise ValueError("rank must be a positive integer")
        clean = {}
        for e, c in terms.items():
            if len(e) != rank:
                raise RankMismatchError(
                    f"exponent {e} has length {len(e)}, expected {rank}")
            c = _norm_coeff(c)
            if c != 0:
                clean[tuple(map(index, e))] = c
        self._set(rank, clean, None, None)

    @classmethod
    def _from_clean(cls, rank, terms=None, packed=None, span=None):
        """A polynomial from ``terms``, or from ``packed`` and its span,
        with nothing checked: the keys must be int tuples of length
        ``rank`` (packed keys within the span) and every coefficient a
        nonzero int or a non-integral Fraction."""
        f = object.__new__(cls)
        f._set(rank, terms, packed, span)
        return f

    def _set(self, rank, terms, packed, span):
        setattr_ = object.__setattr__
        setattr_(self, "rank", rank)
        setattr_(self, "_terms", terms)
        setattr_(self, "_packed", packed)
        setattr_(self, "_span", span)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- the two term maps -------------------------------------------------

    @property
    def terms(self):
        """The term map keyed by exponent tuples."""
        terms = self._terms
        if terms is None:
            rank = self.rank
            terms = {_unpack(k, rank): c for k, c in self._packed.items()}
            object.__setattr__(self, "_terms", terms)
        return terms

    def packed(self):
        """The term map keyed by packed exponents, or None when an exponent
        is past the packing bound.  Internal: keys depend on PACK_BITS."""
        if self._span is None:
            span = max(map(abs, chain.from_iterable(self._terms)), default=0)
            object.__setattr__(self, "_span", span)
            if span < _HALF:
                object.__setattr__(self, "_packed", {
                    _pack(e): c for e, c in self._terms.items()})
        return self._packed

    def _some_terms(self):
        """Whichever term map is built, for reads that need no keys."""
        return self._packed if self._terms is None else self._terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank):
        return cls(rank, {})

    @classmethod
    def one(cls, rank):
        return cls(rank, {(0,) * rank: 1})

    @classmethod
    def monomial(cls, rank, exponent):
        return cls(rank, {tuple(exponent): 1})

    @classmethod
    def from_terms(cls, rank, pairs):
        """Build from (exponent, coefficient) pairs, summing duplicates."""
        acc = {}
        for e, c in pairs:
            e = tuple(map(index, e))
            acc[e] = acc.get(e, 0) + c
        return cls(rank, acc)

    # -- basic queries -----------------------------------------------------

    def is_zero(self):
        return not self._some_terms()

    def coefficient(self, exponent):
        e = tuple(exponent)
        if len(e) != self.rank:
            raise RankMismatchError(
                f"exponent length {len(e)} does not match rank {self.rank}")
        return self.terms.get(e, 0)

    def constant_term(self):
        return self.terms.get((0,) * self.rank, 0)

    def support(self):
        return sorted(self.terms)

    def __len__(self):
        return len(self._some_terms())

    def __bool__(self):
        return bool(self._some_terms())

    # -- ring operations ---------------------------------------------------

    def _check_rank(self, other):
        if self.rank != other.rank:
            raise RankMismatchError(
                f"rank mismatch: {self.rank} vs {other.rank}")

    def __add__(self, other):
        self._check_rank(other)
        acc = dict(self.terms)
        for e, c in other.terms.items():
            acc[e] = acc.get(e, 0) + c
        return LaurentPolynomial._from_clean(self.rank, _clean(acc))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_rank(other)
        a, b = self.packed(), other.packed()
        if a is not None and b is not None:
            span = self._span + other._span
            if span < _HALF:
                return LaurentPolynomial._from_clean(
                    self.rank, packed=_clean(_packed_product(a, b)),
                    span=span)
        return LaurentPolynomial._from_clean(
            self.rank, _clean(_tuple_product(self.terms, other.terms)))

    __rmul__ = __mul__

    def scale(self, c):
        return LaurentPolynomial._from_clean(
            self.rank, _clean({e: v * c for e, v in self.terms.items()}))

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        if len(self) <= 1 and k:  # a monomial or zero, in one step
            return LaurentPolynomial._from_clean(
                self.rank, {tuple(k * x for x in e): c ** k
                            for e, c in self.terms.items()})
        return next(factor_powers(self, (k,)))

    def pair(self, other):
        """The constant term of self * other, without building the product:
        the sum over m of self[m] * other[-m].  Packed keys are linear in
        the exponent, so -m has the key -key."""
        self._check_rank(other)
        a, b = self.packed(), other.packed()
        opposite = neg
        if a is None or b is None:  # an exponent past the packing bound
            a, b = self.terms, other.terms
            opposite = _opposite
        if len(a) > len(b):
            a, b = b, a
        total = 0
        for m, c in a.items():
            d = b.get(opposite(m))
            if d is not None:
                total += c * d
        return _norm_coeff(total)

    def shift(self, exponent):
        """Multiply by the monomial x^exponent."""
        e0 = tuple(map(index, exponent))
        if len(e0) != self.rank:
            raise RankMismatchError(
                f"shift {e0} has length {len(e0)}, expected {self.rank}")
        return LaurentPolynomial._from_clean(
            self.rank,
            {tuple(x + y for x, y in zip(e, e0)): c
             for e, c in self.terms.items()})

    def apply_matrix(self, matrix):
        """Replace each exponent e by matrix @ e (rows of ints)."""
        return LaurentPolynomial.from_terms(self.rank, (
            (tuple(sum(row[i] * e[i] for i in range(self.rank))
                   for row in matrix), c)
            for e, c in self.terms.items()))

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __repr__(self):
        return f"LaurentPolynomial({self.rank}, {format_polynomial(self)!r})"

    def __str__(self):
        return format_polynomial(self)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self):
        return {
            "n": self.rank,
            "terms": [{"e": list(e), "c": str(c)}
                      for e, c in sorted(self.terms.items())],
        }

    @classmethod
    def from_json_dict(cls, data):
        """Inverse of ``to_json_dict``.  The rank and the exponents must be
        JSON integers and each coefficient a JSON integer or a string that
        ``Fraction`` reads; input of another shape raises TypeError, and a
        zero denominator ValueError."""
        rank = json_value(data["n"], int, "n")
        dicts = (json_value(t, dict, "a term")
                 for t in json_value(data["terms"], list, "terms"))
        return cls.from_terms(rank, (
            (tuple(json_value(x, int, "an exponent")
                   for x in json_value(t["e"], list, "an exponent vector")),
             _json_coefficient(t["c"])) for t in dicts))


def factor_powers(factor, exponents):
    """Yield F^k for each k of an ascending sequence of exponents k >= 0.

    One multiplication per step up to the largest k, none for F^1, and
    F^0 is built only when asked for.  Only the latest power is kept, so a
    caller that needs several at once holds them itself.
    """
    power, done = None, 0
    for k in exponents:
        while done < k:
            power = power * factor if done else factor
            done += 1
        yield power if k else LaurentPolynomial.one(factor.rank)


def _json_coefficient(c):
    """An exact coefficient from a JSON integer or string, never a float."""
    if type(c) not in (int, str):
        raise TypeError(
            f"a coefficient must be an integer or a string, got {_quote(c)}")
    try:
        return Fraction(c)
    except ZeroDivisionError:
        raise ValueError(
            f"coefficient {_quote(c)} has a zero denominator") from None


_JSON_KINDS = {int: "an integer", list: "a list", dict: "an object"}


def json_value(value, kind, what):
    """``value`` when its type is exactly ``kind`` (so a bool is not an int
    and a float never is); otherwise TypeError naming ``what``."""
    if type(value) is not kind:
        raise TypeError(
            f"{what} must be {_JSON_KINDS[kind]}, got {_quote(value)}")
    return value


# the most characters of an offending JSON value that an error quotes
_QUOTE_CAP = 60


def _quote(value):
    """repr(value), cut after ``_QUOTE_CAP`` characters and marked so."""
    text = repr(value)
    return text if len(text) <= _QUOTE_CAP else text[:_QUOTE_CAP] + "..."


# ---------------------------------------------------------------------------
# lattice-level change of variables


class NotUnimodularError(ValueError):
    pass


def substitute_unimodular(f, matrix):
    """Apply the monomial change of variables given by a GL(n,Z) matrix."""
    matrix = tuple(tuple(map(index, row)) for row in matrix)
    if len(matrix) != f.rank or any(len(r) != f.rank for r in matrix):
        raise RankMismatchError("matrix shape does not match rank")
    try:
        unimodular_inverse(matrix)  # integral exactly when det = +-1
    except ValueError:
        raise NotUnimodularError("matrix determinant is not +-1") from None
    return f.apply_matrix(matrix)


def exponent_lattice_index(f):
    """Rank and index of the sublattice generated by the exponents of f.

    Returns ``(rank, index)`` where ``index`` is None when the sublattice is
    not of full rank (infinite index).  Index 1 means the exponents generate
    the whole lattice.
    """
    if f.is_zero():
        raise ZeroPolynomialError("zero polynomial has no exponent lattice")
    rows = [list(e) for e in f.terms]
    h, rk = hnf_rows(rows)
    if rk < f.rank:
        return rk, None
    index = 1
    # full rank: the HNF is square upper triangular on its pivot columns
    for i in range(rk):
        pivot = next(x for x in h[i] if x != 0)
        index *= abs(pivot)
    return rk, index


# ---------------------------------------------------------------------------
# text grammar


# every character but whitespace starts a token, and one that starts no
# other kind is a "bad" token
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<var>[a-z]\d*)|(?P<op>[-+*/^()])|(?P<bad>\S))")


def _power_bound(coeffs):
    """(L, A) for F with the coefficients ``coeffs``: L the lcm of their
    denominators and A = L * sum |c|, an integer.

    F = G / L for G with integer coefficients whose absolute values sum to
    A, so every coefficient of F^k, the constant term included, has a
    numerator of absolute value at most A^k and a denominator dividing
    L^k.  For a monomial c = p/q, A = |p| and L = q, and the bound is
    exact.
    """
    common = math.lcm(*(c.denominator for c in coeffs))
    return common, int(common * sum(map(abs, coeffs)))


def _variable_order(names):
    """Deterministic variable -> coordinate assignment.

    Indexed names (x1, x2, ...) are ordered by index; sets of single letters
    use the conventional x,y,z,w order when possible, otherwise alphabetical.
    """
    indexed = [n for n in names if len(n) > 1]
    if indexed:
        if len(indexed) != len(names):
            raise ParseError("inconsistent variable set: "
                             "cannot mix indexed and plain variables")
        if any(not n.startswith("x") for n in names):
            raise ParseError("indexed variables must be x1..xn")
        order = {}
        rank = 0
        for n in names:
            idx = int(n[1:])
            if idx < 1:
                raise ParseError(f"bad variable index in {n!r}")
            order[n] = idx - 1
            rank = max(rank, idx)
        return order, rank
    letters = sorted(names)
    if set(letters) <= set("xyzw"):
        # absolute slots, so e.g. "y" alone still means the second variable
        # and formatting round-trips
        order = {v: "xyzw".index(v) for v in letters}
        rank = 1 + max(order.values()) if order else 0
        return order, rank
    return {v: i for i, v in enumerate(letters)}, len(letters)


def _blocks(terms):
    """The 1,024-bit blocks of the largest coefficient of a term map,
    counting numerator and denominator bits together."""
    bits = max((c.numerator.bit_length() + c.denominator.bit_length()
                for c in terms.values()), default=0)
    return -(-bits // 1024)


class _Parser:
    """Recursive-descent parser for the polynomial text grammar.

    Accepts a superset of the printed grammar: parenthesised subexpressions
    with integer powers and division by monomials, so inputs like
    ``(x+y+1)^3/(x*y*z) + z`` work.  ``format_polynomial`` only ever emits
    the flat grammar, and parse(format(f)) == f exactly.  The variable set,
    and so the rank, is read off the tokens, so a character that does not
    tokenize is refused before any fault of the variable set or the rank.
    Each rule returns a clean term map, and products multiply term maps;
    only powers go through ``LaurentPolynomial``.
    """

    def __init__(self, text, rank_hint):
        self.text = text
        self.tokens = [(m.lastgroup, m.group(m.lastgroup),
                        m.start(m.lastgroup))
                       for m in _TOKEN_RE.finditer(text)]
        for kind, val, pos in self.tokens:
            if kind == "bad":
                raise ParseError(f"unexpected character {val!r}", pos)
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
        self.depth = 0  # parentheses open at the current token
        self.pairs = 0  # term pairs formed by the products so far
        self.blocks = 0  # those pairs, each weighted by its blocks

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
        terms = self.expr()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected token {val!r}", pos)
        return LaurentPolynomial._from_clean(self.rank, terms)

    def expr(self):
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        acc = {}
        get = acc.get
        while True:
            for e, c in self.term().items():
                acc[e] = get(e, 0) - c if negate else get(e, 0) + c
            kind, val, _ = self.peek()
            if kind != "op" or val not in "+-":
                return _clean(acc)
            self.next()
            negate = val == "-"

    def term(self):
        terms = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind != "op" or val not in "*/":
                return terms
            self.next()
            divisor_pos = self.peek()[2]
            rhs = self.factor()
            if val == "/":
                rhs = self._invert(rhs, divisor_pos)
            pairs = len(terms) * len(rhs)
            self.pairs += pairs
            self.blocks += pairs * _blocks(terms) * _blocks(rhs)
            if self.pairs > PARSE_PRODUCT_CAP:
                raise ParseError(f"the products form more than "
                                 f"{PARSE_PRODUCT_CAP} term pairs", pos)
            if self.blocks > PARSE_PRODUCT_CAP:
                raise ParseError(f"the products' coefficients form more "
                                 f"than {PARSE_PRODUCT_CAP} pairs of "
                                 f"1,024-bit blocks", pos)
            terms = _clean(_tuple_product(terms, rhs))

    @staticmethod
    def _invert(terms, pos):
        if not terms:
            raise ParseError("zero denominator", pos)
        if len(terms) != 1:
            raise ParseError("division is only defined by monomials", pos)
        (e, c), = terms.items()
        inverse = c if c in (1, -1) else _norm_coeff(Fraction(1, c))
        return {_opposite(e): inverse}

    def factor(self):
        terms = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            k = self._signed_int()
            if k < 0:
                terms, k = self._invert(terms, pos), -k
            return self._power(terms, k, pos)
        return terms

    def _power(self, terms, k, pos):
        """The k-th power of a term map, refused for a base of two or more
        terms when k passes PARSE_POWER_CAP or as soon as one power on the
        way passes PARSE_TERM_CAP terms, and for any base whose power's
        coefficients could pass PARSE_COEFFICIENT_BITS bits."""
        if len(terms) > 1 and k > PARSE_POWER_CAP:
            raise ParseError(
                f"the exponent {k} is above {PARSE_POWER_CAP}", pos)
        if terms:
            # k is compared with a float, never turned into one, so an
            # exponent of any length is decided exactly
            common, total = _power_bound(terms.values())
            bits = math.log2(total * common)
            if bits and k > PARSE_COEFFICIENT_BITS / bits:
                raise ParseError(f"the coefficients of the power could pass "
                                 f"{PARSE_COEFFICIENT_BITS} bits", pos)
        base = LaurentPolynomial._from_clean(self.rank, terms)
        if len(terms) <= 1:
            return (base ** k).terms
        for power in factor_powers(base, range(k + 1)):
            if len(power) > PARSE_TERM_CAP:
                raise ParseError(
                    f"the power has more than {PARSE_TERM_CAP} terms", pos)
        return power.terms

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
            n = int(val)
            return {(0,) * self.rank: n} if n else {}
        if kind == "var":
            e = [0] * self.rank
            e[self.var_index[val]] = 1
            return {tuple(e): 1}
        if kind == "op" and val == "(":
            self.depth += 1
            if self.depth > PARSE_NESTING_CAP:
                raise ParseError(f"parentheses nested more than "
                                 f"{PARSE_NESTING_CAP} deep", pos)
            terms = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return terms
        if kind is None:
            raise ParseError("unexpected end of input", pos)
        raise ParseError(f"unexpected token {val!r}", pos)


def parse_polynomial(text, rank_hint=None):
    """Parse a Laurent polynomial from text.

    The variable set determines the ambient rank unless ``rank_hint`` pads it
    (exponent vectors are extended with zeros).
    """
    return _Parser(text, rank_hint).parse()


def _default_names(rank):
    if rank <= 4:
        return "xyzw"[:rank]
    return [f"x{i + 1}" for i in range(rank)]


def format_polynomial(f):
    """Canonical text form; round-trips bit-exactly through the parser."""
    return _format_terms(f.terms, _default_names(f.rank))


def _format_terms(terms, names):
    """The text of the sum of the terms, a map from exponent tuples to
    nonzero coefficients, highest exponent first, in the variables names."""
    if not terms:
        return "0"
    parts = []
    for e in sorted(terms, reverse=True):
        c = terms[e]
        mono = []
        for i, k in enumerate(e):
            if k == 0:
                continue
            mono.append(names[i] if k == 1 else f"{names[i]}^{k}")
        mag = abs(c)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = "*".join(mono)
        else:
            body = "*".join([str(mag)] + mono)
        parts.append(("-" if c < 0 else "+", body))
    sign, body = parts[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
