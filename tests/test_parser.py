"""The term-map parser against the reference parser, its speed on long flat
text, its bound on the coefficients of a power and its cap on the term
pairs of products.

``parse_polynomial`` sums and multiplies in plain term maps; the
reference in ``parse_oracle.py`` builds a ``LaurentPolynomial`` for every
token.  On every text both must give equal polynomials with the same
coefficient types, or the same ``ParseError`` message.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import parse_oracle
from fanolab import laurent
from fanolab.laurent import (PARSE_COEFFICIENT_BITS, PARSE_PRODUCT_CAP,
                             ParseError, _power_bound, format_polynomial,
                             parse_polynomial)
from parse_oracle import oracle_parse


def _outcome(parse, text, rank_hint):
    try:
        f = parse(text, rank_hint)
    except ParseError as exc:
        return "error", str(exc)
    return ("poly", f.rank, f.terms,
            {e: type(c) for e, c in f.terms.items()})


def _agree(text, rank_hint):
    assert (_outcome(parse_polynomial, text, rank_hint)
            == _outcome(oracle_parse, text, rank_hint))


numbers = st.sampled_from(["0", "1", "2", "3", "7", "12"])
variables = st.sampled_from(["x", "y", "z"])
monomials = st.lists(st.one_of(numbers.filter(lambda n: n != "0"),
                               variables,
                               st.tuples(variables, st.integers(-3, 3)).map(
                                   lambda t: f"{t[0]}^{t[1]}")),
                     min_size=1, max_size=3).map("*".join)
atoms = st.one_of(numbers, variables, monomials,
                  st.sampled_from(["0^0", "0^3", "(x-x)^2", "0^-1",
                                   "x^0", "3/4", "1/2*x"]))


def _extend(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map(
            "".join),
        st.tuples(inner, st.one_of(monomials, inner)).map(
            lambda t: f"{t[0]}/({t[1]})"),
        inner.map(lambda s: f"({s})"),
        inner.map(lambda s: f"-{s}"),
        st.tuples(inner, st.integers(-3, 3)).map(
            lambda t: f"({t[0]})^{t[1]}"))


texts = st.recursive(atoms, _extend, max_leaves=8)
rank_hints = st.sampled_from([None, None, 1, 2, 3, 4])


@settings(max_examples=400, deadline=None)
@given(texts, rank_hints)
def test_parser_matches_the_reference_on_generated_texts(text, rank_hint):
    _agree(text, rank_hint)


# token soup: mostly malformed, so the two must fail with one message
soup = st.lists(st.sampled_from(["x", "y", "x2", "0", "2", "10", "+", "-",
                                 "*", "/", "^", "(", ")", " ", "\t", "\u00a0",
                                 "$", "é"]),
                max_size=12).map("".join)


@settings(max_examples=400, deadline=None)
@given(soup, rank_hints)
@example("2^101010", 1)  # a power past the coefficient bound
@example("2^1010101010", 3)
def test_parser_matches_the_reference_on_token_soup(text, rank_hint):
    _agree(text, rank_hint)


@pytest.mark.parametrize("text", [
    "x + y + 1/(x*y)", "(x + y + 1)^3/(x*y*z) + z", "x/2 + x/2 - y/3",
    "-(x - y)^2*(x + y)/(2*x*y)", "(1/x)^-2 - x^2", "(x + 1/x)^4 - 6",
    "0^0*x", "x*0 + y", "(x+y)/(x-y)", "x^-(1)", "(x+y)^-1", "x/0",
    "x + y +", "x * -y", "((x)", "x)", "x1 + y", "x/2*2", "2*(x/2)",
    "(y/3)*(3*x) - x*y", "(x/2 + y/2)*2",
    # products of two sums: Fraction coefficients, a zero side, and
    # exponents past the packing bound
    "(x/2 + y/3)*(2*x - 3/4*y + 1)", "(x + y)*(x - y)*(x/2 + 1/2)",
    "(x + y)*(x - x)", "0*(x + y + 1)", "(x + 1)*(y - y)*(x/3 + z)",
    "(x^9000000 + 1)*(x^9000000 - 1/2)",
    "(x^-9000000 + y/5)*(x^9000000 - y^9000000 + 1)"])
def test_parser_matches_the_reference_on_fixed_texts(text):
    _agree(text, None)
    _agree(text, 4)


@pytest.mark.parametrize("text", [
    "(x + y)*(x + y + z)", "(x + y)*(x + y + z)*(x + 1)",
    "(x + y)*(x + y + z)*(x - x)*(x + 1)",
    "((x + y)*(x + y + z))^2 + (x + 1)*(y + 1)", "(x + y)^2/x/y*(x + y)",
    "(x + y)^2/x/y*(x + y)*1",
    "(x + y)*((x + 1)*(y + 1)) + z"])
def test_parser_matches_the_reference_at_a_small_product_cap(
        text, monkeypatch):
    # the count runs over the whole text, parentheses and divisions
    # included, and both readers refuse at the same operator
    for module in (laurent, parse_oracle):
        monkeypatch.setattr(module, "PARSE_PRODUCT_CAP", 12)
    _agree(text, None)


def test_product_past_the_pair_cap_is_refused_at_its_operator():
    # (x + y + z + w + 1)^10 has 1,001 terms
    text = "z + (x + y + z + w + 1)^10*(x + y + z + w + 1)^10"
    start = time.perf_counter()
    with pytest.raises(ParseError) as raised:
        parse_polynomial(text)
    assert time.perf_counter() - start < 1
    assert str(raised.value) == (
        f"the products form more than {PARSE_PRODUCT_CAP} term pairs "
        f"(at position {text.index('*')})")


def _wide_sums_product(n):
    """The product of two sums of n terms with 100,001-bit coefficients:
    n * n + 2 * n term pairs, within the pair cap for n = 999, and 98 x 98
    blocks each."""
    return "*".join("(" + " + ".join(f"2^99999*{v}^{i}" for i in range(n))
                    + ")" for v in "xy")


def test_product_of_wide_coefficients_is_refused_at_its_operator():
    # at n = 60 the product took 1.7 s to form, and grows as n^2
    text = _wide_sums_product(999)
    start = time.perf_counter()
    with pytest.raises(ParseError) as raised:
        parse_polynomial(text)
    assert time.perf_counter() - start < 2
    assert str(raised.value) == (
        f"the products' coefficients form more than {PARSE_PRODUCT_CAP} "
        f"pairs of 1,024-bit blocks (at position {text.index(')*') + 1})")


@pytest.mark.parametrize("c, pairs, refused", [
    ("2^1022", 7, False), ("2^1023", 7, True), ("2^1021/3", 8, False),
    ("2^1022/3", 8, True), ("(2^1022 + 1/2)", 8, True)])
def test_coefficients_of_1024_bits_count_one_block(c, pairs, refused,
                                                   monkeypatch):
    # the text forms exactly ``pairs`` term pairs; a coefficient of 1,024
    # bits, numerator and denominator together, weighs one block, and one
    # bit more weighs two
    text = f"({c}*x + y)*(x + y + 1)"
    for module in (laurent, parse_oracle):
        monkeypatch.setattr(module, "PARSE_PRODUCT_CAP", pairs)
    _agree(text, None)
    if refused:
        with pytest.raises(ParseError, match="1,024-bit blocks"):
            parse_polynomial(text)
    else:
        assert len(parse_polynomial(text)) == 5


@pytest.mark.parametrize("text", [
    "(2^1100*x + y)*(x + y + 1)", "(x + y)*(2^3000*x + 1)*(x + 1)",
    "(x/2^1100 + 1)*(x + 1)", "(2^2000*x)^2*(x + y)",
    "(x + y)*(x + y + z)*(2^2048 + x)"])
def test_parser_matches_the_reference_on_wide_products(text, monkeypatch):
    for module in (laurent, parse_oracle):
        monkeypatch.setattr(module, "PARSE_PRODUCT_CAP", 12)
    _agree(text, None)


def test_long_flat_text_parses_in_linear_time():
    f = parse_polynomial("x + y + z + 1") ** 40
    text = format_polynomial(f)
    assert len(f) == 12_341
    start = time.perf_counter()
    g = parse_polynomial(text)
    assert time.perf_counter() - start < 2
    assert g == f


# an exponent past the largest float, about 1.8e308
LONG = str(10 ** 400)


@pytest.mark.parametrize("text", [
    "(3*x)^100000000 + 1/x", "(x/3)^30000000 + 1/x", "2^100001",
    f"({10 ** 31}*x + y)^1000", "(1/x/3)^-70000", f"(3*x)^{LONG}"],
    ids=lambda text: text.replace(LONG, "LONG"))
def test_power_past_the_coefficient_bound_is_refused_at_once(text):
    start = time.perf_counter()
    with pytest.raises(ParseError) as raised:
        parse_polynomial(text, rank_hint=2)
    assert time.perf_counter() - start < 1
    assert str(raised.value) == (
        f"the coefficients of the power could pass {PARSE_COEFFICIENT_BITS} "
        f"bits (at position {text.rindex('^')})")


WITHIN_BOUND = (
    ("10^5000", 10 ** 5000), ("10^2200*x", 10 ** 2200),
    ("2^100000", 2 ** 100000), ("(x/3)^1000", Fraction(1, 3 ** 1000)),
    ("x^100000000", 1), ("0^100000000", None), ("(2*x + 1)^10", 1024),
    (f"x^{LONG}", 1), (f"1^{LONG}", 1), (f"(-x)^-{LONG}", 1))


@pytest.mark.parametrize("text, coefficient", WITHIN_BOUND,
                         ids=[text.replace(LONG, "LONG")
                              for text, _ in WITHIN_BOUND])
def test_power_within_the_coefficient_bound_is_read(text, coefficient):
    f = parse_polynomial(text, rank_hint=1)
    if coefficient is None:
        assert f.is_zero()
    else:
        assert f.terms[max(f.terms)] == coefficient


@given(st.lists(st.fractions(min_value=-50, max_value=50).filter(bool),
                min_size=1, max_size=4), st.integers(1, 12))
def test_power_bound_holds(coeffs, k):
    # every coefficient of (sum of c_j x^j)^k has a numerator of at most
    # A^k and a denominator dividing L^k, with equality for one term
    f = parse_polynomial(" + ".join(f"({c.numerator}/{c.denominator})*x^{j}"
                                    for j, c in enumerate(coeffs)))
    common, total = _power_bound(f.terms.values())
    powers = [Fraction(c) for c in (f ** k).terms.values()]
    assert all(abs(c.numerator) <= total ** k
               and common ** k % c.denominator == 0 for c in powers)
    if len(coeffs) == 1:
        assert abs(powers[0]) == Fraction(total, common) ** k
