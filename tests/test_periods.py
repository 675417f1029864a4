from fractions import Fraction
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from fanolab.laurent import LaurentPolynomial, parse_polynomial
from fanolab.periods import (PeriodCalculator, PeriodSequence,
                             classical_period, known_series, periods_agree)


def iterated_power_period(f, n_terms):
    """Reference period: constant terms of f^0, f^1, ... by building every
    power with one multiplication by f."""
    power = LaurentPolynomial.one(f.rank)
    out = []
    for k in range(n_terms):
        if k:
            power = power * f
        out.append(power.constant_term())
    return out


def typed(seq):
    return [(type(c), c) for c in seq]


def brute_constant_term_of_power(f, k):
    """Constant term of f^k by direct enumeration of term products."""
    items = list(f.terms.items())
    total = 0
    for combo in product(items, repeat=k):
        e = tuple(map(sum, zip(*(c[0] for c in combo)))) if k else \
            (0,) * f.rank
        if all(x == 0 for x in e):
            c = 1
            for _, v in combo:
                c *= v
            total += c
    return total


@pytest.mark.parametrize("text", [
    "x + y + x^-1*y^-1",
    "x + x^-1 + y + y^-1",
    "x*y + y*x^-1 + x^-1*y^-1 + x*y^-1",
    "2*x + x*y + 2*y + y*x^-1 + 2*x^-1 + x^-1*y^-1 + 2*y^-1 + x*y^-1",
])
def test_period_matches_brute_force(text):
    f = parse_polynomial(text)
    seq = classical_period(f, 7)
    for k in range(7):
        assert seq[k] == brute_constant_term_of_power(f, k)


def test_streaming_reuses_prefix():
    f = parse_polynomial("x + y + x^-1*y^-1")
    calc = PeriodCalculator(f)
    first = calc.prefix(5)
    second = calc.prefix(10)
    assert second.coefficients[:5] == first.coefficients
    assert list(second.coefficients) == iterated_power_period(f, 10)


# -- the half-power pairing against the iterated-power reference ------------

coeffs = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.sampled_from((1, -1)),
    st.sampled_from((Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))),
    st.fractions(min_value=-3, max_value=3,
                 max_denominator=4).filter(bool))


@st.composite
def period_polys(draw):
    """Nonzero polynomials of rank 1-3: full, or on a line or plane through
    a shifted base point, so the Newton polytope may miss the origin."""
    rank = draw(st.integers(1, 3))
    vec = st.tuples(*[st.integers(-2, 2)] * rank)
    if draw(st.booleans()):
        support = draw(st.lists(vec, min_size=1, max_size=5))
    else:
        base = draw(vec)
        dirs = draw(st.lists(vec, min_size=1, max_size=2))
        steps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(dirs)),
                              min_size=1, max_size=5))
        support = [tuple(b + sum(t * d[i] for t, d in zip(ts, dirs))
                         for i, b in enumerate(base)) for ts in steps]
    f = LaurentPolynomial.from_terms(
        rank, [(e, draw(coeffs)) for e in support])
    if f.is_zero():  # every term cancelled
        f = LaurentPolynomial.monomial(rank, support[0], draw(coeffs))
    return f


@settings(max_examples=80, deadline=None)
@given(period_polys(), st.integers(0, 14))
def test_period_matches_iterated_powers(f, n):
    assert typed(classical_period(f, n)) == \
        typed(iterated_power_period(f, n))


@settings(max_examples=30, deadline=None)
@given(period_polys(), st.lists(st.integers(0, 13), min_size=1, max_size=8))
def test_coefficients_out_of_order(f, ks):
    expect = typed(iterated_power_period(f, 14))
    calc = PeriodCalculator(f)
    for k in ks:
        assert typed([calc.coefficient(k)]) == [expect[k]]
    assert typed(calc.prefix(5)) == expect[:5]
    assert typed(calc.prefix(10)) == expect[:10]


@pytest.mark.parametrize("text, expect", [
    ("x - x^-1", [1, 0, -2, 0, 6, 0, -20]),  # cancelling coefficients
    ("1/2*x + 1/2*x^-1", [1, 0, Fraction(1, 2), 0, Fraction(3, 8)]),
    ("1/2*x + 2*x^-1", [1, 0, 2, 0, 6, 0, 20]),  # integral Fractions -> int
    ("x + x^2*y", [1, 0, 0, 0, 0]),  # Newton polytope misses the origin
    ("x*y + x^-1*y^-1 + 3", [1, 3, 11, 45, 195]),  # a segment in rank 2
])
def test_period_small_cases(text, expect):
    seq = classical_period(parse_polynomial(text), len(expect))
    assert typed(seq) == typed(expect)


def test_periods_agree_stops_at_first_mismatch(monkeypatch):
    f = parse_polynomial("x + x^-1")
    g = parse_polynomial("x + 2*x^-1")
    calls = []
    mul = LaurentPolynomial.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(LaurentPolynomial, "__mul__", counted)
    # ct(f^2) = 2 and ct(g^2) = 4: one multiplication per polynomial
    assert periods_agree(f, g, 10 ** 6) == (False, 2)
    assert len(calls) == 2


def test_periods_agree_mixed_arguments():
    f = parse_polynomial("x + y + x^-1*y^-1")
    p2 = known_series("projective-plane", 10)
    assert periods_agree(f, p2, 10) == (True, None)
    assert periods_agree(p2, f, 10) == (True, None)
    off = PeriodSequence(p2.coefficients[:6] + (0,) * 4)
    assert periods_agree(f, off, 10) == (False, 6)
    assert periods_agree(p2, off, 10) == (False, 6)
    with pytest.raises(ValueError):
        periods_agree(f, known_series("projective-plane", 4), 5)
    with pytest.raises(TypeError):
        periods_agree(f, [1, 0, 0], 3)


@pytest.mark.parametrize("n_terms", [-1, -2])
def test_periods_agree_rejects_negative_term_count(n_terms):
    f = parse_polynomial("x + y + x^-1*y^-1")
    for other in (parse_polynomial("x + y"),
                  known_series("projective-plane", 3)):
        with pytest.raises(ValueError):
            periods_agree(f, other, n_terms)


def test_known_series_closed_forms():
    p2 = known_series("projective-plane", 13)
    for k in range(13):
        expect = factorial(k) // (factorial(k // 3) ** 3) if k % 3 == 0 \
            else 0
        assert p2[k] == (factorial(k) // factorial(k // 3) ** 3
                         if k % 3 == 0 else 0)
    quad = known_series("quadric-surface-product", 9)
    for k in range(9):
        assert quad[k] == (comb(k, k // 2) ** 2 if k % 2 == 0 else 0)
    cubic = known_series("cubic-threefold", 9)
    for k in range(0, 9, 2):
        m = k // 2
        assert cubic[k] == factorial(2 * m) * factorial(3 * m) \
            // factorial(m) ** 5


def test_known_series_match_model_polynomials():
    pairs = [
        ("projective-plane", "x + y + x^-1*y^-1"),
        ("quadric-surface-product", "x + x^-1 + y + y^-1"),
        ("cubic-threefold", "(x+y+1)^3/(x*y*z) + z"),
        ("del-pezzo-4",
         "2*x + x*y + 2*y + y*x^-1 + 2*x^-1 + x^-1*y^-1 + 2*y^-1 + x*y^-1"),
    ]
    for tag, text in pairs:
        ok, where = periods_agree(parse_polynomial(text),
                                  known_series(tag, 12), 12)
        assert ok, f"{tag} mismatch at {where}"


def test_unknown_tag():
    with pytest.raises(KeyError):
        known_series("no-such-variety", 5)


def test_periods_agree_reports_first_mismatch():
    f = parse_polynomial("x + y + x^-1*y^-1")
    g = parse_polynomial("x + x^-1 + y + y^-1")
    ok, where = periods_agree(f, g, 10)
    assert not ok and where == 2


def test_period_invariant_under_unimodular_substitution():
    from fanolab.laurent import substitute_unimodular
    f = parse_polynomial("x + 2*y + x^-1*y^-1 + 3")
    g = substitute_unimodular(f, ((2, 1), (1, 1)))
    assert periods_agree(f, g, 10) == (True, None)
