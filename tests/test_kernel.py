"""The packed multiplication kernel and the trusted internal constructor.

Products are checked against the schoolbook loop over exponent tuples, on
both sides of the packing bound, and every internal result is checked to be
exactly what the public constructor would build from its terms.
"""

import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fanolab.laurent import (PACK_BITS, LaurentPolynomial, ParseError,
                             RankMismatchError, _pack, _unpack,
                             parse_polynomial, substitute_unimodular)
from fanolab.mutation import (MutationBounds, enumerate_mutations,
                              exact_divide, is_mutable, mutate,
                              weight_decomposition)
from fanolab.periods import classical_period, known_series
from period_oracle import iterated_power_period

EDGE = 2 ** (PACK_BITS - 1) - 1  # the largest |e_i| that packs
SETTINGS = settings(max_examples=80, deadline=None)


def tuple_product(f, g):
    """f * g by the schoolbook loop over exponent tuples."""
    acc = {}
    for ea, ca in f.terms.items():
        for eb, cb in g.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            acc[e] = acc.get(e, 0) + ca * cb
    return LaurentPolynomial(f.rank, acc)


def typed(seq):
    return [(type(c), c) for c in seq]


def typed_terms(f):
    return sorted((e, type(c), c) for e, c in f.terms.items())


def assert_clean(f):
    """f is what the public constructor builds from its own terms: int
    tuple keys of length rank, no zero and no integral Fraction."""
    ref = LaurentPolynomial(f.rank, dict(f.terms))
    assert f == ref and typed_terms(f) == typed_terms(ref)
    for e, c in f.terms.items():
        assert type(e) is tuple and len(e) == f.rank
        assert all(type(x) is int for x in e)
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1)
    assert len(f) == len(ref) and bool(f) == bool(ref)
    assert f.constant_term() == ref.constant_term()


# exponent entries near zero, at the packing bound and one past it
entries = st.one_of(st.integers(-3, 3),
                    st.sampled_from((EDGE, -EDGE, EDGE + 1, -EDGE - 1)))
coeffs = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.sampled_from((Fraction(1, 2), Fraction(-2, 3), 2, -1)),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool))


@st.composite
def poly_families(draw, count=3):
    """``count`` polynomials of one rank in 1-4.  Later ones may reuse
    exponents of the first, and coefficients come with flipped signs and
    as inverses, so products cancel and Fractions multiply to integers."""
    rank = draw(st.integers(1, 4))
    vec = st.tuples(*[entries] * rank)
    out = []
    for _ in range(count):
        support = draw(st.lists(vec, min_size=1, max_size=5))
        if out and draw(st.booleans()):
            support += draw(st.lists(st.sampled_from(
                sorted(out[0].terms) or [(0,) * rank]), max_size=3))
        terms = {}
        for e in support:
            c = draw(coeffs)
            terms[e] = draw(st.sampled_from((c, -c, 1 / Fraction(c))))
        out.append(LaurentPolynomial(rank, terms))
    return out


@SETTINGS
@given(poly_families())
def test_products_match_the_tuple_oracle(polys):
    f, g, h = polys
    for p in (f * g, g * f, f * f):
        assert_clean(p)
    assert typed_terms(f * g) == typed_terms(tuple_product(f, g))
    assert typed_terms(f * f) == typed_terms(tuple_product(f, f))
    fg, gh = tuple_product(f, g), tuple_product(g, h)
    fgh = tuple_product(fg, h)
    for chained in ((f * g) * h, f * (g * h), f * g * h):
        assert_clean(chained)
        assert typed_terms(chained) == typed_terms(fgh)
    assert typed_terms((f * g) * (g * h)) == \
        typed_terms(tuple_product(fg, gh))
    assert (f * g == f * h) == (fg == tuple_product(f, h))
    # the pairing is the constant term of the product, never built
    assert typed([f.pair(g), g.pair(f)]) == typed([fg.constant_term()] * 2)
    assert typed([f.pair(f)]) == \
        typed([tuple_product(f, f).constant_term()])


def test_both_sides_of_the_packing_bound():
    x = LaurentPolynomial.monomial(1, (1,))
    one = LaurentPolynomial.one(1)
    edge = LaurentPolynomial(1, {(EDGE,): 1, (-EDGE,): 2})
    assert edge.packed() is not None
    assert (edge * 3).packed() is not None
    assert edge * 3 != edge * 2 and edge * 3 == edge * 2 + edge
    inside = edge * edge  # spans add: 2 * EDGE is past the bound
    assert inside.packed() is None
    assert typed_terms(inside) == typed_terms(tuple_product(edge, edge))
    assert (edge * one).packed() == edge.packed()
    past = edge * (one + x)  # one product exponent is EDGE + 1
    assert past.packed() is None
    assert past.terms == {(EDGE + 1,): 1, (EDGE,): 1, (-EDGE,): 2,
                          (1 - EDGE,): 2}
    # a product made by the tuple loop packs once its exponents allow
    back = LaurentPolynomial(1, {(EDGE + 1,): 1, (0,): 3}) * \
        LaurentPolynomial.monomial(1, (-1,))
    assert back.packed() is not None
    assert back * x == LaurentPolynomial(1, {(EDGE + 1,): 1, (0,): 3})


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_pack_round_trip_at_the_bound(rank):
    for x in (0, 1, -1, EDGE, -EDGE):
        for i in range(rank):
            e = tuple(x if j == i else -x if j == (i + 1) % rank else j - 1
                      for j in range(rank))
            assert _unpack(_pack(e), rank) == e
            assert _pack(tuple(-y for y in e)) == -_pack(e)


def test_period_of_powers_crossing_the_packing_bound():
    # f^2 packs, f^3 does not; the lattice is scaled, not the period
    a = EDGE // 3 + 1
    f = LaurentPolynomial(2, {(a, 0): 1, (-a, 0): 1, (0, a): 1, (0, -a): 1})
    got = classical_period(f, 9)
    assert typed(got) == typed(iterated_power_period(f, 9))
    assert typed(got) == typed(known_series("quadric-surface-product", 9))
    assert (f * f).packed() is not None and (f * f * f).packed() is None
    g = LaurentPolynomial(1, {(EDGE + 1,): 1, (-EDGE - 1,): Fraction(1, 2),
                              (0,): 1})
    assert g.packed() is None
    assert typed(classical_period(g, 7)) == \
        typed(iterated_power_period(g, 7))


scalars = st.sampled_from((2, -1, Fraction(1, 2), Fraction(2),
                           Fraction(-3, 4)))


@SETTINGS
@given(poly_families(), scalars, st.data())
def test_internal_results_are_clean(polys, c, data):
    f, g, _ = polys
    rank = f.rank
    shift = data.draw(st.tuples(*[st.integers(-3, 3)] * rank))
    for p in (f * g, f + g, f - g, f - f, -f, -(f * g), f.scale(c),
              (f * g).scale(c), f * c, f.shift(shift),
              (f * g).shift(shift)):
        assert_clean(p)
    if rank == 2:
        assert_clean(substitute_unimodular(f * g, ((2, 1), (1, 1))))
    q = exact_divide(f * g, g)
    assert q is not None
    assert_clean(q)
    assert typed_terms(q) == typed_terms(f)
    w = data.draw(st.sampled_from([(1,) + (0,) * (rank - 1),
                                   (0,) * (rank - 1) + (-1,)]))
    for _, piece in weight_decomposition(f * g, w):
        assert_clean(piece)


def test_trusted_results_along_mutation_chains():
    bounds = MutationBounds(w_max=4, deg_max=3)
    for text in ("x + y + 1/(x*y)", "x + y + 1/x + 1/y",
                 "(x+y+1)^3/(x*y*z) + z"):
        f = parse_polynomial(text)
        for _ in range(3):
            seeds = enumerate_mutations(f, bounds).seeds
            if not seeds:
                break
            data = seeds[-1]
            witness = is_mutable(f, data)
            for _, piece in witness.quotients:
                assert_clean(piece)
            f = mutate(f, data)
            assert_clean(f)


def test_public_constructor_keeps_its_checks():
    with pytest.raises(RankMismatchError):
        LaurentPolynomial(2, {(1,): 1})
    with pytest.raises(TypeError):
        LaurentPolynomial(1, {(1,): 0.5})
    with pytest.raises(ValueError):
        LaurentPolynomial(0, {})
    with pytest.raises(RankMismatchError):
        parse_polynomial("x + y").shift((1,))
    with pytest.raises(RankMismatchError):
        parse_polynomial("x + y").pair(parse_polynomial("x + y + z"))
    assert LaurentPolynomial(1, {(1,): Fraction(4, 2), (2,): 0}).terms == \
        {(1,): 2}


def test_monomial_power_is_built_directly():
    # exponent k*e and coefficient c**k, equal to k products by the base
    for text in ("-2/3*x*y^-2", "5*y", "x^-1"):
        f = parse_polynomial(text, rank_hint=2)
        for k in (0, 1, 2, 7):
            power = LaurentPolynomial.one(2)
            for _ in range(k):
                power = power * f
            assert_clean(f ** k)
            assert f ** k == power
    assert (parse_polynomial("x") ** 10 ** 8).terms == {(10 ** 8,): 1}


def test_zero_power_is_built_directly():
    start = time.perf_counter()
    zero = LaurentPolynomial.zero(2)
    assert zero ** 10 ** 9 == zero and zero ** 1 == zero
    assert zero ** 0 == LaurentPolynomial.one(2)
    p1 = parse_polynomial("x + 1/x")
    assert parse_polynomial("x + 0^100000000 + 1/x") == p1
    assert parse_polynomial("x + (x-x)^100000000 + 1/x") == p1
    assert time.perf_counter() - start < 1
    assert parse_polynomial("x + 0^0 + 1/x") == parse_polynomial("x + 1 + 1/x")
    with pytest.raises(ParseError, match="zero denominator"):
        parse_polynomial("x + 0^-1 + 1/x")


# -- the parse-time caps (their refusals are tested in test_cli.py) ---------


def test_parse_takes_multi_term_powers_under_the_cap():
    base = parse_polynomial("1 + x + x^2 + x^3 + x^4 + x^5")
    f = parse_polynomial("(1 + x + x^2 + x^3 + x^4 + x^5)^40")
    assert len(f) == 201 and f == base ** 40
    assert parse_polynomial("(2*x*y^-1)^-3") == \
        parse_polynomial("1/8*x^-3*y^3")
