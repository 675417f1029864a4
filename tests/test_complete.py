"""Rank-2 ``complete`` against a brute-force search.

``enumerate_mutations`` reports ``complete = True`` in rank 2, and
``seed_set`` builds its rank-2 seeds as binomial powers along the edges.
``mutation_oracle.brute_force_mutations`` finds every mutation within the
bounds in the stated factor class without facets, factoring or
``is_mutable``; the enumeration must give the same set of keys.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from fanolab.laurent import LaurentPolynomial, parse_polynomial
from fanolab.mmlp import seed_set
from fanolab.mutation import MutationBounds, enumerate_mutations
from fanolab.mutation_graph import build_graph
from fanolab.polytopes import newton_polytope
from mutation_oracle import brute_force_mutations
from test_golden import POLYGON_POLYS

DIRECTIONS = [(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (-1, 2)]
bounds = st.builds(MutationBounds, st.integers(1, 3), st.integers(1, 3))


@st.composite
def binomial_products(draw):
    """A monomial times a product of binomials 1 + c x^v, so that many
    slices factor and mutations exist."""
    f = LaurentPolynomial.one(2)
    for v in draw(st.lists(st.sampled_from(DIRECTIONS), min_size=2,
                           max_size=3)):
        c = draw(st.integers(1, 2))
        binomial = LaurentPolynomial(2, {(0, 0): 1, v: c})
        f = f * binomial ** draw(st.integers(1, 2))
    coord = st.integers(-3, 0)
    return f.shift((draw(coord), draw(coord)))


@st.composite
def positive_polys(draw):
    """Up to seven terms in a small box with coefficients 1 to 3."""
    coord = st.integers(-2, 2)
    terms = draw(st.dictionaries(st.tuples(coord, coord), st.integers(1, 3),
                                 min_size=3, max_size=7))
    return LaurentPolynomial(2, terms)


def _keys(result):
    return {seed.key for seed in result.seeds}


@settings(max_examples=200, deadline=None)
@given(st.one_of(binomial_products(), positive_polys()), bounds)
def test_enumeration_matches_the_brute_force_search(f, b):
    assume(newton_polytope(f).is_full_dimensional)
    result = enumerate_mutations(f, b)
    assert result.complete
    assert _keys(result) == brute_force_mutations(f, b)


def test_enumeration_matches_the_brute_force_search_on_a_graph():
    graph = build_graph(parse_polynomial("x + y + 1/(x*y)"), 2)
    for node in graph.nodes:
        f = node.polynomial
        assert _keys(enumerate_mutations(f)) == \
            brute_force_mutations(f, MutationBounds()), f


@pytest.mark.parametrize("text", POLYGON_POLYS)
def test_polygon_seeds_match_the_brute_force_search(text):
    f = parse_polynomial(text)
    keys = brute_force_mutations(f, MutationBounds())
    assert _keys(enumerate_mutations(f)) == keys
    assert {seed.key for seed in seed_set(newton_polytope(f)).seeds} == keys
