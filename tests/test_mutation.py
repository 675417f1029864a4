from fractions import Fraction
from functools import reduce
from types import SimpleNamespace

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from fanolab import mutation, mutation_graph
from fanolab.laurent import (LaurentPolynomial, format_polynomial,
                             parse_polynomial)
from fanolab.mutation import (InvalidFactorError, InvalidWeightError,
                              MutationBounds, MutationData, MutationWitness,
                              NotMutable, canonicalize_shear,
                              enumerate_mutations, exact_divide, is_mutable,
                              mutate, shear_equivalent, weight_decomposition)
from fanolab.linalg import (_integer_row, complete_to_basis_last_row,
                            identity, is_primitive, primitive_part)
from fanolab.periods import periods_agree
from fanolab.polytopes import newton_polytope
from fanolab.recurrence import _poly_mul
import linalg_oracle
from divisor_oracle import laurent_edge_divisors
from shear_oracle import shear
from test_properties import gl


def test_weight_decomposition_levels():
    f = parse_polynomial("x + y + x^-1*y^-1")
    levels = weight_decomposition(f, (2, -1))
    assert [i for i, _ in levels] == [-1, 2]
    pieces = dict(levels)
    assert pieces[-1] == parse_polynomial("y + x^-1*y^-1")
    assert pieces[2] == parse_polynomial("x", rank_hint=2)


def test_weight_validation():
    f = parse_polynomial("x + y")
    with pytest.raises(InvalidWeightError):
        weight_decomposition(f, (0, 0))
    with pytest.raises(InvalidWeightError):
        weight_decomposition(f, (2, 4))
    with pytest.raises(InvalidWeightError):
        weight_decomposition(f, (1, 0, 0))


def test_mutation_data_validation():
    with pytest.raises(InvalidFactorError):
        MutationData((2, -1), parse_polynomial("1 + x", rank_hint=2))
    data = MutationData((2, -1), parse_polynomial("1 + x*y^2"))
    assert data.factor == parse_polynomial("1 + x*y^2")
    shifted = MutationData((2, -1),
                           parse_polynomial("x*y^2 + x^2*y^4"))
    assert shifted.factor == data.factor and shifted.key == data.key


def test_exact_divide():
    f = parse_polynomial("x^2*y^-1 - y")
    g = parse_polynomial("x - y")
    q = exact_divide(f, g)
    assert q is not None and q * g == f
    assert exact_divide(parse_polynomial("x + y + 1"), g) is None
    assert exact_divide(LaurentPolynomial.zero(2), g).is_zero()


def test_exact_divide_laurent_units():
    # monomials are units, so dividing by a shifted factor still works
    f = parse_polynomial("y + x^-1*y^-1")
    g = parse_polynomial("1 + x*y^2")
    q = exact_divide(f, g)
    assert q == parse_polynomial("x^-1*y^-1")


def test_is_mutable_and_witness():
    f = parse_polynomial("x + y + x^-1*y^-1")
    good = MutationData((2, -1), parse_polynomial("1 + x*y^2"))
    wit = is_mutable(f, good)
    assert isinstance(wit, MutationWitness)
    assert dict(wit.quotients)[-1] == parse_polynomial("x^-1*y^-1")
    bad = MutationData((2, -1), parse_polynomial("1 + 2*x*y^2"))
    res = is_mutable(f, bad)
    assert isinstance(res, NotMutable) and res.failing_level == -1


def test_mutate_worked_example():
    f = parse_polynomial("x + y + x^-1*y^-1")
    data = MutationData((2, -1), parse_polynomial("1 + x*y^2"))
    g = mutate(f, data)
    expected = parse_polynomial("x^-1*y^-1 + x*(1 + x*y^2)^2")
    assert g == canonicalize_shear(expected, (2, -1))
    assert periods_agree(f, g, 13) == (True, None)


def test_mutate_rejects_non_divisible():
    f = parse_polynomial("x + 2*y + x^-1*y^-1")
    data = MutationData((2, -1), parse_polynomial("1 + x*y^2"))
    with pytest.raises(ValueError):
        mutate(f, data)


def test_shear_canonicalization_invariant():
    f = parse_polynomial("x^-1*y^-1 + x*(1 + x*y^2)^2")
    w = (2, -1)
    canon = canonicalize_shear(f, w)
    assert canonicalize_shear(canon, w) == canon  # idempotent
    for s in [(1, 2), (-1, -2), (2, 4)]:
        assert canonicalize_shear(shear(f, w, s), w) == canon


def test_mutation_round_trip():
    f = parse_polynomial("x + y + x^-1*y^-1")
    data = MutationData((2, -1), parse_polynomial("1 + x*y^2"))
    g = mutate(f, data)
    back = mutate(g, data.inverse())
    assert shear_equivalent(back, f, (2, -1))


def test_enumerate_rank2_complete():
    f = parse_polynomial("x + y + x^-1*y^-1")
    result = enumerate_mutations(f)
    assert result.complete
    seeds = {(s.weight, format_polynomial(s.factor)) for s in result.seeds}
    assert ((2, -1), "x*y^2 + 1") in seeds
    assert len(seeds) == 3
    for s in result.seeds:
        assert isinstance(is_mutable(f, s), MutationWitness)


def test_enumerate_respects_bounds():
    f = parse_polynomial("x + y + x^-1*y^-1")
    g = mutate(f, MutationData((2, -1), parse_polynomial("1 + x*y^2")))
    wide = enumerate_mutations(g)
    narrow = enumerate_mutations(g, MutationBounds(w_max=1, deg_max=6))
    assert len(narrow.seeds) < len(wide.seeds)


def test_enumerate_higher_rank_partial():
    f = parse_polynomial("(x+y+1)^3/(x*y*z) + z")
    result = enumerate_mutations(f)
    assert not result.complete
    found = {(s.weight, format_polynomial(s.factor)) for s in result.seeds}
    assert ((0, 0, 1), "x + y + 1") in found


def test_cubic_threefold_mutation_matches_model():
    f = parse_polynomial("(x+y+1)^3/(x*y*z) + z")
    data = MutationData((0, 0, 1), parse_polynomial("1 + x + y",
                                                    rank_hint=3))
    g = mutate(f, data)
    expected = parse_polynomial("(a+b+1)^2/(a*b*c) + c*(a+b+1)")
    assert shear_equivalent(g, expected, (0, 0, 1))
    assert periods_agree(f, g, 9) == (True, None)


# ---------------------------------------------------------------------------
# oracles: the shear canonicalization and the two-ended edge factoring that
# the library replaced, kept as the reference


def _old_canonicalize_shear(f, w):
    """Move f into T-coordinates, shear there, and move back by T^-1."""
    n = f.rank
    t, t_inv = linalg_oracle.complete_to_basis_last_row(w)
    g = f.apply_matrix(t)
    levels = sorted({e[-1] for e in g.terms if e[-1] != 0},
                    key=lambda l: (abs(l), l))
    if not levels:
        return f
    l0 = levels[0]
    anchor = min(e for e in g.terms if e[-1] == l0)
    shear = tuple(-(anchor[j] // l0) if l0 > 0 else anchor[j] // (-l0)
                  for j in range(n - 1))
    acc = {}
    for e, c in g.terms.items():
        acc[tuple(e[j] + e[-1] * shear[j] for j in range(n - 1))
            + (e[-1],)] = c
    return LaurentPolynomial(n, acc).apply_matrix(t_inv)


@st.composite
def weighted_polys(draw):
    """A primitive weight with negative entries allowed, and a polynomial
    whose terms are mirrored at random, so that levels l and -l tie."""
    n = draw(st.integers(2, 4))
    w = tuple(draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n)))
    assume(any(w) and is_primitive(w))
    exps = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * n),
                         min_size=1, max_size=6))
    mirror = draw(st.lists(st.booleans(), min_size=len(exps),
                           max_size=len(exps)))
    exps += [tuple(-x for x in e) for e, m in zip(exps, mirror) if m]
    cs = draw(st.lists(st.integers(1, 5), min_size=len(exps),
                       max_size=len(exps)))
    return w, LaurentPolynomial.from_terms(n, zip(exps, cs))


@settings(max_examples=150, deadline=None)
@given(weighted_polys())
def test_canonicalize_shear_matches_oracle(data):
    w, f = data
    t, t_inv = complete_to_basis_last_row(w)
    n = len(w)
    assert t[-1] == w
    assert (t, t_inv) == linalg_oracle.complete_to_basis_last_row(w)
    assert [[sum(t[i][k] * t_inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)] == identity(n)
    canon = canonicalize_shear(f, w)
    assert canon == _old_canonicalize_shear(f, w)
    assert canonicalize_shear(canon, w) == canon


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_shared_bases_give_the_mutations_of_fresh_ones(data):
    # one bases dict across GL(2, Z) and GL(3, Z) images of several inputs
    inputs = ["x + y + x^-1*y^-1", H, "(x+y+1)^3/(x*y*z) + z"]
    bases, weights = {}, set()
    for text in data.draw(st.lists(st.sampled_from(inputs), min_size=1,
                                   max_size=3)):
        f = parse_polynomial(text)
        f = f.apply_matrix(data.draw(gl(f.rank)))
        for witness in enumerate_mutations(f).witnesses:
            seed = witness.data
            g = mutate(f, seed, witness, bases)
            assert g == mutate(f, seed)
            raw = LaurentPolynomial.zero(f.rank)
            for i, piece in witness.quotients:
                raw = raw + (piece * seed.factor ** i if i > 0 else piece)
            assert g == _old_canonicalize_shear(raw, seed.weight)
            weights.add(seed.weight)
    assert set(bases) == weights
    assert all(bases[w] == complete_to_basis_last_row(w) for w in weights)


def _old_exact_divide(g, d):
    """Greedy division with every quotient coefficient a Fraction."""
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if g.is_zero():
        return LaurentPolynomial.zero(g.rank)
    n = g.rank
    gs, ds = g.support(), d.support()
    lo = tuple(min(e[i] for e in gs) - min(e[i] for e in ds) for i in range(n))
    hi = tuple(max(e[i] for e in gs) - max(e[i] for e in ds) for i in range(n))
    if any(a > b for a, b in zip(lo, hi)):
        return None
    lead = max(d.terms)
    lead_c = d.terms[lead]
    rem = dict(g.terms)
    quot = {}
    while rem:
        e = max(rem)
        m = tuple(a - b for a, b in zip(e, lead))
        if any(x < a or x > b for x, a, b in zip(m, lo, hi)):
            return None
        c = Fraction(rem[e]) / Fraction(lead_c)
        quot[m] = c
        for de, dc in d.terms.items():
            key = tuple(a + b for a, b in zip(m, de))
            new = rem.get(key, 0) - c * dc
            if new:
                rem[key] = new
            else:
                rem.pop(key, None)
    return LaurentPolynomial(n, quot)


# ints, negative and non-unit leads, and Fractions
coefficients = st.sampled_from([1, -1, 2, -2, 3, -4, 6, Fraction(1, 2),
                                Fraction(-2, 3), Fraction(5, 4)])


@st.composite
def division_pairs(draw):
    """(g, d) in rank 1-3: g = q * d, plus a stray polynomial half the
    time, so that some pairs divide and some do not."""
    n = draw(st.integers(1, 3))

    def poly():
        exps = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * n),
                             min_size=1, max_size=4, unique=True))
        cs = draw(st.lists(coefficients, min_size=len(exps),
                           max_size=len(exps)))
        return LaurentPolynomial.from_terms(n, zip(exps, cs))

    d, g = poly(), poly()
    if draw(st.booleans()):
        g = g * d
    if draw(st.booleans()):
        g = g + poly()
    return g, d


def _types(f):
    return None if f is None else {e: type(c) for e, c in f.terms.items()}


@settings(max_examples=200, deadline=None)
@given(division_pairs())
def test_exact_divide_matches_the_fraction_oracle(pair):
    g, d = pair
    q, oracle = exact_divide(g, d), _old_exact_divide(g, d)
    assert (q is None) == (oracle is None)
    assert q == oracle and _types(q) == _types(oracle)


def _old_line_factor_candidates(slice_poly, base, direction, mult, deg_max):
    """Divisors of the edge slice read from one end, factored there."""
    coeffs = {}
    for e, c in slice_poly.terms.items():
        diff = tuple(a - b for a, b in zip(e, base))
        k = next(diff[i] // direction[i] for i in range(len(direction))
                 if direction[i] != 0)
        coeffs[k] = c
    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c) * t ** k for k, c in coeffs.items())
    _, factors = sympy.factor_list(sympy.Poly(expr, t))
    factors = [(p, m) for p, m in factors if p.degree() > 0]

    def rec(idx, current, degree):
        if idx == len(factors):
            if degree > 0:
                ascending = list(reversed(current.all_coeffs()))
                trail = next(c for c in ascending if c != 0)
                out = [sympy.Rational(c) / trail for c in ascending]
                if all(v >= 0 and v.is_integer for v in out):
                    yield [int(v) for v in out]
            return
        p, m = factors[idx]
        for e in range(m // mult + 1):
            nd = degree + e * p.degree()
            if nd > deg_max:
                break
            yield from rec(idx + 1, current * p ** e if e else current, nd)
    yield from rec(0, sympy.Poly(1, t), 0)


def _old_enumerate_rank2(f, bounds):
    """Each edge slice factored twice, once from each end."""
    seeds = {}
    for (u, c) in newton_polytope(f).facets:
        if c < 1 or c > bounds.w_max:
            continue
        low = dict(weight_decomposition(f, u))[-c]
        if len(low.terms) == 1:
            continue
        support = sorted(low.support())
        d = primitive_part(tuple(b - a
                                 for a, b in zip(support[0], support[-1])))
        for base, direction in ((support[0], d),
                                (support[-1], tuple(-x for x in d))):
            for coeff_list in _old_line_factor_candidates(
                    low, base, direction, c, bounds.deg_max):
                factor = LaurentPolynomial.from_terms(
                    2, [(tuple(k * x for x in direction), cv)
                        for k, cv in enumerate(coeff_list) if cv])
                data = MutationData(u, factor)
                if isinstance(is_mutable(f, data), MutationWitness):
                    seeds[data.key] = data
    return [seeds[k] for k in sorted(seeds)]


edge_factor = st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 4), (3, 1),
                               (1, 1, 1), (1, 2, 1), (2, 1, 3),
                               (Fraction(1, 2), 1), (1, Fraction(2, 3))])


@st.composite
def edge_polys(draw):
    """A rank-2 polynomial whose minimal slice for a random weight is a
    product of repeated and rational factors along the edge."""
    a = draw(st.integers(-3, 3))
    b = draw(st.integers(1, 3))
    assume(is_primitive((a, b)))
    w, d = (a, b), (-b, a)
    c = draw(st.integers(1, 3))
    # a point at level -c: a*x + b*y = -c
    x0 = draw(st.integers(-2, 2))
    assume((-c - a * x0) % b == 0)
    base = (x0, (-c - a * x0) // b)
    edge = sympy.Poly(1, sympy.Symbol("t"))
    for coeffs in draw(st.lists(edge_factor, min_size=1, max_size=3)):
        factor = sympy.Poly(list(reversed(coeffs)), sympy.Symbol("t"))
        edge = edge * factor ** draw(st.integers(1, 3))
    terms = [(tuple(p + k * q for p, q in zip(base, d)), Fraction(str(cf)))
             for k, cf in enumerate(reversed(edge.all_coeffs())) if cf]
    top = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                        min_size=1, max_size=4))
    terms += [(e, 1) for e in top if a * e[0] + b * e[1] > -c]
    return LaurentPolynomial.from_terms(2, terms)


@settings(max_examples=40, deadline=None)
@given(edge_polys())
def test_enumeration_matches_two_ended_factoring(f):
    p = newton_polytope(f)
    assume(p.is_full_dimensional)
    bounds = MutationBounds()
    result = enumerate_mutations(f, bounds)
    assert list(result.seeds) == _old_enumerate_rank2(f, bounds)
    for witness in result.witnesses:
        assert witness == is_mutable(f, witness.data)


H = "2*x + x*y + 2*y + y*x^-1 + 2*x^-1 + x^-1*y^-1 + 2*y^-1 + x*y^-1"
P2_DEPTH2 = [node.polynomial for node in mutation_graph.build_graph(
    parse_polynomial("x + y + x^-1*y^-1"), 2).nodes]
RATIONAL_EDGE = "1/4*y^-1 + x*y^-1 + x^2*y^-1 + y"  # (x + 1/2)^2 / y + y


def _edge_keys(f, bounds):
    """The (integer coefficient row, mult) of each factored edge: every
    facet (u, c) with 1 <= c <= w_max whose slice at level -c has two or
    more terms, read along the edge from its lex-least end."""
    keys = []
    for u, c in newton_polytope(f).facets:
        if not 1 <= c <= bounds.w_max:
            continue
        edge = dict(weight_decomposition(f, u))[-c]
        if len(edge) < 2:
            continue
        support = sorted(edge.support())
        d = primitive_part(tuple(b - a
                                 for a, b in zip(support[0], support[-1])))
        length = next((b - a) // x
                      for a, b, x in zip(support[0], support[-1], d) if x)
        row = [edge.coefficient(tuple(a + k * x
                                      for a, x in zip(support[0], d)))
               for k in range(length + 1)]
        keys.append((tuple(_integer_row(row)), c))
    return keys


def _count_factor_list(monkeypatch):
    """Record every polynomial factored through ``mutation.sympy``."""
    real = mutation.sympy  # imports sympy into the module global
    factored = []

    def factor_list(poly):
        factored.append(poly)
        return real.factor_list(poly)

    monkeypatch.setattr(mutation, "sympy", SimpleNamespace(
        factor_list=factor_list, Poly=real.Poly, Symbol=real.Symbol))
    return factored


@pytest.mark.parametrize("f", P2_DEPTH2 + [parse_polynomial(RATIONAL_EDGE)],
                         ids=format_polynomial)
def test_enumeration_factors_each_edge_once(f, monkeypatch):
    # one integer factor_list per distinct coefficient row among the facets
    # (u, c) with 1 <= c <= w_max whose slice at level -c has two or more
    # terms
    factored = _count_factor_list(monkeypatch)
    bounds = MutationBounds()
    result = enumerate_mutations(f, bounds)
    assert len(factored) == len(set(_edge_keys(f, bounds)))
    assert all(poly.domain.is_ZZ for poly in factored)
    assert list(result.seeds) == _old_enumerate_rank2(f, bounds)


# cyclotomic polynomials Phi_1 to Phi_6 as ascending coefficient rows
CYCLOTOMICS = [(-1, 1), (1, 1), (1, 1, 1), (1, 0, 1), (1, 1, 1, 1, 1),
               (1, -1, 1)]
SMALL_FACTORS = st.lists(st.integers(-3, 3), min_size=2, max_size=4).filter(
    lambda p: p[0] and p[-1])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.one_of(st.sampled_from(CYCLOTOMICS),
                                    SMALL_FACTORS),
                          st.integers(1, 3)),
                min_size=1, max_size=3),
       st.integers(1, 3), st.integers(1, 6))
def test_edge_divisors_match_the_laurent_oracle(factors, mult, deg_max):
    # a product of small factors, with repeats, cyclotomics and leading
    # coefficients other than 1
    row = reduce(_poly_mul, [p for p, m in factors for _ in range(m)])
    assert mutation._edge_divisors(row, mult, deg_max) == \
        laurent_edge_divisors(row, mult, deg_max)


def test_edge_divisors_of_a_repeated_cyclotomic_with_a_non_unit_factor():
    # (1 + t)^3 (2 + 3t): D = (1 + t)^k for k * mult <= 3, and (1 + t)^k
    # (2 + 3t), which has 1 at neither end
    row = reduce(_poly_mul, [(1, 1)] * 3 + [(2, 3)])
    assert mutation._edge_divisors(row, 1, 6) == \
        laurent_edge_divisors(row, 1, 6) == \
        [(1, 1), (1, 2, 1), (1, 3, 3, 1)]
    assert mutation._edge_divisors(row, 2, 6) == [(1, 1)]


GRAPHS = [("x + y + x^-1*y^-1", 3), (H, 2)]


@pytest.mark.parametrize("text, depth", GRAPHS)
def test_build_graph_factors_each_edge_row_once(text, depth, monkeypatch):
    # the search shares one memo, so a row met again on another node is not
    # factored again
    factored = _count_factor_list(monkeypatch)
    bounds = MutationBounds()
    graph = mutation_graph.build_graph(parse_polynomial(text), depth, bounds)
    edges = [key for node in graph.nodes if node.depth < depth
             for key in _edge_keys(node.polynomial, bounds)]
    assert len(factored) == len(set(edges)) < len(edges)


@pytest.mark.parametrize("text, depth", GRAPHS)
def test_shared_memo_gives_the_seeds_of_a_fresh_enumeration(text, depth,
                                                            monkeypatch):
    enumerate_real = mutation_graph.enumerate_mutations
    checked = []

    def compared(f, bounds, memo):
        result = enumerate_real(f, bounds, memo)
        assert result == enumerate_real(f, bounds)
        checked.append(f)
        return result

    monkeypatch.setattr(mutation_graph, "enumerate_mutations", compared)
    graph = mutation_graph.build_graph(parse_polynomial(text), depth)
    assert len(checked) == sum(node.depth < depth for node in graph.nodes)


def test_rational_edge_gives_integer_factors():
    f = parse_polynomial(RATIONAL_EDGE)
    factors = {format_polynomial(seed.factor)
               for seed in enumerate_mutations(f).seeds
               if seed.weight == (0, 1)}
    assert factors == {"2*x + 1", "4*x^2 + 4*x + 1"}


def test_build_graph_checks_each_seed_once(monkeypatch):
    calls, seeds = [], []
    is_mutable_real = mutation.is_mutable
    enumerate_real = mutation_graph.enumerate_mutations

    def counted_is_mutable(f, data):
        calls.append(data)
        return is_mutable_real(f, data)

    def counted_enumerate(*args):
        result = enumerate_real(*args)
        seeds.extend(result.seeds)
        return result

    monkeypatch.setattr(mutation, "is_mutable", counted_is_mutable)
    monkeypatch.setattr(mutation_graph, "enumerate_mutations",
                        counted_enumerate)
    graph = mutation_graph.build_graph(parse_polynomial(
        "x + y + x^-1*y^-1"), 2)
    assert len(graph.nodes) > 4
    assert len(calls) == len(seeds)
