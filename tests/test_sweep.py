"""The pruned higher-rank factor sweep against the flat one.

``enumerate_mutations`` and ``seed_set`` stop each power chain of
``factor_sweep`` at its first failing power, and ``factor_sweep`` yields
one chain per translation class of bases.  Their results must equal those
of the flat sweep in ``sweep_oracle.py``, which tries every power of every
base, and the two rules that justify the pruning are checked on random
bases.  The candidates of both have distinct keys, and
``coefficient_space`` reads the seeds in any order.
"""

import functools
import random
from dataclasses import fields

import pytest
from hypothesis import assume, given, settings, strategies as st

from fanolab.laurent import (LaurentPolynomial, parse_polynomial,
                             substitute_unimodular)
from fanolab import mmlp, mutation
from fanolab.mmlp import (CoefficientSpace, _minkowski_difference_points,
                          coefficient_space, seed_set)
from fanolab.mutation import (MutationData, NotMutable, enumerate_mutations,
                              exact_divide, factor_sweep, is_mutable)
from fanolab.polytopes import LatticePolytope, lattice_points, newton_polytope
from sweep_oracle import facet_diffs, flat_bases, sweep_seeds, sweep_witnesses
from test_golden import POLYGON_POLYS, POLYGONS, SOLIDS
from test_properties import _apply, _gl, polys

POLYS = (
    "x + 1/x + y + 1/y + z + 1/z",
    "x + y + z + 1/(x*y*z)",
    "x + y + 1/(x*y) + z + 1/z",
    "(x + y + 1)^3/(x*y*z) + z",
)


@pytest.mark.parametrize(
    "f", [parse_polynomial(text) for text in POLYS]
    + [LaurentPolynomial(3, dict.fromkeys(vertices, 1))
       for vertices in SOLIDS],
    ids=list(POLYS) + [f"solid{i}" for i in range(len(SOLIDS))])
def test_enumerate_mutations_matches_the_flat_sweep(f):
    assert enumerate_mutations(f).witnesses == sweep_witnesses(f)


@pytest.mark.parametrize(
    "p", [newton_polytope(parse_polynomial(text)) for text in POLYS]
    + [LatticePolytope.from_points(vertices) for vertices in SOLIDS],
    ids=[f"poly{i}" for i in range(len(POLYS))]
    + [f"solid{i}" for i in range(len(SOLIDS))])
def test_seed_set_matches_the_flat_sweep(p):
    assert seed_set(p).seeds == sweep_seeds(p)


def _translation_class(base):
    low = min(base.terms)
    return frozenset((tuple(x - y for x, y in zip(e, low)), c)
                     for e, c in base.terms.items())


diff_lists = st.lists(st.tuples(*[st.integers(-2, 2)] * 3).filter(any),
                      unique=True, max_size=8).map(sorted)


@settings(max_examples=60, deadline=None)
@given(diff_lists)
def test_factor_sweep_yields_one_base_per_translation_class(diffs):
    bases = [next(chain) for chain in factor_sweep(diffs, 6)]
    classes = [_translation_class(base) for base in bases]
    assert len(set(classes)) == len(classes)
    assert set(classes) == {_translation_class(b) for b in flat_bases(diffs)}
    assert all(min(base.terms) == (0, 0, 0) for base in bases)


def test_the_cubic_mirror_sweeps_one_chain_per_translation_class(
        monkeypatch):
    # the four facets of (x + y + 1)^3/(x*y*z) + z: 465 bases, translates
    # included, fall into 326 translation classes, which give 129 seeds
    p = newton_polytope(parse_polynomial(POLYS[3]))
    chains = []

    def counted(diffs, deg_max):
        for chain in factor_sweep(diffs, deg_max):
            chains.append(chain)
            yield chain

    monkeypatch.setattr(mmlp, "factor_sweep", counted)
    seeds = seed_set(p).seeds
    assert len(p.facets) == 4
    assert sum(len(list(flat_bases(diffs)))
               for _, _, diffs in facet_diffs(p)) == 465
    assert len(chains) == 326
    assert len(seeds) == 129 and seeds == sweep_seeds(p)


# products of at most 4 elementary matrices in GL(3, Z)
gl3 = st.builds(functools.partial(_gl, 3),
                st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                                   st.sampled_from((-1, 1))),
                         max_size=4),
                st.booleans())


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(POLYS), gl3)
def test_pruned_sweep_matches_the_flat_sweep_on_gl3_images(text, m):
    f = substitute_unimodular(parse_polynomial(text), m)
    assert enumerate_mutations(f).witnesses == sweep_witnesses(f)
    p = newton_polytope(f)
    assert seed_set(p).seeds == sweep_seeds(p)


# bases on the wall z = 0 with constant term 1 and positive coefficients
bases = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any),
    st.integers(1, 3), min_size=1, max_size=2).map(
    lambda terms: LaurentPolynomial.from_terms(
        3, [((0, 0, 0), 1)] + [((a, b, 0), c) for (a, b), c in terms.items()]))
slices = st.dictionaries(st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
                         st.integers(-2, 2).filter(bool), min_size=1,
                         max_size=3)


@settings(max_examples=60, deadline=None)
@given(bases, st.integers(1, 3),
       st.lists(st.tuples(st.integers(0, 4), slices), min_size=1,
                max_size=2))
def test_a_power_that_is_not_mutable_stops_its_chain(base, k, lows):
    # f_-i = B^j_i * q_i at levels -1, -2, ..., plus a positive part, so
    # B^k divides some slices and not others
    terms = {(0, 0, 1): 1}
    for i, (j, q) in enumerate(lows, start=1):
        piece = base ** j * LaurentPolynomial.from_terms(
            3, [((a, b, -i), c) for (a, b), c in q.items()])
        terms.update(piece.terms)
    f = LaurentPolynomial.from_terms(3, terms.items())
    w = (0, 0, 1)
    assert exact_divide(base ** (k + 1), base ** k) == base
    if isinstance(is_mutable(f, MutationData(w, base ** k)), NotMutable):
        assert isinstance(is_mutable(f, MutationData(w, base ** (k + 1))),
                          NotMutable)


@settings(max_examples=60, deadline=None)
@given(bases, st.integers(1, 3), st.integers(1, 3),
       st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                min_size=3, max_size=6))
def test_a_power_that_does_not_fit_stops_its_chain(base, k, height, corners):
    p = LatticePolytope.from_points(corners)
    assume(p.is_full_dimensional)
    face = {(a, b, 0) for a, b in lattice_points(p).all}
    lower, upper = base ** (k * height), base ** ((k + 1) * height)
    assert set(lower.support()) <= set(upper.support())
    if not list(_minkowski_difference_points(face, lower.support())):
        assert not list(_minkowski_difference_points(face, upper.support()))


# ``enumerate_mutations`` checks each candidate once and ``seed_set`` keeps
# each seed, with no map to skip a repeat: their keys are distinct by
# construction, and ``coefficient_space`` reads the seeds in any order


def _candidate_keys(f):
    """The key of every candidate ``enumerate_mutations(f)`` checks."""
    keys = []

    def recorded(g, data):
        keys.append(data.key)
        return is_mutable(g, data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mutation, "is_mutable", recorded)
        witnesses = enumerate_mutations(f).witnesses
    assert [w.data.key for w in witnesses] == sorted(
        set(w.data.key for w in witnesses))
    return keys


def _distinct(keys):
    return len(set(keys)) == len(keys)


@settings(max_examples=80, deadline=None)
@given(polys(min_terms=3))
def test_rank2_candidates_have_distinct_keys(f):
    assume(newton_polytope(f).is_full_dimensional)
    assert _distinct(_candidate_keys(f))


@pytest.mark.parametrize("text", POLYGON_POLYS)
def test_polygon_candidates_have_distinct_keys(text):
    assert _distinct(_candidate_keys(parse_polynomial(text)))


RANK3 = [LaurentPolynomial(3, dict.fromkeys(vertices, 1))
         for vertices in SOLIDS] + [parse_polynomial(POLYS[3])]


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(RANK3), gl3)
def test_rank3_candidates_have_distinct_keys_on_gl3_images(f, m):
    assert _distinct(_candidate_keys(substitute_unimodular(f, m)))


POLYTOPES = ([LatticePolytope.from_points(vertices)
              for vertices in POLYGONS + SOLIDS]
             + [newton_polytope(parse_polynomial(POLYS[3]))])
POLYTOPE_IDS = ([f"polygon{i}" for i in range(len(POLYGONS))]
                + [f"solid{i}" for i in range(len(SOLIDS))] + ["cubic"])


def _image(p, m):
    return LatticePolytope.from_points([_apply(m, v) for v in p.vertices])


@pytest.mark.parametrize("p", POLYTOPES, ids=POLYTOPE_IDS)
def test_seeds_have_distinct_keys(p):
    keys = [seed.key for seed in seed_set(p).seeds]
    assert _distinct(keys) and keys == sorted(keys)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(POLYTOPES[len(POLYGONS):]), gl3)
def test_seeds_have_distinct_keys_on_gl3_images(p, m):
    assert _distinct([seed.key for seed in seed_set(_image(p, m)).seeds])


@pytest.mark.parametrize("p", POLYTOPES, ids=POLYTOPE_IDS)
def test_coefficient_space_reads_the_seeds_in_any_order(p):
    seeds = list(seed_set(p).seeds)
    space = coefficient_space(p, seeds)
    random.Random(len(seeds)).shuffle(seeds)
    shuffled = coefficient_space(p, seeds)
    for field in fields(CoefficientSpace):
        assert getattr(shuffled, field.name) == getattr(space, field.name)
