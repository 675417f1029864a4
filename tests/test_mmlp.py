from fractions import Fraction

import pytest

from fanolab.laurent import format_polynomial, parse_polynomial
from fanolab.mmlp import coefficient_space, is_rigid, seed_set
from fanolab.mutation import MutationBounds, MutationWitness, is_mutable
from fanolab.polytopes import (LatticePolytope, OriginNotInteriorError,
                               newton_polytope)

H = "2*x + x*y + 2*y + y*x^-1 + 2*x^-1 + x^-1*y^-1 + 2*y^-1 + x*y^-1"


def test_seed_set_triangle():
    p = newton_polytope(parse_polynomial("x + y + x^-1*y^-1"))
    ss = seed_set(p)
    assert ss.complete
    assert len(ss.seeds) == 3
    assert all(len(s.factor.terms) == 2 for s in ss.seeds)


def test_seed_set_square_binomial_powers():
    p = newton_polytope(parse_polynomial(H))
    ss = seed_set(p)
    assert ss.complete
    factors = sorted(format_polynomial(s.factor) for s in ss.seeds)
    assert len(ss.seeds) == 8  # four edges, factor degrees 1 and 2
    assert factors.count("x^2 + 2*x + 1") == 2
    assert factors.count("y + 1") == 2


def test_seed_set_degree_bound():
    p = newton_polytope(parse_polynomial(H))
    ss = seed_set(p, MutationBounds(w_max=12, deg_max=1))
    assert len(ss.seeds) == 4


def test_seed_set_requires_interior_origin():
    p = LatticePolytope.from_points([(1, 0), (2, 1), (1, 2)])
    with pytest.raises(OriginNotInteriorError):
        seed_set(p)


def test_coefficient_space_square_pins_h():
    h = parse_polynomial(H)
    p = newton_polytope(h)
    ss = seed_set(p)
    space = coefficient_space(p, ss.seeds)
    assert not space.empty
    assert space.dimension == 0
    assert space.basepoint == (Fraction(2),) * 4
    assert space.member() == h
    assert space.contains_polynomial(h)
    assert not space.contains_polynomial(parse_polynomial(
        "x + x*y + y + y*x^-1 + x^-1 + x^-1*y^-1 + y^-1 + x*y^-1"))


def test_contains_polynomial_checks_pinned_terms():
    h = parse_polynomial(H)
    p = newton_polytope(h)
    space = coefficient_space(p, seed_set(p).seeds)
    for extra in ("4*x*y",  # the x*y vertex coefficient becomes 5
                  "x^3",  # a term outside the polytope
                  "7"):  # a nonzero constant term
        assert not space.contains_polynomial(
            h + parse_polynomial(extra, rank_hint=2)), extra
    assert not space.contains_polynomial(parse_polynomial(
        "x + y + z + x^-1*y^-1*z^-1"))  # wrong rank


def test_coefficient_space_members_are_mutable():
    h = parse_polynomial(H)
    p = newton_polytope(h)
    ss = seed_set(p)
    space = coefficient_space(p, ss.seeds)
    for seed in ss.seeds:
        assert isinstance(is_mutable(space.member(), seed), MutationWitness)


def test_coefficient_space_unconstrained_dimension():
    p = newton_polytope(parse_polynomial(H))
    space = coefficient_space(p, ())
    assert space.dimension == 4  # the four edge midpoints are free
    assert space.basepoint == (0,) * 4
    assert space.contains_polynomial(parse_polynomial(H))
    assert space.contains_polynomial(parse_polynomial(
        "x*y + y*x^-1 + x^-1*y^-1 + x*y^-1 - 7/3*x"))


def test_contains_polynomial_without_free_points():
    f = parse_polynomial("x + y + x^-1*y^-1")
    p = newton_polytope(f)
    space = coefficient_space(p, seed_set(p).seeds)
    assert space.free_points == () and space.dimension == 0
    assert space.contains_polynomial(f)


def test_rigid_verdicts():
    assert is_rigid(parse_polynomial("x + y + x^-1*y^-1")).verdict \
        == "rigid-within-bounds"
    assert is_rigid(parse_polynomial(H)).verdict == "rigid-within-bounds"
    # same square support but a midpoint coefficient off its forced value
    wrong = parse_polynomial(
        "3*x + x*y + 2*y + y*x^-1 + 2*x^-1 + x^-1*y^-1 + 2*y^-1 + x*y^-1")
    assert is_rigid(wrong).verdict == "not-rigid"


def test_rigid_higher_rank_is_not_overclaimed():
    rep = is_rigid(parse_polynomial("(x+y+1)^3/(x*y*z) + z"))
    assert not rep.complete
    assert rep.verdict in ("inconclusive", "rigid-within-bounds")
