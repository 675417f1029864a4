from fractions import Fraction

import pytest

from fanolab import mmlp
from fanolab.laurent import (PACK_BITS, LaurentPolynomial, format_polynomial,
                             parse_polynomial)
from fanolab.mmlp import coefficient_space, is_rigid, seed_set
from fanolab.mutation import (MutationBounds, MutationData, MutationWitness,
                              is_mutable)
from fanolab.polytopes import (LatticePolytope, OriginNotInteriorError,
                               lattice_points, newton_polytope)
import mmlp_oracle
from test_golden import POLYGON_POLYS, SOLIDS

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
    space = coefficient_space(p, ss)
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
    space = coefficient_space(p, seed_set(p))
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
    space = coefficient_space(p, ss)
    for seed in ss.seeds:
        assert isinstance(is_mutable(space.member(), seed), MutationWitness)


def test_coefficient_space_unconstrained_dimension():
    p = newton_polytope(parse_polynomial(H))
    space = coefficient_space(p, seed_set(p)._replace(seeds=()))
    assert space.dimension == 4  # the four edge midpoints are free
    assert space.basepoint == (0,) * 4
    assert space.contains_polynomial(parse_polynomial(H))
    assert space.contains_polynomial(parse_polynomial(
        "x*y + y*x^-1 + x^-1*y^-1 + x*y^-1 - 7/3*x"))


def test_contains_polynomial_without_free_points():
    f = parse_polynomial("x + y + x^-1*y^-1")
    p = newton_polytope(f)
    space = coefficient_space(p, seed_set(p))
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


# -- the packed kernel against the tuple oracle, end to end ---------------

E2E_POLYS = POLYGON_POLYS + (
    "x + 1/x + y + 1/y + z + 1/z",  # the octahedron
    "x + y + z + 1/(x*y*z)",
    "(x + y + 1)^3/(x*y*z) + z",  # the cubic threefold's mirror
)
E2E_POLYTOPES = ([newton_polytope(parse_polynomial(text))
                  for text in E2E_POLYS]
                 + [LatticePolytope.from_points(v) for v in SOLIDS])


@pytest.mark.parametrize(
    "p", E2E_POLYTOPES,
    ids=[f"poly{i}" for i in range(len(E2E_POLYS))]
    + [f"solid{i}" for i in range(len(SOLIDS))])
def test_packed_kernel_matches_the_tuple_oracle_end_to_end(p, monkeypatch):
    seeds = seed_set(p)
    assert seeds.points == lattice_points(p).all
    space = coefficient_space(p, seeds)
    assert space == mmlp_oracle.coefficient_space(p, seeds.seeds)
    monkeypatch.setattr(mmlp, "_higher_rank_factors",
                        mmlp_oracle.higher_rank_factors)
    oracle = seed_set(p)
    assert [s.key for s in seeds.seeds] == [s.key for s in oracle.seeds]
    assert seeds.complete == oracle.complete


def test_a_factor_power_past_the_packing_bound_has_no_fit():
    # 1 + x^(2^23) cannot be packed; no monomial multiple of it fits in a
    # slice of the square, so each slice it meets must vanish, and the
    # vertices held at 1 leave the space empty
    p = newton_polytope(parse_polynomial(H))
    factor = parse_polynomial(f"1 + x^{1 << (PACK_BITS - 1)}", rank_hint=2)
    assert factor.packed() is None
    seeds = (MutationData((0, 1), factor),)
    space = coefficient_space(p, seed_set(p)._replace(seeds=seeds))
    assert space == mmlp_oracle.coefficient_space(p, seeds)
    assert space.empty
    # a face whose points reach half the box cap, and a binomial along it
    # whose 200th power has exponents past the packing bound
    face = [(0, 0, 1), (50_000, 1, 1)]
    binomial = LaurentPolynomial(3, {(0, 0, 0): 1, (50_000, 1, 0): 1})
    assert (binomial ** 200).packed() is None
    bounds = MutationBounds(w_max=200, deg_max=1)
    assert list(mmlp._higher_rank_factors(face, 200, bounds)) == []
    assert list(mmlp_oracle.higher_rank_factors(face, 200, bounds)) == []
    assert list(mmlp._higher_rank_factors(face, 1, bounds)) == \
        list(mmlp_oracle.higher_rank_factors(face, 1, bounds)) != []


def test_is_rigid_enumerates_lattice_points_once(monkeypatch):
    calls = []

    def counted(p):
        calls.append(p)
        return lattice_points(p)

    monkeypatch.setattr(mmlp, "lattice_points", counted)
    checks = []
    interior = LatticePolytope.origin_strictly_interior

    def checked(p):
        checks.append(p)
        return interior(p)

    monkeypatch.setattr(LatticePolytope, "origin_strictly_interior", checked)
    for text in ("x + y + x^-1*y^-1", H, "(x + y + 1)^3/(x*y*z) + z"):
        calls.clear()
        checks.clear()
        is_rigid(parse_polynomial(text))
        assert len(calls) == 1 and len(checks) == 1, text


def test_coefficient_space_reads_the_seed_set_unchecked(monkeypatch):
    # seed_set checked the origin and walked the points; coefficient_space
    # reads them off the seed set and neither checks nor walks again
    calls = []

    def counted(name, original):
        def wrapper(*args):
            calls.append(name)
            return original(*args)
        return wrapper

    for text in ("x + y + x^-1*y^-1", H, "(x + y + 1)^3/(x*y*z) + z"):
        p = newton_polytope(parse_polynomial(text))
        seeds = seed_set(p)
        with monkeypatch.context() as patch:
            patch.setattr(mmlp, "lattice_points",
                          counted("lattice_points", lattice_points))
            patch.setattr(LatticePolytope, "origin_strictly_interior",
                          counted("origin_strictly_interior",
                                  LatticePolytope.origin_strictly_interior))
            space = coefficient_space(p, seeds)
        assert calls == [], text
        assert space == mmlp_oracle.coefficient_space(p, seeds.seeds), text
