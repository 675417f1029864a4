"""End-to-end acceptance checks: eleven numbered criteria, each printing a
single PASS/FAIL line.  All comparisons are exact."""

import subprocess
import sys
import time
from fractions import Fraction

import pytest

from fanolab.laurent import parse_polynomial, exponent_lattice_index
from fanolab.mmlp import coefficient_space, is_rigid, seed_set
from fanolab.mutation import MutationData, canonicalize_shear, mutate
from fanolab.mutation_graph import p2_correspondence_check
from fanolab.periods import classical_period, periods_agree
from fanolab.polytopes import (LatticePolytope, dual_polytope, lattice_points,
                               newton_polytope)
from fanolab.recurrence import (DifferentialOperator, fit_recurrence,
                                to_differential_operator, verify_recurrence)

P2 = "x + y + x^-1*y^-1"
H = "2*x + x*y + 2*y + y*x^-1 + 2*x^-1 + x^-1*y^-1 + 2*y^-1 + x*y^-1"


_capture = None


@pytest.fixture(autouse=True)
def _live_report(capfd):
    global _capture
    _capture = capfd
    yield
    _capture = None


def report(number, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}"
    if _capture is not None:
        with _capture.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def test_criterion_01_projective_plane_period():
    seq = classical_period(parse_polynomial(P2), 13)
    expected = (1, 0, 0, 6, 0, 0, 90, 0, 0, 1680, 0, 0, 34650)
    report(1, seq == expected, f"period of {P2} through t^12 is {seq}")


def test_criterion_02_mutated_form_same_period():
    f = parse_polynomial(P2)
    g = parse_polynomial("b + (a+1)^2*a^-1*b^-2")
    ok, where = periods_agree(f, g, 10)
    report(2, ok, "b + (a+1)^2/(a*b^2) matches the plane period through t^9"
           if ok else f"mismatch at index {where}")


def test_criterion_03_quadric_pair_and_lattice_index():
    f = parse_polynomial("x + x^-1 + y + y^-1")
    g = parse_polynomial("x*y + y*x^-1 + x^-1*y^-1 + x*y^-1")
    expected = (1, 0, 4, 0, 36, 0, 400, 0, 4900)
    seq_f = classical_period(f, 9)
    agree, _ = periods_agree(f, g, 9)
    index = exponent_lattice_index(g)
    ok = seq_f == expected and agree and index == (2, 2)
    report(3, ok, f"both quadric models give {seq_f}; index of the skew "
           f"model is {index[1]}")


def test_criterion_04_del_pezzo_degree_4_period():
    seq = classical_period(parse_polynomial(H), 7)
    expected = (1, 0, 20, 96, 1188, 10560, 111440)
    report(4, seq == expected, f"degree-4 del Pezzo period starts {seq}")


def test_criterion_05_cubic_threefold_pair():
    start = time.time()
    f = parse_polynomial("(x+y+1)^3/(x*y*z) + z")
    g = parse_polynomial("(a+b+1)^2/(a*b*c) + c*(a+b+1)")
    expected = (1, 0, 12, 0, 540, 0, 33600, 0, 2425500)
    seq = classical_period(f, 9)
    agree, _ = periods_agree(f, g, 9)
    elapsed = time.time() - start
    ok = seq == expected and agree and elapsed < 60
    report(5, ok, f"cubic threefold pair agrees, series {seq}, "
           f"{elapsed:.1f}s")


def test_criterion_06_worked_mutation():
    f = parse_polynomial(P2)
    data = MutationData((2, -1), parse_polynomial("1 + x*y^2"))
    g = mutate(f, data)
    expected = canonicalize_shear(
        parse_polynomial("x^-1*y^-1 + x*(1 + x*y^2)^2"), (2, -1))
    agree, _ = periods_agree(f, g, 13)
    ok = g == expected and agree
    report(6, ok, "mutation by w=(2,-1), F=1+x*y^2 gives "
           "1/(x*y) + x*(1+x*y^2)^2 up to shear; periods agree through t^12")


def test_criterion_07_markov_correspondence():
    start = time.time()
    rep = p2_correspondence_check(3)
    elapsed = time.time() - start
    seen = set()
    for gw, _, _ in rep.per_depth:
        seen |= set(gw)
    needed = {(1, 1, 4), (1, 4, 25), (4, 25, 841), (1, 25, 169)}
    ok = rep.ok and needed <= seen and elapsed < 120
    report(7, ok, f"depth-3 mutation graph matches squared Markov triples "
           f"per depth, weights include {sorted(needed)}, {elapsed:.1f}s")


def test_criterion_08_boundary_point_counts():
    d = dual_polytope(newton_polytope(parse_polynomial(P2)))
    b1 = len(lattice_points(d.to_lattice_polytope()).boundary)
    nabla = LatticePolytope.from_points(
        [(2, 0, -1), (0, 2, -1), (-2, -2, -1), (0, 0, 1)])
    b2 = len(lattice_points(nabla).boundary)
    ok = b1 == 9 and b2 == 14
    report(8, ok, f"boundary points: dual triangle {b1} (want 9), "
           f"threefold polytope {b2} (want 14)")


def test_criterion_09_rigidity():
    verdict = is_rigid(parse_polynomial(P2)).verdict
    h = parse_polynomial(H)
    p = newton_polytope(h)
    space = coefficient_space(p, seed_set(p))
    pinned = space.dimension == 0 and space.member() == h
    ok = verdict == "rigid-within-bounds" and pinned
    report(9, ok, f"{P2} is {verdict}; the square's coefficient space is "
           f"the single point given by the degree-4 del Pezzo polynomial")


def test_criterion_10_recurrence_fit():
    terms60 = classical_period(parse_polynomial(P2), 60)
    rec = fit_recurrence(terms60[:40])
    ok = rec is not None and rec.order == 3 and \
        rec.coefficients == ((0, 0, 1), (), (), (-54, 81, -27))
    op = to_differential_operator(rec) if rec else None
    ok = ok and op == DifferentialOperator(
        ((0, 0, 1), (), (), (-54, -81, -27)))
    ok = ok and verify_recurrence(rec, terms60) == (True, None)
    report(10, ok, "40 plane period terms give k^2 c_k = "
           "27(k-1)(k-2) c_{k-3}, operator D^2 - 27 t^3 (D+1)(D+2), "
           "verified through term 59")


def test_criterion_11_property_suite(property_outcomes):
    # runs last; see conftest.py
    if property_outcomes is not None:
        passed = sum(property_outcomes.values())
        failed = len(property_outcomes) - passed
        detail = f"{passed} passed"
        if failed:
            detail += f", {failed} did not pass"
        report(11, not failed,
               f"randomized property suite: {detail} in this session")
        return
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "tests/test_properties.py"],
        capture_output=True, text=True, cwd=__file__.rsplit("/tests/", 1)[0])
    ok = result.returncode == 0
    tail = result.stdout.strip().splitlines()[-1] if result.stdout else ""
    report(11, ok, f"randomized property suite: {tail}")
