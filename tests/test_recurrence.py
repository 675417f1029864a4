from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import recurrence_oracle
from fanolab import recurrence
from fanolab.laurent import parse_polynomial
from fanolab.linalg import nullspace
from fanolab.periods import classical_period
from fanolab.recurrence import (_SCREEN_PRIME, DifferentialOperator,
                                PolynomialRecurrence, _poly_eval, _poly_mul,
                                _poly_shift, _poly_trim, fit_recurrence,
                                to_differential_operator, verify_recurrence)
from test_periods import period_polys

P2 = "x + y + x^-1*y^-1"


def p2_terms(n):
    return list(classical_period(parse_polynomial(P2), n))


def test_fit_constant_sequence():
    rec = fit_recurrence([1] * 30)
    assert rec.order == 1 and rec.degree == 0
    assert rec.coefficients == ((1,), (-1,))


def test_fit_refuses_bounds_that_allow_no_candidate():
    with pytest.raises(ValueError):
        fit_recurrence([1] * 30, r_max=0)
    with pytest.raises(ValueError):
        fit_recurrence([1] * 30, d_max=-1)
    rec = fit_recurrence([1] * 30, d_max=0)
    assert rec.order == 1 and rec.degree == 0
    # r_max + 8 terms leave the order-1, degree-0 system its two equations
    with pytest.raises(ValueError, match="at least 9 terms, got 8"):
        fit_recurrence([1] * 8, r_max=1)
    assert fit_recurrence([1] * 9, r_max=1).coefficients == ((1,), (-1,))
    with pytest.raises(ValueError, match="at least 14 terms, got 13"):
        fit_recurrence(p2_terms(13))
    assert fit_recurrence(p2_terms(14)) is None


def _old_poly_shift(p, s):
    """p(k + s) as a sum of c_i (k + s)^i, one power of k + s at a time."""
    def add(p, q):
        n = max(len(p), len(q))
        return _poly_trim([(p[i] if i < len(p) else 0) +
                           (q[i] if i < len(q) else 0) for i in range(n)])
    out, power = (), (1,)
    for c in p:
        out = add(out, _poly_mul((c,), power))
        power = _poly_mul(power, (s, 1))
    return out


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-10**6, 10**6), max_size=13),
       st.integers(-50, 50))
def test_poly_shift_matches_the_power_by_power_oracle(p, s):
    # trailing zeros included: both trim their result
    assert _poly_shift(tuple(p), s) == _old_poly_shift(tuple(p), s)


def test_fit_factorials():
    import math
    rec = fit_recurrence([math.factorial(k) for k in range(30)])
    # c_k = k c_{k-1}
    assert rec.order == 1
    assert rec.coefficients == ((1,), (0, -1))


def test_fit_projective_plane():
    rec = fit_recurrence(p2_terms(40))
    assert rec.order == 3 and rec.degree == 2
    # k^2 c_k = 27 (k-1)(k-2) c_{k-3}
    assert rec.coefficients == ((0, 0, 1), (), (), (-54, 81, -27))
    assert verify_recurrence(rec, p2_terms(60)) == (True, None)


def test_fit_is_minimal_in_the_grading():
    rec = fit_recurrence(p2_terms(40))
    # nothing of strictly smaller order + degree fits
    assert fit_recurrence(p2_terms(40), r_max=3, d_max=1) is None
    assert fit_recurrence(p2_terms(40), r_max=2, d_max=2) is None


def test_verify_reports_first_failure():
    rec = fit_recurrence(p2_terms(40))
    other = list(classical_period(
        parse_polynomial("x + x^-1 + y + y^-1"), 20))
    ok, where = verify_recurrence(rec, other)
    assert not ok and where == 3


def test_operator_projective_plane():
    rec = fit_recurrence(p2_terms(40))
    op = to_differential_operator(rec)
    # D^2 - 27 t^3 (D+1)(D+2)
    assert op == DifferentialOperator(((0, 0, 1), (), (), (-54, -81, -27)))
    assert op.annihilates(p2_terms(60))
    assert "D^2" in op.to_string()


def test_operator_boundary_factor():
    # the constant-one series needs no correction: D - t(D+1) kills it and
    # already vanishes at k = 0
    rec = fit_recurrence([1] * 30)
    op = to_differential_operator(rec)
    assert op.annihilates([1] * 50)
    # factorial-like growth: c_k = (k+1) c_{k-1}, c_0 = 1; the raw operator
    # misses zero at k = 0, so a (k - 0) factor must appear
    import math
    seq = [math.factorial(k + 1) for k in range(30)]
    rec2 = fit_recurrence(seq)
    assert rec2.check(0, seq) != 0  # truncated relation fails at the edge
    op2 = to_differential_operator(rec2)
    assert op2.annihilates(seq)


def test_operator_recurrence_round_trip():
    rec = fit_recurrence(p2_terms(40))
    op = to_differential_operator(rec)
    back = op.to_recurrence(p2_terms(3))
    assert back.coefficients == rec.coefficients
    assert verify_recurrence(back, p2_terms(50)) == (True, None)


@pytest.mark.parametrize("text", (
    P2,
    "x + 1/x + y + 1/y",
    "x + y + z + 1/(x*y*z)",
    "x + 1/x + y + 1/y + z + 1/z",
    "x + y + x*y + 1/x + 1/y + 1/(x*y)",
))
def test_operator_recurrence_round_trip_on_mirrors(text):
    terms = list(classical_period(parse_polynomial(text), 40))
    rec = fit_recurrence(terms)
    back = to_differential_operator(rec).to_recurrence(terms)
    assert back.coefficients == rec.coefficients
    assert verify_recurrence(back, terms) == (True, None)


def test_quadric_surface_recurrence():
    f = parse_polynomial("x + x^-1 + y + y^-1")
    terms = list(classical_period(f, 40))
    rec = fit_recurrence(terms)
    assert rec.order == 2
    # k^2 c_k = 16 (k-1)^2 c_{k-2}
    assert rec.coefficients == ((0, 0, 1), (), (-16, 32, -16))
    op = to_differential_operator(rec)
    assert op.annihilates(list(classical_period(f, 60)))


def test_fit_returns_none_for_random_noise():
    import random
    rng = random.Random(7)
    noise = [rng.randint(1, 10 ** 6) for _ in range(40)]
    assert fit_recurrence(noise, r_max=3, d_max=3) is None


def test_recurrence_needs_initial_terms_for_operator():
    rec = PolynomialRecurrence(2, 0, ((1,), (), (-1,)), ())
    with pytest.raises(ValueError):
        to_differential_operator(rec)


def test_operator_of_a_recurrence_with_a_zero_last_coefficient():
    # c_k - c_{k-1} = 0 with an empty q_2: the boundary factor k applies
    # at k = 0, and the empty p_2 is dropped
    rec = PolynomialRecurrence(2, 0, ((1,), (-1,), ()), (1, 1))
    op = to_differential_operator(rec)
    assert op == DifferentialOperator(((0, 1), (-1, -1)))
    assert op.annihilates([1] * 20)


small_polys = st.lists(st.integers(-6, 6), max_size=3)


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_polys, st.sampled_from(([], [0], [0, 0]))),
       st.lists(small_polys, max_size=3),
       st.integers(-5, 5).filter(bool))
def test_normalize_is_idempotent_and_ignores_scale(q0, rest, scale):
    qs = [q0] + rest
    once = recurrence._normalize(qs)
    assert recurrence._normalize(once) == once
    assert recurrence._normalize(
        [[scale * c for c in q] for q in qs]) == once
    assert next((q[-1] for q in once if q), 1) > 0


def test_opposite_operators_give_one_recurrence():
    # q_0 = 0 here, so the sign is read off q_1
    op = DifferentialOperator(((), (1, 1), (-2,)))
    neg = DifferentialOperator(((), (-1, -1), (2,)))
    rec = op.to_recurrence((1, 2))
    assert rec.coefficients == ((), (0, 1), (-2,))
    assert neg.to_recurrence((1, 2)) == rec


# -- the screened fit against the exact fit of every system -----------------


def exact_systems(monkeypatch, module):
    """A list that records the size of every exact nullspace the module's
    fit asks for."""
    calls = []

    def counted(rows):
        calls.append((len(rows), len(rows[0])))
        return nullspace(rows)

    monkeypatch.setattr(module, "nullspace", counted)
    return calls


def assert_screen_matches_the_exact_fit(terms, r_max, d_max):
    assert fit_recurrence(terms, r_max, d_max) == \
        recurrence_oracle.fit_recurrence(terms, r_max, d_max)


bounds = st.tuples(st.integers(1, 6), st.integers(0, 8))


@settings(max_examples=40, deadline=None)
@given(period_polys(), st.integers(14, 20), bounds)
def test_screen_matches_the_exact_fit_on_period_series(f, n, rd):
    r_max, d_max = rd
    assume(n >= r_max + 8)
    terms = list(classical_period(f, n))
    assert_screen_matches_the_exact_fit(terms, r_max, d_max)


@st.composite
def recurrence_series(draw, fractions):
    """Terms of a random relation sum_j q_j(k) c_{k-j} = 0 of order 1-3 and
    degree 0-2: with q_0 = 1 and int initial terms, or with q_0 = k + s,
    s >= 1, and Fraction initial terms, so every term is a Fraction."""
    r = draw(st.integers(1, 3))
    d = draw(st.integers(0, 2))
    poly = st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1)
    qs = [draw(poly) for _ in range(r)]
    if fractions:
        q0 = (draw(st.integers(1, 3)), 1)
        init = draw(st.lists(st.fractions(min_value=-3, max_value=3,
                                          max_denominator=4),
                             min_size=r, max_size=r))
    else:
        q0 = (1,)
        init = draw(st.lists(st.integers(-3, 3), min_size=r, max_size=r))
    terms = list(init)
    for k in range(r, draw(st.integers(14, 30))):
        acc = -sum(_poly_eval(q, k) * terms[k - j]
                   for j, q in enumerate(qs, 1))
        terms.append(Fraction(acc, _poly_eval(q0, k)) if fractions else acc)
    return terms


@settings(max_examples=40, deadline=None)
@given(recurrence_series(fractions=False), bounds)
def test_screen_matches_the_exact_fit_on_integer_recurrences(terms, rd):
    r_max, d_max = rd
    assume(len(terms) >= r_max + 8)
    assert_screen_matches_the_exact_fit(terms, r_max, d_max)


@settings(max_examples=40, deadline=None)
@given(recurrence_series(fractions=True), bounds)
def test_screen_matches_the_exact_fit_on_fraction_sequences(terms, rd):
    r_max, d_max = rd
    assume(len(terms) >= r_max + 8)
    assert all(type(c) is Fraction for c in terms)
    assert_screen_matches_the_exact_fit(terms, r_max, d_max)


@settings(max_examples=30, deadline=None)
@given(st.one_of(recurrence_series(fractions=False),
                 recurrence_series(fractions=True),
                 st.integers(14, 20).flatmap(
                     lambda n: period_polys().map(
                         lambda f: list(classical_period(f, n))))),
       bounds)
def test_screen_skips_nothing_on_multiples_of_its_prime(terms, rd):
    r_max, d_max = rd
    assume(len(terms) >= r_max + 8)
    # every residue is 0, so no system reaches full rank modulo the prime
    # and the exact elimination decides every system alone
    terms = [_SCREEN_PRIME * c for c in terms]
    with pytest.MonkeyPatch.context() as monkeypatch:
        screened = exact_systems(monkeypatch, recurrence)
        exact = exact_systems(monkeypatch, recurrence_oracle)
        assert_screen_matches_the_exact_fit(terms, r_max, d_max)
    assert screened == exact


def test_screen_leaves_one_exact_system_for_the_projective_plane(
        monkeypatch):
    calls = exact_systems(monkeypatch, recurrence)
    rec = fit_recurrence(p2_terms(40))
    assert (rec.order, rec.degree) == (3, 2)
    # the exact fit eliminates the 12 systems before this one in the
    # grading as well; each has full rank modulo the prime
    assert calls == [(26, 12)]
