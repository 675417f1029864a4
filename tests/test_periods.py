from fractions import Fraction
from itertools import islice, product
from math import comb, factorial, prod

import pytest
from hypothesis import Phase, assume, find, given, settings, strategies as st

import period_oracle
from fanolab import periods
from fanolab.laurent import (LaurentPolynomial, parse_polynomial,
                             substitute_unimodular)
from fanolab.periods import (KNOWN_SERIES, _complete_intersection_period,
                             _convolved_terms, _fibre_system,
                             _paired_constant_terms, _part_terms, _parts,
                             classical_period, known_series, period_stream,
                             periods_agree)
from period_oracle import iterated_power_period
from test_properties import gl


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


# -- both paths against the iterated-power reference ------------------------

coeffs = st.one_of(
    st.integers(-3, 3).filter(bool),
    st.sampled_from((1, -1)),
    st.sampled_from((Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2))),
    st.fractions(min_value=-3, max_value=3,
                 max_denominator=4).filter(bool))


@st.composite
def period_polys(draw):
    """Nonzero polynomials of rank 1-4: full, or on a line or plane through
    a shifted base point, so the Newton polytope may miss the origin.  Up
    to 2 * rank + 1 terms, so both sides of the rule rho <= r are drawn."""
    rank = draw(st.integers(1, 4))
    vec = st.tuples(*[st.integers(-2, 2)] * rank)
    if draw(st.booleans()):
        support = draw(st.lists(vec, min_size=1, max_size=2 * rank + 1))
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
        f = LaurentPolynomial(rank, {support[0]: draw(coeffs)})
    return f


def sums_over_relations(f):
    """Whether ``period_stream`` reads f's period as sums over its
    relation lattice rather than by pairing half powers."""
    return _fibre_system(f) is not None


@pytest.mark.parametrize("sums", [True, False])
def test_period_polys_draw_both_paths_in_rank_4(sums):
    find(period_polys(),
         lambda f: f.rank == 4 and sums_over_relations(f) == sums,
         settings=settings(max_examples=2000, database=None,
                           phases=[Phase.generate]))


@settings(max_examples=80, deadline=None)
@given(period_polys(), st.integers(0, 14))
def test_period_matches_iterated_powers(f, n):
    assert typed(classical_period(f, n)) == \
        typed(iterated_power_period(f, n))


@settings(max_examples=80, deadline=None)
@given(period_polys())
def test_streaming_reuses_prefix(f):
    terms = period_stream(f)
    first = tuple(islice(terms, 5))
    assert typed(first + tuple(islice(terms, 5))) == \
        typed(classical_period(f, 10))


# -- the fibre walk against the trial of every candidate point --------------

def walked_fibres(f, n_terms, monkeypatch):
    """ct(f^1), ..., ct(f^(n_terms - 1)) by ``periods._fibre_sums``, and
    the points at which it evaluated a multinomial, per k."""
    seen = []
    term = periods._multinomial_term

    def counted(fact, m, weighted):
        seen[-1].append(list(m))
        return term(fact, m, weighted)

    monkeypatch.setattr(periods, "_multinomial_term", counted)
    sums = periods._fibre_sums(f, *_fibre_system(f))
    out = []
    for _ in range(1, n_terms):
        seen.append([])
        out.append(next(sums))
    monkeypatch.undo()
    return out, seen


def assert_walk_matches_the_oracle(f, n_terms, monkeypatch):
    system = _fibre_system(f)
    got, seen = walked_fibres(f, n_terms, monkeypatch)
    oracle = period_oracle.fibre_sums(f, *system)
    assert typed(got) == typed([next(oracle) for _ in range(1, n_terms)])
    # the multinomial is evaluated at the fibre points and nowhere else
    assert seen == [list(period_oracle.fibre_points(f, *system, k))
                    for k in range(1, n_terms)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fibre_walk_matches_the_trial_oracle(data):
    f = data.draw(period_polys().filter(sums_over_relations))
    g = substitute_unimodular(f, data.draw(gl(f.rank)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        for h in (f, g):
            assert_walk_matches_the_oracle(h, 14, monkeypatch)


@pytest.mark.parametrize("text", [
    # rho = 1, no free coordinate: each fibre is one point or none
    "x + y + x^-1*y^-1",
    "x + 2*y + 1/(x^2*y)",
    # supports that miss the origin, with 0, 1, 2 and 2 free coordinates
    "x + x^2*y",
    "x + y + x^2*y^-1",
    "z*(x + 1/x + y + 1/y + 1)",
    "w*(x + 1/x + y + 1/y + z + 1/z)",
    # rational coefficients
    "1/2*x - 3*y + 2/3*x^-1*y^-1",
    "1/2*x + 1/x + y + 2/3*y^-1 + z - 3/4*z^-1",
    # the last free column has entries of both signs against pivots of 2
    "x + y + 1/x + 1/y + z + 1/(x*y*z)",
    # the last free coordinate steps by 2, 2 and 3
    "x^2*y^-1 + y + 1/x + 1/y",
    "x^3 + 1/x + y + 1/y",
    "x^2 + 1/x + y + 1/y + z + 1/z",
])
def test_fibre_walk_matches_the_trial_oracle_on_named_supports(text,
                                                               monkeypatch):
    f = parse_polynomial(text)
    assert sums_over_relations(f)
    assert_walk_matches_the_oracle(f, 30, monkeypatch)


def test_fibre_walk_zeros_of_the_projective_plane(monkeypatch):
    got, seen = walked_fibres(parse_polynomial("x + y + x^-1*y^-1"), 30,
                              monkeypatch)
    assert [k for k, c in enumerate(got, 1) if c] == list(range(3, 30, 3))
    assert [len(points) for points in seen] == [int(k % 3 == 0)
                                                for k in range(1, 30)]


def test_fibre_walk_evaluates_only_fibre_points(monkeypatch):
    # 80 octahedron terms have 11,479 fibre points among the 88,559
    # candidates of the full walk over the two free coordinates
    f = parse_polynomial("x + 1/x + y + 1/y + z + 1/z")
    _, seen = walked_fibres(f, 80, monkeypatch)
    assert sum(map(len, seen)) == 11479
    assert sum(len(list(period_oracle.bounded_points(2, k)))
               for k in range(1, 80)) == 88559


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


DP6 = "x + y + 1/x + 1/y + x*y + 1/(x*y)"


def test_periods_agree_stops_at_first_mismatch(monkeypatch):
    read = []  # per part stream, the number of terms taken from it
    part_terms = periods._part_terms

    def counted(h):
        read.append(0)
        index = len(read) - 1
        for c in part_terms(h):
            read[index] += 1
            yield c

    monkeypatch.setattr(periods, "_part_terms", counted)
    # once on each path and once split into parts: ct(f^2) = 2 and
    # ct(g^2) = 4, or 6 and 8 on the hexagon, or 3 and 5 with the constant
    # term, which makes a part of its own
    for f_text, g_text, sums in (("x + x^-1", "x + 2*x^-1", True),
                                 (DP6, "2*" + DP6, False),
                                 ("x + x^-1 + 1", "x + 2*x^-1 + 1", None)):
        f, g = parse_polynomial(f_text), parse_polynomial(g_text)
        if sums is None:
            assert len(_parts(f)) == len(_parts(g)) == 2
        else:
            assert len(_parts(f)) == len(_parts(g)) == 1
            assert sums_over_relations(f) == sums_over_relations(g) == sums
        read.clear()
        assert periods_agree(f, g, 10 ** 6) == (False, 2)
        # each part of each side gave ct(h^1) and ct(h^2), and no more
        assert read == [2] * (2 if sums is not None else 4)


@pytest.mark.parametrize("text, sums", [
    ("x + y + x^-1*y^-1", True),  # bench pf-p2: rho 1, r 2
    ("x + x^-1 + y + y^-1", True),  # pf-p1p1: rho 2, r 2
    ("x + y + z + x^-1*y^-1*z^-1", True),  # pf-p3: rho 1, r 3
    ("x + x^-1 + y + y^-1 + z + z^-1", True),  # pf-p1cubed: rho 3, r 3
    ("(x + y + 1)^3/(x*y*z) + z", False),  # period-cubic: rho 8, r 3
    ("(1 + x + y + z)^2/(x*y*z) + x + y + z", False),  # rho 10, r 3
])
def test_path_of_the_bench_mirrors(text, sums):
    assert sums_over_relations(parse_polynomial(text)) == sums


@pytest.mark.parametrize("text, sums", [
    ("x + y + x^-1*y^-1", [True]),  # one part
    ("x + x^-1 + y + y^-1", [True] * 2),  # two parts of rho 1, r 1
    ("x + y + z + x^-1*y^-1*z^-1", [True]),
    ("x + x^-1 + y + y^-1 + z + z^-1", [True] * 3),
    ("(x + y + 1)^3/(x*y*z) + z", [False]),
    ("(1 + x + y + z)^2/(x*y*z) + x + y + z", [False]),
    (DP6 + " + z + 1/z", [False, True]),  # rho 4, r 2 beside rho 1, r 1
])
def test_path_of_each_part_of_the_bench_mirrors(text, sums):
    assert [sums_over_relations(part)
            for part in _parts(parse_polynomial(text))] == sums


# -- the split into parts against the calculator without it ----------------

@st.composite
def direct_sums(draw):
    """A sum of 2 or 3 random polynomials in disjoint blocks of variables,
    of rank at most 4 in all, maybe with a constant term, mapped by a
    random GL(n, Z) matrix; and the number of its blocks with a nonzero
    exponent."""
    ranks = draw(st.lists(st.integers(1, 2), min_size=2, max_size=3)
                 .filter(lambda ranks: sum(ranks) <= 4))
    n = sum(ranks)
    pairs, blocks, start = [], 0, 0
    for rank in ranks:
        vec = st.tuples(*[st.integers(-2, 2)] * rank)
        support = draw(st.lists(vec, min_size=1, max_size=rank + 2,
                                unique=True))
        blocks += any(map(any, support))
        pairs += [((0,) * start + e + (0,) * (n - start - rank),
                   draw(coeffs)) for e in support]
        start += rank
    if draw(st.booleans()):
        pairs.append(((0,) * n, draw(coeffs)))
    f = LaurentPolynomial.from_terms(n, pairs)
    assume(not f.is_zero())
    return substitute_unimodular(f, draw(gl(n))), blocks


@settings(max_examples=100, deadline=None)
@given(direct_sums())
def test_split_matches_the_unsplit_oracle(sample):
    f, blocks = sample
    assert len(_parts(f)) >= blocks
    assert typed(classical_period(f, 14)) == \
        typed(period_oracle.unsplit_period(f, 14))


@pytest.mark.parametrize("text, parts", [
    ("x + 1/x + x*y + 1/(x*y)", ["x + x^-1", "x*y + x^-1*y^-1"]),
    # the circuits {x, 1/x} and {x, y, 1/(x*y)} share x
    ("x + 1/x + y + 1/(x*y)", ["x + y + x^-1 + x^-1*y^-1"]),
    ("x + 1/x + y", ["x + x^-1", "y"]),  # y is a coloop
    ("x + 1/x + 3", ["x + x^-1", "3"]),  # the constant term is a loop
    ("1/2*x + 3/x + y^2 + 1/y + 2", ["1/2*x + 3*x^-1", "y^2 + y^-1", "2"]),
    ("x + 1/x + y + 1/y + z + 1/z", ["x + x^-1", "y + y^-1", "z + z^-1"]),
    (DP6 + " + z + 1/z",
     ["x*y + x + y + y^-1 + x^-1 + x^-1*y^-1", "z + z^-1"]),
])
def test_parts_and_their_period(text, parts):
    f = parse_polynomial(text)
    assert sorted(map(str, _parts(f))) == sorted(parts)
    expect = typed(period_oracle.unsplit_period(f, 20))
    assert typed(classical_period(f, 20)) == expect
    assert expect == typed(iterated_power_period(f, 20))


def test_convolving_a_connected_support_gives_wrong_terms():
    # the parts' periods are 1, 0, 2, 0, 6, ... and 1, 0, 0, ..., so
    # their convolution misses ct(f^3) = 6
    f = parse_polynomial("x + 1/x + y + 1/(x*y)")
    wrong = _convolved_terms(
        _part_terms(
            LaurentPolynomial.from_terms(2, [((1, 0), 1), ((-1, 0), 1)])),
        _part_terms(
            LaurentPolynomial.from_terms(2, [((0, 1), 1), ((-1, -1), 1)])))
    assert [1] + [next(wrong) for _ in range(4)] == [1, 0, 2, 0, 6]
    assert list(classical_period(f, 5)) == [1, 0, 2, 6, 6]


stream_terms = st.one_of(st.just(0), st.integers(-10 ** 6, 10 ** 6))


@settings(max_examples=50, deadline=None)
@given(st.lists(stream_terms, min_size=1, max_size=200), st.data())
def test_convolution_matches_the_binomial_sum(g, data):
    # two streams of up to 200 terms, past what the unsplit oracle reaches
    h = data.draw(st.lists(stream_terms, min_size=len(g), max_size=len(g)))
    a, b = [1, *g], [1, *h]
    assert list(islice(_convolved_terms(iter(g), iter(h)), len(g))) == [
        sum(comb(k, j) * a[j] * b[k - j] for j in range(k + 1))
        for k in range(1, len(g) + 1)]


def test_split_of_two_hexagons_in_rank_4():
    f = parse_polynomial(DP6 + " + z + 1/z + w + 1/w + z*w + 1/(z*w)")
    assert [sums_over_relations(part) for part in _parts(f)] == [False] * 2
    hexagon = classical_period(parse_polynomial(DP6), 30)
    # two equal parts: ct(f^k) = sum of C(k, j) * c_j * c_(k - j)
    assert list(classical_period(f, 30)) == [
        sum(comb(k, j) * hexagon[j] * hexagon[k - j] for j in range(k + 1))
        for k in range(30)]


def test_long_projective_plane_series():
    f = parse_polynomial("x + y + 1/(x*y)")
    assert sums_over_relations(f)
    assert classical_period(f, 300) == known_series("projective-plane", 300)


def test_long_octahedron_series_matches_pairing():
    f = parse_polynomial("x + 1/x + y + 1/y + z + 1/z")
    assert sums_over_relations(f)
    paired = _paired_constant_terms(f)
    expect = [1] + [next(paired) for _ in range(79)]
    assert typed(classical_period(f, 80)) == typed(expect)


def test_periods_agree_mixed_arguments():
    f = parse_polynomial("x + y + x^-1*y^-1")
    p2 = known_series("projective-plane", 10)
    assert periods_agree(f, p2, 10) == (True, None)
    assert periods_agree(p2, f, 10) == (True, None)
    off = p2[:6] + (0,) * 4
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


# -- the reference series against their closed forms -----------------------

def _projective_plane(k):
    # nonzero only in degrees divisible by 3
    if k % 3:
        return 0
    m = k // 3
    return factorial(3 * m) // factorial(m) ** 3


def _quadric_surface_product(k):
    if k % 2:
        return 0
    return comb(k, k // 2) ** 2


def _cubic_threefold(k):
    if k % 2:
        return 0
    m = k // 2
    return factorial(2 * m) * factorial(3 * m) // factorial(m) ** 5


def _del_pezzo_4(k):
    # k! times the t^k coefficient of e^(-4t) * sum over d of
    # (2d)!^2 / d!^5 * t^d
    return sum(comb(k, d) * (-4) ** (k - d) * comb(2 * d, d) ** 2
               for d in range(k + 1))


CLOSED_FORMS = {
    "projective-plane": _projective_plane,
    "quadric-surface-product": _quadric_surface_product,
    "cubic-threefold": _cubic_threefold,
    "del-pezzo-4": _del_pezzo_4,
}


def test_known_series_closed_forms():
    assert sorted(KNOWN_SERIES) == sorted(CLOSED_FORMS)
    for tag, closed_form in CLOSED_FORMS.items():
        seq = known_series(tag, 60)
        assert typed(seq) == typed([closed_form(k) for k in range(60)])


@pytest.mark.parametrize("n_terms", [-1, -3])
def test_known_series_rejects_negative_term_count(n_terms):
    with pytest.raises(ValueError, match="n_terms must be >= 0"):
        known_series("projective-plane", n_terms)


def weak_lg_model(ambient, degrees):
    """Przyjalkowski's weak Landau-Ginzburg model of the complete
    intersection of the given degrees in P^ambient, as text:
    prod_j (x_{j,1} + ... + x_{j,a_j-1} + 1)^(a_j) / (prod x * prod y)
    + sum y over r - 1 variables y, minus prod a_j! when the Fano index r
    is 1.  The parser wants one indexed family, so x and y share it."""
    index = ambient + 1 - sum(degrees)
    names = iter(f"x{i}" for i in range(1, ambient + 1))
    xs = [[next(names) for _ in range(a - 1)] for a in degrees]
    ys = [next(names) for _ in range(index - 1)]
    numerator = "*".join(f"({' + '.join(group + ['1'])})^{a}"
                         for group, a in zip(xs, degrees)) or "1"
    denominator = "*".join(sum(xs, []) + ys)
    shift = prod(map(factorial, degrees)) if index == 1 else 0
    return f"{numerator}/({denominator})" + "".join(f" + {y}" for y in ys) \
        + (f" - {shift}" if shift else "")


def test_weak_lg_model_text():
    assert weak_lg_model(2, ()) == "1/(x1*x2) + x1 + x2"
    assert weak_lg_model(5, (2, 2)) == \
        "(x1 + 1)^2*(x2 + 1)^2/(x1*x2*x3) + x3"
    assert weak_lg_model(5, (2, 3)) == \
        "(x1 + 1)^2*(x2 + x3 + 1)^3/(x1*x2*x3) - 12"


COMPLETE_INTERSECTIONS = (
    (2, ()), (3, ()),
    (3, (2,)), (3, (3,)),
    (4, (2,)), (4, (3,)), (4, (4,)), (4, (2, 2)),
    (5, (2,)), (5, (3,)), (5, (2, 2)), (5, (2, 3)),
)


@pytest.mark.parametrize("ambient, degrees", COMPLETE_INTERSECTIONS,
                         ids=[f"P{n}-{'-'.join(map(str, d)) or 'plain'}"
                              for n, d in COMPLETE_INTERSECTIONS])
def test_complete_intersection_period_matches_weak_lg_model(ambient,
                                                            degrees):
    f = parse_polynomial(weak_lg_model(ambient, degrees))
    assert typed(classical_period(f, 10)) == \
        typed(_complete_intersection_period(ambient, degrees, 10))


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
    with pytest.raises(ValueError):
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
