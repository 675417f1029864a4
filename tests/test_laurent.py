from fractions import Fraction

import pytest

from fanolab.laurent import (LaurentPolynomial, NotUnimodularError,
                             ParseError, RankMismatchError,
                             ZeroPolynomialError, exponent_lattice_index,
                             format_polynomial, parse_polynomial,
                             substitute_unimodular)


def test_parse_simple():
    f = parse_polynomial("x + y + x^-1*y^-1")
    assert f.rank == 2
    assert f.coefficient((1, 0)) == 1
    assert f.coefficient((0, 1)) == 1
    assert f.coefficient((-1, -1)) == 1
    assert f.coefficient((5, 5)) == 0


def test_parse_numbered_variables():
    f = parse_polynomial("x1*x2^2 - 3*x3")
    assert f.rank == 3
    assert f.coefficient((1, 2, 0)) == 1
    assert f.coefficient((0, 0, 1)) == -3


def test_parse_rational_coefficient():
    f = parse_polynomial("1/2*x + 3*y")
    assert f.coefficient((1, 0)) == Fraction(1, 2)


def test_parse_parenthesized_power_and_division():
    f = parse_polynomial("(x+y+1)^3/(x*y*z) + z")
    assert f.rank == 3
    assert f.coefficient((-1, -1, -1)) == 1
    assert f.coefficient((0, 0, -1)) == 6  # the x*y cross term of the cube
    assert f.coefficient((0, 0, 1)) == 1


def test_variable_order_xyzw_before_alphabetical():
    # x, y, z, w keep their absolute slots so formatting round-trips
    f = parse_polynomial("z + x")
    assert f.rank == 3
    assert f.coefficient((1, 0, 0)) == 1
    assert f.coefficient((0, 0, 1)) == 1
    g = parse_polynomial("b + a")
    assert g.coefficient((1, 0)) == 1  # other letters are alphabetical


def test_format_round_trip():
    text = "x^2*y^-1 - 3*x + 1/2"
    f = parse_polynomial(text)
    assert parse_polynomial(format_polynomial(f)) == f


def test_format_zero_and_signs():
    assert format_polynomial(LaurentPolynomial.zero(2)) == "0"
    f = parse_polynomial("-x + y")
    assert format_polynomial(f) == "-x + y"


def test_parse_errors():
    for bad in ["", "x +", "x^", "(x", "x/(y+1)", "x**2"]:
        with pytest.raises(ParseError):
            parse_polynomial(bad)


def test_bad_character_is_refused_before_the_variable_set():
    # the variable set is read off the tokens, so a character that does
    # not tokenize is found first
    for text, position in (("x1 + y $", 7), ("3 $", 2)):
        with pytest.raises(ParseError) as info:
            parse_polynomial(text)
        assert str(info.value) == \
            f"unexpected character '$' (at position {position})"
    with pytest.raises(ParseError, match="inconsistent variable set"):
        parse_polynomial("x1 + y")
    with pytest.raises(ParseError, match="constant polynomial"):
        parse_polynomial("3")


def test_arithmetic_exact():
    f = parse_polynomial("x + 1")
    g = f * f * f
    assert g == parse_polynomial("x^3 + 3*x^2 + 3*x + 1")
    assert (g - g).is_zero()
    assert f ** 0 == LaurentPolynomial.one(1)


def test_cancellation_drops_terms():
    f = parse_polynomial("x + y")
    g = parse_polynomial("x - y")
    assert (f + g) == parse_polynomial("2*x", rank_hint=2)
    assert (0, 1) not in (f + g).terms


def test_substitute_unimodular():
    f = parse_polynomial("x + y + x^-1*y^-1")
    g = substitute_unimodular(f, ((1, 1), (0, 1)))
    assert sorted(g.support()) == sorted([(1, 0), (1, 1), (-2, -1)])
    with pytest.raises(NotUnimodularError):
        substitute_unimodular(f, ((2, 0), (0, 1)))
    with pytest.raises(RankMismatchError):
        substitute_unimodular(f, ((1,),))


def test_exponent_lattice_index():
    g = parse_polynomial("x*y + y*x^-1 + x^-1*y^-1 + x*y^-1")
    assert exponent_lattice_index(g) == (2, 2)
    f = parse_polynomial("x + y + x^-1*y^-1")
    assert exponent_lattice_index(f) == (2, 1)
    h = parse_polynomial("x + x^-1")  # rank-1 sublattice of Z^1... full
    assert exponent_lattice_index(h) == (1, 1)
    low = parse_polynomial("x*y + x^-1*y^-1")
    assert exponent_lattice_index(low) == (1, None)


def test_json_round_trip():
    f = parse_polynomial("1/3*x^2*y^-5 - 7")
    assert LaurentPolynomial.from_json_dict(f.to_json_dict()) == f


def test_zero_polynomial_guards():
    from fanolab.periods import classical_period
    with pytest.raises(ZeroPolynomialError):
        classical_period(LaurentPolynomial.zero(2), 5)


def test_products_with_zero_are_zero():
    f = parse_polynomial("x + y + x^-1*y^-1")
    zero = LaurentPolynomial.zero(2)
    assert f * zero == zero and zero * f == zero
    assert f.scale(0) == zero and f.scale(Fraction(0)) == zero
    # the parser multiplies by an empty term map
    assert parse_polynomial("0*x") == LaurentPolynomial.zero(1)
    assert parse_polynomial("0*x + y") == parse_polynomial("y")


def test_comparison_with_a_number_is_false():
    f = parse_polynomial("x")
    assert (f == 3) is False and (f != 3) is True
    assert (LaurentPolynomial.one(1) == 1) is False


def test_trailing_whitespace_is_skipped():
    assert parse_polynomial("x + y  ") == parse_polynomial("x + y")
    assert parse_polynomial("x + 1/x \t\n") == parse_polynomial("x + x^-1")
