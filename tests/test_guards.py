"""Refusals that no other test reaches: each guard raises its own exception
type, not merely some ValueError, an exponent or weight entry that is not
an integer raises TypeError instead of being truncated, and input nested
past what Python's stack holds ends the CLI process with one error line."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from fanolab.laurent import (PARSE_NESTING_CAP, LaurentPolynomial, ParseError,
                             RankMismatchError, ZeroPolynomialError,
                             exponent_lattice_index, parse_polynomial,
                             substitute_unimodular)
from fanolab.linalg import complete_to_basis_last_row, hnf_rows, nullspace
from fanolab.mmlp import CoefficientSpace, coefficient_space
from fanolab.mutation import (InvalidFactorError, InvalidWeightError,
                              MutationData, canonicalize_shear,
                              enumerate_mutations, exact_divide, is_mutable,
                              weight_decomposition)
from fanolab.periods import period_stream
from fanolab.polytopes import (LatticePolytope, OriginNotInteriorError,
                               dual_polytope, newton_polytope)

F = parse_polynomial("x + y + 1/(x*y)")
ZERO = LaurentPolynomial.zero(2)
SEED = MutationData((2, -1), parse_polynomial("1 + x*y^2"))
# the origin is a vertex of this triangle
CORNER = LatticePolytope.from_points([(0, 0), (1, 0), (0, 1)])
# its dual has the vertex (1/2, 0)
LONG = newton_polytope(parse_polynomial("x^2 + y + 1/(x*y)"))


def set_rank():
    F.rank = 3


def nested(depth):
    return "(" * depth + "x" + ")" * depth


GUARDS = {
    "coefficient-of-a-short-exponent":
        (RankMismatchError, lambda: F.coefficient((1,))),
    "negative-power": (ValueError, lambda: F ** -1),
    "setting-an-attribute": (AttributeError, set_rank),
    "exponent-lattice-of-zero":
        (ZeroPolynomialError, lambda: exponent_lattice_index(ZERO)),
    "nullspace-of-no-rows-without-ncols": (ValueError, lambda: nullspace([])),
    "basis-completion-of-a-non-primitive-weight":
        (ValueError, lambda: complete_to_basis_last_row((2, 4))),
    "member-of-an-empty-space":
        (ValueError, CoefficientSpace(CORNER, (), (), (), True).member),
    "coefficient-space-with-the-origin-on-the-boundary":
        (OriginNotInteriorError, lambda: coefficient_space(CORNER, ())),
    "weight-decomposition-of-zero":
        (ZeroPolynomialError, lambda: weight_decomposition(ZERO, (1, 0))),
    "is-mutable-on-zero":
        (ZeroPolynomialError, lambda: is_mutable(ZERO, SEED)),
    "enumerate-mutations-of-zero":
        (ZeroPolynomialError, lambda: enumerate_mutations(ZERO)),
    "enumerate-mutations-in-rank-1":
        (InvalidWeightError,
         lambda: enumerate_mutations(parse_polynomial("x + 1/x"))),
    "mutation-data-with-a-zero-factor":
        (InvalidFactorError, lambda: MutationData((1, 0), ZERO)),
    "exact-divide-by-zero": (ZeroDivisionError, lambda: exact_divide(F, ZERO)),
    "period-of-a-string": (TypeError, lambda: period_stream("x")),
    "polytope-of-no-points":
        (ValueError, lambda: LatticePolytope.from_points([])),
    "polytope-of-mixed-dimensions":
        (ValueError, lambda: LatticePolytope.from_points([(0, 0), (1, 0, 0)])),
    "newton-polytope-of-zero":
        (ZeroPolynomialError, lambda: newton_polytope(ZERO)),
    "lattice-polytope-of-a-non-integral-dual":
        (ValueError, dual_polytope(LONG).to_lattice_polytope),
    "parentheses-nested-past-the-cap":
        (ParseError, lambda: parse_polynomial(nested(PARSE_NESTING_CAP + 1))),
}


@pytest.mark.parametrize("kind, call", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_exception_type(kind, call):
    with pytest.raises(kind) as raised:
        call()
    assert type(raised.value) is kind


class Index:
    """An integer-like value that is not an int: it has ``__index__``."""

    def __index__(self):
        return 1


# each entry point, given one exponent or weight entry x
INTEGER_ENTRIES = {
    "laurent-polynomial": lambda x: LaurentPolynomial(2, {(x, 0): 1}),
    "from-terms": lambda x: LaurentPolynomial.from_terms(2, [((x, 0), 1)]),
    "shift": lambda x: F.shift((x, 0)),
    "substitute-unimodular":
        lambda x: substitute_unimodular(F, ((x, 0), (0, 1))),
    "from-points":
        lambda x: LatticePolytope.from_points([(x, 0), (0, 1), (-1, -1)]),
    "mutation-data": lambda x: MutationData((x, 0), parse_polynomial("1 + y")),
    "weight-decomposition": lambda x: weight_decomposition(F, (x, 0)),
    "canonicalize-shear": lambda x: canonicalize_shear(F, (x, 0)),
    "hnf-rows": lambda x: hnf_rows([[x, 0], [0, 1]]),
    "complete-to-basis": lambda x: complete_to_basis_last_row((x, 0)),
}


@pytest.mark.parametrize("bad", [1.0, 1.5, Fraction(1), Fraction(3, 2)],
                         ids=["float-1", "float-1.5", "fraction-1",
                              "fraction-3/2"])
@pytest.mark.parametrize("call", INTEGER_ENTRIES.values(),
                         ids=INTEGER_ENTRIES.keys())
def test_a_non_integer_entry_is_refused(call, bad):
    with pytest.raises(TypeError):
        call(bad)


@pytest.mark.parametrize("good", [1, True, Index()],
                         ids=["int", "bool", "index"])
@pytest.mark.parametrize("call", INTEGER_ENTRIES.values(),
                         ids=INTEGER_ENTRIES.keys())
def test_an_integer_like_entry_is_read_as_an_int(call, good):
    assert call(good) == call(1)


def test_parentheses_nested_to_the_cap_parse():
    assert parse_polynomial(nested(PARSE_NESTING_CAP)) == parse_polynomial("x")


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("argv, cache_text", [
    (["period", nested(300)], None),
    (["period", '{"n": ' + "[" * 1000 + "]" * 1000 + "}"], None),
    (["period", "x"], "[" * 5000 + "]" * 5000),
], ids=["text", "json", "cache"])
def test_deep_nesting_ends_the_process_with_one_error_line(
        tmp_path, argv, cache_text):
    if cache_text is not None:
        cache = tmp_path / "cache.json"
        cache.write_text(cache_text)
        argv = ["--cache", str(cache)] + argv
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-m", "fanolab.cli", *argv],
                         env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 1 and out.stdout == ""
    assert len(out.stderr.splitlines()) == 1
    assert out.stderr.startswith("error:") and "Traceback" not in out.stderr
