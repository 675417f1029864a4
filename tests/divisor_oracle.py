"""The edge divisors through Laurent polynomials in one variable.

``laurent_edge_divisors`` builds each factor of the row as a rank-1
``LaurentPolynomial``, takes its powers with ``factor_powers``, multiplies
each choice of powers with the Laurent kernel and reads the coefficient
row back off the product.  ``mutation._edge_divisors`` multiplies the
coefficient rows of the factors that ``integer_factors`` lists directly;
this serves only as its oracle.
"""

from functools import reduce
from itertools import product
from operator import mul

import sympy

from fanolab.laurent import LaurentPolynomial, factor_powers


def integer_factors(row):
    """The irreducible factors of the integer polynomial with ascending
    coefficient row ``row``, with their multiplicities, as ``factor_list``
    gives them: (ascending row, multiplicity) pairs."""
    _, factors = sympy.factor_list(sympy.Poly(row[::-1], sympy.Symbol("t")))
    return [(tuple(int(c) for c in reversed(p.all_coeffs())), m)
            for p, m in factors]


def laurent_edge_divisors(row, mult, deg_max):
    """The divisors D of the integer polynomial with ascending coefficient
    row ``row`` with D^mult dividing it, of degree 1 to ``deg_max``, with
    positive coefficients and 1 at either end, as ascending rows."""
    _, factors = sympy.factor_list(sympy.Poly(row[::-1], sympy.Symbol("t")))
    powers = []  # per factor, (degree, p^k in t) for each k allowed
    for p, m in factors:
        along = LaurentPolynomial._from_clean(1, {
            (k,): int(c) for k, c in enumerate(reversed(p.all_coeffs())) if c})
        ks = range(min(m // mult, deg_max // p.degree()) + 1)
        powers.append(list(zip([k * p.degree() for k in ks],
                               factor_powers(along, ks))))
    divisors = []
    for choice in product(*powers):
        degree = sum(deg for deg, _ in choice)
        if 1 <= degree <= deg_max:
            cs = reduce(mul, [power for deg, power in choice if deg]).terms
            if min(cs.values()) > 0 and 1 in (cs[(0,)], cs[(degree,)]):
                divisors.append(tuple(cs.get((k,), 0)
                                      for k in range(degree + 1)))
    return divisors
