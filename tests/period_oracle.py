"""Three references for ``fanolab.periods``: every power built in turn,
the period without the split into parts, and the relation-lattice sums by
trial of every candidate point.

``iterated_power_period`` reads the constant terms of f^0, f^1, ..., each
power one product from the last.

``unsplit_period`` reads the period of the whole of f by the sums or by
pairing, chosen by the rho and r of f itself, as the library did before
it split f by the components of its exponent matroid; it serves as the
oracle of that split.

``fibre_points`` walks every point of the free coordinates with sum at
most k, solves each pivot coordinate by one ``divmod`` and keeps the points
whose pivots are non-negative integers; ``fibre_sums`` adds the
multinomial terms over them.  The library now walks all but the
last free coordinate and solves that one from its range and residue class,
so it meets only fibre points; this serves only as its oracle.
"""

from itertools import count, islice
from math import prod
from operator import mul

from fanolab import periods
from fanolab.laurent import LaurentPolynomial, _norm_coeff


def iterated_power_period(f, n_terms):
    """Constant terms of f^0, f^1, ..., f^(n_terms - 1), each power one
    product from the last."""
    power, out = LaurentPolynomial.one(f.rank), []
    for k in range(n_terms):
        if k:
            power = power * f
        out.append(power.constant_term())
    return out


def unsplit_period(f, n_terms):
    """The first ``n_terms`` period coefficients of f, read from the whole
    of f without splitting it into parts."""
    terms = periods._part_terms(f)
    return [1, *islice(terms, n_terms - 1)] if n_terms else []


def fibre_sums(f, rows, pivots):
    """Yield ct(f^1), ct(f^2), ... as sums over the fibres of the relation
    lattice, given the reduced system of ``periods._fibre_system``."""
    coeffs = list(f.terms.values())
    t = len(coeffs)
    free = [j for j in range(t) if j not in pivots]
    weighted = [(i, coeffs[j]) for i, j in enumerate(pivots + free)
                if j < t and coeffs[j] != 1]
    fact = [1]
    for k in count(1):
        fact.append(fact[-1] * k)
        total = 0
        for m in fibre_points(f, rows, pivots, k):
            total += (fact[k] // prod(fact[x] for x in m)
                      * prod(c ** m[i] for i, c in weighted))
        yield _norm_coeff(total)


def fibre_points(f, rows, pivots, k):
    """The points m of the fibre over k, as lists with the pivot
    coordinates first and the free ones after them, in the lexicographic
    order of their free coordinates."""
    t = len(f.terms)
    if t in pivots:
        # the row (0 ... 0 | 1): the support lies on a hyperplane that
        # misses the origin, so no fibre past k = 0 has a point
        return
    free = [j for j in range(t) if j not in pivots]
    # row . (m, -k) = 0 solves m_p = (row[t] * k - sum of row[j] * m_j
    # over the free j) / row[p], for the pivot p > 0 of each row
    solve = [(row[p], row[t], [row[j] for j in free])
             for row, p in zip(rows, pivots)]
    for u in bounded_points(len(free), k):
        m = []
        for d, b, a in solve:
            q, rem = divmod(b * k - sum(map(mul, a, u)), d)
            if rem or q < 0:
                break
            m.append(q)
        else:
            yield m + list(u)


def bounded_points(dim, bound):
    """An iterator over the points of N^dim with coordinate sum at most
    ``bound``."""
    if dim <= 1:
        return zip(range(bound + 1)) if dim else iter([()])
    return ((x, *rest) for x in range(bound + 1)
            for rest in bounded_points(dim - 1, bound - x))
