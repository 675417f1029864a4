"""Rank-2 mutations by brute force.

``brute_force_mutations(f, bounds)`` tries every primitive weight w in a
box, not only the facet normals, whose height h = -min w(supp f) lies in
[1, w_max].  For each it tries every wall factor F of the class that
``enumerate_mutations`` states: at least two terms, nonnegative integer
coefficients with 1 at one end, and degree 1 to ``deg_max``.  F^h must
divide the slice f_-h, so F divides it, and each coefficient of F lies
within the Mignotte bound of that slice.  A candidate is checked by
multiplying back: F^|i| * q = f_i at every negative level i, with q from a
long division in one variable, and without ``exact_divide``,
``is_mutable`` or sympy.  It serves only as the oracle of rank-2
``complete``.

The box is |w_j| <= the width of supp(f) in each coordinate.  A slice of
one term is no F^h * q, whose Newton polytope is a Minkowski sum with two
vertices or more, so w is orthogonal to a difference e - e' of two
exponents of f and is +-(e'_1 - e_1, e_0 - e'_0) made primitive.

The enumeration of each degree k is pruned by one necessary condition: at
the least positive integer t0 where the slice's integer row g has
G = g(t0) != 0, F(t0) = sum a_j t0^j is an integer >= 2 with F(t0)^h
dividing G.  So F(t0) is one of finitely many s, the coefficients between
the ends are bounded by s, and the end that is not fixed at 1 follows from
s and the others.
"""

from fractions import Fraction
from itertools import product
from math import comb, gcd, isqrt, lcm

from fanolab.laurent import LaurentPolynomial
from fanolab.mutation import MutationData


def _row_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _row_divides(p, r):
    """Whether the row r (lowest entry nonzero) is p times a polynomial,
    found by long division from the top and multiplied back."""
    n = len(r) - len(p) + 1
    if n < 1:
        return False
    rem = [Fraction(x) for x in r]
    q = [0] * n
    for k in reversed(range(n)):
        q[k] = rem[k + len(p) - 1] / p[-1]
        for j, y in enumerate(p):
            rem[k + j] -= q[k] * y
    return _row_mul(p, q) == list(r)


def _slices(f, w, d):
    """Each level i of f under w, as its coefficient row read along d from
    its least term: level -> row."""
    by_level = {}
    for e, c in f.terms.items():
        level = w[0] * e[0] + w[1] * e[1]
        by_level.setdefault(level, {})[e[0] * d[0] + e[1] * d[1]] = c
    norm = d[0] ** 2 + d[1] ** 2
    rows = {}
    for level, along in by_level.items():
        low = min(along)
        row = [0] * ((max(along) - low) // norm + 1)
        for k, c in along.items():
            row[(k - low) // norm] = c
        rows[level] = row
    return rows


def _middles(budget, t0, caps):
    """Every (a_1, ..., a_(k-1)) with a_j <= caps[j - 1] and
    sum a_j t0^j <= budget."""
    if not caps:
        yield ()
        return
    j = len(caps)
    for a in range(min(budget // t0 ** j, caps[-1]) + 1):
        for rest in _middles(budget - a * t0 ** j, t0, caps[:-1]):
            yield rest + (a,)


def _candidates(g, h, k):
    """The coefficient rows of degree k in the class within the Mignotte
    bound of the integer row g whose value at t0 passes the prune."""
    t0 = next(t for t in range(1, len(g) + 1)
              if sum(c * t ** j for j, c in enumerate(g)))
    big = abs(sum(c * t0 ** j for j, c in enumerate(g)))
    norm2 = sum(c * c for c in g)
    caps = [isqrt(comb(k, j) ** 2 * norm2) for j in range(k + 1)]
    out = set()
    for s in range(2, big + 1):
        if big % s ** h:
            continue
        for mid in _middles(s - 1 - t0 ** k, t0, caps[1:-1]):
            inner = sum(a * t0 ** j for j, a in enumerate(mid, 1))
            top, left = divmod(s - 1 - inner, t0 ** k)
            if not left and 1 <= top <= caps[k]:  # a_0 = 1
                out.add((1,) + mid + (top,))
            bottom = s - t0 ** k - inner  # a_k = 1
            if 1 <= bottom <= caps[0]:
                out.add((bottom,) + mid + (1,))
    return out


def brute_force_mutations(f, bounds):
    """The keys of every mutation (w, F) of the rank-2 polynomial f in the
    stated class within the bounds."""
    terms = list(f.terms)
    width = max(max(e[i] for e in terms) - min(e[i] for e in terms)
                for i in range(2))
    keys = set()
    for w in product(range(-width, width + 1), repeat=2):
        if gcd(*w) != 1:
            continue
        h = -min(w[0] * e[0] + w[1] * e[1] for e in terms)
        if not 1 <= h <= bounds.w_max:
            continue
        d = (-w[1], w[0])
        rows = _slices(f, w, d)
        low = rows[-h]
        scale = lcm(*(Fraction(c).denominator for c in low))
        g = [int(c * scale) for c in low]
        for k in range(1, bounds.deg_max + 1):
            for cs in _candidates(g, h, k):
                powers, ok = [1], True
                for level in range(-1, -h - 1, -1):
                    powers = _row_mul(powers, cs)
                    if level in rows and not _row_divides(powers,
                                                          rows[level]):
                        ok = False
                        break
                if ok:
                    factor = LaurentPolynomial(2, {
                        (j * d[0], j * d[1]): a for j, a in enumerate(cs)})
                    keys.add(MutationData(w, factor).key)
    return keys
