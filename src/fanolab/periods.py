"""Classical period sequences of Laurent polynomials.

The classical period of f is the power series whose k-th coefficient is the
constant term of f^k.  No full power f^k is ever built.

``period_stream`` first splits f = f_1 + ... + f_m by the connected
components of the linear matroid of its exponent vectors: two terms share
a part when they lie in a common circuit, a minimal set of linearly
dependent exponents.  One ``rref`` of the exponent matrix shows those
circuits, as each free column forms one with the pivots where its reduced
entries are nonzero; a zero exponent, the constant term, is a loop and
forms a part of its own.  The spans of the parts are independent, so a
monomial of f_1^(k_1) ... f_m^(k_m) is constant only when each factor's
is, and

    ct(f^k) = sum over k_1 + ... + k_m = k of
              k! / (k_1! ... k_m!) * prod_i ct(f_i^(k_i)),

a binomial convolution of the parts' periods, as for the mirror of a
product of Fano varieties.  Each part streams its own period, and the
streams are folded left to right with one binary convolution, of two
streams at a time.  Each part takes the cheaper of two exact ways to read
its period.

* Sums over the relation lattice.  Write f = sum over j of c_j x^(e_j)
  with t terms, and let E be the n x t matrix of the exponents.  Then

      ct(f^k) = sum over m of k! / prod_j m_j! * prod_j c_j^(m_j),

  over the fibre {m in Z^t : m >= 0, E m = 0, sum of m = k} (Givental's
  formula; Coates-Corti-Galkin-Kasprzyk, arXiv:1303.3288).  The relations
  E m = 0 form a lattice of rank rho = t - r, with r the rank of E.  One
  ``rref`` of E beside the row of ones leaves rho - 1 free coordinates.
  All but the last are walked over their values with sum at most k; each
  pivot row then bounds the last one and fixes its residue class, so it
  runs over one arithmetic progression, and the pivots follow exactly.
  The multinomial is evaluated at fibre points only, about k^(rho - 1)
  of them for the k-th term.
* Pairing half powers.  Since f^(a+b) = f^a * f^b, the constant term is
  the pairing sum over m of f^a[m] * f^b[-m], which
  ``LaurentPolynomial.pair`` reads with one lookup per term of the smaller
  half power.  One multiplication takes lo = f^a to hi = f^(a+1), and hi
  paired with lo and with itself gives the constant terms of f^(2a+1) and
  f^(2a+2).  The half power near f^(k/2) has about k^r terms.

So the sums win when rho <= r, as for the toric mirrors of Fano manifolds
of small Picard rank, and pairing wins when a part has many terms for its
dimension.  The split lowers both costs, as each part has its own rho and
r: the octahedron (rho = r = 3) is three parts of rho = r = 1, each with
at most one fibre point per term.  Every way is exact for any support and
rational coefficients, needs no bound on n up front, and streams: reading
on from a held stream reuses earlier work, and each part computes only as
far as the terms read.  The sums hold no power of f, and pairing holds two
half powers of its part at a time.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain, count, islice
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul

from .laurent import LaurentPolynomial, ZeroPolynomialError, _norm_coeff
from .linalg import rref


def period_stream(f):
    """An iterator over the classical period ct(f^0), ct(f^1), ... of a
    nonzero Laurent polynomial f.  Reading on from where a reader stopped
    reuses the work done so far."""
    if not isinstance(f, LaurentPolynomial):
        raise TypeError("expected a LaurentPolynomial")
    if f.is_zero():
        raise ZeroPolynomialError("classical period of 0 is undefined")
    return chain([1], reduce(_convolved_terms, map(_part_terms, _parts(f))))


def _parts(f):
    """f split by the connected components of the linear matroid of its
    exponent vectors, as polynomials in order of their first terms."""
    items = list(f.terms.items())
    rows, pivots = rref([[e[i] for e, _ in items] for i in range(f.rank)])
    blocks = [{p} for p in pivots]
    for j in range(len(items)):
        if j in pivots:
            continue
        # the circuit of a free column, or the loop {j} of a zero column
        joined = {j, *(p for row, p in zip(rows, pivots) if row[j])}
        for block in [b for b in blocks if not b.isdisjoint(joined)]:
            joined |= block
            blocks.remove(block)
        blocks.append(joined)
    return [LaurentPolynomial._from_clean(
                f.rank, dict(items[j] for j in sorted(block)))
            for block in sorted(blocks, key=min)]


def _part_terms(f):
    """The stream ct(f^1), ct(f^2), ... of one part f, read as sums over
    its relation lattice or by pairing half powers."""
    system = _fibre_system(f)
    return (_paired_constant_terms(f) if system is None
            else _fibre_sums(f, *system))


def _convolved_terms(g, h):
    """Yield ct(f^1), ct(f^2), ... for f = f_1 + f_2, given the streams g
    and h of f_1 and f_2, whose exponent spans are independent: the
    binomial convolution of their periods.  Each stream is read one term
    per term yielded, and Pascal's rule takes the binomials of k - 1 to
    those of k."""
    a, b = [1], [1]  # ct(f_1^j) and ct(f_2^j) for j <= k
    row = [1]  # comb(k, j) for j <= k
    for k in count(1):
        a.append(next(g))
        b.append(next(h))
        row = [1, *map(add, row, row[1:]), 1]
        yield _norm_coeff(sum(c * x * b[k - j] for j, (c, x)
                              in enumerate(zip(row, a)) if x and b[k - j]))


def _fibre_system(f):
    """The reduced rows and pivots of [E | 0] over [1 ... 1 | 1], with E
    the exponent matrix of f, when its relation lattice has rank rho at
    most r = rank E; else None.  The row of ones has a 1 in the last
    column, where E has none, so the rank of the system is r + 1."""
    exponents = list(f.terms)
    rows, pivots = rref([[e[i] for e in exponents] + [0]
                         for i in range(f.rank)]
                        + [[1] * (len(exponents) + 1)])
    r = len(rows) - 1
    return (rows, pivots) if len(exponents) - r <= r else None


def _fibre_sums(f, rows, pivots):
    """Yield ct(f^1), ct(f^2), ... as sums over the fibres of the relation
    lattice, given the reduced system of ``_fibre_system``.

    The free coordinates but the last, u, are walked over their points
    with sum at most k; the last one, v, is solved from the pivot rows,
    which fix its range and its residue class, so the multinomial is
    evaluated at fibre points only."""
    coeffs = list(f.terms.values())
    t = len(coeffs)
    free = [j for j in range(t) if j not in pivots]
    walked = free[:-1]
    # row . (m, -k) = 0 solves d * m_p = b * k - a . u - e * v for the
    # pivot p of each row, with d = row[p] > 0 and b = row[t]; e = 0 when
    # there is no free coordinate, and v is then pinned to 0.  A pivot in
    # the last column is the row (0 ... 0 | 1), which says k = 0, as the
    # support lies on a hyperplane that misses the origin: it enters as
    # m_p = -k, which empties every fibre past k = 0.  m is kept with the
    # pivots first and the free coordinates after them.
    solve = [(row[p], row[t] if p < t else -1, [row[j] for j in walked],
              row[free[-1]] if free else 0)
             for row, p in zip(rows, pivots)]
    # d divides b * k - a . u - e * v for v in one class modulo
    # d / gcd(e, d), or for none, so the fibre's values of v step by the
    # lcm of those moduli
    step = lcm(*(d // gcd(e, d) for d, _, _, e in solve))
    # a row without free coordinates decides k alone
    fixed = [(d, b) for d, b, a, e in solve if not (e or any(a))]
    weighted = [(i, coeffs[j]) for i, j in enumerate(pivots + free)
                if j < t and coeffs[j] != 1]
    fact = [1]
    for k in count(1):
        fact.append(fact[-1] * k)
        total = 0
        walk = (_bounded_points(len(walked), k)
                if all(b * k >= 0 and b * k % d == 0 for d, b in fixed)
                else ())
        for u in walk:
            # v >= 0, the coordinate sum is at most k, and m_p >= 0 bounds
            # v above where e > 0 and below where e < 0
            lo, hi = 0, k - sum(u) if free else 0
            rhs = []
            for d, b, a, e in solve:
                c = b * k - sum(map(mul, a, u))
                if e > 0:
                    hi = min(hi, c // e)
                elif e < 0:
                    lo = max(lo, -(c // -e))
                elif c < 0:
                    hi = -1
                rhs.append(c)
            first = next((v for v in range(lo, min(hi + 1, lo + step))
                          if all((c - e * v) % d == 0
                                 for c, (d, _, _, e) in zip(rhs, solve))),
                         None)
            if first is None:
                continue
            for v in range(first, hi + 1, step):
                m = [(c - e * v) // d for c, (d, _, _, e) in zip(rhs, solve)]
                m += u
                if free:
                    m.append(v)
                total += _multinomial_term(fact, m, weighted)
        yield _norm_coeff(total)


def _multinomial_term(fact, m, weighted):
    """k! / prod_j m_j! * prod_j c_j^(m_j) at the fibre point m of sum k,
    given fact = [0!, ..., k!] and the pairs (j, c_j) with c_j != 1."""
    return (fact[-1] // prod(fact[x] for x in m)
            * prod(c ** m[i] for i, c in weighted))


def _bounded_points(dim, bound):
    """An iterator over the points of N^dim with coordinate sum at most
    ``bound``."""
    if dim <= 1:
        return zip(range(bound + 1)) if dim else iter([()])
    return ((x, *rest) for x in range(bound + 1)
            for rest in _bounded_points(dim - 1, bound - x))


def _paired_constant_terms(f):
    """Yield ct(f^1), ct(f^2), ... by pairing hi = f^(a+1) with lo = f^a
    and with itself."""
    hi = LaurentPolynomial.one(f.rank)
    while True:
        lo = hi  # drops the older half power before the product is built
        hi = lo * f
        yield hi.pair(lo)
        yield hi.pair(hi)


def classical_period(f, n_terms):
    """First ``n_terms`` coefficients of the classical period of f, as a
    tuple."""
    terms = period_stream(f)
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    return tuple(islice(terms, n_terms))


def periods_agree(f, g, n_terms):
    """Compare two period sequences termwise.

    Either argument may be a LaurentPolynomial or a tuple of at least
    ``n_terms`` coefficients.  Polynomials are expanded in lockstep, so a
    mismatch stops the work at its index.  Returns (True, None) on
    agreement, else (False, first_mismatch_index).  Raises ValueError when
    ``n_terms`` is negative.
    """
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    streams = []
    for obj in (f, g):
        if isinstance(obj, LaurentPolynomial):
            obj = period_stream(obj)
        elif not isinstance(obj, tuple):
            raise TypeError("expected LaurentPolynomial or tuple")
        elif len(obj) < n_terms:
            raise ValueError(f"sequence has only {len(obj)} terms, "
                             f"need {n_terms}")
        streams.append(islice(obj, n_terms))
    for k, (a, b) in enumerate(zip(*streams)):
        if a != b:
            return False, k
    return True, None


# ---------------------------------------------------------------------------
# reference series
#
# Each tag names a complete intersection of degrees a_j in P^N, as
# (N, degrees).  By quantum Lefschetz (Givental, IMRN 1996; Coates-Corti-
# Galkin-Kasprzyk, arXiv:1303.3288) its regularized quantum period has k-th
# term k! times the t^k coefficient of
#
#     e^(-ct) * sum over d of prod_j (d a_j)! / d!^(N+1) * t^(dr),
#
# with Fano index r = N + 1 - sum a_j, and c = prod a_j! if r = 1, else 0.

KNOWN_SERIES = {
    "projective-plane": (2, ()),
    "quadric-surface-product": (3, (2,)),  # the quadric in P^3 is P^1 x P^1
    "cubic-threefold": (4, (3,)),
    "del-pezzo-4": (4, (2, 2)),
}


def _complete_intersection_period(ambient, degrees, n_terms):
    index = ambient + 1 - sum(degrees)
    shift = prod(map(factorial, degrees)) if index == 1 else 0
    # as r + sum a_j = N + 1, h_d = (dr)! prod_j (d a_j)! / d!^(N+1) is a
    # product of multinomial coefficients, so every term is an int
    h = [prod(factorial(d * a) // factorial(d) ** a for a in (index, *degrees))
         for d in range(n_terms // index + 1)]
    if not shift:
        return tuple(0 if k % index else h[k // index] for k in range(n_terms))
    return tuple(sum(comb(k, d) * (-shift) ** (k - d) * h[d]  # r = 1
                     for d in range(k + 1)) for k in range(n_terms))


def known_series(tag, n_terms):
    """Reference period sequence for a named Fano variety.  An unknown tag
    or a negative n_terms raises ValueError."""
    if tag not in KNOWN_SERIES:
        raise ValueError(f"unknown series tag {tag!r}; "
                         f"available: {sorted(KNOWN_SERIES)}")
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    return _complete_intersection_period(*KNOWN_SERIES[tag], n_terms)
