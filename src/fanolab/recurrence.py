"""Fitting linear recurrences with polynomial coefficients to period series.

A recurrence of order r and coefficient degree d is a relation

    q_0(k) c_k + q_1(k) c_{k-1} + ... + q_r(k) c_{k-r} = 0   for k >= r

with each q_j an integer polynomial.  Fitting is a graded exact nullspace
search over (r, d); the tail of the input is held back from the fit and
used to screen spurious solutions.  Almost every system of the search has
full column rank, so each is first reduced modulo one fixed prime: rank
modulo a prime is at most the rank over Q, so full rank there proves the
nullspace over Q empty, and only the other systems are eliminated exactly.
A fitted recurrence converts to a differential operator in D = t d/dt
annihilating the generating series.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from .laurent import _format_terms
from .linalg import (_integer_row, full_column_rank_mod, nullspace,
                     primitive_part)

# the prime of fit_recurrence's rank screen
_SCREEN_PRIME = 2 ** 31 - 1

# -- dense univariate polynomials in k, ascending coefficients ---------------


def _poly_trim(p):
    while p and p[-1] == 0:
        p = p[:-1]
    return tuple(p)


def _poly_eval(p, x):
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return _poly_trim(out)


def _poly_shift(p, s):
    """The polynomial p(k + s): its k^j coefficient is the sum over i >= j
    of C(i, j) s^(i - j) p_i, by the binomial theorem."""
    return _poly_trim([sum(comb(i, j) * s ** (i - j) * c
                           for i, c in enumerate(p[j:], j))
                       for j in range(len(p))])


def _poly_terms(p):
    """p as the term map that ``_format_terms`` prints, in one variable."""
    return {(i,): c for i, c in enumerate(p) if c}


# ---------------------------------------------------------------------------


class PolynomialRecurrence(namedtuple(
        "PolynomialRecurrence", "order degree coefficients initial_terms")):
    """Normalized relation sum_j q_j(k) c_{k-j} = 0 valid for k >= order.

    ``coefficients`` holds q_0 .. q_order as integer tuples (ascending
    powers of k) with overall content 1 and the leading coefficient of the
    first nonzero q_j (q_0 whenever it is nonzero) positive.  The first
    ``order`` series terms are kept so the boundary behaviour of the
    matching differential operator can be decided later.
    """

    __slots__ = ()

    def check(self, k, terms):
        """Value of the relation at index k against the given terms."""
        return sum(_poly_eval(q, k) * terms[k - j]
                   for j, q in enumerate(self.coefficients) if k - j >= 0)

    def to_string(self):
        parts = [f"({_format_terms(_poly_terms(q), 'k')})*"
                 + (f"c[k-{j}]" if j else "c[k]")
                 for j, q in enumerate(self.coefficients) if q]
        return " + ".join(parts) + " = 0"


def _normalize(qs):
    """The q_j over their common content, trimmed, and signed so that the
    first nonzero q_j has a positive leading coefficient."""
    flat = iter(primitive_part([c for q in qs for c in q]))
    ints = [_poly_trim([next(flat) for _ in q]) for q in qs]
    if next((q[-1] for q in ints if q), 0) < 0:
        ints = [tuple(-c for c in q) for q in ints]
    return tuple(ints)


def fit_recurrence(terms, r_max=6, d_max=8):
    """Smallest recurrence fitting the series, or None.

    The search is graded by order + degree (ties to the smaller order).
    The last r_max + 5 terms never enter the linear system; a candidate is
    accepted only when it checks against every supplied term.  Raises
    ValueError unless r_max >= 1 and d_max >= 0, and when there are fewer
    than r_max + 8 terms: the smallest system, order 1 and degree 0, needs
    its two equations, at k = 1 and 2, before the held-back terms.

    Each system is screened before its exact elimination.  The terms,
    times the lcm of their denominators (which leaves every nullspace as
    it is), are reduced once modulo ``_SCREEN_PRIME``; a system whose rows
    reach full column rank modulo that prime has full rank over Q, as
    reduction cannot raise the rank, so it has no recurrence and is
    skipped.  Only the other systems are built over the integers, so the
    screen never drops a recurrence that the exact fit accepts.
    """
    if r_max < 1 or d_max < 0:
        raise ValueError("the order bound must be positive and the degree "
                         "bound nonnegative")
    terms = list(terms)
    n = len(terms)
    if n < r_max + 8:
        raise ValueError(f"fitting a recurrence of order up to {r_max} needs "
                         f"at least {r_max + 8} terms, got {n}")
    fit_top = n - r_max - 5  # the rest is held back
    p = _SCREEN_PRIME
    residues = [c % p for c in _integer_row(terms)]
    powers = [[pow(k, e, p) for e in range(d_max + 1)] for k in range(n)]
    for total in range(1, r_max + d_max + 1):
        for r in range(1, min(r_max, total) + 1):
            d = total - r
            if d > d_max or fit_top - r < (r + 1) * (d + 1):
                continue
            if full_column_rank_mod(
                    ([residues[k - j] * powers[k][e]
                      for j in range(r + 1) for e in range(d + 1)]
                     for k in range(r, fit_top)), (r + 1) * (d + 1), p):
                continue
            rows = [[terms[k - j] * k ** e
                     for j in range(r + 1) for e in range(d + 1)]
                    for k in range(r, fit_top)]
            for vec in nullspace(rows):
                qs = [tuple(vec[j * (d + 1):(j + 1) * (d + 1)])
                      for j in range(r + 1)]
                if not _poly_trim(qs[0]):
                    continue
                rec = PolynomialRecurrence(r, d, _normalize(qs),
                                           tuple(terms[:r]))
                ok, _ = verify_recurrence(rec, terms)
                if ok:
                    return rec
    return None


def verify_recurrence(rec, terms):
    """Check the relation at every index it covers.

    Returns (True, None) or (False, first failing index).
    """
    for k in range(rec.order, len(terms)):
        if rec.check(k, terms) != 0:
            return False, k
    return True, None


# ---------------------------------------------------------------------------
# differential operators


class DifferentialOperator(namedtuple("DifferentialOperator",
                                      "coefficients")):
    """Operator sum_j t^j p_j(D) with D = t d/dt, p_j integer polynomials;
    ``coefficients`` holds p_0 .. p_m as ascending coefficient tuples."""

    __slots__ = ()

    def apply_to_series(self, terms):
        """Coefficients of the image of sum c_k t^k, same length as input."""
        out = []
        for k in range(len(terms)):
            out.append(sum(_poly_eval(p, k - j) * terms[k - j]
                           for j, p in enumerate(self.coefficients)
                           if j <= k))
        return out

    def annihilates(self, terms):
        return all(v == 0 for v in self.apply_to_series(terms))

    def to_string(self):
        parts = []
        for j, p in enumerate(self.coefficients):
            if not p:
                continue
            terms = _poly_terms(p)
            body = _format_terms(terms, "D")
            if j == 0:
                parts.append(f"({body})" if len(terms) > 1 else body)
            else:
                t = "t" if j == 1 else f"t^{j}"
                parts.append(f"{t}*({body})")
        return " + ".join(parts) if parts else "0"

    def to_recurrence(self, initial_terms=()):
        """The recurrence satisfied by any series the operator annihilates."""
        qs = [_poly_shift(p, -j) for j, p in enumerate(self.coefficients)]
        r = len(qs) - 1
        d = max((len(q) - 1 for q in qs if q), default=0)
        return PolynomialRecurrence(r, d, _normalize(qs),
                                    tuple(initial_terms[:r]))


def to_differential_operator(rec):
    """Differential operator annihilating every series obeying the
    recurrence with the stored initial terms.

    The raw operator sum_j t^j q_j(D + j) enforces the relation only from
    index ``order`` on; for each earlier index where the truncated relation
    misses zero, the whole relation is multiplied by (k - k0), which
    annihilates that coefficient without disturbing the rest.
    """
    qs = [list(q) for q in rec.coefficients]
    if len(rec.initial_terms) < rec.order:
        raise ValueError("recurrence is missing its initial terms")
    for k0 in range(rec.order):
        residue = sum(_poly_eval(qs[j], k0) * rec.initial_terms[k0 - j]
                      for j in range(k0 + 1))
        if residue != 0:
            qs = [list(_poly_mul(tuple(q), (-k0, 1))) for q in qs]
    ps = [_poly_shift(_poly_trim(q), j) for j, q in enumerate(qs)]
    while ps and not ps[-1]:
        ps.pop()
    return DifferentialOperator(tuple(ps))
