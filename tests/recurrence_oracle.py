"""The recurrence fit without a modular screen: the reference loop.

``fit_recurrence`` runs the exact integer elimination on every (r, d)
system in the grading.  The library now skips the systems whose rank
modulo a prime is full, as their nullspace over Q is empty; this serves
only as its oracle.
"""

from fanolab.linalg import nullspace
from fanolab.recurrence import (PolynomialRecurrence, _normalize, _poly_trim,
                                verify_recurrence)


def fit_recurrence(terms, r_max=6, d_max=8):
    """Smallest recurrence fitting the series, or None, by an exact
    nullspace of every system in the grading."""
    if r_max < 1 or d_max < 0:
        raise ValueError("the order bound must be positive and the degree "
                         "bound nonnegative")
    terms = list(terms)
    n = len(terms)
    if n < r_max + 8:
        raise ValueError(f"fitting a recurrence of order up to {r_max} needs "
                         f"at least {r_max + 8} terms, got {n}")
    holdout = r_max + 5
    for total in range(1, r_max + d_max + 1):
        for r in range(1, min(r_max, total) + 1):
            d = total - r
            if d > d_max:
                continue
            fit_top = n - holdout
            if fit_top <= r:
                continue
            rows = [[terms[k - j] * k ** e
                     for j in range(r + 1) for e in range(d + 1)]
                    for k in range(r, fit_top)]
            if len(rows) < (r + 1) * (d + 1):
                continue
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
