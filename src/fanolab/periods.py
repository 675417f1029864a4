"""Classical period sequences of Laurent polynomials.

The classical period of f is the power series whose k-th coefficient is the
constant term of f^k.  No full power f^k is ever built: since
f^(a+b) = f^a * f^b, its constant term is the pairing

    ct(f^(a+b)) = sum over m of f^a[m] * f^b[-m],

which ``LaurentPolynomial.pair`` reads with one lookup per term of the
smaller half power.
``PeriodCalculator`` keeps lo = f^a, multiplies once to get hi = f^(a+1),
and pairs hi with lo and hi with itself for the constant terms of f^(2a+1)
and f^(2a+2).  So n terms cost powers only up to about f^(n/2), with two
powers alive at a time.  The pairing is exact for any rank, support and
rational coefficients, needs no bound on n up front, and the calculator
still streams: asking for more terms of the same polynomial reuses earlier
work.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial

from .laurent import LaurentPolynomial, ZeroPolynomialError


@dataclass(frozen=True)
class PeriodSequence:
    """The first ``len(coefficients)`` classical period coefficients."""

    coefficients: tuple

    def __getitem__(self, k):
        return self.coefficients[k]

    def __len__(self):
        return len(self.coefficients)

    def to_json_dict(self):
        return {"terms": [str(c) for c in self.coefficients]}


class PeriodCalculator:
    """Streams constant terms of successive powers of a fixed polynomial."""

    def __init__(self, f):
        if not isinstance(f, LaurentPolynomial):
            raise TypeError("expected a LaurentPolynomial")
        if f.is_zero():
            raise ZeroPolynomialError("classical period of 0 is undefined")
        self.f = f
        # invariant: _half = f^a and _coeffs holds ct(f^0) .. ct(f^(2a))
        self._half = LaurentPolynomial.one(f.rank)
        self._coeffs = [1]

    def coefficient(self, k):
        while len(self._coeffs) <= k:
            lo = self._half
            self._half = hi = lo * self.f
            self._coeffs.append(hi.pair(lo))
            self._coeffs.append(hi.pair(hi))
        return self._coeffs[k]

    def prefix(self, n_terms):
        if n_terms < 0:
            raise ValueError("n_terms must be >= 0")
        if n_terms:
            self.coefficient(n_terms - 1)
        return PeriodSequence(tuple(self._coeffs[:n_terms]))


def classical_period(f, n_terms):
    """First ``n_terms`` coefficients of the classical period of f."""
    return PeriodCalculator(f).prefix(n_terms)


def periods_agree(f, g, n_terms):
    """Compare two period sequences termwise.

    Either argument may be a LaurentPolynomial or a PeriodSequence covering
    at least ``n_terms`` terms.  Polynomials are expanded in lockstep, so a
    mismatch stops the work at its index.  Returns (True, None) on
    agreement, else (False, first_mismatch_index).  Raises ValueError when
    ``n_terms`` is negative.
    """
    if n_terms < 0:
        raise ValueError("n_terms must be >= 0")
    a = _term_source(f, n_terms)
    b = _term_source(g, n_terms)
    for k in range(n_terms):
        if a(k) != b(k):
            return False, k
    return True, None


def _term_source(obj, n_terms):
    """A function k -> k-th period coefficient of obj, for k < n_terms."""
    if isinstance(obj, PeriodSequence):
        if len(obj) < n_terms:
            raise ValueError(f"sequence has only {len(obj)} terms, "
                             f"need {n_terms}")
        return obj.coefficients.__getitem__
    if isinstance(obj, LaurentPolynomial):
        return PeriodCalculator(obj).coefficient
    raise TypeError("expected LaurentPolynomial or PeriodSequence")


# ---------------------------------------------------------------------------
# reference series


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
    # the intersection of two quadrics in P^4, by quantum Lefschetz: k! times
    # the t^k coefficient of e^(-4t) * sum over d of (2d)!^2 / d!^5 * t^d
    # (Coates-Corti-Galkin-Kasprzyk, arXiv:1303.3288)
    return sum(comb(k, d) * (-4) ** (k - d) * comb(2 * d, d) ** 2
               for d in range(k + 1))


KNOWN_SERIES = {
    "projective-plane": _projective_plane,
    "quadric-surface-product": _quadric_surface_product,
    "cubic-threefold": _cubic_threefold,
    "del-pezzo-4": _del_pezzo_4,
}


def known_series(tag, n_terms):
    """Reference period sequence for a named Fano variety."""
    try:
        gen = KNOWN_SERIES[tag]
    except KeyError:
        raise KeyError(f"unknown series tag {tag!r}; "
                       f"available: {sorted(KNOWN_SERIES)}") from None
    return PeriodSequence(tuple(gen(k) for k in range(n_terms)))
