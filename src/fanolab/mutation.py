"""Mutations of Laurent polynomials.

A mutation is determined by a primitive weight w (an integer covector) and a
factor F supported on the hyperplane w = 0.  Writing f as a sum of w-graded
slices f = sum_i f_i with w(supp f_i) = i, the mutation replaces f_i by
f_i * F^i; for negative i this requires F^|i| to divide f_i exactly in the
Laurent ring.  Results are only well defined up to the shear action of
w^perp, so everything is reported shear-canonicalized; for the same reason
F matters only up to a monomial on the wall, and ``MutationData`` translates
it to a canonical position.

``is_mutable`` slices f once and its witness keeps every slice, so
``mutate`` reads the witness instead of slicing or dividing again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, product, repeat
from operator import add, index, mul, sub

from .laurent import (LaurentPolynomial, ZeroPolynomialError, _clean,
                      factor_powers)
from .linalg import (_integer_row, complete_to_basis_last_row, is_primitive,
                     primitive_part)
from .polytopes import newton_polytope
from .recurrence import _poly_mul


class InvalidWeightError(ValueError):
    pass


class InvalidFactorError(ValueError):
    pass


def __getattr__(name):
    # sympy is imported on first use, because only factoring needs it and
    # the import is most of the package's start-up time; reading
    # ``fanolab.mutation.sympy`` from outside imports it too
    if name == "sympy":
        return _sympy()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _sympy():
    """The module global ``sympy``, imported when first read."""
    global sympy
    if "sympy" not in globals():
        import sympy
    return sympy


def check_weight(w, rank):
    w = tuple(map(index, w))
    if len(w) != rank:
        raise InvalidWeightError(f"weight has length {len(w)}, expected {rank}")
    if all(x == 0 for x in w):
        raise InvalidWeightError("weight must be nonzero")
    if not is_primitive(w):
        raise InvalidWeightError(f"weight {w} is not primitive")
    return w


def weight_value(w, e):
    return sum(map(mul, w, e))


def weight_decomposition(f, w):
    """Slices of f by w-level, as a sorted list of (level, slice)."""
    if f.is_zero():
        raise ZeroPolynomialError("cannot decompose the zero polynomial")
    w = check_weight(w, f.rank)
    return [(i, LaurentPolynomial._from_clean(f.rank, t))
            for i, t in sorted(_level_slices(f, w).items())]


def _level_slices(f, w):
    """The terms of f by w-level, as a map level -> term map."""
    slices = {}
    for e, c in f.terms.items():
        slices.setdefault(weight_value(w, e), {})[e] = c
    return slices


@dataclass(frozen=True)
class MutationData:
    """A validated mutation (w, F): w primitive, supp(F) on the w = 0 wall.

    The factor is translated on construction so that its lex-least exponent
    is the origin.  A translate of F along the wall only shears the
    mutation, so this changes no shear-canonical result, and equal
    mutations get equal ``key``s.
    """

    weight: tuple
    factor: LaurentPolynomial

    def __post_init__(self):
        w = check_weight(self.weight, self.factor.rank)
        object.__setattr__(self, "weight", w)
        if self.factor.is_zero():
            raise InvalidFactorError("factor must be nonzero")
        off = [e for e in self.factor.terms if weight_value(w, e)]
        if off:
            raise InvalidFactorError(
                f"factor term x^{min(off)} is not on the wall w = 0")
        base = min(self.factor.terms)
        if any(base):
            object.__setattr__(self, "factor",
                               self.factor.shift(tuple(-x for x in base)))

    @property
    def key(self):
        """The weight and the sorted factor terms: equal for equal data."""
        return self.weight, tuple(sorted(self.factor.terms.items()))

    def inverse(self):
        return MutationData(tuple(-x for x in self.weight), self.factor)


# ---------------------------------------------------------------------------
# exact division in the Laurent ring


def exact_divide(g, d):
    """Quotient g / d in the Laurent ring, or None when d does not divide g.

    Greedy cancellation of the lex-largest term, with a Newton-polytope
    bounding-box guard so failures terminate.  A quotient coefficient is
    an int when the remainder term is an int that the int leading
    coefficient divides, and a Fraction otherwise.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if g.is_zero():
        return LaurentPolynomial.zero(g.rank)
    n = g.rank
    gs, ds = g.terms, d.terms
    # an empty box (lo_i > hi_i) fails the box test at the first term
    lo = tuple(min(e[i] for e in gs) - min(e[i] for e in ds) for i in range(n))
    hi = tuple(max(e[i] for e in gs) - max(e[i] for e in ds) for i in range(n))
    lead = max(d.terms)
    lead_c = d.terms[lead]
    lead_int = type(lead_c) is int
    rem = dict(g.terms)
    quot = {}
    while rem:
        e = max(rem)
        m = tuple(a - b for a, b in zip(e, lead))
        if any(x < a or x > b for x, a, b in zip(m, lo, hi)):
            return None
        c = rem[e]
        if lead_int and type(c) is int and not c % lead_c:
            c //= lead_c
        else:
            c = Fraction(c) / lead_c
        quot[m] = c
        for de, dc in d.terms.items():
            key = tuple(a + b for a, b in zip(m, de))
            new = rem.get(key, 0) - c * dc
            if new:
                rem[key] = new
            else:
                rem.pop(key, None)
    return LaurentPolynomial._from_clean(n, _clean(quot))


# ---------------------------------------------------------------------------
# mutability and mutation


@dataclass(frozen=True)
class MutationWitness:
    """Every w-slice of f, by ascending level: the exact quotient
    f_i / F^|i| at each negative level i, and f_i itself at the others."""

    data: MutationData
    quotients: tuple  # of (level, LaurentPolynomial)


@dataclass(frozen=True)
class NotMutable:
    data: MutationData
    failing_level: int


def is_mutable(f, data):
    """Check divisibility of every negative w-slice of f by the matching
    power of the factor; returns a MutationWitness or a NotMutable with the
    first failing level."""
    slices = weight_decomposition(f, data.weight)
    needed = [-i for i, _ in reversed(slices) if i < 0]
    fpow = dict(zip(needed, factor_powers(data.factor, needed)))
    for k, (i, piece) in enumerate(slices):
        if i >= 0:
            break
        q = exact_divide(piece, fpow[-i])
        if q is None:
            return NotMutable(data, i)
        slices[k] = (i, q)
    return MutationWitness(data, tuple(slices))


def mutate(f, data, witness=None, bases=None):
    """Apply the mutation, returning the shear-canonicalized result.

    Raises ValueError when f is not mutable by ``data``.  ``bases`` is
    passed on to ``canonicalize_shear``.
    """
    if witness is None:
        witness = is_mutable(f, data)
    if isinstance(witness, NotMutable):
        raise ValueError(
            f"not mutable: slice at level {witness.failing_level} is not "
            f"divisible by the required power of the factor")
    # F lies on the wall, so f_i * F^i stays at level i: the levels of the
    # result are disjoint and fill one term map
    terms = {}
    powers = factor_powers(data.factor,
                           [i for i, _ in witness.quotients if i > 0])
    for i, piece in witness.quotients:
        terms.update((piece * next(powers) if i > 0 else piece).terms)
    return canonicalize_shear(LaurentPolynomial._from_clean(f.rank, terms),
                              data.weight, bases)


# ---------------------------------------------------------------------------
# shears


def canonicalize_shear(f, w, bases=None):
    """Deterministic representative of f modulo shears along w.

    Read in the coordinates e -> T e of ``complete_to_basis_last_row(w)``,
    whose last entry is the w-level: the anchor slice is the nonzero level
    l of least |l| (ties to the negative side), and the shear is fixed by
    reducing the lex-least T-image of that slice into the box
    [0, |l|)^(n-1).  That shear is (s', 0) in T-coordinates, so f is
    sheared by T^-1 (s', 0); no other exponent is moved into T-coordinates.
    One pass slices f's terms by level, and each slice is sheared by its
    own level.  T^-1 (s', 0) lies on the wall by construction, so the
    shear needs no check.  ``bases`` holds the completions (T, T^-1) by
    validated weight; a search that shears many polynomials passes one
    dict to every call, and a call without one completes w afresh.
    """
    w = check_weight(w, f.rank)
    slices = _level_slices(f, w)
    l0 = min((l for l in slices if l), key=lambda l: (abs(l), l),
             default=None)
    if l0 is None:
        return f
    if bases is None:
        bases = {}
    if w not in bases:
        bases[w] = complete_to_basis_last_row(w)
    t, t_inv = bases[w]
    anchor = min(tuple(weight_value(row, e) for row in t[:-1])
                 for e in slices[l0])
    shear = tuple(-(a // l0) if l0 > 0 else a // -l0 for a in anchor)
    # zip stops at the n-1 entries of s', skipping the last column of T^-1
    s = tuple(weight_value(row, shear) for row in t_inv)
    terms = {}
    for l, piece in slices.items():
        d = tuple(l * b for b in s)
        terms.update((tuple(map(add, e, d)), c) for e, c in piece.items())
    return LaurentPolynomial._from_clean(f.rank, terms)


def shear_equivalent(f, g, w):
    return canonicalize_shear(f, w) == canonicalize_shear(g, w)


# ---------------------------------------------------------------------------
# enumeration


@dataclass(frozen=True)
class MutationBounds:
    w_max: int = 12
    deg_max: int = 6

    def __post_init__(self):
        if self.w_max < 1 or self.deg_max < 1:
            raise ValueError("bounds must be positive")


@dataclass(frozen=True)
class EnumerationResult:
    """Mutations found within the bounds, with the witnesses proving them.

    ``witnesses`` holds one MutationWitness per mutation, sorted by weight
    and factor; ``seeds`` is their MutationData in the same order, and
    ``mutate(f, seed, witness)`` reuses a witness instead of dividing again.
    ``complete`` is True only when the search provably saw every mutation
    within the bounds (the two-variable edge search); the higher-rank search
    is a heuristic candidate sweep and is always reported as partial.
    """

    witnesses: tuple
    complete: bool

    @property
    def seeds(self):
        return tuple(witness.data for witness in self.witnesses)


def enumerate_mutations(f, bounds=None, memo=None):
    """Mutations of f within the bounds, one Newton-polytope facet at a time.

    The weight is the facet's inner normal u, at height c in [1, w_max]; the
    factors come from the minimal slice, the terms at level -c: from its
    factorization in rank 2, where it is an edge, and from ``factor_sweep``
    in higher rank.  Every candidate has at least two terms and is checked
    by ``is_mutable`` once, as no two share a ``MutationData`` key: facets
    have distinct normals, an edge's divisors are distinct rows read from
    its lex-least end, and ``factor_sweep`` yields one chain per
    translation class of bases, 0/1 binomials and trinomials none of which
    is a perfect power, so no two bases share a power.  Each rank-2 divisor
    is a chain of its own; a higher-rank power chain stops at its first
    candidate that is not mutable, because no higher power of that base is
    (see ``factor_sweep``).  ``memo`` holds the rank-2 edge divisors by
    coefficient row (see ``_edge_factors``); a search that enumerates many
    polynomials passes one dict to every call, and a call without one
    starts its own.
    """
    if bounds is None:
        bounds = MutationBounds()
    if memo is None:
        memo = {}
    if f.rank == 1:
        raise InvalidWeightError("mutations need at least two variables")
    p = newton_polytope(f)
    p.require_full_dim()
    witnesses = []
    for (u, c) in p.facets:
        if c < 1 or c > bounds.w_max:
            continue
        # a facet of a full-dimensional Newton polytope holds >= rank terms
        low = {e: a for e, a in f.terms.items() if weight_value(u, e) == -c}
        if f.rank == 2:
            chains = [[factor] for factor in
                      _edge_factors(low, c, bounds.deg_max, memo)]
        else:
            diffs = sorted({tuple(b - a for a, b in zip(s0, s1))
                            for s0 in low for s1 in low if s0 != s1})
            chains = factor_sweep(diffs, bounds.deg_max)
        for chain in chains:
            for factor in chain:
                witness = is_mutable(f, MutationData(u, factor))
                if isinstance(witness, NotMutable):
                    break
                witnesses.append(witness)
    witnesses.sort(key=lambda witness: witness.data.key)
    return EnumerationResult(tuple(witnesses), f.rank == 2)


def _edge_factors(edge, mult, deg_max, memo):
    """Candidate factors F with F^mult dividing a rank-2 edge slice.

    ``edge`` maps the slice's exponents to coefficients.  Read along the
    primitive edge direction d from its lex-least end, the slice is a
    polynomial in t, cleared of denominators.  Its candidate divisors
    depend on nothing else, so they are found once per ``(row, mult,
    deg_max)`` key of ``memo`` by ``_edge_divisors``, as coefficient rows
    in t, and each is built along d here.  Read from the far end along -d,
    the same divisor is x^(-deg D * d) * D, a translate that
    ``MutationData`` makes equal to D, so one reading suffices.
    """
    base, top = min(edge), max(edge)
    d = primitive_part(tuple(b - a for a, b in zip(base, top)))
    i = next(i for i, x in enumerate(d) if x)
    row = [0] * ((top[i] - base[i]) // d[i] + 1)
    for e, c in edge.items():
        row[(e[i] - base[i]) // d[i]] = c
    key = (tuple(_integer_row(row)), mult, deg_max)
    if key not in memo:
        memo[key] = _edge_divisors(*key)
    return [LaurentPolynomial._from_clean(2, {
        (k * d[0], k * d[1]): c for k, c in enumerate(cs) if c})
        for cs in memo[key]]


def _edge_divisors(row, mult, deg_max):
    """The divisors D of an integer polynomial with D^mult dividing it, as
    coefficient rows in t, ascending.

    ``row`` lists the coefficients by ascending power of t.  One
    ``factor_list`` over the integers gives primitive p_j of multiplicity
    m_j with positive leading coefficients.  Each D = prod p_j^k_j with
    k_j * mult <= m_j and 1 <= deg D <= deg_max is kept when its
    coefficients are nonnegative and its constant or leading coefficient is
    1.  Those are the divisors with nonnegative integer coefficients once
    scaled to 1 at either end: D is primitive, so D / a is integral only
    for a = +-1, and a = -1 negates the leading coefficient.
    """
    sympy = _sympy()
    _, factors = sympy.factor_list(sympy.Poly(row[::-1], sympy.Symbol("t")))
    powers = []  # per factor, p^k in t for each k allowed
    for p, m in factors:
        along = tuple(int(c) for c in reversed(p.all_coeffs()))
        top = min(m // mult, deg_max // p.degree())
        powers.append(accumulate(repeat(along, top), _poly_mul,
                                 initial=(1,)))
    divisors = []
    for choice in product(*powers):
        cs = reduce(_poly_mul, choice)
        if (1 <= len(cs) - 1 <= deg_max and min(cs) >= 0
                and 1 in (cs[0], cs[-1])):
            divisors.append(cs)
    return divisors


def factor_sweep(diffs, deg_max):
    """Higher-rank factor candidates from sorted distinct nonzero exponents,
    as one lazy power chain per base, up to translation.

    The bases are each binomial 1 + x^d and then the trinomials
    1 + x^d + x^d' with d' > d, each built from its support translated so
    that its lex-least point is the origin; a base whose translated
    support was yielded before is skipped.  The chain of a translate gives
    translates of the same powers, which ``MutationData`` maps to the same
    keys, and both stop rules below read a chain only up to translation.
    The chain of a base B yields B, B^2, ... while the degree (terms minus
    one, times the power) stays within ``deg_max``, and multiplies only
    when asked for the next power.  B has constant term 1 and positive
    coefficients, so B^k divides B^(k+1) and supp(B^k) lies in
    supp(B^(k+1)).  A caller may therefore stop a chain at its first
    failing power, by either rule:

    - if (w, B^k) is not mutable, neither is (w, B^(k+1)), because
      B^(k|i|) divides B^((k+1)|i|) at every level i;
    - if no translate of supp(B^(k*h)) fits in a face, no translate of
      supp(B^((k+1)*h)) does.
    """
    seen = set()
    for i, d1 in enumerate(diffs):
        origin = (0,) * len(d1)
        for support in [(origin, d1)] + [(origin, d1, d2)
                                         for d2 in diffs[i + 1:]]:
            low = min(support)
            support = tuple(sorted(tuple(map(sub, e, low)) for e in support))
            if support in seen:
                continue
            seen.add(support)
            base = LaurentPolynomial._from_clean(len(d1),
                                                 dict.fromkeys(support, 1))
            top = deg_max // (len(support) - 1)
            yield factor_powers(base, range(1, top + 1))
