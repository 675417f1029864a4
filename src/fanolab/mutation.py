"""Mutations of Laurent polynomials.

A mutation is determined by a primitive weight w (an integer covector) and a
factor F supported on the hyperplane w = 0.  Writing f as a sum of w-graded
slices f = sum_i f_i with w(supp f_i) = i, the mutation replaces f_i by
f_i * F^i; for negative i this requires F^|i| to divide f_i exactly in the
Laurent ring.  Results are only well defined up to the shear action of
w^perp, so everything is reported shear-canonicalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .laurent import LaurentPolynomial, ZeroPolynomialError
from .linalg import (complete_to_basis_last_row, is_primitive, primitive_part,
                     unimodular_inverse)
from .polytopes import newton_polytope


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
    w = tuple(int(x) for x in w)
    if len(w) != rank:
        raise InvalidWeightError(f"weight has length {len(w)}, expected {rank}")
    if all(x == 0 for x in w):
        raise InvalidWeightError("weight must be nonzero")
    if not is_primitive(w):
        raise InvalidWeightError(f"weight {w} is not primitive")
    return w


def weight_value(w, e):
    return sum(a * b for a, b in zip(w, e))


def weight_decomposition(f, w):
    """Slices of f by w-level, as a sorted list of (level, slice)."""
    if f.is_zero():
        raise ZeroPolynomialError("cannot decompose the zero polynomial")
    w = check_weight(w, f.rank)
    slices = {}
    for e, c in f.terms.items():
        slices.setdefault(weight_value(w, e), {})[e] = c
    return [(i, LaurentPolynomial(f.rank, t))
            for i, t in sorted(slices.items())]


@dataclass(frozen=True)
class MutationData:
    """A validated mutation (w, F): w primitive, supp(F) on the w = 0 wall."""

    weight: tuple
    factor: LaurentPolynomial

    def __post_init__(self):
        w = check_weight(self.weight, self.factor.rank)
        object.__setattr__(self, "weight", w)
        if self.factor.is_zero():
            raise InvalidFactorError("factor must be nonzero")
        for e in self.factor.support():
            if weight_value(w, e) != 0:
                raise InvalidFactorError(
                    f"factor term x^{e} is not on the wall w = 0")

    def canonical(self):
        """Translate the factor so its lex-least exponent is the origin."""
        base = min(self.factor.support())
        if all(x == 0 for x in base):
            return self
        shifted = self.factor.shift(tuple(-x for x in base))
        return MutationData(self.weight, shifted)

    def inverse(self):
        return MutationData(tuple(-x for x in self.weight), self.factor)


# ---------------------------------------------------------------------------
# exact division in the Laurent ring


def exact_divide(g, d):
    """Quotient g / d in the Laurent ring, or None when d does not divide g.

    Greedy cancellation of the lex-largest term, with a Newton-polytope
    bounding-box guard so failures terminate.
    """
    if d.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    if g.is_zero():
        return LaurentPolynomial.zero(g.rank)
    n = g.rank
    gs, ds = g.support(), d.support()
    lo = tuple(min(e[i] for e in gs) - min(e[i] for e in ds) for i in range(n))
    hi = tuple(max(e[i] for e in gs) - max(e[i] for e in ds) for i in range(n))
    if any(a > b for a, b in zip(lo, hi)):
        return None
    lead = max(d.terms)
    lead_c = d.terms[lead]
    rem = dict(g.terms)
    quot = {}
    while rem:
        e = max(rem)
        m = tuple(a - b for a, b in zip(e, lead))
        if any(x < a or x > b for x, a, b in zip(m, lo, hi)):
            return None
        c = Fraction(rem[e]) / Fraction(lead_c)
        quot[m] = c
        for de, dc in d.terms.items():
            key = tuple(a + b for a, b in zip(m, de))
            new = rem.get(key, 0) - c * dc
            if new:
                rem[key] = new
            else:
                rem.pop(key, None)
    return LaurentPolynomial.from_terms(n, quot.items())


# ---------------------------------------------------------------------------
# mutability and mutation


def factor_powers(factor, exponents):
    """Yield F^k for each k of an ascending sequence of exponents k >= 0.

    One multiplication per step up to the largest k.  Only the latest power
    is kept, so a caller that needs several at once holds them itself.
    """
    power, done = LaurentPolynomial.one(factor.rank), 0
    for k in exponents:
        for _ in range(done, k):
            power = power * factor
        done = k
        yield power


@dataclass(frozen=True)
class MutationWitness:
    """Exact quotients f_i / F^|i| for every negative level i."""

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
    if f.is_zero():
        raise ZeroPolynomialError("cannot mutate the zero polynomial")
    quotients = []
    slices = weight_decomposition(f, data.weight)
    needed = [-i for i, _ in reversed(slices) if i < 0]
    fpow = dict(zip(needed, factor_powers(data.factor, needed)))
    for i, piece in slices:
        if i >= 0:
            continue
        q = exact_divide(piece, fpow[-i])
        if q is None:
            return NotMutable(data, i)
        quotients.append((i, q))
    return MutationWitness(data, tuple(quotients))


def mutate(f, data, witness=None):
    """Apply the mutation, returning the shear-canonicalized result.

    Raises ValueError when f is not mutable by ``data``.
    """
    if witness is None:
        witness = is_mutable(f, data)
    if isinstance(witness, NotMutable):
        raise ValueError(
            f"not mutable: slice at level {witness.failing_level} is not "
            f"divisible by the required power of the factor")
    g = LaurentPolynomial.zero(f.rank)
    quot = dict(witness.quotients)
    slices = weight_decomposition(f, data.weight)
    powers = factor_powers(data.factor, [i for i, _ in slices if i > 0])
    for i, piece in slices:
        if i < 0:
            g = g + quot[i]
        elif i == 0:
            g = g + piece
        else:
            g = g + piece * next(powers)
    return canonicalize_shear(g, data.weight)


# ---------------------------------------------------------------------------
# shears


def apply_shear(f, w, s):
    """The shear of f by s in w^perp: each exponent e moves by w(e) * s."""
    w = check_weight(w, f.rank)
    s = tuple(int(x) for x in s)
    if weight_value(w, s) != 0:
        raise InvalidFactorError(f"shear vector {s} is not on the wall w = 0")
    acc = {}
    for e, c in f.terms.items():
        lev = weight_value(w, e)
        acc[tuple(a + lev * b for a, b in zip(e, s))] = c
    return LaurentPolynomial(f.rank, acc)


def canonicalize_shear(f, w):
    """Deterministic representative of f modulo shears along w.

    Works in coordinates where the last exponent entry is the w-level: the
    anchor slice is the nonzero level of least |level| (ties to the negative
    side), and the shear is fixed by reducing the lex-least exponent of that
    slice into the box [0, |level|)^(n-1).
    """
    if f.is_zero():
        return f
    w = check_weight(w, f.rank)
    n = f.rank
    t = complete_to_basis_last_row(w)
    g = f.apply_matrix(t)
    levels = sorted({e[-1] for e in g.terms if e[-1] != 0},
                    key=lambda l: (abs(l), l))
    if not levels:
        return f
    l0 = levels[0]
    anchor = min(e for e in g.terms if e[-1] == l0)
    shear = tuple(-(anchor[j] // l0) if l0 > 0 else anchor[j] // (-l0)
                  for j in range(n - 1))
    # in sliced coordinates a shear moves (u, l) to (u + l*s, l)
    acc = {}
    for e, c in g.terms.items():
        acc[tuple(e[j] + e[-1] * shear[j] for j in range(n - 1)) + (e[-1],)] = c
    back = unimodular_inverse(t)
    return LaurentPolynomial(n, acc).apply_matrix(back)


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
    """Mutations found within the bounds.

    ``complete`` is True only when the search provably saw every mutation
    within the bounds (the two-variable edge search); the higher-rank search
    is a heuristic candidate sweep and is always reported as partial.
    """

    seeds: tuple
    complete: bool
    bounds: MutationBounds


def enumerate_mutations(f, bounds=None, extra_factors=()):
    if bounds is None:
        bounds = MutationBounds()
    if f.is_zero():
        raise ZeroPolynomialError("cannot mutate the zero polynomial")
    if f.rank == 1:
        raise InvalidWeightError("mutations need at least two variables")
    if f.rank == 2:
        seeds = _enumerate_rank2(f, bounds, extra_factors)
        return EnumerationResult(tuple(seeds), True, bounds)
    seeds = _enumerate_higher(f, bounds, extra_factors)
    return EnumerationResult(tuple(seeds), False, bounds)


def _trailing_normalized(q):
    """Scale a sympy univariate Poly so its trailing coefficient is 1, and
    return the coefficient list (ascending) when all entries are nonnegative
    integers; otherwise None."""
    sympy = _sympy()
    coeffs = list(reversed(q.all_coeffs()))  # ascending
    trail = next(c for c in coeffs if c != 0)
    out = []
    for c in coeffs:
        v = sympy.Rational(c) / trail
        if v < 0 or not v.is_integer:
            return None
        out.append(int(v))
    return out


def _line_factor_candidates(slice_poly, base, direction, mult, deg_max):
    """Factor candidates along a lattice direction of an edge slice.

    ``base`` is the endpoint of the slice from which ``direction`` points
    into it.  ``mult`` is the power of the factor that must divide the
    slice.  Yields ascending integer coefficient lists with trailing
    coefficient 1.
    """
    coeffs = {}
    for e, c in slice_poly.terms.items():
        diff = tuple(a - b for a, b in zip(e, base))
        k = next((diff[i] // direction[i] for i in range(len(direction))
                  if direction[i] != 0))
        coeffs[k] = c
    sympy = _sympy()
    t = sympy.Symbol("t")
    expr = sum(sympy.Rational(c) * t ** k for k, c in coeffs.items())
    _, factors = sympy.factor_list(sympy.Poly(expr, t))
    factors = [(p, m) for p, m in factors if p.degree() > 0]
    # all exponent tuples with e_j * mult <= m_j
    def rec(idx, current, degree):
        if idx == len(factors):
            if degree > 0:
                coeff_list = _trailing_normalized(current)
                if coeff_list is not None:
                    yield coeff_list
            return
        p, m = factors[idx]
        top = m // mult
        for e in range(top + 1):
            nd = degree + e * p.degree()
            if nd > deg_max:
                break
            yield from rec(idx + 1, current * p ** e if e else current, nd)
    yield from rec(0, sympy.Poly(1, t), 0)


def _enumerate_rank2(f, bounds, extra_factors):
    """Every mutation of a two-variable polynomial within the bounds.

    A usable weight must have a non-monomial minimal slice, which in rank 2
    means the minimal face of the Newton polytope is an edge; so the edge
    inner normals are the only weights to try.
    """
    p = newton_polytope(f)
    p.require_full_dim()
    seeds = {}
    for (u, c) in p.facets:
        if c < 1 or c > bounds.w_max:
            continue
        w = u
        pieces = dict(weight_decomposition(f, w))
        low = pieces[-c]
        if len(low.terms) == 1:
            continue
        support = sorted(low.support())
        d = primitive_part(tuple(b - a
                                 for a, b in zip(support[0], support[-1])))
        for base, direction in ((support[0], d),
                                (support[-1], tuple(-x for x in d))):
            for coeff_list in _line_factor_candidates(
                    low, base, direction, c, bounds.deg_max):
                factor = LaurentPolynomial.from_terms(
                    f.rank,
                    [(tuple(k * x for x in direction), cv)
                     for k, cv in enumerate(coeff_list) if cv])
                _try_seed(f, w, factor, seeds)
        for factor in extra_factors:
            if all(weight_value(w, e) == 0 for e in factor.support()):
                _try_seed(f, w, factor, seeds)
    return [seeds[k] for k in sorted(seeds)]


def _try_seed(f, w, factor, seeds):
    if len(factor.terms) <= 1:
        return
    data = MutationData(w, factor).canonical()
    key = (data.weight, tuple(sorted(data.factor.terms.items())))
    if key in seeds:
        return
    if isinstance(is_mutable(f, data), MutationWitness):
        seeds[key] = data


def _enumerate_higher(f, bounds, extra_factors):
    """Candidate sweep for three or more variables (partial by design).

    Weights are facet inner normals; factors are built from differences of
    minimal-slice support points (binomials and trinomials, raised to powers
    within the degree bound) plus any caller-supplied factors.
    """
    p = newton_polytope(f)
    p.require_full_dim()
    seeds = {}
    for (u, c) in p.facets:
        if c < 1 or c > bounds.w_max:
            continue
        w = u
        pieces = dict(weight_decomposition(f, w))
        low = pieces[-c]
        support = sorted(low.support())
        if len(support) == 1:
            continue
        diffs = sorted({tuple(b - a for a, b in zip(s0, s1))
                        for s0 in support for s1 in support
                        if s0 != s1})
        for factor in chain(factor_sweep(diffs, bounds.deg_max),
                            extra_factors):
            if all(weight_value(w, e) == 0 for e in factor.support()):
                _try_seed(f, w, factor, seeds)
    return [seeds[k] for k in sorted(seeds)]


def factor_sweep(diffs, deg_max):
    """Higher-rank factor candidates from sorted distinct nonzero exponents.

    Yields each binomial 1 + x^d and then the trinomials 1 + x^d + x^d'
    with d' > d, every one followed by its powers while the degree (terms
    minus one, times the power) stays within ``deg_max``.
    """
    for i, d1 in enumerate(diffs):
        n = len(d1)
        binomial = LaurentPolynomial.one(n) + LaurentPolynomial.monomial(n, d1)
        for base in [binomial] + [binomial + LaurentPolynomial.monomial(n, d2)
                                  for d2 in diffs[i + 1:]]:
            power = base
            for k in range(deg_max // (len(base.terms) - 1)):
                if k:
                    power = power * base
                yield power
