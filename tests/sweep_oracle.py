"""The unpruned higher-rank factor sweep: the reference searches.

``flat_bases`` yields every binomial 1 + x^d, then every trinomial
1 + x^d + x^d' with d' > d, translates included, and ``flat_sweep``
follows each by all its powers within the degree bound, as one flat
stream.  ``sweep_witnesses`` checks every key of
that stream with ``is_mutable``, and ``sweep_seeds`` keeps every power with
a fitting translate, so neither stops a power chain early.  They are the
rank >= 3 branches of ``enumerate_mutations`` and ``seed_set`` before the
chains were pruned, and serve only as the oracle for the pruned searches.
"""

from fanolab.laurent import LaurentPolynomial
from fanolab.linalg import primitive_part
from fanolab.mmlp import _minkowski_difference_points
from fanolab.mutation import (MutationBounds, MutationData, MutationWitness,
                              factor_powers, is_mutable, weight_value)
from fanolab.polytopes import lattice_points, newton_polytope


def flat_bases(diffs):
    for i, d1 in enumerate(diffs):
        n = len(d1)
        binomial = LaurentPolynomial.one(n) + LaurentPolynomial.monomial(n, d1)
        yield binomial
        for d2 in diffs[i + 1:]:
            yield binomial + LaurentPolynomial.monomial(n, d2)


def flat_sweep(diffs, deg_max):
    for base in flat_bases(diffs):
        top = deg_max // (len(base.terms) - 1)
        yield from factor_powers(base, range(1, top + 1))


def facet_diffs(p, bounds=MutationBounds()):
    """The sorted primitive differences of the lattice points of each facet
    of p at height at most ``w_max``, with the facet, as ``seed_set``
    reads them (rank >= 3)."""
    pts = lattice_points(p).all
    for (u, c) in p.facets:
        if c > bounds.w_max:
            continue
        face_pts = [q for q in pts if weight_value(u, q) == -c]
        yield (u, c), face_pts, sorted({
            primitive_part(tuple(b - a for a, b in zip(s0, s1)))
            for s0 in face_pts for s1 in face_pts if s0 != s1})


def sweep_witnesses(f, bounds=MutationBounds()):
    """The witnesses of every mutable candidate of the flat sweep, sorted
    by key, for f of rank >= 3."""
    tried = {}
    for (u, c) in newton_polytope(f).facets:
        if c < 1 or c > bounds.w_max:
            continue
        low = [e for e in f.terms if weight_value(u, e) == -c]
        if len(low) == 1:
            continue
        diffs = sorted({tuple(b - a for a, b in zip(s0, s1))
                        for s0 in low for s1 in low if s0 != s1})
        for factor in flat_sweep(diffs, bounds.deg_max):
            data = MutationData(u, factor)
            if data.key not in tried:
                tried[data.key] = is_mutable(f, data)
    return tuple(tried[k] for k in sorted(tried)
                 if isinstance(tried[k], MutationWitness))


def sweep_seeds(p, bounds=MutationBounds()):
    """The seeds of every flat-sweep power F, sorted by key, for which a
    translate of supp(F^c) fits in the facet at height c of p (rank >= 3)."""
    seeds = {}
    for (u, c), face_pts, diffs in facet_diffs(p, bounds):
        for power in flat_sweep(diffs, bounds.deg_max):
            if list(_minkowski_difference_points(set(face_pts),
                                                 (power ** c).support())):
                data = MutationData(u, power)
                seeds[data.key] = data
    return tuple(seeds[k] for k in sorted(seeds))
