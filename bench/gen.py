"""Seeded input generator for the benchmark workloads.

Every input is a GL(n, Z) image of a fixed Fano input.  The image matrix is
a short product of elementary matrices I + s*E_ij (s = +-1), drawn from a
``random.Random`` seeded with a string, so one seed gives byte-identical job
lists in every process.  Each job carries the input properties that set its
work size (term count, lattice points, bounding-box volume, GL skew), so a
change in work size across seeds shows in the record.

Polynomials are term maps ``{exponent tuple: int coefficient}``; this module
never imports the program under test.
"""

import math
import random

# -- fixed inputs ----------------------------------------------------------

P2 = {(1, 0): 1, (0, 1): 1, (-1, -1): 1}
P1P1 = {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}
P3 = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (-1, -1, -1): 1}
P1CUBED = {(1, 0, 0): 1, (-1, 0, 0): 1, (0, 1, 0): 1, (0, -1, 0): 1,
           (0, 0, 1): 1, (0, 0, -1): 1}
F1 = {(1, 0): 1, (0, 1): 1, (-1, 1): 1, (0, -1): 1}
DP7 = {(1, 0): 1, (1, 1): 1, (0, 1): 1, (-1, -1): 1, (0, -1): 1}
DP6 = {(1, 0): 1, (1, 1): 1, (0, 1): 1, (-1, 0): 1, (-1, -1): 1, (0, -1): 1}
# maximally mutable on the square [-1, 1]^2: binomial coefficients on edges
H = {(1, 0): 2, (1, 1): 1, (0, 1): 2, (-1, 1): 1, (-1, 0): 2, (-1, -1): 1,
     (0, -1): 2, (1, -1): 1}


def _cubic_threefold_mirror():
    """(x + y + 1)^3 / (x*y*z) + z, expanded."""
    terms = {}
    for a in range(4):
        for b in range(4 - a):
            terms[(a - 1, b - 1, -1)] = math.factorial(3) // (
                math.factorial(a) * math.factorial(b)
                * math.factorial(3 - a - b))
    terms[(0, 0, 1)] = 1
    return terms


CUBIC = _cubic_threefold_mirror()

# The 16 reflexive polygons, one vertex list per GL(2, Z) class, ordered by
# boundary point count 3..9 (enumerated from the three maximal ones).
POLYGONS = (
    ((-1, -1), (0, 1), (1, 0)),
    ((-1, -1), (-1, 1), (1, 0)),
    ((-1, -1), (-1, 0), (0, 1), (1, 0)),
    ((-1, 0), (-1, 1), (1, -1), (1, 0)),
    ((-1, -1), (-1, 0), (0, 1), (1, -1)),
    ((-1, -1), (-1, 0), (0, -1), (0, 1), (1, 0)),
    ((-1, -1), (-1, 1), (2, -1)),
    ((-1, -1), (-1, 1), (0, 1), (1, -1)),
    ((-1, -1), (-1, 0), (0, 1), (1, -1), (1, 0)),
    ((-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)),
    ((-1, -1), (-1, 0), (0, 1), (2, -1)),
    ((-1, -1), (-1, 1), (0, 1), (1, -1), (1, 0)),
    ((-1, -1), (-1, 1), (3, -1)),
    ((-1, -1), (-1, 1), (0, 1), (2, -1)),
    ((-1, -1), (-1, 1), (1, -1), (1, 1)),
    ((-1, -1), (-1, 2), (2, -1)),
)

# 3-D reflexive polytopes with 6-8 vertices, with their lattice point counts
# (each has the origin as its one interior point).
SOLIDS = (
    ("octahedron", ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1),
                    (0, 0, -1)), 7),
    ("prism", ((1, 0, 1), (0, 1, 1), (-1, -1, 1), (1, 0, -1), (0, 1, -1),
               (-1, -1, -1)), 12),
    ("capped-octahedron", ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1), (1, 1, 1)), 8),
    ("cube", tuple((a, b, c) for a in (-1, 1) for b in (-1, 1)
                   for c in (-1, 1)), 27),
    ("hexagonal-bipyramid", ((1, 0, 0), (0, 1, 0), (-1, 1, 0), (-1, 0, 0),
                             (0, -1, 0), (1, -1, 0), (0, 0, 1), (0, 0, -1)),
     9),
)

# -- GL(n, Z) images -------------------------------------------------------


def gl_matrix(rng, n, steps):
    """Product of ``steps`` elementary matrices I + s*E_ij, s = +-1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        m[i] = [a + s * b for a, b in zip(m[i], m[j])]
    return m


def permutation_matrix(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[int(perm[i] == j) for j in range(n)] for i in range(n)]


def apply(m, v):
    return tuple(sum(a * b for a, b in zip(row, v)) for row in m)


def image(terms, m):
    return {apply(m, e): c for e, c in terms.items()}


def skew(m):
    return max(abs(x) for row in m for x in row)


def box_volume(points):
    points = list(points)
    vol = 1
    for i in range(len(points[0])):
        vals = [p[i] for p in points]
        vol *= max(vals) - min(vals) + 1
    return vol


def poly_text(terms):
    """CLI text of a term map, in a fixed term order."""
    names = "xyzw"
    parts = []
    for e in sorted(terms, reverse=True):
        mono = [names[i] if k == 1 else f"{names[i]}^{k}"
                for i, k in enumerate(e) if k]
        c = terms[e]
        body = "*".join(([str(c)] if c != 1 or not mono else []) + mono)
        parts.append(body)
    return " + ".join(parts)


def edge_binomial(vertices):
    """Terms of the polygon's polynomial: binomial coefficients along each
    edge, 1 at the vertices, nothing inside."""
    vs = sorted(vertices, key=lambda v: math.atan2(v[1], v[0]))
    terms = {}
    for a, b in zip(vs, vs[1:] + vs[:1]):
        length = math.gcd(b[0] - a[0], b[1] - a[1])
        step = ((b[0] - a[0]) // length, (b[1] - a[1]) // length)
        for k in range(length + 1):
            terms[(a[0] + k * step[0], a[1] + k * step[1])] = \
                math.comb(length, k)
    return terms


# -- job lists -------------------------------------------------------------


def _poly_job(jid, argv, terms, m, **check):
    props = {"terms": len(terms), "box_volume": box_volume(terms),
             "skew": skew(m), "gl_matrix": m}
    return {"id": jid, "argv": argv, "props": props, "check": check}


def _periods(rng, minimal):
    jobs = []
    # minimal sizes are the fewest terms from which pf finds the recurrence
    for name, base, n_terms, small in (("p2", P2, 90, 28),
                                       ("p1p1", P1P1, 90, 24),
                                       ("p3", P3, 44, 44),
                                       ("p1cubed", P1CUBED, 38, 36)):
        m = gl_matrix(rng, len(next(iter(base))), 3)
        f = image(base, m)
        n = small if minimal else n_terms
        jobs.append(_poly_job(f"pf-{name}", ["pf", poly_text(f), "--terms",
                                             str(n)],
                              f, m, series=name, n=n))
    m = gl_matrix(rng, 3, 3)
    f = image(CUBIC, m)
    n = 8 if minimal else 20
    jobs.append(_poly_job("period-cubic", ["period", poly_text(f), "--terms",
                                           str(n)],
                          f, m, series="cubic", n=n))
    return jobs


def _mutation_graph(rng, minimal):
    depth = "1" if minimal else "3"
    jobs = []
    for name, base in (("p1p1", P1P1), ("f1", F1), ("dp7", DP7),
                       ("dp6", DP6), ("h", H)):
        m = gl_matrix(rng, 2, 3)
        f = image(base, m)
        jobs.append(_poly_job(f"graph-{name}",
                              ["graph", poly_text(f), "--depth", depth],
                              f, m))
    m = gl_matrix(rng, 2, 3)
    f = image(P2, m)
    jobs.append(_poly_job("graph-p2", ["graph", poly_text(f), "--depth",
                                       depth], f, m))
    # expands the fewest-term node at the deepest level of graph-p2; the
    # worker fills in the polynomial, so its properties are unknown here
    jobs.append({"id": "graph-p2-expand",
                 "argv": ["graph", "{input}", "--depth", "1"],
                 "input_from": {"job": "graph-p2", "depth": int(depth)},
                 "props": {}, "check": {"parent_depth": int(depth)}})
    jobs.append({"id": "markov-correspondence",
                 "argv": ["markov", "--correspondence", "--depth", depth],
                 "props": {}, "check": {"depth": int(depth)}})
    return jobs


def _rigidity(rng, minimal):
    jobs = []
    polygons = POLYGONS[:3] if minimal else POLYGONS
    for i, verts in enumerate(polygons):
        base = edge_binomial(verts)
        m = gl_matrix(rng, 2, 3)
        f = image(base, m)
        text = poly_text(f)
        for cmd in ("reflexive", "points", "dual", "nf", "rigid"):
            job = _poly_job(f"{cmd}-polygon{i}", [cmd, text], f, m)
            job["props"]["lattice_points"] = len(base) + 1
            jobs.append(job)
    for name, verts, count in (SOLIDS[:1] if minimal else SOLIDS):
        m = gl_matrix(rng, 3, 2)
        vs = [apply(m, v) for v in verts]
        text = ('{"n": 3, "vertices": '
                + str([list(v) for v in vs]).replace(" ", "") + "}")
        for cmd in ("nf", "points"):
            jobs.append({"id": f"{cmd}-{name}", "argv": [cmd, text],
                         "props": {"vertices": len(vs), "lattice_points": count,
                                   "box_volume": box_volume(vs),
                                   "skew": skew(m), "gl_matrix": m},
                         "check": {"vertices": vs, "lattice_points": count}})
    if not minimal:
        # rank-3 rigidity cost moves with coordinate skew (9.7-21 s over four
        # sheared images), so this input only permutes coordinates
        m = permutation_matrix(rng, 3)
        f = image(CUBIC, m)
        jobs.append(_poly_job("rigid-cubic", ["rigid", poly_text(f)], f, m,
                              expect=["inconclusive", "rigid-within-bounds"]))
    return jobs


_JOB_LISTS = {"periods": _periods, "mutation-graph": _mutation_graph,
             "rigidity": _rigidity}
WORKLOADS = tuple(_JOB_LISTS)


def make_jobs(workload, seed, minimal=False):
    """The job list of one workload for one seed."""
    rng = random.Random(f"fanolab-bench:{workload}:{seed}")
    return _JOB_LISTS[workload](rng, minimal)
