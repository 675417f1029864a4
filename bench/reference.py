"""Independent references for the benchmark's job outputs.

Nothing here imports the program under test: the closed-form period
series, the polynomial text reader, the 2-D hull, the Markov tree and the
lattice-equivalence test are the benchmark's own, so a wrong answer from
the program cannot also make its reference wrong.  ``check_job`` returns
None for a correct output and a one-line reason otherwise.
"""

import json
import math
import random
import re
from fractions import Fraction
from itertools import permutations

from gen import apply

# -- period series ---------------------------------------------------------


def _p2(k):
    m, r = divmod(k, 3)
    return 0 if r else math.factorial(3 * m) // math.factorial(m) ** 3


def _p1p1(k):
    m, r = divmod(k, 2)
    return 0 if r else math.comb(2 * m, m) ** 2


def _p3(k):
    m, r = divmod(k, 4)
    return 0 if r else math.factorial(4 * m) // math.factorial(m) ** 4


def _p1cubed(k):
    m, r = divmod(k, 2)
    if r:
        return 0
    f = math.factorial
    return sum(f(2 * m) // (f(a) * f(b) * f(m - a - b)) ** 2
               for a in range(m + 1) for b in range(m + 1 - a))


def _cubic(k):
    m, r = divmod(k, 2)
    f = math.factorial
    return 0 if r else f(2 * m) * f(3 * m) // f(m) ** 5


SERIES = {"p2": _p2, "p1p1": _p1p1, "p3": _p3, "p1cubed": _p1cubed,
          "cubic": _cubic}


def naive_period(terms, n):
    """Constant terms of the first n powers, by plain dictionary products:
    the constant term of f^k pairs f^(k//2) with f^(k - k//2) at opposite
    exponents, so no power above the ceiling of (n - 1) / 2 is built."""
    rank = len(next(iter(terms)))
    powers = [{(0,) * rank: 1}]
    while len(powers) <= n // 2:
        acc = {}
        for ea, ca in powers[-1].items():
            for eb, cb in terms.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                acc[e] = acc.get(e, 0) + ca * cb
        powers.append({e: c for e, c in acc.items() if c})
    out = []
    for k in range(n):
        low, high = powers[k // 2], powers[k - k // 2]
        out.append(sum(c * high.get(tuple(-x for x in e), 0)
                       for e, c in low.items()))
    return out


# -- polynomial text -------------------------------------------------------

_VARS = "xyzw"


def read_polynomial(text, rank):
    """Term map of the program's canonical text (``2*x^-1*y + ...``)."""
    terms = {}
    for sign, body in re.findall(r"(^-?|[+-] )([^ ]+)", text.strip()):
        coeff = Fraction(-1 if sign.strip() == "-" else 1)
        e = [0] * rank
        for factor in body.split("*"):
            name, _, power = factor.partition("^")
            if name in _VARS:
                e[_VARS.index(name)] += int(power) if power else 1
            else:
                coeff *= Fraction(name)
        terms[tuple(e)] = terms.get(tuple(e), 0) + coeff
    return {e: c for e, c in terms.items() if c}


def term_count(text):
    return text.count(" + ") + text.count(" - ") + 1


# -- plane geometry --------------------------------------------------------


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull2d(points):
    """Vertices of the convex hull, counter-clockwise (monotone chain)."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def boundary_points(vertices):
    vs = hull2d(vertices)
    return sum(math.gcd(b[0] - a[0], b[1] - a[1])
               for a, b in zip(vs, vs[1:] + vs[:1]))


def triangle_weights(points):
    """Sorted primitive weights of a triangle around the origin, or None."""
    vs = hull2d(points)
    if len(vs) != 3:
        return None
    a, b, c = vs
    w = [abs(b[0] * c[1] - b[1] * c[0]), abs(c[0] * a[1] - c[1] * a[0]),
         abs(a[0] * b[1] - a[1] * b[0])]
    g = math.gcd(*w)
    return tuple(sorted(x // g for x in w))


# -- Markov triples --------------------------------------------------------


def markov_levels(depth):
    """Per depth, {triple: parent} of the Markov tree rooted at (1, 1, 1)."""
    levels = [{(1, 1, 1): None}]
    for _ in range(depth):
        nxt = {}
        for t, parent in levels[-1].items():
            for child in markov_neighbours(t):
                if child not in (parent, t):
                    nxt.setdefault(child, t)
        levels.append(nxt)
    return levels


def markov_neighbours(t):
    a, b, c = t
    return {tuple(sorted((3 * b * c - a, b, c))),
            tuple(sorted((a, 3 * a * c - b, c))),
            tuple(sorted((a, b, 3 * a * b - c)))}


def squared(t):
    return tuple(x * x for x in t)


# -- lattice equivalence ---------------------------------------------------


def _solve(rows, rhs):
    """x with rows @ x = rhs, over Fractions (rows square, invertible)."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(r)]
         for row, r in zip(rows, rhs)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        for i in range(n):
            if i != col and a[i][col]:
                f = a[i][col] / a[col][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def _det(m):
    m = [[Fraction(x) for x in row] for row in m]
    n, det = len(m), Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] / m[col][col]
            m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return det


def lattice_equivalent(vertices, columns):
    """True when some U in GL(n, Z) maps the vertex set onto the columns."""
    n = len(vertices[0])
    if len(vertices) != len(columns) or len(set(columns)) != len(columns):
        return False
    basis = None
    for idx in permutations(range(len(vertices)), n):
        if _det([vertices[i] for i in idx]) != 0:
            basis = idx
            break
    if basis is None:
        return False
    target = set(columns)
    vb = [vertices[i] for i in basis]
    for images in permutations(columns, n):
        # row r of U solves vb @ U[r] = (image_i[r] for each basis vertex)
        u = [_solve(vb, [img[r] for img in images]) for r in range(n)]
        if any(x.denominator != 1 for row in u for x in row):
            continue
        if abs(_det(u)) != 1:
            continue
        u = [[int(x) for x in row] for row in u]
        if {apply(u, v) for v in vertices} == target:
            return True
    return False


# -- per-job checks --------------------------------------------------------


def _recurrence_fails(coefficients, series, n):
    for k in range(len(coefficients) - 1, n):
        total = sum(sum(c * k ** e for e, c in enumerate(q)) * series(k - j)
                    for j, q in enumerate(coefficients))
        if total:
            return k
    return None


def _check_pf(job, rc, out):
    chk = job["check"]
    if rc != 0 or not out.get("found"):
        return f"no recurrence found (exit {rc})"
    coeffs = out["coefficients"]
    if not coeffs or not any(coeffs[0]):
        return "trivial recurrence"
    # the true recurrence holds beyond the terms it was fitted to
    k = _recurrence_fails(coeffs, SERIES[chk["series"]], chk["n"] + 20)
    return None if k is None else f"recurrence fails the series at k={k}"


def _check_period(job, rc, out):
    chk = job["check"]
    want = [str(SERIES[chk["series"]](k)) for k in range(chk["n"])]
    return None if rc == 0 and out.get("terms") == want else \
        "period terms differ from the closed form"


def _graph_basics(job, rc, out):
    if rc != 0 or not out.get("complete"):
        return f"graph incomplete (exit {rc})"
    depth = {n["id"]: n["depth"] for n in out["nodes"]}
    if any(depth[e["target"]] != depth[e["source"]] + 1 for e in out["edges"]):
        return "edge does not go one level down"
    return None


def _check_graph(job, rc, out, seed):
    err = _graph_basics(job, rc, out)
    if err:
        return err
    argv_poly = read_polynomial(job["argv"][1], 2)
    if read_polynomial(out["nodes"][0]["polynomial"], 2) != argv_poly:
        return "root node is not the input"
    if job["id"] == "graph-p2":
        return _check_p2_levels(out, int(job["argv"][3]))
    want = naive_period(argv_poly, 7)
    rng = random.Random(f"fanolab-bench-check:{seed}:{job['id']}")
    sample = rng.sample(out["nodes"][1:], min(3, len(out["nodes"]) - 1))
    for node in sample:
        got = naive_period(read_polynomial(node["polynomial"], 2), 7)
        if got != want:
            return f"node {node['id']} changes the classical period"
    return None


def _node_weights(node):
    return triangle_weights(list(read_polynomial(node["polynomial"], 2)))


def _check_p2_levels(out, depth):
    levels = markov_levels(depth)
    for d, level in enumerate(levels):
        got = {_node_weights(n) for n in out["nodes"] if n["depth"] == d}
        if got != {squared(t) for t in level}:
            return f"depth {d} weights differ from the squared Markov triples"
    return None


# Children of the fewest-term depth-3 node of the P2 graph, by hand: the
# squares of the Markov triples next to (1, 5, 13) other than its parent.
EXPANDED_CHILDREN = {3: {(1, 169, 1156), (25, 169, 37636)}}


def _check_expand(job, rc, out):
    err = _graph_basics(job, rc, out)
    if err:
        return err
    d = job["check"]["parent_depth"]
    level = markov_levels(d)[d]
    root = _node_weights(out["nodes"][0])
    triple = next((t for t in level if squared(t) == root), None)
    if triple is None:
        return "expanded node is not a squared Markov triple at its depth"
    got = {_node_weights(n) for n in out["nodes"] if n["depth"] == 1}
    # the move back to the parent may need a factor beyond --degmax
    onward = {squared(t) for t in markov_neighbours(triple) - {level[triple]}}
    if not onward <= got <= onward | {squared(level[triple])}:
        return "children differ from the Markov tree"
    if got != EXPANDED_CHILDREN.get(d, got):
        return "children differ from the hand-written set"
    return None


def _check_markov(job, rc, out):
    levels = markov_levels(job["check"]["depth"])
    if rc != 0 or not out.get("ok") or not out.get("complete"):
        return f"correspondence not confirmed (exit {rc})"
    for d, level in enumerate(levels):
        row = out["per-depth"][d]
        want = sorted(list(squared(t)) for t in level)
        if row["graph"] != want or row["markov-squared"] != want:
            return f"depth {d} differs from the squared Markov triples"
    return None


def _input_vertices(job):
    chk = job["check"]
    if "vertices" in chk:
        return [tuple(v) for v in chk["vertices"]]
    return hull2d(list(read_polynomial(job["argv"][1], 2)))


def _check_polytope(job, rc, out):
    cmd = job["argv"][0]
    if rc != 0:
        return f"exit {rc}"
    verts = _input_vertices(job)
    if cmd == "reflexive":
        return None if out.get("reflexive") is True else "not reflexive"
    if cmd == "points":
        count = job["check"].get("lattice_points")
        if count is None:
            count = boundary_points(verts) + 1
        ok = (out["interior-count"] == 1 and out["count"] == count
              and out["boundary-count"] == count - 1)
        return None if ok else "lattice point counts differ"
    if cmd == "dual":
        dual = [tuple(Fraction(x) for x in v) for v in out["vertices"]]
        if not out.get("integral") or any(x.denominator != 1
                                          for v in dual for x in v):
            return "dual is not integral"
        total = boundary_points(verts) + boundary_points(
            [tuple(int(x) for x in v) for v in dual])
        return None if total == 12 else f"boundary points sum to {total}"
    if cmd == "nf":
        cols = list(zip(*out["matrix"]))
        return None if lattice_equivalent(verts, cols) else \
            "normal form is not lattice-equivalent to the input"
    if cmd == "rigid":
        ok = out.get("verdict") == "rigid-within-bounds" and \
            out.get("dimension") == 0
        return None if ok else f"verdict {out.get('verdict')}"
    return f"no reference for {cmd}"


def _check_rigid_cubic(job, rc, out):
    verdict = out.get("verdict")
    if verdict not in job["check"]["expect"]:
        return f"verdict {verdict}"
    want_rc = 2 if verdict == "inconclusive" else 0
    return None if rc == want_rc else f"exit {rc} for verdict {verdict}"


def check_job(job, rc, stdout, seed):
    """None when the job's output matches its reference, else a reason."""
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return f"output is not JSON (exit {rc})"
    try:
        return _check(job, rc, out, seed)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return f"output lacks an expected field ({exc!r})"


def _check(job, rc, out, seed):
    cmd, jid = job["argv"][0], job["id"]
    if cmd == "pf":
        return _check_pf(job, rc, out)
    if cmd == "period":
        return _check_period(job, rc, out)
    if jid == "graph-p2-expand":
        return _check_expand(job, rc, out)
    if cmd == "graph":
        return _check_graph(job, rc, out, seed)
    if cmd == "markov":
        return _check_markov(job, rc, out)
    if jid == "rigid-cubic":
        return _check_rigid_cubic(job, rc, out)
    return _check_polytope(job, rc, out)
