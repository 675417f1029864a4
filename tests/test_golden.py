"""Golden corpus: stdout, stderr and exit codes of the CLI, byte for byte.

The corpus in ``tests/golden/corpus.json`` pins the output of every command
below: the ``--json`` cases, one text-mode case for each command and each
branch of its text, the error cases in both modes, hulls outside rank 2,
mutation searches and graphs in rank 3, and ``compare --known`` on every
reference tag.  Refactors must replay it
unchanged.  After an intended change of output, regenerate it with

    PYTHONPATH=src python tests/test_golden.py --write

and review the diff of the corpus file.
"""

import contextlib
import functools
import io
import json
import pathlib
import sys
from itertools import product

import pytest

from fanolab.cli import main

CORPUS = pathlib.Path(__file__).parent / "golden" / "corpus.json"

# The 16 reflexive polygons (one per GL(2,Z) class), as vertex lists and as
# polynomials with binomial coefficients along each edge.
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
POLYGON_POLYS = (
    "x + y + x^-1*y^-1",
    "x + x^-1*y + 2*x^-1 + x^-1*y^-1",
    "x + y + x^-1 + x^-1*y^-1",
    "x + x*y^-1 + x^-1*y + x^-1",
    "x*y^-1 + y + 2*y^-1 + x^-1 + x^-1*y^-1",
    "x + y + y^-1 + x^-1 + x^-1*y^-1",
    "x^2*y^-1 + 3*x*y^-1 + 3*y^-1 + x^-1*y + 2*x^-1 + x^-1*y^-1",
    "x*y^-1 + y + 2*y^-1 + x^-1*y + 2*x^-1 + x^-1*y^-1",
    "x + x*y^-1 + y + 2*y^-1 + x^-1 + x^-1*y^-1",
    "x + x*y^-1 + y + y^-1 + x^-1*y + x^-1",
    "x^2*y^-1 + 2*x + 3*x*y^-1 + y + 3*y^-1 + x^-1 + x^-1*y^-1",
    "x + x*y^-1 + y + 2*y^-1 + x^-1*y + 2*x^-1 + x^-1*y^-1",
    "x^3*y^-1 + 4*x^2*y^-1 + 2*x + 6*x*y^-1 + 4*y^-1 + x^-1*y + 2*x^-1"
    " + x^-1*y^-1",
    "x^2*y^-1 + 2*x + 3*x*y^-1 + y + 3*y^-1 + x^-1*y + 2*x^-1 + x^-1*y^-1",
    "x*y + 2*x + x*y^-1 + 2*y + 2*y^-1 + x^-1*y + 2*x^-1 + x^-1*y^-1",
    "x^2*y^-1 + 3*x + 3*x*y^-1 + 3*y + 3*y^-1 + x^-1*y^2 + 3*x^-1*y"
    " + 3*x^-1 + x^-1*y^-1",
)

# 3-D reflexive polytopes with 4 to 8 vertices.
SOLIDS = (
    ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)),
    ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
    ((1, 0, 1), (0, 1, 1), (-1, -1, 1), (1, 0, -1), (0, 1, -1),
     (-1, -1, -1)),
    ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
     (1, 1, 1)),
    tuple((a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)),
    ((1, 0, 0), (0, 1, 0), (-1, 1, 0), (-1, 0, 0), (0, -1, 0), (1, -1, 0),
     (0, 0, 1), (0, 0, -1)),
)
RANK3_POLYS = ("x + y + z + 1/(x*y*z)", "(x + y + 1)^3/(x*y*z) + z")

# Newton polytopes of dimension below the rank, including a point.
LOWER_DIM = (
    "x*y",
    "1 + x*y + x^2*y^2 + x^3*y^3",
    "x*z + y*z + x^-1*y^-1*z",
    "(x + y + 1)^2*z",
    "x + y + z + x^2*y^-1 + x^-1*z^2 + x*y*z^-1",
    "x*w + y*w + z*w + x^-1*y^-1*z^-1*w",
    "(x + y + z + 1)^2*w^-1",
)


def _polytope(vertices):
    return json.dumps({"n": len(vertices[0]),
                       "vertices": [list(v) for v in vertices]})


def _cases():
    cases = []
    for verts, poly in zip(POLYGONS, POLYGON_POLYS):
        cases.append(["newton", poly])
        for cmd in ("points", "dual", "reflexive", "nf"):
            cases.append([cmd, _polytope(verts)])
        cases.append(["rigid", poly])
        cases.append(["mutations", poly])
    for verts in SOLIDS:
        for cmd in ("points", "nf", "dual"):
            cases.append([cmd, _polytope(verts)])
    for poly in RANK3_POLYS:
        cases.append(["mutations", poly])
        cases.append(["rigid", poly])
    for poly in LOWER_DIM:
        cases.append(["newton", poly])
    cases.append(["graph", POLYGON_POLYS[0], "--depth", "2"])
    cases.append(["graph", POLYGON_POLYS[14], "--depth", "2"])
    cases.append(["markov", "--correspondence", "--depth", "2"])
    cases.append(["pf", POLYGON_POLYS[0], "--terms", "40"])
    for i in (0, 1, 6, 12, 15):
        cases.append(["weights", _polytope(POLYGONS[i])])
    cases.append(["weights", _polytope(SOLIDS[0])])
    cases.append(["weights", _polytope(POLYGONS[2])])
    cases.append(["period", POLYGON_POLYS[0], "--terms", "10"])
    cases.append(["compare", POLYGON_POLYS[0], "--known",
                  "projective-plane", "--terms", "10"])
    cases.append(["compare", POLYGON_POLYS[0], POLYGON_POLYS[2],
                  "--terms", "10"])
    for factor in ("1 + x*y^2", "x*y^2 + x^2*y^4"):
        cases.append(["mutate", POLYGON_POLYS[0], "--weight", "2,-1",
                      "--factor", factor])
    cases.append(["mutate", "x + 2*y + x^-1*y^-1", "--weight", "2,-1",
                  "--factor", "1 + x*y^2"])
    return [["--json"] + argv for argv in cases]


def _text_cases():
    p2, p2_polytope = POLYGON_POLYS[0], _polytope(POLYGONS[0])
    return [
        ["newton", p2],
        ["newton", LOWER_DIM[1]],
        ["points", p2_polytope],
        ["dual", p2_polytope],
        ["reflexive", p2_polytope],
        ["weights", p2_polytope],
        ["weights", _polytope(POLYGONS[2])],
        ["nf", p2_polytope],
        ["mutate", p2, "--weight", "2,-1", "--factor", "1 + x*y^2"],
        ["period", p2, "--terms", "10"],
        ["mutations", p2],
        ["mutations", RANK3_POLYS[1]],
        ["graph", p2, "--depth", "2"],
        ["graph", p2, "--depth", "2", "--dot"],
        ["markov", "--depth", "3"],
        ["markov", "--correspondence", "--depth", "2"],
        ["rigid", p2],
        ["pf", p2, "--terms", "40"],
        ["pf", p2, "--terms", "40", "--rmax", "2", "--dmax", "2"],
        ["compare", p2, "--known", "projective-plane", "--terms", "10"],
        ["compare", p2, POLYGON_POLYS[2], "--terms", "10"],
    ]


def _both_mode_cases():
    p2 = POLYGON_POLYS[0]
    cases = [
        ["compare", "2*x + x*y + 2*y + y*x^-1 + 2*x^-1 + x^-1*y^-1 + 2*y^-1"
         " + x*y^-1", "--known", "del-pezzo-4", "--terms", "20"],
        ["mutate", p2, "--weight", "2,-2", "--factor", "1 + x*y^2"],
        ["mutate", p2, "--weight", "2,y", "--factor", "1 + x*y^2"],
        ["rigid", p2, "--wmax", "0"],
        ["mutations", p2, "--degmax", "0"],
        ["compare", p2, "--known", "nope"],
        ["graph", p2, "--depth", "-1"],
        ["reflexive", '{"n": 0, "vertices": [[]]}'],
        ["points", '{"n": 2, "vertices": [[3000, 0], [0, 3000], [-1, -1]]}'],
    ]
    return [argv for case in cases for argv in (case, ["--json"] + case)]


def _hull_cases():
    """Hulls outside rank 2: ranks 1 and 4, rank-3 supports with points
    on faces, and the octahedron and the cube given by all their lattice
    points."""
    cases = [["newton", poly] for poly in (
        "x^3 + x + x^-2",
        "(x + 1 + x^-1)*(y + 1 + y^-1)*(z + 1 + z^-1)",
        "(x + y + z + 1)^3/(x*y*z)",
        "x + y + z + w + x^-1*y^-1*z^-1*w^-1")]
    cube = list(product((1, 0, -1), repeat=3))
    octahedron = [v for v in cube if sum(map(abs, v)) <= 1]
    for points in (octahedron, cube):
        for cmd in ("points", "dual", "reflexive", "nf"):
            cases.append([cmd, _polytope(points)])
    return [["--json"] + argv for argv in cases]


def _known_series_cases():
    """``compare --known`` on the tags not pinned above, and one mismatch."""
    cases = [
        ["compare", "x + x^-1 + y + y^-1", "--known",
         "quadric-surface-product", "--terms", "20"],
        ["compare", RANK3_POLYS[1], "--known", "cubic-threefold",
         "--terms", "20"],
        ["compare", POLYGON_POLYS[0], "--known", "quadric-surface-product",
         "--terms", "10"],
        ["compare", "2*x + x*y + 2*y + y*x^-1 + 2*x^-1 + x^-1*y^-1 + 2*y^-1"
         " + x*y^-1", "--known", "del-pezzo-4", "--terms", "60"],
    ]
    return [argv for case in cases for argv in (case, ["--json"] + case)]


def _nf_cases():
    """``nf`` past the bench inputs: the cube with an apex over a square
    face (9 vertices), the 4-D cross-polytope and a GL(3, Z) image of the
    hexagonal bipyramid."""
    cube_with_apex = list(product((-1, 1), repeat=3)) + [(0, 0, 2)]
    cross4 = [tuple(s * (i == j) for j in range(4))
              for i in range(4) for s in (1, -1)]
    g = ((1, 1, 0), (0, 1, 1), (1, 1, 1))
    bipyramid = [tuple(sum(a * b for a, b in zip(row, v)) for row in g)
                 for v in SOLIDS[5]]
    return [argv for points in (cube_with_apex, cross4, bipyramid)
            for argv in (["nf", _polytope(points)],
                         ["--json", "nf", _polytope(points)])]


def _rank3_cases():
    """Rank-3 graphs, and mutation and rigidity searches on the octahedron
    and on the lift of the quadric mirror by z + 1/z."""
    octahedron = "x + 1/x + y + 1/y + z + 1/z"
    cases = [
        ["graph", RANK3_POLYS[0], "--depth", "2"],
        ["graph", RANK3_POLYS[1], "--depth", "1"],
        ["mutations", "x + y + 1/(x*y) + z + 1/z"],
        ["mutations", octahedron],
        ["rigid", octahedron],
    ]
    return [["--json"] + argv for argv in cases]


def _refusal_cases():
    """Refused input, in both modes: ``pf`` bounds that allow no order or a
    negative degree, and JSON documents that lack a key."""
    p2 = POLYGON_POLYS[0]
    cases = [
        ["pf", p2, "--rmax", "0"],
        ["pf", p2, "--dmax", "-1"],
        ["points", '{"n": 2}'],
        ["period", '{"n": 1, "terms": [{"e": [1]}]}'],
    ]
    return [argv for case in cases for argv in (case, ["--json"] + case)]


def _branch_cases():
    """Branches no case above reaches: the one rank-2 seed set that a
    bound makes partial (and the same input without the bound), a Graphviz
    label without weights, the parser's variable-set errors, a factor of
    higher rank than its polynomial, and refusals of rank 1, negative
    depths and term counts and an origin outside the polytope."""
    cases = [
        ["rigid", "x + y + x^-1*y^-3", "--wmax", "2"],
        ["rigid", "x + y + x^-1*y^-3"],
        ["compare", "x + 1/x"],
        ["period", "x1 + y"],
        ["period", "y1 + y2"],
        ["period", "x0 + x1"],
        ["mutate", "x + 1/x", "--weight", "1", "--factor", "1 + y"],
        ["rigid", "x + 1/x"],
        ["markov", "--depth", "-1"],
        ["period", "x + y + 1/(x*y)", "--terms", "-1"],
        ["reflexive", "x + y + 1"],
        ["weights", "x + y + 1"],
    ]
    return [["graph", "x + y + 1/x + 1/y", "--depth", "1", "--dot"]] + [
        argv for case in cases for argv in (case, ["--json"] + case)]


def _position_cases():
    """Parse errors at the first character past the whitespace, or at the
    end of the input, and ``pf`` with one term too few for any linear
    system (refused) and with just enough (inconclusive)."""
    cases = [
        ["period", "x y"],
        ["period", "x + $"],
        ["period", "x +"],
        ["pf", "x + y + 1/(x*y)", "--terms", "13"],
        ["pf", "x + y + 1/(x*y)", "--terms", "14"],
    ]
    return [argv for case in cases for argv in (case, ["--json"] + case)]


def _relation_sum_cases():
    """``period`` and ``pf`` on supports whose relation lattice has rank at
    most their dimension: a constant term, rational and negative
    coefficients, the rank-4 simplex, and a support on a hyperplane that
    misses the origin."""
    rank4_simplex = "x + y + z + w + x^-1*y^-1*z^-1*w^-1"
    cases = [
        ["period", "x + y + x^-1*y^-1 + 1", "--terms", "12"],
        ["pf", "x + y + x^-1*y^-1 + 1", "--terms", "40"],
        ["period", "1/2*x - 3*y + 2/3*x^-1*y^-1", "--terms", "10"],
        ["pf", "1/2*x - 3*y + 2/3*x^-1*y^-1", "--terms", "40"],
        ["period", rank4_simplex, "--terms", "16"],
        ["pf", rank4_simplex, "--terms", "60"],
        ["period", "x + y + x^2*y^-1", "--terms", "6"],
    ]
    return [argv for case in cases for argv in (case, ["--json"] + case)]


def _fibre_walk_cases():
    """``period`` and ``pf`` on relation lattices of rank 2 and 3: the
    octahedron, whose odd fibres are empty, a rank-3 support whose last
    free coordinate solves with pivot entries of both signs, and a
    reflexive polygon's mirror with rho = 2."""
    octahedron = "x + 1/x + y + 1/y + z + 1/z"
    cases = [
        ["period", octahedron, "--terms", "30"],
        ["period", "x + y + 1/x + 1/y + z + 1/(x*y*z)", "--terms", "30"],
        ["pf", octahedron, "--terms", "40"],
        ["pf", "x + 1/x + x*y + 1/(x*y)", "--terms", "40"],
    ]
    return [argv for case in cases for argv in (case, ["--json"] + case)]


def _operator_cases():
    """``pf`` whose operator has a p_0 of more than one term, which the
    printer puts in parentheses."""
    case = ["pf", "x + y + x^-1 + x^-1*y^-1", "--terms", "40"]
    return [case, ["--json"] + case]


def _nesting_cases():
    """Text nested past the parser's cap on parentheses, refused with the
    position of the first parenthesis past it."""
    case = ["period", "(" * 300 + "x" + ")" * 300]
    return [case, ["--json"] + case]


def _direct_sum_cases():
    """``period``, ``pf`` and ``compare`` on sums of polynomials in
    independent variables: the P^1 x dP6 mirror and a GL(3, Z) image of it,
    the octahedron beside a GL(2, Z) image of the quadric's mirror plus
    z + 1/z, a support whose two circuits share x, and rational
    coefficients beside a constant term."""
    p1_dp6 = "x + y + 1/x + 1/y + x*y + 1/(x*y) + z + 1/z"
    image = ("x^2*y*z^2 + x*y*z + x*z + y*z + y^-1*z^-1 + x^-1*z^-1"
             " + x^-1*y^-1*z^-1 + x^-2*y^-1*z^-2")
    octahedron = "x + 1/x + y + 1/y + z + 1/z"
    cases = [
        ["period", p1_dp6, "--terms", "30"],
        ["pf", p1_dp6, "--terms", "30"],
        ["period", image, "--terms", "30"],
        ["pf", image, "--terms", "30"],
        ["period", "x + 1/x + y + 1/(x*y)", "--terms", "30"],
        ["period", "1/2*x + 3/x + y^2 + 1/y + 2", "--terms", "20"],
        ["compare", octahedron, "x + 1/x + x*y + 1/(x*y) + z + 1/z",
         "--terms", "30"],
        ["compare", p1_dp6, octahedron, "--terms", "30"],
    ]
    return [argv for case in cases for argv in (case, ["--json"] + case)]


def _compare_both_cases():
    """``compare`` given both a second polynomial and ``--known``,
    refused."""
    case = ["compare", "x + y + 1/(x*y)", "x + y + 1/(x*y)", "--known",
            "projective-plane"]
    return [case, ["--json"] + case]


def _zero_power_cases():
    """Zero to a large power, read at once as zero."""
    case = ["period", "x + 0^100000000 + 1/x", "--terms", "5"]
    return [case, ["--json"] + case]


def _wide_number_cases():
    """A term of 4,401 digits, past Python's default cap on int <-> str
    conversion, printed in full."""
    case = ["period", "10^2200*x + 10^2200*x^-1", "--terms", "3"]
    return [case, ["--json"] + case]


def _coefficient_bound_cases():
    """Monomial powers whose coefficients would pass the parser's bit
    bound, refused before they are computed, and exponents past the largest
    float, refused or read as their coefficients decide."""
    long = str(10 ** 400)
    cases = [["newton", "(3*x)^100000000 + 1/x"],
             ["newton", "(x/3)^30000000 + 1/x"],
             ["newton", f"(3*x)^{long}"], ["newton", f"x^{long} + 1/x"]]
    return [argv for case in cases for argv in (case, ["--json"] + case)]


def _rigid_bound_cases():
    """``rigid`` on polytopes past the lattice-point cap (a rank-3 box of
    147 points and a polygon of 1,203) and past the seed cap (the pyramid
    over a 7 x 7 square, 59 points), refused before the search."""
    cases = [
        ["rigid", " + ".join(f"x^{a}*y^{b}*z^{c}" for a in (3, -3)
                             for b in (3, -3) for c in (1, -1))],
        ["rigid", "x^200*y + x^200/y + x^-200*y + x^-200/y"],
        ["rigid", "x^3*y^3*z + x^3*y^-3*z + x^-3*y^3*z + x^-3*y^-3*z + 1/z"],
    ]
    return [argv for case in cases for argv in (case, ["--json"] + case)]


def _product_cap_cases():
    """A product of two powers of 7,315 terms each, past the parser's cap
    on the term pairs of products, refused before it is formed."""
    case = ["newton", "(x+y+z+w+1)^18*(x+y+z+w+1)^18"]
    return [case, ["--json"] + case]


def _product_block_cases():
    """The product of two sums of 999 terms 2^99999*x^i, within the cap on
    term pairs but past it once each pair is weighted by the 1,024-bit
    blocks of its coefficients, refused before it is formed."""
    case = ["newton", "*".join(
        "(" + " + ".join(f"2^99999*{v}^{i}" for i in range(999)) + ")"
        for v in "xy")]
    return [case, ["--json"] + case]


def _markov_bound_cases():
    """``markov`` with a bound that is not positive, refused with or
    without ``--correspondence``."""
    case = ["markov", "--depth", "2", "--wmax", "0"]
    return [case, ["--json"] + case]


CASES = (_cases() + _text_cases() + _both_mode_cases() + _hull_cases()
         + _known_series_cases() + _nf_cases() + _rank3_cases()
         + _refusal_cases() + _branch_cases() + _position_cases()
         + _relation_sum_cases() + _fibre_walk_cases() + _operator_cases()
         + _nesting_cases() + _direct_sum_cases() + _compare_both_cases()
         + _zero_power_cases() + _wide_number_cases()
         + _coefficient_bound_cases() + _rigid_bound_cases()
         + _product_cap_cases() + _product_block_cases()
         + _markov_bound_cases())


def _command(argv):
    return next(arg for arg in argv if not arg.startswith("--"))


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@functools.cache
def _load():
    return json.loads(CORPUS.read_text())


def test_corpus_lists_every_case():
    assert [entry["argv"] for entry in _load()] == CASES


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[f"{i:03d}-{_command(argv)}"
                              for i, argv in enumerate(CASES)])
def test_golden(index):
    expected = _load()[index]
    assert run(expected["argv"]) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps([run(argv) for argv in CASES], indent=1)
                      + "\n")
