"""Golden corpus: stdout, stderr and exit codes of the CLI, byte for byte.

The corpus in ``tests/golden/corpus.json`` pins the output of every command
below: the ``--json`` cases, one text-mode case for each command and each
branch of its text, the error cases in both modes, hulls outside rank 2,
and ``compare --known`` on every reference tag.  Refactors must replay it
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


CASES = (_cases() + _text_cases() + _both_mode_cases() + _hull_cases()
         + _known_series_cases())


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
