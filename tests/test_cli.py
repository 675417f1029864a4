import errno
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

import pytest

from fanolab import cli
from fanolab.cli import main
from fanolab.laurent import (PARSE_POWER_CAP, PARSE_PRODUCT_CAP,
                             PARSE_TERM_CAP)
from fanolab.mmlp import MMLP_POINT_CAP, MMLP_SEED_CAP
from fanolab.mutation import MutationBounds
from fanolab.mutation_graph import GRAPH_DEPTH_CAP, MARKOV_DEPTH_CAP
from fanolab.periods import known_series
from fanolab.polytopes import LATTICE_BOX_CAP, NORMAL_FORM_STATE_CAP

P2 = "x + y + x^-1*y^-1"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_period(capsys):
    code, out, _ = run(capsys, "period", P2, "--terms", "13")
    assert code == 0
    assert out.splitlines()[3] == "c[3] = 6"
    assert out.splitlines()[12] == "c[12] = 34650"


def test_period_json(capsys):
    code, out, _ = run(capsys, "--json", "period", P2, "--terms", "4")
    data = json.loads(out)
    assert code == 0
    assert data["format-version"] == 1
    assert data["terms"] == ["1", "0", "0", "6"]


def test_compare_known(capsys):
    code, out, _ = run(capsys, "compare", P2, "--known", "projective-plane",
                       "--terms", "12")
    assert code == 0 and "agree" in out


def test_compare_two_polynomials(capsys):
    code, out, _ = run(capsys, "--json", "compare", P2,
                       "x + x^-1 + y + y^-1", "--terms", "10")
    assert code == 0
    data = json.loads(out)
    assert data["agree"] is False and data["first-mismatch"] == 2


def test_period_of_text_with_trailing_whitespace(capsys):
    code, out, _ = run(capsys, "--json", "period", "x + 1/x ", "--terms", "5")
    assert code == 0
    assert json.loads(out)["terms"] == ["1", "0", "2", "0", "6"]


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_compare_with_a_second_polynomial_and_known_is_refused(capsys,
                                                               mode):
    # a polynomial whose period differs from the tag's is refused as well,
    # rather than compared against one of the two, and so is an empty tag
    for other, tag in ((P2, "projective-plane"),
                       ("x + x^-1 + y + y^-1", "projective-plane"),
                       ("x + x^-1 + y + y^-1", "")):
        code, out, err = run(capsys, *mode, "compare", P2, other,
                             "--known", tag)
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: compare takes a second polynomial or --known, not both"]


def test_compare_with_an_empty_tag_is_an_unknown_tag(capsys):
    code, out, err = run(capsys, "compare", P2, "--known", "")
    assert code == 1 and out == ""
    assert err.startswith("error: unknown series tag ''; available: [")


@pytest.mark.parametrize("other", [("x+y",), ("--known", "projective-plane")])
def test_compare_negative_terms_is_usage_error(capsys, other):
    code, out, err = run(capsys, "compare", "x + y + x^-1*y^-1", *other,
                         "--terms", "-2")
    assert code == 1 and out == ""
    assert "n_terms must be >= 0" in err


def test_newton(capsys):
    code, out, _ = run(capsys, "--json", "newton", P2)
    data = json.loads(out)
    assert code == 0
    assert data["vertices"] == [[-1, -1], [0, 1], [1, 0]]
    assert data["fano"] is True


def test_dual_and_reflexive_and_points(capsys):
    code, out, _ = run(capsys, "--json", "dual", P2)
    assert code == 0
    assert json.loads(out)["integral"] is True
    code, out, _ = run(capsys, "--json", "reflexive", P2)
    assert json.loads(out)["reflexive"] is True
    poly_json = json.dumps({"n": 3, "vertices": [[2, 0, -1], [0, 2, -1],
                                                 [-2, -2, -1], [0, 0, 1]]})
    code, out, _ = run(capsys, "--json", "points", poly_json)
    assert code == 0
    assert json.loads(out)["boundary-count"] == 14


def test_weights_and_nf(capsys):
    code, out, _ = run(capsys, "--json", "weights", P2)
    assert code == 0 and json.loads(out)["weights"] == [1, 1, 1]
    code, out1, _ = run(capsys, "--json", "nf", P2)
    code, out2, _ = run(capsys, "--json", "nf", "a*b + a^-1 + b^-1")
    assert json.loads(out1)["encoding"] == json.loads(out2)["encoding"]


def test_mutate(capsys):
    code, out, _ = run(capsys, "mutate", P2, "--weight", "2,-1",
                       "--factor", "1 + x*y^2")
    assert code == 0
    from fanolab.laurent import parse_polynomial
    from fanolab.mutation import canonicalize_shear
    expected = canonicalize_shear(
        parse_polynomial("x^-1*y^-1 + x*(1 + x*y^2)^2"), (2, -1))
    assert parse_polynomial(out.strip()) == expected


def test_mutate_bad_factor_is_usage_error(capsys):
    code, _, err = run(capsys, "mutate", P2, "--weight", "2,-1",
                       "--factor", "1 + x")
    assert code == 1 and "error" in err


def test_mutations_exit_codes(capsys):
    code, out, _ = run(capsys, "--json", "mutations", P2)
    assert code == 0
    data = json.loads(out)
    assert data["complete"] is True and len(data["seeds"]) == 3
    assert data["bounds"] == {"wmax": 12, "degmax": 6}
    code, out, _ = run(capsys, "--json", "mutations",
                       "(x+y+1)^3/(x*y*z) + z")
    assert code == 2  # partial search is inconclusive, not empty
    assert json.loads(out)["complete"] is False


def test_graph_and_dot(capsys):
    code, out, _ = run(capsys, "--json", "graph", P2, "--depth", "1")
    assert code == 0
    data = json.loads(out)
    assert len(data["nodes"]) == 4 and len(data["edges"]) == 3
    code, out, _ = run(capsys, "graph", P2, "--depth", "1", "--dot")
    assert code == 0 and out.startswith("digraph")


@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_graph_depth_past_the_cap_is_refused_quickly(capsys, mode):
    start = time.perf_counter()
    code, out, err = run(capsys, *mode, "graph", P2, "--depth", "6")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: depth 6 is above {GRAPH_DEPTH_CAP}"]


def test_markov(capsys):
    code, out, _ = run(capsys, "--json", "markov", "--depth", "2")
    assert code == 0
    assert json.loads(out)["levels"][2] == [[1, 2, 5]]
    code, out, _ = run(capsys, "--json", "markov", "--correspondence",
                       "--depth", "2")
    assert code == 0 and json.loads(out)["ok"] is True


@pytest.mark.parametrize("extra", [[], ["--correspondence"]])
@pytest.mark.parametrize("mode", [[], ["--json"]])
def test_markov_refuses_bounds_that_are_not_positive(capsys, mode, extra):
    code, out, err = run(capsys, *mode, "markov", *extra, "--depth", "2",
                         "--wmax", "0")
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: bounds must be positive"]


@pytest.mark.parametrize("extra", [[], ["--correspondence"]])
def test_markov_depth_past_the_cap_is_refused_quickly(capsys, extra):
    start = time.perf_counter()
    code, out, err = run(capsys, "markov", *extra, "--depth", "40")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: depth 40 is above {MARKOV_DEPTH_CAP}"]


def test_correspondence_past_its_cap_is_refused_quickly(capsys):
    depth = GRAPH_DEPTH_CAP + 1
    start = time.perf_counter()
    code, out, err = run(capsys, "markov", "--correspondence", "--depth",
                         str(depth))
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: depth {depth} is above {GRAPH_DEPTH_CAP}"]


def test_markov_depth_at_the_cap(capsys):
    code, out, _ = run(capsys, "--json", "markov", "--depth",
                       str(MARKOV_DEPTH_CAP))
    assert code == 0
    assert len(json.loads(out)["levels"]) == MARKOV_DEPTH_CAP + 1


def test_rigid(capsys):
    code, out, _ = run(capsys, "--json", "rigid", P2)
    assert code == 0
    assert json.loads(out)["verdict"] == "rigid-within-bounds"
    code, out, _ = run(capsys, "--json", "rigid", "(x+y+1)^3/(x*y*z) + z")
    assert code == 2


def test_pf(capsys):
    code, out, _ = run(capsys, "--json", "pf", P2, "--terms", "40")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 3 and data["degree"] == 2
    assert data["operator"] == "D^2 + t^3*(-27*D^2 - 81*D - 54)"


def test_pf_inconclusive(capsys):
    code, out, _ = run(capsys, "--json", "pf", P2, "--terms", "40",
                       "--rmax", "2", "--dmax", "2")
    assert code == 2 and json.loads(out)["found"] is False


def test_cache_round_trip(tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    code, out1, _ = run(capsys, "--cache", cache, "period", P2,
                        "--terms", "8")
    assert code == 0
    code, out2, _ = run(capsys, "--cache", cache, "period", P2,
                        "--terms", "8")
    assert out1 == out2
    assert [p.name for p in tmp_path.iterdir()] == ["cache.json"]


# c[2] of 10^2200*x + 10^2200/x is 2 * 10^4400, past the cap of 4,300
# digits that Python puts on int <-> str conversion from 3.10.7
WIDE = "10^2200*x + 10^2200*x^-1"
DIGIT_CAP = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                               reason="no cap on int <-> str conversion")


@DIGIT_CAP
def test_numbers_past_the_digit_cap_print_in_full(tmp_path, capsys):
    cap = sys.get_int_max_str_digits()
    c2 = "2" + "0" * 4400
    code, out, err = run(capsys, "period", WIDE, "--terms", "3")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["c[0] = 1", "c[1] = 0", f"c[2] = {c2}"]
    code, out, _ = run(capsys, "--json", "period", WIDE, "--terms", "3")
    assert code == 0 and json.loads(out)["terms"] == ["1", "0", c2]
    cache = str(tmp_path / "cache.json")
    stored = run(capsys, "--json", "--cache", cache, "period", WIDE,
                 "--terms", "3")
    read_back = run(capsys, "--json", "--cache", cache, "period", WIDE,
                    "--terms", "3")
    assert stored == read_back == (0, out, "")
    # the CLI lifts the cap only while it runs
    assert sys.get_int_max_str_digits() == cap


@DIGIT_CAP
def test_input_literal_past_the_digit_cap_is_refused(capsys):
    wide = "1" * 5000
    for argv in (["period", f"{wide}*x + 1/x"],
                 ["--json", "period", f"{wide}*x + 1/x"],
                 ["mutate", P2, "--weight", f"{wide},1", "--factor", "1 + x"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_cache_truncated_file_is_refused(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    cache.write_text('{"abc": {"terms": ["1", "0"')
    code, out, err = run(capsys, "--cache", str(cache), "period", P2)
    assert code == 1 and out == ""
    assert "cannot read cache file" in err
    assert cache.read_text() == '{"abc": {"terms": ["1", "0"'


def test_cache_non_object_is_refused(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    cache.write_text("[1, 2, 3]\n")
    code, out, err = run(capsys, "--cache", str(cache), "pf", P2,
                         "--terms", "20")
    assert code == 1 and out == ""
    assert "does not hold a JSON object" in err
    assert cache.read_text() == "[1, 2, 3]\n"


@pytest.mark.parametrize("command", ["period", "pf"])
def test_cache_in_a_missing_directory_is_usage_error(tmp_path, capsys,
                                                     command):
    cache = tmp_path / "missing" / "cache.json"
    code, out, err = run(capsys, "--cache", str(cache), command, P2,
                         "--terms", "20")
    assert code == 1 and out == ""
    assert err == (f"error: cannot write cache file {cache}: "
                   "No such file or directory\n")
    assert list(tmp_path.iterdir()) == []


def test_failed_cache_rename_removes_the_temp_file(tmp_path, capsys,
                                                   monkeypatch):
    def refuse(src, dst):
        raise OSError(errno.EXDEV, "Invalid cross-device link")

    monkeypatch.setattr(cli.os, "replace", refuse)
    cache = tmp_path / "cache.json"
    code, out, err = run(capsys, "--cache", str(cache), "period", P2)
    assert code == 1 and out == ""
    assert err == (f"error: cannot write cache file {cache}: "
                   "Invalid cross-device link\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["newton", "period", "points"])
def test_directory_input_is_usage_error(tmp_path, capsys, monkeypatch,
                                        command):
    (tmp_path / "xdir").mkdir()
    monkeypatch.chdir(tmp_path)
    for argv in ([command, "@xdir"], ["--json", command, "@xdir"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: cannot read xdir: Is a directory\n"


def test_only_an_at_sign_reads_a_file(tmp_path, capsys, monkeypatch):
    (tmp_path / "x").write_text("y + 1\n")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "period", "x", "--terms", "3")
    assert code == 0 and out.splitlines() == ["c[0] = 1", "c[1] = 0",
                                              "c[2] = 0"]
    code, out, _ = run(capsys, "period", "@x", "--terms", "3")
    assert code == 0 and out.splitlines() == ["c[0] = 1", "c[1] = 1",
                                              "c[2] = 1"]


def test_missing_at_file_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "period", "@missing")
    assert code == 1 and out == ""
    assert err == "error: cannot read missing: No such file or directory\n"


def test_json_polytope_is_read_through_an_at_sign(tmp_path, capsys):
    path = tmp_path / "square.json"
    path.write_text('{"n": 2, "vertices": [[1, 1], [-1, 1], [-1, -1], '
                    '[1, -1]]}')
    code, out, err = run(capsys, "points", f"@{path}")
    assert (code, out, err) == run(capsys, "points", path.read_text())
    assert code == 0 and out.startswith("lattice points: 9 (8 boundary, "
                                        "1 interior)")


# the first 20 period terms of P2, as the cache writes them
P2_TERMS = [str(c) for c in known_series("projective-plane", 20)]


def p2_terms_with(k, term):
    return P2_TERMS[:k] + [term] + P2_TERMS[k + 1:]


@pytest.mark.parametrize("command", ["period", "pf"])
@pytest.mark.parametrize("entry", [[], {"terms": " ".join(P2_TERMS)},
                                   {"terms": p2_terms_with(2, 0)},
                                   {"terms": p2_terms_with(2, "0.5")},
                                   {"coeffs": P2_TERMS},
                                   {"terms": p2_terms_with(0, "1/0")},
                                   {"terms": p2_terms_with(0, "abc")},
                                   {"terms": P2_TERMS[:3]},
                                   {"terms": P2_TERMS + ["0"]},
                                   # |c_3| <= 3^3, far below 6 * 10^7
                                   {"terms": p2_terms_with(3, "6" + "0" * 7)}])
def test_cache_malformed_entry_is_refused(tmp_path, capsys, command, entry):
    cache = tmp_path / "cache.json"
    argv = ("--cache", str(cache), command, P2, "--terms", "20")
    run(capsys, *argv)
    (key,) = json.loads(cache.read_text())
    cache.write_text(json.dumps({key: entry}))
    written = cache.read_bytes()
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"cache file {cache} has a malformed entry" in err
    assert cache.read_bytes() == written


def test_cache_term_longer_than_its_bound_is_refused_quickly(tmp_path,
                                                            capsys):
    cache = tmp_path / "cache.json"
    argv = ("--cache", str(cache), "period", P2, "--terms", "4")
    run(capsys, *argv)
    (key,) = json.loads(cache.read_text())
    cache.write_text(json.dumps(
        {key: {"terms": ["1", "0", "0", "6" * 300000]}}))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert f"cache file {cache} has a malformed entry" in err


def test_pf_cache_reads_rational_terms_back(tmp_path, capsys):
    cache = str(tmp_path / "cache.json")
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "--cache", cache, "--json", "pf",
                           "x + y + 1/2*x^-1*y^-1", "--terms", "30")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["operator"] == \
        "2*D^2 + t^3*(-27*D^2 - 81*D - 54)"
    assert any("/" in c for entry in json.loads(open(cache).read()).values()
               for c in entry["terms"])


@pytest.mark.parametrize("text", [P2, "x + y + 1/2*x^-1*y^-1"])
def test_cache_hit_reads_terms_as_a_fresh_compute_makes_them(
        tmp_path, capsys, monkeypatch, text):
    # integral entries come back as ints, so fit_recurrence sees the same
    # values of the same types on a hit as on a miss
    cache = str(tmp_path / "cache.json")
    seen, fit = [], cli.fit_recurrence

    def recording(terms, **bounds):
        seen.append([(type(c), c) for c in terms])
        return fit(terms, **bounds)
    monkeypatch.setattr(cli, "fit_recurrence", recording)
    argv = ("--json", "pf", text, "--terms", "30")
    fresh = run(capsys, *argv)
    miss = run(capsys, "--cache", cache, *argv)
    hit = run(capsys, "--cache", cache, *argv)
    assert fresh[0] == 0 and fresh == miss == hit
    assert seen[0] == seen[1] == seen[2]
    assert {t for t, _ in seen[0]} == ({int} if text == P2
                                       else {int, Fraction})


def test_oversized_power_is_refused_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "newton", "(x+y+z+1)^400")
    assert time.perf_counter() - start < 10
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: cannot read polynomial: the power has more than "
        f"{PARSE_TERM_CAP} terms (at position 9)"]


def test_product_past_the_pair_cap_is_refused_quickly(capsys):
    # two powers of 7,315 terms each, whose product took 15 s to read
    start = time.perf_counter()
    code, out, err = run(capsys, "newton",
                         "(x+y+z+w+1)^18*(x+y+z+w+1)^18")
    assert time.perf_counter() - start < 2
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: cannot read polynomial: the products form more than "
        f"{PARSE_PRODUCT_CAP} term pairs (at position 14)"]


def test_product_of_wide_coefficients_is_refused_quickly(capsys):
    # two sums of 999 terms 2^99999*x^i: within the pair cap, and minutes
    # to form
    text = "*".join("(" + " + ".join(f"2^99999*{v}^{i}" for i in range(999))
                    + ")" for v in "xy")
    start = time.perf_counter()
    code, out, err = run(capsys, "newton", text)
    assert time.perf_counter() - start < 2
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: cannot read polynomial: the products' coefficients form "
        f"more than {PARSE_PRODUCT_CAP} pairs of 1,024-bit blocks "
        f"(at position {text.index(')*') + 1})"]


def test_monomial_power_is_read_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "newton", "x^100000000")
    assert time.perf_counter() - start < 1
    assert code == 0 and "vertices: [[100000000]]" in out


def test_zero_to_a_large_power_is_read_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "period", "x + 0^100000000 + 1/x",
                       "--terms", "5")
    assert time.perf_counter() - start < 1
    assert code == 0 and out.splitlines()[4] == "c[4] = 6"


def test_power_past_the_exponent_cap_is_refused_quickly(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "newton", "(x+1)^20000")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: cannot read polynomial: the exponent 20000 is above "
        f"{PARSE_POWER_CAP} (at position 5)"]


@pytest.mark.parametrize("command, arg", [
    ("points", '{"n": 2, "vertices": [[3000, 0], [0, 3000], [-1, -1]]}'),
    ("rigid", "x^3000 + y^3000 + x^-1*y^-1")])
def test_lattice_box_past_the_cap_is_refused_quickly(capsys, command, arg):
    start = time.perf_counter()
    code, out, err = run(capsys, command, arg)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: the bounding box holds 9012004 lattice points, above "
        f"{LATTICE_BOX_CAP}"]


def _corners(*radii):
    """The polynomial of the box with corners (+-r_1, ..., +-r_n)."""
    names = "xyzw"[:len(radii)]
    return " + ".join("*".join(f"{v}^{s * r}" for v, s, r in
                               zip(names, signs, radii))
                      for signs in product((1, -1), repeat=len(radii)))


@pytest.mark.parametrize("text, error", [
    (_corners(3, 3, 1),
     f"the polytope holds 147 lattice points, above {MMLP_POINT_CAP}"),
    (_corners(200, 1),
     f"the polytope holds 1203 lattice points, above {MMLP_POINT_CAP}"),
    (_corners(1000, 1),
     f"the polytope holds 6003 lattice points, above {MMLP_POINT_CAP}"),
    (_corners(12, 12),
     f"the polytope holds 625 lattice points, above {MMLP_POINT_CAP}"),
    (_corners(1, 1, 1, 1),
     f"the polytope holds 81 lattice points, above {MMLP_POINT_CAP}"),
    ("x^3*y^3*z + x^3*y^-3*z + x^-3*y^3*z + x^-3*y^-3*z + 1/z",
     f"the polytope has more than {MMLP_SEED_CAP} seeds")],
    ids=["box", "polygon-200", "polygon-1000", "square", "4-cube",
         "pyramid"])
def test_rigid_past_its_caps_is_refused_quickly(capsys, text, error):
    start = time.perf_counter()
    code, out, err = run(capsys, "rigid", text)
    assert time.perf_counter() - start < 2
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: {error}"]


def test_rigid_within_its_caps_answers(capsys):
    # the (+-2, +-1, +-1) box: 45 points and 724 seeds
    code, out, _ = run(capsys, "--json", "rigid", _corners(2, 1, 1))
    assert code == 2 and json.loads(out)["seed-count"] == 724


def _cross_polytope(n):
    vertices = [[s * (i == j) for j in range(n)]
                for i in range(n) for s in (1, -1)]
    return json.dumps({"n": n, "vertices": vertices})


def test_nf_past_the_state_cap_is_refused(capsys):
    # the 6-D cross-polytope keeps 7,680 states from the fifth step on
    start = time.perf_counter()
    code, out, err = run(capsys, "nf", _cross_polytope(6))
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: the normal form search keeps 7680 partial vertex orders, "
        f"above {NORMAL_FORM_STATE_CAP}"]


def test_nf_below_the_state_cap_answers(capsys):
    # the 5-D cross-polytope peaks at 3,840 states
    code, out, _ = run(capsys, "--json", "nf", _cross_polytope(5))
    assert code == 0
    assert [len(row) for row in json.loads(out)["matrix"]] == [10] * 5


@pytest.mark.parametrize("command",
                         ["reflexive", "weights", "dual", "points", "nf"])
def test_rank_zero_polytope_is_refused_quickly(capsys, command):
    start = time.perf_counter()
    code, out, err = run(capsys, command, '{"n": 0, "vertices": [[]]}')
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.splitlines() == [
        "error: cannot read polytope: rank must be a positive integer"]


def test_period_and_pf_share_one_cache_entry(tmp_path, capsys, monkeypatch):
    # entries are keyed by polynomial and term count only, so pf reads the
    # series period stored; an entry under an older key is left as it was
    cache = tmp_path / "cache.json"
    old = {"terms": ["1", "0", "0", "6"]}
    cache.write_text(json.dumps({"an-old-pf-key": old}))
    computed, classical_period = [], cli.classical_period

    def counted(f, n_terms):
        computed.append(n_terms)
        return classical_period(f, n_terms)
    monkeypatch.setattr(cli, "classical_period", counted)
    code, _, _ = run(capsys, "--cache", str(cache), "period", P2,
                     "--terms", "40")
    assert code == 0
    for bounds in (("--rmax", "6"), ("--rmax", "4", "--dmax", "6")):
        code, out, _ = run(capsys, "--cache", str(cache), "pf", P2,
                           "--terms", "40", *bounds)
        assert code == 0 and "operator" in out
    assert computed == [40]
    entries = json.loads(cache.read_text())
    assert len(entries) == 2 and entries["an-old-pf-key"] == old


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["period"])  # missing argument
    assert exc.value.code == 1


def test_bad_polynomial_is_usage_error(capsys):
    code, _, err = run(capsys, "period", "x + + y")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("command, data, message", [
    ("period", {"n": 2, "terms": [{"e": [1.5, 0], "c": "1"},
                                  {"e": [-1, -1], "c": "1"}]},
     "an exponent must be an integer, got 1.5"),
    ("period", {"n": 2, "terms": [{"e": [True, 0], "c": "1"}]},
     "an exponent must be an integer, got True"),
    ("period", {"n": 2.0, "terms": [{"e": [1, 0], "c": "1"}]},
     "n must be an integer, got 2.0"),
    ("period", {"n": 2, "terms": 5}, "terms must be a list, got 5"),
    ("period", {"n": 2, "terms": [[[1, 0], "1"]]},
     "a term must be an object"),
    ("newton", {"n": 2, "terms": [{"e": 3, "c": "1"}]},
     "an exponent vector must be a list, got 3"),
    ("points", {"n": 2, "vertices": [[0.5, 0], [1, 0], [0, 1], [-1, -1]]},
     "a vertex coordinate must be an integer, got 0.5"),
    ("points", {"n": 2, "vertices": [[1, 0], [0, 1], [-1, False]]},
     "a vertex coordinate must be an integer, got False"),
    ("dual", {"n": 2, "vertices": 7}, "vertices must be a list, got 7"),
    ("nf", {"n": 2, "vertices": [3, 4]}, "a vertex must be a list, got 3"),
])
def test_malformed_json_input_is_usage_error(capsys, command, data, message):
    code, out, err = run(capsys, command, json.dumps(data))
    assert code == 1 and out == ""
    assert message in err


@pytest.mark.parametrize("text, message", [
    ('{"n": 1, "terms": [{"e": [1], "c": 0.1}, {"e": [-1], "c": true}]}',
     "a coefficient must be an integer or a string, got 0.1"),
    ('{"n": 1, "terms": [{"e": [1], "c": true}]}',
     "a coefficient must be an integer or a string, got True"),
    ('{"n": 1, "terms": [{"e": [1], "c": null}]}',
     "a coefficient must be an integer or a string, got None"),
    ('{"n": 1, "terms": [{"e": [1], "c": "1/0"}]}',
     "coefficient '1/0' has a zero denominator"),
    ("x + 1/0", "zero denominator (at position 6)"),
    ("x/0", "zero denominator (at position 2)"),
])
def test_inexact_or_zero_denominator_coefficient_is_usage_error(
        capsys, text, message):
    code, out, err = run(capsys, "period", text, "--terms", "3")
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: cannot read polynomial: {message}"]


@pytest.mark.parametrize("argv", [["mutations", P2], ["graph", P2],
                                  ["markov"], ["rigid", P2]])
def test_bound_defaults_are_the_library_defaults(argv):
    args = cli.build_parser().parse_args(argv)
    assert cli._bounds(args) == MutationBounds()


@pytest.mark.parametrize("arg, message", [
    ("(" * 300 + "x" + ")" * 300,
     "parentheses nested more than 100 deep (at position 100)"),
    ('{"n": ' + "[" * 1000 + "]" * 1000 + "}", "nested too deeply"),
    ("@nested.json", "nested too deeply"),
], ids=["text", "json", "json-file"])
def test_deeply_nested_input_is_usage_error(tmp_path, monkeypatch, capsys,
                                            arg, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "nested.json").write_text(
        '{"n": ' + "[" * 1000 + "]" * 1000 + "}")
    code, out, err = run(capsys, "period", arg)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.splitlines() == [f"error: cannot read polynomial: {message}"]


LONG_LIST = "[" + ", ".join(["1"] * 50000) + "]"


@pytest.mark.parametrize("document, message", [
    ('{"n": ' + LONG_LIST + ', "terms": []}', "n must be an integer"),
    ('{"n": ' + "[" * 900 + "]" * 900 + ', "terms": []}',
     "n must be an integer"),
    ('{"n": 1, "terms": [{"e": [1], "c": ' + LONG_LIST + '}]}',
     "a coefficient must be an integer or a string"),
    ('{"n": 1, "terms": [{"e": [1], "c": "' + "1" * 500 + '/0"}]}',
     "coefficient '" + "1" * 59 + "... has a zero denominator"),
], ids=["long-n", "nested-n", "long-coefficient", "long-zero-denominator"])
def test_long_offending_value_gives_one_short_error_line(capsys, document,
                                                         message):
    code, out, err = run(capsys, "period", document)
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    assert line.startswith(f"error: cannot read polynomial: {message}")
    assert "..." in line and len(line) < 200


def test_deeply_nested_cache_is_refused(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    cache.write_text("[" * 5000 + "]" * 5000)
    code, out, err = run(capsys, "--cache", str(cache), "period", P2)
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.splitlines() == [
        f"error: cannot read cache file {cache}: nested too deeply"]


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []

    class Counted(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self.prog)
    monkeypatch.setattr(cli, "_Parser", Counted)
    cli.build_parser.cache_clear()
    try:
        assert run(capsys, "--json", "weights", P2)[0] == 0
        assert run(capsys, "reflexive", P2)[0] == 0
    finally:
        cli.build_parser.cache_clear()
    assert built.count("fanolab") == 1


def test_json_graph_formats_each_polynomial_once(capsys, monkeypatch):
    formatted, format_polynomial = [], cli.format_polynomial

    def counted(f):
        formatted.append(f)
        return format_polynomial(f)
    monkeypatch.setattr(cli, "format_polynomial", counted)
    code, out, _ = run(capsys, "--json", "graph", P2, "--depth", "2")
    data = json.loads(out)
    assert code == 0
    assert len(formatted) == len(data["nodes"]) + len(data["edges"])


@pytest.mark.parametrize("argv", [
    # 214 KB of JSON, past any pipe buffer
    ["--json", "points",
     '{"n": 2, "vertices": [[-40, -40], [40, -40], [0, 40]]}'],
    # a few bytes, written only by the flush in main
    ["period", P2, "--terms", "3"],
], ids=["points", "period"])
def test_closed_stdout_ends_quietly(argv):
    read, write = os.pipe()
    os.close(read)  # no reader from the start, so every write fails
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    try:
        child = subprocess.run(
            [sys.executable, "-m", "fanolab.cli", *argv], stdout=write,
            stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert (child.returncode, child.stderr) == (1, b"")
