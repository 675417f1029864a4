import errno
import json
import time
from fractions import Fraction

import pytest

from fanolab import cli
from fanolab.cli import main
from fanolab.laurent import PARSE_POWER_CAP, PARSE_TERM_CAP
from fanolab.mutation_graph import CORRESPONDENCE_DEPTH_CAP, MARKOV_DEPTH_CAP
from fanolab.polytopes import LATTICE_BOX_CAP

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


def test_markov(capsys):
    code, out, _ = run(capsys, "--json", "markov", "--depth", "2")
    assert code == 0
    assert json.loads(out)["levels"][2] == [[1, 2, 5]]
    code, out, _ = run(capsys, "--json", "markov", "--correspondence",
                       "--depth", "2")
    assert code == 0 and json.loads(out)["ok"] is True


@pytest.mark.parametrize("extra", [[], ["--correspondence"]])
def test_markov_depth_past_the_cap_is_refused_quickly(capsys, extra):
    start = time.perf_counter()
    code, out, err = run(capsys, "markov", *extra, "--depth", "40")
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: depth 40 is above {MARKOV_DEPTH_CAP}"]


def test_correspondence_past_its_cap_is_refused_quickly(capsys):
    depth = CORRESPONDENCE_DEPTH_CAP + 1
    start = time.perf_counter()
    code, out, err = run(capsys, "markov", "--correspondence", "--depth",
                         str(depth))
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: depth {depth} is above {CORRESPONDENCE_DEPTH_CAP} for the "
        "correspondence check"]


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
    for argv in ([command, "xdir"], ["--json", command, "xdir"]):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err == "error: cannot read xdir: Is a directory\n"


@pytest.mark.parametrize("command", ["period", "pf"])
@pytest.mark.parametrize("entry", [[], {"terms": "1 0 0 6"},
                                   {"terms": ["1", "0", 0, "6"]},
                                   {"terms": ["1", "0", "0.5", "6"]},
                                   {"coeffs": ["1", "0", "0", "6"]}])
def test_cache_malformed_entry_is_refused(tmp_path, capsys, command, entry):
    cache = tmp_path / "cache.json"
    argv = ("--cache", str(cache), command, P2, "--terms", "20")
    run(capsys, *argv)
    (key,) = json.loads(cache.read_text())
    cache.write_text(json.dumps({key: entry}))
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert f"cache file {cache} has a malformed entry" in err
    assert json.loads(cache.read_text()) == {key: entry}


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


def test_monomial_power_is_read_at_once(capsys):
    start = time.perf_counter()
    code, out, _ = run(capsys, "newton", "x^100000000")
    assert time.perf_counter() - start < 1
    assert code == 0 and "vertices: [[100000000]]" in out


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
])
def test_inexact_or_zero_denominator_coefficient_is_usage_error(
        capsys, text, message):
    code, out, err = run(capsys, "period", text, "--terms", "3")
    assert code == 1 and out == ""
    assert err.splitlines() == [f"error: cannot read polynomial: {message}"]


def test_threads_flag_accepted(capsys):
    code, _, _ = run(capsys, "--threads", "4", "period", P2, "--terms", "3")
    assert code == 0


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
