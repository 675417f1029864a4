"""Command-line workbench.

Deterministic batch interface over the library: every command reads its
inputs from the arguments, prints either human-readable text or a JSON
document (--json), and exits 0 on success, 1 on bad input, 2 when a bounded
search came back empty or partial (the answer is "inconclusive", not "no").
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import os
import sys
from fractions import Fraction
from itertools import count

from .laurent import (LaurentPolynomial, _norm_coeff, _power_bound,
                      exponent_lattice_index, format_polynomial,
                      parse_polynomial)
from .mmlp import is_rigid
from .mutation import (MutationBounds, MutationData, enumerate_mutations,
                       mutate)
from .mutation_graph import (build_graph, export_dot, markov_tree,
                             p2_correspondence_check)
from .periods import classical_period, known_series, periods_agree
from .polytopes import (LatticePolytope, dual_polytope, is_fano,
                        is_reflexive, lattice_points, newton_polytope,
                        normal_form, simplex_weights)
from .recurrence import fit_recurrence, to_differential_operator

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2


# Python caps int <-> str conversion at 4,300 digits by default (from
# 3.10.7; older versions have no cap).  The CLI lifts the cap so that every
# exact number it computes prints in full, and keeps it for input text,
# where parsing a literal of a million digits would take seconds.
_INPUT_DIGITS = getattr(sys.int_info, "default_max_str_digits", 0)


@contextlib.contextmanager
def _int_digits(limit):
    """Within the block, int <-> str conversion takes at most ``limit``
    digits, or any number for 0, where Python caps it at all."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# input handling


def _load_text(arg):
    """Inline text or JSON, or the content of the file ``@path`` names."""
    if not arg.startswith("@"):
        return arg
    try:
        with open(arg[1:]) as fh:
            return fh.read().strip()
    except OSError as exc:
        raise ValueError(f"cannot read {arg[1:]}: {exc.strerror}") from exc


def _read(arg, what, rank_hint=None):
    """The polynomial, or for ``what="polytope"`` the polytope, held by arg
    as polynomial text or JSON.  A polytope is read from JSON vertices or
    as the Newton polytope of a polynomial."""
    text = _load_text(arg)
    try:
        with _int_digits(_INPUT_DIGITS):
            if not text.lstrip().startswith("{"):
                f = parse_polynomial(text, rank_hint=rank_hint)
            else:
                data = json.loads(text)
                if what == "polytope" and "vertices" in data:
                    return LatticePolytope.from_json_dict(data)
                f = LaurentPolynomial.from_json_dict(data)
        return newton_polytope(f) if what == "polytope" else f
    except KeyError as exc:
        raise ValueError(f"cannot read {what}: missing key {exc}") from exc
    except RecursionError:
        raise ValueError(f"cannot read {what}: nested too deeply") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"cannot read {what}: {exc}") from exc


def _weight_arg(text):
    try:
        with _int_digits(_INPUT_DIGITS):
            return tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"bad weight {text!r}; expected e.g. '2,-1'")


def _bounds(args):
    return MutationBounds(w_max=args.wmax, deg_max=args.degmax)


def _bounds_echo(bounds):
    return {"wmax": bounds.w_max, "degmax": bounds.deg_max}


def _emit(args, payload, render):
    """Print the payload as JSON under --json, else the lines that
    ``render(payload)`` reads off it."""
    if args.json:
        payload = {"format-version": FORMAT_VERSION, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in render(payload):
            print(line)


# ---------------------------------------------------------------------------
# cache


def _cache_key(command, extras):
    blob = json.dumps({"command": command, **extras}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_load(path):
    """The cache at path ({} when there is no file); a file that is not a
    JSON object is refused rather than overwritten."""
    if not (path and os.path.exists(path)):
        return {}
    try:
        with open(path) as fh:
            cache = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read cache file {path}: {exc}") from exc
    except RecursionError:
        raise ValueError(f"cannot read cache file {path}: "
                         f"nested too deeply") from None
    if not isinstance(cache, dict):
        raise ValueError(f"cache file {path} does not hold a JSON object")
    return cache


def _cached_terms(path, cache, key, f, n_terms):
    """The first ``n_terms`` period terms of f cached under key, or None
    when there is no entry.

    An entry must be an object whose "terms" is a list of ``n_terms`` exact
    numbers written as ``str(Fraction)`` writes them, each no longer than
    ``_term_lengths(f)`` allows; anything else is refused.
    """
    if key not in cache:
        return None
    entry = cache[key]
    terms = entry.get("terms") if isinstance(entry, dict) else None
    if not (isinstance(terms, list) and len(terms) == n_terms
            and all(map(_is_exact_number, terms, _term_lengths(f)))):
        raise ValueError(f"cache file {path} has a malformed entry {key}")
    return terms


def _term_lengths(f):
    """Yield for k = 0, 1, ... the most characters that the k-th period
    coefficient c_k of f takes as ``str(Fraction)`` writes it.

    c_k is the constant term of f^k, so with (L, A) of ``_power_bound``
    its numerator has at most k log10 A + 1 digits and its denominator at
    most k log10 L + 1.  With a sign and a bar, and as log10 2 < 1/3, that
    is at most k * (bits of A + bits of L) // 3 + 4 characters.
    """
    common, total = _power_bound(f.terms.values())
    bits = total.bit_length() + common.bit_length()
    return (k * bits // 3 + 4 for k in count())


def _is_exact_number(text, most):
    try:
        return len(text) <= most and str(Fraction(text)) == text
    except (TypeError, ValueError, ZeroDivisionError):
        return False


def _cache_store(path, cache):
    """Write through a temp file in the same directory and rename it into
    place, so the cache file is always either the old or the new one."""
    if path:
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                json.dump(cache, fh, indent=1, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except OSError as exc:
            raise ValueError(f"cannot write cache file {path}: "
                             f"{exc.strerror}") from exc
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)


def _period_terms(args):
    """The first ``args.terms`` period coefficients of the input, read from
    the ``--cache`` file or computed and added to it.

    Entries are keyed by the polynomial and the term count only, so
    ``period`` and ``pf`` share them.
    """
    f = _read(args.input, "polynomial")
    cache = _cache_load(args.cache)
    key = _cache_key("period", {"poly": f.to_json_dict(),
                                "terms": args.terms})
    terms = _cached_terms(args.cache, cache, key, f, args.terms)
    if terms is not None:
        return [_norm_coeff(Fraction(c)) for c in terms]
    terms = classical_period(f, args.terms)
    cache[key] = {"terms": [str(c) for c in terms]}
    _cache_store(args.cache, cache)
    return terms


# ---------------------------------------------------------------------------
# commands


def _cmd_period(args):
    _emit(args, {"terms": [str(c) for c in _period_terms(args)]},
          lambda p: [f"c[{k}] = {c}" for k, c in enumerate(p["terms"])])
    return EXIT_OK


def _cmd_compare(args):
    if args.known is not None:
        if args.other is not None:
            raise ValueError("compare takes a second polynomial or --known, "
                             "not both")
        ref = known_series(args.known, args.terms)
    else:
        if args.other is None:
            raise ValueError("compare needs a second polynomial or --known")
        ref = _read(args.other, "polynomial")
    f = _read(args.input, "polynomial")
    agree, where = periods_agree(f, ref, args.terms)
    _emit(args,
          {"agree": agree, "first-mismatch": where, "terms": args.terms},
          lambda p: [
              f"periods {'agree' if p['agree'] else 'differ'} through "
              f"{p['terms']} terms against "
              f"{args.known or format_polynomial(ref)}" +
              ("" if p["agree"]
               else f"; first mismatch at index {p['first-mismatch']}")])
    return EXIT_OK


def _newton_lines(payload):
    lattice = payload["exponent-lattice"]
    lines = [f"vertices: {payload['vertices']}",
             f"dimension: {payload['dimension']}",
             f"exponent lattice: rank {lattice['rank']}, "
             f"index {lattice['index']}"]
    if "fano" in payload:
        lines.append(f"fano: {payload['fano']}")
    return lines


def _cmd_newton(args):
    f = _read(args.input, "polynomial")
    p = newton_polytope(f)
    rank, index = exponent_lattice_index(f)
    payload = {"vertices": [list(v) for v in p.vertices],
               "dimension": p.dim,
               "exponent-lattice": {"rank": rank, "index": index}}
    if p.is_full_dimensional:
        payload["fano"] = is_fano(p)
    _emit(args, payload, _newton_lines)
    return EXIT_OK


def _cmd_dual(args):
    d = dual_polytope(_read(args.input, "polytope"))
    _emit(args, {"vertices": [[str(x) for x in v] for v in d.vertices],
                 "integral": d.integral},
          lambda p: [f"dual vertices: {p['vertices']}",
                     f"integral: {p['integral']}"])
    return EXIT_OK


def _cmd_reflexive(args):
    _emit(args, {"reflexive": is_reflexive(_read(args.input, "polytope"))},
          lambda p: [f"reflexive: {p['reflexive']}"])
    return EXIT_OK


def _cmd_points(args):
    pts = lattice_points(_read(args.input, "polytope"))
    payload = {"count": len(pts.all),
               "boundary-count": len(pts.boundary),
               "interior-count": len(pts.interior),
               "points": [list(q) for q in pts.all],
               "boundary": [list(q) for q in pts.boundary],
               "interior": [list(q) for q in pts.interior]}
    _emit(args, payload, lambda p: [
        f"lattice points: {p['count']} ({p['boundary-count']} boundary, "
        f"{p['interior-count']} interior)",
        f"boundary: {p['boundary']}",
        f"interior: {p['interior']}"])
    return EXIT_OK


def _cmd_weights(args):
    w = simplex_weights(_read(args.input, "polytope"))
    _emit(args, {"weights": list(w)}, lambda p: [f"weights: {p['weights']}"])
    return EXIT_OK


def _cmd_nf(args):
    nf = normal_form(_read(args.input, "polytope"))
    _emit(args, {"matrix": [list(r) for r in nf.matrix],
                 "encoding": nf.encoding.hex()},
          lambda p: [f"normal form rows: {p['matrix']}",
                     f"encoding: {p['encoding']}"])
    return EXIT_OK


def _cmd_mutate(args):
    f = _read(args.input, "polynomial")
    factor = _read(args.factor, "polynomial", rank_hint=f.rank)
    g = mutate(f, MutationData(_weight_arg(args.weight), factor))
    _emit(args, {"result": g.to_json_dict(), "text": format_polynomial(g)},
          lambda p: [p["text"]])
    return EXIT_OK


def _mutations_lines(payload):
    bounds = payload["bounds"]
    return [f"{len(payload['seeds'])} mutation(s); search "
            f"{'complete' if payload['complete'] else 'partial'} within "
            f"wmax={bounds['wmax']} degmax={bounds['degmax']}"] + [
        f"  w={s['weight']}  F={s['factor']}" for s in payload["seeds"]]


def _cmd_mutations(args):
    f = _read(args.input, "polynomial")
    bounds = _bounds(args)
    result = enumerate_mutations(f, bounds)
    payload = {"complete": result.complete,
               "bounds": _bounds_echo(bounds),
               "seeds": [{"weight": list(s.weight),
                          "factor": format_polynomial(s.factor)}
                         for s in result.seeds]}
    _emit(args, payload, _mutations_lines)
    return EXIT_OK if result.complete else EXIT_INCONCLUSIVE


def _graph_lines(payload):
    nodes, edges = payload["nodes"], payload["edges"]
    return ([f"{len(nodes)} nodes, {len(edges)} edges to depth "
             f"{payload['depth']}; search "
             f"{'complete' if payload['complete'] else 'partial'}"] +
            [f"  [{n['id']}] depth {n['depth']}: {n['polynomial']}"
             for n in nodes] +
            [f"  {e['source']} -> {e['target']}  w={e['weight']} "
             f"F={e['factor']}" for e in edges])


def _cmd_graph(args):
    f = _read(args.input, "polynomial")
    bounds = _bounds(args)
    graph = build_graph(f, args.depth, bounds)
    if args.dot:
        print(export_dot(graph), end="")
    else:
        payload = {"depth": args.depth, "complete": graph.complete,
                   "bounds": _bounds_echo(bounds),
                   "nodes": [{"id": i, "depth": n.depth,
                              "polynomial": format_polynomial(n.polynomial)}
                             for i, n in enumerate(graph.nodes)],
                   "edges": [{"source": e.source, "target": e.target,
                              "weight": list(e.weight),
                              "factor": format_polynomial(e.factor)}
                             for e in graph.edges]}
        _emit(args, payload, _graph_lines)
    return EXIT_OK if graph.complete else EXIT_INCONCLUSIVE


def _correspondence_lines(payload):
    # the text shows the sorted weight sets as tuples
    return [f"correspondence: {'ok' if payload['ok'] else 'FAILED'}"] + [
        f"  depth {d['depth']}: graph {[tuple(t) for t in d['graph']]} vs "
        f"markov^2 {[tuple(t) for t in d['markov-squared']]} -> "
        f"{d['agree']}" for d in payload["per-depth"]]


def _cmd_markov(args):
    bounds = _bounds(args)
    if not args.correspondence:
        _emit(args, {"levels": [[list(t) for t in lv]
                                for lv in markov_tree(args.depth)]},
              lambda p: [f"depth {d}: {lv}"
                         for d, lv in enumerate(p["levels"])])
        return EXIT_OK
    report = p2_correspondence_check(args.depth, bounds)
    payload = {"ok": report.ok, "complete": report.complete,
               "bounds": _bounds_echo(bounds),
               "per-depth": [
                   {"depth": d,
                    "graph": sorted(list(t) for t in gw),
                    "markov-squared": sorted(list(t) for t in mw),
                    "agree": agree}
                   for d, (gw, mw, agree) in enumerate(report.per_depth)]}
    _emit(args, payload, _correspondence_lines)
    return EXIT_OK if report.complete else EXIT_INCONCLUSIVE


def _cmd_rigid(args):
    f = _read(args.input, "polynomial")
    bounds = _bounds(args)
    report = is_rigid(f, bounds)
    payload = {"verdict": report.verdict,
               "dimension": report.space.dimension,
               "seed-count": report.seed_count,
               "complete": report.complete,
               "bounds": _bounds_echo(bounds)}
    _emit(args, payload, lambda p: [
        f"verdict: {p['verdict']} (space dimension {p['dimension']}, "
        f"{p['seed-count']} seeds, search "
        f"{'complete' if p['complete'] else 'partial'})"])
    return EXIT_INCONCLUSIVE if report.verdict == "inconclusive" else EXIT_OK


def _cmd_pf(args):
    terms = _period_terms(args)
    rec = fit_recurrence(terms, r_max=args.rmax, d_max=args.dmax)
    bounds = {"rmax": args.rmax, "dmax": args.dmax}
    if rec is None:
        _emit(args, {"found": False, "terms": args.terms, "bounds": bounds},
              lambda p: [f"no recurrence with order <= {p['bounds']['rmax']}"
                         f" and degree <= {p['bounds']['dmax']} found from "
                         f"{p['terms']} terms"])
        return EXIT_INCONCLUSIVE
    payload = {"found": True, "order": rec.order, "degree": rec.degree,
               "recurrence": rec.to_string(),
               "coefficients": [list(q) for q in rec.coefficients],
               "operator": to_differential_operator(rec).to_string(),
               "bounds": bounds}
    _emit(args, payload, lambda p: [
        f"recurrence (order {p['order']}, degree {p['degree']}):",
        f"  {p['recurrence']}",
        f"operator: {p['operator']}"])
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_bounds(sub):
    defaults = MutationBounds()
    sub.add_argument("--wmax", type=int, default=defaults.w_max,
                     help="largest slice depth to mutate across "
                          "(default %(default)s)")
    sub.add_argument("--degmax", type=int, default=defaults.deg_max,
                     help="largest factor degree to try (default %(default)s)")


@functools.cache
def build_parser():
    """The fanolab argument parser, built on the first call and shared by
    every later one: ``parse_args`` leaves it unchanged."""
    parser = _Parser(prog="fanolab",
                     description="Laurent polynomial mutation workbench")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--cache", metavar="FILE",
                        help="JSON cache for period/recurrence computations")
    sub = parser.add_subparsers(dest="command", required=True)

    s = sub.add_parser("period", help="classical period coefficients")
    s.add_argument("input")
    s.add_argument("--terms", type=int, default=13)
    s.set_defaults(func=_cmd_period)

    s = sub.add_parser("compare", help="compare two period sequences")
    s.add_argument("input")
    s.add_argument("other", nargs="?")
    s.add_argument("--known", help="reference series tag")
    s.add_argument("--terms", type=int, default=13)
    s.set_defaults(func=_cmd_compare)

    s = sub.add_parser("newton", help="Newton polytope of a polynomial")
    s.add_argument("input")
    s.set_defaults(func=_cmd_newton)

    s = sub.add_parser("dual", help="polar dual polytope")
    s.add_argument("input")
    s.set_defaults(func=_cmd_dual)

    s = sub.add_parser("reflexive", help="test reflexivity")
    s.add_argument("input")
    s.set_defaults(func=_cmd_reflexive)

    s = sub.add_parser("points", help="lattice points of a polytope")
    s.add_argument("input")
    s.set_defaults(func=_cmd_points)

    s = sub.add_parser("weights", help="weighted projective weights of a "
                                       "Fano simplex")
    s.add_argument("input")
    s.set_defaults(func=_cmd_weights)

    s = sub.add_parser("nf", help="lattice normal form of a polytope")
    s.add_argument("input")
    s.set_defaults(func=_cmd_nf)

    s = sub.add_parser("mutate", help="apply one mutation")
    s.add_argument("input")
    s.add_argument("--weight", required=True)
    s.add_argument("--factor", required=True)
    s.set_defaults(func=_cmd_mutate)

    s = sub.add_parser("mutations", help="enumerate mutations within bounds")
    s.add_argument("input")
    _add_bounds(s)
    s.set_defaults(func=_cmd_mutations)

    s = sub.add_parser("graph", help="breadth-first mutation graph")
    s.add_argument("input")
    s.add_argument("--depth", type=int, default=2)
    s.add_argument("--dot", action="store_true", help="emit Graphviz")
    _add_bounds(s)
    s.set_defaults(func=_cmd_graph)

    s = sub.add_parser("markov", help="Markov triple tree")
    s.add_argument("--depth", type=int, default=3)
    s.add_argument("--correspondence", action="store_true",
                   help="compare against the mutation graph of x+y+1/(x*y)")
    _add_bounds(s)
    s.set_defaults(func=_cmd_markov)

    s = sub.add_parser("rigid", help="rigid maximal-mutability verdict")
    s.add_argument("input")
    _add_bounds(s)
    s.set_defaults(func=_cmd_rigid)

    s = sub.add_parser("pf", help="fit a recurrence to the classical period")
    s.add_argument("input")
    s.add_argument("--terms", type=int, default=40)
    s.add_argument("--rmax", type=int, default=6)
    s.add_argument("--dmax", type=int, default=8)
    s.set_defaults(func=_cmd_pf)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with _int_digits(0):
            code = args.func(args)
        # flush here, so that a reader gone early raises inside the try
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the streams are flushed again at exit: point stdout at devnull so
        # that flush is quiet too, and exit 1 as Python does on EPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
