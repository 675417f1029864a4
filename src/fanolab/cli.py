"""Command-line workbench.

Deterministic batch interface over the library: every command reads its
inputs from the arguments, prints either human-readable text or a JSON
document (--json), and exits 0 on success, 1 on bad input, 2 when a bounded
search came back empty or partial (the answer is "inconclusive", not "no").
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from fractions import Fraction

from .laurent import (LaurentPolynomial, ParseError, _norm_coeff,
                      exponent_lattice_index, format_polynomial,
                      parse_polynomial)
from .mmlp import is_rigid
from .mutation import (MutationBounds, MutationData, enumerate_mutations,
                       mutate)
from .mutation_graph import (build_graph, export_dot, markov_tree,
                             p2_correspondence_check)
from .periods import classical_period, known_series, periods_agree, KNOWN_SERIES
from .polytopes import (LatticePolytope, NotSimplexError, dual_polytope,
                        is_fano, is_reflexive, lattice_points, newton_polytope,
                        normal_form, simplex_weights)
from .recurrence import fit_recurrence, to_differential_operator

FORMAT_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# input handling


def _load_text(arg):
    """Inline text, inline JSON, or the content of a file path."""
    if os.path.exists(arg) and not set(arg) & set("+^{ "):
        with open(arg) as fh:
            return fh.read().strip()
    return arg


def _read_polynomial(arg, rank_hint=None):
    text = _load_text(arg)
    try:
        if text.lstrip().startswith("{"):
            return LaurentPolynomial.from_json_dict(json.loads(text))
        return parse_polynomial(text, rank_hint=rank_hint)
    except (ParseError, KeyError, TypeError, ValueError,
            json.JSONDecodeError) as exc:
        raise _CliError(f"cannot read polynomial: {exc}") from exc


def _read_polytope(arg):
    text = _load_text(arg)
    try:
        if text.lstrip().startswith("{"):
            data = json.loads(text)
            if "vertices" in data:
                return LatticePolytope.from_json_dict(data)
            return newton_polytope(LaurentPolynomial.from_json_dict(data))
        return newton_polytope(parse_polynomial(text))
    except (ParseError, KeyError, TypeError, ValueError,
            json.JSONDecodeError) as exc:
        raise _CliError(f"cannot read polytope: {exc}") from exc


def _weight_arg(text):
    try:
        return tuple(int(x) for x in text.replace(",", " ").split())
    except ValueError:
        raise _CliError(f"bad weight {text!r}; expected e.g. '2,-1'")


def _bounds(args):
    try:
        return MutationBounds(w_max=args.wmax, deg_max=args.degmax)
    except ValueError as exc:
        raise _CliError(str(exc))


def _emit(args, payload, text_lines):
    if args.json:
        payload = {"format-version": FORMAT_VERSION, **payload}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
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
        raise _CliError(f"cannot read cache file {path}: {exc}") from exc
    if not isinstance(cache, dict):
        raise _CliError(f"cache file {path} does not hold a JSON object")
    return cache


def _cached_terms(path, cache, key):
    """The period terms cached under key, or None when there is no entry.

    An entry must be an object whose "terms" is a list of exact numbers
    written as ``str(Fraction)`` writes them; anything else is refused.
    """
    if key not in cache:
        return None
    entry = cache[key]
    terms = entry.get("terms") if isinstance(entry, dict) else None
    if not (isinstance(terms, list) and all(map(_is_exact_number, terms))):
        raise _CliError(f"cache file {path} has a malformed entry {key}")
    return terms


def _is_exact_number(text):
    try:
        return str(Fraction(text)) == text
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
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)


def _period_terms(args):
    """The first ``args.terms`` period coefficients of the input, read from
    the ``--cache`` file or computed and added to it.

    Entries are keyed by the polynomial and the term count only, so
    ``period`` and ``pf`` share them.
    """
    f = _read_polynomial(args.input)
    cache = _cache_load(args.cache)
    key = _cache_key("period", {"poly": f.to_json_dict(),
                                "terms": args.terms})
    terms = _cached_terms(args.cache, cache, key)
    if terms is not None:
        return [_norm_coeff(Fraction(c)) for c in terms]
    terms = list(classical_period(f, args.terms).coefficients)
    cache[key] = {"terms": [str(c) for c in terms]}
    _cache_store(args.cache, cache)
    return terms


# ---------------------------------------------------------------------------
# commands


def _cmd_period(args):
    coeffs = [str(c) for c in _period_terms(args)]
    _emit(args, {"terms": coeffs},
          [f"c[{k}] = {c}" for k, c in enumerate(coeffs)])
    return EXIT_OK


def _cmd_compare(args):
    if args.known:
        if args.known not in KNOWN_SERIES:
            raise _CliError(f"unknown series tag {args.known!r}; "
                            f"available: {sorted(KNOWN_SERIES)}")
        ref = known_series(args.known, args.terms)
        label = args.known
    else:
        if args.other is None:
            raise _CliError("compare needs a second polynomial or --known")
        ref = _read_polynomial(args.other)
        label = format_polynomial(ref)
    f = _read_polynomial(args.input)
    agree, where = periods_agree(f, ref, args.terms)
    _emit(args,
          {"agree": agree, "first-mismatch": where, "terms": args.terms},
          [f"periods {'agree' if agree else 'differ'} through "
           f"{args.terms} terms against {label}" +
           ("" if agree else f"; first mismatch at index {where}")])
    return EXIT_OK


def _cmd_newton(args):
    f = _read_polynomial(args.input)
    p = newton_polytope(f)
    rank, index = exponent_lattice_index(f)
    payload = {"vertices": [list(v) for v in p.vertices],
               "dimension": p.dim,
               "exponent-lattice": {"rank": rank, "index": index}}
    lines = [f"vertices: {[list(v) for v in p.vertices]}",
             f"dimension: {p.dim}",
             f"exponent lattice: rank {rank}, index {index}"]
    if p.is_full_dimensional:
        rep = is_fano(p)
        payload["fano"] = rep.is_fano
        lines.append(f"fano: {rep.is_fano}")
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_dual(args):
    p = _read_polytope(args.input)
    d = dual_polytope(p)
    payload = {"vertices": [[str(x) for x in v] for v in d.vertices],
               "integral": d.integral}
    lines = [f"dual vertices: {[[str(x) for x in v] for v in d.vertices]}",
             f"integral: {d.integral}"]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_reflexive(args):
    p = _read_polytope(args.input)
    ans = is_reflexive(p)
    _emit(args, {"reflexive": ans}, [f"reflexive: {ans}"])
    return EXIT_OK


def _cmd_points(args):
    p = _read_polytope(args.input)
    pts = lattice_points(p)
    payload = {"count": len(pts.all),
               "boundary-count": len(pts.boundary),
               "interior-count": len(pts.interior),
               "points": [list(q) for q in pts.all],
               "boundary": [list(q) for q in pts.boundary],
               "interior": [list(q) for q in pts.interior]}
    lines = [f"lattice points: {len(pts.all)} "
             f"({len(pts.boundary)} boundary, {len(pts.interior)} interior)",
             f"boundary: {[list(q) for q in pts.boundary]}",
             f"interior: {[list(q) for q in pts.interior]}"]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_weights(args):
    p = _read_polytope(args.input)
    w = simplex_weights(p)
    _emit(args, {"weights": list(w)}, [f"weights: {list(w)}"])
    return EXIT_OK


def _cmd_nf(args):
    p = _read_polytope(args.input)
    nf = normal_form(p)
    payload = {"matrix": [list(r) for r in nf.matrix],
               "encoding": nf.encoding.hex()}
    lines = [f"normal form rows: {[list(r) for r in nf.matrix]}",
             f"encoding: {nf.encoding.hex()}"]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_mutate(args):
    f = _read_polynomial(args.input)
    factor = _read_polynomial(args.factor, rank_hint=f.rank)
    w = _weight_arg(args.weight)
    try:
        data = MutationData(w, factor)
        g = mutate(f, data)
    except ValueError as exc:
        raise _CliError(str(exc))
    _emit(args, {"result": g.to_json_dict(),
                 "text": format_polynomial(g)},
          [format_polynomial(g)])
    return EXIT_OK


def _cmd_mutations(args):
    f = _read_polynomial(args.input)
    bounds = _bounds(args)
    result = enumerate_mutations(f, bounds)
    payload = {"complete": result.complete,
               "bounds": {"wmax": bounds.w_max, "degmax": bounds.deg_max},
               "seeds": [{"weight": list(s.weight),
                          "factor": format_polynomial(s.factor)}
                         for s in result.seeds]}
    lines = [f"{len(result.seeds)} mutation(s); search "
             f"{'complete' if result.complete else 'partial'} within "
             f"wmax={bounds.w_max} degmax={bounds.deg_max}"]
    lines += [f"  w={list(s.weight)}  F={format_polynomial(s.factor)}"
              for s in result.seeds]
    _emit(args, payload, lines)
    return EXIT_OK if result.complete else EXIT_INCONCLUSIVE


def _cmd_graph(args):
    f = _read_polynomial(args.input)
    bounds = _bounds(args)
    graph = build_graph(f, args.depth, bounds)
    if args.dot:
        print(export_dot(graph), end="")
        return EXIT_OK if graph.complete else EXIT_INCONCLUSIVE
    payload = {"depth": graph.depth, "complete": graph.complete,
               "bounds": {"wmax": bounds.w_max, "degmax": bounds.deg_max},
               "nodes": [{"id": n.index, "depth": n.depth,
                          "polynomial": format_polynomial(n.polynomial)}
                         for n in graph.nodes],
               "edges": [{"source": e.source, "target": e.target,
                          "weight": list(e.weight),
                          "factor": format_polynomial(e.factor)}
                         for e in graph.edges]}
    lines = [f"{len(graph.nodes)} nodes, {len(graph.edges)} edges to depth "
             f"{graph.depth}; search "
             f"{'complete' if graph.complete else 'partial'}"]
    for n in graph.nodes:
        lines.append(f"  [{n.index}] depth {n.depth}: "
                     f"{format_polynomial(n.polynomial)}")
    for e in graph.edges:
        lines.append(f"  {e.source} -> {e.target}  w={list(e.weight)} "
                     f"F={format_polynomial(e.factor)}")
    _emit(args, payload, lines)
    return EXIT_OK if graph.complete else EXIT_INCONCLUSIVE


def _cmd_markov(args):
    if args.correspondence:
        bounds = _bounds(args)
        report = p2_correspondence_check(args.depth, bounds)
        payload = {"ok": report.ok, "complete": report.complete,
                   "bounds": {"wmax": bounds.w_max,
                              "degmax": bounds.deg_max},
                   "per-depth": [
                       {"depth": d,
                        "graph": sorted(list(t) for t in gw),
                        "markov-squared": sorted(list(t) for t in mw),
                        "agree": agree}
                       for d, (gw, mw, agree)
                       in enumerate(report.per_depth)]}
        lines = [f"correspondence: {'ok' if report.ok else 'FAILED'}"]
        for d, (gw, mw, agree) in enumerate(report.per_depth):
            lines.append(f"  depth {d}: graph {sorted(gw)} vs "
                         f"markov^2 {sorted(mw)} -> {agree}")
        _emit(args, payload, lines)
        return EXIT_OK if report.complete else EXIT_INCONCLUSIVE
    levels = markov_tree(args.depth)
    payload = {"levels": [[list(t) for t in lv] for lv in levels]}
    lines = [f"depth {d}: {[list(t) for t in lv]}"
             for d, lv in enumerate(levels)]
    _emit(args, payload, lines)
    return EXIT_OK


def _cmd_rigid(args):
    f = _read_polynomial(args.input)
    bounds = _bounds(args)
    try:
        report = is_rigid(f, bounds)
    except (ValueError, NotSimplexError) as exc:
        raise _CliError(str(exc))
    payload = {"verdict": report.verdict,
               "dimension": report.space.dimension,
               "seed-count": report.seed_count,
               "complete": report.complete,
               "bounds": {"wmax": bounds.w_max, "degmax": bounds.deg_max}}
    lines = [f"verdict: {report.verdict} "
             f"(space dimension {report.space.dimension}, "
             f"{report.seed_count} seeds, search "
             f"{'complete' if report.complete else 'partial'})"]
    _emit(args, payload, lines)
    return EXIT_INCONCLUSIVE if report.verdict == "inconclusive" else EXIT_OK


def _cmd_pf(args):
    terms = _period_terms(args)
    rec = fit_recurrence(terms, r_max=args.rmax, d_max=args.dmax)
    if rec is None:
        _emit(args, {"found": False, "terms": args.terms,
                     "bounds": {"rmax": args.rmax, "dmax": args.dmax}},
              [f"no recurrence with order <= {args.rmax} and degree <= "
               f"{args.dmax} found from {args.terms} terms"])
        return EXIT_INCONCLUSIVE
    op = to_differential_operator(rec)
    payload = {"found": True, "order": rec.order, "degree": rec.degree,
               "recurrence": rec.to_string(),
               "coefficients": [list(q) for q in rec.coefficients],
               "operator": op.to_string(),
               "bounds": {"rmax": args.rmax, "dmax": args.dmax}}
    lines = [f"recurrence (order {rec.order}, degree {rec.degree}):",
             f"  {rec.to_string()}",
             f"operator: {op.to_string()}"]
    _emit(args, payload, lines)
    return EXIT_OK


# ---------------------------------------------------------------------------


def _add_bounds(sub):
    sub.add_argument("--wmax", type=int, default=12,
                     help="largest slice depth to mutate across (default 12)")
    sub.add_argument("--degmax", type=int, default=6,
                     help="largest factor degree to try (default 6)")


def build_parser():
    parser = _Parser(prog="fanolab",
                     description="Laurent polynomial mutation workbench")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    parser.add_argument("--cache", metavar="FILE",
                        help="JSON cache for period/recurrence computations")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for interface compatibility; all "
                             "computations run single-threaded for "
                             "determinism")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
