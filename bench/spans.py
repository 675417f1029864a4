"""Span tracing of the program's layers, from outside the program.

``Tracer.install`` replaces every fanolab module's own binding of each
traced function with one wrapper per function (``from .linalg import rref``
binds ``rref`` separately in linalg, polytopes and mmlp), wraps
``LaurentPolynomial.__mul__``/``__rmul__``/``__pow__`` and
``LatticePolytope.from_points``, and gives ``fanolab.mutation`` a view of
sympy whose ``factor_list`` is traced.  Each call records a span (name,
start, end, parent span, job id) in memory; ``write`` dumps them and
``metrics`` derives the per-layer numbers, self times included.
"""

import importlib
import time
import types

# span name -> (module, attribute); the span name is the metric prefix
FUNCTIONS = {
    "laurent.parse": ("laurent", "parse_polynomial"),
    "periods.classical_period": ("periods", "classical_period"),
    "recurrence.fit_recurrence": ("recurrence", "fit_recurrence"),
    "recurrence.verify_recurrence": ("recurrence", "verify_recurrence"),
    "recurrence.to_differential_operator": ("recurrence",
                                            "to_differential_operator"),
    "linalg.rref": ("linalg", "rref"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "linalg.hnf_rows": ("linalg", "hnf_rows"),
    "linalg.solve_affine": ("linalg", "solve_affine"),
    "polytopes.newton_polytope": ("polytopes", "newton_polytope"),
    "polytopes.dual_polytope": ("polytopes", "dual_polytope"),
    "polytopes.lattice_points": ("polytopes", "lattice_points"),
    "polytopes.normal_form": ("polytopes", "normal_form"),
    "polytopes.simplex_weights": ("polytopes", "simplex_weights"),
    "mutation.enumerate_mutations": ("mutation", "enumerate_mutations"),
    "mutation.is_mutable": ("mutation", "is_mutable"),
    "mutation.exact_divide": ("mutation", "exact_divide"),
    "mutation.mutate": ("mutation", "mutate"),
    "mutation.canonicalize_shear": ("mutation", "canonicalize_shear"),
    "mutation.shear_equivalent": ("mutation", "shear_equivalent"),
    "mutation_graph.build_graph": ("mutation_graph", "build_graph"),
    "mutation_graph.p2_correspondence_check": ("mutation_graph",
                                               "p2_correspondence_check"),
    "mmlp.seed_set": ("mmlp", "seed_set"),
    "mmlp.coefficient_space": ("mmlp", "coefficient_space"),
    "mmlp.is_rigid": ("mmlp", "is_rigid"),
    "cli.main": ("cli", "main"),
}
MODULES = ("laurent", "periods", "recurrence", "linalg", "polytopes",
           "mutation", "mutation_graph", "mmlp", "cli")

# Spans each workload must record at least once; a traced run that sees
# none of one of them fails, because its layer metrics would read zero.
EXPECTED = {
    "periods": ("laurent.mul", "laurent.parse", "periods.classical_period",
                "recurrence.fit_recurrence", "recurrence.verify_recurrence",
                "recurrence.to_differential_operator", "linalg.rref",
                "linalg.nullspace", "cli.main"),
    "mutation-graph": ("laurent.mul", "laurent.pow", "laurent.parse",
                       "linalg.rref", "polytopes.from_points",
                       "polytopes.simplex_weights",
                       "mutation.enumerate_mutations", "mutation.is_mutable",
                       "mutation.exact_divide", "mutation.mutate",
                       "mutation.canonicalize_shear", "mutation.factor_list",
                       "mutation_graph.build_graph", "cli.main"),
    "rigidity": ("laurent.mul", "laurent.pow", "laurent.parse",
                 "linalg.rref", "linalg.nullspace", "linalg.hnf_rows",
                 "linalg.solve_affine", "polytopes.from_points",
                 "polytopes.lattice_points", "polytopes.normal_form",
                 "mmlp.seed_set", "mmlp.coefficient_space", "mmlp.is_rigid",
                 "cli.main"),
}


class _SympyView(types.ModuleType):
    """sympy as ``fanolab.mutation`` sees it, with a traced factor_list."""

    def __init__(self, real, factor_list):
        super().__init__(real.__name__)
        self._real = real
        self.factor_list = factor_list

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.job = None
        self.span_names = []
        self.names, self.parents, self.jobs = [], [], []
        self.starts, self.ends, self.values = [], [], {}
        self._stack = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, probe=None):
        """A wrapper recording one span per call of fn.  ``probe(args,
        result)`` gives a value stored with the span."""
        if name not in self.span_names:
            self.span_names.append(name)
        sid = self.span_names.index(name)
        names, parents, jobs = self.names, self.parents, self.jobs
        starts, ends, values, stack = (self.starts, self.ends, self.values,
                                       self._stack)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            k = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            ends.append(0.0)
            stack.append(k)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[k] = clock()
                stack.pop()
            if probe is not None:
                values[k] = probe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        mods = {m: importlib.import_module(f"fanolab.{m}") for m in MODULES}
        for name, (mod, attr) in FUNCTIONS.items():
            original = getattr(mods[mod], attr)
            wrapper = self.wrap(name, original, _PROBES.get(name))
            for m in mods.values():
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
        poly = mods["laurent"].LaurentPolynomial
        mul = self.wrap("laurent.mul", poly.__mul__, _mul_probe)
        poly.__mul__ = poly.__rmul__ = mul
        poly.__pow__ = self.wrap("laurent.pow", poly.__pow__)
        lp = mods["polytopes"].LatticePolytope
        from_points = lp.__dict__["from_points"].__func__

        def counted(cls, points, rank=None):
            return from_points(cls, list(points), rank)

        lp.from_points = classmethod(self.wrap(
            "polytopes.from_points", counted,
            lambda args, result: len(args[1])))
        mutation = mods["mutation"]
        mutation.sympy = _SympyView(mutation.sympy, self.wrap(
            "mutation.factor_list", mutation.sympy.factor_list))

    # -- output ------------------------------------------------------------

    def write(self, path):
        """One line per span: id, name, start, end, parent, job."""
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,job\n")
            for k, sid in enumerate(self.names):
                fh.write(f"{k},{self.span_names[sid]},{self.starts[k]:.9f},"
                         f"{self.ends[k]:.9f},{self.parents[k]},"
                         f"{self.jobs[k]}\n")

    def calls(self):
        counts = dict.fromkeys(self.span_names, 0)
        for sid in self.names:
            counts[self.span_names[sid]] += 1
        return counts

    def _under(self, k, ancestor):
        p = self.parents[k]
        while p >= 0:
            if self.names[p] == ancestor:
                return True
            p = self.parents[p]
        return False

    def metrics(self):
        """Per span name: calls, inclusive and self seconds, plus the
        derived layer counters; see ``per_layer``."""
        n = len(self.names)
        child = [0.0] * n
        for k in range(n):
            if self.parents[k] >= 0:
                child[self.parents[k]] += self.ends[k] - self.starts[k]
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0, "values": []}
                 for name in self.span_names}
        for k in range(n):
            sid = self.names[k]
            st = stats[self.span_names[sid]]
            dur = self.ends[k] - self.starts[k]
            st["calls"] += 1
            st["self_s"] += dur - child[k]
            if not self._under(k, sid):
                st["s"] += dur
            if k in self.values:
                st["values"].append((k, self.values[k]))
        return per_layer(self, stats)


# -- probes: counts taken at the layer boundary -----------------------------


def _mul_probe(args, result):
    a, b = args
    if hasattr(b, "terms"):
        return (len(a.terms) * len(b.terms), len(result.terms))
    return (0, len(result.terms))


def _rref_probe(args, result):
    matrix = args[0]
    rows = len(matrix)
    return (rows * (len(matrix[0]) if rows else 0), rows)


def _lattice_points_probe(args, result):
    lo, hi = args[0].bounding_box()
    box = 1
    for a, b in zip(lo, hi):
        box *= b - a + 1
    return (box, len(result.all))


_PROBES = {
    "linalg.rref": _rref_probe,
    "polytopes.lattice_points": _lattice_points_probe,
    "mutation.enumerate_mutations": lambda args, r: len(r.seeds),
    "mutation.is_mutable": lambda args, r: int(hasattr(r, "quotients")),
    "mutation.exact_divide": lambda args, r: int(r is not None),
    "mutation_graph.build_graph": lambda args, r: (len(r.nodes),
                                                   len(r.edges)),
    "mmlp.seed_set": lambda args, r: len(r.seeds),
    "mmlp.coefficient_space": lambda args, r: len(r.free_points),
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer, stats):
    """The per-layer metric values, by metric name."""
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "values": []}

    def st(name):
        return stats.get(name, empty)

    def vals(name):
        return [v for _, v in st(name)["values"]]

    mul = vals("laurent.mul")
    rref = vals("linalg.rref")
    lattice = vals("polytopes.lattice_points")
    graphs = vals("mutation_graph.build_graph")
    is_mutable = vals("mutation.is_mutable")
    divide = vals("mutation.exact_divide")
    graph_sid = tracer.span_names.index("mutation_graph.build_graph")
    fit_sid = tracer.span_names.index("recurrence.fit_recurrence")
    seeds = sum(v for k, v in st("mutation.enumerate_mutations")["values"]
                if tracer._under(k, graph_sid))
    edges = sum(e for _, e in graphs)
    null_sid = tracer.span_names.index("linalg.nullspace")
    systems = sum(1 for k, sid in enumerate(tracer.names)
                  if sid == null_sid and tracer._under(k, fit_sid))
    box = sum(b for b, _ in lattice)
    return {
        "laurent.mul.calls": st("laurent.mul")["calls"],
        "laurent.mul.self_s": st("laurent.mul")["self_s"],
        "laurent.mul.term_pairs": sum(p for p, _ in mul),
        "laurent.mul.max_terms": max((t for _, t in mul), default=0),
        "laurent.pow.calls": st("laurent.pow")["calls"],
        "laurent.pow.s": st("laurent.pow")["s"],
        "laurent.parse.s": st("laurent.parse")["s"],
        "periods.classical_period.calls":
            st("periods.classical_period")["calls"],
        "periods.classical_period.s": st("periods.classical_period")["s"],
        "recurrence.fit_recurrence.s": st("recurrence.fit_recurrence")["s"],
        "recurrence.systems": systems,
        "recurrence.verify_recurrence.s":
            st("recurrence.verify_recurrence")["s"],
        "recurrence.to_differential_operator.s":
            st("recurrence.to_differential_operator")["s"],
        "linalg.rref.calls": st("linalg.rref")["calls"],
        "linalg.rref.self_s": st("linalg.rref")["self_s"],
        "linalg.rref.cells": sum(c for c, _ in rref),
        "linalg.rref.max_rows": max((r for _, r in rref), default=0),
        "linalg.nullspace.calls": st("linalg.nullspace")["calls"],
        "linalg.hnf_rows.calls": st("linalg.hnf_rows")["calls"],
        "linalg.hnf_rows.s": st("linalg.hnf_rows")["s"],
        "linalg.solve_affine.s": st("linalg.solve_affine")["s"],
        "polytopes.from_points.calls": st("polytopes.from_points")["calls"],
        "polytopes.from_points.self_s":
            st("polytopes.from_points")["self_s"],
        "polytopes.from_points.points": sum(vals("polytopes.from_points")),
        "polytopes.lattice_points.s": st("polytopes.lattice_points")["s"],
        "polytopes.lattice_points.box_points": box,
        "polytopes.lattice_points.hit_ratio":
            _ratio(sum(k for _, k in lattice), box),
        "polytopes.normal_form.s": st("polytopes.normal_form")["s"],
        "polytopes.simplex_weights.s": st("polytopes.simplex_weights")["s"],
        "mutation.enumerate_mutations.s":
            st("mutation.enumerate_mutations")["s"],
        "mutation.is_mutable.calls": st("mutation.is_mutable")["calls"],
        "mutation.is_mutable.witness_ratio":
            _ratio(sum(is_mutable), len(is_mutable)),
        "mutation.exact_divide.calls": st("mutation.exact_divide")["calls"],
        "mutation.exact_divide.self_s":
            st("mutation.exact_divide")["self_s"],
        "mutation.exact_divide.ok_ratio": _ratio(sum(divide), len(divide)),
        "mutation.mutate.s": st("mutation.mutate")["s"],
        "mutation.canonicalize_shear.s":
            st("mutation.canonicalize_shear")["s"],
        "mutation.factor_list.calls": st("mutation.factor_list")["calls"],
        "mutation.factor_list.s": st("mutation.factor_list")["s"],
        "mutation_graph.build_graph.s": st("mutation_graph.build_graph")["s"],
        "mutation_graph.nodes": sum(n for n, _ in graphs),
        "mutation_graph.seeds": seeds,
        "mutation_graph.pruned_ratio": _ratio(seeds - edges, seeds),
        "mmlp.seed_set.s": st("mmlp.seed_set")["s"],
        "mmlp.seeds": sum(vals("mmlp.seed_set")),
        "mmlp.coefficient_space.s": st("mmlp.coefficient_space")["s"],
        "mmlp.unknowns": sum(vals("mmlp.coefficient_space")),
        "mmlp.is_rigid.s": st("mmlp.is_rigid")["s"],
        "cli.main.calls": st("cli.main")["calls"],
        "cli.main.self_s": st("cli.main")["self_s"],
    }

