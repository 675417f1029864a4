"""Breadth-first mutation graphs and the Markov-tree comparison.

Each node carries a shear-canonicalized Laurent polynomial.  An edge records
the mutation applied.  Expanding a node skips one seed: the inverse (-w, F)
of the seed (w, F) by which the node was reached, because it leads back to
the parent.  Every other seed gives a new branch; see ``build_graph``.
"""

from __future__ import annotations

from collections import namedtuple

from .laurent import format_polynomial, parse_polynomial
from .mutation import enumerate_mutations, mutate
from .polytopes import newton_polytope, simplex_weights


class GraphNode(namedtuple("GraphNode", "polynomial depth")):
    __slots__ = ()


class GraphEdge(namedtuple("GraphEdge", "source target weight factor")):
    __slots__ = ()


class MutationGraph(namedtuple("MutationGraph", "nodes edges complete")):
    __slots__ = ()

    def nodes_at_depth(self, d):
        return [n for n in self.nodes if n.depth == d]


# the deepest mutation graph built: each level multiplies the nodes, and on
# a 2-core 2.1 GHz Xeon depth 4 takes 0.8-0.9 s for x + y + 1/(x*y) (46
# nodes, all distinct), 1.3-1.7 s for the square's maximally mutable
# polynomial (3,201 nodes on 1,146 distinct polynomials; 1.8-1.9 s when
# every node was expanded) and 0.13-0.16 s for x + y + 1/x + 1/y, while
# x + y + 1/(x*y) at depth 5 was still running after 150 s
GRAPH_DEPTH_CAP = 4


def build_graph(f, depth, bounds=None):
    """Breadth-first mutation graph of f out to the given depth.

    A node reached by the seed (w, F) skips its inverse (-w, F) and no
    other seed.  That prunes exactly the seeds whose result is
    shear-equivalent to a neighbour joined by an edge of the same weight
    line and factor:

    - Mutating by (-w, F) undoes (w, F): level i of the result is
      f_i * F^i * F^-i.  So the way back always leads to the parent.
    - Any other seed of that edge label is the arriving seed (w, F) itself,
      or the inverse of a child's seed.  Either way, at every nonzero level
      i the result differs from the neighbour by F^(2i) or F^(-2i).  A
      shear multiplies each level by a monomial, and every enumerated F has
      at least two terms, so F^(2i) is no monomial.  The polynomials are
      full-dimensional (``enumerate_mutations`` requires it), so some level
      is nonzero and the result is new.

    The search keeps one edge-factor memo for every node it expands, so
    a primitive edge row met again is not factored again.  It owns two more
    dicts: ``expanded`` maps each polynomial it expanded to its
    ``enumerate_mutations`` result and its children by seed key, so an
    equal polynomial reached by another path reuses both and mutates only
    a seed that no earlier equal node took; ``bases`` holds the basis
    completion of each weight that ``canonicalize_shear`` needed.  A depth
    above ``GRAPH_DEPTH_CAP`` raises ValueError before the first
    enumeration.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > GRAPH_DEPTH_CAP:
        raise ValueError(f"depth {depth} is above {GRAPH_DEPTH_CAP}")
    nodes = [GraphNode(f, 0)]
    edges = []
    complete = True
    # node index -> key of the inverse (-w, F) of its arriving seed (w, F);
    # F is already translated and lies on the wall of -w, so the key is
    # read off the seed without validating (-w, F) again
    back = [None]
    frontier = [0]
    memo, bases, expanded = {}, {}, {}
    for level in range(depth):
        next_frontier = []
        for idx in frontier:
            poly = nodes[idx].polynomial
            if poly not in expanded:
                expanded[poly] = enumerate_mutations(poly, bounds, memo), {}
            result, children = expanded[poly]
            complete = complete and result.complete
            for witness in result.witnesses:
                seed = witness.data
                key = seed.key
                if key == back[idx]:
                    continue
                if key not in children:
                    children[key] = mutate(poly, seed, witness, bases)
                new = len(nodes)
                nodes.append(GraphNode(children[key], level + 1))
                back.append((tuple(-x for x in seed.weight), key[1]))
                edges.append(GraphEdge(idx, new, seed.weight, seed.factor))
                next_frontier.append(new)
        frontier = next_frontier
    return MutationGraph(tuple(nodes), tuple(edges), complete)


def export_dot(graph):
    """Deterministic Graphviz rendering of a mutation graph."""
    lines = ["digraph mutations {"]
    for i, n in enumerate(graph.nodes):
        try:
            extra = " | " + str(simplex_weights(newton_polytope(n.polynomial)))
        except ValueError:
            extra = ""
        label = format_polynomial(n.polynomial) + extra
        lines.append(f'  n{i} [label="{label}"];')
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
                # never the triple: 3bc = 2a forces b^2 + c^2 = 9b^2c^2/4
                if child == parent or child in seen:
                    continue
                seen.add(child)
                nxt.append((child, triple))
        levels.append(nxt)
    return [[t for t, _ in level] for level in levels]


class CorrespondenceReport(namedtuple("CorrespondenceReport",
                                      "per_depth ok complete")):
    """``per_depth`` holds one (graph_weight_sets, markov_squared_sets,
    agree) triple per depth."""

    __slots__ = ()


def p2_correspondence_check(depth, bounds=None):
    """Compare the mutation graph of x + y + 1/(x*y) against the Markov tree.

    At each depth the set of weighted-projective weight triples read off the
    graph nodes must equal the set of componentwise squares of the Markov
    triples first appearing at that depth.  A depth above
    ``GRAPH_DEPTH_CAP`` raises ValueError in ``build_graph`` before the first
    enumeration.
    """
    markov = markov_tree(depth)  # first, so that a refused depth costs nothing
    graph = build_graph(parse_polynomial("x + y + x^-1*y^-1"), depth, bounds)
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
