import pytest

from fanolab import mutation, mutation_graph
from fanolab.laurent import parse_polynomial
from fanolab.mutation import (MutationBounds, canonicalize_shear,
                              enumerate_mutations, mutate)
from fanolab.mutation_graph import (GraphEdge, GraphNode, MutationGraph,
                                    build_graph, export_dot, markov_tree,
                                    p2_correspondence_check)
from fanolab.periods import periods_agree
from fanolab.polytopes import newton_polytope, simplex_weights

from test_golden import POLYGON_POLYS

P2 = "x + y + x^-1*y^-1"


def test_markov_tree_levels():
    levels = markov_tree(3)
    assert levels[0] == [(1, 1, 1)]
    assert levels[1] == [(1, 1, 2)]
    assert levels[2] == [(1, 2, 5)]
    assert sorted(levels[3]) == [(1, 5, 13), (2, 5, 29)]
    # every triple solves the Markov equation a^2 + b^2 + c^2 = 3abc
    for level in markov_tree(5):
        for (a, b, c) in level:
            assert a * a + b * b + c * c == 3 * a * b * c


def test_no_markov_child_is_its_own_triple():
    """markov_tree does not test for it: 3bc - a = a would need
    b^2 + c^2 = 9b^2c^2/4 by the Markov equation."""
    for level in markov_tree(12):
        for a, b, c in level:
            for child in ((3 * b * c - a, b, c), (a, 3 * a * c - b, c),
                          (a, b, 3 * a * b - c)):
                assert tuple(sorted(child)) != (a, b, c)


def test_graph_depth_one():
    f = parse_polynomial(P2)
    graph = build_graph(f, 1)
    assert graph.complete
    assert len(graph.nodes_at_depth(0)) == 1
    children = graph.nodes_at_depth(1)
    assert len(children) == 3
    for n in children:
        assert simplex_weights(newton_polytope(n.polynomial)) == (1, 1, 4)
        assert periods_agree(f, n.polynomial, 10) == (True, None)


def test_graph_prunes_reverse_edges():
    f = parse_polynomial(P2)
    graph = build_graph(f, 2)
    # each depth-1 node has three mutations but one returns to the root
    assert len(graph.nodes_at_depth(2)) == 6
    assert len(graph.edges) == len(graph.nodes) - 1


def test_graph_period_invariance():
    f = parse_polynomial(P2)
    graph = build_graph(f, 2)
    for n in graph.nodes:
        assert periods_agree(f, n.polynomial, 10) == (True, None)


def test_correspondence_depth_two():
    report = p2_correspondence_check(2)
    assert report.ok and report.complete
    depth2_graph, depth2_markov, agree = report.per_depth[2]
    assert agree
    assert depth2_graph == {(1, 4, 25)}


def test_export_dot_deterministic():
    f = parse_polynomial(P2)
    graph = build_graph(f, 1)
    out = export_dot(graph)
    assert out == export_dot(build_graph(f, 1))
    assert out.startswith("digraph")
    assert out.count("->") == len(graph.edges)
    assert "(1, 1, 4)" in out


def test_graph_slices_each_seed_once(monkeypatch):
    # the witness of is_mutable carries every slice, so mutate slices nothing
    calls = {"weight_decomposition": 0, "is_mutable": 0}
    for name in calls:
        original = getattr(mutation, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(mutation, name, counted)
    graph = build_graph(parse_polynomial(P2), 3)
    assert len(graph.nodes) == 22
    assert calls == {"weight_decomposition": 30, "is_mutable": 30}


def _build_graph_by_incident_labels(f, depth, bounds=MutationBounds()):
    """The reference search: a seed is skipped when the node has an incident
    edge of the same weight line and factor whose other end is
    shear-equivalent to the seed's result."""
    nodes, edges = [GraphNode(f, 0)], []
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
                label = max(seed.key, seed.inverse().key)
                if any(lab == label and g == canonicalize_shear(
                        nodes[nbr].polynomial, seed.weight)
                       for lab, nbr in incident[idx]):
                    continue
                new = len(nodes)
                nodes.append(GraphNode(g, level + 1))
                incident[new] = [(label, idx)]
                incident[idx].append((label, new))
                edges.append(GraphEdge(idx, new, seed.weight, seed.factor))
                next_frontier.append(new)
        frontier = next_frontier
    return MutationGraph(tuple(nodes), tuple(edges), complete)


HEXAGON = POLYGON_POLYS[9]
SQUARE = POLYGON_POLYS[14]  # the square's maximally mutable polynomial


@pytest.mark.parametrize("text, depth", [(p, 2) for p in POLYGON_POLYS]
                         + [(P2, 3), (HEXAGON, 3), (SQUARE, 3)])
def test_pruning_the_way_back_matches_the_incident_label_rule(text, depth):
    # the reference expands every node afresh; at depth 3 the hexagon and
    # the square reach equal polynomials by different paths
    f = parse_polynomial(text)
    assert build_graph(f, depth) == _build_graph_by_incident_labels(f, depth)


def test_graph_expands_each_polynomial_and_completes_each_basis_once(
        monkeypatch):
    counts = {"enumerate_mutations": [], "mutate": [],
              "complete_to_basis_last_row": []}
    for module, name in [(mutation_graph, "enumerate_mutations"),
                         (mutation_graph, "mutate"),
                         (mutation, "complete_to_basis_last_row")]:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            counts[_name].append(args)
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    graph = build_graph(parse_polynomial(SQUARE), 3)
    expanded = [n.polynomial for n in graph.nodes if n.depth < 3]
    assert len(graph.nodes) == 457
    assert len(counts["enumerate_mutations"]) == len(set(expanded)) \
        < len(expanded)
    children = {(graph.nodes[e.source].polynomial, e.weight, e.factor)
                for e in graph.edges}
    assert len(counts["mutate"]) == len(children) < len(graph.edges)
    weights = [w for w, in counts["complete_to_basis_last_row"]]
    assert sorted(weights) == sorted({e.weight for e in graph.edges})
