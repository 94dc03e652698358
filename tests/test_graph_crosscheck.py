"""Graph queries checked against networkx, used here as an independent reference."""

import random

import pytest

from conftest import random_framework
from prefarg import Framework
from prefarg.framework import _bfs_path, _strongly_connected

nx = pytest.importorskip("networkx")


def random_frameworks(seed: int, count: int = 200):
    """Random digraphs with self-attacks allowed, plus a few isolated arguments."""
    rng = random.Random(seed)
    for _ in range(count):
        core = random_framework(rng, rng.randrange(0, 9), rng.random() * 0.4)
        isolated = [f"y{i}" for i in range(rng.randrange(0, 3))]
        yield Framework(core.arguments | set(isolated), core.attacks)


def as_digraph(framework: Framework):
    graph = nx.DiGraph()
    graph.add_nodes_from(framework.arguments)
    graph.add_edges_from(framework.attacks)
    return graph


def test_connected_components_match_networkx():
    for fw in random_frameworks(51):
        expected = {frozenset(c) for c in nx.weakly_connected_components(as_digraph(fw))}
        components = fw.connected_components()
        assert set(components) == expected
        assert len(components) == len(expected)
        smallest = [min(c) for c in components]
        assert smallest == sorted(smallest)


def test_has_cycle_matches_networkx():
    saw = set()
    for fw in random_frameworks(52):
        cyclic = not nx.is_directed_acyclic_graph(as_digraph(fw))
        assert fw.has_cycle() == cyclic
        saw.add(cyclic)
    assert saw == {True, False}


def test_strongly_connected_matches_networkx():
    for fw in random_frameworks(53):
        successors = {a: sorted(fw._targets[a]) for a in fw.arguments}
        component = _strongly_connected(sorted(fw.arguments), successors.__getitem__)
        blocks: dict[int, set[str]] = {}
        for name, block in component.items():
            blocks.setdefault(block, set()).add(name)
        expected = {frozenset(c) for c in nx.strongly_connected_components(as_digraph(fw))}
        assert {frozenset(b) for b in blocks.values()} == expected


def boundaries(rng: random.Random, framework: Framework):
    """The whole argument set, then a random proper subset of it (when there is one)."""
    yield framework.arguments
    if framework.arguments:
        drop = rng.choice(sorted(framework.arguments))
        yield frozenset(a for a in framework.arguments if a != drop and rng.random() < 0.7)


def test_cyclic_core_is_the_nontrivial_sccs_and_their_descendants():
    rng = random.Random(56)
    saw_partial = False
    for fw in random_frameworks(54):
        for within in boundaries(rng, fw):
            graph = as_digraph(fw).subgraph(within)
            expected = set()
            for scc in nx.strongly_connected_components(graph):
                node = next(iter(scc))
                if len(scc) > 1 or graph.has_edge(node, node):
                    expected |= scc
                    expected |= nx.descendants(graph, node)
            core = fw._cyclic_core(within)
            assert core == expected
            assert all(fw._attackers[a] & core for a in core)
            saw_partial |= bool(core) and core != within
    assert saw_partial


def test_layer_depths_are_undirected_distances_inside_the_boundary():
    rng = random.Random(57)
    for fw in random_frameworks(58):
        for within in boundaries(rng, fw):
            graph = as_digraph(fw).subgraph(within).to_undirected()
            seeds = [a for a in sorted(within) if rng.random() < 0.3]
            depth = {}
            reached = fw._layer(seeds, depth, within)
            expected = nx.multi_source_dijkstra_path_length(graph, seeds) if seeds else {}
            assert depth == expected
            assert sorted(reached) == sorted(expected)


def test_strongly_connected_numbers_sinks_first():
    for fw in random_frameworks(55):
        successors = {a: sorted(fw._targets[a]) for a in fw.arguments}
        component = _strongly_connected(sorted(fw.arguments), successors.__getitem__)
        for src, dst in fw.attacks:
            assert component[src] >= component[dst]


def test_bfs_path_is_a_shortest_path_inside_a_strong_component():
    rng = random.Random(59)
    lengths = set()
    for fw in random_frameworks(60):
        graph = as_digraph(fw)
        successors = {a: sorted(fw._targets[a]) for a in fw.arguments}
        for scc in nx.strongly_connected_components(graph):
            members = sorted(scc)
            start, goal = rng.choice(members), rng.choice(members)
            path = _bfs_path(start, goal, successors.__getitem__)
            assert path[0] == start and path[-1] == goal
            assert all(graph.has_edge(src, dst) for src, dst in zip(path, path[1:]))
            assert len(path) == len(nx.shortest_path(graph, start, goal))
            lengths.add(len(path))
    assert {1, 2, 3} <= lengths
