"""Property tests for dominators, loops and call-graph condensation
against networkx oracles."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cfg.callgraph import condense
from repro.cfg.dominators import compute_dominators, immediate_dominators
from repro.cfg.loops import natural_loops
from repro.cfg.model import BasicBlock, Function


def _function_from_edges(n_blocks, edges):
    """Build a synthetic Function with the given block graph."""
    function = Function(name="f", addr=0, size=4 * n_blocks)
    for i in range(n_blocks):
        function.blocks[i] = BasicBlock(addr=i, insns=[])
    for src, dst in edges:
        if dst not in function.blocks[src].successors:
            function.blocks[src].successors.append(dst)
    return function


graphs = st.integers(min_value=2, max_value=10).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=3 * n,
        ),
    )
)


@settings(max_examples=120, deadline=None)
@given(graphs)
def test_immediate_dominators_match_networkx(graph_spec):
    n_blocks, edges = graph_spec
    # Ensure some connectivity from the entry.
    edges = [(0, min(1, n_blocks - 1))] + edges
    function = _function_from_edges(n_blocks, edges)

    ours = immediate_dominators(function)

    g = nx.DiGraph()
    g.add_nodes_from(range(n_blocks))
    g.add_edges_from((s, d) for s, d in edges)
    theirs = nx.immediate_dominators(g, 0)

    for node, idom in theirs.items():
        if node == 0:
            continue
        assert ours.get(node) == idom, (node, ours.get(node), idom)


@settings(max_examples=120, deadline=None)
@given(graphs)
def test_dominator_sets_are_consistent(graph_spec):
    n_blocks, edges = graph_spec
    edges = [(0, min(1, n_blocks - 1))] + edges
    function = _function_from_edges(n_blocks, edges)
    dom = compute_dominators(function)
    # Entry dominates itself and appears in every reachable node's set.
    g = nx.DiGraph()
    g.add_nodes_from(range(n_blocks))
    g.add_edges_from((s, d) for s, d in edges)
    reachable = nx.descendants(g, 0) | {0}
    for node in reachable:
        assert 0 in dom[node]
        assert node in dom[node]


@settings(max_examples=100, deadline=None)
@given(graphs)
def test_loop_bodies_contain_their_headers(graph_spec):
    n_blocks, edges = graph_spec
    edges = [(0, min(1, n_blocks - 1))] + edges
    function = _function_from_edges(n_blocks, edges)
    for loop in natural_loops(function):
        assert loop.header in loop.body
        source, dest = loop.back_edge
        assert dest == loop.header
        assert source in loop.body


def test_self_loop_detected():
    function = _function_from_edges(2, [(0, 1), (1, 1)])
    loops = natural_loops(function)
    assert len(loops) == 1
    assert loops[0].header == 1
    assert loops[0].body == {1}


def test_nested_loops_share_outer_body():
    # 0 -> 1 -> 2 -> 1 (inner), 2 -> 0? keep entry dominance: 0->1->2->3->1
    function = _function_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 1),
                                        (2, 1)])
    loops = natural_loops(function)
    headers = {loop.header for loop in loops}
    assert headers == {1}
    (loop,) = loops
    assert {1, 2, 3} <= loop.body


def _adjacency(n_nodes, edges):
    adjacency = {node: [] for node in range(n_nodes)}
    for src, dst in edges:
        adjacency[src].append(dst)
    return adjacency


@settings(max_examples=200, deadline=None)
@given(graphs)
def test_condensation_matches_networkx(graph_spec):
    n_nodes, edges = graph_spec
    adjacency = _adjacency(n_nodes, edges)
    sccs = condense(adjacency)

    g = nx.DiGraph()
    g.add_nodes_from(range(n_nodes))
    g.add_edges_from(edges)
    theirs = {frozenset(c) for c in nx.strongly_connected_components(g)}
    assert {frozenset(scc) for scc in sccs} == theirs
    assert sorted(node for scc in sccs for node in scc) == list(
        range(n_nodes)
    )

    # Callees first: every edge points at the same or an earlier SCC.
    position = {node: i for i, scc in enumerate(sccs) for node in scc}
    for src, dst in edges:
        assert position[dst] <= position[src], (src, dst)

    assert condense(_adjacency(n_nodes, edges)) == sccs


def test_condensation_of_a_deep_chain():
    depth = 5000
    adjacency = {node: [node + 1] for node in range(depth)}
    adjacency[depth] = [0]
    (scc,) = condense(adjacency)
    assert sorted(scc) == list(range(depth + 1))
