from sevolve.dot import graph_to_dot, trace_to_dot
from sevolve.graph import HierarchyTrace, LevelGraph
from oracles import coarsen


def test_graph_to_dot_basic():
    g = LevelGraph(3, [(0, 1), (1, 2)])
    text = graph_to_dot(g, name="lvl")
    assert text.startswith("graph lvl {")
    assert "  n0 -- n1;" in text
    assert "  n1 -- n2;" in text
    assert text.endswith("}\n")


def test_graph_to_dot_with_labels():
    g = LevelGraph(2, [(0, 1)])
    text = graph_to_dot(g, node_labels=[0, 1])
    assert 'n0 [label="0/0"' in text
    assert "fillcolor=" in text


def test_trace_to_dot_levels_and_arrows():
    g = LevelGraph(4, [(0, 1), (1, 2), (2, 3)])
    part, coarse = coarsen(g, [(1, 2)])
    trace = HierarchyTrace([g, coarse], [part])
    text = trace_to_dot(trace)
    assert "subgraph cluster_level0" in text
    assert "subgraph cluster_level1" in text
    assert "L0_1 -> L1_1 [style=dashed" in text
    assert "L0_2 -> L1_1 [style=dashed" in text
    assert text.count("style=dashed") == 4  # one arrow per source node


def test_dot_deterministic():
    g = LevelGraph(5, [(0, 1), (0, 2), (3, 4)])
    assert graph_to_dot(g) == graph_to_dot(g)
    part, coarse = coarsen(g, [(0, 1)])
    trace = HierarchyTrace([g, coarse], [part])
    assert trace_to_dot(trace) == trace_to_dot(trace)
