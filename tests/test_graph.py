import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sevolve.graph import (
    CliquePartition,
    HierarchyTrace,
    LevelGraph,
    _distinct,
    aggregate_node_values,
)
from sevolve.network import wave_schedule
from oracles import (
    bfs_component,
    coarsen,
    neighbor_lists,
    random_connected_graph,
    union_find_components,
)


def all_graphs(max_nodes):
    for n in range(1, max_nodes + 1):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            yield LevelGraph(n, [pairs[j] for j in range(len(pairs)) if (mask >> j) & 1])


class TestBuildGraph:
    def test_path_graph(self):
        g = LevelGraph(3, [(0, 1), (1, 2)])
        assert g.num_nodes == 3
        assert g.edges.tolist() == [[0, 1], [1, 2]]
        assert neighbor_lists(g) == [[1], [0, 2], [1]]

    def test_single_isolated_node(self):
        g = LevelGraph(1, [])
        assert g.num_nodes == 1
        assert g.edges.tolist() == []
        assert g.edges.shape == (0, 2)

    def test_duplicate_edges_canonicalized(self):
        # dedup oracle: canonicalize by sorting each pair, then set-dedup
        raw = [(0, 1), (1, 0)]
        expected = sorted({tuple(sorted(p)) for p in raw})
        g = LevelGraph(3, raw)
        assert list(map(tuple, g.edges.tolist())) == expected
        assert g.num_edges == 1

    def test_canonical_order_is_lexicographic(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            edges = random_connected_graph(rng, n)
            shuffled = [tuple(e) if rng.random() < 0.5 else (e[1], e[0])
                        for e in rng.permutation(edges)]
            g = LevelGraph(n, shuffled)
            assert g.edges.tolist() == sorted(g.edges.tolist())
            assert g.edges.tolist() == LevelGraph(n, edges).edges.tolist()
            assert LevelGraph(n, np.array(shuffled)) == g

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            LevelGraph(3, [(0, 3)])
        # the first bad edge in input order is the one reported
        with pytest.raises(ValueError, match=r"edge \(0, 3\) out of range"):
            LevelGraph(3, [(0, 1), (0, 3), (1, 1)])
        with pytest.raises(ValueError, match=r"edge \(-1, 0\) out of range"):
            LevelGraph(3, [(0, 1), (-1, 0), (1, 1), (0, 2**70)])
        with pytest.raises(ValueError, match=r"edge \(0, 1180591620717411303424\) out of range"):
            LevelGraph(3, [(0, 1), (0, 2**70), (1, 1)])

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            LevelGraph(3, [(1, 1)])
        with pytest.raises(ValueError, match="self-loop on node 1"):
            LevelGraph(3, [(0, 1), (1, 1), (0, 3)])
        # an edge that is both is a self-loop
        with pytest.raises(ValueError, match="self-loop on node 5"):
            LevelGraph(3, [(5, 5), (0, 3)])

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="at least one node"):
            LevelGraph(0, [])

    def test_distinct_matches_np_unique(self):
        rng = np.random.default_rng(4)
        for size in (0, 1, 2, 7, 100, 2000):
            # few distinct values, so most draws repeat one
            codes = rng.integers(-5, max(size // 3, 1), size=size)
            got = _distinct(codes)
            assert got.dtype == codes.dtype
            assert np.array_equal(got, np.unique(codes))
        assert _distinct(np.array([], dtype=np.intp)).tolist() == []


class TestWaveSlots:
    """The slots of wave_schedule's layout: two per edge, one in each
    endpoint's row, each row's slots its node's neighbors ascending."""

    @staticmethod
    def check_slots(g):
        assert not g.edges.flags.writeable
        adjacency = neighbor_lists(g)
        for order in (np.arange(g.num_nodes), np.arange(g.num_nodes)[::-1]):
            sched = wave_schedule(order, g, 1)
            owner, nbr, slot_edge, rev = (sched.owner, sched.nbr, sched.slot_edge,
                                          sched.rev)
            owner_node, nbr_node = sched.perm[owner], sched.perm[nbr]
            assert nbr_node.tolist() == [j for i in sched.perm for j in adjacency[i]]
            assert owner_node.tolist() == [i for i in sched.perm for _ in adjacency[i]]
            for s, e in enumerate(slot_edge):
                assert g.edges[e].tolist() == sorted((int(owner_node[s]), int(nbr_node[s])))
            assert np.bincount(slot_edge, minlength=g.num_edges).tolist() == [2] * g.num_edges
            # the reverse slot: the same edge, seen from the other endpoint
            slots = np.arange(nbr.size)
            assert (rev[rev] == slots).all() and (rev != slots).all()
            assert (slot_edge[rev] == slot_edge).all()
            assert (owner[rev] == nbr).all() and (nbr[rev] == owner).all()

    def test_matches_edges_on_all_small_graphs(self):
        for g in all_graphs(5):
            self.check_slots(g)

    def test_single_node_isolated_nodes_and_disconnected(self):
        for g in (LevelGraph(1, []),
                  LevelGraph(4, []),
                  LevelGraph(5, [(1, 3)]),
                  LevelGraph(7, [(0, 1), (1, 2), (4, 5), (4, 6), (5, 6)])):
            self.check_slots(g)


class TestCoarsen:
    def test_triangle_full_merge(self):
        g = LevelGraph(3, [(0, 1), (0, 2), (1, 2)])
        part, coarse = coarsen(g, g.edges)
        assert part.num_cliques == 1
        assert coarse.num_nodes == 1
        assert coarse.edges.tolist() == []

    def test_empty_selection_is_identity(self):
        g = LevelGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        part, coarse = coarsen(g, [])
        assert part.num_cliques == part.num_nodes
        assert list(part.assignment) == [0, 1, 2, 3]
        assert coarse == g

    def test_path_merge_middle(self):
        # frozen from the union-find oracle on the path 0-1-2-3
        g = LevelGraph(4, [(0, 1), (1, 2), (2, 3)])
        oracle_assign, oracle_count = union_find_components(4, [(1, 2)])
        assert (oracle_assign, oracle_count) == ([0, 1, 1, 2], 3)
        part, coarse = coarsen(g, [(1, 2)])
        assert list(part.assignment) == oracle_assign
        assert part.num_cliques == 3
        assert coarse.edges.tolist() == [[0, 1], [1, 2]]

    def test_matches_union_find_on_all_small_graphs(self):
        for g in all_graphs(4):
            edges = list(map(tuple, g.edges.tolist()))
            for mask in range(1 << len(edges)):
                sel = [edges[j] for j in range(len(edges)) if (mask >> j) & 1]
                part, coarse = coarsen(g, sel)
                oracle_assign, oracle_count = union_find_components(g.num_nodes, sel)
                assert list(part.assignment) == oracle_assign
                assert part.num_cliques == oracle_count

    def test_clique_count_equals_components_random(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 11))
            edges = random_connected_graph(rng, n)
            g = LevelGraph(n, edges)
            keep = [e for e in edges if rng.random() < 0.4]
            part, _ = coarsen(g, keep)
            _, oracle_count = union_find_components(n, keep)
            assert part.num_cliques == oracle_count

    def test_cliques_connected_over_selected_edges(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = int(rng.integers(2, 11))
            edges = random_connected_graph(rng, n)
            g = LevelGraph(n, edges)
            sel = [e for e in edges if rng.random() < 0.5]
            part, _ = coarsen(g, sel)
            adjacency = {}
            for a, b in sel:
                adjacency.setdefault(a, []).append(b)
                adjacency.setdefault(b, []).append(a)
            for c in range(part.num_cliques):
                members = set(np.flatnonzero(part.assignment == c).tolist())
                start = min(members)
                assert bfs_component(members, adjacency, start) == members

    def test_new_edges_are_crossing_edges(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 10))
            edges = random_connected_graph(rng, n)
            g = LevelGraph(n, edges)
            sel = [e for e in edges if rng.random() < 0.5]
            part, coarse = coarsen(g, sel)
            assign = part.assignment
            expected = sorted({(min(assign[a], assign[b]), max(assign[a], assign[b]))
                               for a, b in edges if assign[a] != assign[b]})
            assert [tuple(e) for e in coarse.edges.tolist()] == expected

    def test_isolated_nodes_become_singletons(self):
        g = LevelGraph(5, [(0, 1)])
        part, coarse = coarsen(g, [(0, 1)])
        assert list(part.assignment) == [0, 0, 1, 2, 3]
        assert part.num_cliques == 4
        assert part.sizes().tolist() == [2, 1, 1, 1]


class TestCliquePartition:
    def test_rejects_ids_that_are_not_dense(self):
        for assignment, num in (([0, 0, 2], 3), ([0, 2], 2), ([-1, 0], 1), ([1, 1], 1)):
            with pytest.raises(ValueError, match="dense"):
                CliquePartition(assignment, num)
        with pytest.raises(ValueError, match="invalid"):
            CliquePartition([0, 1], 3)

    def test_sizes(self):
        sizes = CliquePartition([2, 0, 1, 0, 2, 0], 3).sizes()
        assert sizes.tolist() == [3, 1, 2]
        assert not sizes.flags.writeable


class TestAggregate:
    def test_identity_partition_keeps_values(self):
        part = CliquePartition.identity(3)
        vals = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = aggregate_node_values(part, vals)
        assert np.array_equal(out, vals)

    def test_mean_of_two_nodes(self):
        # arithmetic-mean oracle: (2 + 4) / 2 = 3
        part = CliquePartition([0, 0], 1)
        out = aggregate_node_values(part, np.array([[2.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 3.0

    def test_equal_members_keep_value(self):
        part = CliquePartition([0, 0, 0], 1)
        out = aggregate_node_values(part, np.array([[7.5, -1.0]] * 3))
        assert np.array_equal(out, [[7.5, -1.0]])

    def test_dimension_mismatch(self):
        part = CliquePartition([0, 1], 2)
        with pytest.raises(ValueError, match="partition has"):
            aggregate_node_values(part, np.zeros((3, 2)))

    def test_matches_per_clique_mean(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            edges = random_connected_graph(rng, n)
            g = LevelGraph(n, edges)
            sel = [e for e in edges if rng.random() < 0.5]
            part, _ = coarsen(g, sel)
            vals = rng.normal(size=(n, 3))
            out = aggregate_node_values(part, vals)
            for c in range(part.num_cliques):
                members = np.flatnonzero(part.assignment == c)
                np.testing.assert_allclose(out[c], vals[members].mean(axis=0),
                                           rtol=0, atol=1e-12)


@st.composite
def graphs_and_selections(draw, max_nodes=14):
    """A graph and a subset of its edges. The graphs run from a single node
    through sparse ones with isolated nodes and several components to
    dense and complete ones, plus paths and deep trees of a few hundred
    nodes whose ids are scrambled along them, where labelling components
    by hooking onto the smaller id takes many rounds."""
    kind = draw(st.sampled_from(["sparse", "dense", "two_parts", "path", "tree"]))
    if kind in ("path", "tree"):
        n = draw(st.integers(100, 400))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        ids = rng.permutation(n)
        # node k > 0 of the path or tree hangs off one of the few before it
        reach = 1 if kind == "path" else 4
        parent = [int(rng.integers(max(0, k - reach), k)) for k in range(1, n)]
        g = LevelGraph(n, [(ids[k], ids[p]) for k, p in enumerate(parent, start=1)])
        keep = rng.random(g.num_edges) < draw(st.sampled_from([1.0, 0.97, 0.8]))
        return g, [e for e, k in zip(map(tuple, g.edges.tolist()), keep) if k]
    n = draw(st.integers(1, max_nodes))
    pairs = list(itertools.combinations(range(n), 2))
    if kind == "dense":
        # complete, less a few edges
        dropped = draw(st.sets(st.sampled_from(pairs), max_size=4)) if pairs else set()
        edges = [p for p in pairs if p not in dropped]
    else:
        edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n)) if pairs else []
        if kind == "two_parts":
            # no edge between the lower and the upper half of the ids
            edges = [(a, b) for a, b in edges if (a < n // 2) == (b < n // 2)]
    g = LevelGraph(n, edges)
    keep = draw(st.lists(st.booleans(), min_size=g.num_edges, max_size=g.num_edges))
    return g, [e for e, k in zip(map(tuple, g.edges.tolist()), keep) if k]


class TestCoarsenProperties:
    @settings(max_examples=300, deadline=None)
    @given(graphs_and_selections())
    def test_components_match_union_find(self, case):
        g, sel = case
        part, coarse = coarsen(g, sel)
        assign, count = union_find_components(g.num_nodes, sel)
        assert part.assignment.tolist() == assign
        assert part.num_cliques == count == coarse.num_nodes
        # the coarse edges are exactly the pairs of cliques an edge crosses
        crossing = {tuple(sorted((assign[a], assign[b]))) for a, b in g.edges.tolist()
                    if assign[a] != assign[b]}
        assert set(map(tuple, coarse.edges.tolist())) == crossing

    @settings(max_examples=300, deadline=None)
    @given(graphs_and_selections(), st.integers(0, 2**32 - 1), st.integers(1, 4))
    def test_aggregation_and_its_backward_are_adjoint(self, case, seed, width):
        # backward of the clique mean spreads u_c / |c| to every member:
        # sum_c u_c . mean_{i in c} v_i == sum_i v_i . (u / sizes)[assign_i]
        g, sel = case
        part, _ = coarsen(g, sel)
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(part.num_cliques, width))
        v = rng.normal(size=(g.num_nodes, width))
        lhs = float((u * aggregate_node_values(part, v)).sum())
        spread = (u / part.sizes()[:, None])[part.assignment]
        rhs = float((v * spread).sum())
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def _random_trace(rng, num_nodes=10, levels=4):
    edges = random_connected_graph(rng, num_nodes)
    g = LevelGraph(num_nodes, edges)
    graphs = [g]
    partitions = []
    for _ in range(levels - 1):
        sel = [e for e in graphs[-1].edges.tolist() if rng.random() < 0.5]
        part, nxt = coarsen(graphs[-1], sel)
        partitions.append(part)
        graphs.append(nxt)
    return HierarchyTrace(graphs, partitions)


class TestHierarchyTrace:
    def test_validates_partition_chain(self):
        g = LevelGraph(3, [(0, 1), (1, 2)])
        part, coarse = coarsen(g, [(0, 1)])
        with pytest.raises(ValueError, match="partitions"):
            HierarchyTrace([g, coarse], [])
        with pytest.raises(ValueError, match="does not map"):
            HierarchyTrace([coarse, g], [part])

    def test_kept_level_is_the_same_object_with_the_identity(self):
        g = LevelGraph(3, [(0, 1), (1, 2)])
        identity = CliquePartition.identity(3)
        trace = HierarchyTrace([g, g, LevelGraph(3, [(0, 1), (1, 2)])], [identity, identity])
        # an equal graph built anew is a merge, as a replayed plan makes it
        assert [trace.kept(0), trace.kept(1)] == [True, False]
        with pytest.raises(ValueError, match="not the identity"):
            HierarchyTrace([g, g], [CliquePartition([1, 0, 2], 3)])

    def test_node_counts_non_increasing(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            trace = _random_trace(rng)
            sizes = [g.num_nodes for g in trace.levels]
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
