import itertools
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sevolve import network
from sevolve.cell import CellParams, NumericError
from sevolve.data import GenConfig, generate_sample, grid_graph
from sevolve.evolve import EvolveConfig
from sevolve.graph import CliquePartition, HierarchyTrace, LevelGraph, aggregate_node_values
from sevolve.network import (
    ModelParams,
    NetworkConfig,
    Sample,
    StructurePlan,
    WaveSchedule,
    _level_edge_targets,
    _make_loss_eval,
    _softmax_cross_entropy,
    backward,
    compute_loss,
    forward,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
    wave_schedule,
)
from oracles import (
    cell_update,
    neighbor_lists,
    random_connected_graph,
    sequential_network,
    wave_schedule_sorted,
)


def tiny_cfg(d=3, c=3, layers=2, max_trials=5, **kw):
    return NetworkConfig(input_dim=d, num_classes=c, num_layers=layers,
                         evolve=EvolveConfig(max_trials=max_trials), **kw)


def make_sample(rng, n=6, d=3, c=3):
    g = LevelGraph(n, random_connected_graph(rng, n))
    feats = rng.normal(size=(n, d))
    labels = rng.integers(0, c, size=n)
    return Sample(g, feats, labels)


def random_model(rng, cfg):
    params = init_params(cfg, rng)
    # widen past the tiny init so the dynamics are non-trivial
    for _, t in params.cell.tensors():
        t *= 5.0
    for w, b in params.heads:
        w += rng.normal(0.0, 0.3, w.shape)
        b += rng.normal(0.0, 0.1, b.shape)
    return params


class TestSample:
    def test_edge_targets_from_labels(self):
        g = LevelGraph(4, [(0, 1), (1, 2), (2, 3)])
        s = Sample(g, np.zeros((4, 2)), [0, 0, 1, 1])
        (targets,) = _level_edge_targets(HierarchyTrace([g], []), s.labels, 2)
        assert targets.tolist() == [1.0, 0.0, 1.0]

    def test_rejects_labels_that_are_not_integers(self):
        # a cast to intp would make the labels [0.6, 1.9] the labels [0, 1]
        g = LevelGraph(2, [(0, 1)])
        for labels in ([0.6, 1.9], np.array([0.0, 1.0]), ["0", "1"]):
            with pytest.raises(ValueError, match="labels must be integers"):
                Sample(g, np.zeros((2, 2)), labels)
        assert Sample(g, np.zeros((2, 2)), np.array([1, 0], dtype=np.uint8)).labels.tolist() == [1, 0]

    def test_rejects_labels_too_wide_for_intp(self):
        # out of range, not an untyped OverflowError
        for labels in ([2**70], [-2**70]):
            with pytest.raises(ValueError, match="label out of range"):
                Sample(LevelGraph(1), np.zeros((1, 1)), labels)

    def test_validates_coverage(self):
        g = LevelGraph(3, [(0, 1)])
        with pytest.raises(ValueError, match="features"):
            Sample(g, np.zeros((2, 2)), [0, 1, 0])
        with pytest.raises(ValueError, match="labels"):
            Sample(g, np.zeros((3, 2)), [0, 1])


class TestForward:
    def test_structural_postconditions(self):
        rng = np.random.default_rng(0)
        cfg = tiny_cfg(layers=3)
        for seed in range(5):
            sample = make_sample(rng, n=8)
            params = random_model(np.random.default_rng(seed), cfg)
            res = forward(sample, params, cfg, np.random.default_rng(seed), mode="test")
            sizes = [g.num_nodes for g in res.trace.levels]
            assert len(sizes) == 3
            assert all(a >= b for a, b in zip(sizes, sizes[1:]))
            assert res.combined_logits.shape == (8, 3)
            assert len(res.trace.partitions) == 2
            assert len(res.trace.edge_probs) == 3
            for g, p in zip(res.trace.levels, res.trace.edge_probs):
                assert p.shape == (g.num_edges,)
                if p.size:
                    assert (p > 0).all() and (p < 1).all()

    def test_zero_params_gives_uniform_prediction(self):
        rng = np.random.default_rng(1)
        cfg = tiny_cfg(d=4, c=4, layers=2)
        sample = make_sample(rng, n=5, d=4, c=4)
        params = ModelParams(CellParams(4, 4),
                             [(np.zeros((4, 4)), np.zeros(4)) for _ in range(2)])
        res = forward(sample, params, cfg, np.random.default_rng(0), mode="test")
        assert np.array_equal(res.combined_logits, np.zeros((5, 4)))
        total, task, edge = compute_loss(res, sample, cfg)
        assert task == pytest.approx(math.log(4), abs=1e-12)

    def test_bit_identical_with_same_seed(self):
        rng = np.random.default_rng(2)
        cfg = tiny_cfg()
        sample = make_sample(rng)
        params = random_model(rng, cfg)
        for mode in ("train", "test"):
            r1 = forward(sample, params, cfg, np.random.default_rng(33), mode=mode)
            r2 = forward(sample, params, cfg, np.random.default_rng(33), mode=mode)
            assert np.array_equal(r1.combined_logits, r2.combined_logits)
            for a, b in zip(r1.trace.edge_probs, r2.trace.edge_probs):
                assert np.array_equal(a, b)
            for pa, pb in zip(r1.trace.partitions, r2.trace.partitions):
                assert np.array_equal(pa.assignment, pb.assignment)
            for oa, ob in zip(r1.plan().visit_orders, r2.plan().visit_orders):
                assert np.array_equal(oa, ob)

    def test_test_mode_ignores_labels(self):
        rng = np.random.default_rng(3)
        cfg = tiny_cfg()
        sample = make_sample(rng, n=7)
        params = random_model(rng, cfg)
        permuted = Sample(sample.graph, sample.features,
                          (sample.labels + 1) % cfg.num_classes)
        r1 = forward(sample, params, cfg, np.random.default_rng(5), mode="test")
        r2 = forward(permuted, params, cfg, np.random.default_rng(5), mode="test")
        assert np.array_equal(r1.combined_logits, r2.combined_logits)
        for a, b in zip(r1.trace.edge_probs, r2.trace.edge_probs):
            assert np.array_equal(a, b)
        for pa, pb in zip(r1.trace.partitions, r2.trace.partitions):
            assert np.array_equal(pa.assignment, pb.assignment)

    def test_replay_reproduces_run(self):
        # The replay of a run's plan keeps the levels the run kept, those
        # of identity partitions, and reproduces the run bit for bit: the
        # forward outputs in both modes, the gradients in train mode, the
        # only mode backward takes. The cases are tools/equivalence.py's
        # random graphs in both modes, among them kept levels followed by
        # a merge. The oracle forward, which aggregates over every
        # partition, checks the carry-over of kept levels (TestWaveSweep).
        from sevolve import graph
        from test_tools import load_tool

        rng = np.random.default_rng(4)
        cfg = tiny_cfg(layers=3)
        cases = [("seed4", make_sample(rng, n=8), random_model(rng, cfg), cfg, "train",
                  np.random.default_rng(6), None),
                 *load_tool("equivalence")._random_graph_cases(network, graph, EvolveConfig)]
        kept_then_merged = set()
        for name, sample, params, cfg, mode, rng, _ in cases:
            res = forward(sample, params, cfg, rng, mode=mode)
            replay = forward(sample, params, cfg, None, mode=mode, plan=res.plan())
            trace = res.trace
            transitions = range(len(trace.partitions))
            assert ([replay.trace.kept(k) for k in transitions]
                    == [trace.kept(k) for k in transitions]), name
            if any(trace.kept(k) and not trace.kept(k + 1) for k in transitions[:-1]):
                kept_then_merged.add(mode)
            assert np.array_equal(res.combined_logits, replay.combined_logits), name
            for a, b in zip(res.level_logits + res.trace.edge_probs,
                            replay.level_logits + replay.trace.edge_probs):
                assert np.array_equal(a, b), name
            assert compute_loss(res, sample, cfg) == compute_loss(replay, sample, cfg), name
            if mode == "test":
                with pytest.raises(ValueError, match="test mode"):
                    backward(res, sample, cfg)
                continue
            # the loss a train-mode forward stored is the one compute_loss
            # computes for a test-mode replay, merged levels included
            test_replay = forward(sample, params, cfg, None, mode="test", plan=res.plan())
            assert compute_loss(res, sample, cfg) == compute_loss(test_replay, sample, cfg), name
            for (tname, a), (_, b) in zip(backward(res, sample, cfg).tensors(),
                                          backward(replay, sample, cfg).tensors()):
                assert np.array_equal(a, b), (name, tname)
        assert kept_then_merged == {"train", "test"}

    @pytest.mark.parametrize("mode", ["train", "test"])
    def test_identity_from_any_source_keeps_its_level(self, mode, monkeypatch):
        # MH rejects every trial on this 8x8 grid; a threshold that no
        # edge probability reaches and the replay of the run's plan give
        # the identity too, and keep the same levels, with no
        # quotient_graph call
        cfg = NetworkConfig(input_dim=3, num_classes=3, num_layers=4,
                            evolve=EvolveConfig(max_trials=20))
        rng = np.random.default_rng(50)
        params = random_model(rng, cfg)
        sample = generate_sample(GenConfig(grid_n=8, num_labels=3, feature_dim=3), rng)
        built = []
        inner = network.quotient_graph

        def counted(g, part):
            built.append(part)
            return inner(g, part)

        monkeypatch.setattr(network, "quotient_graph", counted)
        transitions = range(cfg.num_layers - 1)
        run = forward(sample, params, cfg, np.random.default_rng(51), mode=mode)
        assert not any(log.accepted.any() for log in run.trace.decisions)
        kept = [run.trace.kept(k) for k in transitions]
        assert kept == [True] * 3
        threshold_cfg = NetworkConfig(input_dim=3, num_classes=3, num_layers=4,
                                      evolve=EvolveConfig(threshold=1.0))
        thresholded = forward(sample, params, threshold_cfg, np.random.default_rng(51),
                              mode=mode)
        assert max(p.max() for p in thresholded.trace.edge_probs) < 1.0
        assert [thresholded.trace.kept(k) for k in transitions] == kept
        replay = forward(sample, params, cfg, None, mode=mode, plan=run.plan())
        assert [replay.trace.kept(k) for k in transitions] == kept
        assert np.array_equal(replay.combined_logits, run.combined_logits)
        assert built == []

    def test_test_mode_keeps_no_backward_state(self):
        # a test-mode pass frees each layer's schedule and cache once the
        # next layer replaces them: on a 16x16 grid with the benchmark's
        # shape (D = H = 6, C = 4, 5 layers, 50 MH trials) its peak traced
        # memory is under half of a train-mode pass over the same draws
        cfg = NetworkConfig(input_dim=6, num_classes=4, num_layers=5,
                            evolve=EvolveConfig(max_trials=50))
        params = init_params(cfg, np.random.default_rng(0))
        sample = generate_sample(GenConfig(grid_n=16, num_labels=4, feature_dim=6),
                                 np.random.default_rng(1))
        peaks, results = {}, {}
        for mode in ("train", "test"):
            # a first, untraced pass, so one-off allocations count in neither
            forward(sample, params, cfg, np.random.default_rng(2), mode=mode)
            tracemalloc.start()
            try:
                results[mode] = forward(sample, params, cfg, np.random.default_rng(2),
                                        mode=mode)
                peaks[mode] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        train, test = results["train"], results["test"]
        assert len(train.layers) == len(train.schedules) == 5
        assert test.layers == [] and test.schedules == []
        assert np.array_equal(train.combined_logits, test.combined_logits)
        assert peaks["test"] <= 0.5 * peaks["train"], peaks
        with pytest.raises(ValueError, match="test mode"):
            backward(test, sample, cfg)

    def test_sweep_reads_new_state_of_visited_neighbors(self):
        # star 0-{1, 2, 3}; layer 1 visits 2, 1, 0, 3, so node 0 averages
        # the new hidden state of 1 and 2 with the previous state of 3
        rng = np.random.default_rng(7)
        cfg = tiny_cfg(layers=2)
        sample = Sample(LevelGraph(4, [(0, 1), (0, 2), (0, 3)]),
                        rng.normal(size=(4, 3)), [0, 1, 2, 0])
        params = random_model(rng, cfg)
        plan = StructurePlan(visit_orders=[np.array([3, 1, 0, 2]), np.array([2, 1, 0, 3])],
                             partitions=[CliquePartition.identity(4)])
        res = forward(sample, params, cfg, None, plan=plan)
        # cache rows are in each layer's wave-major order: node i is row pos[i]
        (h0, m0), (h1, m1) = [(cache.hidden[sched.pos], cache.memory[sched.pos])
                              for cache, sched in zip(res.layers, res.schedules)]
        nbrs = [1, 2, 3]

        def node0(navg):
            hidden, *_ = cell_update(
                params.cell, sample.features[0], h0[0], m0[0], navg,
                np.array([True, True, False]), h0[nbrs], m1[nbrs], m0[nbrs])
            return hidden

        navg = (h1[1] + h1[2] + h0[3]) / 3.0
        np.testing.assert_allclose(h1[0], node0(navg), rtol=1e-12, atol=0)
        assert not np.allclose(h1[0], node0(h0[nbrs].mean(axis=0)), rtol=1e-6, atol=0)

    # Pinned sampling stream: visit orders, partition assignments, the
    # accepted trial per transition and the next draw after the pass. A
    # change that consumes the rng differently, or moves any merge
    # probability across a draw, fails here.
    @pytest.mark.parametrize("seed, mode, orders, assignments, accepted, next_draw", [
        (14, "train",
         [[5, 1, 4, 7, 3, 2, 6, 0], [2, 0, 1], [0]],
         [[0, 1, 1, 1, 1, 1, 2, 1], [0, 0, 0]],
         [3, 1], 0.5071235862721885),
        (37, "test",
         [[7, 1, 3, 2, 4, 6, 5, 0], [4, 1, 0, 2, 3], [1, 4, 3, 0, 2]],
         [[0, 1, 0, 0, 2, 3, 0, 4], [0, 1, 2, 3, 4]],
         [4, 2], 0.7958070658363148),
    ])
    def test_golden_sampling_trace(self, seed, mode, orders, assignments, accepted,
                                   next_draw):
        rng = np.random.default_rng(seed)
        cfg = tiny_cfg(layers=3, max_trials=5)
        sample = make_sample(rng, n=8)
        params = random_model(rng, cfg)
        run_rng = np.random.default_rng(seed + 100)
        res = forward(sample, params, cfg, run_rng, mode=mode)
        assert [o.tolist() for o in res.plan().visit_orders] == orders
        assert [p.assignment.tolist() for p in res.trace.partitions] == assignments
        assert [[t.trial for t in d if t.accepted] for d in res.trace.decisions] == [
            [k] for k in accepted]
        assert run_rng.random() == next_draw

    @pytest.mark.parametrize("order", [[0, 0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2]],
                             ids=["duplicated", "short"])
    def test_replayed_visit_order_must_be_a_permutation(self, order):
        # a duplicate left node 8's visit rank uninitialised, and a short
        # order raised numpy's shape mismatch without naming the layer
        rng = np.random.default_rng(6)
        cfg = tiny_cfg(layers=2)
        sample = Sample(grid_graph(3), rng.normal(size=(9, 3)), rng.integers(0, 3, size=9))
        params = random_model(rng, cfg)
        plan = forward(sample, params, cfg, np.random.default_rng(0)).plan()
        forward(sample, params, cfg, plan=plan)
        plan.visit_orders[0] = np.array(order)
        with pytest.raises(ValueError, match="visit order for layer 0 is not a permutation"):
            forward(sample, params, cfg, plan=plan)

    def test_replayed_visit_order_must_be_integers(self):
        # a float array holding a permutation's values passed the
        # permutation check and then raised IndexError in wave_schedule
        rng = np.random.default_rng(6)
        cfg = tiny_cfg(layers=2)
        sample = Sample(grid_graph(3), rng.normal(size=(9, 3)), rng.integers(0, 3, size=9))
        params = random_model(rng, cfg)
        plan = forward(sample, params, cfg, np.random.default_rng(0)).plan()
        plan.visit_orders[1] = plan.visit_orders[1].astype(np.float64)
        with pytest.raises(ValueError, match="visit order for layer 1 is not an integer array"):
            forward(sample, params, cfg, plan=plan)

    def test_validates_dimensions(self):
        rng = np.random.default_rng(5)
        cfg = tiny_cfg(d=3)
        sample = make_sample(rng, d=4)
        params = random_model(rng, cfg)
        with pytest.raises(ValueError, match="dim"):
            forward(sample, params, cfg, np.random.default_rng(0))

    def test_weight_sharing_single_cell_block(self):
        cfg = tiny_cfg(layers=5)
        params = init_params(cfg, np.random.default_rng(0))
        names = [name for name, _ in params.tensors()]
        assert len(names) == 17 + 2 * 5
        assert len([n for n in names if not n.startswith("head")]) == 17

    def test_shared_cell_affects_every_layer(self):
        rng = np.random.default_rng(6)
        cfg = tiny_cfg(layers=3, max_trials=2)
        sample = make_sample(rng, n=7)
        params = random_model(rng, cfg)
        base = forward(sample, params, cfg, np.random.default_rng(1), mode="test")
        bumped = params.copy()
        bumped.cell.w_e += 0.5
        res = forward(sample, bumped, cfg, np.random.default_rng(1), mode="test")
        for a, b in zip(base.trace.edge_probs, res.trace.edge_probs):
            if a.size:
                assert not np.array_equal(a, b)

    @pytest.mark.parametrize("case", ["train", "test", "union"])
    def test_non_finite_state_partway_through_a_layer_raises(self, case, monkeypatch):
        # the gates are bounded, so finite weights cannot overflow the
        # memory itself; these overflow a gate. x @ w_u.T overflows to +inf,
        # which saturates every input gate exactly. A wave-0 node then has a
        # positive state, and u_un turns an earlier neighbor's positive
        # state into a -inf neighbor term: inf - inf, a NaN state in a later
        # wave that the waves after it read. The layer must still raise
        # the cell's error, and warn nothing
        cfg = NetworkConfig(input_dim=2, num_classes=2, num_layers=2, hidden_dim=8,
                            evolve=EvolveConfig(max_trials=5))
        params = init_params(cfg, np.random.default_rng(0))
        weights = dict(params.cell.tensors())
        weights["w_u"][...] = 1e308
        weights["b_c"][...] = 2.0
        weights["u_un"][...] = -1e308
        sample = Sample(grid_graph(4), np.ones((16, 2)), np.zeros(16, dtype=np.intp))
        rng = np.random.default_rng(1)
        if case == "union":
            sample, rng = Sample.union([sample, sample]), [rng, np.random.default_rng(2)]
        checked = []
        inner = network.check_finite

        def spy(hidden, memory):
            checked.append(np.isfinite(hidden).all(axis=1) & np.isfinite(memory).all(axis=1))
            return inner(hidden, memory)

        monkeypatch.setattr(network, "check_finite", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match="^non-finite values in cell inputs or parameters$"):
                forward(sample, params, cfg, rng, mode="train" if case == "train" else "test")
        # one check, of layer 0, whose first wave is finite and a later one not
        (finite,) = checked
        assert finite[0] and not finite.all()


def _assert_close(actual, expected):
    # rtol 1e-12 against each array's largest entry: the waves sum and
    # multiply in another order than a node-by-node sweep
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    scale = np.abs(expected).max() if expected.size else 0.0
    np.testing.assert_allclose(actual, expected, rtol=1e-12, atol=1e-12 * scale)


def _assert_matches_sequential(sample, params, cfg, seed=None, mode="train", plan=None):
    """forward, and in train mode backward, against the node-by-node
    oracle: the same structure and rng draws, and floats within rtol
    1e-12. A test-mode result must refuse backward."""
    run = None if seed is None else np.random.default_rng(seed)
    res = forward(sample, params, cfg, run, mode=mode, plan=plan)
    ref_run = None if seed is None else np.random.default_rng(seed)
    ref, ref_grads = sequential_network(sample, params, cfg, ref_run, mode=mode, plan=plan)

    assert [o.tolist() for o in res.orders] == [list(o) for o in ref["orders"]]
    assert [p.assignment.tolist() for p in res.trace.partitions] == [
        p.assignment.tolist() for p in ref["partitions"]]
    assert [[(d.trial, d.accepted) for d in log] for log in res.trace.decisions] == [
        [(d.trial, d.accepted) for d in log] for log in ref["decisions"]]
    if run is not None:
        assert run.random() == ref_run.random()
    for key in ("level_logits", "edge_probs"):
        for a, b in zip(getattr(res, key) if key == "level_logits" else res.trace.edge_probs,
                        ref[key], strict=True):
            _assert_close(a, b)
    _assert_close(res.combined_logits, ref["combined_logits"])
    if mode == "test":
        # a test-mode result keeps no backward state
        with pytest.raises(ValueError, match="test mode"):
            backward(res, sample, cfg)
        return res
    for (name, a), (_, b) in zip(backward(res, sample, cfg).tensors(), ref_grads.tensors(),
                                 strict=True):
        _assert_close(a, b)
    return res


class TestWaveSweep:
    """The wave-batched sweep gives the node-by-node sweep's results."""

    @pytest.mark.parametrize("mode", ["train", "test"])
    def test_random_connected_graphs(self, mode):
        merged = 0
        for seed in range(8):
            rng = np.random.default_rng([40, seed])
            cfg = tiny_cfg(layers=3, max_trials=20)
            sample = make_sample(rng, n=int(rng.integers(4, 13)))
            res = _assert_matches_sequential(
                sample, random_model(rng, cfg), cfg, [41, seed], mode)
            merged += res.trace.levels[-1].num_nodes < sample.num_nodes
            # one layer: level 0 is the top level, with no aggregation above it
            one = tiny_cfg(layers=1)
            _assert_matches_sequential(sample, random_model(rng, one), one, [41, seed], mode)
        assert merged >= 2

    def test_threshold_mode(self):
        rng = np.random.default_rng(42)
        cfg = NetworkConfig(input_dim=3, num_classes=3, num_layers=3,
                            evolve=EvolveConfig(threshold=0.485))
        sample = make_sample(rng, n=10)
        res = _assert_matches_sequential(sample, random_model(rng, cfg), cfg, 43)
        assert res.trace.levels[-1].num_nodes < 10

    def test_isolated_nodes(self):
        rng = np.random.default_rng(44)
        cfg = tiny_cfg(layers=3)
        g = LevelGraph(9, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 8)])
        sample = Sample(g, rng.normal(size=(9, 3)), rng.integers(0, 3, size=9))
        params = random_model(rng, cfg)
        for seed in range(3):
            _assert_matches_sequential(sample, params, cfg, [45, seed])

    def test_single_node(self):
        rng = np.random.default_rng(46)
        cfg = tiny_cfg(layers=2)
        sample = Sample(LevelGraph(1, []), rng.normal(size=(1, 3)), [2])
        res = _assert_matches_sequential(sample, random_model(rng, cfg), cfg, 47)
        assert [len(s.waves) for s in res.schedules] == [1, 1]

    def test_fixed_plan_hierarchy(self):
        rng = np.random.default_rng(48)
        cfg = tiny_cfg(layers=3)
        g = LevelGraph(8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (2, 5)])
        sample = Sample(g, rng.normal(size=(8, 3)), rng.integers(0, 3, size=8))
        plan = StructurePlan(
            visit_orders=[np.array([5, 2, 7, 0, 3, 1, 6, 4]), np.array([3, 0, 2, 1, 4]),
                          np.array([1, 0, 2])],
            partitions=[CliquePartition(np.array([0, 0, 1, 2, 3, 3, 4, 4]), 5),
                        CliquePartition(np.array([0, 1, 1, 2, 2]), 3)])
        res = _assert_matches_sequential(sample, random_model(rng, cfg), cfg, plan=plan)
        assert [lv.num_nodes for lv in res.trace.levels] == [8, 5, 3]

    @pytest.mark.parametrize("mode", ["train", "test"])
    def test_permuted_plan_partition_relabels_the_level(self, mode):
        # one node per clique but the ids permuted: not the identity, so
        # the level is relabelled, a new graph whose states are permuted
        rng = np.random.default_rng(52)
        cfg = tiny_cfg(layers=3)
        g = LevelGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        sample = Sample(g, rng.normal(size=(5, 3)), rng.integers(0, 3, size=5))
        perm = CliquePartition(np.array([2, 0, 4, 1, 3]), 5)
        plan = StructurePlan(visit_orders=[rng.permutation(5), rng.permutation(5),
                                           rng.permutation(5)],
                             partitions=[perm, CliquePartition.identity(5)])
        res = _assert_matches_sequential(sample, random_model(rng, cfg), cfg, mode=mode,
                                         plan=plan)
        levels = res.trace.levels
        assert not res.trace.kept(0) and res.trace.kept(1)
        assert levels[1] is not g and levels[2] is levels[1]
        assert levels[1].edges.tolist() == [[0, 2], [0, 4], [1, 3], [1, 4]]
        assert res.amaps[1].tolist() == [2, 0, 4, 1, 3]

    def test_path_in_path_order_is_one_wave_per_node(self):
        # the worst case: every node waits for the one before it
        rng = np.random.default_rng(49)
        n = 9
        cfg = tiny_cfg(layers=2)
        g = LevelGraph(n, [(i, i + 1) for i in range(n - 1)])
        sample = Sample(g, rng.normal(size=(n, 3)), rng.integers(0, 3, size=n))
        plan = StructurePlan(visit_orders=[np.arange(n), np.arange(n)[::-1]],
                             partitions=[CliquePartition.identity(n)])
        res = _assert_matches_sequential(sample, random_model(rng, cfg), cfg, plan=plan)
        assert [len(s.waves) for s in res.schedules] == [n, n]

    @pytest.mark.parametrize("mode", ["train", "test"])
    def test_cell_forward_called_once_per_wave(self, mode, monkeypatch):
        # the benchmark's cell.cell_forward call counts read as waves per
        # sample only while forward calls network.cell_forward once a wave
        calls = []
        inner = network.cell_forward

        def counted(*args):
            calls.append(args[1].stop - args[1].start)
            return inner(*args)

        monkeypatch.setattr(network, "cell_forward", counted)
        for seed in range(6):
            rng = np.random.default_rng([50, seed])
            cfg = tiny_cfg(layers=3, max_trials=20)
            sample = make_sample(rng, n=int(rng.integers(1, 13)))
            calls.clear()
            res = forward(sample, random_model(rng, cfg), cfg, np.random.default_rng(seed),
                          mode=mode)
            # a test-mode result keeps no schedules: rebuild each layer's
            schedules = [wave_schedule(order, g, cfg.hidden_dim)
                         for order, g in zip(res.orders, res.trace.levels, strict=True)]
            assert len(calls) == sum(len(s.waves) for s in schedules)
            assert calls == [r1 - r0 for s in schedules for r0, r1, _, _ in s.waves]


@st.composite
def graphs_and_orders(draw, max_nodes=7):
    n = draw(st.integers(1, max_nodes))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, k in zip(pairs, keep) if k]
    order = draw(st.permutations(range(n)))
    return LevelGraph(n, edges), np.array(order, dtype=np.intp), draw(st.integers(1, 4))


class TestWaveSchedule:
    @settings(max_examples=300, deadline=None)
    @given(graphs_and_orders())
    # a path visited along its length: one wave per node
    @example((LevelGraph(7, [(i, i + 1) for i in range(6)]), np.arange(7), 2))
    # K_7: every node has all the earlier-visited ones as neighbors
    @example((LevelGraph(7, list(itertools.combinations(range(7), 2))),
              np.array([3, 0, 6, 1, 5, 2, 4]), 3))
    # a star whose centre comes last: the leaves in wave 0, the centre in 1
    @example((LevelGraph(6, [(0, k) for k in range(1, 6)]), np.array([4, 2, 5, 1, 3, 0]), 1))
    @example((LevelGraph(5, []), np.array([2, 4, 0, 3, 1]), 2))
    @example((LevelGraph(1, []), np.array([0]), 4))
    def test_waves_are_a_level_schedule(self, case):
        g, order, width = case
        n = g.num_nodes
        adjacency = neighbor_lists(g)
        edge_id = {tuple(e): k for k, e in enumerate(g.edges.tolist())}
        sched = wave_schedule(order, g, width)
        perm, pos, owner, nbr = sched.perm, sched.pos, sched.owner, sched.nbr
        visit = np.empty(n, dtype=np.intp)
        visit[order] = np.arange(n)

        # the waves tile the rows and the slots, each wave one contiguous
        # block of both, and the rows are a permutation of the nodes
        assert sorted(perm.tolist()) == list(range(n))
        assert (pos[perm] == np.arange(n)).all()
        assert sched.waves[0][0] == 0 and sched.waves[0][2] == 0
        assert sched.waves[-1][1] == n and sched.waves[-1][3] == 2 * g.num_edges
        for (_, r1, _, s1), (r0, _, s0, _) in zip(sched.waves, sched.waves[1:]):
            assert (r0, s0) == (r1, s1)
        wave = np.full(n, -1)
        for w, (r0, r1, s0, s1) in enumerate(sched.waves):
            assert r0 < r1
            rows = perm[r0:r1]
            assert (np.diff(rows) > 0).all()              # nodes within a wave ascend
            wave[rows] = w
            # the slots are the rows' neighbors, ascending, row by row
            assert perm[nbr[s0:s1]].tolist() == [j for r in rows for j in adjacency[r]]
            assert sched.slot_edge[s0:s1].tolist() == [
                edge_id[min(r, j), max(r, j)] for r in rows for j in adjacency[r]]
            assert owner[s0:s1].tolist() == [r0 + k for k, r in enumerate(rows)
                                             for _ in adjacency[r]]
            assert (sched.seg[s0:s1] // width == (owner[s0:s1] - r0)[:, None]).all()
        assert (wave >= 0).all()                       # the waves partition the nodes
        # "visited earlier" is "laid out earlier"
        assert ((nbr < owner) == (visit[perm[nbr]] < visit[perm[owner]])).all()
        for i in range(n):
            nbrs = np.array(adjacency[i], dtype=np.intp)
            before = nbrs[visit[nbrs] < visit[i]]
            assert (wave[nbrs] != wave[i]).all()        # no edge inside a wave
            assert (wave[before] < wave[i]).all()
            assert wave[i] == (wave[before].max() + 1 if before.size else 0)

        # the per-layer indices: reverse slots, later-visited slots,
        # inverse degrees and segment ids
        rev = sched.rev
        assert (rev[rev] == np.arange(nbr.size)).all()
        assert (sched.slot_edge[rev] == sched.slot_edge).all()
        assert (owner[rev] == nbr).all() and (nbr[rev] == owner).all()
        assert sched.later.tolist() == [s for s in range(nbr.size) if nbr[s] > owner[s]]
        degree = np.array([len(adjacency[r]) for r in perm])
        assert sched.deg.shape == sched.inv_deg.shape == (n, 1)
        assert (sched.deg[:, 0] == np.maximum(degree, 1)).all()
        assert (sched.inv_deg[:, 0] == 1.0 / np.maximum(degree, 1)).all()
        assert sched.seg.shape == (nbr.size, width)
        assert (sched.seg % width == np.arange(width)).all()

        # the wave count is the longest path whose nodes come in visit order
        edges = set(map(tuple, g.edges.tolist()))
        longest = 0
        for size in range(1, n + 1):
            for subset in itertools.combinations(order.tolist(), size):
                if all((min(a, b), max(a, b)) in edges for a, b in zip(subset, subset[1:])):
                    longest = size
                    break
        assert len(sched.waves) == longest


@st.composite
def sparse_graphs_and_orders(draw, max_nodes=40):
    n = draw(st.integers(1, max_nodes))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=3 * n))
    order = draw(st.permutations(range(n)))
    return (LevelGraph(n, [(a, b) for a, b in pairs if a != b]),
            np.array(order, dtype=np.intp), draw(st.integers(1, 4)))


def _path(n):
    return LevelGraph(n, [(i, i + 1) for i in range(n - 1)])


class TestWaveScheduleOracle:
    """The counting-sort layout equals the comparison-sort one, field by
    field, in values and dtypes."""

    @settings(max_examples=200, deadline=None)
    @given(sparse_graphs_and_orders())
    # paths visited along their length, one wave per node: wave and row
    # ids around the 8-bit boundary, where the sort keys change dtype
    @example((_path(255), np.arange(255), 2))
    @example((_path(256), np.arange(256), 3))
    @example((_path(257), np.arange(257), 1))
    # the highest-id node is isolated: its row has no slots
    @example((LevelGraph(6, [(0, 1), (1, 2), (0, 4), (3, 4)]),
              np.array([5, 2, 0, 4, 1, 3]), 2))
    @example((LevelGraph(1, []), np.array([0]), 3))
    @example((LevelGraph(4, []), np.array([3, 1, 0, 2]), 1))
    def test_matches_sorted_oracle(self, case):
        g, order, width = case
        got = wave_schedule(order, g, width)
        want = wave_schedule_sorted(order, g, width)
        assert got.waves == want.waves
        for name in WaveSchedule._fields:
            if name == "waves":
                continue
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype, name
            assert a.shape == b.shape and np.array_equal(a, b), name
        # a test-mode schedule: the same layout, without the backward-only slots
        lean = wave_schedule(order, g, width, backward=False)
        assert lean.rev is None and lean.later is None
        assert lean.waves == got.waves
        for name in ("perm", "pos", "owner", "nbr", "slot_edge", "deg", "inv_deg", "seg"):
            assert np.array_equal(getattr(lean, name), getattr(got, name)), name


class TestLossEval:
    """The train-mode posterior's loss of a partition into one-node
    cliques reads the level's logits themselves, not their means."""

    @staticmethod
    def merged_amaps():
        # (level size, base-node map, labels) of every level of train-mode
        # hierarchies on widened random models, where trials accept
        out = []
        for seed in range(20):
            rng = np.random.default_rng([60, seed])
            cfg = tiny_cfg(layers=4, max_trials=20)
            sample = make_sample(rng, n=int(rng.integers(2, 14)))
            res = forward(sample, random_model(rng, cfg), cfg, np.random.default_rng(seed),
                          mode="train")
            out += [(g.num_nodes, amap, sample.labels)
                    for g, amap in zip(res.trace.levels, res.amaps, strict=True)]
        return out

    def test_identity_shortcut_is_exact(self):
        amaps = self.merged_amaps()
        assert sum(n < labels.size for n, _, labels in amaps) >= 10
        rng = np.random.default_rng(61)
        for n, amap, labels in amaps:
            for kind in ("normal", "zeros", "equal rows"):
                logits = rng.normal(size=(n, 3))
                if kind == "zeros":
                    # -0.0 and 0.0, which a clique mean turns all to 0.0
                    logits[rng.random((n, 3)) < 0.5] = 0.0
                    logits[rng.random((n, 3)) < 0.5] = -0.0
                    logits[:, 0] = rng.choice([0.0, -0.0], n)
                elif kind == "equal rows":
                    logits[:] = logits[0]
                    logits[:, rng.integers(3)] = -0.0
                loss_eval = _make_loss_eval(logits, amap, labels)
                for part in (CliquePartition.identity(n),
                             CliquePartition(rng.permutation(n), n)):
                    agg = aggregate_node_values(part, logits)
                    want = _softmax_cross_entropy(agg[part.assignment[amap]], labels)[0]
                    got = loss_eval(part)
                    assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64)


class TestLoss:
    def test_uniform_logits_log4(self):
        rng = np.random.default_rng(7)
        cfg = tiny_cfg(d=4, c=4, layers=1)
        sample = make_sample(rng, n=6, d=4, c=4)
        params = ModelParams(CellParams(4, 4), [(np.zeros((4, 4)), np.zeros(4))])
        res = forward(sample, params, cfg, np.random.default_rng(0), mode="train")
        _, task, _ = compute_loss(res, sample, cfg)
        assert task == pytest.approx(1.3862943611198906, abs=1e-12)

    def test_zero_edge_loss_when_probs_equal_targets(self):
        rng = np.random.default_rng(8)
        cfg = tiny_cfg(layers=2)
        sample = make_sample(rng, n=6)
        params = random_model(rng, cfg)
        # a test-mode result's loss is computed when asked for, so it sees
        # the overwritten probabilities; a train-mode one carries its own
        res = forward(sample, params, cfg, np.random.default_rng(0), mode="test")
        targets = _level_edge_targets(res.trace, sample.labels, cfg.num_classes)
        res.trace.edge_probs = [t.copy() for t in targets]
        _, _, edge = compute_loss(res, sample, cfg)
        assert edge == 0.0

    def test_single_edge_squared_error(self):
        # one layer, one edge, equal labels: p = 0.5 vs target 1 -> 0.25
        g = LevelGraph(2, [(0, 1)])
        sample = Sample(g, np.zeros((2, 2)), [1, 1])
        cfg = tiny_cfg(d=2, c=2, layers=1)
        params = ModelParams(CellParams(2, 2), [(np.zeros((2, 2)), np.zeros(2))])
        res = forward(sample, params, cfg, np.random.default_rng(0), mode="train")
        total, task, edge = compute_loss(res, sample, cfg)
        assert edge == pytest.approx(0.25, abs=1e-15)
        assert total == pytest.approx(task + edge, abs=1e-15)

    def test_label_out_of_range(self):
        rng = np.random.default_rng(9)
        cfg = tiny_cfg(c=3)
        g = LevelGraph(3, [(0, 1), (1, 2)])
        sample = Sample(g, rng.normal(size=(3, 3)), [0, 1, 5])
        params = random_model(rng, cfg)
        with pytest.raises(ValueError, match="label"):
            forward(sample, params, cfg, np.random.default_rng(0), mode="train")

    def test_edge_weight_scales_total(self):
        rng = np.random.default_rng(10)
        sample = make_sample(rng, n=6)
        params_rng = np.random.default_rng(11)
        run_rng = lambda: np.random.default_rng(12)
        cfg1 = tiny_cfg(edge_loss_weight=1.0)
        cfg2 = tiny_cfg(edge_loss_weight=2.0)
        params = random_model(params_rng, cfg1)
        r1 = forward(sample, params, cfg1, run_rng(), mode="test")
        r2 = forward(sample, params, cfg2, run_rng(), mode="test")
        t1, task1, e1 = compute_loss(r1, sample, cfg1)
        t2, task2, e2 = compute_loss(r2, sample, cfg2)
        assert task1 == task2 and e1 == e2
        assert t2 - task2 == pytest.approx(2 * (t1 - task1), rel=1e-12)

    def test_loss_terms_run_once_per_train_step(self, monkeypatch):
        # a train-mode forward computes its loss once, for compute_loss and
        # backward to read; a test-mode forward computes none, and
        # compute_loss computes a test-mode result's when asked
        from sevolve import optim

        calls = []
        inner = network._loss_terms

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(network, "_loss_terms", counted)
        rng = np.random.default_rng(62)
        cfg = tiny_cfg(layers=3)
        params = random_model(rng, cfg)
        samples = [make_sample(rng, n=n) for n in (5, 7, 9)]
        # the epoch-end evaluations predict the samples in test mode
        optim.train(samples, params, cfg, optim.OptimConfig(epochs=2, seed=3))
        assert len(calls) == 2 * 3
        calls.clear()
        sample = samples[0]
        res = forward(sample, params, cfg, np.random.default_rng(0), mode="test")
        predict(sample, params, cfg, np.random.default_rng(0))
        assert len(calls) == 0
        compute_loss(res, sample, cfg)
        assert len(calls) == 1
        calls.clear()
        res = forward(sample, params, cfg, np.random.default_rng(0), mode="train")
        compute_loss(res, sample, cfg)
        backward(res, sample, cfg)
        assert len(calls) == 1

    @pytest.mark.parametrize("grid_n", [4, 8, 16, 32])
    def test_stored_loss_is_the_loss_of_a_test_mode_replay(self, grid_n):
        # the loss a train-mode forward stores and the one compute_loss
        # computes for a test-mode replay of its structure agree bit for bit
        shipped = Path(__file__).resolve().parent.parent / "perfbench" / "model.ckpt"
        params, meta = load_checkpoint(shipped)
        cfg = NetworkConfig(**meta, evolve=EvolveConfig(max_trials=50))
        gen = GenConfig(grid_n=grid_n, num_labels=cfg.num_classes, feature_dim=cfg.input_dim)
        for idx in range(3):
            sample = generate_sample(gen, np.random.default_rng([63, grid_n, idx]))
            res = forward(sample, params, cfg, np.random.default_rng([64, idx]), mode="train")
            replay = forward(sample, params, cfg, None, mode="test", plan=res.plan())
            assert res.loss is not None and replay.loss is None
            assert _same_bits(compute_loss(res, sample, cfg), compute_loss(replay, sample, cfg))

    @pytest.mark.parametrize("seed", range(4))
    def test_softmax_cross_entropy_matches_the_max_reduction(self, seed):
        # the running np.maximum over the columns against logits.max(axis=1):
        # the same loss and softmax bits, ties, signed zeros and huge values
        # among random logits included
        rng = np.random.default_rng([seed, 60])
        specials = np.array([0.0, -0.0, 1e300, -1e300])
        for rows in (1, 2, 7, 100, 1024):
            for classes in range(2, 9):
                logits = rng.normal(scale=3.0, size=(rows, classes))
                # exact ties with the row's largest value, then specials
                top = logits.argmax(axis=1)
                tie = (top + 1) % classes
                logits[np.arange(rows), tie] = logits[np.arange(rows), top]
                hit = rng.random((rows, classes)) < 0.2
                logits[hit] = rng.choice(specials, hit.sum())
                labels = rng.integers(0, classes, rows)
                loss, soft = network._softmax_cross_entropy(logits, labels)
                ref_loss, ref_soft = _softmax_cross_entropy_max_reduce(logits, labels)
                assert _same_bits(loss, ref_loss), (rows, classes)
                assert _same_bits(soft, ref_soft), (rows, classes)

    def test_softmax_cross_entropy_nan_row(self):
        rng = np.random.default_rng(61)
        for col in range(3):
            logits = rng.normal(size=(5, 3))
            logits[2, col] = np.nan
            labels = rng.integers(0, 3, 5)
            loss, soft = network._softmax_cross_entropy(logits, labels)
            ref_loss, ref_soft = _softmax_cross_entropy_max_reduce(logits, labels)
            assert math.isnan(loss) and _same_bits(loss, ref_loss)
            assert np.isnan(soft[2]).all() and np.isfinite(np.delete(soft, 2, axis=0)).all()
            assert _same_bits(soft, ref_soft)


def _softmax_cross_entropy_max_reduce(logits, labels):
    """_softmax_cross_entropy with the row maximum by logits.max(axis=1)."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    sums = e.sum(axis=1)
    loss = float(np.mean(np.log(sums) - z[np.arange(len(labels)), labels]))
    return loss, e / sums[:, None]


def _grads_by_name(g):
    return dict(g.tensors())


class TestBackward:
    def test_edge_weight_doubling_doubles_edge_gradients(self):
        rng = np.random.default_rng(13)
        sample = make_sample(rng, n=6)
        params = random_model(np.random.default_rng(14), tiny_cfg())
        plans = {}
        grads = {}
        for lam in (0.0, 1.0, 2.0):
            cfg = tiny_cfg(edge_loss_weight=lam)
            res = forward(sample, params, cfg, np.random.default_rng(15), mode="train")
            grads[lam] = _grads_by_name(backward(res, sample, cfg))
            plans[lam] = res.plan()
        for a, b in zip(plans[0.0].partitions, plans[1.0].partitions):
            assert np.array_equal(a.assignment, b.assignment)
        for name in grads[0.0]:
            task_part = grads[0.0][name]
            edge_part1 = grads[1.0][name] - task_part
            edge_part2 = grads[2.0][name] - task_part
            np.testing.assert_allclose(edge_part2, 2.0 * edge_part1,
                                       rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("fixed_plan", [False, True], ids=["sampled", "fixed-plan"])
    def test_full_network_finite_differences(self, fixed_plan):
        # D = H = 3, frozen structure replay. Without a fixed plan: 6 nodes,
        # 2 layers, whatever structure the run samples. With one: both
        # transitions merge nodes, and every level has nodes without
        # neighbors (base node 6, coarse nodes 3 and 4, all of level 2).
        rng = np.random.default_rng(16)
        if fixed_plan:
            cfg = tiny_cfg(d=3, c=3, layers=3)
            g = LevelGraph(7, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)])
            sample = Sample(g, rng.normal(size=(7, 3)), rng.integers(0, 3, size=7))
            plan = StructurePlan(
                visit_orders=[np.array([3, 6, 0, 5, 2, 1, 4]), np.array([2, 4, 0, 3, 1]),
                              np.array([1, 2, 0])],
                partitions=[CliquePartition(np.array([0, 0, 1, 2, 3, 3, 4]), 5),
                            CliquePartition(np.array([0, 0, 0, 1, 2]), 3)])
        else:
            cfg = tiny_cfg(d=3, c=3, layers=2)
            sample = make_sample(rng, n=6, d=3, c=3)
            plan = None
        params = random_model(np.random.default_rng(17), cfg)
        res = forward(sample, params, cfg, np.random.default_rng(18), mode="train", plan=plan)
        plan = res.plan()
        if fixed_plan:
            assert [lv.num_edges for lv in res.trace.levels] == [5, 3, 0]
        analytic = _grads_by_name(backward(res, sample, cfg))

        def loss_now():
            replay = forward(sample, params, cfg, None, mode="train", plan=plan)
            return compute_loss(replay, sample, cfg)[0]

        step = 1e-5
        worst = 0.0
        for name, t in params.tensors():
            a = analytic[name].reshape(-1)
            flat = t.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = loss_now()
                flat[i] = orig - step
                down = loss_now()
                flat[i] = orig
                numeric = (up - down) / (2 * step)
                rel = abs(a[i] - numeric) / max(abs(a[i]), abs(numeric), 1e-8)
                worst = max(worst, rel)
                assert rel < 1e-5, f"{name}[{i}]: analytic {a[i]}, numeric {numeric}"
        assert worst < 1e-5

    def test_relabeling_equivariance(self):
        # permuting node ids (with inputs and the recorded structure mapped
        # through the permutation) permutes the outputs
        rng = np.random.default_rng(19)
        cfg = tiny_cfg(d=3, c=3, layers=3)
        n = 7
        sample = make_sample(rng, n=n, d=3, c=3)
        params = random_model(np.random.default_rng(20), cfg)
        res = forward(sample, params, cfg, np.random.default_rng(21), mode="train")
        plan = res.plan()

        pi = np.random.default_rng(22).permutation(n)  # old id -> new id
        g2 = LevelGraph(n, [(int(pi[a]), int(pi[b])) for a, b in sample.graph.edges])
        feats2 = np.zeros_like(sample.features)
        feats2[pi] = sample.features
        labels2 = np.zeros_like(sample.labels)
        labels2[pi] = sample.labels
        sample2 = Sample(g2, feats2, labels2)

        pi_t = pi
        orders2 = []
        parts2 = []
        for t, order in enumerate(plan.visit_orders):
            orders2.append(np.array([int(pi_t[i]) for i in order]))
            if t < len(plan.partitions):
                part = plan.partitions[t]
                # relabel cliques by ascending minimum permuted member id
                min_new = np.full(part.num_cliques, np.iinfo(np.int64).max)
                for old_node, c in enumerate(part.assignment):
                    min_new[c] = min(min_new[c], pi_t[old_node])
                relabel = np.argsort(np.argsort(min_new, kind="stable"), kind="stable")
                assign2 = np.zeros(part.num_nodes, dtype=np.intp)
                for old_node, c in enumerate(part.assignment):
                    assign2[pi_t[old_node]] = relabel[c]
                parts2.append(CliquePartition(assign2, part.num_cliques))
                pi_t = relabel
        res2 = forward(sample2, params, cfg, None, mode="train",
                       plan=StructurePlan(orders2, parts2))

        want = np.zeros_like(res.combined_logits)
        want[pi] = res.combined_logits
        np.testing.assert_allclose(res2.combined_logits, want, rtol=1e-10, atol=1e-12)


class TestPredict:
    def test_argmax_unique(self):
        assert list(np.argmax(np.array([[0.1, 3.0, -1.0], [2.0, 0.0, 1.0]]), axis=1)) == [1, 0]

    def test_tie_breaks_to_smaller_class(self):
        logits = np.array([[0.0, 5.0, 0.0, 5.0]])
        assert int(np.argmax(logits, axis=1)[0]) == 1

    def test_zero_params_predicts_class_zero(self):
        rng = np.random.default_rng(23)
        cfg = tiny_cfg(d=3, c=3, layers=2)
        sample = make_sample(rng, n=5)
        params = ModelParams(CellParams(3, 3),
                             [(np.zeros((3, 3)), np.zeros(3)) for _ in range(2)])
        pred = predict(sample, params, cfg, np.random.default_rng(0))
        assert np.array_equal(pred, np.zeros(5, dtype=np.intp))


def _grid_samples(rng, sizes, d=3, c=3):
    return [generate_sample(GenConfig(grid_n=n, num_labels=c, feature_dim=d), rng)
            for n in sizes]


def _union_cfg(threshold=None):
    return NetworkConfig(input_dim=3, num_classes=3, num_layers=4,
                         evolve=EvolveConfig(max_trials=20, threshold=threshold))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _assert_same_pass(res, ref):
    """Two forward results agree bit for bit, trial logs included."""
    assert res.mode == ref.mode
    assert _same_bits(res.combined_logits, ref.combined_logits)
    for name in ("level_logits", "orders", "amaps"):
        assert all(map(_same_bits, getattr(res, name), getattr(ref, name))), name
    assert all(map(_same_bits, res.trace.edge_probs, ref.trace.edge_probs))
    assert res.trace.levels == ref.trace.levels
    assert res.trace.partitions == ref.trace.partitions
    kept = range(len(ref.trace.partitions))
    assert [res.trace.kept(t) for t in kept] == [ref.trace.kept(t) for t in kept]
    for d, d_ref in zip(res.trace.decisions, ref.trace.decisions, strict=True):
        for f in ("accepted", "posterior_evaluated", "posterior_ratio"):
            assert _same_bits(getattr(d, f), getattr(d_ref, f)), f
        assert d.rng_state == d_ref.rng_state and d.threshold == d_ref.threshold


class TestUnion:
    """A union sample's test-mode pass against each part's plain forward;
    a plain sample is a one-part union."""

    # "mixed": some part merges nodes at some transition and some part
    # merges none at another; "kept": no part ever merges
    @pytest.mark.parametrize("case", ["mh-mixed", "mh-kept", "threshold-mixed"])
    @pytest.mark.parametrize("seed", range(3))
    def test_parts_match_their_own_forward(self, case, seed):
        rng = np.random.default_rng([seed, 40])
        threshold = None
        sizes = (16, 8, 5) if case == "mh-kept" else (2, 16, 3, 8, 5, 4)
        cfg = _union_cfg()
        params = random_model(rng, cfg)
        parts = _grid_samples(rng, sizes)
        seeds = [[seed, 41, k] for k in range(len(parts))]
        if case == "threshold-mixed":
            # between the parts' largest level-0 edge probabilities, which
            # do not depend on the transitions: only some parts merge
            tops = sorted(forward(p, params, cfg, np.random.default_rng(s), mode="test")
                          .trace.edge_probs[0].max() for p, s in zip(parts, seeds))
            threshold = 0.5 * (tops[2] + tops[3])
            cfg = _union_cfg(threshold)
        refs = [forward(p, params, cfg, np.random.default_rng(s), mode="test")
                for p, s in zip(parts, seeds)]
        union = Sample.union(parts)
        assert union.offsets == tuple(np.cumsum([0] + [p.num_nodes for p in parts]))
        res = forward(union, params, cfg, [np.random.default_rng(s) for s in seeds],
                      mode="test")

        # per level, each part's node offset in the union
        sizes_by_level = np.array([[g.num_nodes for g in r.trace.levels] for r in refs])
        starts = np.vstack([np.zeros(4, dtype=int), np.cumsum(sizes_by_level, axis=0)])
        merged = unmerged = False
        for t in range(4):
            assert res.trace.levels[t].num_nodes == starts[-1, t]
            p_union = res.trace.edge_probs[t]
            edge_cut = 0
            for k, ref in enumerate(refs):
                lo, hi = starts[k, t], starts[k + 1, t]
                np.testing.assert_array_equal(res.orders[t][lo:hi] - lo, ref.orders[t])
                np.testing.assert_allclose(res.level_logits[t][lo:hi], ref.level_logits[t],
                                           rtol=1e-12, atol=0)
                m = ref.trace.levels[t].num_edges
                np.testing.assert_array_equal(
                    res.trace.levels[t].edges[edge_cut:edge_cut + m] - lo,
                    ref.trace.levels[t].edges)
                np.testing.assert_allclose(p_union[edge_cut:edge_cut + m],
                                           ref.trace.edge_probs[t], rtol=1e-12, atol=0)
                edge_cut += m
                if t < 3:
                    np.testing.assert_array_equal(
                        res.trace.partitions[t].assignment[lo:hi] - starts[k, t + 1],
                        ref.trace.partitions[t].assignment)
                    shrinks = ref.trace.partitions[t].num_cliques < ref.trace.levels[t].num_nodes
                    merged |= shrinks
                    unmerged |= not shrinks
            if t < 3:
                # the parts' trials, in part order
                assert [(d.accepted, d.posterior_evaluated) for d in res.trace.decisions[t]] \
                    == [(d.accepted, d.posterior_evaluated)
                        for r in refs for d in r.trace.decisions[t]]
                # the union keeps a level only when every part keeps its own
                assert res.trace.kept(t) == all(r.trace.kept(t) for r in refs)
        assert (merged, unmerged) == ((False, True) if case == "mh-kept" else (True, True))
        if case == "mh-kept":
            assert all(res.trace.kept(t) for t in range(3))
        if case == "mh-mixed":
            # an MH transition that accepted a merge
            assert any(r.trace.decisions[t].accepted.any()
                       and r.trace.partitions[t].num_cliques < r.trace.levels[t].num_nodes
                       for r in refs for t in range(3))

        ref_logits = np.concatenate([r.combined_logits for r in refs])
        np.testing.assert_allclose(res.combined_logits, ref_logits, rtol=1e-12, atol=0)
        pred = predict(union, params, cfg, [np.random.default_rng(s) for s in seeds])
        want = np.concatenate([predict(p, params, cfg, np.random.default_rng(s))
                               for p, s in zip(parts, seeds)])
        np.testing.assert_array_equal(pred, want)

    @pytest.mark.parametrize("grid_n, threshold", [(2, None), (16, None), (5, 0.5)],
                             ids=["mh-merges", "mh-keeps", "threshold"])
    def test_one_part_union_is_the_plain_forward(self, grid_n, threshold):
        rng = np.random.default_rng(43)
        cfg = _union_cfg(threshold)
        params = random_model(rng, cfg)
        (sample,) = _grid_samples(rng, [grid_n])
        ref_rng, rng = np.random.default_rng(44), np.random.default_rng(44)
        ref = forward(sample, params, cfg, ref_rng, mode="test")
        res = forward(Sample.union([sample]), params, cfg, [rng], mode="test")
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        _assert_same_pass(res, ref)
        if threshold is None and grid_n == 2:
            assert not ref.trace.kept(0)

    @pytest.mark.parametrize("threshold", [None, 0.5], ids=["mh", "threshold"])
    @pytest.mark.parametrize("one_part", ["plain", "union"])
    def test_bare_generator_is_a_sequence_of_one(self, one_part, threshold):
        rng = np.random.default_rng(47)
        cfg = _union_cfg(threshold)
        params = random_model(rng, cfg)
        (sample,) = _grid_samples(rng, [3])
        if one_part == "union":
            sample = Sample.union([sample])
        bare, seq = np.random.default_rng(48), np.random.default_rng(48)
        ref = forward(sample, params, cfg, bare, mode="test")
        _assert_same_pass(forward(sample, params, cfg, [seq], mode="test"), ref)
        assert seq.bit_generator.state == bare.bit_generator.state
        pred = predict(sample, params, cfg, [seq])
        assert _same_bits(pred, predict(sample, params, cfg, bare))
        assert seq.bit_generator.state == bare.bit_generator.state
        assert sample.offsets == (0, 9)

    def test_one_part_needs_one_rng(self):
        rng = np.random.default_rng(49)
        cfg = tiny_cfg(layers=2)
        params = random_model(rng, cfg)
        (sample,) = _grid_samples(rng, [2])
        for one_part in (sample, Sample.union([sample])):
            for wrong in ([], [np.random.default_rng(k) for k in range(2)]):
                with pytest.raises(ValueError, match="needs a sequence of 1 rngs"):
                    forward(one_part, params, cfg, wrong, mode="train")
                with pytest.raises(ValueError, match="needs a sequence of 1 rngs"):
                    predict(one_part, params, cfg, wrong)

    @pytest.mark.parametrize("grid_n, threshold", [(2, None), (4, None), (5, 0.5)],
                             ids=["mh-2x2", "mh-4x4", "threshold"])
    def test_one_part_train_mode_is_the_plain_forward(self, grid_n, threshold):
        rng = np.random.default_rng(50)
        cfg = _union_cfg(threshold)
        params = random_model(rng, cfg)
        (sample,) = _grid_samples(rng, [grid_n])
        ref_rng = np.random.default_rng(51)
        ref = forward(sample, params, cfg, ref_rng)
        ref_losses = compute_loss(ref, sample, cfg)
        ref_grads = backward(ref, sample, cfg).tensors()
        if threshold is None:
            # the trials were scored with the train-mode posterior: a
            # test-mode log holds posterior ratio 1 for every trial
            assert any((d.posterior_ratio != 1.0).any() for d in ref.trace.decisions)
        for one_part in (Sample.union([sample]), sample):
            rng = np.random.default_rng(51)
            res = forward(one_part, params, cfg, [rng], mode="train")
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            _assert_same_pass(res, ref)
            assert compute_loss(res, one_part, cfg) == ref_losses
            for (name, g), (_, g_ref) in zip(backward(res, one_part, cfg).tensors(), ref_grads,
                                             strict=True):
                assert _same_bits(g, g_ref), name

    def test_refusals(self):
        rng = np.random.default_rng(45)
        cfg = tiny_cfg(layers=2)
        params = random_model(rng, cfg)
        parts = _grid_samples(rng, [2, 3])
        union = Sample.union(parts)
        rngs = [np.random.default_rng(k) for k in range(2)]
        plan = forward(parts[0], params, cfg, np.random.default_rng(0)).plan()
        with pytest.raises(ValueError, match="test mode only, not train mode"):
            forward(union, params, cfg, rngs, mode="train")
        with pytest.raises(ValueError, match="replays no plan"):
            forward(union, params, cfg, None, mode="test", plan=plan)
        for wrong in (np.random.default_rng(0), rngs[:1], rngs * 2):
            with pytest.raises(ValueError, match="needs a sequence of 2 rngs"):
                predict(union, params, cfg, wrong)
        with pytest.raises(ValueError, match="share one feature dim, got \\[3, 4\\]"):
            Sample.union([parts[0], *_grid_samples(rng, [2], d=4)])
        with pytest.raises(ValueError, match="at least one sample"):
            Sample.union([])

    def test_union_log_is_not_replayed(self):
        from sevolve.evolve import replay_trials

        rng = np.random.default_rng(46)
        cfg = tiny_cfg(layers=2)
        params = random_model(rng, cfg)
        union = Sample.union(_grid_samples(rng, [3, 3]))
        res = forward(union, params, cfg, [np.random.default_rng(k) for k in range(2)],
                      mode="test")
        (log,) = res.trace.decisions
        assert len(log) and log.rng_state is None
        with pytest.raises(ValueError, match="replay each part on its own sample"):
            replay_trials(log)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(24)
        cfg = tiny_cfg(d=3, c=4, layers=3)
        params = init_params(cfg, rng)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        loaded, meta = load_checkpoint(path)
        assert meta == {"input_dim": 3, "hidden_dim": 3, "num_classes": 4,
                        "num_layers": 3}
        for (n1, t1), (n2, t2) in zip(params.tensors(), loaded.tensors()):
            assert n1 == n2
            assert np.array_equal(t1, t2)

    def test_shipped_checkpoint_rewrites_its_bytes(self, tmp_path):
        # pins the tensor order and the header every existing checkpoint has
        shipped = Path(__file__).resolve().parent.parent / "perfbench" / "model.ckpt"
        params, meta = load_checkpoint(shipped)
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, NetworkConfig(**meta))
        assert path.read_bytes() == shipped.read_bytes()

    def test_save_is_deterministic(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg, np.random.default_rng(1))
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(p1, params, cfg)
        save_checkpoint(p2, params, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_rejects_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("NOT-A-CKPT v9 D=1 H=1 C=2 layers=1\n")
        with pytest.raises(ValueError, match="checkpoint"):
            load_checkpoint(path)

    def test_rejects_dim_mismatch(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg, np.random.default_rng(2))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        text = path.read_text().replace("tensor w_u 3 3", "tensor w_u 3 2", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="dims"):
            load_checkpoint(path)

    def test_rejects_wrong_tensor_name(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg, np.random.default_rng(3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        text = path.read_text().replace("tensor w_u ", "tensor w_moon ", 1)
        path.write_text(text)
        with pytest.raises(ValueError, match="expected tensor w_u"):
            load_checkpoint(path)

    def test_rejects_truncated(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg, np.random.default_rng(4))
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, params, cfg)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:10]) + "\n")
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("old, new, problem", [
        ("H=3", "H", "malformed header token"),
        ("H=3", "=3", "malformed header token"),
        ("D=3", "D=x", "not an integer"),
        ("C=3", "C=2.5", "not an integer"),
        # int() alone takes these: a non-ASCII digit, '+' and '_'
        ("H=3", "H=\u0663", "not an integer"),
        ("layers=2", "layers=+2", "not an integer"),
        ("C=3", "C=0_3", "not an integer"),
        ("D=3", "D=0", "must be positive"),
        ("layers=2", "layers=-1", "must be positive"),
        (" D=3", "", "missing field"),
        ("layers=2", "layers=2 X=1", "unknown header field 'X'"),
        ("layers=2", "layers=2 D=3", "repeated header field 'D'"),
        ("layers=2", "layers=2 D=4", "repeated header field 'D'"),
    ])
    def test_rejects_bad_header(self, tmp_path, old, new, problem):
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(cfg, np.random.default_rng(5)), cfg)
        header, rest = path.read_text().split("\n", 1)
        assert header == "SEVOLVE-CKPT v1 D=3 H=3 C=3 layers=2"
        path.write_text(header.replace(old, new, 1) + "\n" + rest)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: .*{problem}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name, row, token, problem", [
        ("w_u", 0, "x", "are not integers"),
        ("w_u", 0, "\uff13", "are not integers"),
        ("w_f", 1, "abc", "non-numeric value"),
        ("w_f", 1, "nan", "non-finite value"),
        ("b_o", 1, "-inf", "non-finite value"),
    ])
    def test_rejects_bad_tensor_body(self, tmp_path, name, row, token, problem):
        # row 0 is the tensor's dims line, row 1 its first value row; the
        # last token of that line is replaced
        cfg = tiny_cfg()
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, init_params(cfg, np.random.default_rng(6)), cfg)
        lines = path.read_text().splitlines()
        k = lines.index(f"tensor {name} " + " ".join(["3"] * (1 if name[0] == "b" else 2)))
        k += row
        lines[k] = " ".join(lines[k].split()[:-1] + [token])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:{k + 1}: .*{problem}"):
            load_checkpoint(path)
