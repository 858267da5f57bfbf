import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sevolve import evolve
from sevolve.data import GenConfig, generate_sample, grid_graph
from sevolve.evolve import (
    EvolveConfig,
    TrialLog,
    evolve_deterministic,
    evolve_step,
    posterior_ratio,
    replay_trials,
    trace_records,
)
from sevolve.graph import CliquePartition, LevelGraph
from sevolve.network import NetworkConfig, Sample, StructurePlan, forward, init_params
from oracles import (
    coarsen,
    eliminated_edge_product,
    mh_search,
    propose,
    random_connected_graph,
    transition_ratio,
    union_find_components,
)

TRIANGLE = LevelGraph(3, [(0, 1), (0, 2), (1, 2)])


class TestPropose:
    def test_certain_selection_merges_components(self):
        g = LevelGraph(5, [(0, 1), (1, 2), (3, 4)])
        selected, part, coarse = propose(g, np.ones(3), np.random.default_rng(0))
        assert selected.tolist() == g.edges.tolist()
        assert part.num_cliques == 2
        assert coarse.num_nodes == 2
        assert coarse.edges.tolist() == []

    def test_impossible_selection_is_identity(self):
        g = LevelGraph(4, [(0, 1), (2, 3)])
        selected, part, coarse = propose(g, np.zeros(2), np.random.default_rng(0))
        assert selected.tolist() == []
        assert part.num_cliques == part.num_nodes
        assert coarse == g

    def test_replays_documented_draw_order(self):
        # one uniform draw per edge in canonical order, as one rng.random call
        seed = 1234
        for trial_seed in range(20):
            probs = np.full(3, 0.5)
            selected, part, _ = propose(TRIANGLE, probs, np.random.default_rng([seed, trial_seed]))
            replay = np.random.default_rng([seed, trial_seed]).random(3)
            expected = [e for e, u in zip(TRIANGLE.edges.tolist(), replay) if u < 0.5]
            assert selected.tolist() == expected
            oracle_assign, oracle_count = union_find_components(3, expected)
            assert list(part.assignment) == oracle_assign
            assert part.num_cliques == oracle_count

    def test_rejects_out_of_range_probability(self):
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            propose(TRIANGLE, np.array([0.5, 1.5, 0.5]), np.random.default_rng(0))
        with pytest.raises(ValueError, match="\\[0, 1\\]"):
            propose(TRIANGLE, np.array([0.5, -0.1, 0.5]), np.random.default_rng(0))

    def test_rejects_wrong_count(self):
        with pytest.raises(ValueError, match="one probability per edge"):
            propose(TRIANGLE, np.array([0.5, 0.5]), np.random.default_rng(0))


class TestTransitionRatio:
    def test_identity_partition_empty_product(self):
        part = CliquePartition.identity(3)
        assert transition_ratio(TRIANGLE, part, np.array([0.2, 0.4, 0.9])) == 1.0

    def test_single_eliminated_edge(self):
        g = LevelGraph(2, [(0, 1)])
        part, _ = coarsen(g, [(0, 1)])
        assert transition_ratio(g, part, np.array([0.3])) == pytest.approx(0.3, abs=1e-15)

    def test_two_eliminated_edges(self):
        # direct product: 0.9 * 0.8 = 0.72
        g = LevelGraph(3, [(0, 1), (1, 2)])
        part, _ = coarsen(g, g.edges)
        got = transition_ratio(g, part, np.array([0.9, 0.8]))
        assert got == pytest.approx(0.72, abs=1e-12)

    def test_unselected_intra_clique_edge_counts(self):
        # merging 0-1 and 1-2 of a triangle also eliminates the 0-2 edge
        part, _ = coarsen(TRIANGLE, [(0, 1), (1, 2)])
        probs = np.array([0.9, 0.5, 0.8])  # edges (0,1), (0,2), (1,2)
        got = transition_ratio(TRIANGLE, part, probs)
        assert got == pytest.approx(0.9 * 0.5 * 0.8, abs=1e-12)

    def test_zero_probability_eliminated_edge(self):
        part, _ = coarsen(TRIANGLE, [(0, 1), (1, 2)])
        assert transition_ratio(TRIANGLE, part, np.array([1.0, 0.0, 1.0])) == 0.0

    def test_matches_brute_force_on_small_graphs(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            edges = random_connected_graph(rng, n)
            g = LevelGraph(n, edges)
            probs = rng.uniform(0.05, 0.95, g.num_edges)
            sel = [e for e in edges if rng.random() < 0.5]
            part, _ = coarsen(g, sel)
            brute = eliminated_edge_product(g.edges, list(part.assignment), probs)
            assert abs(transition_ratio(g, part, probs) - brute) <= 1e-12

    def test_underflow_safe_in_log_space(self):
        n = 80
        edges = [(i, i + 1) for i in range(n - 1)]
        g = LevelGraph(n, edges)
        part, _ = coarsen(g, edges)
        probs = np.full(n - 1, 1e-6)
        got = transition_ratio(g, part, probs)
        assert got == pytest.approx(math.exp((n - 1) * math.log(1e-6)), rel=1e-12)


class TestPosteriorRatio:
    def test_equal_losses(self):
        assert posterior_ratio(2.5, 2.5) == 1.0

    def test_improvement(self):
        assert posterior_ratio(1.0, 0.5) == pytest.approx(math.exp(0.5), rel=1e-15)
        assert posterior_ratio(1.0, 0.5) == pytest.approx(1.6487212707001282, rel=1e-15)

    def test_degradation(self):
        assert posterior_ratio(0.0, 10.0) == pytest.approx(4.5399929762484854e-05, rel=1e-15)

    def test_exponent_clamped(self):
        assert posterior_ratio(1e9, 0.0) == math.exp(50.0)
        assert posterior_ratio(0.0, 1e9) == math.exp(-50.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            posterior_ratio(float("nan"), 0.0)
        with pytest.raises(ValueError, match="finite"):
            posterior_ratio(0.0, float("inf"))


class TestEvolveStep:
    def test_certain_merge_accepted_first_trial(self):
        g = LevelGraph(5, [(0, 1), (1, 2), (3, 4)])
        cfg = EvolveConfig()
        coarse, part, log = evolve_step(g, np.ones(3), None, cfg, np.random.default_rng(0))
        assert len(log) == 1
        (trial,) = replay_trials(log)
        assert trial.accepted
        assert trial.alpha == 1.0
        assert trial.transition_ratio == 1.0
        assert coarse.num_nodes == 2  # one node per connected component

    def test_replay_needs_the_rng_state(self):
        # a log with trials but no rng state, as a union sample's is,
        # raised TypeError from indexing the missing state
        g = LevelGraph(3, [(0, 1), (1, 2)])
        log = TrialLog(g, np.array([0.5, 0.5]), accepted=[False, True],
                       posterior_evaluated=[True, True], posterior_ratio=[1.0, 1.0])
        with pytest.raises(ValueError, match="no rng state.*replay each part on its own sample"):
            replay_trials(log)
        # without trials there is nothing to redraw
        assert replay_trials(TrialLog(g, np.array([0.5, 0.5]))) == []

    def test_replay_leaves_the_callers_rng(self):
        # the replay redraws from the log's saved state the trials the
        # per-trial loop draws from the transition's start
        g = grid_graph(4)
        probs = np.full(g.num_edges, 0.9)
        rng = np.random.default_rng(0)
        _, _, log = evolve_step(g, probs, None, EvolveConfig(max_trials=30), rng)
        assert len(log) == 19 and log.accepted[-1]
        left_at = rng.bit_generator.state
        replayed = replay_trials(log)
        assert rng.bit_generator.state == left_at
        want, _ = mh_search(g, probs, None, 30, np.random.default_rng(0))
        assert [list(map(tuple, t.selected.tolist())) for t in replayed] == [w[0] for w in want]

    def test_exhaustion_returns_identity(self):
        g = LevelGraph(4, [(0, 1), (1, 2), (2, 3)])
        probs = np.full(3, 0.999)  # empty proposals effectively never happen

        def loss_eval(part, graph):
            return 0.0 if part.num_cliques == part.num_nodes else 1e9

        cfg = EvolveConfig(max_trials=50)
        coarse, part, traces = evolve_step(g, probs, loss_eval, cfg,
                                           np.random.default_rng(42))
        assert len(traces) == 50
        assert not any(t.accepted for t in traces)
        assert part.num_cliques == part.num_nodes
        assert coarse == g

    @pytest.mark.parametrize("train", [False, True], ids=["test", "train"])
    def test_rejection_keeps_the_graph_object(self, train):
        # network.forward carries a kept level's arrays over on this
        # contract: the same LevelGraph object comes back with the identity
        # partition, in train mode the very one the current loss was
        # scored on
        g = grid_graph(6)
        scored = []

        def loss_eval(part, graph):
            scored.append(part)
            return 0.0 if part.num_cliques == part.num_nodes else 1e9

        coarse, part, log = evolve_step(g, np.full(g.num_edges, 0.5),
                                        loss_eval if train else None,
                                        EvolveConfig(max_trials=20), np.random.default_rng(1))
        assert len(log) == 20 and not log.accepted.any()
        assert coarse is g
        assert part == CliquePartition.identity(g.num_nodes)
        if train:
            assert scored[0] is part
        else:
            assert not scored

    def test_train_mode_trace_reproducible(self):
        g = LevelGraph(6, random_connected_graph(np.random.default_rng(3), 6))
        probs = np.random.default_rng(4).uniform(0.3, 0.9, g.num_edges)

        def loss_eval(part, graph):
            return 0.1 * part.num_cliques

        cfg = EvolveConfig(max_trials=10)
        runs = []
        for _ in range(2):
            _, _, log = evolve_step(g, probs, loss_eval, cfg, np.random.default_rng(99))
            runs.append([(t.trial, t.selected.tolist(), t.transition_ratio, t.posterior_ratio,
                          t.alpha, t.accepted) for t in replay_trials(log)])
        assert runs[0] == runs[1]

    def test_test_mode_never_calls_loss_eval(self):
        # without a loss callback the posterior ratio is 1, so alpha is
        # the transition ratio capped at 1
        g = LevelGraph(6, random_connected_graph(np.random.default_rng(5), 6))
        probs = np.random.default_rng(6).uniform(0.2, 0.95, g.num_edges)
        cfg = EvolveConfig(max_trials=20)
        _, _, log = evolve_step(g, probs, None, cfg, np.random.default_rng(7))
        assert len(log) > 1
        for t in replay_trials(log):
            assert t.posterior_ratio == 1.0 and t.posterior_evaluated
            assert t.alpha == min(1.0, t.transition_ratio)

    def test_posterior_skipping_matches_brute_force(self):
        # a plain MH loop with the same draws (rng.random(m), then
        # rng.random()) that evaluates the posterior on every trial
        rng = np.random.default_rng(13)
        evaluated = skipped = accepted = 0
        for _ in range(200):
            n = int(rng.integers(2, 9))
            g = LevelGraph(n, random_connected_graph(rng, n))
            probs = rng.uniform(0.05, 0.95, g.num_edges)
            labels = rng.integers(0, 2, size=n)
            base, mix = rng.uniform(0.0, 3.0), rng.uniform(0.0, 5.0)
            calls = []

            def loss_eval(part, graph):
                calls.append(part)
                assign = part.assignment
                mixed = [(labels[assign == c].min() != labels[assign == c].max())
                         for c in assign]
                return base * part.num_cliques / n + mix * sum(mixed) / n

            seed = int(rng.integers(1 << 30))
            _, part, traces = evolve_step(g, probs, loss_eval, EvolveConfig(max_trials=5),
                                          np.random.default_rng(seed))
            n_eval = sum(t.posterior_evaluated for t in traces)
            assert len(calls) == 1 + n_eval  # the current graph, then each evaluated trial

            ref = np.random.default_rng(seed)
            loss_old = loss_eval(CliquePartition.identity(n), g)
            want_assign = list(range(n))
            want = []
            for _ in range(5):
                draws = ref.random(g.num_edges)
                sel = [e for e, u, p in zip(g.edges, draws, probs) if u < p]
                assign, count = union_find_components(n, sel)
                loss_new = loss_eval(CliquePartition(np.array(assign), count), g)
                alpha = min(1.0, eliminated_edge_product(g.edges, assign, probs)
                            * math.exp(min(50.0, max(-50.0, loss_old - loss_new))))
                want.append(ref.random() < alpha)
                if want[-1]:
                    want_assign = assign
                    break
            assert [t.accepted for t in traces] == want
            assert list(part.assignment) == want_assign
            assert all(t.posterior_evaluated for t in traces if t.accepted)
            evaluated += n_eval
            skipped += len(traces) - n_eval
            accepted += any(want)
        assert evaluated and skipped and accepted

    @pytest.mark.parametrize("old, new", [(-0.5, 1.0), (1.0, -0.5)])
    def test_rejects_negative_loss(self, old, new):
        def loss_eval(part, graph):
            return old if part.num_cliques == part.num_nodes else new

        with pytest.raises(ValueError, match="non-negative"):
            evolve_step(LevelGraph(2, [(0, 1)]), np.ones(1), loss_eval,
                        EvolveConfig(max_trials=1), np.random.default_rng(0))

    def test_node_count_never_increases_and_alpha_in_range(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(2, 12))
            g = LevelGraph(n, random_connected_graph(rng, n))
            probs = rng.uniform(0.0, 1.0, g.num_edges)
            cfg = EvolveConfig(max_trials=5)
            coarse, part, log = evolve_step(g, probs, None, cfg, rng)
            assert coarse.num_nodes <= g.num_nodes
            assert part.num_cliques == coarse.num_nodes
            for t in replay_trials(log):
                assert 0.0 <= t.alpha <= 1.0
                assert t.alpha == min(1.0, t.transition_ratio * t.posterior_ratio)

    def test_eliminated_edges_are_intra_clique(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = int(rng.integers(3, 9))
            g = LevelGraph(n, random_connected_graph(rng, n))
            probs = rng.uniform(0.2, 0.9, g.num_edges)
            cfg = EvolveConfig(max_trials=3)
            _, _, log = evolve_step(g, probs, None, cfg, rng)
            for t in replay_trials(log):
                _, count = union_find_components(n, t.selected)
                assert t.partition.num_cliques == count
                assign, _ = union_find_components(n, t.selected)
                expected = [e for e in g.edges.tolist() if assign[e[0]] == assign[e[1]]]
                assert t.eliminated.tolist() == expected

    def test_acceptance_frequency_matches_alpha(self):
        # force alpha = 0.3 on every trial: the single edge always merges
        # (p = 1, transition ratio 1) and the posterior ratio is
        # exp(0 - (-ln 0.3)) = 0.3
        g = LevelGraph(2, [(0, 1)])
        loss_new = -math.log(0.3)

        def loss_eval(part, graph):
            return 0.0 if part.num_cliques == part.num_nodes else loss_new

        cfg = EvolveConfig(max_trials=1)
        accepted = 0
        draws = 10_000
        for k in range(draws):
            _, _, log = evolve_step(g, np.ones(1), loss_eval, cfg,
                                    np.random.default_rng([77, k]))
            (trial,) = replay_trials(log)
            assert trial.alpha == pytest.approx(0.3, abs=1e-12)
            accepted += int(trial.accepted)
        assert 0.28 <= accepted / draws <= 0.32


class TestCoarseningHappens:
    """Structures evolve under the documented condition: with an ideal
    readout, p = 0.99 on same-label edges and 0.01 across, test-mode
    evolve_step merges a generated 8x8 grid into exactly its label
    regions."""

    @pytest.mark.parametrize("seed", range(10))
    def test_ideal_readout_merges_the_label_regions(self, seed):
        sample = generate_sample(GenConfig(grid_n=8, seed=seed), np.random.default_rng([seed, 8]))
        g, labels = sample.graph, sample.labels
        ends = labels[g.edges]
        same = ends[:, 0] == ends[:, 1]
        coarse, part, log = evolve_step(g, np.where(same, 0.99, 0.01), None,
                                        EvolveConfig(max_trials=50),
                                        np.random.default_rng([seed, 1]))
        assert log.accepted[-1]
        regions, region_graph = coarsen(g, g.edges[same])
        assert part == regions and coarse == region_graph
        # the generator's label regions are contiguous: one clique per label
        assert part.num_cliques == 4
        assert sorted(np.unique(labels[part.assignment == c]).tolist()
                      for c in range(4)) == [[0], [1], [2], [3]]


class ScriptedRng:
    """Stands in for a numpy Generator: hands out fixed uniform doubles in
    order, as new arrays or into `out`, and its bit_generator.state is the
    read position, so a stream can hold draws placed on purpose."""

    def __init__(self, values):
        self.values = values
        self.state = 0
        self.bit_generator = self

    def random(self, size=None, out=None):
        if out is not None:
            size = out.shape
        count = 1 if size is None else math.prod(np.atleast_1d(size))
        if self.state + count > self.values.size:
            raise IndexError("scripted draws exhausted")
        values = self.values[self.state:self.state + count]
        self.state += count
        if out is not None:
            out[...] = values.reshape(size)
            return out
        return float(values[0]) if size is None else values.reshape(size).copy()


def placed_draws(g, probs, cap, max_trials, seed, offsets):
    """The stream of np.random.default_rng(seed) with the acceptance draw
    of trial k moved to offsets[k % len(offsets)] ulps from the trial's
    bound cap x t_upper (None: left as drawn; bounds outside (0, 1) are
    left alone too)."""
    m = g.num_edges
    values = np.random.default_rng(seed).random(max_trials * (m + 1) + 1)
    for k in range(max_trials):
        offset = offsets[k % len(offsets)]
        row = values[k * (m + 1):(k + 1) * (m + 1)]
        chosen = row[:m] < probs
        t_upper = math.exp(np.log(probs[chosen]).sum()) if chosen.any() else 1.0
        bound = t_upper * cap
        if offset is None or not 0.0 < bound < 1.0:
            continue
        row[m] = {-1: np.nextafter(bound, 0.0), 0: bound, 1: np.nextafter(bound, 1.0)}[offset]
    return values


# the numpy generators the oracle test draws from: PCG64 and PCG64DXSM
# jump, MT19937 draws and discards
GENERATORS = {"pcg64": np.random.default_rng,
              "pcg64dxsm": lambda seed: np.random.Generator(np.random.PCG64DXSM(seed)),
              "mt19937": lambda seed: np.random.Generator(np.random.MT19937(seed))}


@st.composite
def mh_cases(draw):
    if draw(st.booleans()):
        # a forest: each node joins at most one earlier node, so a trial's
        # eliminated edges are its selected edges and its transition
        # ratio is its bound t_upper
        n = draw(st.integers(1, 24))
        links = [draw(st.integers(-1, i - 1)) for i in range(n)]
        g = LevelGraph(n, [(j, i) for i, j in enumerate(links) if j >= 0])
    else:
        n = draw(st.integers(1, 7))
        pairs = list(itertools.combinations(range(n), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = LevelGraph(n, [pair for pair, k in zip(pairs, keep) if k])
    # uniform probabilities, some of them replaced by 0 or 1
    probs = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).uniform(
        0.0, 1.0, g.num_edges)
    for k, p in enumerate(draw(st.lists(st.sampled_from([None, None, 0.0, 1.0]),
                                        min_size=g.num_edges, max_size=g.num_edges))):
        if p is not None:
            probs[k] = p
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    # loss weights up to 60 reach the +-50 clamp of the posterior ratio
    weight = st.floats(0.0, 3.0) | st.floats(0.0, 60.0)
    weights = draw(st.none() | st.tuples(weight, weight))
    return dict(
        g=g, probs=probs, labels=labels, weights=weights,
        max_trials=draw(st.integers(1, 200)),
        # jumps on every graph (0) or on none of these small ones, to
        # tails from none to longer than any of their edge lists
        jump_edges=draw(st.sampled_from([0, evolve._JUMP_EDGES])),
        tail_edges=draw(st.sampled_from([0, 1, 9, evolve._TAIL_EDGES, 1000])),
        generator=draw(st.sampled_from(sorted(GENERATORS))),
        # a generator left with a buffered 32-bit half, or without one
        buffered=draw(st.booleans()),
        seed=draw(st.integers(0, 2 ** 32 - 1)),
        offsets=draw(st.none() | st.lists(st.sampled_from([None, -1, 0, 1]),
                                          min_size=1, max_size=4)))


def counting_loss(g, labels, weights, calls):
    """A non-negative loss that reaches 0: weighted clique count (less
    one) plus the number of nodes in label-mixed cliques (labels 0/1).
    None in test mode."""
    if weights is None:
        return None
    size_w, mixed_w = weights

    def loss_eval(part, graph):
        assert graph is g
        calls.append(part)
        sizes = np.bincount(part.assignment, minlength=part.num_cliques)
        ones = np.bincount(part.assignment, labels, minlength=part.num_cliques)
        mixed = (ones > 0) & (ones < sizes)
        return (size_w * (part.num_cliques - 1) + mixed_w * sizes[mixed].sum()) / g.num_nodes

    return loss_eval


class TestEvolveStepOracle:
    """evolve_step against the plain per-trial MH loop of oracles.py."""

    @staticmethod
    def assert_matches(case, make_rng):
        g, probs, max_trials = case["g"], case["probs"], case["max_trials"]
        calls, oracle_calls = [], []
        loss_eval = counting_loss(g, case["labels"], case["weights"], calls)
        rng = make_rng()
        with (mock.patch.object(evolve, "_JUMP_EDGES", case["jump_edges"]),
              mock.patch.object(evolve, "_TAIL_EDGES", case["tail_edges"])):
            coarse, part, traces = evolve_step(g, probs, loss_eval,
                                               EvolveConfig(max_trials=max_trials), rng)
        ref_rng = make_rng()
        want, want_assign = mh_search(
            g, probs, counting_loss(g, case["labels"], case["weights"], oracle_calls),
            max_trials, ref_rng)
        assert [t.trial for t in traces] == list(range(1, len(want) + 1))
        if isinstance(rng, np.random.Generator):
            # the replay rebuilds a numpy Generator from the log's saved state
            replayed = replay_trials(traces)
            assert ([list(map(tuple, t.selected.tolist())) for t in replayed]
                    == [w[0] for w in want])
        assert [t.accepted for t in traces] == [w[1] for w in want]
        assert [t.posterior_evaluated for t in traces] == [w[2] for w in want]
        assert part.assignment.tolist() == want_assign
        assert coarse.num_nodes == part.num_cliques
        n_eval = sum(t.posterior_evaluated for t in traces)
        assert len(calls) == (0 if loss_eval is None else 1 + n_eval)
        # the whole state: for a numpy generator also the buffered 32-bit
        # half, which no double drawn next would read
        np.testing.assert_equal(rng.bit_generator.state, ref_rng.bit_generator.state)
        return list(traces)

    @settings(max_examples=200, deadline=None)
    @given(mh_cases())
    def test_matches_per_trial_loop(self, case):
        if case["offsets"] is None:
            def make_rng():
                rng = GENERATORS[case["generator"]](case["seed"])
                if case["buffered"]:
                    rng.integers(1000)
                return rng
        else:
            cap = 1.0
            if case["weights"] is not None:
                loss = counting_loss(case["g"], case["labels"], case["weights"], [])
                n = case["g"].num_nodes
                cap = posterior_ratio(loss(CliquePartition.identity(n), case["g"]), 0.0)
            values = placed_draws(case["g"], case["probs"], cap, case["max_trials"],
                                  case["seed"], case["offsets"])

            def make_rng():
                return ScriptedRng(values)
        self.assert_matches(case, make_rng)

    @pytest.mark.parametrize("train", [False, True])
    def test_draws_next_to_the_bound(self, train):
        # acceptance draws 1 ulp below, at and 1 ulp above cap x t_upper on
        # random forests, where t_upper is the transition ratio: the tail
        # prefilter must leave each trial it cannot rule out to the exact
        # code
        for seed in range(100):
            rng = np.random.default_rng([seed, 5])
            n = int(rng.integers(2, 30))
            g = LevelGraph(n, [(int(rng.integers(i)), i) for i in range(1, n)])
            labels = rng.integers(0, 2, n)
            weights = tuple(rng.uniform(0.0, 3.0, 2)) if train else None
            cap = 1.0
            if train:
                loss = counting_loss(g, labels, weights, [])
                cap = posterior_ratio(loss(CliquePartition.identity(n), g), 0.0)
            case = dict(g=g, probs=rng.uniform(0.3, 1.0, g.num_edges), labels=labels,
                        weights=weights, max_trials=20, jump_edges=evolve._JUMP_EDGES,
                        tail_edges=evolve._TAIL_EDGES)
            values = placed_draws(g, case["probs"], cap, 20, seed, [-1, 0, 1])
            self.assert_matches(case, lambda: ScriptedRng(values))

    @pytest.mark.parametrize("train", [False, True])
    def test_accepts_a_late_trial(self, train):
        # 32x32 grid, so the trials' tails are drawn after jumps. One
        # p = 0.5 edge lies in the tail, so the prefilter rules no trial
        # out and every trial is redrawn whole. The p = 1 edges connect
        # the grid, so all eight p = 0.5 edges are eliminated and every
        # trial has alpha = 2^-8 (times the posterior ratio in train
        # mode); seed 8 accepts trial 86.
        g = grid_graph(32)
        probs = np.ones(g.num_edges)
        probs[::283] = 0.5
        case = dict(g=g, probs=probs, labels=np.arange(g.num_nodes) % 2,
                    weights=(0.0, 0.01) if train else None, max_trials=400,
                    jump_edges=evolve._JUMP_EDGES, tail_edges=evolve._TAIL_EDGES)
        traces = self.assert_matches(case, lambda: np.random.default_rng(8))
        assert traces[-1].accepted
        assert traces[-1].trial == 86

    @pytest.mark.parametrize("case", ["jump", "accept", "redraw"])
    def test_keeps_the_buffered_32bit_half(self, case):
        # bit_generator.advance clears the buffered 32-bit half that
        # random() leaves alone, and the next layer's permutation reads it
        def make_rng():
            rng = np.random.default_rng(1)
            rng.permutation(1024)
            return rng

        assert make_rng().bit_generator.state["has_uint32"] == 1
        if case == "jump":
            # 32x32, tails drawn after jumps: every trial is ruled out
            g = grid_graph(32)
            probs = np.full(g.num_edges, 0.8)
        elif case == "accept":
            # 8x8, trials drawn whole: TestCoarseningHappens' readout, on
            # which a trial is accepted after a jump to its start
            sample = generate_sample(GenConfig(grid_n=8, seed=0), np.random.default_rng([0, 8]))
            ends = sample.labels[sample.graph.edges]
            g, probs = sample.graph, np.where(ends[:, 0] == ends[:, 1], 0.99, 0.01)
        else:
            # trials drawn whole: every one is redrawn, as t_upper is 1 on
            # the two p = 1 edges, and rejected, as all three are eliminated
            g = TRIANGLE
            probs = np.array([1.0, 1.0, 1e-9])
        rng, ref_rng = make_rng(), make_rng()
        _, _, log = evolve_step(g, probs, None, EvolveConfig(max_trials=50), rng)
        want, _ = mh_search(g, probs, None, 50, ref_rng)
        assert log.accepted.tolist() == [w[1] for w in want]
        assert log.accepted[-1] == (case == "accept")
        np.testing.assert_array_equal(rng.permutation(1024), ref_rng.permutation(1024))


class TestDeterministicThreshold:
    def test_selects_edges_at_or_above_threshold(self):
        g = LevelGraph(4, [(0, 1), (1, 2), (2, 3)])
        probs = np.array([0.95, 0.7, 0.3])
        coarse, part, log = evolve_deterministic(g, probs, 0.7)
        (trial,) = replay_trials(log)
        assert trial.selected.tolist() == [[0, 1], [1, 2]]
        assert trial.accepted and trial.alpha == 1.0
        assert part.num_cliques == 2

    def test_higher_threshold_selects_subset(self):
        rng = np.random.default_rng(20)
        for _ in range(50):
            n = int(rng.integers(3, 10))
            g = LevelGraph(n, random_connected_graph(rng, n))
            probs = rng.uniform(0.0, 1.0, g.num_edges)
            _, part_lo, log_lo = evolve_deterministic(g, probs, 0.5)
            _, part_hi, log_hi = evolve_deterministic(g, probs, 0.9)
            (lo,), (hi,) = replay_trials(log_lo), replay_trials(log_hi)
            assert set(map(tuple, hi.selected.tolist())) <= set(map(tuple, lo.selected.tolist()))
            assert part_hi.num_cliques >= part_lo.num_cliques

    def test_rejects_bad_threshold(self):
        with pytest.raises(ValueError, match="threshold"):
            evolve_deterministic(TRIANGLE, np.full(3, 0.5), 0.0)


class TestConfigAndRecords:
    def test_config_validation(self):
        with pytest.raises(ValueError, match="max_trials"):
            EvolveConfig(max_trials=0)
        with pytest.raises(ValueError, match="threshold"):
            EvolveConfig(threshold=1.5)

    def test_trace_records_format(self):
        g = LevelGraph(2, [(0, 1)])
        cfg = EvolveConfig(max_trials=1)
        _, _, traces = evolve_step(g, np.ones(1), None, cfg, np.random.default_rng(0))
        lines = trace_records(traces)
        assert lines == ["trial=1 selected=1 transition_ratio=1.0 "
                         "posterior_ratio=1.0 alpha=1.0 accepted=1"]

    def test_trace_records_fallback_line(self):
        g = LevelGraph(2, [(0, 1)])

        def loss_eval(part, graph):
            return 0.0 if part.num_cliques == part.num_nodes else 1e9

        cfg = EvolveConfig(max_trials=3)
        _, _, traces = evolve_step(g, np.ones(1), loss_eval, cfg, np.random.default_rng(0))
        lines = trace_records(traces)
        assert lines[-1] == "fallback=identity"
        assert len(lines) == 4


# Pinned `trace_records` lines on a 5-node graph. "mh-test" accepts trial
# 3; in "mh-train" trials 1 and 3 evaluate the posterior and the others
# are ruled out by the bound (posterior ratio = the cap, e^0.5), and none
# is accepted; "threshold" reports alpha 1.0 under a transition ratio
# below 1; a StructurePlan replay has no trials and gives no lines.
GOLDEN_GRAPH = LevelGraph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
GOLDEN_PROBS = np.array([0.9, 0.6, 0.8, 0.3, 0.95])


def golden_logs(case):
    """The trial logs of one case of test_golden_trace_records."""
    if case == "threshold":
        return [evolve_deterministic(GOLDEN_GRAPH, GOLDEN_PROBS, 0.8)[2]]
    if case == "plan":
        rng = np.random.default_rng(3)
        cfg = NetworkConfig(input_dim=2, num_classes=2, num_layers=3)
        sample = Sample(GOLDEN_GRAPH, rng.normal(size=(5, 2)), [0, 1, 1, 0, 1])
        plan = StructurePlan([rng.permutation(5), np.arange(2), np.arange(1)],
                             [CliquePartition(np.array([0, 0, 0, 1, 1]), 2),
                              CliquePartition(np.zeros(2, dtype=np.int64), 1)])
        res = forward(sample, init_params(cfg, rng), cfg, None, plan=plan)
        return res.trace.decisions
    if case == "mh-test":
        return [evolve_step(GOLDEN_GRAPH, GOLDEN_PROBS, None, EvolveConfig(max_trials=6),
                            np.random.default_rng(1))[2]]

    def loss_eval(part, graph):
        return 0.5 * (6 - part.num_cliques)

    return [evolve_step(GOLDEN_GRAPH, GOLDEN_PROBS, loss_eval, EvolveConfig(max_trials=6),
                        np.random.default_rng(1))[2]]


@pytest.mark.parametrize("case, lines", [
    ("mh-test", [
        "trial=1 selected=3 transition_ratio=0.4104 posterior_ratio=1.0 alpha=0.4104 "
        "accepted=0",
        "trial=2 selected=5 transition_ratio=0.12311999999999998 posterior_ratio=1.0 "
        "alpha=0.12311999999999998 accepted=0",
        "trial=3 selected=3 transition_ratio=0.4104 posterior_ratio=1.0 alpha=0.4104 "
        "accepted=1"]),
    ("mh-train", [
        "trial=1 selected=3 transition_ratio=0.4104 posterior_ratio=0.22313016014842982 "
        "alpha=0.0915726177249156 accepted=0",
        "trial=2 selected=5 transition_ratio=0.12311999999999998 "
        "posterior_ratio=1.6487212707001282 alpha=0.20299056284859976 accepted=0",
        "trial=3 selected=3 transition_ratio=0.4104 posterior_ratio=0.22313016014842982 "
        "alpha=0.0915726177249156 accepted=0",
        "trial=4 selected=5 transition_ratio=0.12311999999999998 "
        "posterior_ratio=1.6487212707001282 alpha=0.20299056284859976 accepted=0",
        "trial=5 selected=3 transition_ratio=0.22799999999999998 "
        "posterior_ratio=1.6487212707001282 alpha=0.3759084497196292 accepted=0",
        "trial=6 selected=4 transition_ratio=0.4104 posterior_ratio=1.6487212707001282 "
        "alpha=0.6766352094953326 accepted=0",
        "fallback=identity"]),
    ("threshold", [
        "trial=1 selected=3 transition_ratio=0.4104 posterior_ratio=1.0 alpha=1.0 "
        "accepted=1"]),
    ("plan", []),
])
def test_golden_trace_records(case, lines):
    assert [line for log in golden_logs(case) for line in trace_records(log)] == lines
    if case == "mh-train":
        # the pinned mix: trials 1 and 3 evaluated, the others ruled out
        assert [t.posterior_evaluated for t in golden_logs(case)[0]] == [
            True, False, True, False, False, False]
