import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sevolve.cell import CellParams, NumericError, cell_forward, cell_forward_batch
from sevolve.data import grid_graph
from sevolve.graph import LevelGraph, segment_ids
from sevolve.network import wave_schedule
from oracles import (
    cell_backward,
    cell_update,
    random_connected_graph,
    static_gates_per_slot,
    wave_gates,
)


def random_params(rng, d, h, scale=0.5):
    p = CellParams(d, h)
    for _, t in p.tensors():
        t[...] = rng.uniform(-scale, scale, t.shape)
    return p


def random_cell_inputs(rng, d, h, k):
    x = rng.normal(size=d)
    h_prev = rng.uniform(-0.9, 0.9, h)
    m_prev = rng.normal(size=h)
    if k:
        visited = rng.random(k) < 0.5
        nbr_h_prev = rng.uniform(-0.9, 0.9, (k, h))
        nbr_m_cur = rng.normal(size=(k, h))
        nbr_m_prev = rng.normal(size=(k, h))
        navg = np.where(visited[:, None], nbr_m_cur * 0.1, nbr_h_prev).mean(axis=0)
    else:
        visited = nbr_h_prev = nbr_m_cur = nbr_m_prev = None
        navg = np.zeros(h)
    return x, h_prev, m_prev, navg, visited, nbr_h_prev, nbr_m_cur, nbr_m_prev


class TestCellForward:
    def test_all_zeros_one_neighbor(self):
        p = CellParams(2, 2)
        z2 = np.zeros(2)
        hidden, memory, probs, _ = cell_update(
            p, z2, z2, z2, z2,
            np.array([False]), np.zeros((1, 2)), np.zeros((1, 2)), np.zeros((1, 2)))
        assert np.array_equal(hidden, z2)
        assert np.array_equal(memory, z2)
        np.testing.assert_allclose(probs, [0.5])

    def test_scalar_hand_evaluation(self):
        # zero params, previous memory 1, no neighbors:
        # every sigmoid gate is 0.5, candidate is tanh(0) = 0, so
        # memory = 0.5 * 1 = 0.5 and hidden = tanh(0.5 * 0.5)
        p = CellParams(1, 1)
        hidden, memory, probs, _ = cell_update(
            p, np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1))
        assert memory[0] == 0.5
        assert hidden[0] == math.tanh(0.25)
        assert probs.size == 0

    def test_gate_codomains(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d, h, k = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(0, 4))
            p = random_params(rng, d, h, scale=2.0)
            x, hp, mp, navg, vis, nhp, nmc, nmp = random_cell_inputs(rng, d, h, k)
            _, _, probs, (cache, _, _) = cell_update(p, x, hp, mp, navg, vis, nhp, nmc, nmp)
            # gate-major: the sigmoid gates u, f, o, then the tanh gate c
            assert cache.gates.shape == (4, 1, h)
            assert (cache.gates[:3] > 0).all() and (cache.gates[:3] < 1).all()
            assert (cache.gates[3] > -1).all() and (cache.gates[3] < 1).all()
            assert (probs > 0).all() and (probs < 1).all()
            assert (np.abs(cache.hidden) < 1).all()

    def test_matches_chain_update_without_neighbors(self):
        # direct neighbor-free evaluation of the update equations
        rng = np.random.default_rng(1)
        d = h = 3
        p = random_params(rng, d, h)
        x, hp, mp, navg, *_ = random_cell_inputs(rng, d, h, 0)

        def sig(v):
            return 1.0 / (1.0 + np.exp(-v))

        t = dict(p.tensors())
        g_u = sig(t["w_u"] @ x + t["u_u"] @ hp + t["b_u"])
        g_f = sig(t["w_f"] @ x + t["u_f"] @ hp + t["b_f"])
        g_o = sig(t["w_o"] @ x + t["u_o"] @ hp + t["b_o"])
        g_c = np.tanh(t["w_c"] @ x + t["u_c"] @ hp + t["b_c"])
        memory_ref = g_f * mp + g_u * g_c
        hidden_ref = np.tanh(g_o * memory_ref)

        hidden, memory, _, _ = cell_update(p, x, hp, mp, navg)
        np.testing.assert_allclose(memory, memory_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(hidden, hidden_ref, rtol=0, atol=1e-15)

    def test_pure_function_bit_identical(self):
        rng = np.random.default_rng(2)
        p = random_params(rng, 3, 4)
        args = random_cell_inputs(rng, 3, 4, 2)
        h1, m1, p1, _ = cell_update(p, *args)
        h2, m2, p2, _ = cell_update(p, *args)
        assert np.array_equal(h1, h2) and np.array_equal(m1, m2) and np.array_equal(p1, p2)

    def test_rejects_bad_shapes(self):
        p = CellParams(2, 3)
        with pytest.raises(ValueError, match="shape"):
            cell_update(p, np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3))

    def test_rejects_non_finite(self):
        p = CellParams(2, 2)
        x = np.array([np.inf, 0.0])
        with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="non-finite"):
            cell_update(p, x, np.zeros(2), np.zeros(2), np.zeros(2))


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def swept_layers(draw):
    """A layer as a sweep lays it out: a random connected graph of 2-300
    nodes or a grid, a random visit order, widened weights and random
    previous states, all from one drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        g = grid_graph(draw(st.integers(2, 17)))
    else:
        n = draw(st.integers(2, 300))
        g = LevelGraph(n, random_connected_graph(rng, n, draw(st.sampled_from([0.0, 0.02, 0.3]))))
    d, h = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    params = random_params(rng, d, h, scale=draw(st.sampled_from([0.5, 2.5, 50.0])))
    schedule = wave_schedule(rng.permutation(g.num_nodes), g, h)
    # the rows of the layout, in wave order
    x = rng.normal(size=(g.num_nodes, d))
    h_prev = rng.uniform(-1.0, 1.0, (g.num_nodes, h))
    return params, x, h_prev, schedule


def one_node_layer(d=6, h=8, scale=2.5):
    """A layer of one node without neighbors, laid out as swept_layers
    lays out its layers: its products with the gate weights have 1 row."""
    rng = np.random.default_rng(0)
    params = random_params(rng, d, h, scale)
    return (params, rng.normal(size=(1, d)), rng.uniform(-1.0, 1.0, (1, h)),
            wave_schedule(np.arange(1), LevelGraph(1), h))


class TestCellForwardBatch:
    @settings(max_examples=100, deadline=None)
    @given(swept_layers())
    @example(layer=one_node_layer())
    def test_per_node_neighbor_term_matches_per_slot_product(self, layer):
        # the neighbor term of the forget gates from one product over the
        # nodes, gathered to the slots, has the bits of one product over
        # the slots' gathered states: BLAS gives a row the same bits in an
        # n-row product as in an S-row one
        params, x, h_prev, schedule = layer
        m_prev = np.zeros_like(h_prev)
        # the widest weights saturate gates, whose sigmoid overflows exactly
        with np.errstate(over="ignore"):
            cache = cell_forward_batch(params, x, h_prev, m_prev, schedule.owner, h_prev,
                                       schedule.nbr)
            nb_gate, merge_probs, pre = static_gates_per_slot(
                params, x, h_prev, schedule.owner, h_prev.take(schedule.nbr, axis=0))
        assert _same_bits(cache.nb_gate, nb_gate)
        assert _same_bits(cache.merge_probs, merge_probs)
        assert _same_bits(cache.gates, pre)

    @settings(max_examples=100, deadline=None)
    @given(swept_layers())
    @example(layer=one_node_layer())
    def test_per_wave_gates_match_view_products(self, layer):
        # cell_forward multiplies the neighbor averages by a contiguous
        # copy of the un stack; its activated gates keep the bits of the
        # product on the transposed view, on each of the sweep's waves, on
        # a block of the first row alone and on all N rows at once
        params, x, h_prev, schedule = layer
        n, h = h_prev.shape
        owner = schedule.owner
        blocks = [*schedule.waves, (0, 1, 0, int(np.searchsorted(owner, 1))),
                  (0, n, 0, owner.size)]
        with np.errstate(over="ignore"):
            cache = cell_forward_batch(params, x, h_prev, np.zeros_like(h_prev), owner,
                                       h_prev, schedule.nbr)
            cache.navg[...] = np.random.default_rng(n).uniform(-1.0, 1.0, (n, h))
            for r0, r1, s0, s1 in blocks:
                rows = slice(r0, r1)
                _, _, gates = cell_forward(
                    cache, rows, slice(s0, s1), segment_ids(owner[s0:s1] - r0, h, r1 - r0),
                    schedule.inv_deg[rows], np.zeros((s1 - s0, h)))
                assert _same_bits(gates, wave_gates(params, cache.gates[:, rows],
                                                    cache.navg[rows])), (r0, r1)


def _loss_weights(rng, h, k):
    return rng.normal(size=h), rng.normal(size=h), rng.normal(size=k) if k else np.zeros(0)


def _cell_loss(p, inputs, wh, wm, wp):
    hidden, memory, probs, _ = cell_update(p, *inputs)
    return float(wh @ hidden + wm @ memory + (wp @ probs if probs.size else 0.0))


def _max_rel_error(analytic, numeric):
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    return float((np.abs(analytic - numeric) / denom).max())


def run_cell_grad_check(seed, step=1e-5):
    """Central-difference oracle over every parameter tensor and every
    input but x, which is data: the backward takes no gradient wrt it."""
    rng = np.random.default_rng(seed)
    d, h, k = int(rng.integers(1, 5)), int(rng.integers(1, 5)), int(rng.integers(0, 4))
    p = random_params(rng, d, h)
    inputs = random_cell_inputs(rng, d, h, k)
    _, h_prev, m_prev, navg, vis, nhp, nmc, nmp = inputs
    wh, wm, wp = _loss_weights(rng, h, k)

    _, _, _, node = cell_update(p, *inputs)
    grads, d_hp, d_mp, d_navg, d_nhp, d_nm = cell_backward(
        node, wh.copy(), wm.copy(), wp.copy() if k else None)

    worst = {}
    for name, t in p.tensors():
        a = dict(grads.tensors())[name]
        num = np.zeros_like(t)
        flat_t, flat_n = t.reshape(-1), num.reshape(-1)
        for i in range(flat_t.size):
            orig = flat_t[i]
            flat_t[i] = orig + step
            up = _cell_loss(p, inputs, wh, wm, wp)
            flat_t[i] = orig - step
            down = _cell_loss(p, inputs, wh, wm, wp)
            flat_t[i] = orig
            flat_n[i] = (up - down) / (2 * step)
        worst[name] = _max_rel_error(a, num)

    for label, arr, analytic in (("h_prev", h_prev, d_hp), ("m_prev", m_prev, d_mp),
                                 ("navg", navg, d_navg)):
        num = np.zeros_like(arr)
        flat_t, flat_n = arr.reshape(-1), num.reshape(-1)
        for i in range(flat_t.size):
            orig = flat_t[i]
            flat_t[i] = orig + step
            up = _cell_loss(p, inputs, wh, wm, wp)
            flat_t[i] = orig - step
            down = _cell_loss(p, inputs, wh, wm, wp)
            flat_t[i] = orig
            flat_n[i] = (up - down) / (2 * step)
        worst[label] = _max_rel_error(analytic, num)

    if k:
        num = np.zeros_like(nhp)
        for r in range(k):
            for c in range(h):
                orig = nhp[r, c]
                nhp[r, c] = orig + step
                up = _cell_loss(p, inputs, wh, wm, wp)
                nhp[r, c] = orig - step
                down = _cell_loss(p, inputs, wh, wm, wp)
                nhp[r, c] = orig
                num[r, c] = (up - down) / (2 * step)
        worst["nbr_h_prev"] = _max_rel_error(d_nhp, num)

        num = np.zeros_like(d_nm)
        for r in range(k):
            sel = nmc if vis[r] else nmp  # same selection as the forward pass
            for c in range(h):
                orig = sel[r, c]
                sel[r, c] = orig + step
                up = _cell_loss(p, inputs, wh, wm, wp)
                sel[r, c] = orig - step
                down = _cell_loss(p, inputs, wh, wm, wp)
                sel[r, c] = orig
                num[r, c] = (up - down) / (2 * step)
        worst["nbr_m_selected"] = _max_rel_error(d_nm, num)
    return worst


class TestCellBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(3)
        p = random_params(rng, 3, 3)
        inputs = random_cell_inputs(rng, 3, 3, 2)
        _, _, _, node = cell_update(p, *inputs)
        grads, d_hp, d_mp, d_navg, d_nhp, d_nm = cell_backward(
            node, np.zeros(3), np.zeros(3), np.zeros(2))
        for _, t in grads.tensors():
            assert np.array_equal(t, np.zeros_like(t))
        for arr in (d_hp, d_mp, d_navg, d_nhp, d_nm):
            assert np.array_equal(arr, np.zeros_like(arr))

    def test_linearity_in_upstream(self):
        rng = np.random.default_rng(4)
        p = random_params(rng, 2, 3)
        inputs = random_cell_inputs(rng, 2, 3, 2)
        _, _, _, node = cell_update(p, *inputs)
        dh, dm, dp = rng.normal(size=3), rng.normal(size=3), rng.normal(size=2)
        g1, *outs1 = cell_backward(node, dh, dm, dp)
        g2, *outs2 = cell_backward(node, 2.5 * dh, 2.5 * dm, 2.5 * dp)
        for (_, t1), (_, t2) in zip(g1.tensors(), g2.tensors()):
            np.testing.assert_allclose(t2, 2.5 * t1, rtol=1e-12, atol=1e-14)
        for a, b in zip(outs1, outs2):
            np.testing.assert_allclose(b, 2.5 * a, rtol=1e-12, atol=1e-14)

    def test_finite_differences_small_instance(self):
        # D = H = 3 with 2 neighbors, as an explicit worked instance
        rng = np.random.default_rng(5)
        p = random_params(rng, 3, 3)
        x = rng.normal(size=3)
        h_prev = rng.uniform(-0.9, 0.9, 3)
        m_prev = rng.normal(size=3)
        vis = np.array([True, False])
        nhp = rng.uniform(-0.9, 0.9, (2, 3))
        nmc = rng.normal(size=(2, 3))
        nmp = rng.normal(size=(2, 3))
        navg = rng.normal(size=3)
        inputs = (x, h_prev, m_prev, navg, vis, nhp, nmc, nmp)
        wh, wm, wp = _loss_weights(rng, 3, 2)
        _, _, _, node = cell_update(p, *inputs)
        grads, *_ = cell_backward(node, wh.copy(), wm.copy(), wp.copy())
        step = 1e-5
        for name, t in p.tensors():
            a = dict(grads.tensors())[name]
            flat = t.reshape(-1)
            aflat = a.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up = _cell_loss(p, inputs, wh, wm, wp)
                flat[i] = orig - step
                down = _cell_loss(p, inputs, wh, wm, wp)
                flat[i] = orig
                numeric = (up - down) / (2 * step)
                rel = abs(aflat[i] - numeric) / max(abs(aflat[i]), abs(numeric), 1e-8)
                assert rel < 1e-6, f"{name}[{i}]: analytic {aflat[i]}, numeric {numeric}"

    def test_gradients_match_on_100_random_instances(self):
        # step 1e-4 balances truncation against cancellation noise in the
        # difference oracle; the analytic side is exact either way
        for seed in range(100, 200):
            worst = run_cell_grad_check(seed, step=1e-4)
            bad = {k: v for k, v in worst.items() if v >= 1e-6}
            assert not bad, f"seed {seed}: {bad}"

    def test_gradient_flows_by_visit_flag(self):
        # memory gradient must land on the state the forward pass read
        rng = np.random.default_rng(6)
        p = random_params(rng, 2, 2)
        x, hp, mp, navg, _, nhp, nmc, nmp = random_cell_inputs(rng, 2, 2, 2)
        vis = np.array([True, False])
        _, _, _, node = cell_update(p, x, hp, mp, navg, vis, nhp, nmc, nmp)
        _, _, _, _, _, d_nm = cell_backward(
            node, np.ones(2), np.ones(2), np.zeros(2))
        # row 0 was visited: its gradient belongs to nbr_m_cur[0]; verify
        # numerically that perturbing the unselected slot changes nothing
        wh, wm, wp = np.ones(2), np.ones(2), np.zeros(2)
        base = _cell_loss(p, (x, hp, mp, navg, vis, nhp, nmc, nmp), wh, wm, wp)
        nmp2 = nmp.copy()
        nmp2[0] += 10.0  # unselected (visited neighbor reads nbr_m_cur)
        moved = _cell_loss(p, (x, hp, mp, navg, vis, nhp, nmc, nmp2), wh, wm, wp)
        assert moved == base
        assert d_nm.shape == (2, 2)


def packed_blocks(h):
    """name -> (packed array, rows) of every cell tensor, written out from
    the gate order of each array: wx, uh and b hold [u, f, o, c], un holds
    [u, o, c], and u_fn and w_e are whole arrays."""
    blocks = {"u_fn": ("u_fn", slice(None)), "w_e": ("w_e", slice(None))}
    for array, name, gates in (("wx", "w_{}", "ufoc"), ("uh", "u_{}", "ufoc"),
                               ("un", "u_{}n", "uoc"), ("b", "b_{}", "ufoc")):
        for k, gate in enumerate(gates):
            blocks[name.format(gate)] = (array, slice(k * h, (k + 1) * h))
    return blocks


class TestCellParamsLayout:
    ARRAYS = ("wx", "uh", "un", "u_fn", "w_e", "b")

    def numbered(self, d=2, h=3):
        """Cell params whose packed arrays hold 0, 1, 2, ... across all six."""
        p = CellParams(d, h)
        start = 0
        for a in self.ARRAYS:
            arr = getattr(p, a)
            arr[...] = np.arange(start, start + arr.size).reshape(arr.shape)
            start += arr.size
        return p, start

    def test_each_view_is_its_block(self):
        p, _ = self.numbered()
        blocks = packed_blocks(3)
        views = dict(p.tensors())
        assert len(views) == 17 and views.keys() == blocks.keys()
        for name, view in views.items():
            array, rows = blocks[name]
            storage = getattr(p, array)
            assert np.shares_memory(view, storage), name
            assert np.array_equal(view, storage[rows]), name

    def test_views_tile_the_arrays(self):
        p, total = self.numbered()
        covered = np.concatenate([t.ravel() for _, t in p.tensors()])
        assert np.array_equal(np.sort(covered), np.arange(total))

    def test_writing_a_view_changes_the_storage(self):
        p, _ = self.numbered()
        blocks = packed_blocks(3)
        for k, (_, view) in enumerate(p.tensors()):
            view[...] = -1.0 - k
        for k, (name, _) in enumerate(p.tensors()):
            array, rows = blocks[name]
            assert (getattr(p, array)[rows] == -1.0 - k).all(), name

    def test_copy_shares_no_memory(self):
        p, _ = self.numbered()
        q = p.copy()
        for a in self.ARRAYS:
            assert not np.shares_memory(getattr(p, a), getattr(q, a)), a
            assert np.array_equal(getattr(p, a), getattr(q, a)), a
        for (n1, t1), (n2, t2) in zip(p.tensors(), q.tensors(), strict=True):
            assert n1 == n2 and np.array_equal(t1, t2)
            assert not np.shares_memory(t1, t2), n1
