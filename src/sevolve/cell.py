"""Graph LSTM cell: gate computations, state updates, merge-probability
outputs, and their exact reverse-mode backward pass.

One cell update for node i reads its input vector x, its own previous
hidden/memory state, the average of its neighbors' hidden states (new
state for already-visited neighbors, previous state otherwise), and per
neighbor j the previous hidden state plus the memory state selected by
j's visit flag. It produces the new hidden/memory state and one merging
probability per neighbor.

Both passes have two parts, and both parts act on B nodes at once, with
the nodes' neighbor slots tied to them by an owner array.
cell_forward_batch computes what does not depend on the visit order (the
static gate pre-activations, the per-neighbor forget gates and the
merging probabilities), once for all the nodes of a layer. A forget
gate's neighbor term depends on the neighbor alone, so it is computed
once per node and gathered to the slots. cell_forward does the
node-local rest, which needs the neighbor average; a sweep runs it once
per wave, a set of pairwise non-adjacent nodes whose earlier-visited
neighbors are all updated already, and then check_finite once over the
layer's new states. In reverse,
cell_backward_node does the node-local work, once per wave in reverse
wave order, and cell_backward_batch the order-independent rest, once per
layer: the reverse of the readout and the neighbor forget gates, and
the parameter and previous-state gradients, none wrt the data x. So the
readout (the merge_probs of cell_forward_batch, weights w_e) and its
reverse live in the two batch parts only.

The four gates are laid out gate-major: the pre-activations, the
activated gates and their gradients are (4, B, H) arrays, one contiguous
(B, H) block per gate in the order [u, f, o, c] of the packed weights, so
each per-wave elementwise operation reads and writes whole blocks, and a
wave's rows r0:r1 are the view [:, r0:r1]. The products with the packed
weights that make them, x @ wx, h_prev @ uh and navg @ un, run on
contiguous (k, n, H) copies of the gate-major weight stacks, which
cell_forward_batch builds once per layer (_gate_product): numpy runs a
product on a transposed view of the packed rows 2-3 times slower. Only
cell_backward_batch puts the blocks side by side, once per layer, for
the products that run over the packed weight rows.

A CellCache, which cell_forward_batch builds, holds the activations of
all the nodes of one such layer, laid out wave by wave
(network.wave_schedule); the sweep writes each wave's rows of it in turn.
The node-local parts take the cache, a wave's block of rows and block of
slots, plus the slots' segment ids (graph.segment_ids) and the nodes'
inverse degrees, which the layer's WaveSchedule carries.

Everything is float64 and purely functional: same inputs, bit-identical
outputs. check_finite raises NumericError on a non-finite new state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sevolve.graph import segment_sum


class NumericError(RuntimeError):
    """Raised when a state, loss or gradient turns non-finite."""


def sigmoid(x, out=None):
    """1 / (1 + exp(-x)), into `out` when given (which may be x)."""
    out = np.negative(x, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


class CellParams:
    """All weight matrices and biases of one cell, shared by every layer.

    The gates are packed in the order [u, f, o, c] (rows of wx, uh and b)
    so the whole gate bank multiplies in one matvec: the input, forget
    and output gates share one sigmoid application, and the candidate
    gate uses tanh. The neighbor-averaged term enters only the u/o/c rows
    (un). tensors() exposes the conventional per-gate tensors (w_u, u_u,
    u_un, ..., w_e, b_u) as views into this storage; writing into a view
    (`view[...] = value`) mutates the cell.
    """

    #: tensor name -> (storage array, gate block, or None for the whole
    #: array), in the canonical checkpoint and optimizer order
    TENSORS = {
        "w_u": ("wx", 0), "w_f": ("wx", 1), "w_c": ("wx", 3), "w_o": ("wx", 2),
        "u_u": ("uh", 0), "u_f": ("uh", 1), "u_c": ("uh", 3), "u_o": ("uh", 2),
        "u_un": ("un", 0), "u_fn": ("u_fn", None), "u_cn": ("un", 2), "u_on": ("un", 1),
        "w_e": ("w_e", None),
        "b_u": ("b", 0), "b_f": ("b", 1), "b_c": ("b", 3), "b_o": ("b", 2),
    }
    #: the packed arrays, in their order of first appearance in TENSORS
    STORAGE = tuple(dict.fromkeys(a for a, _ in TENSORS.values()))

    __slots__ = ("input_dim", "hidden_dim", *STORAGE)

    def __init__(self, input_dim: int, hidden_dim: int):
        if input_dim < 1 or hidden_dim < 1:
            raise ValueError("input_dim and hidden_dim must be positive")
        d, h = input_dim, hidden_dim
        self.input_dim = d
        self.hidden_dim = h
        self.wx = np.zeros((4 * h, d))   # input weights
        self.uh = np.zeros((4 * h, h))   # own-hidden weights
        self.un = np.zeros((3 * h, h))   # rows [u, o, c]: neighbor-average weights
        self.u_fn = np.zeros((h, h))     # per-neighbor forget-gate weights
        self.w_e = np.zeros(h)           # merge-probability readout
        self.b = np.zeros(4 * h)

    def tensors(self):
        """(name, array-view) pairs in canonical order."""
        h = self.hidden_dim
        return [(name, getattr(self, a) if k is None else getattr(self, a)[k * h:(k + 1) * h])
                for name, (a, k) in self.TENSORS.items()]

    def copy(self) -> "CellParams":
        out = CellParams(self.input_dim, self.hidden_dim)
        for a in self.STORAGE:
            getattr(out, a)[...] = getattr(self, a)
        return out

    def zeros_like(self) -> "CellParams":
        return CellParams(self.input_dim, self.hidden_dim)

    def __repr__(self):
        return f"CellParams(input_dim={self.input_dim}, hidden_dim={self.hidden_dim})"


@dataclass(frozen=True, slots=True)
class CellCache:
    """Activations of B cell updates over S neighbor slots, kept for the
    backward pass: one per layer of a sweep, or one for a single node.

    Node rows run 0..B-1, and owner[s] is the row of slot s. A sweep's
    rows are in wave-major order (network.wave_schedule): each wave is a
    contiguous block of rows, and the slots follow the rows.
    cell_forward_batch builds the cache; the sweep, network.forward, fills
    a wave's `navg` rows and writes cell_forward's results over its rows
    of `hidden` and `memory`, one wave at a time; afterwards the cache is
    read-only. Only a train-mode sweep, whose cache the backward pass
    reads, also writes the activated gates over the wave's rows of
    `gates`: after a test-mode sweep they hold the pre-activations
    still. It also keeps the contiguous gate-major stack of
    the un weights for cell_forward's per-wave product (_gate_product).
    The slots' neighbor inputs, the previous hidden state and the
    flag-selected memory of each neighbor, are not kept: a sweep gathers
    them again from its rows for cell_backward_batch.
    """

    params: CellParams
    un: np.ndarray           # (3, H, H) contiguous gate-major stack of params.un
    owner: np.ndarray        # (S,)
    x: np.ndarray            # (B, D) inputs
    h_prev: np.ndarray       # (B, H) own previous hidden state
    m_prev: np.ndarray       # (B, H) own previous memory
    navg: np.ndarray         # (B, H) neighbor averages
    nb_gate: np.ndarray      # (S, H) neighbor forget gates
    merge_probs: np.ndarray  # (S,)
    gates: np.ndarray        # (4, B, H) activated gates g_u, g_f, g_o, g_c (train mode)
    memory: np.ndarray       # (B, H) new memory
    hidden: np.ndarray       # (B, H) new hidden state


def cell_forward_batch(params, x, h_prev, m_prev, owner, nbr_src, nbr):
    """Order-independent part of B cell updates over S neighbor slots.

    Args:
        params: CellParams.
        x, h_prev, m_prev: (B, D) inputs and (B, H) own previous hidden
            states and memory.
        owner: (S,) index of the node, 0..B-1, that owns each slot.
        nbr_src, nbr: (R, H) previous hidden states and, per slot, the
            row of nbr_src that holds its neighbor's, (S,). A sweep
            passes its own rows, h_prev, and the slots' neighbor rows.

    Returns:
        The CellCache of the updates, `gates` holding the static gate
        pre-activations x @ wx.T + h_prev @ uh.T + b, gate-major (4, B, H),
        `hidden` and `memory` copies of h_prev and m_prev, `navg` unfilled,
        and `un` the contiguous gate-major stack of params.un. The stacks
        of wx, uh and un are copied once per call, and the products run
        on them (_gate_product).
        A slot's forget gate is sigmoid(x_i @ w_f.T + b_f + h_j @ u_fn.T)
        for owner i and neighbor j: the last term is one product per row
        of nbr_src, gathered to the slots. BLAS gives a row of a product
        of two or more rows the same bits whatever their number, so the
        gates are bit for bit those of one product over the S gathered
        neighbor states.
    """
    h = params.hidden_dim
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"input has shape {x.shape}, expected (B, {params.input_dim})")
    wx, uh, un = (np.ascontiguousarray(_gate_major(w, h))
                  for w in (params.wx, params.uh, params.un))
    pre = _gate_product(x, params.wx, wx)
    nb_gate = (nbr_src @ params.u_fn.T).take(nbr, axis=0)
    # before the hidden-state term joins it, pre[1] is x @ w_f.T: with b_f
    # it is the input term that every neighbor forget gate of the node shares
    nb_gate += (pre[1] + params.b[h:2 * h]).take(owner, axis=0)
    sigmoid(nb_gate, out=nb_gate)
    pre += _gate_product(h_prev, params.uh, uh)
    # the bias as one contiguous (4, B, H) block: a broadcast add's inner
    # loop is only H long
    pre += np.repeat(params.b.reshape(-1, 1, h), pre.shape[1], axis=1)
    return CellCache(params, un, owner, x, h_prev, m_prev, np.empty_like(h_prev), nb_gate,
                     sigmoid(nb_gate @ params.w_e), pre, m_prev.copy(), h_prev.copy())


def _gate_major(weights, h):
    """The packed (kH, n) weight rows of k gates as k transposed (n, H)
    blocks, a view: a (B, n) @ it is the (k, B, H) gate-major product.
    np.ascontiguousarray of it is the stack that _gate_product takes."""
    return weights.reshape(-1, h, weights.shape[1]).transpose(0, 2, 1)


def _gate_product(a, weights, stack):
    """a @ _gate_major(weights, h), (B, n) @ (k, n, H) -> (k, B, H), run on
    `stack`, the contiguous copy of that view, where numpy runs it 2-3
    times faster.

    It keeps the view's bits whenever the inner dimension n (D for wx, H
    for uh and un) is at most 15, as in every test, equivalence dump case
    and benchmark workload. On numpy's bundled OpenBLAS a product of 2 or
    more rows has the same bits on the copy as on the view there: a scan
    of H 1-32, D 1-40 and 2-4, 9 and 100 rows found no difference up to
    n = 15, and from n = 16 on many (H, D) pairs differ in the last bit
    at every row count. A 1-row product rounds differently on the copy at
    any n, so it runs on the view.
    """
    if a.shape[0] == 1:
        return a @ _gate_major(weights, stack.shape[2])
    return a @ stack


def _navg_rows(d_pre):
    """The u, o and c blocks of gate-major (4, B, H) gradients side by
    side, (B, 3H) as the rows of un run."""
    return np.concatenate((d_pre[0], d_pre[2], d_pre[3]), axis=1)


def cell_forward(cache, rows, slots, seg, inv_deg, m_sel):
    """Node-local part of B updates in `cache`: the work that needs the
    neighbor average, so a sweep runs it once per wave, on the wave's blocks.

    Args:
        cache: CellCache from cell_forward_batch, with the nodes' `navg`
            rows filled and their `gates` rows still the pre-activations.
        rows: the nodes' rows in the cache, a slice or an index array.
        slots: the cache slots of those nodes, row by row, likewise.
        seg: (S, H) segment ids of the slots, graph.segment_ids of the
            position, 0..B-1, of each slot's node in `rows`.
        inv_deg: (B, 1) 1 / max(degree, 1) of each node.
        m_sel: (S, H) neighbor memory selected by the visit flags.

    Returns:
        New arrays (hidden, memory, gates), the activated gates g_u, g_f,
        g_o, g_c gate-major (4, B, H): the sweep writes them over the rows.
        They are not checked: a non-finite state passes on to the later
        waves, and the caller runs check_finite once it has all of them.
    """
    params = cache.params
    h = params.hidden_dim
    pre, navg = cache.gates[:, rows], cache.navg[rows]
    b = navg.shape[0]
    # the neighbor average enters the u, o and c gates, rows [u, o, c] of un
    unv = _gate_product(navg, params.un, cache.un)
    gates = np.empty((4, b, h))
    np.add(pre[0], unv[0], out=gates[0])
    gates[1] = pre[1]
    np.add(pre[2:], unv[1:], out=gates[2:])
    sigmoid(gates[:3], out=gates[:3])
    np.tanh(gates[3], out=gates[3])
    g_u, g_f, g_o, g_c = gates
    nb_sum = np.bincount(seg.ravel(), (cache.nb_gate[slots] * m_sel).ravel(),
                         b * h).reshape(b, h)
    memory = nb_sum * inv_deg + g_f * cache.m_prev[rows] + g_u * g_c
    return np.tanh(g_o * memory), memory, gates


def check_finite(hidden, memory):
    """Raise NumericError unless the new states (hidden, memory) of a
    layer, or of any set of updates, are finite (their sum is)."""
    if not math.isfinite(memory.sum() + hidden.sum()):
        raise NumericError("non-finite values in cell inputs or parameters")


def cell_backward_node(cache, rows, slots, seg, inv_deg, d_hidden, d_memory):
    """Node-local part of the reverse of B updates in `cache`: everything
    that needs the nodes' upstream gradients, and only those. A sweep runs
    it once per wave, in reverse wave order, on the wave's blocks. The
    merge-probability readout does not depend on the visit order, so its
    reverse is in cell_backward_batch.

    Args:
        cache: CellCache of the forward updates.
        rows: the nodes' rows in the cache, a slice or an index array.
        slots: the cache slots of those nodes, row by row, likewise.
        seg: (S, H) segment ids of the slots, graph.segment_ids of the
            position, 0..B-1, of each slot's node in `rows`.
        inv_deg: (B, 1) 1 / max(degree, 1) of each node.
        d_hidden, d_memory: upstream gradients wrt the nodes' new state
            (B, H).

    Returns:
        (d_pre, d_m_prev, d_navg, d_msum, d_nbr_m): per node the gradient
        wrt the gate pre-activations, gate-major (4, B, H), the node's
        previous memory (B, H) and the neighbor average (B, H); then per
        slot the gradient wrt its summand nb_gate * m_sel of the memory's
        neighbor mean (S, H) and wrt the flag-selected neighbor memory
        (S, H).
        cell_backward_batch turns d_pre and d_msum into parameter and
        previous-state gradients.
    """
    params = cache.params
    h = params.hidden_dim
    b = d_hidden.shape[0]
    if d_hidden.shape != (b, h) or d_memory.shape != (b, h):
        raise ValueError("upstream gradient shape mismatch")

    gates = cache.gates[:, rows]
    g_u, g_f, g_o, g_c = gates
    hidden = cache.hidden[rows]
    memory = cache.memory[rows]

    # hidden = tanh(g_o * memory)
    dz = d_hidden * (1.0 - hidden * hidden)
    dm = d_memory + dz * g_o

    # the gradients wrt the activated gates u, f, o, c, then through the
    # three sigmoids at once and the tanh
    d_pre = np.empty((4, b, h))
    np.multiply(dm, g_c, out=d_pre[0])
    np.multiply(dm, cache.m_prev[rows], out=d_pre[1])
    np.multiply(dz, memory, out=d_pre[2])
    np.multiply(dm, g_u, out=d_pre[3])
    sig = gates[:3]
    d_pre[:3] *= sig
    d_pre[:3] *= 1.0 - sig
    d_pre[3] *= 1.0 - g_c * g_c
    d_navg = _navg_rows(d_pre) @ params.un

    d_msum = (dm * inv_deg).ravel().take(seg)
    return d_pre, dm * g_f, d_navg, d_msum, d_msum * cache.nb_gate[slots]


def cell_backward_batch(grads, cache, nbr_h_prev, m_sel, d_pre, d_msum, d_edge_probs):
    """Order-independent part of the reverse of every update in `cache`,
    the merge-probability readout's reverse included.

    Accumulates every parameter gradient into `grads` and returns the
    gradients wrt the previous hidden states, none wrt the data x.

    Args:
        grads: CellParams accumulator.
        cache: CellCache of the forward updates, B nodes and S slots.
        nbr_h_prev, m_sel: (S, H) the slots' neighbor inputs of the
            forward updates: each neighbor's previous hidden state and
            its memory selected by the visit flags.
        d_pre, d_msum: (4, B, H) and (S, H) from cell_backward_node.
        d_edge_probs: (S,) upstream gradients wrt the slots' merging
            probabilities.

    Returns:
        (d_h_prev, d_nbr_h_prev) of shapes (B, H) and (S, H).
    """
    params = cache.params
    h = params.hidden_dim
    p = cache.merge_probs
    d_score = d_edge_probs * p * (1.0 - p)
    grads.w_e += cache.nb_gate.T @ d_score
    d_nbgate = d_msum * m_sel + d_score[:, None] * params.w_e
    d_prenb = d_nbgate * cache.nb_gate * (1.0 - cache.nb_gate)
    grads.u_fn += d_prenb.T @ nbr_h_prev
    d_nbr_h_prev = d_prenb @ params.u_fn
    # w_f and b_f are shared between the own forget gate and every
    # per-neighbor forget gate, so both pre-activations contribute
    sum_prenb = segment_sum(d_prenb, cache.owner, d_pre.shape[1])

    # the gate blocks side by side, (B, 4H) as the packed weight rows run:
    # each gradient sums over all four gates in one product
    d_rows = np.concatenate(d_pre, axis=1)
    d_h_prev = d_rows @ params.uh
    grads.uh += d_rows.T @ cache.h_prev
    grads.un += _navg_rows(d_pre).T @ cache.navg
    grads.b += d_rows.sum(axis=0)
    grads.b[h:2 * h] += sum_prenb.sum(axis=0)
    d_rows[:, h:2 * h] += sum_prenb
    grads.wx += d_rows.T @ cache.x
    return d_h_prev, d_nbr_h_prev

