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
merging probabilities), once for all the nodes of a layer. cell_forward
does the node-local rest, which needs the neighbor average; a sweep runs
it once per wave, a set of pairwise non-adjacent nodes whose
earlier-visited neighbors are all updated already. In reverse,
cell_backward_node does the node-local work, once per wave in reverse
wave order, and cell_backward_batch the order-independent rest, once per
layer: the reverse of the merge-probability readout and the neighbor
forget gates, and the parameter and input gradients. So the readout
(the merge_probs of cell_forward_batch, weights w_e) and its reverse
live in the two batch parts only.

A CellCache holds the activations of all the nodes of one such layer,
laid out wave by wave (network.wave_schedule): the node-local parts take
a wave's block of rows and block of slots, plus the slots' segment ids
(graph.segment_ids) and the nodes' inverse degrees, made once per layer.

Everything is float64 and purely functional: same inputs, bit-identical
outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from sevolve.graph import segment_sum

# Gate storage order for the packed weight blocks. The input/forget/output
# gates share one sigmoid application, the candidate gate uses tanh, and
# the neighbor-averaged term enters only the u/o/c rows.
_GATES = ("u", "f", "o", "c")


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


class CellParams:
    """All weight matrices and biases of one cell, shared by every layer.

    Exposes the conventional per-gate tensors (w_u, u_u, u_un, ..., w_e,
    b_u) as views into packed storage so the whole gate bank multiplies
    in one matvec. Mutating a view mutates the cell.
    """

    __slots__ = ("input_dim", "hidden_dim", "wx", "uh", "un", "u_fn", "w_e", "b")

    #: canonical tensor enumeration order (checkpoint + optimizer order)
    TENSOR_NAMES = (
        "w_u", "w_f", "w_c", "w_o",
        "u_u", "u_f", "u_c", "u_o",
        "u_un", "u_fn", "u_cn", "u_on",
        "w_e",
        "b_u", "b_f", "b_c", "b_o",
    )

    def __init__(self, input_dim: int, hidden_dim: int):
        if input_dim < 1 or hidden_dim < 1:
            raise ValueError("input_dim and hidden_dim must be positive")
        d, h = input_dim, hidden_dim
        self.input_dim = d
        self.hidden_dim = h
        self.wx = np.zeros((4 * h, d))   # rows [u, f, o, c]: input weights
        self.uh = np.zeros((4 * h, h))   # rows [u, f, o, c]: own-hidden weights
        self.un = np.zeros((3 * h, h))   # rows [u, o, c]: neighbor-average weights
        self.u_fn = np.zeros((h, h))     # per-neighbor forget-gate weights
        self.w_e = np.zeros(h)           # merge-probability readout
        self.b = np.zeros(4 * h)         # rows [u, f, o, c]

    def _view(storage, slot, gates=_GATES):
        def get(self):
            h = self.hidden_dim
            k = gates.index(slot)
            return getattr(self, storage)[k * h:(k + 1) * h]

        def put(self, value):
            get(self)[...] = value

        return property(get, put)

    # Per-gate views in the conventional naming.
    w_u = _view("wx", "u")
    w_f = _view("wx", "f")
    w_o = _view("wx", "o")
    w_c = _view("wx", "c")
    u_u = _view("uh", "u")
    u_f = _view("uh", "f")
    u_o = _view("uh", "o")
    u_c = _view("uh", "c")
    u_un = _view("un", "u", gates=("u", "o", "c"))
    u_on = _view("un", "o", gates=("u", "o", "c"))
    u_cn = _view("un", "c", gates=("u", "o", "c"))
    b_u = _view("b", "u")
    b_f = _view("b", "f")
    b_o = _view("b", "o")
    b_c = _view("b", "c")
    del _view

    def tensors(self):
        """(name, array-view) pairs in canonical order."""
        return [(name, getattr(self, name)) for name in self.TENSOR_NAMES]

    def copy(self) -> "CellParams":
        out = CellParams(self.input_dim, self.hidden_dim)
        out.wx[...] = self.wx
        out.uh[...] = self.uh
        out.un[...] = self.un
        out.u_fn[...] = self.u_fn
        out.w_e[...] = self.w_e
        out.b[...] = self.b
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
    contiguous block of rows, and the slots follow the rows. The sweep
    fills the node-local rows one wave at a time; afterwards the cache is
    read-only.
    """

    params: CellParams
    owner: np.ndarray        # (S,)
    x: np.ndarray            # (B, D) inputs
    h_prev: np.ndarray       # (B, H) own previous hidden state
    m_prev: np.ndarray       # (B, H) own previous memory
    navg: np.ndarray         # (B, H) neighbor averages
    nbr_h_prev: np.ndarray   # (S, H) previous hidden state of each neighbor
    m_sel: np.ndarray        # (S, H) flag-selected memory of each neighbor
    nb_gate: np.ndarray      # (S, H) neighbor forget gates
    merge_probs: np.ndarray  # (S,)
    gates: np.ndarray        # (B, 4H) activated gates [g_u, g_f, g_o, g_c]
    memory: np.ndarray       # (B, H) new memory
    hidden: np.ndarray       # (B, H) new hidden state


def cell_forward_batch(params, x, h_prev, owner, nbr_h_prev):
    """Order-independent part of B cell updates over S neighbor slots.

    Args:
        params: CellParams.
        x, h_prev: (B, D) inputs and (B, H) own previous hidden states.
        owner: (S,) index of the node, 0..B-1, that owns each slot.
        nbr_h_prev: (S, H) previous hidden state of each slot's neighbor.

    Returns:
        (pre, nb_gate, merge_probs): the static gate pre-activations
        x @ wx.T + h_prev @ uh.T + b (B, 4H), the per-slot neighbor forget
        gates (S, H) and the per-slot merging probabilities (S,).
    """
    h = params.hidden_dim
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ValueError(f"input has shape {x.shape}, expected (B, {params.input_dim})")
    pre = x @ params.wx.T + h_prev @ params.uh.T + params.b
    forget = x @ params.wx[h:2 * h].T + params.b[h:2 * h]
    nb_gate = sigmoid(forget.take(owner, axis=0) + nbr_h_prev @ params.u_fn.T)
    return pre, nb_gate, sigmoid(nb_gate @ params.w_e)


def _split_gates(gates, h):
    """The (B, H) blocks [u, f, o, c] of packed (B, 4H) gates, as views."""
    return (gates[:, k * h:(k + 1) * h] for k in range(4))


def cell_forward(params, pre, m_prev, navg, nb_gate, m_sel, seg, inv_k):
    """Node-local part of B cell updates: the work that needs the neighbor
    average, so a sweep runs it once per wave, on the wave's blocks.

    Args:
        params: CellParams.
        pre: (B, 4H) the nodes' static pre-activations from
            cell_forward_batch.
        m_prev: (B, H) the nodes' own previous memory.
        navg: (B, H) means of the neighbor hidden states, zero rows for
            nodes without neighbors.
        nb_gate: (S, H) the nodes' neighbor forget gates.
        m_sel: (S, H) neighbor memory selected by the visit flags.
        seg: (S, H) segment ids of the slots, graph.segment_ids of the
            row, 0..B-1, of the node that owns each slot.
        inv_k: (B,) 1 / max(degree, 1) of each node.

    Returns:
        (hidden, memory, gates) with the activated gates [g_u, g_f, g_o,
        g_c] of shape (B, 4H).
    """
    h = params.hidden_dim
    b = pre.shape[0]
    unv = navg @ params.un.T
    gates = pre.copy()
    gates[:, :h] += unv[:, :h]          # input gate
    gates[:, 2 * h:] += unv[:, h:]      # output + candidate gates
    gates[:, :3 * h] = sigmoid(gates[:, :3 * h])
    gates[:, 3 * h:] = np.tanh(gates[:, 3 * h:])
    g_u, g_f, g_o, g_c = _split_gates(gates, h)
    nb_sum = np.bincount(seg.ravel(), (nb_gate * m_sel).ravel(), b * h).reshape(b, h)
    memory = nb_sum * inv_k[:, None] + g_f * m_prev + g_u * g_c
    hidden = np.tanh(g_o * memory)
    if not math.isfinite(memory.sum() + hidden.sum()):
        raise ValueError("non-finite values in cell inputs or parameters")
    return hidden, memory, gates


def cell_backward_node(cache, rows, slots, seg, inv_k, d_hidden, d_memory):
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
        inv_k: (B,) 1 / max(degree, 1) of each node.
        d_hidden, d_memory: upstream gradients wrt the nodes' new state
            (B, H).

    Returns:
        (d_pre, d_m_prev, d_navg, d_msum, d_nbr_m): per node the gradient
        wrt the packed gate pre-activations (B, 4H), the node's previous
        memory (B, H) and the neighbor average (B, H); then per slot the
        gradient wrt its summand nb_gate * m_sel of the memory's neighbor
        mean (S, H) and wrt the flag-selected neighbor memory (S, H).
        cell_backward_batch turns d_pre and d_msum into parameter and
        input gradients.
    """
    params = cache.params
    h = params.hidden_dim
    b = d_hidden.shape[0]
    if d_hidden.shape != (b, h) or d_memory.shape != (b, h):
        raise ValueError("upstream gradient shape mismatch")

    g_u, g_f, g_o, g_c = _split_gates(cache.gates[rows], h)
    hidden = cache.hidden[rows]
    memory = cache.memory[rows]

    # hidden = tanh(g_o * memory)
    dz = d_hidden * (1.0 - hidden * hidden)
    d_go = dz * memory
    dm = d_memory + dz * g_o

    d_gu = dm * g_c
    d_gc = dm * g_u
    d_gf = dm * cache.m_prev[rows]
    d_m_prev = dm * g_f

    d_pre = np.empty((b, 4 * h))
    d_pre[:, :h] = d_gu * g_u * (1.0 - g_u)
    d_pre[:, h:2 * h] = d_gf * g_f * (1.0 - g_f)
    d_pre[:, 2 * h:3 * h] = d_go * g_o * (1.0 - g_o)
    d_pre[:, 3 * h:] = d_gc * (1.0 - g_c * g_c)
    d_navg = np.concatenate((d_pre[:, :h], d_pre[:, 2 * h:]), axis=1) @ params.un

    d_msum = (dm * inv_k[:, None]).ravel().take(seg)
    return d_pre, d_m_prev, d_navg, d_msum, d_msum * cache.nb_gate[slots]


def cell_backward_batch(grads, cache, d_pre, d_msum, d_edge_probs):
    """Order-independent part of the reverse of every update in `cache`,
    the merge-probability readout's reverse included.

    Accumulates every parameter gradient into `grads` and returns the
    gradients wrt the inputs.

    Args:
        grads: CellParams accumulator.
        cache: CellCache of the forward updates, B nodes and S slots.
        d_pre, d_msum: (B, 4H) and (S, H) from cell_backward_node.
        d_edge_probs: (S,) upstream gradients wrt the slots' merging
            probabilities.

    Returns:
        (d_x, d_h_prev, d_nbr_h_prev) of shapes (B, D), (B, H), (S, H).
    """
    params = cache.params
    h = params.hidden_dim
    p = cache.merge_probs
    d_score = d_edge_probs * p * (1.0 - p)
    grads.w_e += cache.nb_gate.T @ d_score
    d_nbgate = d_msum * cache.m_sel + d_score[:, None] * params.w_e
    d_prenb = d_nbgate * cache.nb_gate * (1.0 - cache.nb_gate)
    grads.u_fn += d_prenb.T @ cache.nbr_h_prev
    d_nbr_h_prev = d_prenb @ params.u_fn
    # w_f and b_f are shared between the own forget gate and every
    # per-neighbor forget gate, so both pre-activations contribute
    sum_prenb = segment_sum(d_prenb, cache.owner, d_pre.shape[0])

    grads.uh += d_pre.T @ cache.h_prev
    d_unpre = np.concatenate((d_pre[:, :h], d_pre[:, 2 * h:]), axis=1)
    grads.un += d_unpre.T @ cache.navg
    grads.b += d_pre.sum(axis=0)
    grads.b[h:2 * h] += sum_prenb.sum(axis=0)
    d_wx_rows = d_pre.copy()
    d_wx_rows[:, h:2 * h] += sum_prenb
    grads.wx += d_wx_rows.T @ cache.x
    return d_wx_rows @ params.wx, d_pre @ params.uh, d_nbr_h_prev

