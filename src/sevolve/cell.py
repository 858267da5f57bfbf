"""Graph LSTM cell: gate computations, state updates, merge-probability
outputs, and their exact reverse-mode backward pass.

One cell update for node i reads its input vector x, its own previous
hidden/memory state, the average of its neighbors' hidden states (new
state for already-visited neighbors, previous state otherwise), and per
neighbor j the previous hidden state plus the memory state selected by
j's visit flag. It produces the new hidden/memory state and one merging
probability per neighbor.

The reverse pass has two parts. cell_backward_node does the node-local
work, which needs the node's upstream gradients: a sweep calls it once
per node in reverse visit order. cell_backward_batch does the
order-independent rest, parameter and input gradients, for many nodes at
once. cell_backward composes the two for a single node.

Everything is float64 and purely functional: same inputs, bit-identical
outputs.
"""

from __future__ import annotations

import math

import numpy as np

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

    def validate(self):
        for name, t in self.tensors():
            if not np.isfinite(t).all():
                raise ValueError(f"non-finite entries in cell tensor {name}")

    def __repr__(self):
        return f"CellParams(input_dim={self.input_dim}, hidden_dim={self.hidden_dim})"


class CellCache:
    """Intermediate activations of one cell update, kept for the backward
    pass. Written once by cell_forward and read-only afterwards. The
    per-neighbor fields hold zero rows for a node without neighbors."""

    __slots__ = (
        "params", "x", "h_prev", "m_prev", "navg",
        "nbr_visited", "nbr_h_prev", "m_sel",
        "sig_gates", "g_c", "nb_gate", "merge_probs",
        "memory", "hidden", "inv_k",
    )


def cell_forward(params, x, h_prev, m_prev, neighbor_avg,
                 nbr_visited=None, nbr_h_prev=None, nbr_m_cur=None, nbr_m_prev=None,
                 pre_static=None, nbr_pre=None):
    """One node update.

    Args:
        params: CellParams.
        x: input vector (D,).
        h_prev, m_prev: the node's own previous hidden/memory state (H,).
        neighbor_avg: visit-flag-aware mean of neighbor hidden states (H,),
            zero vector when the node has no neighbors.
        nbr_visited: (k,) bool, visit flags of the k neighbors.
        nbr_h_prev: (k, H) previous hidden states of the neighbors.
        nbr_m_cur / nbr_m_prev: (k, H) updated / previous neighbor memory;
            the visit flag picks which one enters the memory sum.
        pre_static: optional precomputed wx @ x + uh @ h_prev + b, shape
            (4H,). Callers sweeping a whole layer batch this per layer.
        nbr_pre: optional precomputed (w_f @ x + b_f) + nbr_h_prev @ u_fn.T,
            shape (k, H). Same values the function would compute itself.

    Returns:
        (hidden, memory, merge_probs, cache) with merge_probs of shape (k,).
    """
    h = params.hidden_dim
    if x.shape != (params.input_dim,):
        raise ValueError(f"input has shape {x.shape}, expected ({params.input_dim},)")
    if h_prev.shape != (h,) or m_prev.shape != (h,) or neighbor_avg.shape != (h,):
        raise ValueError("own-state or neighbor-average shape mismatch")

    if pre_static is None:
        pre = params.wx @ x + params.uh @ h_prev + params.b
    else:
        pre = pre_static.copy()
    unv = params.un @ neighbor_avg
    pre[:h] += unv[:h]          # input gate
    pre[2 * h:] += unv[h:]      # output + candidate gates
    sig = sigmoid(pre[:3 * h])  # [g_u, g_f, g_o]
    g_u = sig[:h]
    g_f = sig[h:2 * h]
    g_o = sig[2 * h:]
    g_c = np.tanh(pre[3 * h:])

    cache = CellCache()
    k = 0 if nbr_visited is None else len(nbr_visited)
    if k:
        if nbr_h_prev.shape != (k, h):
            raise ValueError("neighbor hidden-state shape mismatch")
        if nbr_pre is None:
            nbr_pre = nbr_h_prev @ params.u_fn.T + (params.wx[h:2 * h] @ x
                                                    + params.b[h:2 * h])
        nb_gate = sigmoid(nbr_pre)
        m_sel = np.where(nbr_visited[:, None], nbr_m_cur, nbr_m_prev)
        inv_k = 1.0 / k
        memory = (nb_gate * m_sel).sum(axis=0) * inv_k + g_f * m_prev + g_u * g_c
        merge_probs = sigmoid(nb_gate @ params.w_e)
        cache.nbr_visited = np.asarray(nbr_visited, dtype=bool)
        cache.nbr_h_prev = nbr_h_prev
        cache.m_sel = m_sel
        cache.nb_gate = nb_gate
        cache.inv_k = inv_k
    else:
        memory = g_f * m_prev + g_u * g_c
        merge_probs = np.zeros(0)
        cache.nbr_visited = np.zeros(0, dtype=bool)
        cache.nbr_h_prev = cache.m_sel = cache.nb_gate = np.zeros((0, h))
        cache.inv_k = 0.0
    hidden = np.tanh(g_o * memory)

    if not math.isfinite(memory.sum() + hidden.sum()):
        raise ValueError("non-finite values in cell inputs or parameters")

    cache.params = params
    cache.x = x
    cache.h_prev = h_prev
    cache.m_prev = m_prev
    cache.navg = neighbor_avg
    cache.sig_gates = sig
    cache.g_c = g_c
    cache.merge_probs = merge_probs
    cache.memory = memory
    cache.hidden = hidden
    return hidden, memory, merge_probs, cache


def cell_backward_node(cache, d_hidden, d_memory, d_edge_probs):
    """Node-local part of the reverse of cell_forward: everything that
    needs the node's upstream gradients, and only those.

    Args:
        cache: CellCache from the forward call.
        d_hidden, d_memory: upstream gradients wrt the node's new state (H,).
        d_edge_probs: upstream gradients wrt the merging probabilities
            (k,), or None for zeros.

    Returns:
        (d_pre, d_m_prev, d_navg, d_score, d_prenb, d_nbr_m): the
        gradient wrt the packed gate pre-activations (4H,), the node's
        previous memory (H,) and the neighbor average (H,); then per
        neighbor the gradients wrt the merge-probability score (k,), the
        neighbor forget-gate pre-activations (k, H) and the flag-selected
        neighbor memory (k, H). cell_backward_batch turns d_pre, d_score
        and d_prenb into parameter and input gradients.
    """
    params = cache.params
    h = params.hidden_dim
    if d_hidden.shape != (h,) or d_memory.shape != (h,):
        raise ValueError("upstream gradient shape mismatch")
    nb_gate = cache.nb_gate
    k = nb_gate.shape[0]
    if d_edge_probs is None:
        d_edge_probs = np.zeros(k)
    elif d_edge_probs.shape != (k,):
        raise ValueError(
            f"edge-probability gradient has shape {d_edge_probs.shape}, "
            f"node has {k} neighbors")

    sig = cache.sig_gates
    g_u = sig[:h]
    g_f = sig[h:2 * h]
    g_o = sig[2 * h:]
    g_c = cache.g_c

    # hidden = tanh(g_o * memory)
    dz = d_hidden * (1.0 - cache.hidden * cache.hidden)
    d_go = dz * cache.memory
    dm = d_memory + dz * g_o

    d_gu = dm * g_c
    d_gc = dm * g_u
    d_gf = dm * cache.m_prev
    d_m_prev = dm * g_f

    d_pre = np.empty(4 * h)
    d_pre[:h] = d_gu * g_u * (1.0 - g_u)
    d_pre[h:2 * h] = d_gf * g_f * (1.0 - g_f)
    d_pre[2 * h:3 * h] = d_go * g_o * (1.0 - g_o)
    d_pre[3 * h:] = d_gc * (1.0 - g_c * g_c)
    d_navg = params.un.T @ np.concatenate((d_pre[:h], d_pre[2 * h:]))

    p = cache.merge_probs
    d_score = d_edge_probs * p * (1.0 - p)
    dmk = dm * cache.inv_k
    d_nbgate = dmk * cache.m_sel + d_score[:, None] * params.w_e
    d_prenb = d_nbgate * nb_gate * (1.0 - nb_gate)
    d_nbr_m = dmk * nb_gate
    return d_pre, d_m_prev, d_navg, d_score, d_prenb, d_nbr_m


def cell_backward_batch(params, grads, x, h_prev, navg, d_pre,
                        nb_gate, nbr_h_prev, owner, d_score, d_prenb):
    """Order-independent part of the reverse of B cell updates over S
    neighbor slots in total.

    Accumulates every parameter gradient into `grads` and returns the
    gradients wrt the inputs.

    Args:
        params: CellParams of the forward calls.
        grads: CellParams accumulator.
        x, h_prev, navg: (B, D), (B, H), (B, H) per-node forward inputs.
        d_pre: (B, 4H) from cell_backward_node.
        nb_gate, nbr_h_prev: (S, H) per-slot neighbor forget gates (from
            the caches) and previous neighbor hidden states.
        owner: (S,) index of the node, 0..B-1, that owns each slot.
        d_score, d_prenb: (S,) and (S, H) from cell_backward_node.

    Returns:
        (d_x, d_h_prev, d_nbr_h_prev) of shapes (B, D), (B, H), (S, H).
    """
    h = params.hidden_dim
    grads.w_e += nb_gate.T @ d_score
    grads.u_fn += d_prenb.T @ nbr_h_prev
    d_nbr_h_prev = d_prenb @ params.u_fn
    # w_f and b_f are shared between the own forget gate and every
    # per-neighbor forget gate, so both pre-activations contribute
    sum_prenb = np.zeros((d_pre.shape[0], h))
    np.add.at(sum_prenb, owner, d_prenb)

    grads.uh += d_pre.T @ h_prev
    d_unpre = np.concatenate((d_pre[:, :h], d_pre[:, 2 * h:]), axis=1)
    grads.un += d_unpre.T @ navg
    grads.b += d_pre.sum(axis=0)
    grads.b[h:2 * h] += sum_prenb.sum(axis=0)
    d_wx_rows = d_pre.copy()
    d_wx_rows[:, h:2 * h] += sum_prenb
    grads.wx += d_wx_rows.T @ x
    return d_wx_rows @ params.wx, d_pre @ params.uh, d_nbr_h_prev


def cell_backward(cache, d_hidden, d_memory, d_edge_probs, grads=None):
    """Exact reverse of cell_forward: cell_backward_node followed by
    cell_backward_batch over this one node.

    Args:
        cache: CellCache from the forward call.
        d_hidden, d_memory: upstream gradients wrt the node's new state (H,).
        d_edge_probs: upstream gradients wrt the merging probabilities (k,).
        grads: CellParams accumulator; allocated fresh when None.

    Returns:
        (grads, d_x, d_h_prev, d_m_prev, d_neighbor_avg, d_nbr_h_prev, d_nbr_m)
        where d_nbr_m is the gradient wrt the flag-selected neighbor memory
        (route it to the updated state for visited neighbors, the previous
        state otherwise — same selection as the forward pass). The two
        neighbor gradients are None for a node without neighbors.
    """
    params = cache.params
    if grads is None:
        grads = params.zeros_like()
    d_pre, d_m_prev, d_navg, d_score, d_prenb, d_nbr_m = cell_backward_node(
        cache, d_hidden, d_memory, d_edge_probs)
    k = d_score.shape[0]
    d_x, d_h_prev, d_nbr_h_prev = cell_backward_batch(
        params, grads, cache.x[None], cache.h_prev[None], cache.navg[None], d_pre[None],
        cache.nb_gate, cache.nbr_h_prev, np.zeros(k, dtype=np.intp), d_score, d_prenb)
    if not k:
        d_nbr_h_prev = d_nbr_m = None
    return grads, d_x[0], d_h_prev[0], d_m_prev, d_navg, d_nbr_h_prev, d_nbr_m
