"""Stacked graph LSTM layers over an evolving hierarchy of graphs.

One forward pass runs L layers. Layer t propagates cell state over graph
G_t in a random node visit order, applies a per-level linear head to the
node hidden states, and (except after the last layer) coarsens the graph
by a Metropolis-Hastings step driven by the predicted per-edge merging
probabilities. States of merged nodes are averaged to seed the next
level. All layers share one set of cell weights. The base-level
prediction is the element-wise sum of every level's logits broadcast
back to the base nodes.

A layer's sweep updates its nodes one wave at a time, in a wave-major
layout of the layer (see wave_schedule), which gives exactly the states
of a node-by-node sweep in visit order. The backward pass reverses the
realized structure exactly: heads, then layers in reverse, waves in
reverse, with aggregated-state gradients split uniformly over merged
members, and only gradients that reach a parameter. No gradient flows
through the discrete merge decisions; the edge-supervision loss trains
the merge-probability readout. Only a train-mode pass keeps the per-layer
state the backward pass reads, and it ends by computing its losses and
their gradients once (_loss_terms), which compute_loss and backward both
read; a test-mode pass, which only predicts, keeps none, so at most two
layers' arrays are live at once. A sample is one or more parts
(Sample.union): each part keeps its own visit orders and transitions,
and the layers run once over all of them.
"""

from __future__ import annotations

import functools
import os
import re
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from sevolve.cell import (
    CellParams,
    cell_backward_batch,
    cell_backward_node,
    cell_forward,
    cell_forward_batch,
    check_finite,
)
from sevolve.evolve import EvolveConfig, TrialLog, evolve_deterministic, evolve_step
from sevolve.graph import (
    CliquePartition,
    HierarchyTrace,
    LevelGraph,
    _intp,
    aggregate_node_values,
    quotient_graph,
    segment_ids,
    segment_sum,
)

MODES = ("train", "test")


@dataclass
class NetworkConfig:
    input_dim: int
    num_classes: int
    num_layers: int = 5
    hidden_dim: int | None = None
    edge_loss_weight: float = 1.0
    evolve: EvolveConfig = field(default_factory=EvolveConfig)

    def __post_init__(self):
        if self.hidden_dim is None:
            self.hidden_dim = self.input_dim
        if self.input_dim < 1 or self.hidden_dim < 1:
            raise ValueError("input_dim and hidden_dim must be positive")
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        if not 0 <= self.edge_loss_weight < np.inf:
            raise ValueError(
                f"edge_loss_weight must be finite and >= 0, got {self.edge_loss_weight}")


class ModelParams:
    """One shared CellParams plus per-level linear heads (C x H, C)."""

    __slots__ = ("cell", "heads")

    def __init__(self, cell: CellParams, heads):
        self.cell = cell
        self.heads = [(np.asarray(w, dtype=np.float64), np.asarray(b, dtype=np.float64))
                      for w, b in heads]
        for k, (w, b) in enumerate(self.heads):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"head {k} has inconsistent shapes {w.shape}, {b.shape}")
            if w.shape[1] != cell.hidden_dim:
                raise ValueError(f"head {k} does not match hidden_dim {cell.hidden_dim}")

    @property
    def num_layers(self) -> int:
        return len(self.heads)

    def tensors(self):
        """(name, array) pairs: the shared cell block, then each head."""
        out = self.cell.tensors()
        for k, (w, b) in enumerate(self.heads):
            out.append((f"head{k}_w", w))
            out.append((f"head{k}_b", b))
        return out

    def zeros_like(self) -> "ModelParams":
        heads = [(np.zeros_like(w), np.zeros_like(b)) for w, b in self.heads]
        return ModelParams(self.cell.zeros_like(), heads)

    def copy(self) -> "ModelParams":
        return ModelParams(self.cell.copy(), [(w.copy(), b.copy()) for w, b in self.heads])


def init_params(cfg: NetworkConfig, rng) -> ModelParams:
    """Cell weights uniform on [-0.1, 0.1]; head weights Gaussian with
    standard deviation 0.001; all biases zero. Draw order follows the
    canonical tensor enumeration."""
    cell = CellParams(cfg.input_dim, cfg.hidden_dim)
    for _, t in cell.tensors():
        t[...] = rng.uniform(-0.1, 0.1, t.shape)
    heads = []
    for _ in range(cfg.num_layers):
        w = rng.normal(0.0, 0.001, (cfg.num_classes, cfg.hidden_dim))
        b = np.zeros(cfg.num_classes)
        heads.append((w, b))
    return ModelParams(cell, heads)


class Sample:
    """A base graph with per-node feature vectors and class labels.

    A sample is the disjoint union of one or more parts: part k holds
    nodes offsets[k]:offsets[k + 1], numbered as in its own sample plus
    offsets[k]. A plain sample is one part, offsets (0, n); Sample.union
    builds one of several, which forward runs in test mode only.
    """

    __slots__ = ("graph", "features", "labels", "offsets")

    def __init__(self, graph: LevelGraph, features, labels):
        feats = np.ascontiguousarray(features, dtype=np.float64)
        try:
            lbls = _intp(labels, "labels")
        except OverflowError:
            raise ValueError("label out of range: it does not fit intp") from None
        if feats.ndim != 2 or feats.shape[0] != graph.num_nodes:
            raise ValueError(
                f"features must be (num_nodes, D), got {feats.shape} for "
                f"{graph.num_nodes} nodes")
        if lbls.shape != (graph.num_nodes,):
            raise ValueError("labels must cover every node")
        if not np.isfinite(feats).all():
            raise ValueError("non-finite feature values")
        if lbls.size and lbls.min() < 0:
            raise ValueError("labels must be non-negative")
        self.graph = graph
        self.features = feats
        self.labels = lbls
        self.offsets = (0, graph.num_nodes)

    @classmethod
    def union(cls, samples) -> "Sample":
        """The disjoint union of `samples`, each one part, in order: one
        graph whose edges are the parts' edges with their node ids offset,
        still in canonical order, and the parts' features and labels
        stacked. `offsets` is the tuple (0, n_0, n_0 + n_1, ..., N) of
        the parts' node offsets. Parts whose feature dims differ raise
        ValueError."""
        samples = list(samples)
        if not samples:
            raise ValueError("a union needs at least one sample")
        dims = sorted({s.features.shape[1] for s in samples})
        if len(dims) > 1:
            raise ValueError(f"the parts of a union must share one feature dim, got {dims}")
        offsets = np.cumsum([0] + [s.num_nodes for s in samples]).tolist()
        # each part's edges are canonical and above the previous part's
        edges = np.concatenate([s.graph.edges + off for s, off in zip(samples, offsets)])
        union = cls(LevelGraph._from_canonical(offsets[-1], edges),
                    np.concatenate([s.features for s in samples]),
                    np.concatenate([s.labels for s in samples]))
        union.offsets = tuple(offsets)
        return union

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes


@dataclass
class StructurePlan:
    """Frozen structure of one forward pass: per-layer node visit orders
    and the realized partitions. Replaying a plan makes the forward pass
    a deterministic, rng-free function of the parameters."""

    visit_orders: list
    partitions: list


class WaveSchedule(NamedTuple):
    """Wave-major layout of one layer's sweep, from wave_schedule: the
    waves in sweep order, the nodes of a wave ascending, and each row's
    slots its node's neighbors, ascending. With it come the per-layer
    indices that the forward and the backward sweep read wave by wave.

    perm: (n,) the node of each row; pos: (n,) the row of each node.
    waves: per wave, (r0, r1, s0, s1): its rows r0:r1 and slots s0:s1.
    owner: (S,) the row of each slot.
    nbr: (S,) the row of each slot's neighbor. The neighbor is visited
        before the owner exactly when nbr < owner.
    slot_edge: (S,) the canonical edge id of each slot, which has one
        slot in each endpoint's row.
    rev: (S,) the edge's other slot: owner and nbr swapped.
    later: the slots whose neighbor is visited after the owner
        (nbr > owner), ascending.
        Only the backward pass reads rev and later, so only a schedule
        built for a train-mode pass has them; a test-mode one holds None.
    deg, inv_deg: (n, 1) max(degree, 1) of each row's node, and its
        inverse, as float columns.
    seg: (S, width) graph.segment_ids of owner - r0 of each slot's wave:
        a wave's block of it sums the wave's slots into the wave's rows.
    """

    perm: np.ndarray
    pos: np.ndarray
    waves: list
    owner: np.ndarray
    nbr: np.ndarray
    slot_edge: np.ndarray
    rev: np.ndarray
    later: np.ndarray
    deg: np.ndarray
    inv_deg: np.ndarray
    seg: np.ndarray


def wave_schedule(order, graph: LevelGraph, width: int, backward: bool = True) -> WaveSchedule:
    """Group the nodes of a sweep over `graph` in visit order `order` into
    waves, and lay the layer out in wave order, with segment ids for rows
    of `width` values. With `backward` False, as for a test-mode pass, the
    backward-only `rev` and `later` are None, and neither they nor the
    slot inverse behind `rev` are built.

    A node's wave is 1 plus the largest wave of its earlier-visited
    neighbors, or 0 when it has none. So no edge joins two nodes of one
    wave, every earlier-visited neighbor of a node lies in a strictly
    earlier wave and every later-visited one in a later wave: updating
    the waves in turn, each all at once, gives the same states as
    updating the nodes one by one in visit order. The number of waves is
    the number of nodes on the longest path whose nodes come in visit
    order.

    The waves come from the edge list by relaxation: with every edge
    oriented from its earlier-visited end, all waves start at 0 and each
    round raises every node's wave to 1 plus the largest wave of its
    earlier-visited neighbors, until a round changes nothing. That takes
    one round per wave, each O(m) for m edges.

    The layout takes two stable sorts of small ints, which numpy does as
    counting (radix) sorts for n < 65536: the nodes by wave, then the 2m
    entries, two per edge, by row. The entries are every edge seen from
    its upper end, then every edge seen from its lower end, each half in
    canonical edge order. So a node's entries come as its lower-id
    neighbors ascending, then its higher-id ones ascending, and the
    stable sort by row alone lists each row's neighbors ascending.
    """
    n = graph.num_nodes
    m = graph.num_edges
    visit = np.empty(n, dtype=np.intp)
    visit[order] = np.arange(n)
    a, b = graph.edges.T
    src = np.where(visit[a] < visit[b], a, b)
    dst = a + b - src
    wave = np.zeros(n, dtype=np.intp)
    total = 0
    # waves only rise, so a round that leaves their sum changed nothing
    while True:
        np.maximum.at(wave, dst, wave[src] + 1)
        raised = wave.sum()
        if raised == total:
            break
        total = raised

    # waves and rows are below n, so they sort as the smallest type that holds n
    small = np.min_scalar_type(n)
    perm = np.argsort(wave.astype(small), kind="stable")
    pos = np.empty(n, dtype=np.intp)
    pos[perm] = np.arange(n)
    row_off = np.concatenate(([0], np.cumsum(np.bincount(wave))))
    # entry j < m is edge j seen from its upper end, entry j + m from its
    # lower end; slot[e] is the slot of entry e
    rows = pos[np.concatenate((b, a))]
    by_row = np.argsort(rows.astype(small), kind="stable")
    owner = rows[by_row]
    nbr = pos[np.concatenate((a, b))[by_row]]
    other_end = by_row - m
    rev = later = None
    if backward:
        slot = np.empty(2 * m, dtype=np.intp)
        slot[by_row] = np.arange(2 * m)
        # the reverse slot: index j - m of `slot` wraps round to j + m when j < m
        rev, later = slot[other_end], np.flatnonzero(nbr > owner)
    # owner ascends, so a wave's first slot is the first with owner >= r0
    slot_off = np.searchsorted(owner, row_off)
    waves = list(zip(row_off[:-1].tolist(), row_off[1:].tolist(),
                     slot_off[:-1].tolist(), slot_off[1:].tolist()))
    # each row's index within its wave
    row_local = np.arange(n) - row_off[wave[perm]]
    div = np.maximum(np.bincount(owner, minlength=n), 1).astype(np.float64)[:, None]
    return WaveSchedule(perm, pos, waves, owner, nbr,
                        np.where(other_end < 0, by_row, other_end), rev, later, div,
                        1.0 / div, segment_ids(row_local[owner], width, n))


@dataclass(slots=True)
class ForwardResult:
    """Everything one forward pass produced: per-level logits and edge
    probabilities, the realized hierarchy trace, the combined base-level
    logits, per layer the visit order and, in train mode only, its
    WaveSchedule and the CellCache for the backward pass, whose rows are
    in the schedule's wave-major order, and its LossTerms, `loss`. A
    test-mode result's `schedules` and `layers` are empty, `loss` None."""

    mode: str
    params: ModelParams
    level_logits: list
    combined_logits: np.ndarray
    trace: HierarchyTrace
    amaps: list
    orders: list
    schedules: list
    layers: list
    loss: LossTerms | None

    def plan(self) -> StructurePlan:
        return StructurePlan(
            visit_orders=list(self.orders),
            partitions=list(self.trace.partitions))


def _softmax_cross_entropy(logits, labels):
    """(mean cross-entropy, softmax) of the rows of `logits`, both from
    one exp of the max-shifted logits and its row sums. The row maximum
    is a running np.maximum over the few columns, exact as max(axis=1)
    is and much cheaper than its reduction along short rows."""
    z = logits - functools.reduce(np.maximum, logits.T)[:, None]
    e = np.exp(z)
    sums = e.sum(axis=1)
    loss = float(np.mean(np.log(sums) - z[np.arange(len(labels)), labels]))
    return loss, np.divide(e, sums[:, None], out=e)


def _make_loss_eval(node_logits, amap, labels):
    # Candidate-graph energy for the Gibbs posterior: current-level hidden
    # states averaged over the candidate cliques, pushed through the
    # current level's head, broadcast to the base nodes, scored with the
    # same mean cross-entropy convention as the task loss. The head is
    # linear, so averaging the per-node logits over each clique gives the
    # same values. A partition into one-node cliques, the identity that
    # evolve_step scores loss_old on, averages nothing: it reads the logits
    # themselves, whose -0.0 entries the means would turn to 0.0, which no
    # loss tells apart (the shifted logits of a row and its log-sum are
    # the same either way).
    def loss_eval(partition):
        if partition.num_cliques == partition.num_nodes:
            return _softmax_cross_entropy(node_logits[amap], labels)[0]
        agg = aggregate_node_values(partition, node_logits)
        return _softmax_cross_entropy(agg[partition.assignment[amap]], labels)[0]

    return loss_eval


# sigmoid's exp overflows where the gate saturates, which is exact. A
# non-finite state still raises NumericError, once its layer is done: the
# later waves may read it, and turn an infinity into NaN, first
@np.errstate(over="ignore", invalid="ignore")
def forward(sample: Sample, params: ModelParams, cfg: NetworkConfig,
            rng=None, mode: str = "train", plan: StructurePlan | None = None) -> ForwardResult:
    """Run the full stack on one sample.

    Each layer gathers its inputs and previous states once into the
    wave-major layout that wave_schedule builds from the visit order,
    with the layer's segment ids and degrees. cell_forward_batch computes
    the visit-order independent gate terms for every node and neighbor
    slot at once, gate-major, into the layer's CellCache; a slot's
    neighbor term of its forget gate is its neighbor row's, one product
    per row. cell_forward then updates the waves in turn, each a block of
    rows and slots, and check_finite checks the layer's new states once,
    after the last wave: a non-finite state raises NumericError before
    the head, the transition or the next layer reads it. The cache's
    hidden and memory rows start as the previous state; a wave's neighbor
    means go into its `navg` rows, and its new states, with its activated
    gates in train mode, over its rows, when the wave is updated. Every
    earlier-visited neighbor of a node lies in an earlier wave and every
    later-visited one in a later wave, so a neighbor enters with its new
    state exactly when it comes earlier in the visit order, as in a
    node-by-node sweep. The new states return to node order once, for the
    head and the aggregation.

    A transition yields a partition, sampled, thresholded or replayed.
    The identity, recognised by value, keeps the level: the graph object,
    features, states and base-node map carry over. Any other partition, a
    permutation too, gives the quotient_graph and means over its cliques.

    In train mode the evolution step may query the label-dependent
    posterior; in test mode acceptance uses the transition ratio alone and
    labels are never read. Only train mode keeps each layer's WaveSchedule
    and CellCache in the result, for backward, and ends with _loss_terms,
    the result's `loss`; in test mode a layer's arrays are freed once the
    next layer's replace them, so at most two layers' arrays are live at
    once. Passing a StructurePlan replays a recorded structure (visit
    orders + partitions) with no rng involved; a visit order that is not
    an integer permutation of its level's nodes raises ValueError.

    A sample is one or more parts (Sample), a plain sample one, and `rng`
    is one Generator per part, a bare Generator a sequence of one; another
    count raises ValueError, as train mode or a plan do with several
    parts. Each part draws its visit order as rng_k.permutation(n_k) does,
    offset, and runs its own transition (_evolve_parts) with its own rng;
    the rest runs once over all parts, row by row, so a part's rows come
    out bit for bit as in its own forward, with one bounded exception:
    numpy computes a 1-row matrix product with another kernel, so the
    rows of a part's 1-row wave or 1-node level, computed here inside a
    larger product, can differ from it in the last bit. They are not
    recomputed alone. Such a deviation stays near the unit roundoff (at
    most 5e-15 relative in the combined logits of 40 16x16 samples) and
    changes an MH decision only when an acceptance draw lies within it of
    its threshold; the tests hold union predictions equal to per-sample
    predictions and union logits to rtol 1e-12.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if plan is None and rng is None:
        raise ValueError("rng is required when no replay plan is given")
    d_in, h_dim, n_cls, n_layers = (cfg.input_dim, cfg.hidden_dim,
                                    cfg.num_classes, cfg.num_layers)
    if sample.features.shape[1] != d_in:
        raise ValueError(
            f"sample features have dim {sample.features.shape[1]}, config says {d_in}")
    if params.cell.input_dim != d_in or params.cell.hidden_dim != h_dim:
        raise ValueError("cell parameter dimensions do not match the config")
    if params.num_layers != n_layers:
        raise ValueError(
            f"params carry {params.num_layers} heads, config says {n_layers}")
    labels = sample.labels
    if mode == "train" and labels.max() >= n_cls:
        raise ValueError(f"label {labels.max()} out of range for {n_cls} classes")
    if plan is not None and (len(plan.visit_orders) != n_layers
                             or len(plan.partitions) != n_layers - 1):
        raise ValueError("replay plan does not match the layer count")
    # the current level's part offsets
    offsets = sample.offsets
    parts = len(offsets) - 1
    if parts > 1 and mode != "test":
        raise ValueError(f"a union sample runs in test mode only, not {mode} mode")
    if plan is not None:
        if parts > 1:
            raise ValueError("a union sample replays no plan: replay each part on its own "
                             "sample")
    else:
        rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
        if len(rngs) != parts:
            raise ValueError(f"a sample of {parts} part(s) needs a sequence of {parts} rngs, "
                             "one per part")

    g = sample.graph
    feats = sample.features
    h_prev = np.zeros((g.num_nodes, h_dim))
    m_prev = np.zeros((g.num_nodes, h_dim))
    amap = np.arange(g.num_nodes, dtype=np.intp)

    levels = [g]
    partitions = []
    edge_probs = []
    decisions = []
    level_logits = []
    amaps = []
    orders = []
    schedules = []
    layers = []

    cell = params.cell
    for t in range(n_layers):
        n = g.num_nodes
        if plan is not None:
            order = np.asarray(plan.visit_orders[t])
            if order.dtype.kind not in "iu":
                raise ValueError(f"replay plan's visit order for layer {t} is not an "
                                 f"integer array, got dtype {order.dtype}")
            if not np.array_equal(np.sort(order), np.arange(n)):
                raise ValueError(f"replay plan's visit order for layer {t} is not a "
                                 f"permutation of the level's {n} nodes")
        else:
            # each part shuffles its block in place: rng_k.permutation(n_k) + offset
            order = np.arange(n)
            for r, lo, hi in zip(rngs, offsets, offsets[1:]):
                r.shuffle(order[lo:hi])
        schedule = wave_schedule(order, g, h_dim, backward=mode == "train")
        perm, owner, nbr, seg = schedule.perm, schedule.owner, schedule.nbr, schedule.seg
        deg, inv_deg = schedule.deg, schedule.inv_deg
        x, hp, mp = (a.take(perm, axis=0) for a in (feats, h_prev, m_prev))
        cache = cell_forward_batch(cell, x, hp, mp, owner, hp, nbr)
        h_cur, m_cur = cache.hidden, cache.memory
        for r0, r1, s0, s1 in schedule.waves:
            rows, ids = slice(r0, r1), seg[s0:s1]
            nb_sum = np.bincount(ids.ravel(), h_cur.take(nbr[s0:s1], axis=0).ravel(),
                                 (r1 - r0) * h_dim)
            np.divide(nb_sum.reshape(r1 - r0, h_dim), deg[rows], out=cache.navg[rows])
            h_cur[rows], m_cur[rows], gates = cell_forward(
                cache, rows, slice(s0, s1), ids, inv_deg[rows],
                m_cur.take(nbr[s0:s1], axis=0))
            if mode == "train":
                cache.gates[:, rows] = gates
        check_finite(h_cur, m_cur)
        if mode == "train":
            schedules.append(schedule)
            layers.append(cache)
        h_new, m_new = h_cur.take(schedule.pos, axis=0), m_cur.take(schedule.pos, axis=0)

        # one probability per undirected edge: mean of the two directed
        # evaluations, a sum of two that no slot order changes
        p_edge = 0.5 * np.bincount(schedule.slot_edge, cache.merge_probs, g.num_edges)
        head_w, head_b = params.heads[t]
        logits = h_new @ head_w.T + head_b

        orders.append(order)
        level_logits.append(logits)
        edge_probs.append(p_edge)
        amaps.append(amap)

        if t < n_layers - 1:
            if plan is not None:
                part, trial_log = plan.partitions[t], TrialLog(g, p_edge)
            else:
                loss_eval = _make_loss_eval(logits, amap, labels) if mode == "train" else None
                part, trial_log, offsets = _evolve_parts(g, p_edge, offsets, loss_eval,
                                                         cfg.evolve, rngs)
            partitions.append(part)
            decisions.append(trial_log)
            if np.array_equal(part.assignment, np.arange(n)):
                # a kept level: its arrays carry over, as their means over
                # the identity's one-node cliques would copy them
                h_prev, m_prev = h_new, m_new
            else:
                g = quotient_graph(g, part)
                feats = aggregate_node_values(part, feats)
                h_prev = aggregate_node_values(part, h_new)
                m_prev = aggregate_node_values(part, m_new)
                amap = part.assignment[amap]
            levels.append(g)

    combined = level_logits[0].copy()
    for t in range(1, n_layers):
        combined += level_logits[t][amaps[t]]
    trace = HierarchyTrace(levels, partitions, edge_probs, decisions)
    loss = _loss_terms(combined, trace, labels, cfg) if mode == "train" else None
    return ForwardResult(mode, params, level_logits, combined, trace, amaps, orders,
                         schedules, layers, loss)


def _evolve_parts(g: LevelGraph, p_edge, offsets, loss_eval, cfg: EvolveConfig, rngs):
    """The transition of level `g`, whose part k holds nodes
    offsets[k]:offsets[k + 1]: each part's own evolve_deterministic or
    evolve_step with its own rng, and with `loss_eval`, the train-mode
    posterior (None in test mode). Returns (partition, TrialLog, the next
    level's part offsets).

    One part runs on `g` itself and its result comes back as it is.
    Several parts each run on their block of g's canonical edges (sorted
    by lower end) less their offset. Their partition is the parts' ones
    with clique ids offset, their log their trials in part order.
    """
    cuts = np.searchsorted(g.edges[:, 0], offsets).tolist()
    steps = []
    for lo, hi, e0, e1, rng in zip(offsets, offsets[1:], cuts, cuts[1:], rngs):
        g_part = g if len(rngs) == 1 else LevelGraph._from_canonical(hi - lo,
                                                                     g.edges[e0:e1] - lo)
        if cfg.threshold is not None:
            steps.append(evolve_deterministic(g_part, p_edge[e0:e1], cfg.threshold))
        else:
            steps.append(evolve_step(g_part, p_edge[e0:e1], loss_eval, cfg, rng))
    if len(steps) == 1:
        return *steps[0], [0, steps[0][0].num_cliques]
    parts, logs = zip(*steps)
    next_offsets = np.cumsum([0, *(p.num_cliques for p in parts)]).tolist()
    part = CliquePartition(np.concatenate([p.assignment + off
                                           for p, off in zip(parts, next_offsets)]),
                           next_offsets[-1])
    log = TrialLog(g, p_edge, None, None, *(
        np.concatenate([getattr(part_log, f) for part_log in logs])
        for f in ("accepted", "posterior_evaluated", "posterior_ratio")))
    return part, log, next_offsets


def _level_edge_targets(trace: HierarchyTrace, labels, num_classes):
    """Merge targets for every level: 1 iff the two endpoints' level
    labels agree. A level node's label is the majority base label of its
    descendants, ties to the smaller label id. A kept level has its
    predecessor's targets."""
    counts = np.zeros((trace.levels[0].num_nodes, num_classes))
    counts[np.arange(labels.size), labels] = 1.0
    targets = []
    for t, g in enumerate(trace.levels):
        if not (t and trace.kept(t - 1)):
            ends = counts.argmax(axis=1)[g.edges]
            level_targets = (ends[:, 0] == ends[:, 1]).astype(np.float64)
        targets.append(level_targets)
        # a merge after a kept level still pools the counts it carries
        if t < len(trace.partitions) and not trace.kept(t):
            part = trace.partitions[t]
            counts = segment_sum(counts, part.assignment, part.num_cliques)
    return targets


class LossTerms(NamedTuple):
    """The losses of a forward pass and their gradients (_loss_terms)."""

    total: float        # task + edge_loss_weight * edge
    task: float         # mean softmax cross-entropy of the combined base logits
    edge: float         # mean squared error of every level's edge probabilities
                        # against its merge targets, over all levels and edges
    d_comb: np.ndarray  # the gradient of total wrt the combined logits
    d_p_levels: list    # per level, the gradient of total wrt its edge probabilities


def _loss_terms(combined, trace: HierarchyTrace, labels, cfg: NetworkConfig) -> LossTerms:
    """The one definition of the losses: a forward pass's LossTerms."""
    if labels.max() >= cfg.num_classes or labels.min() < 0:
        raise ValueError(f"label out of range for {cfg.num_classes} classes")
    task, d_comb = _softmax_cross_entropy(combined, labels)
    d_comb[np.arange(labels.size), labels] -= 1.0
    d_comb /= labels.size

    targets = _level_edge_targets(trace, labels, cfg.num_classes)
    diffs = [p_edge - tgt for p_edge, tgt in zip(trace.edge_probs, targets)]
    count = sum(d.size for d in diffs)
    edge = sum(float(d @ d) for d in diffs) / count if count else 0.0
    scale = 2.0 * cfg.edge_loss_weight / count if count else 0.0
    return LossTerms(task + cfg.edge_loss_weight * edge, task, edge, d_comb,
                     [scale * d for d in diffs])


def compute_loss(result: ForwardResult, sample: Sample, cfg: NetworkConfig):
    """Returns (total, task_loss, edge_loss) of LossTerms: a train-mode
    result's own, which its forward computed; only a test-mode result's is
    computed here, the one case that reads `sample`'s labels and `cfg`."""
    loss = result.loss
    if loss is None:
        loss = _loss_terms(result.combined_logits, result.trace, sample.labels, cfg)
    return loss.total, loss.task, loss.edge


def backward(result: ForwardResult, sample: Sample, cfg: NetworkConfig) -> ModelParams:
    """Exact gradients of the total loss over the realized structure of a
    train-mode forward result, from the loss gradients its forward stored
    in `loss`; a test-mode result keeps no backward state and raises
    ValueError. `sample` and `cfg` are not read: they keep the callers'
    three-argument call.

    Per layer, cell_backward_node reverses the forward's waves in reverse
    order, in the forward's wave-major layout, with the gate gradients
    gate-major. Every gradient into a node's new state comes from a
    later-visited neighbor, in a later wave that is reversed already, so
    a wave first pulls them through its slots: the neighbor's gradient
    wrt its neighbor average over its degree, and the gradient wrt the
    memory its reverse slot read. Slots of earlier-visited neighbors, not
    reversed yet, pull zeros; their owners read the neighbors' previous
    state, where those gradients go. The reverse slots, the later-visited
    slots, the segment ids and the inverse degrees come with the layer's
    WaveSchedule.
    One cell_backward_batch call then does the order-independent rest for
    the whole layer, on the slots' neighbor inputs gathered again from the
    layer's rows: the readout's reverse, and the parameter and
    previous-state gradients, none below level 0 or wrt the sample's
    features. Cell gradients of every layer land in the single shared
    cell block. A kept level goes through the head path and the
    aggregation adjoint as any other.
    """
    if result.mode != "train":
        raise ValueError(f"backward needs a train-mode forward result; this one ran in "
                         f"{result.mode} mode, which keeps no backward state")
    params, d_comb, d_p_levels = result.params, result.loss.d_comb, result.loss.d_p_levels
    grads = params.zeros_like()
    n_layers = len(result.level_logits)
    hh = params.cell.hidden_dim

    for t in range(n_layers - 1, -1, -1):
        cache = result.layers[t]
        schedule = result.schedules[t]
        perm, owner, nbr = schedule.perm, schedule.owner, schedule.nbr
        n = perm.size

        # head path, in the layer's rows
        d_logits = segment_sum(d_comb, schedule.pos[result.amaps[t]], n)
        head_w, _ = params.heads[t]
        gw, gb = grads.heads[t]
        gw += d_logits.T @ cache.hidden
        gb += d_logits.sum(axis=0)
        d_h_new = d_logits @ head_w
        d_m_new = np.zeros((n, hh))

        # adjoint of the mean-aggregation into level t+1
        if t < n_layers - 1:
            part = result.trace.partitions[t]
            inv = 1.0 / part.sizes().astype(np.float64)
            clique = part.assignment[perm]
            d_h_new += (d_hprev_next * inv[:, None]).take(clique, axis=0)
            d_m_new += (d_mprev_next * inv[:, None]).take(clique, axis=0)

        rev, seg, inv_deg = schedule.rev, schedule.seg, schedule.inv_deg
        d_m_prev_t = np.empty((n, hh))
        d_pre = np.empty((4, n, hh))
        d_msum = np.empty((nbr.size, hh))
        # zero until their wave is reversed: what earlier-visited
        # neighbors pull
        d_nbr_m = np.zeros((nbr.size, hh))
        d_navg_k = np.zeros((n, hh))
        for r0, r1, s0, s1 in reversed(schedule.waves):
            ids = seg[s0:s1]
            flat, b = ids.ravel(), r1 - r0
            d_h = d_h_new[r0:r1] + np.bincount(
                flat, d_navg_k.take(nbr[s0:s1], axis=0).ravel(), b * hh).reshape(b, hh)
            d_m = d_m_new[r0:r1] + np.bincount(
                flat, d_nbr_m.take(rev[s0:s1], axis=0).ravel(), b * hh).reshape(b, hh)
            (d_pre[:, r0:r1], d_m_prev_t[r0:r1], d_navg, d_msum[s0:s1],
             d_nbr_m[s0:s1]) = cell_backward_node(
                 cache, slice(r0, r1), slice(s0, s1), ids, inv_deg[r0:r1], d_h, d_m)
            np.multiply(d_navg, inv_deg[r0:r1], out=d_navg_k[r0:r1])

        # order-independent part, batched over the layer, on the slots'
        # neighbor inputs gathered again: the memory a slot read is its
        # neighbor's new one when the neighbor came first, else its
        # previous one. Each edge probability is the mean of its two
        # directed slots. Gradients into neighbors updated after their
        # slot's owner reach their previous state
        later, nbr_later = schedule.later, nbr[schedule.later]
        m_sel = cache.memory.take(nbr, axis=0)
        m_sel[later] = cache.m_prev.take(nbr_later, axis=0)
        d_h_own, d_nbr_hp = cell_backward_batch(
            grads.cell, cache, cache.h_prev.take(nbr, axis=0), m_sel, d_pre, d_msum,
            (0.5 * d_p_levels[t])[schedule.slot_edge])
        if t == 0:
            break   # level 0's previous state is the zero initial state, not a parameter
        d_nbr_hp[later] += d_navg_k[owner[later]]
        d_m_prev_t += segment_sum(d_nbr_m[later], nbr_later, n)
        d_h_prev_t = segment_sum(d_nbr_hp, nbr, n) + d_h_own

        # back to node order for the level below
        d_hprev_next = d_h_prev_t.take(schedule.pos, axis=0)
        d_mprev_next = d_m_prev_t.take(schedule.pos, axis=0)

    return grads


def predict(sample: Sample, params: ModelParams, cfg: NetworkConfig, rng):
    """Test-mode forward pass followed by an argmax over the combined
    logits; ties go to the smaller class id. `rng` is one Generator per
    part of `sample`, as forward takes it."""
    result = forward(sample, params, cfg, rng, mode="test")
    return np.argmax(result.combined_logits, axis=1)


#: the most samples one union of union_batches holds: per-sample test
#: cost still falls up to 8 on 8x8 grids but little beyond 4 on 16x16 ones
#: (BENCH_27.json), while a union's layer arrays grow with every sample
UNION_SAMPLES = 8


def union_batches(samples, stream):
    """Consecutive runs of at most UNION_SAMPLES of `samples`, each as
    (Sample.union of the run, its rngs): sample idx, counted over all of
    `samples`, gets np.random.default_rng([*stream, idx])."""
    samples = list(samples)
    for first in range(0, len(samples), UNION_SAMPLES):
        run = samples[first:first + UNION_SAMPLES]
        yield Sample.union(run), [np.random.default_rng([*stream, idx])
                                  for idx in range(first, first + len(run))]


CHECKPOINT_MAGIC = "SEVOLVE-CKPT v1"
#: checkpoint header field -> NetworkConfig field, in header order
CHECKPOINT_FIELDS = {"D": "input_dim", "H": "hidden_dim", "C": "num_classes",
                     "layers": "num_layers"}


def write_lines_atomic(path, lines):
    """Write each of `lines` plus a newline to `path`. The text goes to a
    temporary file in the same directory that replaces `path` only once
    it is complete, so a failure part-way leaves any previous file as it
    was and no temporary file behind. An OSError on the temporary file
    names `path`."""
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            for line in lines:
                fh.write(line + "\n")
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename != tmp:
            raise
        raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def read_lines(path, error=ValueError):
    """The lines of the text file at `path`, decoded as UTF-8 whatever the
    locale. Only \\n, \\r\\n and \\r end a line: a form feed or another
    character that str.splitlines also breaks at stays inside its line,
    where str.split reads it as a blank. A byte that is not UTF-8 raises
    `error` naming its line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # bytes break lines at \n, \r\n and \r only; a stand-in for the bad
        # byte, so a byte just after a line break starts a line
        line = len((data[:exc.start] + b"?").splitlines())
        raise error(f"{path}:{line}: byte {data[exc.start]:#04x} is not UTF-8 text") from None
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    return lines[:-1] if lines[-1] == "" else lines


# int() also takes '+', '_' and non-ASCII digits, which no writer here
# emits: text of integer tokens holds only ASCII digits, '-' and blanks
INT_TEXT = re.compile(r"[-0-9\s]*")


def parse_ints(tokens) -> list[int]:
    """The tokens as ints, each ASCII -?[0-9]+ (int() rejects a misplaced
    '-'); ValueError otherwise."""
    if not INT_TEXT.fullmatch("".join(tokens)):
        raise ValueError(f"not ASCII integers: {tokens}")
    return [int(t) for t in tokens]


def parse_block(lines, start, rows, width, dtype, fail, wrong_count, bad_token):
    """The `rows` lines of `lines` from index `start`, `width` tokens
    each, as one (rows, width) array of `dtype`, np.intp or np.float64.

    The block is read by np.loadtxt (no comments, blank-separated), whose
    C reader converts each float token with the same correctly rounded
    conversion float() uses, and its result is kept only when it has
    shape (rows, width): loadtxt skips blank lines and reads a block whose
    every row is short as a narrower array. Integer lines must also match
    INT_TEXT, because loadtxt reads '+1'. A zero-row block is an empty
    (0, width) array, and a block whose every line is blank skips loadtxt,
    which would warn that the input holds no data.

    Any other block is tried line by line, converting with int() or
    float(), and the first line at fault is named by calling
    fail(lineno, message), lineno 1-based: the message is
    wrong_count(r, line) for a line of another token count and
    bad_token(r, line) for a token that does not convert, r being the row
    within the block and line its text. When no line is at fault, the
    rows are returned as lists of Python numbers: float() read a token
    loadtxt refuses ('1_0', non-ASCII digits), or an integer does not fit
    intp, and a range check that follows sees its exact value.
    """
    if not rows:
        return np.empty((0, width), dtype)
    block = lines[start:start + rows]
    is_int = dtype == np.intp
    if any(map(str.strip, block)) and (not is_int or INT_TEXT.fullmatch(" ".join(block))):
        try:
            array = np.loadtxt(block, dtype=dtype, comments=None, ndmin=2)
        except ValueError:
            pass
        else:
            if array.shape == (rows, width):
                return array
    convert = int if is_int else float
    values = []
    for r, line in enumerate(block):
        tokens = line.split()
        if len(tokens) != width:
            fail(start + r + 1, wrong_count(r, line))
        if is_int and not INT_TEXT.fullmatch(line):
            fail(start + r + 1, bad_token(r, line))
        try:
            values.append([convert(token) for token in tokens])
        except ValueError:
            fail(start + r + 1, bad_token(r, line))
    return values


def save_checkpoint(path, params: ModelParams, cfg: NetworkConfig):
    """Versioned text checkpoint: a header with the model dimensions, then
    every named tensor with its dims and row-major full-precision values.
    Written atomically (write_lines_atomic)."""
    def lines():
        yield " ".join([CHECKPOINT_MAGIC, *(f"{key}={getattr(cfg, name)}"
                                            for key, name in CHECKPOINT_FIELDS.items())])
        for name, t in params.tensors():
            yield f"tensor {name} " + " ".join(str(d) for d in t.shape)
            for row in (t.reshape(1, -1) if t.ndim == 1 else t):
                yield " ".join(repr(float(v)) for v in row)

    write_lines_atomic(path, lines())


def load_checkpoint(path):
    """Reads a checkpoint, validating the header fields (each known one
    exactly once), tensor names and dims exactly and every value as a
    finite number; errors, header dims too large to allocate included,
    name the path and line. Each tensor's rows are read as one block
    (parse_block).

    Returns (params, meta) with meta holding the NetworkConfig fields that
    CHECKPOINT_FIELDS names.
    """
    lines = read_lines(path)

    def fail(lineno, msg):
        raise ValueError(f"{path}:{lineno}: {msg}") from None

    if not lines or not lines[0].startswith(CHECKPOINT_MAGIC + " "):
        fail(1, f"not a {CHECKPOINT_MAGIC} checkpoint")
    fields = {}
    for token in lines[0].split()[2:]:
        key, sep, value = token.partition("=")
        if not (key and sep):
            fail(1, f"malformed header token {token!r}")
        if key not in CHECKPOINT_FIELDS:
            fail(1, f"unknown header field {key!r}")
        if key in fields:
            fail(1, f"repeated header field {key!r}")
        fields[key] = value
    meta = {}
    for key, name in CHECKPOINT_FIELDS.items():
        if key not in fields:
            fail(1, f"checkpoint header missing field {key!r}")
        try:
            (meta[name],) = parse_ints([fields[key]])
        except ValueError:
            fail(1, f"header field {key}={fields[key]!r} is not an integer")
        if meta[name] < 1:
            fail(1, f"header field {key}={meta[name]} must be positive")
    n_cls, h_dim = meta["num_classes"], meta["hidden_dim"]
    try:
        cell = CellParams(meta["input_dim"], h_dim)
        np.zeros((n_cls, h_dim))   # a head must fit too
    except (MemoryError, ValueError) as exc:
        # numpy raises ValueError for a size beyond its own limit
        fail(1, f"header dims do not fit in memory: {exc}")
    heads = []

    def tensors():
        # a head is allocated once the file reaches it, so a layer count
        # beyond what the file holds fails at the file's end, not on memory
        yield from cell.tensors()
        for k in range(meta["num_layers"]):
            heads.append((np.zeros((n_cls, h_dim)), np.zeros(n_cls)))
            yield f"head{k}_w", heads[k][0]
            yield f"head{k}_b", heads[k][1]

    pos = 1
    for name, t in tensors():
        if pos >= len(lines):
            fail(pos, f"truncated before tensor {name}")
        parts = lines[pos].split()
        if parts[:2] != ["tensor", name]:
            fail(pos + 1, f"expected tensor {name}, got {lines[pos]!r}")
        try:
            dims = tuple(parse_ints(parts[2:]))
        except ValueError:
            fail(pos + 1, f"tensor {name} dims {parts[2:]} are not integers")
        if dims != t.shape:
            fail(pos + 1, f"tensor {name} dims {dims} != {t.shape}")
        pos += 1
        rows = 1 if t.ndim == 1 else t.shape[0]
        width = t.shape[-1]
        # the rows the file holds are checked before its end is reported
        present = min(rows, len(lines) - pos)
        flat = t.reshape(rows, width)
        flat[:present] = parse_block(
            lines, pos, present, width, np.float64, fail,
            lambda r, line: (f"tensor {name} row {r} has {len(line.split())} values, "
                             f"expected {width}"),
            lambda r, line: f"tensor {name} row {r} has a non-numeric value")
        finite = np.isfinite(flat[:present]).all(axis=1)
        if not finite.all():
            r = int(np.argmin(finite))
            fail(pos + r + 1, f"tensor {name} row {r} has a non-finite value")
        pos += present
        if present < rows:
            fail(pos, f"truncated inside tensor {name}")
    if pos != len(lines):
        fail(pos + 1, "trailing content after last tensor")
    return ModelParams(cell, heads), meta
