"""Level graphs, clique partitions, coarsening, and hierarchy traces.

All types here are immutable after construction: every array is
computed when the object is built and is read-only, with no lazy
fill-in, so they are safe to share read-only across parallel workers.
"""

from __future__ import annotations

import math

import numpy as np


def _pairs(edge_list) -> np.ndarray:
    """`edge_list` (pairs of node ids, or an (m, 2) array) as an (m, 2)
    intp array, or an object array of Python ints when an id does not fit
    intp: such an id is out of range, and the range checks see it exactly."""
    try:
        pairs = np.asarray(edge_list, dtype=np.intp)
    except OverflowError:
        pairs = np.asarray(edge_list, dtype=object)
    if pairs.size == 0:
        return pairs.reshape(0, 2)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"edges must be pairs of node ids, got shape {pairs.shape}")
    return pairs


def _distinct(codes) -> np.ndarray:
    """The distinct values of the 1-d int array `codes`, ascending, as
    np.unique gives them: a sort and a mask of the entries that differ
    from their predecessor, which beats np.unique's hash path here."""
    codes = np.sort(codes)
    keep = np.empty(codes.size, dtype=bool)
    keep[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _ordered(pairs):
    """The lower and the upper entries of each row of the (m, 2) `pairs`."""
    a, b = pairs.T
    return np.minimum(a, b), np.maximum(a, b)


class LevelGraph:
    """Undirected simple graph with dense node ids 0..num_nodes-1.

    `edges` is a read-only (m, 2) intp array in canonical order: each pair
    stored once as (min, max) and the rows sorted lexicographically. That
    order is the "canonical edge order" used everywhere an rng draw or
    probability is associated with an edge.
    """

    __slots__ = ("num_nodes", "edges")

    def __init__(self, num_nodes: int, edge_list=()):
        if num_nodes < 1:
            raise ValueError(f"graph needs at least one node, got {num_nodes}")
        pairs = _pairs(edge_list)
        lo, hi = _ordered(pairs)
        bad = (lo == hi) | (lo < 0) | (hi >= num_nodes)
        if bad.any():
            a, b = pairs[np.argmax(bad)].tolist()
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            raise ValueError(f"edge ({a}, {b}) out of range for {num_nodes} nodes")
        codes = _distinct(lo * num_nodes + hi)
        self._build(num_nodes, np.stack(np.divmod(codes, num_nodes), axis=1))

    @classmethod
    def _from_canonical(cls, num_nodes, edges):
        # Trusted fast path: `edges` must already be an (m, 2) intp array,
        # deduplicated, per-pair sorted, lexicographically ordered, and in
        # range.
        g = object.__new__(cls)
        g._build(num_nodes, edges)
        return g

    def _build(self, num_nodes, edges):
        edges.setflags(write=False)
        self.num_nodes = num_nodes
        self.edges = edges

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __eq__(self, other):
        if not isinstance(other, LevelGraph):
            return NotImplemented
        return self.num_nodes == other.num_nodes and np.array_equal(self.edges, other.edges)

    def __repr__(self):
        return f"LevelGraph(num_nodes={self.num_nodes}, num_edges={len(self.edges)})"


class CliquePartition:
    """Surjective map from source node ids onto dense clique ids.

    Clique ids are ordered by ascending minimum member id, which makes
    every coarsening step deterministic. The ones _components_canonical
    builds from a selection of edges have every clique connected over
    the selected edges.
    """

    __slots__ = ("assignment", "num_nodes", "num_cliques", "_sizes")

    def __init__(self, assignment, num_cliques: int):
        arr = np.array(assignment, dtype=np.intp)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("assignment must be a non-empty 1-d sequence")
        if num_cliques > arr.size or num_cliques < 1:
            raise ValueError(
                f"num_cliques={num_cliques} invalid for {arr.size} source nodes")
        if arr.min() < 0 or arr.max() >= num_cliques:
            raise ValueError("clique ids must be dense 0..num_cliques-1")
        sizes = np.bincount(arr, minlength=num_cliques)
        if not sizes.all():
            raise ValueError("clique ids must be dense 0..num_cliques-1")
        arr.setflags(write=False)
        sizes.setflags(write=False)
        self.assignment = arr
        self.num_nodes = int(arr.size)
        self.num_cliques = int(num_cliques)
        self._sizes = sizes

    @classmethod
    def identity(cls, num_nodes: int) -> "CliquePartition":
        return cls(np.arange(num_nodes), num_nodes)

    def sizes(self) -> np.ndarray:
        """Member count per clique (read-only)."""
        return self._sizes

    def __eq__(self, other):
        if not isinstance(other, CliquePartition):
            return NotImplemented
        return (self.num_cliques == other.num_cliques
                and np.array_equal(self.assignment, other.assignment))

    def __repr__(self):
        return (f"CliquePartition(num_nodes={self.num_nodes}, "
                f"num_cliques={self.num_cliques})")


def _components_canonical(g: LevelGraph, selected) -> CliquePartition:
    # Trusted core: `selected` must be an (k, 2) array of edges of g.
    # Components by min-label hooking: each round every root hooks onto
    # the smallest root across the selected edges that still join two
    # trees, then pointer jumping points every node at its root. A node
    # only ever points to a smaller id, so each root is its component's
    # smallest member, and ranking the roots orders the clique ids by
    # minimum member id.
    n = g.num_nodes
    label = np.arange(n)
    a, b = selected.T
    while True:
        la, lb = label[a], label[b]
        cross = la != lb
        if not cross.any():
            break
        a, b, la, lb = a[cross], b[cross], la[cross], lb[cross]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            up = label[label]
            if np.array_equal(up, label):
                break
            label = up
    roots = label == np.arange(n)
    rank = np.cumsum(roots) - 1
    return CliquePartition(rank[label], int(rank[-1]) + 1)


def quotient_graph(g: LevelGraph, partition: CliquePartition) -> LevelGraph:
    """The coarse graph a partition induces on g: one node per clique, a
    simple edge wherever an edge of g crosses two cliques."""
    if partition.num_nodes != g.num_nodes:
        raise ValueError("partition does not cover the graph's nodes")
    num = partition.num_cliques
    lo, hi = _ordered(partition.assignment[g.edges])
    codes = _distinct((lo * num + hi)[lo != hi])
    return LevelGraph._from_canonical(num, np.stack(np.divmod(codes, num), axis=1))


def segment_sum(values, owner, num_rows):
    """Sums of the rows of the float array `values` grouped by `owner`:
    row i of the (num_rows, ...) result adds the values[s] with
    owner[s] == i in ascending s, starting from 0.0, and is zero when
    there are none. That is np.add.at's accumulation order, so the sums
    are bit-identical to it; one np.bincount does the work."""
    tail = values.shape[1:]
    width = math.prod(tail)
    flat = segment_ids(owner, width, num_rows).ravel()
    return np.bincount(flat, values.ravel(), num_rows * width).reshape((num_rows,) + tail)


def segment_ids(owner, width, num_rows):
    """The (S, width) flat ids owner[s] * width + j of owners in
    [0, num_rows): np.bincount over them sums an (S, width) array's rows
    into rows owner[s] as segment_sum does, and take() over a flattened
    (num_rows, width) array gathers them. They are the rows owner[s] of
    the (num_rows, width) table of all ids, gathered whole, which beats a
    broadcast add whose inner loop is only `width` long."""
    return np.arange(num_rows * width).reshape(num_rows, width).take(owner, axis=0)


def aggregate_node_values(partition: CliquePartition, values) -> np.ndarray:
    """Arithmetic mean of member values per clique.

    `values` is indexed by source node id along axis 0; any trailing
    shape is preserved.
    """
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape[0] != partition.num_nodes:
        raise ValueError(
            f"got values for {vals.shape[0]} nodes, partition has "
            f"{partition.num_nodes} source nodes")
    out = segment_sum(vals, partition.assignment, partition.num_cliques)
    out /= partition.sizes().reshape((-1,) + (1,) * (vals.ndim - 1))
    return out


class HierarchyTrace:
    """The realized sequence of graphs for one forward pass.

    `levels[k]` is the graph processed at layer k; `partitions[k]` maps
    its nodes onto `levels[k+1]`. `edge_probs[k]` holds one merging
    probability per edge of `levels[k]` in canonical edge order, and
    `decisions[k]` the TrialLog of transition k: its trials' decisions,
    with the rng state from which evolve.replay_trials redraws their
    detail. For a sample of several parts (network.Sample.union) the
    levels are the unions of the parts' levels, and `decisions[k]`
    iterates over the parts' trials in part order, with no rng state to
    replay them from. A level that evolve_step kept is the same object as
    the one below it (see kept), with the identity partition; network
    reads that only to carry its arrays over and to reuse its
    predecessor's targets. A level of several parts counts as kept only
    when every part kept its own.
    """

    __slots__ = ("levels", "partitions", "edge_probs", "decisions")

    def __init__(self, levels, partitions, edge_probs=None, decisions=None):
        levels = list(levels)
        partitions = list(partitions)
        if not levels:
            raise ValueError("a trace needs at least one level")
        if len(partitions) != len(levels) - 1:
            raise ValueError(
                f"{len(levels)} levels require {len(levels) - 1} partitions, "
                f"got {len(partitions)}")
        for k, p in enumerate(partitions):
            if p.num_nodes != levels[k].num_nodes:
                raise ValueError(f"partition {k} does not map level {k}'s nodes")
            if p.num_cliques != levels[k + 1].num_nodes:
                raise ValueError(f"partition {k} does not map onto level {k + 1}")
            if levels[k + 1] is levels[k] and (p.assignment != np.arange(p.num_nodes)).any():
                raise ValueError(f"level {k} is kept, but partition {k} is not the identity")
        self.levels = levels
        self.partitions = partitions
        self.edge_probs = list(edge_probs) if edge_probs is not None else []
        self.decisions = list(decisions) if decisions is not None else []

    def kept(self, k) -> bool:
        """Whether transition k kept level k as level k + 1, the same graph
        object; a replayed or accepted partition, even the identity, builds
        a new graph."""
        return self.levels[k + 1] is self.levels[k]
