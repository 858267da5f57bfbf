"""Level graphs, clique partitions, coarsening, and hierarchy traces.

All types here are immutable after construction and safe to share
read-only across parallel workers.
"""

from __future__ import annotations

import math

import numpy as np


class LevelGraph:
    """Undirected simple graph with dense node ids 0..num_nodes-1.

    Edges are canonical: each pair stored once as (min, max) and the edge
    tuple sorted lexicographically. That order is the "canonical edge
    order" used everywhere an rng draw or probability is associated with
    an edge.

    Neighbourhoods come from one compressed sparse row (CSR) index, see
    `csr`. Each undirected edge owns two directed slots in it, one in
    each endpoint's row.
    """

    __slots__ = ("num_nodes", "edges", "_edge_arr", "_csr")

    def __init__(self, num_nodes: int, edge_list=()):
        if num_nodes < 1:
            raise ValueError(f"graph needs at least one node, got {num_nodes}")
        canon = set()
        for a, b in edge_list:
            a = int(a)
            b = int(b)
            if a == b:
                raise ValueError(f"self-loop on node {a}")
            if not (0 <= a < num_nodes) or not (0 <= b < num_nodes):
                raise ValueError(
                    f"edge ({a}, {b}) out of range for {num_nodes} nodes")
            canon.add((a, b) if a < b else (b, a))
        self.num_nodes = num_nodes
        self.edges = tuple(sorted(canon))
        self._edge_arr = None
        self._csr = None

    @classmethod
    def _from_canonical(cls, num_nodes, edges):
        # Trusted fast path: `edges` must already be deduplicated,
        # per-pair sorted, lexicographically ordered, and in range.
        g = object.__new__(cls)
        g.num_nodes = num_nodes
        g.edges = edges
        g._edge_arr = None
        g._csr = None
        return g

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def neighbors(self, i: int):
        """Sorted neighbor ids of node i, as a tuple."""
        if not (0 <= i < self.num_nodes):
            raise ValueError(f"node {i} out of range for {self.num_nodes} nodes")
        indptr, indices, _ = self.csr()
        return tuple(indices[indptr[i]:indptr[i + 1]].tolist())

    def edge_array(self) -> np.ndarray:
        """Edges as an (m, 2) int array in canonical order (read-only)."""
        if self._edge_arr is None:
            arr = np.array(self.edges, dtype=np.intp).reshape(len(self.edges), 2)
            arr.setflags(write=False)
            self._edge_arr = arr
        return self._edge_arr

    def csr(self):
        """Read-only (indptr, indices, slot_edge), built on first use.

        Node i's sorted neighbors are indices[indptr[i]:indptr[i+1]];
        positions in `indices` are the directed slots, and slot_edge[s]
        is the canonical edge id of slot s. Because rows ascend, the slot
        of an edge's lower endpoint precedes that of its upper endpoint.
        """
        if self._csr is None:
            ea = self.edge_array()
            src = np.concatenate((ea[:, 0], ea[:, 1]))
            dst = np.concatenate((ea[:, 1], ea[:, 0]))
            order = np.lexsort((dst, src))
            indptr = np.zeros(self.num_nodes + 1, dtype=np.intp)
            np.cumsum(np.bincount(src, minlength=self.num_nodes), out=indptr[1:])
            indices = dst[order]
            slot_edge = np.concatenate((np.arange(len(ea)),) * 2)[order]
            for arr in (indptr, indices, slot_edge):
                arr.setflags(write=False)
            self._csr = (indptr, indices, slot_edge)
        return self._csr

    def __eq__(self, other):
        if not isinstance(other, LevelGraph):
            return NotImplemented
        return self.num_nodes == other.num_nodes and self.edges == other.edges

    def __hash__(self):
        return hash((self.num_nodes, self.edges))

    def __repr__(self):
        return f"LevelGraph(num_nodes={self.num_nodes}, num_edges={len(self.edges)})"


def build_graph(num_nodes: int, edge_list) -> LevelGraph:
    """Validate and canonicalize a node count plus edge list into a LevelGraph."""
    return LevelGraph(num_nodes, edge_list)


class CliquePartition:
    """Surjective map from source node ids onto dense clique ids.

    Clique ids are ordered by ascending minimum member id, which makes
    every coarsening step deterministic. Produced by `coarsen`, so every
    clique is connected in the source graph over the selected edges.
    """

    __slots__ = ("assignment", "num_nodes", "num_cliques", "_members", "_sizes")

    def __init__(self, assignment, num_cliques: int):
        arr = np.asarray(assignment, dtype=np.intp)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("assignment must be a non-empty 1-d sequence")
        if num_cliques > arr.size or num_cliques < 1:
            raise ValueError(
                f"num_cliques={num_cliques} invalid for {arr.size} source nodes")
        if arr.min() != 0 or arr.max() != num_cliques - 1:
            raise ValueError("clique ids must be dense 0..num_cliques-1")
        if np.unique(arr).size != num_cliques:
            raise ValueError("clique ids must be dense 0..num_cliques-1")
        arr = arr.copy()
        arr.setflags(write=False)
        self.assignment = arr
        self.num_nodes = int(arr.size)
        self.num_cliques = int(num_cliques)
        self._members = None
        self._sizes = None

    @classmethod
    def _from_trusted(cls, assignment_arr, num_cliques):
        # Fast path for coarsen: ids already dense by ascending min member.
        p = object.__new__(cls)
        assignment_arr.setflags(write=False)
        p.assignment = assignment_arr
        p.num_nodes = int(assignment_arr.size)
        p.num_cliques = int(num_cliques)
        p._members = None
        p._sizes = None
        return p

    @classmethod
    def identity(cls, num_nodes: int) -> "CliquePartition":
        return cls._from_trusted(np.arange(num_nodes, dtype=np.intp), num_nodes)

    @property
    def is_identity(self) -> bool:
        return self.num_cliques == self.num_nodes

    def sizes(self) -> np.ndarray:
        if self._sizes is None:
            s = np.bincount(self.assignment, minlength=self.num_cliques)
            s.setflags(write=False)
            self._sizes = s
        return self._sizes

    def members(self):
        """Tuple of index arrays, one per clique, ascending node ids."""
        if self._members is None:
            order = np.argsort(self.assignment, kind="stable")
            bounds = np.cumsum(self.sizes())[:-1]
            self._members = tuple(np.split(order, bounds))
        return self._members

    def __eq__(self, other):
        if not isinstance(other, CliquePartition):
            return NotImplemented
        return (self.num_cliques == other.num_cliques
                and np.array_equal(self.assignment, other.assignment))

    def __repr__(self):
        return (f"CliquePartition(num_nodes={self.num_nodes}, "
                f"num_cliques={self.num_cliques})")


def coarsen(g: LevelGraph, selected_edges) -> tuple[CliquePartition, LevelGraph]:
    """Merge the connected components of (V, selected_edges) into cliques.

    Returns the partition and the coarsened graph: one node per clique,
    a simple edge between two cliques iff any edge of `g` crosses them.
    Clique ids follow ascending minimum member id.
    """
    indptr, indices, _ = g.csr()
    canon = []
    for e in selected_edges:
        a, b = e
        if a > b:
            a, b = b, a
        if not (0 <= a < g.num_nodes and b in indices[indptr[a]:indptr[a + 1]]):
            raise ValueError(f"selected edge ({a}, {b}) is not an edge of the graph")
        canon.append((a, b))
    return _coarsen_canonical(g, canon)


def _components_canonical(g: LevelGraph, selected) -> CliquePartition:
    # Trusted core: `selected` must be canonical edges of g. Components
    # by depth-first search; scanning start nodes in ascending id order
    # yields clique ids sorted by minimum member id.
    n = g.num_nodes
    adj = [None] * n
    for a, b in selected:
        nb = adj[a]
        if nb is None:
            adj[a] = [b]
        else:
            nb.append(b)
        nb = adj[b]
        if nb is None:
            adj[b] = [a]
        else:
            nb.append(a)

    assign = [-1] * n
    num = 0
    for s in range(n):
        if assign[s] >= 0:
            continue
        assign[s] = num
        nb = adj[s]
        if nb:
            stack = nb[:]
            pop = stack.pop
            extend = stack.extend
            while stack:
                u = pop()
                if assign[u] < 0:
                    assign[u] = num
                    extend(adj[u])
        num += 1
    return CliquePartition._from_trusted(np.array(assign, dtype=np.intp), num)


def quotient_graph(g: LevelGraph, partition: CliquePartition) -> LevelGraph:
    """The coarse graph a partition induces on g: one node per clique, a
    simple edge wherever an edge of g crosses two cliques."""
    if partition.num_nodes != g.num_nodes:
        raise ValueError("partition does not cover the graph's nodes")
    assign = partition.assignment.tolist()
    num = partition.num_cliques
    # coarse edges encoded as ca * num + cb to avoid tuple churn
    codes = set()
    add = codes.add
    for a, b in g.edges:
        ca = assign[a]
        cb = assign[b]
        if ca != cb:
            add(ca * num + cb if ca < cb else cb * num + ca)
    new_edges = tuple(divmod(c, num) for c in sorted(codes))
    return LevelGraph._from_canonical(num, new_edges)


def _coarsen_canonical(g: LevelGraph, selected) -> tuple[CliquePartition, LevelGraph]:
    part = _components_canonical(g, selected)
    return part, quotient_graph(g, part)


def segment_sum(values, owner, num_rows):
    """Sums of the rows of the float array `values` grouped by `owner`:
    row i of the (num_rows, ...) result adds the values[s] with
    owner[s] == i in ascending s, starting from 0.0, and is zero when
    there are none. That is np.add.at's accumulation order, so the sums
    are bit-identical to it; one np.bincount does the work."""
    tail = values.shape[1:]
    width = math.prod(tail)
    flat = segment_ids(owner, width).ravel()
    return np.bincount(flat, values.ravel(), num_rows * width).reshape((num_rows,) + tail)


def segment_ids(owner, width):
    """The (S, width) flat ids owner[s] * width + j: np.bincount over them
    sums an (S, width) array's rows into rows owner[s] as segment_sum
    does, and take() over a flattened (rows, width) array gathers them."""
    return owner[:, None] * width + np.arange(width)


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
    sizes = partition.sizes().astype(np.float64)
    if vals.ndim == 1:
        out /= sizes
    else:
        out /= sizes.reshape((-1,) + (1,) * (vals.ndim - 1))
    return out


class HierarchyTrace:
    """The realized sequence of graphs for one forward pass.

    `levels[k]` is the graph processed at layer k; `partitions[k]` maps
    its nodes onto `levels[k+1]`. `edge_probs[k]` holds one merging
    probability per edge of `levels[k]` in canonical edge order, and
    `decisions[k]` the TrialLog of transition k: its trials' decisions,
    with the rng state from which evolve.replay_trials redraws their
    detail.
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
        self.levels = levels
        self.partitions = partitions
        self.edge_probs = list(edge_probs) if edge_probs is not None else []
        self.decisions = list(decisions) if decisions is not None else []

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def ancestor_map(self, level: int) -> np.ndarray:
        """Base node id -> id of its ancestor node at `level`."""
        if not (0 <= level < len(self.levels)):
            raise ValueError(f"level {level} out of range (have {len(self.levels)})")
        amap = np.arange(self.levels[0].num_nodes, dtype=np.intp)
        for k in range(level):
            amap = self.partitions[k].assignment[amap]
        return amap


def project_to_base(trace: HierarchyTrace, level: int, values) -> np.ndarray:
    """Broadcast per-node values at `level` to every base-level descendant."""
    amap = trace.ancestor_map(level)
    vals = np.asarray(values)
    if vals.shape[0] != trace.levels[level].num_nodes:
        raise ValueError(
            f"got values for {vals.shape[0]} nodes, level {level} has "
            f"{trace.levels[level].num_nodes}")
    return vals[amap]
