"""Independent reference implementations used as test oracles.

These deliberately use different algorithms than the package (union-find
instead of min-label hooking, direct products instead of log-space sums,
per-node ancestor walks instead of composed index maps, a node-by-node
sweep with visit flags instead of waves, a wave layout by comparison
sorts on a composite key instead of counting sorts (wave_schedule_sorted),
the neighbor forget gates from one product over the slots instead of one
over the nodes (static_gates_per_slot), one Metropolis-Hastings trial at
a time instead of tail draws, and a dataset loader that converts one line
at a time and a checkpoint loader that converts one row at a time,
load_dataset_per_line and load_checkpoint_per_row, instead of one block
at a time).

The single-node and single-proposal helpers the tests and oracles build
on live here too: cell_update and cell_backward compose the package's
cell parts for one node, propose draws one candidate coarsening, coarsen
merges the components of a given edge selection, and transition_ratio
scores a partition. Nothing in the package calls them.
"""

import math

import numpy as np

from sevolve.cell import (
    CellParams,
    _gate_major,
    cell_backward_batch,
    cell_backward_node,
    cell_forward,
    cell_forward_batch,
    check_finite,
    sigmoid,
)
from sevolve.data import DATASET_MAGIC, DatasetError, DatasetFile, _named_ints
from sevolve.evolve import (
    _eliminated_product,
    _intra_clique_mask,
    _validated_probs,
    evolve_deterministic,
    evolve_step,
    posterior_ratio,
)
from sevolve.graph import (
    CliquePartition,
    LevelGraph,
    _components_canonical,
    aggregate_node_values,
    quotient_graph,
    segment_ids,
)
from sevolve.network import (
    CHECKPOINT_MAGIC,
    INT_TEXT,
    ModelParams,
    Sample,
    WaveSchedule,
    parse_ints,
    read_lines,
)


def _one_node(num_slots, hidden_dim):
    """Segment ids and inverse degree (a (1, 1) column) of one node that
    owns every slot."""
    owner = np.zeros(num_slots, dtype=np.intp)
    return owner, segment_ids(owner, hidden_dim, 1), np.array([[1.0 / max(num_slots, 1)]])


def cell_update(params, x, h_prev, m_prev, neighbor_avg,
                nbr_visited=None, nbr_h_prev=None, nbr_m_cur=None, nbr_m_prev=None):
    """One node update: cell_forward_batch and cell_forward for B = 1.

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

    Returns:
        (hidden, memory, merge_probs, node) with merge_probs of shape (k,)
        and node = (cache, nbr_h_prev, m_sel): the CellCache and the
        slots' neighbor inputs, which cell_backward_batch takes besides it.
    """
    if nbr_visited is None:
        nbr_h_prev = m_sel = np.zeros((0, params.hidden_dim))
    else:
        m_sel = np.where(np.asarray(nbr_visited, dtype=bool)[:, None], nbr_m_cur, nbr_m_prev)
    owner, seg, inv_deg = _one_node(nbr_h_prev.shape[0], params.hidden_dim)
    # the neighbors' states are no rows of the batch: slot s reads row s
    cache = cell_forward_batch(params, x[None], h_prev[None], m_prev[None], owner,
                               nbr_h_prev, np.arange(owner.size))
    cache.navg[0] = neighbor_avg
    hidden, memory, cache.gates[...] = cell_forward(
        cache, slice(0, 1), slice(0, owner.size), seg, inv_deg, m_sel)
    check_finite(hidden, memory)
    cache.hidden[...], cache.memory[...] = hidden, memory
    return hidden[0], memory[0], cache.merge_probs, (cache, nbr_h_prev, m_sel)


def cell_backward(node, d_hidden, d_memory, d_edge_probs, grads=None):
    """Exact reverse of cell_update: cell_backward_node followed by
    cell_backward_batch over its one node. The merge-probability
    readout's reverse, which d_edge_probs enters, is in
    cell_backward_batch.

    Args:
        node: (cache, nbr_h_prev, m_sel) from cell_update.
        d_hidden, d_memory: upstream gradients wrt the node's new state (H,).
        d_edge_probs: upstream gradients wrt the merging probabilities
            (k,), or None for zeros.
        grads: CellParams accumulator; allocated fresh when None.

    Returns:
        (grads, d_h_prev, d_m_prev, d_neighbor_avg, d_nbr_h_prev, d_nbr_m)
        where d_nbr_m is the gradient wrt the flag-selected neighbor memory
        (route it to the updated state for visited neighbors, the previous
        state otherwise, as the forward pass selected). The two neighbor
        gradients are None for a node without neighbors.
    """
    cache, nbr_h_prev, m_sel = node
    if grads is None:
        grads = cache.params.zeros_like()
    k = cache.owner.shape[0]
    if d_edge_probs is None:
        d_edge_probs = np.zeros(k)
    _, seg, inv_deg = _one_node(k, cache.params.hidden_dim)
    d_pre, d_m_prev, d_navg, d_msum, d_nbr_m = cell_backward_node(
        cache, slice(0, 1), slice(0, k), seg, inv_deg, d_hidden[None], d_memory[None])
    d_h_prev, d_nbr_h_prev = cell_backward_batch(
        grads, cache, nbr_h_prev, m_sel, d_pre, d_msum, d_edge_probs)
    if not k:
        d_nbr_h_prev = d_nbr_m = None
    return grads, d_h_prev[0], d_m_prev[0], d_navg[0], d_nbr_h_prev, d_nbr_m


def static_gates_per_slot(params, x, h_prev, owner, nbr_h_prev):
    """(nb_gate, merge_probs, pre) of cell_forward_batch, with each slot's
    forget gate from its own row of an (S, H) product over the slots'
    gathered neighbor states: sigmoid(take(x @ w_f.T + b_f, owner) +
    nbr_h_prev @ u_fn.T), where the package takes one product per node.
    pre is the gate-major (4, B, H) static pre-activations."""
    h = params.hidden_dim
    pre = x @ _gate_major(params.wx, h)
    nb_gate = (pre[1] + params.b[h:2 * h]).take(owner, axis=0)
    nb_gate += nbr_h_prev @ params.u_fn.T
    sigmoid(nb_gate, out=nb_gate)
    pre += h_prev @ _gate_major(params.uh, h)
    pre += params.b.reshape(-1, 1, h)
    return nb_gate, sigmoid(nb_gate @ params.w_e), pre


def propose(g, edge_probs, rng):
    """Sample one candidate coarsening.

    Each edge is selected independently with its merging probability,
    using exactly one uniform draw per edge in canonical edge order
    (a single rng.random(num_edges) call). Returns (selected_edges,
    partition, coarsened_graph).
    """
    probs = _validated_probs(g, edge_probs)
    selected = g.edges[rng.random(probs.size) < probs]
    return (selected, *coarsen(g, selected))


def coarsen(g, selected_edges):
    """Merge the connected components of (V, selected_edges) into cliques:
    (partition, coarsened graph). The selected edges must be edges of g."""
    part = _components_canonical(g, np.asarray(selected_edges, dtype=np.intp).reshape(-1, 2))
    return part, quotient_graph(g, part)


def transition_ratio(g, partition, edge_probs):
    """Product of merging probabilities over the eliminated edges, i.e.
    the edges of `g` whose endpoints fall into the same clique. Empty
    product is 1. Accumulated in log space as evolve_step does."""
    probs = _validated_probs(g, edge_probs)
    return _eliminated_product(probs, np.nonzero(_intra_clique_mask(g, partition))[0])


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def union_find_components(num_nodes, edges):
    """Component assignment with ids ordered by ascending minimum member."""
    uf = UnionFind(num_nodes)
    for a, b in edges:
        uf.union(a, b)
    relabel = {}
    assign = []
    for i in range(num_nodes):
        root = uf.find(i)
        if root not in relabel:
            relabel[root] = len(relabel)
        assign.append(relabel[root])
    return assign, len(relabel)


def eliminated_edge_product(edges, assignment, probs):
    """Direct product of probabilities over intra-component edges."""
    prod = 1.0
    for k, (a, b) in enumerate(edges):
        if assignment[a] == assignment[b]:
            prod *= probs[k]
    return prod


def mh_search(g, probs, loss_eval, max_trials, rng):
    """Plain Metropolis-Hastings search, one trial at a time: rng.random(m)
    edge draws in canonical order, then one rng.random() acceptance draw.
    In train mode (`loss_eval` given) every trial's posterior is
    evaluated. Components come from union-find.

    A trial is "ruled out" when its draw is at least cap x the transition
    ratio or x t_upper, the product of the selected edges' probabilities
    (an upper bound of the transition ratio), where cap =
    posterior_ratio(loss_old, 0) is the largest admissible posterior ratio
    (1 in test mode). A ruled-out trial is rejected whatever its posterior
    ratio, and is the trial evolve_step may decide without the posterior.
    Both products are accumulated in log space as documented for the
    package, so that draws placed next to them compare the same way.

    Returns (trials, assignment): per trial (selected edges, accepted,
    posterior needed: not ruled out, or test mode), and the accepted
    trial's component assignment (the identity when none is accepted).
    """
    n = g.num_nodes
    test_mode = loss_eval is None
    cap = 1.0
    if not test_mode:
        loss_old = loss_eval(CliquePartition.identity(n), g)
        cap = posterior_ratio(loss_old, 0.0)
    trials = []
    for _ in range(max_trials):
        chosen = rng.random(g.num_edges) < probs
        draw = rng.random()
        selected = [e for e, c in zip(map(tuple, g.edges.tolist()), chosen) if c]
        t_upper = math.exp(np.log(probs[chosen]).sum()) if chosen.any() else 1.0
        assign, count = union_find_components(n, selected)
        part = CliquePartition(np.array(assign), count)
        t_ratio = transition_ratio(g, part, probs)
        ruled_out = draw >= cap * min(t_upper, t_ratio)
        p_ratio = 1.0 if test_mode else posterior_ratio(loss_old, loss_eval(part, g))
        accepted = not ruled_out and draw < min(1.0, t_ratio * p_ratio)
        trials.append((selected, accepted, test_mode or not ruled_out))
        if accepted:
            return trials, assign
    return trials, list(range(n))


def bfs_component(nodes, adjacency, start):
    """Set of nodes reachable from start through `adjacency` (dict of
    lists), restricted to `nodes`."""
    seen = {start}
    queue = [start]
    while queue:
        u = queue.pop()
        for v in adjacency.get(u, ()):
            if v in nodes and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def ancestor_walk(partitions, node, level):
    """Follow one base node upward through `level` partition maps."""
    anc = node
    for k in range(level):
        anc = int(partitions[k].assignment[anc])
    return anc


def random_connected_graph(rng, num_nodes, extra_edge_prob=0.3):
    """Random spanning tree plus extra edges; always connected."""
    edges = set()
    order = rng.permutation(num_nodes)
    for k in range(1, num_nodes):
        a = int(order[k])
        b = int(order[rng.integers(0, k)])
        edges.add((min(a, b), max(a, b)))
    for a in range(num_nodes):
        for b in range(a + 1, num_nodes):
            if rng.random() < extra_edge_prob:
                edges.add((a, b))
    return sorted(edges)


def _mean_cross_entropy(logits, labels):
    z = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    return float(np.mean(lse - z[np.arange(len(labels)), labels]))


def neighbor_lists(graph):
    """Each node's neighbors, ascending, read off the graph's edge list."""
    nbrs = [[] for _ in range(graph.num_nodes)]
    for a, b in graph.edges.tolist():
        nbrs[a].append(b)
        nbrs[b].append(a)
    return [sorted(nb) for nb in nbrs]


def _sweep_forward(cell, graph, order, x, h_prev, m_prev):
    """One layer, node by node in visit order, each node a cell_update
    fed by visit flags. Returns the new hidden and memory states, one
    merging probability per directed edge (i, j), and the per-node caches
    with the flags they were built from."""
    nbrs = neighbor_lists(graph)
    h_new = h_prev.copy()
    m_new = m_prev.copy()
    visited = np.zeros(graph.num_nodes, dtype=bool)
    probs = {}
    nodes = {}
    for i in order:
        nb = nbrs[i]
        vis = visited[nb]
        if nb:
            navg = np.where(vis[:, None], h_new[nb], h_prev[nb]).sum(axis=0) / len(nb)
            hid, mem, mp, node = cell_update(cell, x[i], h_prev[i], m_prev[i], navg,
                                             vis, h_prev[nb], m_new[nb], m_prev[nb])
        else:
            hid, mem, mp, node = cell_update(cell, x[i], h_prev[i], m_prev[i],
                                             np.zeros(cell.hidden_dim))
        h_new[i], m_new[i] = hid, mem
        visited[i] = True
        for j, p in zip(nb, mp):
            probs[i, j] = p
        nodes[i] = (nb, vis, node)
    return h_new, m_new, probs, nodes


def sequential_network(sample, params, cfg, rng=None, mode="train", plan=None):
    """network.forward followed by network.backward, with every layer swept
    node by node in visit order through cell_update and reversed node by
    node through cell_backward. Draws from `rng` in the same order as
    network.forward: the visit order, then the evolution step, per layer.

    Returns (out, grads): `out` holds orders, partitions, decisions,
    level_logits, edge_probs and combined_logits; `grads` is a ModelParams
    of the total-loss gradients.
    """
    cell = params.cell
    labels = sample.labels
    n_layers = params.num_layers
    g = sample.graph
    x = sample.features
    h_prev = np.zeros((g.num_nodes, cell.hidden_dim))
    m_prev = np.zeros((g.num_nodes, cell.hidden_dim))
    amap = np.arange(g.num_nodes)
    out = {key: [] for key in ("orders", "partitions", "decisions", "level_logits",
                               "edge_probs", "levels", "amaps", "sweeps")}
    for t in range(n_layers):
        order = plan.visit_orders[t] if plan is not None else rng.permutation(g.num_nodes)
        h_new, m_new, probs, nodes = _sweep_forward(cell, g, order, x, h_prev, m_prev)
        p_edge = np.array([0.5 * (probs[a, b] + probs[b, a]) for a, b in g.edges.tolist()])
        head_w, head_b = params.heads[t]
        logits = h_new @ head_w.T + head_b
        for key, value in (("orders", order), ("level_logits", logits), ("edge_probs", p_edge),
                           ("levels", g), ("amaps", amap),
                           ("sweeps", (order, h_prev, m_prev, h_new, m_new, nodes))):
            out[key].append(value)
        if t == n_layers - 1:
            break
        if plan is not None:
            part, trial_log = plan.partitions[t], []
            g_next = quotient_graph(g, part)
        elif cfg.evolve.threshold is not None:
            g_next, part, trial_log = evolve_deterministic(g, p_edge, cfg.evolve.threshold)
        else:
            def loss_eval(partition, graph, logits=logits, amap=amap):
                agg = aggregate_node_values(partition, logits)
                return _mean_cross_entropy(agg[partition.assignment[amap]], labels)

            g_next, part, trial_log = evolve_step(
                g, p_edge, loss_eval if mode == "train" else None, cfg.evolve, rng)
        out["partitions"].append(part)
        out["decisions"].append(trial_log)
        x = aggregate_node_values(part, x)
        h_prev = aggregate_node_values(part, h_new)
        m_prev = aggregate_node_values(part, m_new)
        amap = part.assignment[amap]
        g = g_next
    combined = out["level_logits"][0].copy()
    for t in range(1, n_layers):
        combined += out["level_logits"][t][out["amaps"][t]]
    out["combined_logits"] = combined
    return out, _sequential_backward(out, sample, params, cfg)


def _level_labels(out, labels, num_classes, t):
    # majority base label below each level-t node, ties to the smaller id
    counts = np.zeros((out["levels"][t].num_nodes, num_classes))
    for i, lab in enumerate(labels):
        counts[ancestor_walk(out["partitions"], i, t), lab] += 1
    return counts.argmax(axis=1)


def _sequential_backward(out, sample, params, cfg):
    labels = sample.labels
    n0 = labels.size
    n_layers = len(out["levels"])
    grads = params.zeros_like()
    z = np.exp(out["combined_logits"] - out["combined_logits"].max(axis=1, keepdims=True))
    d_comb = z / z.sum(axis=1, keepdims=True)
    d_comb[np.arange(n0), labels] -= 1.0
    d_comb /= n0
    total_edges = sum(p.size for p in out["edge_probs"])

    d_next = None
    for t in range(n_layers - 1, -1, -1):
        g = out["levels"][t]
        order, h_prev, m_prev, h_new, m_new, nodes = out["sweeps"][t]
        lvl = _level_labels(out, labels, cfg.num_classes, t)
        d_p = {}
        for e, (a, b) in enumerate(g.edges.tolist()):
            target = float(lvl[a] == lvl[b])
            d_p[a, b] = d_p[b, a] = (cfg.edge_loss_weight / total_edges
                                     * (out["edge_probs"][t][e] - target))

        d_logits = np.zeros((g.num_nodes, cfg.num_classes))
        for i in range(n0):
            d_logits[out["amaps"][t][i]] += d_comb[i]
        head_w, _ = params.heads[t]
        gw, gb = grads.heads[t]
        gw += d_logits.T @ h_new
        gb += d_logits.sum(axis=0)
        d_h_new = d_logits @ head_w
        d_m_new = np.zeros_like(d_h_new)
        if d_next is not None:
            part = out["partitions"][t]
            sizes = np.bincount(part.assignment, minlength=part.num_cliques)
            for i, c in enumerate(part.assignment):
                d_h_new[i] += d_next[0][c] / sizes[c]
                d_m_new[i] += d_next[1][c] / sizes[c]
        d_h_prev = np.zeros_like(h_prev)
        d_m_prev = np.zeros_like(m_prev)
        for i in reversed(order):
            nb, vis, node = nodes[i]
            _, dhp, dmp, d_navg, d_nbr_h, d_nbr_m = cell_backward(
                node, d_h_new[i], d_m_new[i], np.array([d_p[i, j] for j in nb]), grads.cell)
            d_h_prev[i] += dhp
            d_m_prev[i] += dmp
            for s, j in enumerate(nb):
                # the average read j's new state iff j came first
                (d_h_new if vis[s] else d_h_prev)[j] += d_navg / len(nb)
                (d_m_new if vis[s] else d_m_prev)[j] += d_nbr_m[s]
                d_h_prev[j] += d_nbr_h[s]
        d_next = (d_h_prev, d_m_prev)
    return grads


def wave_schedule_sorted(order, graph, width):
    """network.wave_schedule laid out by comparison sorts: the nodes by a
    stable argsort of their intp waves, and the 2m slots, edge j seen from
    its lower end as entry j and from its upper end as entry j + m, by an
    argsort of the distinct keys row * n + neighbor id. Segment ids by a
    broadcast add."""
    n = graph.num_nodes
    m = graph.num_edges
    visit = np.empty(n, dtype=np.intp)
    visit[order] = np.arange(n)
    a, b = graph.edges.T
    first = visit[a] < visit[b]
    src, dst = np.where(first, a, b), np.where(first, b, a)
    wave = np.zeros(n, dtype=np.intp)
    total = 0
    while True:
        np.maximum.at(wave, dst, wave[src] + 1)
        raised = wave.sum()
        if raised == total:
            break
        total = raised

    perm = np.argsort(wave, kind="stable")
    pos = np.empty(n, dtype=np.intp)
    pos[perm] = np.arange(n)
    row_off = np.concatenate(([0], np.cumsum(np.bincount(wave))))
    ends, others = np.concatenate((a, b)), np.concatenate((b, a))
    rows = pos[ends]
    by_row = np.argsort(rows * n + others)
    owner = rows[by_row]
    nbr = pos[others[by_row]]
    slot = np.empty(2 * m, dtype=np.intp)
    slot[by_row] = np.arange(2 * m)
    row_deg = np.bincount(owner, minlength=n)
    slot_off = np.concatenate(([0], np.cumsum(row_deg)))[row_off]
    waves = list(zip(row_off[:-1].tolist(), row_off[1:].tolist(),
                     slot_off[:-1].tolist(), slot_off[1:].tolist()))
    local = owner - row_off[wave[perm]][owner]
    div = np.maximum(row_deg, 1).astype(np.float64)[:, None]
    return WaveSchedule(perm, pos, waves, owner, nbr, np.where(by_row < m, by_row, by_row - m),
                        slot[by_row - m], np.flatnonzero(nbr > owner), div, 1.0 / div,
                        local[:, None] * width + np.arange(width))


def load_dataset_per_line(path):
    """data.load_dataset converting every sample line by line: each edge
    line's two ints, each feature row's floats and the label line's ints
    in turn, the first line that does not parse named in the error."""
    lines = read_lines(path, DatasetError)

    def fail(lineno, msg):
        raise DatasetError(f"{path}:{lineno}: {msg}")

    if not lines:
        fail(1, "empty file, expected dataset header")
    head = lines[0].split()
    if len(head) != 5 or " ".join(head[:2]) != DATASET_MAGIC:
        fail(1, f"bad header {lines[0]!r}, expected '{DATASET_MAGIC} D=<d> K=<k> N=<samples>'")
    fields = _named_ints(head[2:], ("D", "K", "N"))
    if fields is None:
        fail(1, f"bad header fields {lines[0]!r}, expected 'D=<d> K=<k> N=<samples>'")
    dim, num_labels, count = fields
    if dim < 1 or num_labels < 1 or count < 0:
        fail(1, f"header needs D >= 1, K >= 1 and N >= 0, got {lines[0]!r}")

    samples = []
    pos = 1
    while len(samples) < count:
        if pos == len(lines):
            fail(pos, f"file ends after {len(samples)} of the {count} samples in the header")
        parts = lines[pos].split()
        record = (_named_ints(parts[1:], ("nodes", "edges"))
                  if len(parts) == 3 and parts[0] == "sample" else None)
        if record is None:
            fail(pos + 1, f"expected 'sample nodes=<n> edges=<m>', got {lines[pos]!r}")
        n, m = record
        if n < 1 or m < 0:
            fail(pos + 1, f"sample needs nodes >= 1 and edges >= 0, got {lines[pos]!r}")
        pos += 1
        if pos + m + n + 1 > len(lines):
            fail(len(lines), f"truncated sample {len(samples)} "
                             f"(needs {m} edge, {n} feature, 1 label line)")
        edge_line = pos + 1
        edges = []
        for _ in range(m):
            toks = lines[pos].split()
            if len(toks) != 2 or not INT_TEXT.fullmatch(lines[pos]):
                fail(pos + 1, f"bad edge line {lines[pos]!r}")
            try:
                edges.append((int(toks[0]), int(toks[1])))
            except ValueError:
                fail(pos + 1, f"bad edge line {lines[pos]!r}")
            pos += 1
        feat_line = pos + 1
        feats = np.zeros((n, dim))
        for r in range(n):
            toks = lines[pos].split()
            if len(toks) != dim:
                fail(pos + 1, f"feature row has {len(toks)} values, expected {dim}")
            try:
                feats[r] = [float(v) for v in toks]
            except ValueError:
                fail(pos + 1, f"bad feature value in {lines[pos]!r}")
            pos += 1
        toks = lines[pos].split()
        if len(toks) != n:
            fail(pos + 1, f"label row has {len(toks)} values, expected {n}")
        try:
            labels = parse_ints(toks)
        except ValueError:
            fail(pos + 1, f"bad label value in {lines[pos]!r}")
        if labels and (min(labels) < 0 or max(labels) >= num_labels):
            fail(pos + 1, f"label out of range for K={num_labels}")
        pos += 1

        try:
            graph = LevelGraph(n, edges)
        except ValueError as exc:
            k = next(k for k, (a, b) in enumerate(edges)
                     if a == b or not (0 <= a < n and 0 <= b < n))
            fail(edge_line + k, f"invalid edge: {exc}")
        if graph.num_edges != m:
            seen = set()
            for k, (a, b) in enumerate(edges):
                if (min(a, b), max(a, b)) in seen:
                    fail(edge_line + k, f"repeated edge {a} {b}")
                seen.add((min(a, b), max(a, b)))
        finite = np.isfinite(feats)
        if not finite.all():
            fail(feat_line + int(np.argmin(finite.all(axis=1))), "non-finite feature value")
        samples.append(Sample(graph, feats, labels))
    if pos < len(lines):
        fail(pos + 1, f"extra line after the {count} samples in the header: {lines[pos]!r}")
    return DatasetFile(dim, num_labels, samples)


def load_checkpoint_per_row(path):
    """network.load_checkpoint converting every tensor row by row: each
    row's count, its floats and their finiteness in turn, the first row
    that fails named in the error. Returns (params, meta)."""
    lines = read_lines(path)
    if not lines or not lines[0].startswith(CHECKPOINT_MAGIC + " "):
        raise ValueError(f"{path}:1: not a {CHECKPOINT_MAGIC} checkpoint")
    names = {"D": "input_dim", "H": "hidden_dim", "C": "num_classes", "layers": "num_layers"}
    fields = {}
    for token in lines[0].split()[2:]:
        key, sep, value = token.partition("=")
        if not (key and sep):
            raise ValueError(f"{path}:1: malformed header token {token!r}")
        if key not in names:
            raise ValueError(f"{path}:1: unknown header field {key!r}")
        if key in fields:
            raise ValueError(f"{path}:1: repeated header field {key!r}")
        fields[key] = value
    meta = {}
    for key, name in names.items():
        if key not in fields:
            raise ValueError(f"{path}:1: checkpoint header missing field {key!r}")
        try:
            (meta[name],) = parse_ints([fields[key]])
        except ValueError:
            raise ValueError(
                f"{path}:1: header field {key}={fields[key]!r} is not an integer") from None
        if meta[name] < 1:
            raise ValueError(f"{path}:1: header field {key}={meta[name]} must be positive")
    try:
        cell = CellParams(meta["input_dim"], meta["hidden_dim"])
        heads = [(np.zeros((meta["num_classes"], meta["hidden_dim"])),
                  np.zeros(meta["num_classes"])) for _ in range(meta["num_layers"])]
    except (MemoryError, ValueError) as exc:
        raise ValueError(f"{path}:1: header dims do not fit in memory: {exc}") from None
    params = ModelParams(cell, heads)

    pos = 1
    for name, t in params.tensors():
        if pos >= len(lines):
            raise ValueError(f"{path}:{pos}: truncated before tensor {name}")
        parts = lines[pos].split()
        if parts[:2] != ["tensor", name]:
            raise ValueError(f"{path}:{pos + 1}: expected tensor {name}, got {lines[pos]!r}")
        try:
            dims = tuple(parse_ints(parts[2:]))
        except ValueError:
            raise ValueError(
                f"{path}:{pos + 1}: tensor {name} dims {parts[2:]} are not integers") from None
        if dims != t.shape:
            raise ValueError(f"{path}:{pos + 1}: tensor {name} dims {dims} != {t.shape}")
        pos += 1
        rows = 1 if t.ndim == 1 else t.shape[0]
        width = t.shape[-1]
        flat = t.reshape(rows, width)
        for r in range(rows):
            if pos >= len(lines):
                raise ValueError(f"{path}:{pos}: truncated inside tensor {name}")
            vals = lines[pos].split()
            if len(vals) != width:
                raise ValueError(
                    f"{path}:{pos + 1}: tensor {name} row {r} has {len(vals)} "
                    f"values, expected {width}")
            try:
                flat[r] = [float(v) for v in vals]
            except ValueError:
                raise ValueError(
                    f"{path}:{pos + 1}: tensor {name} row {r} has a non-numeric value") from None
            if not np.isfinite(flat[r]).all():
                raise ValueError(f"{path}:{pos + 1}: tensor {name} row {r} has a non-finite value")
            pos += 1
    if pos != len(lines):
        raise ValueError(f"{path}:{pos + 1}: trailing content after last tensor")
    return params, meta
