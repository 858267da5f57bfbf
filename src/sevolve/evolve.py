"""Stochastic graph structure evolution.

A proposal merges nodes by selecting each edge independently with its
predicted merging probability. The acceptance rate is min(1, transition
ratio x posterior ratio), where the transition ratio multiplies the
merging probabilities of all eliminated edges and the posterior ratio
compares task losses under a Gibbs model. During testing only the
transition ratio is used.

Draw contract of evolve_step, for a graph with m edges: trial k consumes
m + 1 uniform doubles, its m edge draws in canonical edge order and then
its acceptance draw, and the trials consume them in trial order. The rng
is left just after the accepted trial's draws, or after all trials'
draws when none is accepted. The draws come in blocks of several trials
whose size is capped (_BLOCK_DRAWS), so memory stays O(m) whatever
max_trials is. A vectorised bound rejects most trials of a block at
once; the others are decided one by one with the exact ratios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from sevolve.graph import (
    CliquePartition,
    LevelGraph,
    _components_canonical,
    quotient_graph,
)

# A draw block of evolve_step holds at most this many doubles (1 MiB).
_BLOCK_DRAWS = 1 << 17
# unit roundoff of float64
_EPS = 2.0 ** -53


@dataclass
class EvolveConfig:
    """Settings for one structure-evolution step.

    `threshold` switches to the deterministic ablation: edges with
    probability >= threshold merge, no sampling and no acceptance loop.
    """

    max_trials: int = 50
    threshold: float | None = None

    def __post_init__(self):
        if self.max_trials < 1:
            raise ValueError(f"max_trials must be >= 1, got {self.max_trials}")
        if self.threshold is not None and not (0.0 < self.threshold <= 1.0):
            raise ValueError(f"threshold must lie in (0, 1], got {self.threshold}")


class ProposalTrace:
    """Record of one sampling trial (or one deterministic selection).

    The selection is kept as a boolean mask over the canonical edges. For
    trial k of evolve_step it is a row of the draw block's mask: edge e
    is selected iff draw (k - 1)(m + 1) + e of the step's stream is below
    its probability, and draw k(m + 1) - 1 is the trial's acceptance
    draw. The selected and eliminated edges, the candidate partition,
    the transition ratio and alpha are materialized lazily when a trial
    was decided from bounds alone (rejections mostly are); accessing any
    of them computes exactly the values the eager path would have.

    When `posterior_evaluated` is False the trial was rejected without
    calling the loss callback: the acceptance draw exceeded the largest
    alpha any admissible posterior ratio could produce (losses are
    non-negative, so that ratio is posterior_ratio(loss_old, 0)), so
    `posterior_ratio` and `alpha` hold that upper bound instead of
    evaluated values. The accept/reject decision is identical either way.
    """

    __slots__ = ("trial", "posterior_ratio", "accepted", "posterior_evaluated",
                 "_g", "_probs", "_sel", "_selected", "_partition",
                 "_elim_idx", "_eliminated", "_t_ratio", "_alpha")

    def __init__(self, trial, g, probs, sel, posterior_ratio, accepted,
                 posterior_evaluated=True, partition=None, elim_idx=None,
                 transition_ratio=None, alpha=None):
        self.trial = trial
        self._g = g
        self._probs = probs
        self._sel = sel
        self._selected = None
        self._partition = partition
        self._elim_idx = elim_idx
        self._eliminated = None
        self._t_ratio = transition_ratio
        self._alpha = alpha
        self.posterior_ratio = posterior_ratio
        self.accepted = accepted
        self.posterior_evaluated = posterior_evaluated

    @property
    def selected(self) -> tuple:
        if self._selected is None:
            self._selected = _edges_at(self._g, np.flatnonzero(self._sel))
        return self._selected

    @property
    def partition(self) -> CliquePartition:
        if self._partition is None:
            self._partition = _components_canonical(self._g, self.selected)
        return self._partition

    @property
    def num_cliques(self) -> int:
        return self.partition.num_cliques

    @property
    def _eliminated_idx(self):
        if self._elim_idx is None:
            self._elim_idx = np.nonzero(_intra_clique_mask(self._g, self.partition))[0]
        return self._elim_idx

    @property
    def eliminated(self) -> tuple:
        if self._eliminated is None:
            self._eliminated = _edges_at(self._g, self._eliminated_idx)
        return self._eliminated

    @property
    def transition_ratio(self) -> float:
        if self._t_ratio is None:
            self._t_ratio = _eliminated_product(self._probs, self._eliminated_idx)
        return self._t_ratio

    @property
    def alpha(self) -> float:
        if self._alpha is None:
            self._alpha = min(1.0, self.transition_ratio * self.posterior_ratio)
        return self._alpha

    def __repr__(self):
        return (f"ProposalTrace(trial={self.trial}, "
                f"selected={int(np.count_nonzero(self._sel))}, "
                f"alpha={self.alpha!r}, accepted={self.accepted})")


def _edges_at(g: LevelGraph, idx) -> tuple:
    """The canonical edges of g at the ascending edge ids `idx`."""
    if idx.size > 1:
        return itemgetter(*idx)(g.edges)
    return (g.edges[idx[0]],) if idx.size else ()


def _validated_probs(g: LevelGraph, edge_probs) -> np.ndarray:
    probs = np.asarray(edge_probs, dtype=np.float64)
    if probs.shape != (g.num_edges,):
        raise ValueError(
            f"need one probability per edge ({g.num_edges}), got shape {probs.shape}")
    if probs.size and not (probs.min() >= 0.0 and probs.max() <= 1.0):
        raise ValueError("edge merging probabilities must lie in [0, 1]")
    return probs


def _intra_clique_mask(g: LevelGraph, partition: CliquePartition) -> np.ndarray:
    if partition.num_nodes != g.num_nodes:
        raise ValueError("partition does not cover the graph's nodes")
    if not g.num_edges:
        return np.zeros(0, dtype=bool)
    ea = g.edge_array()
    assign = partition.assignment
    return assign[ea[:, 0]] == assign[ea[:, 1]]


def _eliminated_product(probs: np.ndarray, elim_idx: np.ndarray) -> float:
    p_elim = probs[elim_idx]
    if not p_elim.size:
        return 1.0
    if p_elim.min() == 0.0:
        return 0.0
    return float(math.exp(np.log(p_elim).sum()))


def posterior_ratio(loss_old: float, loss_new: float) -> float:
    """exp(loss_old - loss_new): the Gibbs posterior ratio of the candidate
    graph to the current one (partition function cancels). The exponent is
    clamped to +-50, which preserves ordering while preventing overflow.
    Losses must be finite and non-negative: evolve_step skips posterior
    evaluations by a bound that takes 0 as the lowest loss."""
    if not (math.isfinite(loss_old) and math.isfinite(loss_new)):
        raise ValueError(f"losses must be finite, got {loss_old}, {loss_new}")
    if loss_old < 0.0 or loss_new < 0.0:
        raise ValueError(f"losses must be non-negative, got {loss_old}, {loss_new}")
    return math.exp(min(50.0, max(-50.0, loss_old - loss_new)))


def evolve_step(g: LevelGraph, edge_probs, loss_eval, cfg: EvolveConfig, rng):
    """Metropolis-Hastings search for the next-level graph.

    Proposes up to cfg.max_trials candidate coarsenings and accepts one
    with probability alpha = min(1, transition_ratio * posterior_ratio).
    With `loss_eval` None (test mode) the posterior ratio is fixed to 1.
    Otherwise (train mode) `loss_eval(partition, graph)` must return the
    non-negative task loss under the coarsening `partition` of the source
    `graph` (the candidate graph itself is quotient_graph(graph,
    partition)); a negative loss raises ValueError. If no candidate is
    accepted the graph is kept unchanged with the identity partition.

    Draw contract: each trial consumes m + 1 uniform doubles of the numpy
    Generator `rng` (m = number of edges), trials in order: its m edge
    draws in canonical edge order, then its acceptance draw. On return
    `rng` stands just after the accepted trial's draws, or after all
    trials' draws when none was accepted, as a loop calling rng.random(m)
    and then rng.random() per trial would leave it. The trials are drawn
    in blocks of at most _BLOCK_DRAWS doubles, so memory stays O(m) for
    any max_trials; on acceptance the generator is rewound to the start
    of the block and redraws up to the end of the accepted trial.

    Returns (next_graph, partition, list of ProposalTrace).
    """
    probs = _validated_probs(g, edge_probs)
    test_mode = loss_eval is None
    ratio_cap = 1.0
    loss_old = None
    if not test_mode:
        loss_old = float(loss_eval(CliquePartition.identity(g.num_nodes), g))
        # a loss of 0 is the best any candidate can reach
        ratio_cap = posterior_ratio(loss_old, 0.0)
    m = probs.size
    # edges with p = 0 are never selected: any finite log keeps the
    # bound's matvec free of 0 * -inf
    log_probs = np.log(probs, out=np.zeros(m), where=probs > 0.0)
    log_cap = math.log(ratio_cap)
    per_block = max(1, _BLOCK_DRAWS // (m + 1))
    traces = []
    trial = 0
    while trial < cfg.max_trials:
        count = min(per_block, cfg.max_trials - trial)
        block_start = rng.bit_generator.state
        block = rng.random((count, m + 1))
        draws = block[:, m]
        # the edge draws become the 0/1 selection in place, which the
        # bound's matvec reads without a cast copy
        chosen = block[:, :m]
        np.less(chosen, probs, out=chosen, casting="unsafe")
        sel = chosen.astype(bool)
        # Prefilter: every selected edge ends up intra-clique, so the
        # product over the selected edges, t_upper, bounds the transition
        # ratio from above, and a draw >= t_upper * ratio_cap rejects the
        # trial without its posterior. The matvec sums the logs in another
        # order than _exact_trial; either sum is within m ulps of
        # |log t_upper| of the exact one (the logs of single probabilities
        # within one ulp each), which 4m covers, and the +8 covers the
        # exp, log and product roundings. A trial marked sure is thus one
        # that _exact_trial rejects unevaluated.
        log_upper = chosen @ log_probs
        margin = (4 * m + 8) * _EPS * (np.abs(log_upper) + abs(log_cap) + 1.0)
        sure = draws > np.exp(log_upper + log_cap + margin)
        for k in range(count):
            trial += 1
            trace = None if sure[k] else _exact_trial(
                trial, g, probs, sel[k], draws[k], loss_eval, loss_old, ratio_cap)
            if trace is None:
                # rejected under every admissible transition/posterior
                # value; partition, ratios, and alpha materialize lazily
                traces.append(ProposalTrace(
                    trial, g, probs, sel[k],
                    posterior_ratio=ratio_cap if not test_mode else 1.0,
                    accepted=False, posterior_evaluated=test_mode))
                continue
            traces.append(trace)
            if trace.accepted:
                # leave rng just after this trial's draws
                rng.bit_generator.state = block_start
                rng.random((k + 1) * (m + 1))
                return quotient_graph(g, trace.partition), trace.partition, traces
    return g, CliquePartition.identity(g.num_nodes), traces


def _exact_trial(trial, g, probs, sel, draw, loss_eval, loss_old, ratio_cap):
    """Decides one trial exactly from its selection mask and acceptance
    draw: its ProposalTrace, or None when the draw is at least ratio_cap
    times t_upper, the product over the selected edges."""
    sel_idx = np.nonzero(sel)[0]
    if sel_idx.size:
        t_upper = float(math.exp(np.log(probs[sel_idx]).sum()))
    else:
        t_upper = 1.0
    if draw >= t_upper * ratio_cap:
        return None
    part = _components_canonical(g, _edges_at(g, sel_idx))
    elim_idx = np.nonzero(_intra_clique_mask(g, part))[0]
    t_ratio = _eliminated_product(probs, elim_idx)
    evaluated = True
    if loss_eval is None:
        p_ratio = 1.0
    elif draw >= t_ratio * ratio_cap:
        # the exact transition ratio already rules this draw out
        p_ratio = ratio_cap
        evaluated = False
    else:
        p_ratio = posterior_ratio(loss_old, float(loss_eval(part, g)))
    alpha = min(1.0, t_ratio * p_ratio)
    return ProposalTrace(
        trial, g, probs, sel, posterior_ratio=p_ratio, accepted=bool(draw < alpha),
        posterior_evaluated=evaluated, partition=part, elim_idx=elim_idx,
        transition_ratio=t_ratio)


def evolve_deterministic(g: LevelGraph, edge_probs, threshold: float):
    """Hard-threshold ablation: merge exactly the edges with merging
    probability >= threshold. No sampling, no acceptance loop.

    Returns (next_graph, partition, list with one ProposalTrace).
    """
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    probs = _validated_probs(g, edge_probs)
    sel = probs >= threshold
    part = _components_canonical(g, _edges_at(g, np.nonzero(sel)[0]))
    coarse = quotient_graph(g, part)
    elim_idx = np.nonzero(_intra_clique_mask(g, part))[0]
    t_ratio = _eliminated_product(probs, elim_idx)
    trace = ProposalTrace(1, g, probs, sel, posterior_ratio=1.0,
                          accepted=True, partition=part, elim_idx=elim_idx,
                          transition_ratio=t_ratio, alpha=1.0)
    return coarse, part, [trace]


def trace_records(traces) -> list[str]:
    """Line-delimited dump of proposal trials, one line per trial."""
    lines = []
    for t in traces:
        lines.append(
            f"trial={t.trial} selected={len(t.selected)} "
            f"transition_ratio={t.transition_ratio!r} "
            f"posterior_ratio={t.posterior_ratio!r} "
            f"alpha={t.alpha!r} accepted={int(t.accepted)}")
    if traces and not traces[-1].accepted:
        lines.append("fallback=identity")
    return lines
