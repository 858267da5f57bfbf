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
draws when none is accepted, as a loop calling rng.random(m) and then
rng.random() per trial would leave it. The trials are drawn and decided
in blocks of _BLOCK_TRIALS, which draw what one block of all the trials
would. On a graph of _JUMP_EDGES edges or more only the tail of each
trial is drawn at first: its last _TAIL_EDGES edge draws and its
acceptance draw, after a jump over its other edge draws. On a smaller
graph one call draws a block's trials whole. Either way the selected
edges among the tail's draws bound the transition ratio from above, and
a vectorised test of that bound rejects most trials at once. Each trial
it cannot rule out is decided with the exact ratios: on a whole-drawn
graph from the row already drawn, otherwise redrawn whole, from a jump
to its start. A PCG64 or PCG64DXSM generator jumps with
bit_generator.advance, since each double is one 64-bit output; other
generators draw the skipped doubles and discard them. The jumps leave
the generator's buffered 32-bit half as it was.

Each transition is logged as one TrialLog: the rng state at its start
and, per trial, the decision and the posterior ratio. replay_trials
redraws the rest of each trial's detail (selected and eliminated edges,
partition, transition ratio, alpha) from that state under the contract.
"""

from __future__ import annotations

import math
import operator
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from sevolve.graph import CliquePartition, LevelGraph, _components_canonical
# unused: network.forward builds every level, but perfbench's traced
# runs wrap evolve.quotient_graph
from sevolve.graph import quotient_graph  # noqa: F401

# evolve_step jumps on graphs of this many edges or more; on smaller
# ones one call drawing every trial whole costs less than the per-trial
# calls of the jumps
_JUMP_EDGES = 512
# edge draws per trial, the last ones, that evolve_step's prefilter reads
_TAIL_EDGES = 64
# evolve_step draws and decides the trials in blocks of this many, so its
# arrays do not grow with max_trials; the default 50 trials are one block
_BLOCK_TRIALS = 64
# bit generators whose random() double is one output, so advance(k)
# jumps over k doubles
_JUMPABLE = (np.random.PCG64, np.random.PCG64DXSM)
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


# one trial of a TrialLog, as iterating the log yields it
Trial = namedtuple("Trial", "trial accepted posterior_evaluated")
# one trial's detail, as replay_trials rebuilds it; `selected` and
# `eliminated` are (k, 2) arrays of edges in canonical order
ReplayedTrial = namedtuple("ReplayedTrial", "trial selected partition eliminated "
                           "transition_ratio posterior_ratio alpha accepted posterior_evaluated")


class TrialLog:
    """The trials of one transition, one array per field.

    `graph` and `probs` are the level graph and edge probabilities the
    trials were drawn on. `rng_state` is the rng's bit_generator.state at
    the start of evolve_step and `threshold` evolve_deterministic's
    threshold; each is None where unused, both in the empty log of a
    StructurePlan replay. Row k - 1 of `accepted`, `posterior_evaluated`
    and `posterior_ratio` belongs to trial k.

    When `posterior_evaluated` is False the trial was rejected without
    calling the loss callback: the acceptance draw exceeded the largest
    alpha any admissible posterior ratio could produce (losses are
    non-negative, so that ratio is posterior_ratio(loss_old, 0)), and
    `posterior_ratio` holds that bound. The decision is the same either
    way. len() counts the trials and iteration yields one Trial each.

    network.forward logs a sample of one part with its transition's own
    log. A sample of several parts (network.Sample.union) gets one log
    per transition that holds its parts' trials one after the other, in
    part order, on the union's graph and probabilities, with `rng_state`
    and `threshold` None: each part drew from its own rng, so
    replay_trials refuses it with ValueError, and each part must be
    replayed on its own sample.
    """

    __slots__ = ("graph", "probs", "rng_state", "threshold", "accepted",
                 "posterior_evaluated", "posterior_ratio")

    def __init__(self, graph, probs, rng_state=None, threshold=None, accepted=(),
                 posterior_evaluated=(), posterior_ratio=()):
        self.graph = graph
        self.probs = probs
        self.rng_state = rng_state
        self.threshold = threshold
        self.accepted = np.asarray(accepted, dtype=bool)
        self.posterior_evaluated = np.asarray(posterior_evaluated, dtype=bool)
        self.posterior_ratio = np.asarray(posterior_ratio, dtype=np.float64)

    def __len__(self):
        return self.accepted.size

    def __iter__(self):
        return map(Trial, range(1, len(self) + 1), self.accepted.tolist(),
                   self.posterior_evaluated.tolist())


def _validated_probs(g: LevelGraph, edge_probs) -> np.ndarray:
    probs = np.asarray(edge_probs, dtype=np.float64)
    if probs.shape != (g.num_edges,):
        raise ValueError(
            f"need one probability per edge ({g.num_edges}), got shape {probs.shape}")
    if probs.size and not (probs.min() >= 0.0 and probs.max() <= 1.0):
        raise ValueError("edge merging probabilities must lie in [0, 1]")
    return probs


def _intra_clique_mask(g: LevelGraph, partition: CliquePartition) -> np.ndarray:
    ends = partition.assignment[g.edges]
    return ends[:, 0] == ends[:, 1]


def _eliminated_product(probs: np.ndarray, elim_idx: np.ndarray) -> float:
    p_elim = probs[elim_idx]
    if p_elim.size and p_elim.min() == 0.0:
        return 0.0
    return float(math.exp(np.log(p_elim).sum()))   # 1.0 when empty


def _proposal(g: LevelGraph, probs: np.ndarray, sel_idx: np.ndarray):
    """The candidate that selects the edges at the ascending ids `sel_idx`:
    (partition, ids of its eliminated edges, transition ratio)."""
    part = _components_canonical(g, g.edges[sel_idx])
    elim_idx = np.flatnonzero(_intra_clique_mask(g, part))
    return part, elim_idx, _eliminated_product(probs, elim_idx)


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
    """Metropolis-Hastings search for the partition of `g` into the
    cliques of the next level.

    Proposes up to cfg.max_trials candidate coarsenings and accepts one
    with probability alpha = min(1, transition_ratio * posterior_ratio).
    With `loss_eval` None (test mode) the posterior ratio is fixed to 1.
    Otherwise (train mode) `loss_eval(partition)` must return the
    non-negative task loss under the coarsening `partition` of `g`; a
    negative loss raises ValueError. If no candidate is accepted the
    result is the identity partition, the one train mode scores loss_old
    on.

    `rng` is a numpy Generator, drawn from under the module's draw
    contract. Returns (partition, TrialLog); the log keeps `rng`'s state
    at the start, from which replay_trials redraws each trial.
    """
    probs = _validated_probs(g, edge_probs)
    test_mode = loss_eval is None
    ratio_cap, loss_old = 1.0, None
    keep = CliquePartition.identity(g.num_nodes)
    if not test_mode:
        loss_old = float(loss_eval(keep))
        # a loss of 0 is the best any candidate can reach
        ratio_cap = posterior_ratio(loss_old, 0.0)
    m = probs.size
    j = min(_TAIL_EDGES, m)
    tail_probs = probs[m - j:]
    # edges with p = 0 are never selected: any finite log keeps the
    # bound's matvec free of 0 * -inf
    log_tail = np.log(tail_probs, out=np.zeros(j), where=tail_probs > 0.0)
    log_cap = math.log(ratio_cap)
    # a Python int: advance raises OverflowError on a numpy integer
    trials = operator.index(cfg.max_trials)
    jump = m >= _JUMP_EDGES
    bit_gen = rng.bit_generator
    start = bit_gen.state
    # skip(k) moves rng past k doubles as drawing them would, but for a
    # jump's cleared buffered 32-bit half (_restore_buffered_half)
    skip = bit_gen.advance if isinstance(bit_gen, _JUMPABLE) else rng.random
    # per trial: accepted, posterior_evaluated, posterior_ratio, filled
    # as for a trial the prefilter rejects
    accepted = np.zeros(trials, dtype=bool)
    evaluated = np.full(trials, test_mode)
    ratios = np.full(trials, ratio_cap)
    for k0 in range(0, trials, _BLOCK_TRIALS):
        k1 = min(k0 + _BLOCK_TRIALS, trials)
        block_start = start if k0 == 0 else bit_gen.state
        # per trial of the block: its tail of j edge draws after a jump,
        # or all its m edge draws, then its acceptance draw
        rows = np.empty((k1 - k0, j + 1 if jump else m + 1))
        if jump:
            for row in rows:
                skip(m - j)
                rng.random(out=row)
        else:
            rng.random(out=rows)
        draws = rows[:, -1]
        # Prefilter: every factor of t_upper, the product over the
        # selected edges, is at most 1, so the product over the selected
        # tail edges, exp(log_upper), bounds t_upper and so the transition
        # ratio from above; a draw >= that bound times ratio_cap rejects
        # the trial without its posterior. Rounding: the logs are all
        # <= 0, so each float sum lies within a relative (terms + 2) ulps
        # of the exact sum of its exact logs (the logs of single
        # probabilities within one ulp each), and the exact sum over all
        # selected edges is at most the one over the selected tail edges.
        # So _exact_trial's log t_upper lies at most (m + j + 4) <= (2m + 4)
        # ulps of |log_upper| above log_upper, which 4m + 8 covers with
        # room for the exp, log and product roundings. A trial marked sure
        # is thus one that _exact_trial rejects unevaluated.
        log_upper = (rows[:, -1 - j:-1] < tail_probs) @ log_tail
        margin = (4 * m + 8) * _EPS * (np.abs(log_upper) + abs(log_cap) + 1.0)
        sure = draws > np.exp(log_upper + log_cap + margin)
        undecided = (k0 + np.flatnonzero(~sure)).tolist()
        if jump and undecided:
            # redraw each undecided trial whole, from the block's start on
            bit_gen.state = block_start
        done = k0
        for k in undecided:
            if jump:
                skip((k - done) * (m + 1))
                row = rng.random(m + 1)
                done = k + 1
            else:
                row = rows[k - k0]
            decided = _exact_trial(g, probs, row[:m] < probs, row[m], loss_eval, loss_old,
                                   ratio_cap)
            if decided is None:
                continue
            part, ratios[k], evaluated[k], accepted[k] = decided
            if accepted[k]:
                if not jump:
                    # leave rng just after this trial's draws
                    bit_gen.state = block_start
                    skip((k + 1 - k0) * (m + 1))
                _restore_buffered_half(bit_gen, start)
                return part, TrialLog(g, probs, start, None, accepted[:k + 1],
                                       evaluated[:k + 1], ratios[:k + 1])
        if jump and undecided:
            skip((k1 - done) * (m + 1))
    if jump:
        _restore_buffered_half(bit_gen, start)
    return keep, TrialLog(g, probs, start, None, accepted, evaluated, ratios)


def _restore_buffered_half(bit_gen, start):
    """Puts back the buffered 32-bit half of the state `start`, which
    advance clears and random() leaves alone; the next bounded integer
    draw (rng.permutation, say) reads it."""
    if isinstance(bit_gen, _JUMPABLE):
        state = bit_gen.state
        state["has_uint32"], state["uinteger"] = start["has_uint32"], start["uinteger"]
        bit_gen.state = state


def _exact_trial(g, probs, chosen, draw, loss_eval, loss_old, ratio_cap):
    """Decides one trial exactly from its edge selection mask and acceptance
    draw: (partition, posterior ratio, posterior evaluated, accepted), or
    None when the draw is at least ratio_cap times t_upper, the product
    over the selected edges."""
    sel_idx = np.flatnonzero(chosen)
    t_upper = float(math.exp(np.log(probs[sel_idx]).sum())) if sel_idx.size else 1.0
    if draw >= t_upper * ratio_cap:
        return None
    part, _, t_ratio = _proposal(g, probs, sel_idx)
    if draw >= t_ratio * ratio_cap:
        # the exact transition ratio already rules this draw out
        return part, ratio_cap, loss_eval is None, False
    p_ratio = 1.0 if loss_eval is None else posterior_ratio(loss_old, float(loss_eval(part)))
    return part, p_ratio, True, bool(draw < min(1.0, t_ratio * p_ratio))


def evolve_deterministic(g: LevelGraph, edge_probs, threshold: float):
    """Hard-threshold ablation: merge exactly the edges with merging
    probability >= threshold. No sampling, no acceptance loop.

    Returns (partition, TrialLog of one accepted trial that keeps
    `threshold` for replay_trials).
    """
    if not (0.0 < threshold <= 1.0):
        raise ValueError(f"threshold must lie in (0, 1], got {threshold}")
    probs = _validated_probs(g, edge_probs)
    return (_proposal(g, probs, np.flatnonzero(probs >= threshold))[0],
            TrialLog(g, probs, threshold=threshold, accepted=[True], posterior_evaluated=[True],
                     posterior_ratio=[1.0]))


def replay_trials(log: TrialLog) -> list[ReplayedTrial]:
    """Each trial's detail, redrawn under the draw contract from a new
    numpy Generator set to `log.rng_state`, so the caller's rng is not
    touched. A threshold log's one trial selects the edges with
    probability >= threshold and has alpha 1. A log with trials but
    neither an rng state nor a threshold, a union sample's, raises
    ValueError."""
    g, probs = log.graph, log.probs
    if log.threshold is None and len(log):
        if log.rng_state is None:
            raise ValueError("the log keeps trials but no rng state, as a union sample's "
                             "does: replay each part on its own sample")
        bit_gen = getattr(np.random, log.rng_state["bit_generator"])()
        bit_gen.state = log.rng_state
        rng = np.random.Generator(bit_gen)
    out = []
    for t, p_ratio in zip(log, log.posterior_ratio.tolist()):
        if log.threshold is None:
            sel_idx = np.flatnonzero(rng.random(probs.size) < probs)
            rng.random()
        else:
            sel_idx = np.flatnonzero(probs >= log.threshold)
        part, elim_idx, t_ratio = _proposal(g, probs, sel_idx)
        alpha = min(1.0, t_ratio * p_ratio) if log.threshold is None else 1.0
        out.append(ReplayedTrial(t.trial, g.edges[sel_idx], part, g.edges[elim_idx], t_ratio,
                                 p_ratio, alpha, t.accepted, t.posterior_evaluated))
    return out


def trace_records(log: TrialLog) -> list[str]:
    """Line-delimited dump of a transition's trials (from replay_trials),
    one line per trial, then `fallback=identity` when none was accepted."""
    lines = [f"trial={t.trial} selected={len(t.selected)} "
             f"transition_ratio={t.transition_ratio!r} "
             f"posterior_ratio={t.posterior_ratio!r} "
             f"alpha={t.alpha!r} accepted={int(t.accepted)}"
             for t in replay_trials(log)]
    if len(log) and not log.accepted[-1]:
        lines.append("fallback=identity")
    return lines
