"""SGD-with-momentum training loop, weight decay, gradient checking."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from sevolve.cell import CellParams, NumericError
from sevolve.network import (backward, compute_loss, forward, predict, save_checkpoint,
                             union_batches, write_lines_atomic)


@dataclass
class OptimConfig:
    learning_rate: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0005
    epochs: int = 1
    seed: int = 0

    def __post_init__(self):
        # lr = 0 is allowed: it makes training a documented no-op
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")


class OptimState:
    """The velocity of every parameter tensor, kept in `store`, a
    ModelParams of zeros shaped like the parameters."""

    __slots__ = ("store",)

    def __init__(self, params):
        self.store = params.zeros_like()


def _storage(params):
    """The arrays that params.tensors() are views of: the cell's packed
    arrays, then each head's w and b."""
    return ([getattr(params.cell, a) for a in CellParams.STORAGE]
            + [t for head in params.heads for t in head])


def _layout(params):
    return [(name, t.shape) for name, t in params.tensors()]


def sgd_step(params, grads, state: OptimState, cfg: OptimConfig):
    """v <- momentum * v - lr * (g + weight_decay * w); w <- w + v.

    The rule is elementwise, so it runs once per packed array rather than
    once per tensor view. When a gradient or an updated weight is not
    finite, NumericError names the first such tensor in canonical order,
    a non-finite gradient before a non-finite update of the same tensor,
    and no weight or velocity changes, not even those of the tensors
    before it."""
    ws, gs, vs = _storage(params), _storage(grads), _storage(state.store)
    shapes = [w.shape for w in ws]
    for other, what in ((grads, "gradient"), (state.store, "velocity")):
        if [a.shape for a in _storage(other)] != shapes:
            raise ValueError(f"{what} tensors {_layout(other)} do not match the "
                             f"parameters {_layout(params)}")
    # an overflow shows in the new weights, which are checked (a
    # non-finite gradient makes them non-finite too); only the new
    # velocities are held until the check passes
    with np.errstate(over="ignore", invalid="ignore"):
        v_new = [cfg.momentum * v - cfg.learning_rate * (g + cfg.weight_decay * w)
                 for w, g, v in zip(ws, gs, vs)]
        if not all(np.isfinite(w + v).all() for w, v in zip(ws, v_new)):
            _raise_first_fault(params, grads, v_new)
    for w, v, v1 in zip(ws, vs, v_new):
        v[...] = v1
        w += v1


def _raise_first_fault(params, grads, v_new):
    """NumericError naming the first tensor, in canonical order, whose
    gradient or else whose new weights w + v_new are not finite."""
    updated = params.zeros_like()
    for a, w, v in zip(_storage(updated), _storage(params), v_new):
        np.add(w, v, out=a)
    for (name, g), (_, w) in zip(grads.tensors(), updated.tensors()):
        if not np.isfinite(g).all():
            raise NumericError(f"non-finite gradient in tensor {name}")
        if not np.isfinite(w).all():
            raise NumericError(f"non-finite update of tensor {name}")


GRAD_CHECK_STEP = 1e-5
GRAD_CHECK_TOLERANCE = 1e-5
GRAD_CHECK_MODE = "train"


@dataclass
class GradCheckReport:
    tensor_errors: dict
    max_error: float
    tolerance: float
    passed: bool


def grad_check(sample, params, cfg, rng) -> GradCheckReport:
    """Central-difference check of the full-network backward pass.

    Runs one GRAD_CHECK_MODE forward pass, freezes its structure (visit
    orders and partitions), and compares the analytic gradient of the
    total loss against (L(w+step) - L(w-step)) / (2 step), step
    GRAD_CHECK_STEP, per parameter coordinate, replaying the frozen
    structure for every probe. It passes when every relative error
    |a - n| / max(|a|, |n|, 1e-8) is below GRAD_CHECK_TOLERANCE. Every
    probed weight is restored, also when a probe raises.
    """
    result = forward(sample, params, cfg, rng, mode=GRAD_CHECK_MODE)
    plan = result.plan()
    analytic = dict(backward(result, sample, cfg).tensors())

    def loss_now():
        replay = forward(sample, params, cfg, None, mode=GRAD_CHECK_MODE, plan=plan)
        return compute_loss(replay, sample, cfg)[0]

    errors = {}
    for name, w in params.tensors():
        tensor_worst = 0.0
        flat_w, flat_a = w.reshape(-1), analytic[name].reshape(-1)
        for k in range(flat_w.size):
            orig = flat_w[k]
            try:
                flat_w[k] = orig + GRAD_CHECK_STEP
                loss_plus = loss_now()
                flat_w[k] = orig - GRAD_CHECK_STEP
                loss_minus = loss_now()
            finally:
                flat_w[k] = orig
            numeric = (loss_plus - loss_minus) / (2.0 * GRAD_CHECK_STEP)
            rel = abs(flat_a[k] - numeric) / max(abs(flat_a[k]), abs(numeric), 1e-8)
            tensor_worst = max(tensor_worst, rel)
        errors[name] = tensor_worst
    worst = max(errors.values())
    return GradCheckReport(errors, worst, GRAD_CHECK_TOLERANCE, worst < GRAD_CHECK_TOLERANCE)


def evaluate_accuracy(dataset, params, cfg, seed: int, epoch: int = 0) -> float:
    """Pooled node accuracy under test-mode prediction, one derived rng
    stream per sample. Consecutive samples are predicted together, as the
    unions of network.union_batches, each sample with its own stream. An
    empty dataset has no accuracy: ValueError."""
    correct = 0
    total = 0
    for union, rngs in union_batches(dataset, [seed, epoch, 2]):
        pred = predict(union, params, cfg, rngs)
        correct += int((pred == union.labels).sum())
        total += union.labels.size
    if not total:
        raise ValueError("evaluation dataset is empty")
    return correct / total


LOG_COLUMNS = ("epoch", "total_loss", "task_loss", "edge_loss", "eval_accuracy")


def format_log_row(row) -> str:
    return "\t".join(repr(row[c]) if isinstance(row[c], float) else str(row[c])
                     for c in LOG_COLUMNS)


def train(dataset, params, net_cfg, opt_cfg: OptimConfig, eval_dataset=None,
          checkpoint_dir=None, log_path=None, progress=None):
    """Batch-size-1 SGD over the dataset.

    Per epoch: a seeded shuffle, one forward/backward/sgd_step per sample,
    an accuracy evaluation (on eval_dataset when given, else the training
    set), an optional checkpoint, and one log row. Returns the log rows.
    write_lines_atomic writes the log at `log_path` whole: the header
    first, and after each epoch the header and every row so far. A
    non-finite loss, gradient or weight update aborts with the offending
    sample id and epoch.
    """
    if not dataset:
        raise ValueError("training dataset is empty")
    if eval_dataset is not None and not eval_dataset:
        raise ValueError("evaluation dataset is empty")
    state = OptimState(params)
    rows = []

    def write_log():
        if log_path:
            write_lines_atomic(log_path, itertools.chain(
                ["\t".join(LOG_COLUMNS)], (format_log_row(r) for r in rows)))

    write_log()
    for epoch in range(1, opt_cfg.epochs + 1):
        order = np.random.default_rng([opt_cfg.seed, epoch, 0]).permutation(len(dataset))
        total_sum = task_sum = edge_sum = 0.0
        for sample_id in order:
            sample = dataset[int(sample_id)]
            rng = np.random.default_rng([opt_cfg.seed, epoch, 1, int(sample_id)])
            result = forward(sample, params, net_cfg, rng, mode="train")
            total, task, edge = compute_loss(result, sample, net_cfg)
            if not math.isfinite(total):
                raise NumericError(
                    f"non-finite loss {total} at sample {sample_id} in epoch {epoch}")
            grads = backward(result, sample, net_cfg)
            try:
                sgd_step(params, grads, state, opt_cfg)
            except NumericError as exc:
                raise NumericError(f"{exc} at sample {sample_id} in epoch {epoch}") from exc
            total_sum += total
            task_sum += task
            edge_sum += edge
        acc = evaluate_accuracy(eval_dataset if eval_dataset is not None else dataset,
                                params, net_cfg, opt_cfg.seed, epoch)
        row = {
            "epoch": epoch,
            "total_loss": total_sum / len(dataset),
            "task_loss": task_sum / len(dataset),
            "edge_loss": edge_sum / len(dataset),
            "eval_accuracy": acc,
        }
        rows.append(row)
        write_log()
        if checkpoint_dir is not None:
            save_checkpoint(f"{checkpoint_dir}/epoch_{epoch:03d}.ckpt", params, net_cfg)
        if progress is not None:
            progress(row)
    return rows
