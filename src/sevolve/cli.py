"""Command-line entry point: dataset generation, training, evaluation,
and single-sample evolution inspection.

COMMANDS is the one list of flags: per command, its handler, its help
string and the RunConfig fields it takes as `--<field>` flags, each
typed from the field's annotation.

Exit codes: 0 success, 2 config/validation error or a size that does not
fit in memory, 3 I/O error, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass, fields
from typing import get_args, get_type_hints

import numpy as np

from sevolve.data import (
    DatasetError,
    GenConfig,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from sevolve.dot import graph_to_dot, trace_to_dot
from sevolve.evolve import EvolveConfig, trace_records
from sevolve.network import (
    NetworkConfig,
    forward,
    init_params,
    load_checkpoint,
    predict,
    read_lines,
    save_checkpoint,
    union_batches,
    write_lines_atomic,
)
from sevolve.optim import NumericError, OptimConfig, train

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


@dataclass
class RunConfig:
    """All tunables of every command, overridable from a `key = value`
    config file and then from command-line flags."""

    # network
    layers: int = 5
    hidden_dim: int | None = None
    edge_loss_weight: float = 1.0
    # evolution
    max_trials: int = 50
    threshold: float | None = None
    # optimizer
    lr: float = 0.001
    momentum: float = 0.9
    weight_decay: float = 0.0005
    epochs: int = 60
    seed: int = 0
    # data generation
    grid_n: int = 8
    labels: int = 4
    num_seeds: int | None = None
    feature_dim: int | None = None
    noise: float = 0.5
    samples: int = 200
    # paths and selection
    dataset: str | None = None
    eval_dataset: str | None = None
    checkpoint: str | None = None
    out: str | None = None
    out_dir: str | None = None
    sample_index: int = 0


_FIELD_TYPES = get_type_hints(RunConfig)


def _field_type(key: str):
    """int, float or str: the type of RunConfig's field `key` when set."""
    return (get_args(_FIELD_TYPES[key]) or (_FIELD_TYPES[key],))[0]


def _coerce(key: str, raw: str):
    if type(None) in get_args(_FIELD_TYPES[key]) and raw.lower() in ("none", ""):
        return None
    return _field_type(key)(raw)


def load_config_file(path, cfg: RunConfig) -> RunConfig:
    """Apply `key = value` lines (# comments allowed); unknown keys are
    rejected."""
    for lineno, line in enumerate(read_lines(path), start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in text.split("=", 1))
        if key not in _FIELD_TYPES:
            raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            setattr(cfg, key, _coerce(key, raw))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return cfg


def _resolve_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        load_config_file(args.config, cfg)
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            setattr(cfg, f.name, value)
    if cfg.seed < 0:   # numpy's own error names neither the flag nor the bound
        raise ValueError(f"seed must be >= 0, got {cfg.seed}")
    return cfg


def _network_config(cfg: RunConfig, input_dim: int, num_classes: int, num_layers: int,
                    hidden_dim: int | None) -> NetworkConfig:
    return NetworkConfig(
        input_dim=input_dim,
        num_classes=num_classes,
        num_layers=num_layers,
        hidden_dim=hidden_dim,
        edge_loss_weight=cfg.edge_loss_weight,
        evolve=EvolveConfig(max_trials=cfg.max_trials, threshold=cfg.threshold),
    )


def cmd_generate(cfg: RunConfig) -> int:
    if not cfg.out:
        raise ValueError("generate requires --out (or 'out' in the config file)")
    gen = GenConfig(grid_n=cfg.grid_n, num_labels=cfg.labels, num_seeds=cfg.num_seeds,
                    feature_dim=cfg.feature_dim, noise=cfg.noise, seed=cfg.seed)
    dataset = generate_dataset(gen, cfg.samples)
    save_dataset(cfg.out, dataset)
    frac = 0.0
    if dataset.samples:
        # per sample, the fraction of edges whose endpoints share a label
        ends = [s.labels[s.graph.edges] for s in dataset.samples]
        frac = float(np.mean([(e[:, 0] == e[:, 1]).mean() for e in ends]))
    print(f"samples={len(dataset)} same_label_edge_fraction={frac!r}")
    return EXIT_OK


def cmd_train(cfg: RunConfig) -> int:
    if not cfg.dataset:
        raise ValueError("train requires --dataset")
    if not cfg.out_dir:
        raise ValueError("train requires --out-dir")
    dataset = load_dataset(cfg.dataset)
    eval_samples = None
    if cfg.eval_dataset:
        eval_file = load_dataset(cfg.eval_dataset)
        if (eval_file.feature_dim != dataset.feature_dim
                or eval_file.num_labels != dataset.num_labels):
            raise ValueError("eval dataset dims do not match the training dataset")
        eval_samples = eval_file.samples
    net = _network_config(cfg, dataset.feature_dim, dataset.num_labels, cfg.layers,
                          cfg.hidden_dim)
    opt = OptimConfig(learning_rate=cfg.lr, momentum=cfg.momentum,
                      weight_decay=cfg.weight_decay, epochs=cfg.epochs, seed=cfg.seed)
    params = init_params(net, np.random.default_rng([cfg.seed, 100]))
    os.makedirs(cfg.out_dir, exist_ok=True)

    started = time.perf_counter()

    def progress(row):
        print(f"epoch {row['epoch']}/{opt.epochs}: total={row['total_loss']:.4f} "
              f"task={row['task_loss']:.4f} edge={row['edge_loss']:.4f} "
              f"acc={row['eval_accuracy']:.4f} ({time.perf_counter() - started:.1f}s)",
              file=sys.stderr)

    rows = train(dataset.samples, params, net, opt, eval_dataset=eval_samples,
                 checkpoint_dir=cfg.out_dir,
                 log_path=os.path.join(cfg.out_dir, "train_log.tsv"),
                 progress=progress)
    save_checkpoint(os.path.join(cfg.out_dir, "final.ckpt"), params, net)
    print(f"final_eval_accuracy={rows[-1]['eval_accuracy']!r}")
    return EXIT_OK


def _metrics(conf: np.ndarray):
    """(accuracy, per-class IoU or None for a class absent from labels and
    predictions, mean IoU over the present classes) of a confusion matrix
    with labels along rows. A matrix that counts no node has no metrics:
    ValueError."""
    total = conf.sum()
    if not total:
        raise ValueError("confusion matrix counts no nodes")
    accuracy = float(np.trace(conf) / total)
    tp = np.diag(conf).astype(np.float64)
    fp = conf.sum(axis=0) - tp
    fn = conf.sum(axis=1) - tp
    denom = tp + fp + fn
    present = denom > 0
    iou = [float(tp[c] / denom[c]) if present[c] else None for c in range(len(tp))]
    return accuracy, iou, float(np.mean([v for v in iou if v is not None]))


def _load_model(cfg: RunConfig, command: str):
    """The checkpoint and dataset of eval and inspect, checked to agree on
    input dim and class count: (params, dataset, NetworkConfig)."""
    if not cfg.checkpoint:
        raise ValueError(f"{command} requires --checkpoint")
    if not cfg.dataset:
        raise ValueError(f"{command} requires --dataset")
    params, meta = load_checkpoint(cfg.checkpoint)
    dataset = load_dataset(cfg.dataset)
    if meta["input_dim"] != dataset.feature_dim:
        raise ValueError(
            f"checkpoint input dim {meta['input_dim']} != dataset D={dataset.feature_dim}")
    if meta["num_classes"] != dataset.num_labels:
        raise ValueError(
            f"checkpoint classes {meta['num_classes']} != dataset K={dataset.num_labels}")
    return params, dataset, _network_config(cfg, **meta)


def cmd_eval(cfg: RunConfig) -> int:
    params, dataset, net = _load_model(cfg, "eval")
    if not dataset.samples:
        raise ValueError(f"{cfg.dataset}: dataset has no samples")
    conf = np.zeros((net.num_classes, net.num_classes), dtype=np.int64)
    for union, rngs in union_batches(dataset.samples, [cfg.seed, 3]):
        pred = predict(union, params, net, rngs)
        conf += np.bincount(union.labels * net.num_classes + pred,
                            minlength=net.num_classes ** 2).reshape(conf.shape)
    accuracy, iou, mean_iou = _metrics(conf)
    record = {
        "samples": len(dataset.samples),
        "nodes": int(conf.sum()),
        "accuracy": accuracy,
        "mean_iou": mean_iou,
        "per_class_iou": iou,
    }
    print(json.dumps(record))
    print(f"{'class':>8} {'iou':>10}", file=sys.stderr)
    for c, v in enumerate(iou):
        shown = "absent" if v is None else f"{v:.4f}"
        print(f"{c:>8} {shown:>10}", file=sys.stderr)
    print(f"accuracy {accuracy:.4f}  mean_iou {mean_iou:.4f}", file=sys.stderr)
    return EXIT_OK


def cmd_inspect(cfg: RunConfig) -> int:
    if not cfg.out_dir:
        raise ValueError("inspect requires --out-dir")
    params, dataset, net = _load_model(cfg, "inspect")
    if not (0 <= cfg.sample_index < len(dataset.samples)):
        raise ValueError(
            f"sample index {cfg.sample_index} out of range "
            f"(dataset has {len(dataset.samples)} samples)")
    sample = dataset.samples[cfg.sample_index]
    rng = np.random.default_rng([cfg.seed, 4, cfg.sample_index])
    res = forward(sample, params, net, rng, mode="test")

    def trace_lines():
        for t, trial_log in enumerate(res.trace.decisions):
            yield f"# transition {t} -> {t + 1}"
            yield from trace_records(trial_log)

    os.makedirs(cfg.out_dir, exist_ok=True)
    for t, g in enumerate(res.trace.levels):
        preds = np.argmax(res.level_logits[t], axis=1)
        write_lines_atomic(os.path.join(cfg.out_dir, f"level{t}.dot"),
                           graph_to_dot(g, node_labels=preds, name=f"level{t}").splitlines())
    write_lines_atomic(os.path.join(cfg.out_dir, "hierarchy.dot"),
                       trace_to_dot(res.trace).splitlines())
    write_lines_atomic(os.path.join(cfg.out_dir, "trace.txt"), trace_lines())
    sizes = " ".join(str(g.num_nodes) for g in res.trace.levels)
    print(f"level_sizes={sizes}")
    return EXIT_OK


COMMANDS = {
    "generate": (cmd_generate, "write a synthetic dataset",
                 "seed out samples grid_n labels num_seeds feature_dim noise"),
    "train": (cmd_train, "train a model",
              "seed dataset eval_dataset out_dir layers hidden_dim edge_loss_weight "
              "max_trials threshold lr momentum weight_decay epochs"),
    "eval": (cmd_eval, "evaluate a checkpoint",
             "seed checkpoint dataset max_trials threshold"),
    "inspect": (cmd_inspect, "dump one sample's evolution trace",
                "seed checkpoint dataset out_dir sample_index max_trials threshold"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sevolve",
        description="Graph LSTM over stochastically coarsened graph hierarchies")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, keys) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value config file")
        for key in keys.split():
            p.add_argument("--" + key.replace("_", "-"), type=_field_type(key))
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.func(cfg)
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (OSError, DatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
