"""The sevolve benchmark: seeded inputs, set-up, the timed loop, output
checks and the metrics they yield.

Every workload calls the package through module attributes
(`network.predict`, `optim.train`, ...). The checking wrappers of `Hooks`
and the spans of `Tracer` are installed on those attributes, so they see
the benchmark's own calls and the calls the package makes internally alike.
"""

from __future__ import annotations

import inspect
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from sevolve import data, evolve, network, optim  # noqa: E402
from sevolve.evolve import EvolveConfig  # noqa: E402
from sevolve.graph import CliquePartition  # noqa: E402

from tracer import Tracer  # noqa: E402

MODEL_PATH = HERE / "model.ckpt"
SETUP_REPEATS = 5
# a percentile is reported only when this many samples lie beyond it
MIN_TAIL = 10
# times are scaled to a host on which SpeedProbe's loop takes this long
REFERENCE_MS = 20.0

END_TO_END = {
    "setup_s": "s",
    "samples_per_s": "1/s",
    "sample_ms.p50": "ms",
    "sample_ms.p75": "ms",
    "accuracy": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cell.cell_forward.calls": "count",
    "cell.cell_forward.ms": "ms",
    "cell.cell_forward.us_per_call": "us",
    "network.forward.ms": "ms",
    "network.forward.self_ms": "ms",
    "network.backward.ms": "ms",
    "network.compute_loss.ms": "ms",
    "optim.sgd_step.ms": "ms",
    "network.save_checkpoint.ms": "ms",
    "optim.evaluate_accuracy.ms": "ms",
    "evolve.evolve_step.ms": "ms",
    "evolve.trials": "count",
    "evolve.accept_rate": "fraction",
    "evolve.posterior_evals": "count",
    "evolve.posterior_skipped": "count",
    "evolve.posterior_eval_frac": "fraction",
    "graph.quotient_graph.calls": "count",
    "graph.quotient_graph.ms": "ms",
    "graph.aggregate_node_values.ms": "ms",
    "graph.level_nodes": "count",
    "graph.level_shrink": "fraction",
    "data.load_dataset.ms": "ms",
    "network.load_checkpoint.ms": "ms",
    "trace.overhead_frac": "fraction",
}

# (span name, attribute, modules whose attribute is wrapped): each function
# is wrapped at every name a caller looks it up by
SPANS = (
    ("cell.cell_forward", "cell_forward", (network,)),
    ("evolve.evolve_step", "evolve_step", (network,)),
    ("evolve.evolve_deterministic", "evolve_deterministic", (network,)),
    ("graph.quotient_graph", "quotient_graph", (network, evolve)),
    ("graph.aggregate_node_values", "aggregate_node_values", (network,)),
    ("network.forward", "forward", (network, optim)),
    ("network.backward", "backward", (network, optim)),
    ("network.compute_loss", "compute_loss", (network, optim)),
    ("optim.sgd_step", "sgd_step", (optim,)),
    ("network.predict", "predict", (network, optim)),
    ("network.save_checkpoint", "save_checkpoint", (network, optim)),
    ("optim.evaluate_accuracy", "evaluate_accuracy", (optim,)),
    ("data.load_dataset", "load_dataset", (data,)),
    ("network.load_checkpoint", "load_checkpoint", (network,)),
)


def model_config() -> network.NetworkConfig:
    """4 labels, D = H = 6, 5 layers, MH evolution with the CLI's 50 trials."""
    return network.NetworkConfig(input_dim=6, num_classes=4, num_layers=5, hidden_dim=6,
                                 evolve=EvolveConfig(max_trials=50))


def gen_config(grid_n: int, seed: int) -> data.GenConfig:
    net = model_config()
    return data.GenConfig(grid_n=grid_n, num_labels=net.num_classes,
                          feature_dim=net.input_dim, seed=seed)


class OutputCheckError(Exception):
    """An operation's output failed the benchmark's check."""


def require(cond, what: str):
    if not cond:
        raise OutputCheckError(what)


class Ops:
    """Operations attempted and failed, and the latency of each completed
    one by kind. An operation is one training step or one prediction."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.latency_ms = {"train": [], "predict": []}

    def begin(self):
        self.attempted += 1

    def run(self, fn):
        """Return fn(), or None when it raises: that fails the operation
        in progress, or one attempted before any began."""
        before = self.attempted
        try:
            return fn()
        except Exception as exc:  # the run goes on and reports the failure
            self.attempted = max(self.attempted, before + 1)
            self._fail(f"{type(exc).__name__}: {exc}")
            return None

    def check(self, name, fn):
        """A once-per-run check, counted as one operation that fails when
        fn() raises or returns anything but True."""
        self.begin()
        try:
            if fn() is True:
                return
            what = "returned false"
        except Exception as exc:  # a raise is a failed check, not a crash
            what = f"{type(exc).__name__}: {exc}"
        self._fail(f"check {name}: {what}")

    def _fail(self, what):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)


class Hooks:
    """Wrappers that begin each operation, time it and check its output,
    and counters read from the forward passes they see."""

    COUNTS = ("forwards", "base_nodes", "level_nodes", "trials", "accepted",
              "posterior_evals", "posterior_skipped")

    def __init__(self, ops: Ops):
        self.ops = ops
        self.counts = dict.fromkeys(self.COUNTS, 0)
        # summed node count of each level over all forward passes
        self.level_sizes = []
        # the last forward pass, for callers that only get its argmax
        self.last_result = None
        self._step_start = None

    def wrappers(self):
        """(attribute, modules, wrapper factory), as in SPANS."""
        return (("forward", (network, optim), self._forward),
                ("compute_loss", (network, optim), self._compute_loss),
                ("sgd_step", (optim,), self._sgd_step),
                ("predict", (network, optim), self._predict))

    def _forward(self, fn):
        sig = inspect.signature(fn)

        def forward(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if bound.arguments["mode"] == "train":
                self.ops.begin()
                self._step_start = time.perf_counter()
            result = fn(*args, **kwargs)
            self._check_result(result, bound.arguments["sample"], bound.arguments["cfg"])
            self._count(result)
            self.last_result = result
            return result

        return forward

    def _compute_loss(self, fn):
        def compute_loss(*args, **kwargs):
            losses = fn(*args, **kwargs)
            require(all(np.isfinite(losses)), f"non-finite loss {losses}")
            return losses

        return compute_loss

    def _sgd_step(self, fn):
        def sgd_step(*args, **kwargs):
            fn(*args, **kwargs)
            if self._step_start is not None:
                self.ops.latency_ms["train"].append(
                    1e3 * (time.perf_counter() - self._step_start))
                self._step_start = None

        return sgd_step

    def _predict(self, fn):
        sig = inspect.signature(fn)

        def predict(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            self.ops.begin()
            start = time.perf_counter()
            pred = fn(*args, **kwargs)
            self.ops.latency_ms["predict"].append(1e3 * (time.perf_counter() - start))
            n = bound.arguments["sample"].num_nodes
            classes = bound.arguments["cfg"].num_classes
            require(pred.shape == (n,) and np.issubdtype(pred.dtype, np.integer),
                    f"prediction of shape {pred.shape} and dtype {pred.dtype} for {n} nodes")
            require(pred.min() >= 0 and pred.max() < classes,
                    f"prediction outside [0, {classes})")
            return pred

        return predict

    @staticmethod
    def _check_result(result, sample, cfg):
        trace = result.trace
        levels = trace.levels
        require(len(levels) == cfg.num_layers and len(trace.partitions) == len(levels) - 1,
                f"{len(levels)} levels and {len(trace.partitions)} partitions "
                f"for {cfg.num_layers} layers")
        require(levels[0].num_nodes == sample.num_nodes, "base level is not the sample graph")
        for k, part in enumerate(trace.partitions):
            require(part.num_nodes == levels[k].num_nodes
                    and part.num_cliques == levels[k + 1].num_nodes,
                    f"partition {k} does not map level {k} onto level {k + 1}")
        for k, g in enumerate(levels):
            require(result.level_logits[k].shape == (g.num_nodes, cfg.num_classes),
                    f"level {k} logits have shape {result.level_logits[k].shape}")
            p = trace.edge_probs[k]
            require(p.shape == (g.num_edges,) and bool(np.all((p >= 0.0) & (p <= 1.0))),
                    f"level {k} merge probabilities are not one per edge in [0, 1]")
        logits = result.combined_logits
        require(logits.shape == (sample.num_nodes, cfg.num_classes)
                and bool(np.isfinite(logits).all()), "combined logits malformed or non-finite")

    def _count(self, result):
        c = self.counts
        levels = result.trace.levels
        c["forwards"] += 1
        c["base_nodes"] += levels[0].num_nodes
        for k, g in enumerate(levels):
            c["level_nodes"] += g.num_nodes
            if k == len(self.level_sizes):
                self.level_sizes.append(0)
            self.level_sizes[k] += g.num_nodes
        for trials in result.trace.decisions:
            c["trials"] += len(trials)
            c["accepted"] += sum(t.accepted for t in trials)
            # test mode never calls the posterior, whatever the flag says
            if result.mode == "train":
                evaluated = sum(t.posterior_evaluated for t in trials)
                c["posterior_evals"] += evaluated
                c["posterior_skipped"] += len(trials) - evaluated


class Patches:
    """Module attributes replaced by wrappers, restored in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, attr, modules, make):
        for module in modules:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, make(original))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def install(patches: Patches, hooks: Hooks, tracer: Tracer | None = None):
    """Spans innermost, so that they time the package and not the checks."""
    if tracer is not None:
        for name, attr, modules in SPANS:
            patches.wrap(attr, modules, lambda fn, name=name: tracer.wrap(name, fn))
    for attr, modules, make in hooks.wrappers():
        patches.wrap(attr, modules, make)


def pooled_plan_partitions(side: int, levels: int):
    """2x2 block pooling of a side x side grid, `levels - 1` times."""
    parts = []
    for _ in range(levels - 1):
        rows, cols = np.divmod(np.arange(side * side), side)
        half = side // 2
        parts.append(CliquePartition((rows // 2) * half + cols // 2, half * half))
        side = half
    return parts


class Workload:
    """One set of inputs and the unit of work timed on them.

    `unit(state, k)` does the k-th unit and returns (samples, key, record):
    the samples it processed, and a (loss, accuracy) record that every unit
    with the same key must reproduce exactly."""

    name = ""
    latency_kind = "train"
    # units that make one pass over the inputs
    min_units = 1

    def __init__(self, seed: int, workdir: Path, hooks: Hooks):
        self.seed = seed
        self.workdir = workdir
        self.hooks = hooks
        self.net = model_config()

    def _save(self, name, grid_n, count, first=0):
        full = data.generate_dataset(gen_config(grid_n, self.seed), first + count)
        path = self.workdir / name
        data.save_dataset(path, data.DatasetFile(full.feature_dim, full.num_labels,
                                                 full.samples[first:]))
        return path


class TrainG16(Workload):
    """One epoch of `optim.train` per unit, as `sevolve train --eval-dataset`
    runs it: batch-1 SGD with the CLI defaults, then held-out accuracy, a
    checkpoint and a log row. Every unit starts from the same weights."""

    name = "train-g16"
    TRAIN, EVAL = 8, 4

    def __init__(self, *args):
        super().__init__(*args)
        self.train_path = self._save("train.txt", 16, self.TRAIN)
        self.eval_path = self._save("eval.txt", 16, self.EVAL, first=self.TRAIN)
        self.opt = optim.OptimConfig(epochs=1, seed=self.seed)

    def setup(self):
        train = data.load_dataset(self.train_path)
        held_out = data.load_dataset(self.eval_path)
        params, _ = network.load_checkpoint(MODEL_PATH)
        return train.samples, held_out.samples, params

    def unit(self, state, k):
        train, held_out, params = state
        rows = optim.train(train, params.copy(), self.net, self.opt, eval_dataset=held_out,
                           checkpoint_dir=str(self.workdir),
                           log_path=self.workdir / "train_log.tsv")
        return len(train), 0, (rows[-1]["total_loss"], rows[-1]["eval_accuracy"])


class PredictG32(Workload):
    """One test-mode `network.predict` per unit, cycling over the inputs
    with one derived rng stream per input, as `sevolve eval` does."""

    name = "predict-g32"
    latency_kind = "predict"
    SAMPLES = min_units = 8

    def __init__(self, *args):
        super().__init__(*args)
        self.path = self._save("inputs.txt", 32, self.SAMPLES)

    def setup(self):
        params, _ = network.load_checkpoint(MODEL_PATH)
        return data.load_dataset(self.path).samples, params

    def unit(self, state, k):
        samples, params = state
        idx = k % len(samples)
        sample = samples[idx]
        pred = network.predict(sample, params, self.net, np.random.default_rng([self.seed, 3, idx]))
        # scoring the prediction is the benchmark's, not the workload's, work
        loss = network.compute_loss(self.hooks.last_result, sample, self.net)[0]
        return 1, idx, (loss, float(np.mean(pred == sample.labels)))


class TrainPyramidG32(Workload):
    """Training steps that replay a fixed hierarchy: 2x2 block pooling of a
    32x32 grid (1024, 256, 64, 16, 4 nodes) with seeded visit orders. One
    unit is one pass over the inputs from the same starting weights."""

    name = "train-pyramid-g32"
    SAMPLES = 8
    SIDE = 32

    def __init__(self, *args):
        super().__init__(*args)
        self.path = self._save("inputs.txt", self.SIDE, self.SAMPLES)
        parts = pooled_plan_partitions(self.SIDE, self.net.num_layers)
        self.sizes = [self.SIDE * self.SIDE] + [p.num_cliques for p in parts]
        self.plans = []
        for idx in range(self.SAMPLES):
            rng = np.random.default_rng([self.seed, 5, idx])
            orders = [rng.permutation(n) for n in self.sizes]
            self.plans.append(network.StructurePlan(orders, parts))
        self.opt = optim.OptimConfig()

    def setup(self):
        params, _ = network.load_checkpoint(MODEL_PATH)
        return data.load_dataset(self.path).samples, params

    def unit(self, state, k):
        samples, start = state
        params = start.copy()
        opt_state = optim.OptimState(params)
        losses = []
        accuracies = []
        for sample, plan in zip(samples, self.plans):
            result = network.forward(sample, params, self.net, None, mode="train", plan=plan)
            sizes = [g.num_nodes for g in result.trace.levels]
            require(sizes == self.sizes, f"level sizes {sizes} differ from the plan's {self.sizes}")
            losses.append(network.compute_loss(result, sample, self.net)[0])
            hits = result.combined_logits.argmax(axis=1) == sample.labels
            accuracies.append(float(np.mean(hits)))
            optim.sgd_step(params, network.backward(result, sample, self.net), opt_state, self.opt)
        return len(samples), 0, (float(np.mean(losses)), float(np.mean(accuracies)))


WORKLOADS = {w.name: w for w in (TrainG16, PredictG32, TrainPyramidG32)}


def check_replay(seed: int) -> bool:
    """Replaying a train-g16 sample's structure reproduces its logits bit for bit."""
    net = model_config()
    params, _ = network.load_checkpoint(MODEL_PATH)
    sample = data.generate_sample(gen_config(16, seed), np.random.default_rng([seed, 0]))
    result = network.forward(sample, params, net, np.random.default_rng([seed, 7]), mode="train")
    replay = network.forward(sample, params, net, None, mode="train", plan=result.plan())
    return bool(np.array_equal(result.combined_logits, replay.combined_logits))


def check_gradients() -> bool:
    """`grad_check` on a 2x2 grid with cell weights x5 and head noise 0.3:
    at init-scale weights finite-difference noise alone exceeds the
    tolerance although backward is exact. The input is fixed, not drawn
    from the workload seed: on about one random 2x2 input in eight the
    central difference of a near-zero gradient component still misses the
    tolerance (the error falls as the step grows), and this check is of the
    program, not of the workload's data."""
    net = network.NetworkConfig(input_dim=2, num_classes=2, num_layers=2,
                                evolve=EvolveConfig(max_trials=5))
    rng = np.random.default_rng([0, 8])
    sample = data.generate_sample(data.GenConfig(grid_n=2, num_labels=2, feature_dim=2), rng)
    params = network.init_params(net, rng)
    for _, t in params.cell.tensors():
        t *= 5.0
    for w, _ in params.heads:
        w += rng.normal(0.0, 0.3, w.shape)
    return bool(optim.grad_check(sample, params, net, rng).passed)


def percentiles(values):
    """{q: value} for p50, p75 and p90, each only when at least MIN_TAIL
    samples lie beyond it."""
    arr = np.asarray(values, dtype=np.float64)
    if not arr.size:
        return {}
    out = {}
    for q in (50, 75, 90):
        v = float(np.percentile(arr, q))
        if int((arr > v).sum()) >= MIN_TAIL:
            out[q] = v
    return out


class SpeedProbe:
    """Times a fixed loop, which does not use sevolve, between timed
    stretches, and scales each stretch to a host on which the loop takes
    REFERENCE_MS.

    The host's speed drifts by up to a third over tens of seconds when its
    cores are shared: step times of one 30 s run have a median anywhere from
    136 to 184 ms. The loop, a mix of interpreter work and small numpy
    calls like the cell sweep, slows with the host, so the scaled times
    spread by a few percent where the raw ones spread by 15-20%."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._weights = rng.normal(size=(24, 6))
        self._rows = rng.normal(size=(256, 6))
        self._idx = np.array([1, 3, 5, 7])
        self._keys = list(range(32))
        self._last = self._time_loop()

    def _loop(self):
        acc = 0.0
        for i in range(1500):
            z = self._weights @ self._rows[i & 255] + 0.5
            gates = 1.0 / (1.0 + np.exp(-z[:18]))
            nbr = self._rows.take(self._idx, axis=0).sum(axis=0) / 4
            acc += float(gates[0] * nbr[0]) + len({k: k for k in self._keys[:i & 31]})
        return acc

    def _time_loop(self):
        start = time.perf_counter()
        self._loop()
        return 1e3 * (time.perf_counter() - start)

    def scale(self) -> float:
        """Factor for the stretch since the previous call (or creation):
        REFERENCE_MS over the mean loop time just before and just after it."""
        now = self._time_loop()
        factor = REFERENCE_MS / (0.5 * (self._last + now))
        self._last = now
        return factor


class Measured:
    """Scaled samples/s of each successful unit, scaled latencies of the
    operations, and the record of each key."""

    def __init__(self):
        self.rates = []
        self.raw_rates = []
        self.latency_ms = []
        self.reference = {}


def measure(workload, state, ops, seconds) -> Measured:
    """Run units until `seconds` have passed and at least one pass is done."""
    out = Measured()
    probe = SpeedProbe()
    latency = ops.latency_ms[workload.latency_kind]
    deadline = time.perf_counter() + seconds
    k = 0

    def one_unit():
        samples, key, record = workload.unit(state, k)
        first = out.reference.setdefault(key, record)
        require(first == record, f"unit {k} gave {record}, the same inputs gave {first} before")
        return samples

    while k < workload.min_units or time.perf_counter() < deadline:
        done = len(latency)
        start = time.perf_counter()
        samples = ops.run(one_unit)
        elapsed = time.perf_counter() - start
        factor = probe.scale()
        if samples is not None:
            out.raw_rates.append(samples / elapsed)
            out.rates.append(samples / (elapsed * factor))
        out.latency_ms.extend(ms * factor for ms in latency[done:])
        k += 1
    return out


def timed_setup(workload):
    """The median scaled time of SETUP_REPEATS set-ups, and the last state."""
    probe = SpeedProbe()
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup()
        times.append((time.perf_counter() - start) * probe.scale())
    return statistics.median(times), state


def end_to_end_metrics(ops, setup_s, measured):
    latency = percentiles(measured.latency_ms)
    if not measured.rates or 75 not in latency:
        raise RuntimeError(f"{len(measured.rates)} units and {len(measured.latency_ms)} "
                           "latency samples are too few: run longer")
    records = list(measured.reference.values())
    return {
        "setup_s": setup_s,
        "samples_per_s": statistics.median(measured.rates),
        "sample_ms.p50": latency[50],
        "sample_ms.p75": latency[75],
        "accuracy": float(np.mean([r[1] for r in records])),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer_metrics(tracer, hooks, overhead_frac):
    spans = tracer.summary()
    c = hooks.counts
    per_sample = max(c["forwards"], 1)

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def ms(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def per_call(name):
        return ms(name) / calls(name) if calls(name) else 0.0

    train_trials = c["posterior_evals"] + c["posterior_skipped"]
    return {
        "cell.cell_forward.calls": calls("cell.cell_forward") / per_sample,
        "cell.cell_forward.ms": ms("cell.cell_forward") / per_sample,
        "cell.cell_forward.us_per_call": 1e3 * per_call("cell.cell_forward"),
        "network.forward.ms": ms("network.forward") / per_sample,
        "network.forward.self_ms": spans.get("network.forward", (0, 0.0, 0.0))[2] / per_sample,
        "network.backward.ms": ms("network.backward") / per_sample,
        "network.compute_loss.ms": ms("network.compute_loss") / per_sample,
        "optim.sgd_step.ms": ms("optim.sgd_step") / per_sample,
        "network.save_checkpoint.ms": per_call("network.save_checkpoint"),
        "optim.evaluate_accuracy.ms": per_call("optim.evaluate_accuracy"),
        "evolve.evolve_step.ms": ms("evolve.evolve_step") / per_sample,
        "evolve.trials": c["trials"] / per_sample,
        "evolve.accept_rate": c["accepted"] / c["trials"] if c["trials"] else 0.0,
        "evolve.posterior_evals": c["posterior_evals"] / per_sample,
        "evolve.posterior_skipped": c["posterior_skipped"] / per_sample,
        "evolve.posterior_eval_frac": c["posterior_evals"] / train_trials if train_trials else 0.0,
        "graph.quotient_graph.calls": calls("graph.quotient_graph") / per_sample,
        "graph.quotient_graph.ms": ms("graph.quotient_graph") / per_sample,
        "graph.aggregate_node_values.ms": ms("graph.aggregate_node_values") / per_sample,
        "graph.level_nodes": c["level_nodes"] / per_sample,
        "graph.level_shrink": (c["level_nodes"] / (model_config().num_layers * c["base_nodes"])
                               if c["base_nodes"] else 0.0),
        "data.load_dataset.ms": per_call("data.load_dataset"),
        "network.load_checkpoint.ms": per_call("network.load_checkpoint"),
        "trace.overhead_frac": overhead_frac,
    }


def run_workload(name: str, seed: int, seconds: float, workdir: Path, spans_path=None):
    """Run one workload; returns (result, details). With a `spans_path`
    the run is traced: the first half of the time is measured untraced,
    the second half traced, the ratio of their median unit rates is the
    tracing overhead, and the spans are written to `spans_path`."""
    trace = spans_path is not None
    ops = Ops()
    ops.check("replay", lambda: check_replay(seed))
    ops.check("grad_check", check_gradients)

    hooks = Hooks(ops)
    workload = WORKLOADS[name](seed, workdir, hooks)
    patches = Patches()
    try:
        install(patches, hooks)
        setup_s, state = timed_setup(workload)
        measured = measure(workload, state, ops, seconds / 2 if trace else seconds)
        if trace:
            patches.restore()
            hooks = workload.hooks = Hooks(ops)
            tracer = Tracer(ops)
            install(patches, hooks, tracer)
            _, state = timed_setup(workload)
            traced = measure(workload, state, ops, seconds / 2)
            overhead = statistics.median(measured.rates) / statistics.median(traced.rates) - 1.0
            metrics = per_layer_metrics(tracer, hooks, overhead)
            tracer.dump(spans_path)
        else:
            metrics = end_to_end_metrics(ops, setup_s, measured)
    finally:
        patches.restore()
    records = list(measured.reference.values())
    details = dict(
        loss=float(np.mean([r[0] for r in records])) if records else None,
        units=len(measured.rates),
        unscaled_samples_per_s=(statistics.median(measured.raw_rates)
                                if measured.raw_rates else None),
        latency_samples=len(measured.latency_ms),
        p90_ms=percentiles(measured.latency_ms).get(90),
        unscaled_latency_ms={k: percentiles(v) for k, v in ops.latency_ms.items()},
        level_sizes=[s / max(hooks.counts["forwards"], 1) for s in hooks.level_sizes],
        counts=dict(hooks.counts),
        errors=ops.errors,
    )
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, details


def environment():
    """What the numbers depend on besides the code: versions, BLAS, CPU, threads."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "commit": _commit(),
    }


def _commit():
    """HEAD's commit when run from a git checkout, else 'unknown'."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"
