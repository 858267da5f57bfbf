"""Time the phases of the model's forward and backward passes in process.

    PYTHONPATH=src python3 tools/phases.py --grid 32 --mode test
    PYTHONPATH=src python3 tools/phases.py --grid 16 --mode train --repeats 20
    PYTHONPATH=src python3 tools/phases.py --grid 32 --mode load --samples 8
    PYTHONPATH=src python3 tools/phases.py --grid 16 --mode union --samples 8
    PYTHONPATH=src python3 tools/phases.py --grid 32 --mode test --against ../parent

Each phase function is wrapped at the name `network` looks it up by
(PHASES; in load mode LOAD_PHASES, at the names `data` and `network` look
them up by), so the tool sees the calls the package makes internally. A
wrapper adds the thread CPU time and the minor page faults of each call
to its phase. Calls of one phase inside another (aggregate_node_values
inside the train-mode posterior of evolve_step) count in both; `other`
is the time of an operation outside every outermost phase call. Calls
that evolve.py makes by its own names (the quotient_graph of an accepted
MH trial) count in their caller's phase only, so `quotient_graph` counts
the levels that forward builds from a replayed plan.

The inputs are --samples generated samples (GenConfig seed --seed). In
the first three modes one operation runs on one of them (derived rng
streams per input, so every repeat does the same work) with the benchmark
checkpoint (perfbench/model.ckpt, 5 layers, 50 MH trials per transition):
  test     network.predict, a test-mode forward pass;
  train    a train-mode forward pass, compute_loss and backward, with no
           weight update;
  pyramid  the same, replaying 2x2 block pooling (a 32x32 grid gives
           levels of 1024/256/64/16/4 nodes; a level of one node stays).
In union mode one operation is one network.predict over the union of all
the inputs (network.Sample.union), each with the rng stream test mode
gives it. In load mode the inputs are saved once to a temporary
directory, and one operation is data.load_dataset of that file plus
network.load_checkpoint of the benchmark checkpoint.
One untimed pass over the inputs comes first. The JSON on stdout gives
the process's peak resident set size at the end of the timed passes
(`peak_rss_mb`, ru_maxrss in MB of 1024 KB, as perfbench reports it), the
thread CPU ms per input sample (`per_sample_ms`: an operation's ms over
the inputs it covers, all of them in union and load mode), and per
operation: its thread CPU time, system time and minor page faults, and
per phase its ms, calls, us per call and minor page faults.
To compare two checkouts, run each with its own PYTHONPATH, in
alternating processes, or compare them in one process: --against DIR
imports DIR/src/sevolve under the name `sevolve_against`, beside the
`sevolve` on the import path, and runs the mode's operations of both
packages in --repeats alternating rounds (the side that goes first
alternates by round), each round one pass over the inputs. It prints
per side the median and quartiles over the rounds of the thread CPU ms
per operation and of each phase's ms per operation, and the rounds each
side took less time in. Both sides read this checkout's benchmark
checkpoint.

Minor fault counts follow the process's allocation layout (glibc's mmap
threshold rises to the largest mmapped chunk the process has freed), not
only the code: the same 16x16 train step has read 0 or 112 faults per
operation depending only on how PYTHONPATH was spelled. Compare fault
counts, like times, only over several alternating processes per side.
"""

import argparse
import contextlib
import json
import os
import resource
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

CHECKPOINT = Path(__file__).resolve().parent.parent / "perfbench" / "model.ckpt"
PHASES = ("wave_schedule", "cell_forward_batch", "cell_forward", "evolve_step",
          "quotient_graph", "aggregate_node_values", "cell_backward_node",
          "cell_backward_batch", "_loss_terms")
LOAD_PHASES = ("read_lines", "parse_block", "LevelGraph")
MODES = ("test", "train", "pyramid", "union", "load")


class PhaseClock:
    """Thread CPU time, minor page faults and calls per phase, and the time
    spent inside any outermost phase call."""

    def __init__(self, phases):
        self.ms = dict.fromkeys(phases, 0.0)
        self.faults = dict.fromkeys(phases, 0)
        self.calls = dict.fromkeys(phases, 0)
        self.inside_ms = 0.0
        self._depth = 0

    def wrap(self, name, fn):
        def timed(*args, **kwargs):
            faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
            self._depth += 1
            start = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                ms = 1e3 * (time.thread_time() - start)
                self._depth -= 1
                self.ms[name] += ms
                self.calls[name] += 1
                self.faults[name] += resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - faults
                if not self._depth:
                    self.inside_ms += ms

        return timed


def pooling_plan(network, side, num_layers, orders_rng):
    """2x2 block pooling of a side x side grid, once per transition, with
    a visit order per level drawn from `orders_rng`, built by the package
    of the `network` module. Built here, as in tools/equivalence.py:
    importing perfbench/workloads.py would put this checkout's src/ first
    on the import path."""
    CliquePartition, StructurePlan = network.CliquePartition, network.StructurePlan
    parts, sizes = [], [side * side]
    for _ in range(num_layers - 1):
        rows, cols = np.divmod(np.arange(side * side), side)
        half = (side + 1) // 2
        parts.append(CliquePartition((rows // 2) * half + cols // 2, half * half))
        side = half
        sizes.append(side * side)
    return StructurePlan([orders_rng.permutation(n) for n in sizes], parts)


def operations(data, network, grid, mode, samples, seed, workdir):
    """One callable per input, each one operation of `mode` by the package
    of the modules `data` and `network`; in union mode one callable that
    predicts their union, and in load mode one that loads every input
    from a file in `workdir`."""
    params, meta = network.load_checkpoint(CHECKPOINT)
    cfg = network.NetworkConfig(input_dim=meta["input_dim"], num_classes=meta["num_classes"],
                                num_layers=meta["num_layers"], hidden_dim=meta["hidden_dim"],
                                evolve=network.EvolveConfig(max_trials=50))
    gen = data.GenConfig(grid_n=grid, num_labels=cfg.num_classes, feature_dim=cfg.input_dim,
                         seed=seed)
    if mode == "load":
        path = Path(workdir) / "data.txt"
        data.save_dataset(path, data.generate_dataset(gen, samples))

        def load():
            data.load_dataset(path)
            network.load_checkpoint(CHECKPOINT)
        return [load]
    inputs = data.generate_dataset(gen, samples).samples
    if mode == "union":
        union = network.Sample.union(inputs)

        def predict_union():
            network.predict(union, params, cfg,
                            [np.random.default_rng([seed, 3, idx]) for idx in range(samples)])
        return [predict_union]
    ops = []
    for idx, sample in enumerate(inputs):
        if mode == "test":
            def op(sample=sample, idx=idx):
                network.predict(sample, params, cfg, np.random.default_rng([seed, 3, idx]))
        else:
            plan = (pooling_plan(network, grid, cfg.num_layers,
                                 np.random.default_rng([seed, 5, idx]))
                    if mode == "pyramid" else None)

            def op(sample=sample, idx=idx, plan=plan):
                rng = None if plan is not None else np.random.default_rng([seed, 1, idx])
                result = network.forward(sample, params, cfg, rng, mode="train", plan=plan)
                network.compute_loss(result, sample, cfg)
                network.backward(result, sample, cfg)
        ops.append(op)
    return ops


def phase_sites(data, network, mode):
    """The phase names of `mode` and the (module, name) sites to wrap."""
    phases, modules = (LOAD_PHASES, (data, network)) if mode == "load" else (PHASES, (network,))
    return phases, [(module, name) for module in modules for name in phases
                    if hasattr(module, name)]


@contextlib.contextmanager
def wrapped(sites, clock):
    """Within the block, each site's function is wrapped by `clock`."""
    saved = [(module, name, getattr(module, name)) for module, name in sites]
    try:
        for module, name, fn in saved:
            setattr(module, name, clock.wrap(name, fn))
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def measure(grid, mode, samples=4, repeats=10, seed=7):
    """The phase record of `repeats` passes over `samples` inputs."""
    from sevolve import data, network

    phases, sites = phase_sites(data, network, mode)
    clock = PhaseClock(phases)
    total_ms = sys_ms = 0.0
    faults = 0
    with tempfile.TemporaryDirectory() as workdir:
        ops = operations(data, network, grid, mode, samples, seed, workdir)
        for op in ops:
            op()
        with wrapped(sites, clock):
            for _ in range(repeats):
                for op in ops:
                    before = resource.getrusage(resource.RUSAGE_THREAD)
                    start = time.thread_time()
                    op()
                    total_ms += 1e3 * (time.thread_time() - start)
                    after = resource.getrusage(resource.RUSAGE_THREAD)
                    sys_ms += 1e3 * (after.ru_stime - before.ru_stime)
                    faults += after.ru_minflt - before.ru_minflt
    count = len(ops) * repeats
    return {"grid": grid, "mode": mode, "samples": samples, "repeats": repeats, "seed": seed,
            "numpy": np.__version__,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "per_sample_ms": total_ms / (samples * repeats),
            "per_operation": {"ms": total_ms / count, "sys_ms": sys_ms / count,
                              "minor_faults": faults / count,
                              "other_ms": (total_ms - clock.inside_ms) / count},
            "phases": {name: {"ms": clock.ms[name] / count,
                              "calls": clock.calls[name] / count,
                              "us_per_call": 1e3 * clock.ms[name] / clock.calls[name]
                              if clock.calls[name] else 0.0,
                              "minor_faults": clock.faults[name] / count}
                       for name in phases}}


AGAINST = "sevolve_against"


def import_against(checkout):
    """The data and network modules of checkout/src/sevolve, imported as
    the package AGAINST. The `sevolve` modules already imported are set
    aside meanwhile and put back after, so both packages stay loaded."""
    src = str(Path(checkout).resolve() / "src")
    ours = {k: m for k, m in sys.modules.items() if k == "sevolve" or k.startswith("sevolve.")}
    for k in ours:
        del sys.modules[k]
    sys.path.insert(0, src)
    try:
        import sevolve.data
        import sevolve.network
        data, network = sevolve.data, sevolve.network
    finally:
        sys.path.remove(src)
        theirs = [k for k in sys.modules if k == "sevolve" or k.startswith("sevolve.")]
        for k in theirs:
            sys.modules[AGAINST + k[len("sevolve"):]] = sys.modules.pop(k)
        sys.modules.update(ours)
    return data, network


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": float(q1), "median": float(median), "q3": float(q3)}


def compare(checkout, grid, mode, samples=4, rounds=10, seed=7):
    """The record of `rounds` alternating rounds of this package and the
    one of `checkout`, each round one pass over the inputs per side."""
    from sevolve import data, network

    sides = {"this": (data, network), "against": import_against(checkout)}
    clocks, ops = {}, {}
    round_ms = {side: [] for side in sides}
    phase_ms = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as workdir, contextlib.ExitStack() as stack:
        for side, (data_mod, network_mod) in sides.items():
            phases, sites = phase_sites(data_mod, network_mod, mode)
            Path(workdir, side).mkdir()
            ops[side] = operations(data_mod, network_mod, grid, mode, samples, seed,
                                   Path(workdir, side))
            for op in ops[side]:
                op()
            clocks[side] = PhaseClock(phases)
            stack.enter_context(wrapped(sites, clocks[side]))
        for r in range(rounds):
            for side in ("this", "against") if r % 2 == 0 else ("against", "this"):
                clock, count = clocks[side], len(ops[side])
                before = dict(clock.ms)
                start = time.thread_time()
                for op in ops[side]:
                    op()
                round_ms[side].append(1e3 * (time.thread_time() - start) / count)
                phase_ms[side].append({name: (clock.ms[name] - before[name]) / count
                                       for name in clock.ms})
    wins = {"this": 0, "against": 0, "ties": 0}
    for this_ms, against_ms in zip(round_ms["this"], round_ms["against"]):
        wins["this" if this_ms < against_ms else "against" if against_ms < this_ms
             else "ties"] += 1
    return {"grid": grid, "mode": mode, "samples": samples, "rounds": rounds, "seed": seed,
            "numpy": np.__version__, "against": str(Path(checkout).resolve()),
            "wins": wins,
            "sides": {side: {"per_operation_ms": quartiles(round_ms[side]),
                             "phases": {name: quartiles([ms[name] for ms in phase_ms[side]])
                                        for name in clocks[side].ms}}
                      for side in sides}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--grid", type=int, default=32, help="grid side, >= 2 (default 32)")
    parser.add_argument("--mode", choices=MODES, default="test")
    parser.add_argument("--samples", type=int, default=4, help="inputs (default 4)")
    parser.add_argument("--repeats", type=int, default=10,
                        help="timed passes over the inputs (default 10)")
    parser.add_argument("--seed", type=int, default=7, help="data seed (default 7)")
    parser.add_argument("--against", metavar="DIR",
                        help="a checkout whose package to compare with, in one process")
    args = parser.parse_args(argv)
    if args.grid < 2 or args.samples < 1 or args.repeats < 1 or args.seed < 0:
        parser.error("--grid must be >= 2, --samples and --repeats positive and --seed "
                     "non-negative")
    if args.against is None:
        record = measure(args.grid, args.mode, args.samples, args.repeats, args.seed)
    elif not (Path(args.against) / "src" / "sevolve" / "__init__.py").is_file():
        parser.error(f"--against: no sevolve package under {Path(args.against) / 'src'}")
    else:
        record = compare(args.against, args.grid, args.mode, args.samples, args.repeats,
                         args.seed)
    print(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
