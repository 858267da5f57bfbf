"""Dump the outputs of the sevolve package and compare two dumps.

    PYTHONPATH=src python3 tools/equivalence.py dump new.npz
    PYTHONPATH=<other checkout>/src python3 tools/equivalence.py dump old.npz
    python3 tools/equivalence.py compare old.npz new.npz

`dump` runs forward and compute_loss of the package on the import path
over a fixed set of cases, and backward for the train-mode ones, and
saves every output to one .npz: visit orders, partitions, each level's
edges (so the quotient graphs are compared directly), trial decisions,
each transition's `trace_records` text (as uint8 bytes, so the per-trial
detail is compared exactly), the rng state after the forward pass (the
PCG64 `state` and `inc` as uint64 words, `has_uint32` and `uinteger`, so
the buffered 32-bit half is pinned too) and the next rng draw, per-level
logits and edge probabilities, the combined logits and the losses. A
train-mode case also saves each layer's wave schedule (perm, pos, owner,
nbr, slot_edge, rev, later, deg, inv_deg, seg and the wave bounds) and
every gradient tensor, the backward state a test-mode forward does not
keep. Which cases save them follows from each case's mode, not from what
its result holds, so dumps of package versions that keep different
state in test mode still compare. The cases are 4
seeds x 8x8/16x16/32x32 grids with the benchmark checkpoint
(perfbench/model.ckpt) in Metropolis-Hastings train
mode, MH test mode and threshold-0.8 mode; a replay of 2x2 block pooling
on a 32x32 grid; and 20 small random graphs with widened random weights,
in train and test mode, the first 5 also with one layer only (level 0
is then the top level); and, in test mode, the only mode that takes
several parts, two unions (network.Sample.union) of parts of mixed
sizes, each in MH and threshold-0.8 mode: two 8x8 and two 16x16 grids
with the benchmark checkpoint, and the first 8 random graphs under the
first one's weights, where some parts accept an MH trial. A union case
saves each part's rng state and next draw, and no `trace_records`,
which replay_trials refuses for a log of several parts. `dump` also
saves generated datasets of 8x8, 16x16 and 32x32 grids, and a copy of
the 8x8 one with \r\n line ends, loads each back with load_dataset and
saves every sample's edges, labels and feature bits (as int64, so -0.0
and 0.0 differ). It loads the benchmark checkpoint, and a copy of it
with \r\n line ends, with load_checkpoint and saves the header fields
and every tensor's bits. So both loaders are pinned as exactly as the
model outputs.

`compare` requires the discrete arrays (integer and bool) of both dumps
to match exactly, and reports per output kind how many float arrays are
bit-identical and the largest deviation of their finite entries relative
to each array's largest finite entry. It exits 1 when the dumps hold
different arrays, a discrete array differs, two float arrays differ in
the position or bits of a non-finite entry (NaN, +inf or -inf), or a
float deviation exceeds --rtol. Float arrays are compared as their bits,
so --rtol 0 means bit for bit: -0.0 and 0.0 differ there.
"""

import argparse
import os
import sys
import tempfile
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CHECKPOINT = ROOT / "perfbench" / "model.ckpt"
# every array of each layer's WaveSchedule; the wave bounds are saved too
SCHEDULE_FIELDS = ("perm", "pos", "owner", "nbr", "slot_edge", "rev", "later", "deg",
                   "inv_deg", "seg")


def _model_cases(network, data, EvolveConfig):
    params, meta = network.load_checkpoint(CHECKPOINT)
    modes = (("mh-train", "train", EvolveConfig(max_trials=50)),
             ("mh-test", "test", EvolveConfig(max_trials=50)),
             ("thr0.8", "train", EvolveConfig(threshold=0.8)))
    for side in (8, 16, 32):
        for seed in range(4):
            gen = data.GenConfig(grid_n=side, num_labels=meta["num_classes"],
                                 feature_dim=meta["input_dim"], seed=seed)
            sample = data.generate_sample(gen, np.random.default_rng([seed, side]))
            for tag, mode, evolve in modes:
                cfg = network.NetworkConfig(
                    input_dim=meta["input_dim"], num_classes=meta["num_classes"],
                    num_layers=meta["num_layers"], hidden_dim=meta["hidden_dim"],
                    evolve=evolve)
                yield (f"g{side}-s{seed}-{tag}", sample, params, cfg, mode,
                       np.random.default_rng([seed, side, 7]), None)


def _pyramid_case(network, data, graph, EvolveConfig):
    # the benchmark's 2x2 pooling replay, built here: importing
    # perfbench/workloads.py would put this checkout's src/ first on the
    # import path and dump it instead of the package under test
    params, meta = network.load_checkpoint(CHECKPOINT)
    cfg = network.NetworkConfig(input_dim=meta["input_dim"], num_classes=meta["num_classes"],
                                num_layers=meta["num_layers"], hidden_dim=meta["hidden_dim"],
                                evolve=EvolveConfig(max_trials=50))
    side = 32
    gen = data.GenConfig(grid_n=side, num_labels=cfg.num_classes,
                         feature_dim=cfg.input_dim, seed=5)
    sample = data.generate_sample(gen, np.random.default_rng([5, side]))
    parts, sizes = [], [side * side]
    for _ in range(cfg.num_layers - 1):
        rows, cols = np.divmod(np.arange(side * side), side)
        side //= 2
        parts.append(graph.CliquePartition((rows // 2) * side + cols // 2, side * side))
        sizes.append(side * side)
    rng = np.random.default_rng([5, 5])
    plan = network.StructurePlan([rng.permutation(n) for n in sizes], parts)
    yield "pyramid-g32", sample, params, cfg, "train", None, plan


def _random_graph(network, graph, k, evolve):
    """Random graph k: (sample, params with widened random weights, cfg)."""
    rng = np.random.default_rng([11, k])
    n = int(rng.integers(2, 14))
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    keep = rng.random(len(pairs)) < rng.uniform(0.1, 0.7)
    g = graph.LevelGraph(n, [p for p, c in zip(pairs, keep) if c])
    cfg = network.NetworkConfig(input_dim=3, num_classes=3, num_layers=3, evolve=evolve)
    sample = network.Sample(g, rng.normal(size=(n, 3)), rng.integers(0, 3, size=n))
    params = network.init_params(cfg, rng)
    for _, t in params.cell.tensors():
        t *= 5.0
    for w, b in params.heads:
        w += rng.normal(0.0, 0.3, w.shape)
        b += rng.normal(0.0, 0.1, b.shape)
    return sample, params, cfg


def _random_graph_cases(network, graph, EvolveConfig):
    for k in range(20):
        sample, params, cfg = _random_graph(network, graph, k, EvolveConfig(max_trials=20))
        for mode in ("train", "test"):
            yield (f"rand{k}-{mode}", sample, params, cfg, mode,
                   np.random.default_rng([12, k]), None)
        if k < 5:
            one = network.NetworkConfig(input_dim=3, num_classes=3, num_layers=1)
            for mode in ("train", "test"):
                yield (f"rand{k}-1layer-{mode}", sample,
                       network.ModelParams(params.cell, params.heads[:1]), one, mode,
                       np.random.default_rng([12, k]), None)


def _union_cases(network, data, graph, EvolveConfig):
    # test mode, the only mode that takes several parts; parts of mixed
    # sizes: grids with the benchmark checkpoint, whose MH trials all
    # reject, and random graphs under the first one's params, where some
    # parts accept
    ckpt, meta = network.load_checkpoint(CHECKPOINT)
    grids = []
    for k, side in enumerate((8, 16, 8, 16)):
        gen = data.GenConfig(grid_n=side, num_labels=meta["num_classes"],
                             feature_dim=meta["input_dim"], seed=k)
        grids.append(data.generate_sample(gen, np.random.default_rng([k, side, 13])))
    for tag, evolve in (("mh", EvolveConfig(max_trials=50)),
                        ("thr0.8", EvolveConfig(threshold=0.8))):
        grid_cfg = network.NetworkConfig(
            input_dim=meta["input_dim"], num_classes=meta["num_classes"],
            num_layers=meta["num_layers"], hidden_dim=meta["hidden_dim"], evolve=evolve)
        rands = [_random_graph(network, graph, k, evolve) for k in range(8)]
        _, rand_params, rand_cfg = rands[0]
        for name, parts, params, cfg in (
                ("grids", grids, ckpt, grid_cfg),
                ("rand", [sample for sample, _, _ in rands], rand_params, rand_cfg)):
            yield (f"union-{name}-{tag}-test", network.Sample.union(parts), params, cfg,
                   "test", [np.random.default_rng([14, k]) for k in range(len(parts))], None)


def _loaded_datasets(data):
    """(name, arrays) of each saved dataset as load_dataset reads it back."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for side in (8, 16, 32):
            gen = data.GenConfig(grid_n=side, num_labels=4, feature_dim=6, seed=side)
            paths[f"load-g{side}"] = Path(tmp, f"g{side}.txt")
            data.save_dataset(paths[f"load-g{side}"], data.generate_dataset(gen, 4))
        paths["load-g8-crlf"] = Path(tmp, "g8-crlf.txt")
        paths["load-g8-crlf"].write_bytes(
            paths["load-g8"].read_bytes().replace(b"\n", b"\r\n"))
        for name, path in paths.items():
            ds = data.load_dataset(path)
            arrays = {"header": np.array([ds.feature_dim, ds.num_labels, len(ds)])}
            for k, s in enumerate(ds.samples):
                arrays[f"edges/{k}"] = s.graph.edges
                arrays[f"labels/{k}"] = s.labels
                arrays[f"feature_bits/{k}"] = s.features.view(np.int64)
            yield name, arrays


def _loaded_checkpoints(network):
    """(name, arrays) of the benchmark checkpoint, and of a \r\n copy of
    it, as load_checkpoint reads them."""
    with tempfile.TemporaryDirectory() as tmp:
        crlf = Path(tmp, "model-crlf.ckpt")
        crlf.write_bytes(CHECKPOINT.read_bytes().replace(b"\n", b"\r\n"))
        for name, path in (("ckpt", CHECKPOINT), ("ckpt-crlf", crlf)):
            params, meta = network.load_checkpoint(path)
            arrays = {"header": np.array(list(meta.values()))}
            for tname, tensor in params.tensors():
                arrays[f"tensor_bits/{tname}"] = tensor.view(np.int64)
            yield name, arrays


def _pcg64_words(state):
    """A PCG64 bit_generator.state as uint64 words: `state` and `inc` low
    word first, then `has_uint32` and `uinteger`."""
    mask = (1 << 64) - 1
    words = [w for x in (state["state"]["state"], state["state"]["inc"])
             for w in (x & mask, x >> 64)]
    return np.array([*words, state["has_uint32"], state["uinteger"]], dtype=np.uint64)


def dump(path):
    from sevolve import data, graph, network
    from sevolve.evolve import EvolveConfig, trace_records

    out = {}
    cases = [*_model_cases(network, data, EvolveConfig),
             *_pyramid_case(network, data, graph, EvolveConfig),
             *_random_graph_cases(network, graph, EvolveConfig),
             *_union_cases(network, data, graph, EvolveConfig)]
    for name, sample, params, cfg, mode, rng, plan in cases:
        res = network.forward(sample, params, cfg, rng, mode=mode, plan=plan)
        losses = network.compute_loss(res, sample, cfg)
        arrays = {"losses": np.array(losses), "combined_logits": res.combined_logits}
        # a union case's rngs are a list, one per part
        union = isinstance(rng, list)
        if rng is not None:
            # compute_loss and backward draw nothing: forward left these states
            for k, part_rng in enumerate(rng if union else [rng]):
                arrays[f"rng_state/{k}"] = _pcg64_words(part_rng.bit_generator.state)
                arrays[f"next_draw/{k}"] = np.array([part_rng.random()])
        for t, order in enumerate(res.plan().visit_orders):
            arrays[f"orders/{t}"] = np.asarray(order)
            arrays[f"level_logits/{t}"] = res.level_logits[t]
            arrays[f"edge_probs/{t}"] = res.trace.edge_probs[t]
        if mode == "train":
            for t, sched in enumerate(res.schedules):
                for field in SCHEDULE_FIELDS:
                    arrays[f"schedule/{t}/{field}"] = getattr(sched, field)
                arrays[f"schedule/{t}/waves"] = np.array(
                    sched.waves, dtype=np.intp).reshape(-1, 4)
            for tname, tensor in network.backward(res, sample, cfg).tensors():
                arrays[f"grads/{tname}"] = tensor
        for t, g in enumerate(res.trace.levels):
            arrays[f"edges/{t}"] = np.asarray(g.edges, dtype=np.intp).reshape(-1, 2)
        for t, (part, log) in enumerate(zip(res.trace.partitions, res.trace.decisions)):
            arrays[f"partitions/{t}"] = part.assignment
            arrays[f"decisions/{t}"] = np.array(
                [(d.trial, d.accepted, d.posterior_evaluated) for d in log],
                dtype=np.int64).reshape(-1, 3)
            # replay_trials refuses a union's log, which has no rng state
            if not union:
                arrays[f"trace/{t}"] = np.frombuffer(
                    "\n".join(trace_records(log)).encode(), dtype=np.uint8)
        for key, value in arrays.items():
            out[f"{name}/{key}"] = np.asarray(value)
    files = [*_loaded_datasets(data), *_loaded_checkpoints(network)]
    for name, arrays in files:
        for key, value in arrays.items():
            out[f"{name}/{key}"] = value
    np.savez_compressed(path, **out)
    print(f"{len(cases)} cases, {len(files)} loaded files, {len(out)} arrays -> {path}")


def _bits(array):
    """A float array's bits as unsigned ints, so that -0.0 and 0.0, and two
    NaNs, compare as their bits; any other array as it is."""
    return array.view(f"u{array.itemsize}") if array.dtype.kind == "f" else array


def compare(old_path, new_path, rtol):
    old, new = np.load(old_path), np.load(new_path)
    ok = True
    if set(old.files) != set(new.files):
        missing = sorted(set(old.files) ^ set(new.files))
        print(f"the dumps hold different arrays, e.g. {missing[:5]}")
        return 1
    stats = {}
    for key in sorted(old.files):
        a, b = old[key], new[key]
        kind = key.split("/")[1]         # keys are case/kind[/index]
        s = stats.setdefault(kind, {"arrays": 0, "identical": 0, "max_dev": 0.0, "worst": ""})
        s["arrays"] += 1
        if a.shape != b.shape or a.dtype != b.dtype:
            print(f"DIFFER {key}: shape/dtype {a.shape} {a.dtype} vs {b.shape} {b.dtype}")
            ok = False
            continue
        if np.array_equal(_bits(a), _bits(b)):
            s["identical"] += 1
            continue
        if a.dtype.kind != "f":
            print(f"DIFFER {key}: discrete array differs")
            ok = False
            continue
        finite = np.isfinite(a)
        if (finite != np.isfinite(b)).any() or not np.array_equal(
                _bits(a[~finite]), _bits(b[~finite])):
            print(f"DIFFER {key}: non-finite entries differ")
            ok = False
            continue
        a, b = a[finite], b[finite]
        scale = np.abs(a).max()
        dev = float(np.abs(a - b).max() / scale) if scale else float(np.abs(b).max())
        if dev > s["max_dev"]:
            s["max_dev"], s["worst"] = dev, key
        if dev > rtol or not rtol:
            ok = False
            if not dev:
                # equal finite values with other bits are zeros of either sign
                print(f"DIFFER {key}: a zero changed sign")
    print(f"{'kind':<16} {'arrays':>7} {'identical':>9} {'max rel dev':>12}  worst")
    for kind, s in sorted(stats.items()):
        print(f"{kind:<16} {s['arrays']:>7} {s['identical']:>9} {s['max_dev']:>12.3g}  {s['worst']}")
    print("OK" if ok else f"FAIL (discrete or non-finite mismatch, or float deviation "
                          f"above rtol {rtol:g})")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    p_dump = sub.add_parser("dump", help="dump the outputs of the package on the import path")
    p_dump.add_argument("out")
    p_cmp = sub.add_parser("compare", help="compare two dumps")
    p_cmp.add_argument("old")
    p_cmp.add_argument("new")
    p_cmp.add_argument("--rtol", type=float, default=1e-12)
    args = parser.parse_args(argv)
    if args.cmd == "dump":
        dump(args.out)
        return 0
    return compare(args.old, args.new, args.rtol)


if __name__ == "__main__":
    sys.exit(main())
