"""The package names the benchmark wraps, the wrappers run on the package,
and the checks it runs once per run.

perfbench/workloads.py installs its timing spans (SPANS) and its checking
wrappers (Hooks.wrappers()) by replacing module attributes, such as
`network.cell_forward` or `optim.backward`. A refactor that moves or
renames one of them breaks `perfbench/run.py --trace 1` runs, which the
package's own tests do not start; so does one that renames a parameter
the wrappers bind by name or a result field their checks read. Each
benchmark run also calls check_replay and check_gradients; a failed one
counts as a failed operation.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return workloads


def wrapped(workloads):
    """(attribute, modules) of every span and every checking wrapper."""
    return ([(attr, modules) for _, attr, modules in workloads.SPANS]
            + [(attr, modules) for attr, modules, _ in workloads.Hooks(None).wrappers()])


def test_every_wrapped_name_exists(workloads):
    missing = [f"{module.__name__}.{attr}" for attr, modules in wrapped(workloads)
               for module in modules if not callable(getattr(module, attr, None))]
    assert not missing


def test_each_name_is_one_function_in_all_its_modules(workloads):
    # a span covers the calls through every module it wraps only if they
    # all reach the same function
    for attr, modules in wrapped(workloads):
        assert len({id(getattr(module, attr)) for module in modules}) == 1, attr


def test_once_per_run_checks_pass(workloads):
    # check_gradients scales the weights through the tensors() views: were
    # those copies, it would fail and the benchmark count a failed operation
    assert workloads.check_replay(1) is True
    assert workloads.check_replay(2) is True
    assert workloads.check_gradients() is True


def test_wrappers_run_on_the_package(workloads, tmp_path):
    # the wrappers bind `sample`, `cfg` and `mode` by name, and their checks
    # and counters read ForwardResult and trace fields: drift there fails
    # only a benchmark run
    from sevolve import data, network, optim

    cfg = workloads.model_config()
    params, _ = network.load_checkpoint(workloads.MODEL_PATH)
    samples = data.generate_dataset(workloads.gen_config(4, 0), 4).samples
    train, held_out = samples[:2], samples[2:]
    originals = [(module, attr, getattr(module, attr))
                 for attr, modules in wrapped(workloads) for module in modules]
    ops = workloads.Ops()
    hooks = workloads.Hooks(ops)
    tracer = workloads.Tracer(ops)
    patches = workloads.Patches()
    try:
        workloads.install(patches, hooks, tracer)
        ops.run(lambda: network.predict(samples[0], params, cfg, np.random.default_rng(0)))
        # a union's result passes the checks and feeds the counters
        union = network.Sample.union(train)
        ops.run(lambda: network.predict(union, params, cfg,
                                        [np.random.default_rng(k) for k in range(2)]))
        assert hooks.last_result.trace.levels[0] is union.graph
        # the epoch predicts its two held-out samples as one union
        ops.run(lambda: optim.train(train, params.copy(), cfg, optim.OptimConfig(),
                                    eval_dataset=held_out, checkpoint_dir=str(tmp_path),
                                    log_path=tmp_path / "train_log.tsv"))
    finally:
        patches.restore()
    # predictions: one plain, one union and one held-out union; training
    # steps: two
    assert (ops.attempted, ops.failed, ops.errors) == (5, 0, [])
    assert len(ops.latency_ms["predict"]) == 3
    assert hooks.counts["forwards"] == 5
    assert hooks.counts["base_nodes"] == 16 * (1 + 2 + 2 + 2)
    assert all(getattr(module, attr) is fn for module, attr, fn in originals)
    assert tracer.summary()["cell.cell_forward"][0] > 0
    metrics = workloads.per_layer_metrics(tracer, hooks, 0.0)
    assert set(metrics) == set(workloads.PER_LAYER)
