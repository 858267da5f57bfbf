"""Self-tests of the benchmark's helpers: python3 -m pytest perfbench -q"""

import numpy as np
import pytest

import workloads
from workloads import Hooks, Ops, OutputCheckError, measure, percentiles, pooled_plan_partitions
from sevolve import data, optim
from sevolve.graph import CliquePartition, quotient_graph


def test_pooled_plan_is_valid_and_halves_the_grid():
    side = 32
    parts = pooled_plan_partitions(side, 5)
    assert [p.num_cliques for p in parts] == [256, 64, 16, 4]
    g = data.grid_graph(side)
    for part in parts:
        # the validating constructor accepts the same assignment
        assert CliquePartition(part.assignment, part.num_cliques) == part
        assert (part.sizes() == 4).all()
        g = quotient_graph(g, part)
        side //= 2
        assert g == data.grid_graph(side)


def test_percentiles_drop_those_with_too_few_samples_beyond():
    # 100 samples leave 10 beyond p90; 90 samples leave only 9
    assert set(percentiles(range(100))) == {50, 75, 90}
    assert set(percentiles(range(90))) == {50, 75}
    assert percentiles(range(90))[50] == pytest.approx(44.5)
    assert percentiles([]) == {}


def test_raising_operation_counts_as_failed():
    ops = Ops()

    def operation():
        ops.begin()
        return 1 / 0

    assert ops.run(operation) is None
    assert (ops.attempted, ops.failed) == (1, 1)
    # a raise before any operation began still counts one attempted
    ops.run(lambda: [][0])
    assert (ops.attempted, ops.failed) == (2, 2)
    assert ops.run(lambda: 7) == 7
    assert (ops.attempted, ops.failed) == (2, 2)


def test_failed_output_check_counts_as_failed():
    ops = Ops()
    hooks = Hooks(ops)
    sample = data.generate_sample(workloads.gen_config(2, 0), np.random.default_rng(0))
    cfg = workloads.model_config()

    def predict(sample, params, cfg, rng):
        return np.full(sample.num_nodes, cfg.num_classes)

    checked = hooks._predict(predict)
    ops.run(lambda: checked(sample, None, cfg, None))
    assert (ops.attempted, ops.failed) == (1, 1)
    assert "outside" in ops.errors[0]


def test_once_per_run_check_counts_false_and_raise_as_failed():
    ops = Ops()
    ops.check("ok", lambda: True)
    ops.check("false", lambda: False)
    ops.check("raises", lambda: 1 / 0)
    assert (ops.attempted, ops.failed) == (3, 2)


class _Unit:
    """A stand-in workload whose units return the records given."""

    latency_kind = "train"

    def __init__(self, records):
        self.records = list(records)
        self.min_units = len(self.records)

    def unit(self, state, k):
        record = self.records[k]
        if isinstance(record, Exception):
            raise record
        return 1, 0, record


def test_measure_counts_raising_and_irreproducible_units():
    ops = Ops()
    measured = measure(_Unit([(1.0, 0.5), OutputCheckError("bad"), (1.0, 0.5), (2.0, 0.5)]),
                       None, ops, seconds=0)
    assert len(measured.rates) == 2
    assert measured.reference == {0: (1.0, 0.5)}
    assert ops.failed == 2


def test_gradient_check_detects_a_corrupted_backward(monkeypatch):
    assert workloads.check_gradients()
    true_backward = optim.backward

    def corrupted(result, sample, cfg):
        grads = true_backward(result, sample, cfg)
        grads.cell.u_fn[...] = 0.0
        return grads

    monkeypatch.setattr(optim, "backward", corrupted)
    assert not workloads.check_gradients()
