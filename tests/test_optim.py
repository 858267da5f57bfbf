import warnings

import numpy as np
import pytest

import sevolve.network as network_module
from sevolve.cell import CellParams
from sevolve.data import GenConfig, generate_dataset
from sevolve.evolve import EvolveConfig
from sevolve.graph import LevelGraph
from sevolve.network import (
    ModelParams,
    NetworkConfig,
    Sample,
    forward,
    init_params,
    predict,
)
from sevolve.optim import (
    GradCheckReport,
    NumericError,
    OptimConfig,
    OptimState,
    evaluate_accuracy,
    grad_check,
    sgd_step,
    train,
)
from oracles import random_connected_graph


def scalar_model():
    cell = CellParams(1, 1)
    return ModelParams(cell, [(np.zeros((2, 1)), np.zeros(2))])


def tiny_cfg(d=3, c=3, layers=2):
    return NetworkConfig(input_dim=d, num_classes=c, num_layers=layers,
                         evolve=EvolveConfig(max_trials=5))


def make_sample(rng, n=6, d=3, c=3):
    g = LevelGraph(n, random_connected_graph(rng, n))
    return Sample(g, rng.normal(size=(n, d)), rng.integers(0, c, size=n))


class TestSgdStep:
    def test_zero_gradient_zero_decay_is_noop(self):
        params = scalar_model()
        dict(params.tensors())["w_u"][...] = 0.7
        before = {n: t.copy() for n, t in params.tensors()}
        cfg = OptimConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        sgd_step(params, params.zeros_like(), OptimState(params), cfg)
        for n, t in params.tensors():
            assert np.array_equal(t, before[n])

    def test_weight_decay_single_step(self):
        # w = 1, g = 0, wd = 0.5, lr = 0.1, momentum = 0:
        # v = -0.1 * (0 + 0.5 * 1) = -0.05, w = 0.95
        params = scalar_model()
        w_u = dict(params.tensors())["w_u"]
        w_u[...] = 1.0
        cfg = OptimConfig(learning_rate=0.1, momentum=0.0, weight_decay=0.5)
        sgd_step(params, params.zeros_like(), OptimState(params), cfg)
        assert w_u[0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_momentum_two_steps(self):
        # momentum 0.9, constant g = 1, lr = 0.1, wd = 0, from w = 0:
        # v1 = -0.1, v2 = -0.19, w = -0.29
        params = scalar_model()
        w_u = dict(params.tensors())["w_u"]
        grads = params.zeros_like()
        dict(grads.tensors())["w_u"][...] = 1.0
        cfg = OptimConfig(learning_rate=0.1, momentum=0.9, weight_decay=0.0)
        state = OptimState(params)
        sgd_step(params, grads, state, cfg)
        assert w_u[0, 0] == pytest.approx(-0.1, abs=1e-15)
        sgd_step(params, grads, state, cfg)
        assert dict(state.store.tensors())["w_u"][0, 0] == pytest.approx(-0.19, abs=1e-15)
        assert w_u[0, 0] == pytest.approx(-0.29, abs=1e-15)

    def test_pure_decay_contracts_geometrically(self):
        params = scalar_model()
        w_u = dict(params.tensors())["w_u"]
        w_u[...] = 2.0
        cfg = OptimConfig(learning_rate=0.01, momentum=0.0, weight_decay=0.1)
        state = OptimState(params)
        zeros = params.zeros_like()
        for _ in range(10):
            sgd_step(params, zeros, state, cfg)
        expect = 2.0 * (1.0 - 0.01 * 0.1) ** 10
        assert w_u[0, 0] == pytest.approx(expect, rel=1e-12)

    def test_matches_per_tensor_rule_any_order(self):
        # the rule is element-wise per tensor, so iteration order is moot;
        # verify against a manual reversed-order application
        rng = np.random.default_rng(0)
        cfg_net = tiny_cfg()
        params = init_params(cfg_net, rng)
        grads = params.zeros_like()
        for _, t in grads.tensors():
            t[...] = rng.normal(size=t.shape)
        manual = params.copy()
        velocity = {n: np.zeros_like(t) for n, t in manual.tensors()}
        cfg = OptimConfig(learning_rate=0.05, momentum=0.8, weight_decay=0.01)
        gmap = dict(grads.tensors())
        for name, w in reversed(manual.tensors()):
            v = velocity[name]
            v *= cfg.momentum
            v -= cfg.learning_rate * (gmap[name] + cfg.weight_decay * w)
            w += v
        sgd_step(params, grads, OptimState(params), cfg)
        for (n1, t1), (n2, t2) in zip(params.tensors(), manual.tensors()):
            assert np.array_equal(t1, t2), n1

    def test_rejects_non_finite_gradient(self):
        params = scalar_model()
        grads = params.zeros_like()
        dict(grads.tensors())["b_u"][...] = np.nan
        with pytest.raises(NumericError, match="b_u"):
            sgd_step(params, grads, OptimState(params), OptimConfig())

    def test_rejects_overflowing_update_and_keeps_the_tensor(self):
        params = scalar_model()
        w_u = dict(params.tensors())["w_u"]
        w_u[...] = 1e308
        grads = params.zeros_like()
        dict(grads.tensors())["w_u"][...] = -1e10
        state = OptimState(params)
        v_u = dict(state.store.tensors())["w_u"]
        v_u[...] = 0.5
        cfg = OptimConfig(learning_rate=1e300, momentum=0.5, weight_decay=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^non-finite update of tensor w_u$"):
                sgd_step(params, grads, state, cfg)
        assert w_u[0, 0] == 1e308
        assert v_u[0, 0] == 0.5

    @pytest.mark.parametrize("nan_in, message", [
        ("b_u", "non-finite update of tensor w_o"),
        ("w_c", "non-finite gradient in tensor w_c"),
    ])
    def test_failed_step_names_the_first_fault_and_commits_nothing(self, nan_in, message):
        # w_o (after w_u, w_f and w_c in canonical order) overflows, and
        # one tensor has a NaN gradient; the tensors before the one named
        # keep their weights and velocity too
        rng = np.random.default_rng(3)
        params = init_params(tiny_cfg(), rng)
        grads = params.zeros_like()
        for _, g in grads.tensors():
            g[...] = rng.normal(size=g.shape)
        state = OptimState(params)
        for _, v in state.store.tensors():
            v[...] = rng.normal(size=v.shape)
        dict(params.tensors())["w_o"][0, 0] = 1.7e308
        dict(grads.tensors())["w_o"][0, 0] = -1e308
        dict(grads.tensors())[nan_in][0, ...] = np.nan
        before = params.copy()
        velocity = state.store.copy()
        cfg = OptimConfig(learning_rate=0.1, momentum=0.5, weight_decay=0.0)
        with pytest.raises(NumericError, match=f"^{message}$"):
            sgd_step(params, grads, state, cfg)
        for (name, t), (_, t0) in zip(params.tensors(), before.tensors()):
            assert np.array_equal(t, t0), name
        for (name, v), (_, v0) in zip(state.store.tensors(), velocity.tensors()):
            assert np.array_equal(v, v0), name

    @pytest.mark.parametrize("grad_layers, state_layers, what", [
        (3, 2, "gradient"), (2, 3, "velocity"),
    ])
    def test_rejects_gradients_or_velocity_of_another_model(self, grad_layers, state_layers,
                                                            what):
        params = init_params(tiny_cfg(), np.random.default_rng(0))
        grads = init_params(tiny_cfg(layers=grad_layers), np.random.default_rng(1))
        state = OptimState(init_params(tiny_cfg(layers=state_layers), np.random.default_rng(2)))
        before = params.copy()
        with pytest.raises(ValueError, match=f"^{what} tensors "):
            sgd_step(params, grads, state, OptimConfig())
        for (name, t), (_, t0) in zip(params.tensors(), before.tensors()):
            assert np.array_equal(t, t0), name

    def test_config_validation(self):
        with pytest.raises(ValueError, match="momentum"):
            OptimConfig(momentum=1.0)
        with pytest.raises(ValueError, match="weight_decay"):
            OptimConfig(weight_decay=-0.1)
        with pytest.raises(ValueError, match="learning_rate"):
            OptimConfig(learning_rate=-0.001)
        with pytest.raises(ValueError, match="epochs"):
            OptimConfig(epochs=0)


class TestGradCheck:
    def test_untouched_tensor_has_zero_error(self):
        # with edge_loss_weight = 0 the merge-probability readout w_e does
        # not influence the loss under a frozen structure: both the
        # analytic and numeric gradients are exactly zero
        rng = np.random.default_rng(1)
        cfg = NetworkConfig(input_dim=2, num_classes=2, num_layers=2,
                            edge_loss_weight=0.0, evolve=EvolveConfig(max_trials=3))
        sample = make_sample(rng, n=5, d=2, c=2)
        params = init_params(cfg, rng)
        report = grad_check(sample, params, cfg, np.random.default_rng(2))
        assert report.tensor_errors["w_e"] == 0.0

    def test_random_tiny_model_passes(self):
        # params scaled to keep every gradient well above the difference
        # oracle's cancellation noise floor
        rng = np.random.default_rng(3)
        cfg = tiny_cfg(d=2, c=2, layers=2)
        sample = make_sample(rng, n=5, d=2, c=2)
        params = init_params(cfg, rng)
        for _, t in params.cell.tensors():
            t *= 5.0
        for w, b in params.heads:
            w += rng.normal(0.0, 0.3, w.shape)
        report = grad_check(sample, params, cfg, np.random.default_rng(4))
        assert isinstance(report, GradCheckReport)
        assert report.passed, report.tensor_errors
        assert report.max_error < 1e-5

    def test_sampled_coarsening_passes(self):
        # a 4x4 grid, 3 layers, Metropolis-Hastings in train mode: grad_check
        # replays the structure this seed samples, where both transitions
        # merge nodes and the coarse levels keep edges. Scaled cell weights,
        # head noise and |w_e| = 3 keep every gradient above the difference
        # oracle's cancellation noise floor
        ds = generate_dataset(GenConfig(grid_n=4, num_labels=3, noise=0.3, seed=6), 1)
        sample = ds.samples[0]
        cfg = NetworkConfig(input_dim=ds.feature_dim, num_classes=3, num_layers=3)
        rng = np.random.default_rng(6)
        params = init_params(cfg, rng)
        for _, t in params.cell.tensors():
            t *= 5.0
        params.cell.w_e[...] = 3.0 * np.sign(params.cell.w_e)
        for w, _ in params.heads:
            w += rng.normal(0.0, 0.3, w.shape)
        res = forward(sample, params, cfg, np.random.default_rng([6, 1]), mode="train")
        assert [g.num_nodes for g in res.trace.levels] == [16, 15, 13]
        assert all(g.num_edges for g in res.trace.levels)
        report = grad_check(sample, params, cfg, np.random.default_rng([6, 1]))
        assert report.passed, report.tensor_errors
        assert report.max_error < 1e-5

    def test_detects_corrupted_backward(self, monkeypatch):
        # drop the per-neighbor forget-gate gradient and expect a failure
        rng = np.random.default_rng(5)
        cfg = tiny_cfg(d=2, c=2, layers=2)
        sample = make_sample(rng, n=6, d=2, c=2)
        params = init_params(cfg, rng)
        for _, t in params.cell.tensors():
            t *= 5.0
        true_backward = network_module.backward

        def corrupted(result, s, c):
            grads = true_backward(result, s, c)
            grads.cell.u_fn[...] = 0.0
            return grads

        import sevolve.optim as optim_module
        monkeypatch.setattr(optim_module, "backward", corrupted)
        report = grad_check(sample, params, cfg, np.random.default_rng(6))
        assert not report.passed

    def test_restores_parameters(self):
        rng = np.random.default_rng(7)
        cfg = tiny_cfg(d=2, c=2, layers=1)
        sample = make_sample(rng, n=4, d=2, c=2)
        params = init_params(cfg, rng)
        before = {n: t.copy() for n, t in params.tensors()}
        grad_check(sample, params, cfg, np.random.default_rng(8))
        for n, t in params.tensors():
            assert np.array_equal(t, before[n])

    def test_restores_parameters_when_a_probe_raises(self, monkeypatch):
        # the first forward pass and backward run as usual; the second
        # probe of the first weight raises
        import sevolve.optim as optim_module
        rng = np.random.default_rng(7)
        cfg = tiny_cfg(d=2, c=2, layers=1)
        sample = make_sample(rng, n=4, d=2, c=2)
        params = init_params(cfg, rng)
        before = params.copy()
        calls = []

        def failing_forward(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise NumericError("probe failed")
            return forward(*args, **kwargs)

        monkeypatch.setattr(optim_module, "forward", failing_forward)
        with pytest.raises(NumericError, match="probe failed"):
            grad_check(sample, params, cfg, np.random.default_rng(8))
        assert len(calls) == 3
        for (name, t), (_, t0) in zip(params.tensors(), before.tensors()):
            assert np.array_equal(t, t0), name


def tiny_dataset(count=8, seed=0):
    gen = GenConfig(grid_n=4, num_labels=2, noise=0.3, seed=seed)
    return generate_dataset(gen, count)


class TestTrain:
    def test_zero_learning_rate_keeps_parameters(self, tmp_path):
        ds = tiny_dataset()
        cfg = NetworkConfig(input_dim=ds.feature_dim, num_classes=ds.num_labels,
                            num_layers=2, evolve=EvolveConfig(max_trials=3))
        params = init_params(cfg, np.random.default_rng(0))
        before = {n: t.copy() for n, t in params.tensors()}
        train(ds.samples, params, cfg, OptimConfig(learning_rate=0.0, epochs=2, seed=1))
        for n, t in params.tensors():
            assert np.array_equal(t, before[n]), n

    def test_same_seed_identical_logs(self, tmp_path):
        ds = tiny_dataset()
        logs = []
        for run in range(2):
            cfg = NetworkConfig(input_dim=ds.feature_dim, num_classes=ds.num_labels,
                                num_layers=2, evolve=EvolveConfig(max_trials=3))
            params = init_params(cfg, np.random.default_rng(42))
            path = tmp_path / f"log{run}.tsv"
            train(ds.samples, params, cfg,
                  OptimConfig(epochs=2, seed=7), log_path=path)
            logs.append(path.read_bytes())
        assert logs[0] == logs[1]

    def test_loss_decreases_on_easy_data(self):
        ds = tiny_dataset(count=10, seed=3)
        cfg = NetworkConfig(input_dim=ds.feature_dim, num_classes=ds.num_labels,
                            num_layers=2, evolve=EvolveConfig(max_trials=5))
        params = init_params(cfg, np.random.default_rng(5))
        rows = train(ds.samples, params, cfg,
                     OptimConfig(learning_rate=0.01, epochs=8, seed=5))
        assert rows[-1]["total_loss"] < rows[0]["total_loss"]

    def test_non_finite_loss_aborts_with_sample_id(self):
        ds = tiny_dataset(count=3)
        cfg = NetworkConfig(input_dim=ds.feature_dim, num_classes=ds.num_labels,
                            num_layers=1, evolve=EvolveConfig(max_trials=2))
        params = init_params(cfg, np.random.default_rng(0))
        params.heads[0][1][...] = np.nan  # poisoned head bias
        with pytest.raises(NumericError, match="sample"):
            train(ds.samples, params, cfg, OptimConfig(epochs=1, seed=0))

    def test_empty_dataset_rejected(self, tmp_path):
        cfg = tiny_cfg()
        params = init_params(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="empty"):
            train([], params, cfg, OptimConfig())
        log = tmp_path / "log.tsv"
        samples = [make_sample(np.random.default_rng(1))]
        with pytest.raises(ValueError, match="^evaluation dataset is empty$"):
            train(samples, params, cfg, OptimConfig(), eval_dataset=[], log_path=log)
        assert not log.exists()

    def test_accuracy_of_no_samples_is_an_error(self):
        # an empty dataset has no accuracy, rather than a reported 0.0
        cfg = tiny_cfg()
        params = init_params(cfg, np.random.default_rng(0))
        with pytest.raises(ValueError, match="^evaluation dataset is empty$"):
            evaluate_accuracy([], params, cfg, 0)

    def test_accuracy_predicts_in_unions_as_per_sample(self):
        # more samples than one union holds, of mixed sizes: the pooled
        # accuracy is that of predicting each sample on its own stream
        rng = np.random.default_rng(9)
        samples = [s for n in (2, 3, 4, 6) for s in generate_dataset(
            GenConfig(grid_n=n, num_labels=3, feature_dim=3, seed=n), 3).samples]
        assert len(samples) > network_module.UNION_SAMPLES
        cfg = NetworkConfig(input_dim=3, num_classes=3, num_layers=3,
                            evolve=EvolveConfig(max_trials=10))
        params = init_params(cfg, rng)
        for _, t in params.cell.tensors():
            t *= 5.0
        for w, _ in params.heads:
            w += rng.normal(0.0, 0.3, w.shape)
        hits = sum(int((predict(s, params, cfg, np.random.default_rng([4, 2, 2, idx]))
                        == s.labels).sum()) for idx, s in enumerate(samples))
        total = sum(s.num_nodes for s in samples)
        assert 0 < hits < total
        assert evaluate_accuracy(samples, params, cfg, seed=4, epoch=2) == hits / total

    def test_checkpoints_written_per_epoch(self, tmp_path):
        ds = tiny_dataset(count=4)
        cfg = NetworkConfig(input_dim=ds.feature_dim, num_classes=ds.num_labels,
                            num_layers=1, evolve=EvolveConfig(max_trials=2))
        params = init_params(cfg, np.random.default_rng(1))
        train(ds.samples, params, cfg, OptimConfig(epochs=3, seed=2),
              checkpoint_dir=tmp_path)
        for epoch in (1, 2, 3):
            assert (tmp_path / f"epoch_{epoch:03d}.ckpt").exists()
