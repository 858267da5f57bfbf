import argparse
import json
import warnings

import numpy as np
import pytest

from sevolve.cli import (
    EXIT_CONFIG,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    RunConfig,
    _metrics,
    build_parser,
    load_config_file,
    main,
)
from sevolve.data import GenConfig
from sevolve.network import NetworkConfig, load_checkpoint
from sevolve.optim import OptimConfig


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A tiny generated dataset plus a short training run, shared by the
    read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "train.txt"
    assert run(["generate", "--out", str(data), "--samples", "6", "--grid-n", "4",
                "--labels", "2", "--feature-dim", "4", "--noise", "0.3",
                "--seed", "5"]) == EXIT_OK
    out = root / "run"
    assert run(["train", "--dataset", str(data), "--out-dir", str(out),
                "--layers", "2", "--epochs", "2", "--max-trials", "3",
                "--seed", "5"]) == EXIT_OK
    return {"root": root, "data": data, "out": out,
            "ckpt": out / "final.ckpt"}


class TestGenerate:
    def test_deterministic_bytes(self, tmp_path, capsys):
        args = ["generate", "--samples", "4", "--grid-n", "4", "--labels", "2",
                "--seed", "7"]
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert run(args + ["--out", str(p1)]) == EXIT_OK
        out1 = capsys.readouterr().out
        assert run(args + ["--out", str(p2)]) == EXIT_OK
        out2 = capsys.readouterr().out
        assert p1.read_bytes() == p2.read_bytes()
        assert out1 == out2
        assert out1.startswith("samples=4 same_label_edge_fraction=")

    def test_invalid_label_count_exits_2(self, tmp_path, capsys):
        code = run(["generate", "--out", str(tmp_path / "x.txt"), "--labels", "1"])
        assert code == EXIT_CONFIG
        assert "labels" in capsys.readouterr().err

    def test_more_seeds_than_cells_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.txt"
        code = run(["generate", "--grid-n", "2", "--num-seeds", "6", "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "num_seeds (6)" in err and "4 cells" in err
        assert not out.exists()

    def test_grid_beyond_memory_exits_2(self, tmp_path, capsys):
        # 10**14 cells of int64 exceed any address space, so this fails at once
        out = tmp_path / "x.txt"
        code = run(["generate", "--grid-n", "10000000", "--samples", "1", "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_out_exits_2(self):
        assert run(["generate", "--samples", "2"]) == EXIT_CONFIG

    @pytest.mark.parametrize("out_name, message", [
        ("missing/x.txt", "[Errno 2] No such file or directory"),
        ("x", "[Errno 21] Is a directory"),
    ], ids=["missing-dir", "is-dir"])
    def test_write_error_names_the_out_path_exits_3(self, tmp_path, capsys, out_name,
                                                    message):
        # the text goes to a temporary file first; the error names --out
        # and the temporary file is gone
        (tmp_path / "x").mkdir()
        out = tmp_path / out_name
        code = run(["generate", "--samples", "2", "--grid-n", "4", "--out", str(out)])
        assert code == EXIT_IO
        assert capsys.readouterr().err == f"error: {message}: '{out}'\n"
        assert [p.name for p in tmp_path.iterdir()] == ["x"]
        assert not any((tmp_path / "x").iterdir())

    def test_summary_line(self, tmp_path, capsys):
        assert run(["generate", "--samples", "2", "--grid-n", "4",
                    "--out", str(tmp_path / "x.txt")]) == EXIT_OK
        assert capsys.readouterr().out == "samples=2 same_label_edge_fraction=0.6458333333333333\n"


# per float setting: its flag, the config class and field that check it,
# and the other arguments that class needs
NON_FINITE_SETTINGS = {
    "lr": (OptimConfig, "learning_rate", {}),
    "weight_decay": (OptimConfig, "weight_decay", {}),
    "edge_loss_weight": (NetworkConfig, "edge_loss_weight", {"input_dim": 2, "num_classes": 2}),
    "noise": (GenConfig, "noise", {}),
}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", sorted(NON_FINITE_SETTINGS))
class TestNonFiniteSettings:
    def test_config_rejects(self, flag, value):
        cls, field, needed = NON_FINITE_SETTINGS[flag]
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            cls(**needed, **{field: float(value)})

    def test_command_exits_2_before_writing(self, workdir, tmp_path, capsys, flag, value):
        out = tmp_path / "out"
        if flag == "noise":
            argv = ["generate", "--out", str(out)]
        else:
            argv = ["train", "--dataset", str(workdir["data"]), "--out-dir", str(out),
                    "--layers", "1", "--epochs", "1"]
        assert run(argv + ["--" + flag.replace("_", "-"), value]) == EXIT_CONFIG
        assert NON_FINITE_SETTINGS[flag][1] in capsys.readouterr().err
        assert not out.exists()


class TestTrain:
    def test_zero_lr_keeps_initial_weights(self, tmp_path):
        data = tmp_path / "d.txt"
        run(["generate", "--out", str(data), "--samples", "3", "--grid-n", "4",
             "--labels", "2", "--seed", "1"])
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        base = ["train", "--dataset", str(data), "--layers", "1",
                "--max-trials", "2", "--seed", "3"]
        assert run(base + ["--out-dir", str(out1), "--epochs", "1", "--lr", "0"]) == EXIT_OK
        assert run(base + ["--out-dir", str(out2), "--epochs", "4", "--lr", "0"]) == EXIT_OK
        ck1, _ = load_checkpoint(out1 / "final.ckpt")
        ck2, _ = load_checkpoint(out2 / "final.ckpt")
        for (n1, t1), (n2, t2) in zip(ck1.tensors(), ck2.tensors()):
            assert np.array_equal(t1, t2), n1

    def test_repeat_run_identical_artifacts(self, tmp_path):
        data = tmp_path / "d.txt"
        run(["generate", "--out", str(data), "--samples", "4", "--grid-n", "4",
             "--labels", "2", "--seed", "2"])
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run(["train", "--dataset", str(data), "--out-dir", str(out),
                        "--layers", "2", "--epochs", "2", "--max-trials", "3",
                        "--seed", "9"]) == EXIT_OK
            outs.append(out)
        assert (outs[0] / "train_log.tsv").read_bytes() == (outs[1] / "train_log.tsv").read_bytes()
        assert (outs[0] / "final.ckpt").read_bytes() == (outs[1] / "final.ckpt").read_bytes()

    def test_diverging_run_exits_4(self, tmp_path, capsys):
        # lr 1e100 makes an update overflow; sgd_step refuses to store it,
        # a numeric failure, not a config error. The sigmoids saturate on
        # the way, which is exact: no numpy RuntimeWarning reaches stderr.
        data = tmp_path / "ds.txt"
        assert run(["generate", "--out", str(data), "--samples", "4",
                    "--grid-n", "4"]) == EXIT_OK
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["train", "--dataset", str(data), "--out-dir", str(tmp_path / "out"),
                        "--epochs", "3", "--lr", "1e100"])
        assert code == EXIT_NUMERIC
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("error:")]
        assert errors == ["error: non-finite update of tensor w_u at sample 1 in epoch 1"]
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []

    def test_empty_dataset_exits_2(self, workdir, tmp_path, capsys):
        # an empty evaluation set has no accuracy, for train and for eval
        empty = tmp_path / "empty.txt"
        assert run(["generate", "--out", str(empty), "--samples", "0", "--grid-n", "4",
                    "--labels", "2", "--feature-dim", "4"]) == EXIT_OK
        out = tmp_path / "out"
        assert run(["train", "--dataset", str(workdir["data"]), "--eval-dataset", str(empty),
                    "--out-dir", str(out), "--epochs", "1"]) == EXIT_CONFIG
        assert not (out / "train_log.tsv").exists()
        assert run(["eval", "--dataset", str(empty),
                    "--checkpoint", str(workdir["ckpt"])]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert "accuracy" not in captured.out
        assert "error: evaluation dataset is empty" in captured.err
        assert f"error: {empty}: dataset has no samples" in captured.err

    def test_missing_dataset_file_exits_3(self, tmp_path):
        assert run(["train", "--dataset", str(tmp_path / "nope.txt"),
                    "--out-dir", str(tmp_path / "r")]) == EXIT_IO


class TestEval:
    def test_metrics_against_confusion_oracle(self):
        # all predictions one class on balanced 4-class labels:
        # accuracy 1/4; that class IoU 1/4, others 0; mean 0.0625
        conf = np.zeros((4, 4), dtype=np.int64)
        conf[:, 0] = 25
        acc, iou, mean_iou = _metrics(conf)
        assert acc == 0.25
        assert iou == [0.25, 0.0, 0.0, 0.0]
        assert mean_iou == 0.0625

    def test_perfect_predictions(self):
        conf = np.diag([10, 20, 30]).astype(np.int64)
        acc, iou, mean_iou = _metrics(conf)
        assert acc == 1.0
        assert iou == [1.0, 1.0, 1.0]
        assert mean_iou == 1.0

    def test_absent_class_excluded_from_mean(self):
        # class 2 appears in neither labels nor predictions
        conf = np.zeros((3, 3), dtype=np.int64)
        conf[0, 0] = 8
        conf[1, 1] = 4
        conf[0, 1] = 4
        acc, iou, mean_iou = _metrics(conf)
        assert iou[2] is None
        assert mean_iou == pytest.approx((8 / 12 + 4 / 8) / 2)

    def test_metrics_reject_a_matrix_without_nodes(self):
        # no node evaluated: no accuracy, rather than a reported 0.0
        with pytest.raises(ValueError, match="^confusion matrix counts no nodes$"):
            _metrics(np.zeros((3, 3), dtype=np.int64))

    def test_eval_emits_json_record(self, workdir, capsys):
        assert run(["eval", "--checkpoint", str(workdir["ckpt"]),
                    "--dataset", str(workdir["data"]), "--max-trials", "3",
                    "--seed", "1"]) == EXIT_OK
        out, err = capsys.readouterr()
        record = json.loads(out)
        assert record["samples"] == 6
        assert 0.0 <= record["accuracy"] <= 1.0
        assert len(record["per_class_iou"]) == 2
        assert "accuracy" in err

    def test_dim_mismatch_exits_2(self, workdir, tmp_path):
        other = tmp_path / "other.txt"
        run(["generate", "--out", str(other), "--samples", "2", "--grid-n", "4",
             "--labels", "2", "--feature-dim", "6", "--seed", "8"])
        assert run(["eval", "--checkpoint", str(workdir["ckpt"]),
                    "--dataset", str(other)]) == EXIT_CONFIG


class TestModelLoad:
    @pytest.mark.parametrize("command", ["eval", "inspect"])
    @pytest.mark.parametrize("field", ["D", "K"])
    def test_dims_mismatch_exits_2(self, workdir, tmp_path, command, field):
        # the model reads D=4 features into K=2 classes
        dim, labels = {"D": ("6", "2"), "K": ("4", "3")}[field]
        other = tmp_path / "other.txt"
        assert run(["generate", "--out", str(other), "--samples", "2", "--grid-n", "4",
                    "--feature-dim", dim, "--labels", labels, "--seed", "8"]) == EXIT_OK
        out = tmp_path / "ins"
        argv = [command, "--checkpoint", str(workdir["ckpt"]), "--dataset", str(other)]
        if command == "inspect":
            argv += ["--out-dir", str(out)]
        assert run(argv) == EXIT_CONFIG
        assert not out.exists()


class TestInspect:
    def test_writes_dots_and_trace(self, workdir, tmp_path, capsys):
        out = tmp_path / "ins"
        assert run(["inspect", "--checkpoint", str(workdir["ckpt"]),
                    "--dataset", str(workdir["data"]), "--out-dir", str(out),
                    "--sample-index", "0", "--max-trials", "3", "--seed", "2"]) == EXIT_OK
        sizes = capsys.readouterr().out.strip()
        assert sizes.startswith("level_sizes=")
        values = [int(v) for v in sizes.split("=")[1].split()]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert (out / "level0.dot").exists()
        assert (out / "level1.dot").exists()
        assert (out / "hierarchy.dot").exists()
        trace = (out / "trace.txt").read_text()
        assert "# transition 0 -> 1" in trace
        assert "trial=1" in trace

    def test_identical_dot_bytes_across_runs(self, workdir, tmp_path):
        blobs = []
        for name in ("i1", "i2"):
            out = tmp_path / name
            assert run(["inspect", "--checkpoint", str(workdir["ckpt"]),
                        "--dataset", str(workdir["data"]), "--out-dir", str(out),
                        "--sample-index", "1", "--max-trials", "3",
                        "--seed", "4"]) == EXIT_OK
            blobs.append((out / "hierarchy.dot").read_bytes()
                         + (out / "level0.dot").read_bytes()
                         + (out / "trace.txt").read_bytes())
        assert blobs[0] == blobs[1]

    def test_sample_index_out_of_range_exits_2(self, workdir, tmp_path):
        assert run(["inspect", "--checkpoint", str(workdir["ckpt"]),
                    "--dataset", str(workdir["data"]),
                    "--out-dir", str(tmp_path / "x"),
                    "--sample-index", "99"]) == EXIT_CONFIG


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["generate", "train", "eval", "inspect"])
    def test_flag_exits_2_before_writing(self, workdir, tmp_path, capsys, command):
        out = tmp_path / "out"
        model = ["--checkpoint", str(workdir["ckpt"]), "--dataset", str(workdir["data"])]
        argv = {"generate": ["--out", str(out)],
                "train": ["--dataset", str(workdir["data"]), "--out-dir", str(out),
                          "--layers", "1", "--epochs", "1"],
                "eval": model,
                "inspect": model + ["--out-dir", str(out)]}[command]
        assert run([command, *argv, "--seed", "-1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_config_file_exits_2_before_writing(self, workdir, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("seed = -1\n")
        out = tmp_path / "out"
        assert run(["train", "--config", str(cfgfile), "--dataset", str(workdir["data"]),
                    "--out-dir", str(out), "--layers", "1", "--epochs", "1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()


class TestConfigFile:
    def test_file_plus_cli_overrides(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(
            "# toy settings\n"
            "layers = 3\n"
            "lr = 0.01\n"
            "threshold = none\n"
            "samples = 11\n")
        cfg = load_config_file(cfgfile, RunConfig())
        assert cfg.layers == 3
        assert cfg.lr == 0.01
        assert cfg.threshold is None
        assert cfg.samples == 11

    def test_unknown_key_rejected(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("learning = 0.1\n")
        with pytest.raises(ValueError, match="unknown config key"):
            load_config_file(cfgfile, RunConfig())

    def test_unknown_key_exits_2(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("whatever = 3\n")
        assert run(["generate", "--config", str(cfgfile),
                    "--out", str(tmp_path / "x.txt")]) == EXIT_CONFIG

    def test_missing_config_file_exits_3(self, tmp_path):
        assert run(["generate", "--config", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path / "x.txt")]) == EXIT_IO

    def test_cli_flag_overrides_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("samples = 3\nlabels = 2\ngrid_n = 4\nseed = 1\n")
        out = tmp_path / "d.txt"
        assert run(["generate", "--config", str(cfgfile), "--out", str(out),
                    "--samples", "5"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("samples=5 ")


class TestParser:
    # per command: its help string and its flags in order, each with the
    # type its value is converted to
    COMMANDS = {
        "generate": ("write a synthetic dataset", [
            ("--config", "str"), ("--seed", "int"), ("--out", "str"), ("--samples", "int"),
            ("--grid-n", "int"), ("--labels", "int"), ("--num-seeds", "int"),
            ("--feature-dim", "int"), ("--noise", "float")]),
        "train": ("train a model", [
            ("--config", "str"), ("--seed", "int"), ("--dataset", "str"),
            ("--eval-dataset", "str"), ("--out-dir", "str"), ("--layers", "int"),
            ("--hidden-dim", "int"), ("--edge-loss-weight", "float"), ("--max-trials", "int"),
            ("--threshold", "float"), ("--lr", "float"), ("--momentum", "float"),
            ("--weight-decay", "float"), ("--epochs", "int")]),
        "eval": ("evaluate a checkpoint", [
            ("--config", "str"), ("--seed", "int"), ("--checkpoint", "str"),
            ("--dataset", "str"), ("--max-trials", "int"), ("--threshold", "float")]),
        "inspect": ("dump one sample's evolution trace", [
            ("--config", "str"), ("--seed", "int"), ("--checkpoint", "str"),
            ("--dataset", "str"), ("--out-dir", "str"), ("--sample-index", "int"),
            ("--max-trials", "int"), ("--threshold", "float")]),
    }

    def test_option_sets(self):
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        helps = {a.dest: a.help for a in sub._choices_actions}
        assert list(sub.choices) == list(self.COMMANDS)
        for name, parser in sub.choices.items():
            actions = [a for a in parser._actions if a.dest != "help"]
            # argparse passes a flag's text through unchanged when it has no type
            options = [(a.option_strings[-1], getattr(a.type, "__name__", "str"))
                       for a in actions]
            assert (helps[name], options) == self.COMMANDS[name], name
            assert all(a.default is None for a in actions), name
            assert all(a.dest in RunConfig.__dataclass_fields__
                       for a in actions if a.dest != "config"), name
