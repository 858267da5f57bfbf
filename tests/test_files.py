"""Checkpoint and dataset files: seeded fuzzing of both loaders, and
atomic writes by both savers and by the training log."""

import os
import re

import numpy as np
import pytest

from sevolve import optim
from sevolve.cli import EXIT_CONFIG, EXIT_IO, RunConfig, load_config_file, main
from sevolve.data import DatasetError, GenConfig, generate_dataset, load_dataset, save_dataset
from sevolve.evolve import EvolveConfig
from sevolve.network import NetworkConfig, init_params, load_checkpoint, save_checkpoint

# damaged tokens: none is a number, and none holds "=" as a header field does
GARBAGE = ("x", "1.5.2", "--", "7e", "0x")
MUTATIONS = ("truncate", "delete_line", "duplicate_line", "drop_token", "insert_token",
             "garble_token")


def mutate(lines, kind, rng):
    """A damaged copy of `lines`. Every kind breaks the file's structure."""
    lines = list(lines)
    k = int(rng.integers(len(lines)))
    if kind == "truncate":
        return lines[:k]
    if kind == "delete_line":
        del lines[k]
        return lines
    if kind == "duplicate_line":
        lines.insert(k, lines[k])
        return lines
    tokens = lines[k].split()
    j = int(rng.integers(len(tokens)))
    if kind == "drop_token":
        del tokens[j]
    elif kind == "insert_token":
        tokens.insert(j, "7")
    else:
        tokens[j] = str(rng.choice(GARBAGE))
    lines[k] = " ".join(tokens)
    return lines


def located(path):
    return "^" + re.escape(str(path)) + r":\d+: "


def test_fuzzed_checkpoints_fail_with_a_line(tmp_path):
    cfg = NetworkConfig(input_dim=3, num_classes=3, num_layers=2)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(cfg, np.random.default_rng(0)), cfg)
    lines = path.read_text().splitlines()
    rng = np.random.default_rng(1)
    for trial in range(600):
        kind = MUTATIONS[trial % len(MUTATIONS)]
        path.write_text("".join(line + "\n" for line in mutate(lines, kind, rng)))
        with pytest.raises(ValueError, match=located(path)):
            load_checkpoint(path)


def test_fuzzed_datasets_fail_with_a_line(tmp_path):
    # 3x3 grids: 9 nodes, 12 edges and D = 6, so no line of one kind has
    # the token count of another
    ds = generate_dataset(GenConfig(grid_n=3, num_labels=4, seed=2), 3)
    path = tmp_path / "data.txt"
    save_dataset(path, ds)
    lines = path.read_text().splitlines()
    rng = np.random.default_rng(3)
    for trial in range(600):
        kind = MUTATIONS[trial % len(MUTATIONS)]
        path.write_text("".join(line + "\n" for line in mutate(lines, kind, rng)))
        with pytest.raises(DatasetError, match=located(path)):
            load_dataset(path)


def write_text_files(tmp_path):
    """A dataset, a checkpoint and a config file that all load."""
    ds = generate_dataset(GenConfig(grid_n=3, num_labels=2, seed=4), 2)
    cfg = NetworkConfig(input_dim=ds.feature_dim, num_classes=2, num_layers=1)
    files = {name: tmp_path / f"{name}.txt" for name in ("dataset", "checkpoint", "config")}
    save_dataset(files["dataset"], ds)
    save_checkpoint(files["checkpoint"], init_params(cfg, np.random.default_rng(0)), cfg)
    files["config"].write_text("samples = 2\n# grid side\ngrid_n = 3\n")
    return files


LOADERS = {"dataset": (load_dataset, DatasetError),
           "checkpoint": (load_checkpoint, ValueError),
           "config": (lambda p: load_config_file(p, RunConfig()), ValueError)}


@pytest.mark.parametrize("column", [0, 1])
@pytest.mark.parametrize("kind", ["dataset", "checkpoint", "config"])
def test_non_utf8_byte_fails_with_its_line(tmp_path, capsys, kind, column):
    files = write_text_files(tmp_path)
    # one stray byte on line 3 of the file under test
    path = files[kind]
    lines = path.read_bytes().split(b"\n")
    lines[2] = lines[2][:column] + b"\xff" + lines[2][column:]
    path.write_bytes(b"\n".join(lines))

    evaluate = ["eval", "--checkpoint", str(files["checkpoint"]),
                "--dataset", str(files["dataset"])]
    argv, code = {
        "dataset": (evaluate, EXIT_IO),
        "checkpoint": (evaluate, EXIT_CONFIG),
        "config": (["generate", "--config", str(path), "--out", str(tmp_path / "out.txt")],
                   EXIT_CONFIG),
    }[kind]
    loader, error = LOADERS[kind]
    at_line = re.escape(str(path)) + ":3: "
    with pytest.raises(error, match="^" + at_line):
        loader(path)
    assert main(argv) == code
    assert re.match("error: " + at_line, capsys.readouterr().err)


# every character but \n and \r that str.splitlines breaks a line at
SPLITLINES_ONLY = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("later", ["byte", "token"])
@pytest.mark.parametrize("kind", ["dataset", "checkpoint", "config"])
def test_line_break_lookalike_keeps_line_numbers(tmp_path, kind, later):
    files = write_text_files(tmp_path)
    path = files[kind]
    loader, error = LOADERS[kind]
    lines = path.read_text().split("\n")
    # line 4 breaks: an edge line, a row of w_u, or a line of its own
    bad = {"dataset": "0 x", "checkpoint": "x", "config": "bogus = 1"}[kind]
    if kind == "config":
        lines.insert(3, bad)
    elif later == "token":
        lines[3] = bad
    for char in SPLITLINES_ONLY:
        # a blank to str.split at the end of line 2
        data = [line.encode() for line in lines[:1] + [lines[1] + char] + lines[2:]]
        if later == "byte":
            data[3] += b"\xff"
        # the lines end in \r\n, \r and \n, one line break each
        path.write_bytes(data[0] + b"\r\n" + data[1] + b"\r" + b"\n".join(data[2:]))
        with pytest.raises(error, match="^" + re.escape(str(path)) + ":4: "):
            loader(path)


class Unconvertible:
    """A value whose conversion to a number fails, after noting which
    files the directory holds at that moment."""

    def __init__(self, directory):
        self.directory = directory
        self.seen = None

    def _fail(self):
        self.seen = sorted(os.listdir(self.directory))
        raise RuntimeError("cannot convert")

    def __float__(self):
        self._fail()

    def __int__(self):
        self._fail()


def test_failed_checkpoint_write_keeps_previous_file(tmp_path):
    cfg = NetworkConfig(input_dim=3, num_classes=3, num_layers=2)
    params = init_params(cfg, np.random.default_rng(4))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, cfg)
    before = path.read_bytes()
    # the last tensor written fails, part-way through the file
    bad = Unconvertible(tmp_path)
    w, _ = params.heads[-1]
    params.heads[-1] = (w, np.array([0.0, 1.0, bad], dtype=object))
    with pytest.raises(RuntimeError, match="cannot convert"):
        save_checkpoint(path, params, cfg)
    assert len(bad.seen) == 2          # the temporary file was being written
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["model.ckpt"]


def test_failed_dataset_write_keeps_previous_file(tmp_path):
    ds = generate_dataset(GenConfig(grid_n=3, num_labels=2, seed=5), 2)
    path = tmp_path / "data.txt"
    save_dataset(path, ds)
    before = path.read_bytes()
    bad = Unconvertible(tmp_path)
    ds.samples[-1].labels = np.array([0] * 8 + [bad], dtype=object)
    with pytest.raises(RuntimeError, match="cannot convert"):
        save_dataset(path, ds)
    assert len(bad.seen) == 2
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["data.txt"]


def test_failed_train_log_write_keeps_previous_log(tmp_path, monkeypatch):
    ds = generate_dataset(GenConfig(grid_n=2, num_labels=2, seed=6), 2)
    cfg = NetworkConfig(input_dim=ds.feature_dim, num_classes=2, num_layers=1,
                        evolve=EvolveConfig(max_trials=2))

    def run(path, epochs):
        params = init_params(cfg, np.random.default_rng(7))
        return optim.train(ds.samples, params, cfg, optim.OptimConfig(epochs=epochs, seed=1),
                           log_path=path)

    # the log is the header plus one line per epoch's row
    first = tmp_path / "first" / "train_log.tsv"
    first.parent.mkdir()
    rows = run(first, 1)
    assert first.read_text() == "".join(
        line + "\n" for line in ["\t".join(optim.LOG_COLUMNS), *map(optim.format_log_row, rows)])

    # the epoch-2 write fails after the header and the epoch-1 row
    real = optim.format_log_row
    seen = []

    def format_row(row):
        if row["epoch"] == 2:
            seen.append(sorted(os.listdir(path.parent)))
            raise RuntimeError("cannot format")
        return real(row)

    monkeypatch.setattr(optim, "format_log_row", format_row)
    path = tmp_path / "train_log.tsv"
    with pytest.raises(RuntimeError, match="cannot format"):
        run(path, 2)
    assert len(seen[0]) == 3            # the temporary file was being written
    assert path.read_bytes() == first.read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["first", "train_log.tsv"]
