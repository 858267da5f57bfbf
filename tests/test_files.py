"""Checkpoint and dataset files: seeded fuzzing of both loaders, and
atomic writes by both savers and by the training log."""

import os
import re
import warnings

import numpy as np
import pytest

from sevolve import optim
from sevolve.cli import EXIT_CONFIG, EXIT_IO, RunConfig, load_config_file, main
from sevolve.data import (
    DatasetError,
    DatasetFile,
    GenConfig,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from sevolve.evolve import EvolveConfig
from sevolve.graph import LevelGraph
from sevolve.network import NetworkConfig, Sample, init_params, load_checkpoint, save_checkpoint
from oracles import load_checkpoint_per_row, load_dataset_per_line

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


def checkpoint_outcome(loader, path):
    """What `loader` makes of the checkpoint at `path`: its ValueError
    text, or the header fields and every tensor's name and bits."""
    try:
        params, meta = loader(path)
    except ValueError as exc:
        return str(exc)
    return meta, [(name, t.view(np.int64).tolist()) for name, t in params.tensors()]


def assert_same_checkpoint_load(path):
    """load_checkpoint and the per-row oracle return the same tensors bit
    for bit, or raise the same error text, and load_checkpoint warns of
    nothing; returns load_checkpoint's outcome."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = checkpoint_outcome(load_checkpoint, path)
    assert got == checkpoint_outcome(load_checkpoint_per_row, path)
    return got


CHECKPOINT_CONFIG = NetworkConfig(input_dim=3, num_classes=3, num_layers=2)


def test_fuzzed_checkpoints_fail_with_a_line(tmp_path):
    cfg = CHECKPOINT_CONFIG
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_params(cfg, np.random.default_rng(0)), cfg)
    lines = path.read_text().splitlines()
    rng = np.random.default_rng(1)
    for trial in range(600):
        kind = MUTATIONS[trial % len(MUTATIONS)]
        path.write_text("".join(line + "\n" for line in mutate(lines, kind, rng)))
        with pytest.raises(ValueError, match=located(path)):
            load_checkpoint(path)
        assert_same_checkpoint_load(path)


def load_outcome(loader, path):
    """What `loader` makes of the dataset at `path`: its DatasetError text,
    or the header fields and every sample's arrays, the features as their
    bits so that -0.0 and 0.0 differ."""
    try:
        ds = loader(path)
    except DatasetError as exc:
        return str(exc)
    return (ds.feature_dim, ds.num_labels,
            [(s.graph.num_nodes, s.graph.edges, s.features.view(np.int64), s.labels)
             for s in ds.samples])


def assert_same_outcome(got, expected):
    """Two load_outcome results hold the same error text, or the same
    header fields and arrays bit for bit."""
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    assert got[:2] == expected[:2] and len(got[2]) == len(expected[2])
    for ours, theirs in zip(got[2], expected[2]):
        assert ours[0] == theirs[0]
        for a, b in zip(ours[1:], theirs[1:]):
            assert a.dtype == b.dtype and np.array_equal(a, b)


def assert_same_load(path):
    """load_dataset and the per-line oracle return the same arrays bit for
    bit, or raise the same error text, and load_dataset warns of nothing;
    returns load_dataset's outcome."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = load_outcome(load_dataset, path)
    assert_same_outcome(got, load_outcome(load_dataset_per_line, path))
    return got


# 3x3 grids: 9 nodes, 12 edges and D = 6, so no line of one kind has the
# token count of another
FUZZ_CONFIG = GenConfig(grid_n=3, num_labels=4, seed=2)


def test_fuzzed_datasets_fail_with_a_line(tmp_path):
    ds = generate_dataset(FUZZ_CONFIG, 3)
    path = tmp_path / "data.txt"
    save_dataset(path, ds)
    lines = path.read_text().splitlines()
    rng = np.random.default_rng(3)
    for trial in range(600):
        kind = MUTATIONS[trial % len(MUTATIONS)]
        path.write_text("".join(line + "\n" for line in mutate(lines, kind, rng)))
        with pytest.raises(DatasetError, match=located(path)):
            load_dataset(path)
        assert_same_load(path)


# tokens that int() or float() read in ways a digit-only parser would not,
# and tokens that np.loadtxt might read where float() does not
ODD_TOKENS = ("1_0", "+1", "\uff11", "0x10", "1-2", "7e", ".", "-0.0", "1e400", "nan",
              str(2**70), "#", '"1.0"', "\x00", "-nan", "Infinity", "\u0663")
# blanks str.split reads between or around tokens: a tab, a double space,
# a trailing blank, a form feed, a file separator, a no-break space and an
# ideographic space
BLANKS = (("\t", 1), ("  ", 1), (" ", 0), ("\x0c", 1), ("\x1c", 1), ("\xa0", 1),
          ("\u3000", 1))
# the line indices of the first sample's blocks in a saved FUZZ_CONFIG dataset
BLOCKS = {"edge": range(2, 14), "feature": range(14, 23), "label": range(23, 24)}


def targeted_edits():
    """(id, line index, edit) over an edge line, a feature line and the
    label line of the first sample of a saved FUZZ_CONFIG dataset."""
    for what, index in (("edge", 2), ("feature", 15), ("label", 23)):
        for token in ODD_TOKENS:
            def put(line, token=token):
                tokens = line.split()
                tokens[1] = token
                return " ".join(tokens)
            yield f"{what}-{token!r}", index, put
        for blank, inner in BLANKS:
            def spread(line, blank=blank, inner=inner):
                return line.replace(" ", blank, 1) if inner else line + blank
            yield f"{what}-blank-{blank!r}", index, spread
        yield f"{what}-blank-line", index, lambda line: ""


@pytest.mark.parametrize("index, edit", [case[1:] for case in targeted_edits()],
                         ids=[case[0] for case in targeted_edits()])
def test_block_loader_matches_per_line_oracle(tmp_path, index, edit):
    path = tmp_path / "data.txt"
    save_dataset(path, generate_dataset(FUZZ_CONFIG, 2))
    lines = path.read_text().splitlines()
    assert lines[1] == "sample nodes=9 edges=12" and lines[index].count(" ") >= 1
    lines[index] = edit(lines[index])
    outcomes = []
    for end in ("\n", "\r\n", "\r"):
        path.write_bytes("".join(line + end for line in lines).encode())
        outcomes.append(assert_same_load(path))
    for outcome in outcomes[1:]:
        assert_same_outcome(outcome, outcomes[0])


def saved_fuzz_lines(path):
    save_dataset(path, generate_dataset(FUZZ_CONFIG, 2))
    lines = path.read_text().splitlines()
    assert lines[1] == "sample nodes=9 edges=12" and lines[24] == "sample nodes=9 edges=12"
    return lines


@pytest.mark.parametrize("what", BLOCKS)
def test_block_of_blank_lines_fails_on_its_first_line(tmp_path, what):
    # np.loadtxt warns that such a block holds no data
    path = tmp_path / "data.txt"
    lines = saved_fuzz_lines(path)
    for k, index in enumerate(BLOCKS[what]):
        lines[index] = ("", " ", "\t\x1c", "\xa0\u3000")[k % 4]
    path.write_text("".join(line + "\n" for line in lines))
    assert assert_same_load(path) == f"{path}:{BLOCKS[what][0] + 1}: " + {
        "edge": "bad edge line ''", "feature": "feature row has 0 values, expected 6",
        "label": "label row has 0 values, expected 9"}[what]


@pytest.mark.parametrize("what", BLOCKS)
def test_block_of_short_rows_fails_on_its_first_line(tmp_path, what):
    # np.loadtxt reads such a block as a consistent (rows, width - 1) array
    path = tmp_path / "data.txt"
    lines = saved_fuzz_lines(path)
    for index in BLOCKS[what]:
        lines[index] = " ".join(lines[index].split()[:-1])
    path.write_text("".join(line + "\n" for line in lines))
    message = assert_same_load(path)
    assert message.startswith(f"{path}:{BLOCKS[what][0] + 1}: ")


def test_block_loader_reads_signed_zero_and_edgeless_samples(tmp_path):
    rng = np.random.default_rng(5)
    samples = [Sample(LevelGraph(n, edges), rng.normal(size=(n, 3)), rng.integers(0, 2, n))
               for n, edges in ((1, []), (3, []), (3, [(0, 2)]))]
    samples[1].features[1, 2] = -0.0
    path = tmp_path / "data.txt"
    save_dataset(path, DatasetFile(3, 2, samples))
    _, _, loaded = assert_same_load(path)
    assert [len(edges) for _, edges, _, _ in loaded] == [0, 0, 1]
    assert loaded[1][2][1, 2] == np.float64(-0.0).view(np.int64)


@pytest.mark.parametrize("dim", ["10000000", "1000000000"])
def test_checkpoint_dims_beyond_memory_fail_on_the_header(tmp_path, dim):
    # the cell's (4H, D) weights take 2.84 PiB at 10**7, beyond any address
    # space, and exceed numpy's own size limit at 10**9
    path = tmp_path / "model.ckpt"
    path.write_text(f"SEVOLVE-CKPT v1 D={dim} H={dim} C=4 layers=5\n")
    message = assert_same_checkpoint_load(path)
    assert re.match(re.escape(str(path)) + ":1: header dims do not fit in memory", message)


@pytest.mark.parametrize("token", ODD_TOKENS + ("-inf", "infinity", "0x1p3"))
def test_block_checkpoint_reader_matches_per_row_oracle(tmp_path, token):
    # the token replaces the last one of each dims line and value row
    path = tmp_path / "model.ckpt"
    cfg = CHECKPOINT_CONFIG
    save_checkpoint(path, init_params(cfg, np.random.default_rng(0)), cfg)
    lines = path.read_text().splitlines()
    for index in range(1, len(lines)):
        edited = list(lines)
        edited[index] = " ".join(lines[index].split()[:-1] + [token])
        outcomes = []
        for end in ("\n", "\r\n", "\r"):
            path.write_bytes("".join(line + end for line in edited).encode())
            outcomes.append(assert_same_checkpoint_load(path))
        assert outcomes[1:] == outcomes[:1] * 2


@pytest.mark.parametrize("cut", [None, 4, 5])
def test_checkpoint_reader_names_the_first_non_finite_row(tmp_path, cut):
    # rows 1 and 2 of w_u (lines 4 and 5) hold a non-finite value, and the
    # file may end after either
    path = tmp_path / "model.ckpt"
    cfg = CHECKPOINT_CONFIG
    save_checkpoint(path, init_params(cfg, np.random.default_rng(0)), cfg)
    lines = path.read_text().splitlines()
    assert lines[1].startswith("tensor w_u ")
    for index, token in ((3, "inf"), (4, "nan")):
        lines[index] = " ".join(lines[index].split()[:-1] + [token])
    path.write_text("".join(line + "\n" for line in lines[:cut]))
    assert assert_same_checkpoint_load(path) == (
        f"{path}:4: tensor w_u row 1 has a non-finite value")


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
