"""The scripts under tools/ run against the package as it stands."""

import importlib.util
import json
import os
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    # the tools pin the BLAS thread counts at import; keep them to the tool
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(tool)
    return tool


def test_equivalence_dump_compares_equal_to_itself(tmp_path, capsys):
    # two dumps made one after the other in one process: an output that
    # depends on what an earlier pass left behind fails --rtol 0
    tool = load_tool("equivalence")
    first, second = str(tmp_path / "first.npz"), str(tmp_path / "second.npz")
    assert tool.main(["dump", first]) == 0
    assert tool.main(["dump", second]) == 0
    assert tool.main(["compare", first, second, "--rtol", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "OK"
    # backward state is saved for the train-mode cases only
    keys = np.load(first).files
    for kind in ("schedule", "grads"):
        assert any(k.startswith(f"g8-s0-mh-train/{kind}/") for k in keys), kind
        assert not any(k.startswith(f"g8-s0-mh-test/{kind}/") for k in keys), kind
    # a union case pins every part's rng and no trace records, which
    # replay_trials refuses for a log of several parts
    union = "union-rand-mh-test"
    for key in ("combined_logits", "losses", "orders/0", "partitions/0", "decisions/0",
                "edges/2", "rng_state/0", "next_draw/0", "rng_state/7", "next_draw/7"):
        assert f"{union}/{key}" in keys, key
    for kind in ("trace", "schedule", "grads"):
        assert not any(k.startswith(f"{union}/{kind}/") for k in keys), kind
    assert {f"union-{parts}-{tag}-test/rng_state/3" for parts in ("grids", "rand")
            for tag in ("mh", "thr0.8")} <= set(keys)


def one_array_dumps(tmp_path, old, new):
    """Paths of two dumps that hold one float array each."""
    paths = [str(tmp_path / "old.npz"), str(tmp_path / "new.npz")]
    for path, values in zip(paths, (old, new)):
        np.savez(path, **{"case/logits/0": np.array(values)})
    return paths


@pytest.mark.parametrize("old, new, rtols", [
    # a value turned NaN, an infinity flipped sign: failures at any rtol
    ([1.0, 2.0], [1.0, np.nan], ["0", "1e-12", "1"]),
    ([1.0, np.inf], [1.0, -np.inf], ["0", "1e-12", "1"]),
    ([np.nan, 1.0], [1.0, np.nan], ["0", "1e-12", "1"]),
    # a zero changed sign: equal values, other bits
    ([-0.0, 1.0], [0.0, 1.0], ["0"]),
], ids=["nan", "inf-sign", "nan-moved", "zero-sign"])
def test_equivalence_compare_fails_on_changed_bits(tmp_path, capsys, old, new, rtols):
    tool = load_tool("equivalence")
    paths = one_array_dumps(tmp_path, old, new)
    for rtol in rtols:
        assert tool.main(["compare", *paths, "--rtol", rtol]) == 1, rtol
        assert capsys.readouterr().out.splitlines()[-1].startswith("FAIL"), rtol


def test_equivalence_compare_passes_same_bits_and_tolerated_deviations(tmp_path, capsys):
    tool = load_tool("equivalence")
    old, new = one_array_dumps(tmp_path, [np.nan, -np.inf, -0.0, 1.0],
                               [np.nan, -np.inf, 0.0, 1.0 + 1e-15])
    assert tool.main(["compare", old, old, "--rtol", "0"]) == 0
    assert tool.main(["compare", old, new, "--rtol", "1e-12"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "OK"


@pytest.mark.parametrize("mode", ["test", "train", "pyramid", "union", "load"])
def test_phases_reports_every_phase(mode, capsys):
    from sevolve import data, network

    tool = load_tool("phases")
    names = tool.LOAD_PHASES if mode == "load" else tool.PHASES
    saved = {(module, name): getattr(module, name)
             for module in (data, network) for name in names if hasattr(module, name)}
    assert tool.main(["--grid", "4", "--mode", mode, "--samples", "2", "--repeats", "1"]) == 0
    # the wrappers are gone again
    assert all(getattr(module, name) is fn for (module, name), fn in saved.items())
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"grid", "mode", "samples", "repeats", "seed", "numpy",
                           "peak_rss_mb", "per_sample_ms", "per_operation", "phases"}
    # ru_maxrss of a process that imported numpy: at least a few MB
    assert 5 < record["peak_rss_mb"] < 10_000
    assert (record["grid"], record["mode"]) == (4, mode)
    assert set(record["per_operation"]) == {"ms", "sys_ms", "minor_faults", "other_ms"}
    # a union or load operation covers both inputs, any other one input
    per_op = record["per_operation"]["ms"]
    assert record["per_sample_ms"] == pytest.approx(
        per_op / 2 if mode in ("union", "load") else per_op)
    assert set(record["phases"]) == set(names)
    phases = record["phases"]
    for phase in phases.values():
        assert set(phase) == {"ms", "calls", "us_per_call", "minor_faults"}
    if mode == "load":
        # per operation: an edge, a feature and a label block per sample,
        # then one block per checkpoint tensor (17 cell tensors, and w and
        # b of each of 5 heads)
        assert phases["parse_block"]["calls"] == 3 * 2 + 17 + 2 * 5
        assert phases["read_lines"]["calls"] == phases["LevelGraph"]["calls"] == 2
        return
    # one layout and one sweep setup per layer, for a union too; backward
    # only in training
    assert phases["wave_schedule"]["calls"] == phases["cell_forward_batch"]["calls"] == 5
    assert (phases["cell_backward_batch"]["calls"] > 0) == (mode in ("train", "pyramid"))
    # a train step computes its loss once, in its forward; a prediction none
    assert phases["_loss_terms"]["calls"] == (1 if mode in ("train", "pyramid") else 0)
    # a union runs each part's own transition: 4 per input
    assert phases["evolve_step"]["calls"] == {"pyramid": 0, "union": 8}.get(mode, 4)
    # forward builds each level of the replayed 2x2 pooling, and a union's
    # level after a transition in which a part merged; a plain accepted MH
    # trial builds its level inside evolve_step, where nothing is wrapped
    if mode == "union":
        assert phases["quotient_graph"]["calls"] <= 4
    else:
        assert phases["quotient_graph"]["calls"] == (4 if mode == "pyramid" else 0)


@pytest.mark.parametrize("mode", ["test", "train"])
def test_phases_against_compares_two_packages_in_one_process(mode, capsys):
    from sevolve import network

    tool = load_tool("phases")
    ours = {k: m for k, m in sys.modules.items() if k == "sevolve" or k.startswith("sevolve.")}
    assert tool.main(["--grid", "4", "--mode", mode, "--samples", "2", "--repeats", "2",
                      "--against", str(TOOLS.parent)]) == 0
    record = json.loads(capsys.readouterr().out)
    # the checkout's own modules are back, the other copy sits beside them
    # under its own name, and neither keeps a wrapper
    assert all(sys.modules[k] is m for k, m in ours.items())
    against = sys.modules[f"{tool.AGAINST}.network"]
    assert against is not network
    assert network.cell_forward.__module__ == against.cell_forward.__module__ == "sevolve.cell"
    assert against.predict.__code__.co_filename.startswith(str(TOOLS.parent / "src"))
    assert (record["grid"], record["mode"], record["rounds"]) == (4, mode, 2)
    assert sum(record["wins"].values()) == 2
    assert set(record["sides"]) == {"this", "against"}
    for side in record["sides"].values():
        assert set(side["phases"]) == set(tool.PHASES)
        for stats in (side["per_operation_ms"], *side["phases"].values()):
            assert set(stats) == {"q1", "median", "q3"}
            assert 0 <= stats["q1"] <= stats["median"] <= stats["q3"]
        assert side["per_operation_ms"]["median"] > 0
        assert side["phases"]["cell_forward"]["median"] > 0
        assert (side["phases"]["cell_backward_batch"]["median"] > 0) == (mode == "train")


def test_phases_against_needs_a_checkout(tmp_path, capsys):
    tool = load_tool("phases")
    with pytest.raises(SystemExit) as exc:
        tool.main(["--grid", "4", "--against", str(tmp_path)])
    assert exc.value.code == 2
    assert "no sevolve package" in capsys.readouterr().err
