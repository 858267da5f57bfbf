"""The scripts under tools/ run against the package as it stands."""

import importlib.util
import json
import os
from pathlib import Path
from unittest import mock

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
    tool = load_tool("equivalence")
    dump = str(tmp_path / "dump.npz")
    assert tool.main(["dump", dump]) == 0
    assert tool.main(["compare", dump, dump, "--rtol", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "OK"


@pytest.mark.parametrize("mode", ["test", "train", "pyramid", "load"])
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
                           "per_operation", "phases"}
    assert (record["grid"], record["mode"]) == (4, mode)
    assert set(record["per_operation"]) == {"ms", "sys_ms", "minor_faults", "other_ms"}
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
    # one layout and one sweep setup per layer; backward only in training
    assert phases["wave_schedule"]["calls"] == phases["cell_forward_batch"]["calls"] == 5
    assert (phases["cell_backward_batch"]["calls"] > 0) == (mode != "test")
    assert (phases["evolve_step"]["calls"] > 0) == (mode != "pyramid")
    # forward builds each level of the replayed 2x2 pooling; an accepted MH
    # trial builds its level inside evolve_step, where nothing is wrapped
    assert phases["quotient_graph"]["calls"] == (4 if mode == "pyramid" else 0)
