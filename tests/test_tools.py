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


@pytest.mark.parametrize("mode", ["test", "train", "pyramid"])
def test_phases_reports_every_phase(mode, capsys):
    from sevolve import network

    tool = load_tool("phases")
    saved = {name: getattr(network, name) for name in tool.PHASES}
    assert tool.main(["--grid", "4", "--mode", mode, "--samples", "2", "--repeats", "1"]) == 0
    # the wrappers are gone again
    assert all(getattr(network, name) is fn for name, fn in saved.items())
    record = json.loads(capsys.readouterr().out)
    assert set(record) == {"grid", "mode", "samples", "repeats", "seed", "numpy",
                           "per_sample", "phases"}
    assert (record["grid"], record["mode"]) == (4, mode)
    assert set(record["per_sample"]) == {"ms", "sys_ms", "minor_faults", "other_ms"}
    assert set(record["phases"]) == set(tool.PHASES)
    phases = record["phases"]
    for phase in phases.values():
        assert set(phase) == {"ms", "calls", "us_per_call", "minor_faults"}
    # one layout and one sweep setup per layer; backward only in training
    assert phases["wave_schedule"]["calls"] == phases["cell_forward_batch"]["calls"] == 5
    assert (phases["cell_backward_batch"]["calls"] > 0) == (mode != "test")
    assert (phases["evolve_step"]["calls"] > 0) == (mode != "pyramid")
    # forward builds each level of the replayed 2x2 pooling; an accepted MH
    # trial builds its level inside evolve_step, where nothing is wrapped
    assert phases["quotient_graph"]["calls"] == (4 if mode == "pyramid" else 0)
