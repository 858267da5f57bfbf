"""The scripts under tools/ run against the package as it stands."""

import importlib.util
import os
from pathlib import Path
from unittest import mock

EQUIVALENCE = Path(__file__).resolve().parent.parent / "tools" / "equivalence.py"


def test_equivalence_dump_compares_equal_to_itself(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("equivalence", EQUIVALENCE)
    tool = importlib.util.module_from_spec(spec)
    # the tool pins the BLAS thread counts at import; keep them to the tool
    with mock.patch.dict(os.environ):
        spec.loader.exec_module(tool)
    dump = str(tmp_path / "dump.npz")
    assert tool.main(["dump", dump]) == 0
    assert tool.main(["compare", dump, dump, "--rtol", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "OK"
