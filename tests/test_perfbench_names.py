"""The package names the benchmark wraps, and the checks it runs once per run.

perfbench/workloads.py installs its timing spans (SPANS) and its checking
wrappers (Hooks.wrappers()) by replacing module attributes, such as
`network.cell_forward` or `optim.backward`. A refactor that moves or
renames one of them breaks `perfbench/run.py --trace 1` runs, which the
package's own tests do not start. Each benchmark run also calls
check_replay and check_gradients; a failed one counts as a failed
operation.
"""

import sys
from pathlib import Path

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
