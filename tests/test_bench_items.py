"""The benchmark harness's own items run and pass their checks.

``bench/workloads.py`` builds each workload as a list of items: one call
into the library plus a check of what it returned. These tests load that
file without changing it and run every workload's reduced (smoke) item list
in-process, so a library change that breaks a call or a return value the
harness relies on fails here, not only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def workloads():
    name = "_bench_workloads"
    spec = importlib.util.spec_from_file_location(name, BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


def test_every_workload_is_covered(workloads):
    assert set(workloads.BUILDERS) == {"chsh-scan", "cert-pairs", "selfdual-sweep", "cli-mix"}


@pytest.mark.parametrize("workload", ["chsh-scan", "cert-pairs", "selfdual-sweep", "cli-mix"])
@pytest.mark.parametrize("seed", [1, 10])
def test_smoke_items_pass_their_checks(workloads, workload, seed):
    items = workloads.BUILDERS[workload](seed, smoke=True).items
    assert items
    failed = [item.label for item in items if not item.check(item.run())]
    assert failed == []
