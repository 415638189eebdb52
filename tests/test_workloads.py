"""The benchmark's workloads still run against the library.

``benchmarks/workloads.py`` calls the library as a user program would:
``data.load_pair_corpus`` with its default length cap, ``training.snapshot``,
``Model.build``'s keywords, ``cli.main``.  A change to that API would
otherwise show only when the benchmark runs; this test runs each workload
once, on a small vocabulary with small vectors and one input chunk.
"""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "workloads", Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(workloads)
workloads.WORDS, workloads.DIM, workloads.CHUNKS = 200, 8, 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_each_workload_runs_and_passes_its_checks(tmp_path, name):
    workload = workloads.WORKLOADS[name](tmp_path, 11)
    workload.generate()
    state = workload.setup()
    workload.preflight(state)
    workload.warm_up(state)
    assert workload.check(state, 0, workload.call(state, 0)) == 0
