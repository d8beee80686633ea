"""Seed robustness: the benchmark workloads, at their full sizes, pass every
closed-form check of ``bench/oracle.py`` at several seeds.

The benchmark itself checks one seed per run, and ``bench/test_bench.py``
checks smaller sizes; here each serial workload command runs as the
benchmark runs it (``bench/workloads.program_argv``) at seeds used nowhere
else, so no Monte Carlo row passes its oracle only by a lucky seed.  The
bench modules are loaded read-only from their files.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from rhkljn.cli import EXIT_OK, main

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    # oracle.py imports ``workloads`` by its plain name, so both are
    # registered under the names bench/ gives them
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


workloads = _bench_module("workloads")
oracle = _bench_module("oracle")

SEEDS = (101, 102, 103, 104, 105)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", ["fig_n", "compare", "pls_outage"])
def test_workload_passes_its_oracle(workload, seed):
    argv = workloads.program_argv(workload, seed)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == EXIT_OK
    checks = oracle.check_output(buf.getvalue(), workload, argv, workloads.WORKLOADS[workload].bits, seed)
    assert checks
    assert [c for c in checks if not c.ok] == []
