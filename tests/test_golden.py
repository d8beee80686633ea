"""Golden output digests: the sha256 of stdout for small versions of the
benchmark workloads and the README figure commands, and of one trace log.

Output bytes are a pure function of (command, seed, engine version), so a
digest moves only when the random stream or the output format changes.  A
change that does so on purpose updates the digests here and says which and
why; any other change must leave every digest as it is.
"""

import contextlib
import hashlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from rhkljn.cli import EXIT_OK, main

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

GOLDEN_BITS = 2_000
GOLDEN_SEED = 5

README_COMMANDS = {
    "readme_fig_n": (
        "sweep", "--sweep", "n", "--values", "3,5,10,20,40", "--detectors", "ml,simple,optimum",
        "--scenarios", "good,moderate", "--bits", str(GOLDEN_BITS), "--seed", "2",
    ),
    "readme_compare": ("compare", "--values", "2e4,3e4,5e4,1e5,2e5", "--bits", str(GOLDEN_BITS)),
}

STDOUT_SHA256 = {
    "fig_n": "f0049b20c249e27820d89051b0b6188ac949941047ed34a9d13b6e8fd303ff74",
    "fig_beta_jobs2": "4909abe84b14ee5fffdc3ee0096cd8fdd5deb82407b32625b191e2d8a254f1c9",
    "compare": "a60dd4458ca86683c0c196dff03192b2918089fe7dd51f132097cfe4cff5bd91",
    "pls_outage": "8ddfe089ec4c820cce8c51de6f0cd8ebcb9b27320c4beebea99475a218dc9862",
    "readme_fig_n": "d058a19620afe3940914d13c43152a93f38b464355e25fc6c99d72d3068064e3",
    "readme_compare": "8c1a0cb64e8ecff0a800c6ef6472d994afd82896b65e8dd40e7c88186799b18c",
}

TRACE_ARGV = ("sweep", "--sweep", "n", "--values", "5", "--detectors", "ml,simple,optimum", "--bits", str(GOLDEN_BITS))
TRACE_SHA256 = {
    "stdout": "7e5acf35e1f23dcbe14ce43ef8cc2e24347b36b443001351b27684f3db9f0e9f",
    "trace": "80684743a396ea3bf0aceb536263d778f43baa1d361c08fa9dd31bc192578447",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == EXIT_OK
    return buf.getvalue()


def golden_argv(name: str) -> tuple[str, ...]:
    if name in README_COMMANDS:
        return README_COMMANDS[name]
    return tuple(workloads.program_argv(name, GOLDEN_SEED, bits=GOLDEN_BITS))


def test_every_workload_has_a_digest():
    assert set(workloads.WORKLOADS) | set(README_COMMANDS) == set(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_stdout_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert sha256(run_stdout(golden_argv(name))) == STDOUT_SHA256[name]


def test_trace_digest(tmp_path):
    trace = tmp_path / "trace.log"
    stdout = run_stdout(TRACE_ARGV + ("--trace", str(trace)))
    assert {"stdout": sha256(stdout), "trace": sha256(trace.read_text())} == TRACE_SHA256
