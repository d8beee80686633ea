"""Golden output digests: the sha256 of stdout for small versions of the
benchmark workloads, the README figure commands, two ``stats`` tables, a
``pls`` outage report, the channel demo and the ``--help`` texts, and of
one trace log.

Output bytes are a pure function of (command, seed, engine version), so a
digest moves only when the random stream or the output format changes.  A
change that does so on purpose updates the digests here and says which and
why; any other change must leave every digest as it is.  A change of the
stream also bumps the engine version, asserted beside the digests.
"""

import contextlib
import hashlib
import importlib.util
import io
import runpy
import sys
from pathlib import Path

import pytest

from rhkljn.cli import EXIT_OK, main
from rhkljn.protocol import ENGINE_VERSION

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

GOLDEN_BITS = 2_000
GOLDEN_SEED = 5

# README figure commands and the stats tables (the table prints var4, which
# no session output reads)
CLI_COMMANDS = {
    "readme_fig_n": (
        "sweep", "--sweep", "n", "--values", "3,5,10,20,40", "--detectors", "ml,simple,optimum",
        "--scenarios", "good,moderate", "--bits", str(GOLDEN_BITS), "--seed", "2",
    ),
    "readme_compare": ("compare", "--values", "2e4,3e4,5e4,1e5,2e5", "--bits", str(GOLDEN_BITS)),
    "stats": ("stats",),
    "stats_moderate_a7_b2": ("stats", "--scenario", "moderate", "--alpha", "7", "--beta", "2"),
    # --tolerance without --trials runs the default 10,000 outage trials;
    # gamma_t sits near the margin, so the SOP reads the trial count
    "pls_tolerance_default_trials": ("pls", "--tolerance", "0.01", "--gamma-t", "3.34"),
}

# the engine version these digests were made with (versions 3 and 4 moved
# ML's S stream only, and no digest with it; version 5 skips the normals of
# certain states, which moved only the trace log's m_hat, no count)
GOLDEN_ENGINE_VERSION = 5

STDOUT_SHA256 = {
    "fig_n": "1a5a3daaa1e5444dd0350d0a6693f0781741e497d2815f439fb7b55629ea9704",
    "fig_beta_jobs2": "79c4313b559f2b65a0858f557a7fbb8ca0dcfe8a43140b2b16470a44b293124f",
    "compare": "bdc102f95d60957239ae0c6ccc279e28ce5ecca182eb5210cf79ea9e7b5f7186",
    "pls_outage": "f9831ac7ddd64cafadfd98e20286bd46dea6aeb60c67d5bd65c0f8c9f9f9b3b9",
    "readme_fig_n": "5852ee8cf53dc84d049c521d728d75df0679bb0825e6803153d7133d6e7bfcfe",
    "readme_compare": "4d06ff7ea53064e996e053a8e880eeab359fc621e88377b8b165ac13c3935403",
    "stats": "4f88a62683f8aef797fc4d6902d661d8c28a2ee15234fde48de6889e009863e5",
    "stats_moderate_a7_b2": "6877e057b74a27fe25b83800e4a42f0dc04ea268c78704114ae6ea41736d751b",
    "pls_tolerance_default_trials": "a440c69a75b3462db460f3c1a5841bf1d9703a1a6f96ad0a8ae5e7c3e4638980",
}

# ``rhkljn --help`` and each command's --help at COLUMNS=80
HELP_SHA256 = {
    "rhkljn": "6edaa585bc2a86ccf1df3f2148047571c7e8852f7787689c5f7897639ef04c67",
    "stats": "2661b305d80dc9bc29c4802c58b8038ae955a043f1edcb963db1ed2914e9338a",
    "sweep": "ae8cad0ce47c0100528d008bb587a7023efa82ab3a6a268144820f6f77bbb894",
    "compare": "ba80abfe98097b6f73ab70a45322daea4e9d9cd5a4130c40c3438cc7e56808c5",
    "pls": "b5684e6772f2f14353724450c38ea7dfe9c3a9ea199a2727cb00224b0a6c0125",
}

# sample_chip moments against chip_moments(params, *state), and the classical variances
DEMO_CHANNEL_SHA256 = "cb41e2b9df25929db0946f0ccab4f75e6a672f1f37752f178c7ebee86bf1cce8"

TRACE_ARGV = ("sweep", "--sweep", "n", "--values", "5", "--detectors", "ml,simple,optimum", "--bits", str(GOLDEN_BITS))
# a trace line: bit= chip= b_a= b_b= s_a= s_b= m_hat= and one name:verdict per detector
TRACE_SHA256 = {
    "stdout": "322045a452db06b832833bc6ffce986423a65862efbe88e77cbecc9bc2713659",
    "trace": "e6cc85ef22fb51423e810cc579cb25facae8575188442b30fb38613a613d4cbc",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(argv)) == EXIT_OK
    return buf.getvalue()


def golden_argv(name: str) -> tuple[str, ...]:
    if name in CLI_COMMANDS:
        return CLI_COMMANDS[name]
    return tuple(workloads.program_argv(name, GOLDEN_SEED, bits=GOLDEN_BITS))


def test_digests_are_of_this_engine_version():
    assert ENGINE_VERSION == GOLDEN_ENGINE_VERSION


def test_every_workload_has_a_digest():
    assert set(workloads.WORKLOADS) | set(CLI_COMMANDS) == set(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_stdout_digest(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert sha256(run_stdout(golden_argv(name))) == STDOUT_SHA256[name]


@pytest.mark.parametrize("command", sorted(HELP_SHA256))
def test_help_digest(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exit_:
        main(["--help"] if command == "rhkljn" else [command, "--help"])
    assert exit_.value.code == EXIT_OK
    assert sha256(buf.getvalue()) == HELP_SHA256[command]


def test_trace_digest(tmp_path):
    trace = tmp_path / "trace.log"
    stdout = run_stdout(TRACE_ARGV + ("--trace", str(trace)))
    assert {"stdout": sha256(stdout), "trace": sha256(trace.read_text())} == TRACE_SHA256


def test_demo_channel_digest():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(ROOT / "demos" / "demo_channel.py"), run_name="__main__")
    assert sha256(buf.getvalue()) == DEMO_CHANNEL_SHA256
