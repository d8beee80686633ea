"""Tests of the benchmark itself: the oracle on several seeds, and the tracer.

Run with ``python3 -m pytest bench/test_bench.py``.
"""

from __future__ import annotations

import contextlib
import io
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import oracle  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, program_argv  # noqa: E402

from rhkljn import cli, protocol  # noqa: E402
from rhkljn.sweep import CSV_COLUMNS  # noqa: E402

SEEDS = (1, 2, 3, 7, 11)
SMALL_BITS = {"fig_n": 2_000, "fig_beta_jobs2": 4_000, "compare": 2_000, "pls_outage": 2_000}


def small_argv(workload: str, seed: int) -> list[str]:
    argv = program_argv(workload, seed, bits=SMALL_BITS[workload])
    if "--trials" in argv:
        argv[argv.index("--trials") + 1] = "4000"
    return argv


def run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_oracle_accepts_every_row(workload, seed):
    argv = small_argv(workload, seed)
    checks = oracle.check_output(run_cli(argv), workload, argv, SMALL_BITS[workload], seed)
    assert checks
    assert [c for c in checks if not c.ok] == []


def _fig_n_rows(seed=1):
    argv = small_argv("fig_n", seed)
    return argv, run_cli(argv).splitlines()


def _failures(lines, argv, seed=1):
    return [c for c in oracle.check_output("\n".join(lines) + "\n", "fig_n", argv, SMALL_BITS["fig_n"], seed) if not c.ok]


def _edit(line: str, column: str, value) -> str:
    cells = line.split(",")
    cells[CSV_COLUMNS.index(column)] = str(value)
    return ",".join(cells)


def test_oracle_flags_a_wrong_error_count():
    argv, lines = _fig_n_rows()
    # row 2 is n=3 "simple": a few errors expected at 2000 bits, so +30 is far out
    errors = int(lines[2].split(",")[CSV_COLUMNS.index("errors")])
    lines[2] = _edit(lines[2], "errors", errors * 3 + 30)
    failed = _failures(lines, argv)
    assert [c.label for c in failed] == ["rh/n=3/good/simple"]
    assert "errors=" in failed[0].reason


def test_oracle_flags_a_biased_eavesdropper():
    argv, lines = _fig_n_rows()
    kept = int(lines[3].split(",")[CSV_COLUMNS.index("kept_units")])
    lines[3] = _edit(lines[3], "eve_accuracy", f"{round(0.6 * kept) / kept:.9g}")
    assert [c.label for c in _failures(lines, argv)] == ["rh/n=3/good/optimum"]


def test_oracle_flags_missing_and_mislabelled_rows():
    argv, lines = _fig_n_rows()
    lines[4] = _edit(lines[4], "samples", 6)
    failed = _failures(lines[:-1], argv)
    assert [c.label for c in failed] == ["rh/n=5/good/ml", "rh/n=40/good/optimum"]
    assert failed[1].reason == "row missing"


def test_per_bit_variance_is_wider_than_per_chip():
    from rhkljn.params import SystemParams

    keep, _ = oracle.hopping_moments(SystemParams(samples_per_chip=3), "optimum", 1000)
    p = keep.mean / 10_000
    assert keep.var > 10_000 * p * (1 - p)


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.enabled = True
    tracer.rep = 0
    outer = tracer.open("outer")
    tracer.call("inner", lambda: sum(range(20_000)))
    tracer.close(outer)
    summary = tracer.rep_summary(0)
    o, i = summary["outer"], summary["inner"]
    assert o["total_s"] == pytest.approx(o["self_s"] + i["total_s"])
    assert dict(i["under"]) == {"outer": 1}
    assert dict(o["under"]) == {None: 1}


def test_missing_wrapped_name_leaves_its_metrics_out(capsys):
    module = types.SimpleNamespace(__name__="fake")
    tracer = Tracer()
    tracer.wrap(module, "_rh_chunk_arrays", "protocol.sample")
    assert "protocol.sample" in tracer.missing
    assert "layer protocol.sample is absent" in capsys.readouterr().err
    tracer.rep = 0
    metrics = worker.layer_metrics(tracer, 0)
    assert "protocol.sample_s" not in metrics and "protocol.sample_bytes_computed" not in metrics
    assert "protocol.tally_s" in metrics


def test_failing_counter_hook_marks_layer_broken(capsys):
    module = types.SimpleNamespace(__name__="fake", f=lambda x: x + 1)
    tracer = Tracer()
    tracer.wrap(module, "f", "layer", on_call=lambda a: {"n": a["missing"]})
    tracer.enabled = True
    tracer.rep = 0
    assert module.f(1) == 2
    assert tracer.broken == {"layer"}
    assert "disabled" in capsys.readouterr().err
    tracer.restore()
    assert module.f(1) == 2 and module.f.__name__ == "<lambda>"


def test_tracing_leaves_output_bytes_unchanged():
    argv = small_argv("compare", 3)
    plain = run_cli(argv)
    tracer = Tracer()
    worker.install(tracer)
    try:
        tracer.enabled = True
        tracer.rep = 0
        traced = tracer.call("cli.main", run_cli, argv)
    finally:
        tracer.enabled = False
        tracer.restore()
    assert traced == plain
    assert protocol.ProcessPoolExecutor.__name__ == "ProcessPoolExecutor"
    metrics = worker.layer_metrics(tracer, 0)
    assert set(metrics) == {name for name, _, _, _ in worker.PER_LAYER}
    assert metrics["protocol.sessions"] == 15 and metrics["sweep.points"] == 15
    assert metrics["protocol.classical_s"] > 0 and metrics["detectors.ml_calls"] == 0


def test_times_are_scaled_by_the_kernel_time_after_each_repeat():
    # ratios 20, 20 and 30: the median ratio is reported at the reference kernel time
    assert calibrate.at_reference([0.2, 0.4, 0.9], [0.01, 0.02, 0.03]) == pytest.approx(20 * calibrate.REFERENCE_S)


def test_calibrator_stops_its_helpers():
    with calibrate.Calibrator(2) as calibrator:
        helpers = [proc for proc, _ in calibrator._helpers]
        assert len(helpers) == 1
        assert calibrator.sample() > 0
    assert not any(proc.is_alive() for proc in helpers)
