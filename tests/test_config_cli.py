"""Config parsing, CSV schema, CLI exit codes and reproducibility."""

import argparse
import csv
import io
import multiprocessing
import os
import shutil
import subprocess
import sys
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import pytest

from rhkljn import SweepSpec, SystemParams, run_compare, run_sweep
from rhkljn.protocol import run_classical_session
from rhkljn.rng import value_key
from rhkljn.sweep import write_csv
from rhkljn import cli, pls, protocol, sweep
from rhkljn.cli import EXIT_OK, main
from rhkljn.config import HARNESS_KEYS, ConfigError, SCENARIOS, apply_scenario, build_params, parse_config
from rhkljn.params import DerivedStats, check_separability, derive_stats
from rhkljn.sweep import _TAG_CLASSICAL, CSV_COLUMNS, _point_params, binomial_ci95

SRC = Path(__file__).resolve().parent.parent / "src"


class TestConfigFile:
    def test_parse_and_build(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sweep defaults\n"
            "alpha=12\n"
            "beta = 3.6\n"
            "m_l=1.2e-4  # volts\n"
            "chips_per_bit=8\n"
            "seed=42\n"
            "detectors=optimum\n"
        )
        values = parse_config(cfg)
        params = build_params(values)
        assert params.alpha == 12.0 and params.beta == 3.6
        assert params.m_l == 1.2e-4 and params.chips_per_bit == 8
        assert values["seed"] == 42 and values["detectors"] == "optimum"

    def test_unknown_key_reports_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha=10\nwat=3\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(cfg)

    def test_detector_alias_is_an_unknown_key(self, tmp_path):
        # one key per setting: ``detectors``, as the flag
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha=10\ndetector=optimum\n")
        with pytest.raises(ConfigError, match=":2: unknown key 'detector'"):
            parse_config(cfg)

    def test_bad_value_reports_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha=ten\n")
        with pytest.raises(ConfigError, match=":1"):
            parse_config(cfg)

    def test_missing_equals_reports_line(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha=10\nbeta\n")
        with pytest.raises(ConfigError, match=":2"):
            parse_config(cfg)

    # every key names one setting, so a second line for it is an error, not
    # an override
    def test_repeated_key_reports_both_lines(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("alpha=10\nbeta=3.6\n# again\nalpha = 20\n")
        with pytest.raises(ConfigError, match=":4: key alpha is already set on line 1$"):
            parse_config(cfg)
        assert main(["stats", "--config", str(cfg)]) == 1
        assert f"error: {cfg}:4: key alpha is already set on line 1" in capsys.readouterr().err


class TestScenarios:
    def test_bias_values(self, default_params):
        assert apply_scenario(default_params, "good").m_l == 1e-4
        assert apply_scenario(default_params, "moderate").m_l == 9.5e-5
        tuned = apply_scenario(default_params, "fine_tuned")
        assert tuned.m_l > 10 * 1e-4  # well above the good bias
        assert apply_scenario(default_params, None) is default_params
        assert set(SCENARIOS) == {"good", "moderate", "fine_tuned"}

    def test_unknown_scenario_rejected(self, default_params):
        with pytest.raises(ValueError):
            apply_scenario(default_params, "bogus")


class TestCsv:
    def test_header_and_grid_order(self):
        spec = SweepSpec(
            swept_parameter="n",
            values=(3.0, 5.0),
            detectors=("simple", "optimum"),
            scenarios=("good",),
            num_bits=2_000,
            master_seed=7,
        )
        rows = run_sweep(spec, SystemParams())
        buf = io.StringIO()
        write_csv(rows, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 4  # 2 values x 1 scenario x 2 detectors
        assert [r.value for r in rows] == [3.0, 3.0, 5.0, 5.0]
        assert [r.detector for r in rows] == ["simple", "optimum", "simple", "optimum"]
        # the file format is pinned: a new ResultRow field (a timing, say)
        # would change every CSV's bytes
        assert lines[0] == (
            "scheme,swept_parameter,value,scenario,detector,alpha,beta,gamma,m_l,samples,"
            "chips_per_bit,num_bits,seed,total_units,kept_units,errors,bep,bep_ci_lo,"
            "bep_ci_hi,discard_fraction,eve_accuracy,drif"
        )

    def test_nine_significant_digits(self):
        spec = SweepSpec(swept_parameter="n", values=(4.0,), num_bits=1_000, master_seed=1)
        rows = run_sweep(spec, SystemParams())
        buf = io.StringIO()
        write_csv(rows, buf)
        line = buf.getvalue().strip().splitlines()[1]
        assert "0.0001" in line  # m_l rendered compactly
        # discard fraction carries at most 9 significant digits
        discard = line.split(",")[CSV_COLUMNS.index("discard_fraction")]
        digits = discard.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) <= 9

    def test_subset_of_values_reproduces_full_grid_rows(self):
        # sessions are keyed on the value and on the scenario's name, so a
        # subset of values repeats the full grid's rows exactly
        base = SystemParams()
        for scenarios in (("good",), ("moderate", "good")):
            full = run_sweep(
                SweepSpec(
                    swept_parameter="n", values=(3.0, 5.0), scenarios=scenarios, num_bits=2_000, master_seed=3
                ),
                base,
            )
            subset = run_sweep(
                SweepSpec(swept_parameter="n", values=(5.0,), scenarios=scenarios, num_bits=2_000, master_seed=3),
                base,
            )
            assert [r for r in full if r.value == 5.0] == subset
            assert [r.scenario for r in subset] == list(scenarios)

    # a session is keyed on its scenario's index in SCENARIOS: with the key
    # on its position in --scenarios, this good row read 7517 kept / 2
    # errors alone and 7545 / 1 after moderate
    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_scenario_rows_do_not_depend_on_the_scenario_list(self, tmp_path, command):
        grid = ["sweep", "--sweep", "n", "--values", "3"] if command == "sweep" else ["compare", "--values", "3e4"]
        rows = {}
        for scenarios in ("good", "moderate,good", "good,fine_tuned", "fine_tuned,moderate,good"):
            out = tmp_path / f"{scenarios}.csv"
            argv = grid + ["--scenarios", scenarios, "--bits", "3000", "--seed", "4", "--detectors", "optimum"]
            assert main(argv + ["--out", str(out)]) == EXIT_OK
            rows[scenarios] = [line for line in out.read_text().splitlines() if ",good,optimum," in line]
        assert len(rows["good"]) == 1
        assert all(found == rows["good"] for found in rows.values()), rows

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SweepSpec(swept_parameter="n", values=())
        with pytest.raises(ValueError):
            SweepSpec(swept_parameter="n", values=(3.0, 3.0))
        with pytest.raises(ValueError):
            SweepSpec(swept_parameter="n", values=(3.0,), detectors=("bogus",))
        with pytest.raises(ValueError):
            SweepSpec(swept_parameter="volume", values=(3.0,))
        with pytest.raises(ValueError, match="scenarios"):
            SweepSpec(swept_parameter="n", values=(3.0,), scenarios=())
        with pytest.raises(ValueError, match="detectors"):
            SweepSpec(swept_parameter="n", values=(3.0,), detectors=())
        with pytest.raises(ValueError, match="detectors must not repeat"):
            SweepSpec(swept_parameter="n", values=(3.0,), detectors=("ml", "ml", "optimum"))
        with pytest.raises(ValueError, match="scenarios must not repeat"):
            SweepSpec(swept_parameter="n", values=(3.0,), scenarios=("good", "good"))
        with pytest.raises(ValueError, match="rate"):
            run_compare(SweepSpec(swept_parameter="n", values=(3.0,)), SystemParams())

    def test_wilson_interval_brackets_point(self):
        lo, hi = binomial_ci95(3, 1_000)
        assert lo < 3 / 1_000 < hi
        assert binomial_ci95(0, 100)[0] == 0.0
        assert binomial_ci95(0, 0) == (0.0, 1.0)
        lo_big, hi_big = binomial_ci95(500, 1_000)
        assert lo_big < 0.5 < hi_big


STRICT_TUNED = ["--strict", "--scenarios", "fine_tuned", "--bits", "1000"]
# the fallback note of derive_stats, formatted with the thresholds that fell back
FALLBACK = "no optimum-threshold root inside the mean bracket for {}; falling back to the midpoint"
ROUNDED_25K = "rate=25000 gives 2.5 samples per chip; simulating 2"


class TestGridPoints:
    @pytest.mark.parametrize("parameter, value", [("rate", 25_000.0), ("n", 2.5)])
    def test_rounded_samples_per_chip_are_flagged(self, parameter, value):
        # 25 kS/s over a 1e-4 s chip asks for 2.5 samples; both round to 2
        params, note = _point_params(SystemParams(), parameter, value)
        assert params.samples_per_chip == 2
        assert note == f"{parameter}={value:g} gives 2.5 samples per chip; simulating 2"

    @pytest.mark.parametrize("parameter, value, n", [("rate", 20_000.0, 2), ("n", 3.0, 3)])
    def test_whole_samples_per_chip_are_silent(self, parameter, value, n):
        params, note = _point_params(SystemParams(), parameter, value)
        assert params.samples_per_chip == n
        assert note is None

    # 2 * bandwidth * chip_duration = 200 independent samples per chip at
    # the defaults: 200 runs, 201 fails before any session
    def test_samples_up_to_the_nyquist_count_run(self, tmp_path):
        params, _ = _point_params(SystemParams(), "n", 200.0)
        assert params.samples_per_chip == 200
        argv = ["sweep", "--sweep", "n", "--values", "200", "--bits", "1000"]
        assert main(argv + ["--out", str(tmp_path / "rows.csv")]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--sweep", "n", "--values", "3,201"],
            ["sweep", "--sweep", "beta", "--values", "3.5", "--samples-per-chip", "201"],
            ["compare", "--values", "2e4,2.01e6"],
            ["pls", "--measure", "--samples-per-chip", "201"],
        ],
        ids=["sweep-n", "sweep-beta", "compare", "pls"],
    )
    def test_samples_beyond_the_nyquist_count_fail_before_any_session(self, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a session ran")

        for module, name in ((sweep, "run_session"), (sweep, "run_classical_session"), (cli, "run_session")):
            monkeypatch.setattr(module, name, refuse)
        assert main(argv + ["--bits", "1000"]) == 1
        assert "error: 201 samples per chip exceed the noise's Nyquist count" in capsys.readouterr().err

    # sweep and compare share one spec (with its few-bits warning) and one
    # --strict pass, which must not round a rate a second time
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--sweep", "n", "--values", "3", "--bits", "500"], "num_bits=500 is below 1000"),
            (["compare", "--values", "2e4", "--bits", "500"], "num_bits=500 is below 1000"),
            (["sweep", "--sweep", "rate", "--values", "25000"] + STRICT_TUNED, ROUNDED_25K),
            (["compare", "--values", "25000"] + STRICT_TUNED, ROUNDED_25K),
        ],
    )
    def test_cli_warns_once(self, tmp_path, caplog, argv, message):
        assert main(argv + ["--out", str(tmp_path / "rows.csv")]) == 0
        assert caplog.text.count(message) == 1

    def test_classical_compare_row(self):
        spec = SweepSpec(swept_parameter="rate", values=(5e4,), num_bits=2_000, master_seed=13)
        rows = run_compare(spec, SystemParams())
        row = rows[0]
        assert row.scheme == "classical"
        # the whole bit's samples: 10 chips of 5 samples, unbiased, one decision per bit
        assert (row.samples, row.chips_per_bit, row.m_l, row.drif) == (50, 1, 0.0, 1.0)
        direct = run_classical_session(
            2_000,
            SystemParams(m_l=0.0, chips_per_bit=1, samples_per_chip=50),
            seed=13,
            point_key=(_TAG_CLASSICAL, value_key(5e4)),
        )["classical"]
        assert (row.total_units, row.kept_units, row.errors) == (
            direct.total_chips,
            direct.kept_chips,
            direct.sub_bit_errors,
        )


@pytest.fixture
def pool_counts(monkeypatch):
    """Executors built and tasks submitted to them, through ``protocol.ProcessPoolExecutor``."""
    counts = {"built": 0, "tasks": 0}

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            counts["built"] += 1
            super().__init__(*args, **kwargs)

        def submit(self, *args, **kwargs):
            counts["tasks"] += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(protocol, "ProcessPoolExecutor", CountingPool)
    return counts


# set to a list by a test, which then gets the threads alive at each fork
_fork_threads = None


def _record_fork_threads():
    if _fork_threads is not None:
        _fork_threads.append(threading.enumerate())


os.register_at_fork(before=_record_fork_threads)


class TestWorkerPool:
    """One pool per grid, and one task per worker: each worker runs its share
    of every session of a sweep or compare."""

    # 2100 bits are three chunks, so at up to three jobs the grid has one
    # share per job, and its six sessions submit one task per worker in all
    @pytest.mark.parametrize("jobs, built", [(1, 0), (2, 1), (3, 1)])
    def test_sweep_opens_one_pool(self, pool_counts, jobs, built):
        spec = SweepSpec(
            "beta", (3.4, 3.7, 4.0), scenarios=("fine_tuned", "good"), num_bits=2_100, master_seed=3
        )
        rows = run_sweep(spec, SystemParams(samples_per_chip=3), jobs=jobs)
        assert len(rows) == 3 * 2
        assert pool_counts == {"built": built, "tasks": built * (jobs - 1)}

    @pytest.mark.parametrize("jobs, built", [(1, 0), (2, 1), (3, 1)])
    def test_compare_opens_one_pool(self, pool_counts, jobs, built):
        spec = SweepSpec("rate", (2e4, 5e4), scenarios=("fine_tuned", "good"), num_bits=2_100)
        rows = run_compare(spec, SystemParams(), jobs=jobs)
        # per rate: one classical and two hopping sessions
        assert [r.scheme for r in rows] == ["classical", "rh", "rh"] * 2
        assert pool_counts == {"built": built, "tasks": built * (jobs - 1)}

    # one chunk per session: the calling process runs it, and no executor is
    # built, so no worker is forked
    @pytest.mark.parametrize("jobs", [2, 3])
    def test_single_chunk_sessions_submit_no_task(self, pool_counts, jobs):
        spec = SweepSpec("beta", (3.4, 3.7), scenarios=("fine_tuned", "good"), num_bits=1_000)
        assert run_sweep(spec, SystemParams(samples_per_chip=3), jobs=jobs) == run_sweep(
            spec, SystemParams(samples_per_chip=3), jobs=1
        )
        assert pool_counts == {"built": 0, "tasks": 0}

    def test_single_chunk_command_imports_no_pool(self):
        # a fresh command whose sessions are one chunk each runs serially at
        # any --jobs and loads no part of the process pool
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        pool = ("multiprocessing", "concurrent.futures")
        argv = ["sweep", "--sweep", "n", "--values", "3", "--bits", "1000", "--jobs", "2"]
        code = (
            "import contextlib, io, sys\n"
            "from rhkljn.cli import main\n"
            f"with contextlib.redirect_stdout(io.StringIO()): code = main({argv!r})\n"
            f"print(code, sorted(m for m in sys.modules if any(m == u or m.startswith(u + '.') for u in {pool!r})))"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"

    # sessions of 4500 bits are four full chunks and a short one, so --jobs 4
    # gives four shares of unequal size
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--sweep", "rate", "--values", "15000,25000", "--detectors", "ml,optimum", "--seed", "5"],
            ["compare", "--values", "2e4,5e4", "--seed", "6"],
            ["pls", "--measure", "--seed", "7"],
        ],
        ids=["sweep", "compare", "pls"],
    )
    def test_output_is_the_same_at_every_jobs(self, capsys, caplog, argv):
        outputs = []
        for jobs in ("1", "2", "3", "4"):
            caplog.clear()
            assert main(argv + ["--bits", "4500", "--jobs", jobs]) == 0
            outputs.append((*capsys.readouterr(), caplog.text))
        assert outputs[0][0]
        # a grid logs its points' warnings; pls --measure has none
        assert ("Monte Carlo floor" in outputs[0][2]) == (argv[0] != "pls")
        assert outputs[1:] == outputs[:1] * 3
        assert multiprocessing.active_children() == []

    # bench/probe.py stops a command at its first session call with a
    # BaseException raised from sweep.run_session or run_classical_session:
    # at --jobs 2 the calling process reaches it, after the pool is built,
    # and no worker outlives the stop
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--sweep", "beta", "--values", "3.4,3.7", "--bits", "2100", "--jobs", "2"],
            ["compare", "--values", "2e4,5e4", "--bits", "2100", "--jobs", "2"],
        ],
        ids=["sweep", "compare"],
    )
    def test_probe_stop_is_reached_in_the_calling_process(self, monkeypatch, capsys, pool_counts, argv):
        def stop(*args, **kwargs):
            raise _Stop(os.getpid())

        monkeypatch.setattr(sweep, "run_session", stop)
        monkeypatch.setattr(sweep, "run_classical_session", stop)
        with pytest.raises(_Stop) as reached:
            main(argv)
        assert reached.value.args == (os.getpid(),)
        assert pool_counts == {"built": 1, "tasks": 1}
        assert multiprocessing.active_children() == []

    # the workers are forked by the pool's first task, on the thread that
    # calls main, before the executor starts its manager thread: no thread
    # the command starts exists at the fork
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--sweep", "beta", "--values", "3.4,3.7,4.0", "--bits", "2100"],
            ["compare", "--values", "2e4,5e4", "--bits", "2100"],
        ],
        ids=["sweep", "compare"],
    )
    def test_workers_fork_before_the_command_starts_a_thread(self, monkeypatch, capsys, argv):
        forks = []
        monkeypatch.setattr(sys.modules[__name__], "_fork_threads", forks)
        before = set(threading.enumerate())
        assert main(argv + ["--jobs", "2"]) == 0
        monkeypatch.setattr(sys.modules[__name__], "_fork_threads", None)
        assert len(forks) == 1  # one worker beside the calling process
        assert set(forks[0]) <= before

    def test_no_worker_outlives_the_command(self, monkeypatch, capsys):
        argv = ["sweep", "--sweep", "beta", "--values", "3.4,3.7,4.0", "--bits", "2100", "--jobs", "2"]
        assert main(argv) == 0
        assert multiprocessing.active_children() == []
        # a chunk that raises, in this process and in the worker alike
        monkeypatch.setattr(protocol, "_tally_chunk", _stop_chunk)
        with pytest.raises(_Stop):
            main(argv)
        assert multiprocessing.active_children() == []

    # the warning goes to stderr only: stdout holds the same CSV either way
    @pytest.mark.parametrize("jobs, warnings", [("1", 0), ("2", 1)])
    def test_trace_ignores_jobs_with_a_warning(
        self, tmp_path, caplog, capsys, pool_counts, jobs, warnings
    ):
        argv = ["sweep", "--sweep", "n", "--values", "4", "--bits", "1500", "--seed", "9"]
        assert main(argv) == 0
        untraced = capsys.readouterr().out
        caplog.clear()
        trace = tmp_path / "trace.log"
        with caplog.at_level("WARNING", logger="rhkljn.sweep"):
            assert main(argv + ["--trace", str(trace), "--jobs", jobs]) == 0
        assert caplog.text.count(f"tracing runs serially; ignoring jobs={jobs}") == warnings
        assert capsys.readouterr().out == untraced
        assert len(trace.read_text().splitlines()) == 1_500 * 10
        assert pool_counts["built"] == 0


def _threads_started_since(before: set) -> list[str]:
    return [t.name for t in threading.enumerate() if t not in before]


class _Stop(BaseException):
    """Not an Exception, as a probe's stop is."""


def _stop_chunk(*args, **kwargs):
    raise _Stop


class TestSerialSessions:
    """At any ``jobs`` a grid runs its sessions one after another."""

    SPEC = SweepSpec("beta", (3.4, 3.5, 3.6, 3.7, 3.8, 3.9), num_bits=1_500, master_seed=5)
    PARAMS = SystemParams(samples_per_chip=3)

    def test_sessions_never_overlap(self, monkeypatch):
        serial = run_sweep(self.SPEC, self.PARAMS, jobs=1)
        real = sweep.run_session
        lock = threading.Lock()
        in_flight, peak = [0], [0]

        def counted(*args, **kwargs):
            with lock:
                in_flight[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            try:
                time.sleep(0.01)  # long enough for a second session to start beside it
                return real(*args, **kwargs)
            finally:
                with lock:
                    in_flight[0] -= 1

        monkeypatch.setattr(sweep, "run_session", counted)
        before = set(threading.enumerate())
        assert run_sweep(self.SPEC, self.PARAMS, jobs=2) == serial
        assert peak[0] == 1
        assert _threads_started_since(before) == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failing_session_stops_the_grid(self, monkeypatch, jobs):
        first_key = (sweep._TAG_SWEEP, 0, value_key(self.SPEC.values[0]))
        started = []

        def session(*args, point_key, **kwargs):
            started.append(point_key)
            if point_key == first_key:
                raise ValueError("the first session failed")
            return {}

        monkeypatch.setattr(sweep, "run_session", session)
        before = set(threading.enumerate())
        with pytest.raises(ValueError, match="^the first session failed$"):
            run_sweep(self.SPEC, self.PARAMS, jobs=jobs)
        # nothing runs after the failure
        assert started == [first_key]
        assert _threads_started_since(before) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_base_exception_of_a_session_reaches_the_caller(self, monkeypatch, jobs):
        def stop(*args, **kwargs):
            raise _Stop

        monkeypatch.setattr(sweep, "run_session", stop)
        monkeypatch.setattr(sweep, "run_classical_session", stop)
        before = set(threading.enumerate())
        with pytest.raises(_Stop):
            run_sweep(self.SPEC, self.PARAMS, jobs=int(jobs))
        for argv in (
            ["sweep", "--sweep", "beta", "--values", "3.4,3.7", "--bits", "1500"],
            ["compare", "--values", "2e4,5e4", "--bits", "1500"],
        ):
            with pytest.raises(_Stop):
                main(argv + ["--jobs", jobs])
        assert _threads_started_since(before) == []


class TestGridSetup:
    """Each hopping session's statistics are derived once, when the grid is
    built; the shares that run it derive nothing."""

    SPEC = SweepSpec("beta", (3.4, 3.7), scenarios=("good", "moderate"), num_bits=2_500, master_seed=5)

    @pytest.fixture()
    def derived(self, monkeypatch):
        calls = []
        real = sweep.derive_stats
        monkeypatch.setattr(sweep, "derive_stats", lambda params: calls.append(params) or real(params))
        return calls

    def test_shares_derive_nothing(self, derived):
        sessions = []
        for value in self.SPEC.values:
            params, note = _point_params(SystemParams(), "beta", value)
            sessions += sweep._rh_sessions(self.SPEC, params, value, sweep._TAG_SWEEP, note)
        derived.clear()
        for k in range(2):
            sweep._grid_share(self.SPEC, sessions, None, (k, 2))
        assert derived == []

    def test_setup_derives_once_per_hopping_session(self, derived, monkeypatch):
        grids = []
        monkeypatch.setattr(
            sweep, "_run_grid", lambda spec, sessions, jobs, trace=None, check=None: grids.append(sessions) or []
        )
        run_sweep(self.SPEC, SystemParams(), jobs=2)
        run_compare(replace(self.SPEC, swept_parameter="rate", values=(2e4, 5e4)), SystemParams(), jobs=2)
        sessions = [s for grid in grids for s in grid]
        hopping = [s for s in sessions if s.scheme == "rh"]
        assert len(hopping) == 8 and len(sessions) == 10
        assert derived == [s.params for s in hopping]
        assert all((s.stats is None) == (s.scheme == "classical") for s in sessions)

    # run_sweep and run_compare call check once, on the built grid, before
    # any session runs; a check that raises runs no session and starts no pool
    def test_check_reads_the_built_grid_before_any_session(self, monkeypatch):
        started = []
        for name in ("run_session", "run_classical_session"):
            real = getattr(sweep, name)
            monkeypatch.setattr(sweep, name, lambda *a, real=real, **k: started.append(a) or real(*a, **k))
        checked = []

        def check(spec, sessions):
            checked.append((spec, list(sessions), len(started)))

        def refuse(spec, sessions):
            raise RuntimeError("refused")

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        compare_spec = replace(self.SPEC, swept_parameter="rate", values=(2e4, 5e4))
        for run, spec in ((run_sweep, self.SPEC), (run_compare, compare_spec)):
            checked.clear()
            started.clear()
            rows = run(spec, SystemParams(), jobs=1, check=check)
            [(seen, sessions, before)] = checked
            assert seen is spec and before == 0
            assert [(s.value, s.scenario) for s in sessions] == [(r.value, r.scenario) for r in rows]
            assert len(started) == len(sessions)
            started.clear()
            with monkeypatch.context() as patch:
                patch.setattr(protocol, "ProcessPoolExecutor", no_pool)
                with pytest.raises(RuntimeError, match="^refused$"):
                    run(spec, SystemParams(), jobs=2, check=refuse)
            assert started == []

    # derive_stats falls back to the midpoint for th3_opt at gamma 8 (alpha
    # 19, beta 2.7); the note is logged even where warnings are errors
    def test_fallback_is_recorded_under_an_error_filter(self, caplog):
        spec = SweepSpec("gamma", (8.0,), num_bits=1_500)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_sweep(spec, SystemParams(alpha=19.0, beta=2.7), jobs=1)
        message = FALLBACK.format("th3_opt")
        assert [r.getMessage() for r in caplog.records].count(f"gamma=8 good: {message}") == 1

    # grid setup records nothing as a side effect: a warning raised while
    # it derives statistics reaches the caller, so the suite's
    # error::RuntimeWarning filter fails the run
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_setup_swallows_no_warning(self, monkeypatch):
        real = sweep.derive_stats

        def warn_then_derive(params):
            warnings.warn("raised at grid setup", RuntimeWarning)
            return real(params)

        monkeypatch.setattr(sweep, "derive_stats", warn_then_derive)
        with pytest.raises(RuntimeWarning, match="raised at grid setup"):
            run_sweep(self.SPEC, SystemParams())


# argvs that the parser of their command alone must parse as the full parser
PARSE_TABLE = {
    "stats": ["stats"],
    "stats-config-flags": [
        "stats", "--config", "run.cfg", "--scenario", "moderate", "--alpha", "7",
        "--samples-per-chip", "5", "--strict", "--out", "o.txt",
    ],
    "sweep-grid-trace": [
        "sweep", "--sweep", "n", "--values", "3,5", "--scenarios", "good,moderate", "--detectors", "ml,optimum",
        "--bits", "2000", "--seed", "4", "--jobs", "2", "--trace", "t.log",
    ],
    "sweep-config-scenario": [
        "sweep", "--sweep", "beta", "--values", "2", "--config", "c.cfg", "--scenario", "fine_tuned", "--m-l", "1e-4",
    ],
    "compare": ["compare", "--values", "2e4,5e4", "--bits", "500", "--scenarios", "good", "--out", "c.csv"],
    "compare-scenario": ["compare", "--values=1e5", "--scenario", "moderate", "--chips-per-bit", "8"],
    "pls": ["pls"],
    "pls-all": [
        "pls", "--measure", "--bits", "2000", "--seed", "3", "--jobs", "1", "--gamma-t", "3.34",
        "--tolerance", "0.01", "--trials", "200", "--csv", "p.csv", "--config", "run.cfg",
    ],
}

# argvs that end in the parser: an unknown flag, another command's flag, a
# missing required flag, a bad choice, an unknown command, no command and
# the help texts
PARSER_EXITS = {
    "unknown-flag": ["pls", "--wat"],
    "sweep-flag-on-pls": ["pls", "--values", "3"],
    "session-flag-on-stats": ["stats", "--bits", "3"],
    "missing-values": ["sweep", "--sweep", "n"],
    "compare-missing-values": ["compare"],
    "bad-choice": ["sweep", "--sweep", "q", "--values", "3"],
    "bad-type": ["pls", "--bits", "x"],
    "unknown-command": ["bogus"],
    "no-command": [],
    "help": ["--help"],
    "stats-help": ["stats", "--help"],
    "pls-help": ["pls", "-h"],
    # where a command's own parser could part from the full parser's subparser:
    # a flag before the command, a leftover that a later valid flag follows,
    # abbreviated and ambiguous flags, a command name as a leftover, a flag
    # without its value, help before or after an unknown flag, "--", and
    # the help of every command
    "flag-before-command": ["--wat", "stats", "--alpha", "7"],
    "leftover-then-valid-flag": ["stats", "--bits", "3", "--alpha", "7"],
    "abbreviated-and-ambiguous": ["sweep", "--sw", "n", "--val", "3", "--s", "4"],
    "command-as-leftover": ["sweep", "--sweep", "n", "--values", "3", "pls"],
    "flag-without-value": ["pls", "--gamma-t"],
    "help-then-unknown": ["sweep", "--help", "--wat"],
    "unknown-then-help": ["sweep", "--wat", "--help"],
    "double-dash": ["pls", "--", "--measure"],
    "sweep-help": ["sweep", "-h"],
    "compare-help": ["compare", "--help"],
}


def _exit_and_output(argv, capsys):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code, *capsys.readouterr()


def _full_parser_exit(argv, capsys):
    """The exit code and output of the full parser on ``argv``, which must exit."""
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(list(argv))
    return exc.value.code, *capsys.readouterr()


def _flags(parser):
    """Each action of ``parser`` as its flags, destination, parsing and help."""
    return [
        (a.option_strings, a.dest, a.type, a.default, a.required, a.choices, a.nargs, a.const, a.help)
        for a in parser._actions
    ]


class TestCommandParser:
    """main builds the parser of the invoked command only; nothing it parses may tell."""

    @pytest.mark.parametrize("argv", list(PARSE_TABLE.values()), ids=list(PARSE_TABLE))
    def test_command_parser_parses_as_the_full_parser(self, argv, monkeypatch):
        parsed = []

        def reached(args):
            parsed.append(args)
            raise _Reached

        monkeypatch.setattr(cli, "_check_outputs", reached)
        with pytest.raises(_Reached):
            main(list(argv))
        assert parsed == [cli.build_parser().parse_args(argv)]

    @pytest.mark.parametrize("argv", list(PARSER_EXITS.values()), ids=list(PARSER_EXITS))
    def test_parser_exits_match_the_full_parser(self, argv, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        got = _exit_and_output(argv, capsys)
        assert got == _full_parser_exit(argv, capsys)
        help_asked = "--help" in argv or "-h" in argv
        assert got[0] == (cli.EXIT_OK if help_asked else cli.EXIT_USAGE)
        assert got[1 if help_asked else 2]

    def test_main_builds_the_invoked_command_only(self, monkeypatch, capsys):
        built = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: built.append(command) or real(command))
        assert main(["stats"]) == 0
        monkeypatch.setattr(sys, "argv", ["rhkljn", "stats", "--alpha", "7"])
        assert main() == 0
        for argv in (["bogus"], ["--help"], []):
            with pytest.raises(SystemExit):
                main(argv)
        assert built == ["stats", "stats", None, None, None]

    # a valid command needs its own parser alone, not the top-level one and all four subparsers
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_a_valid_command_builds_one_parser(self, command, monkeypatch, capsys, engine_reads):
        progs = []
        real = argparse.ArgumentParser.__init__
        monkeypatch.setattr(
            argparse.ArgumentParser, "__init__", lambda self, *a, **kw: progs.append(kw.get("prog")) or real(self, *a, **kw)
        )
        assert _recorded_run(GUARD_RUNS[command][0], capsys) == (EXIT_OK, "")
        assert progs == [f"rhkljn {command}"]

    @pytest.mark.parametrize("command", [None, "stats", "sweep", "compare", "pls"])
    def test_only_the_command_gets_flags(self, command, monkeypatch):
        queries = []
        real = shutil.get_terminal_size
        monkeypatch.setattr(shutil, "get_terminal_size", lambda *a: queries.append(a) or real(*a))
        parser = cli.build_parser(command)
        assert len(queries) == 1
        (subparsers,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        assert list(subparsers.choices) == ["stats", "sweep", "compare", "pls"]
        for name, sub in subparsers.choices.items():
            assert [s for action in sub._actions for s in action.option_strings] != ["-h", "--help"], name
        if command is not None:
            # the command's parser is the full parser's subparser for it, and nothing more
            sub = subparsers.choices[command]
            assert (parser.prog, _flags(parser), parser._defaults) == (sub.prog, _flags(sub), sub._defaults)
            assert parser.format_help() == sub.format_help()


class _Reached(BaseException):
    """Raised where a recorded run reaches the engine; not an Exception, so main lets it through."""


@pytest.fixture
def engine_reads(monkeypatch):
    """The harness values that reach the engine, recorded at the names cli calls.

    A grid, a session or a report stops the command once it is recorded.
    """
    seen = {}

    def grid(spec, params, *, jobs, trace=None, check=None):
        seen.update(
            detectors=",".join(spec.detectors),
            scenario=",".join(spec.scenarios),
            bits=spec.num_bits,
            seed=spec.master_seed,
            jobs=jobs,
        )
        raise _Reached

    def scenario(params, name):
        seen["scenario"] = name
        return apply_scenario(params, name)

    def fan_out(run_share, jobs, num_bits):
        seen["jobs"] = jobs
        return [run_share(share=(0, 1))]

    def session(num_bits, params, stats, *, seed, share, point_key):
        seen.update(bits=num_bits, seed=seed)
        raise _Reached

    def report(*args, seed, **kwargs):
        seen["seed"] = seed
        raise _Reached

    for name, fake in (
        ("run_sweep", grid), ("run_compare", grid), ("apply_scenario", scenario),
        ("fan_out", fan_out), ("run_session", session), ("build_report", report),
    ):
        monkeypatch.setattr(cli, name, fake)
    return seen


# a value of each harness key that is not its default
GUARD_VALUES = {"detectors": "ml", "scenario": "moderate", "bits": 300, "seed": 7, "jobs": 2}
# every command, pls once per set of harness keys it reads, and those keys
GUARD_RUNS = {
    "stats": (["stats"], {"scenario"}),
    "sweep": (["sweep", "--sweep", "n", "--values", "3"], set(HARNESS_KEYS)),
    "compare": (["compare", "--values", "2e4"], set(HARNESS_KEYS)),
    "pls": (["pls"], {"scenario"}),
    "pls-tolerance": (["pls", "--tolerance", "0.01"], {"scenario", "seed"}),
    "pls-measure": (["pls", "--measure"], {"scenario", "bits", "seed", "jobs"}),
}


def _recorded_run(argv, capsys):
    try:
        code = main(argv)
    except _Reached:
        code = EXIT_OK
    except SystemExit as exc:
        code = exc.code
    return code, capsys.readouterr().err


class TestSettings:
    """Every setting a command is given is read by it or fails the command."""

    def test_guard_tables_cover_every_key_and_command(self):
        assert set(GUARD_VALUES) == set(HARNESS_KEYS)
        assert {argv[0] for argv, _ in GUARD_RUNS.values()} == set(cli._COMMANDS)

    @pytest.mark.parametrize("key", list(GUARD_VALUES))
    @pytest.mark.parametrize("run", list(GUARD_RUNS))
    def test_harness_setting_is_read_or_rejected(self, tmp_path, capsys, engine_reads, run, key):
        argv, reads = GUARD_RUNS[run]
        value = GUARD_VALUES[key]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        for source, extra in (("flag", [f"--{key}", str(value)]), ("config", ["--config", str(cfg)])):
            engine_reads.clear()
            code, err = _recorded_run(argv + extra, capsys)
            if key in reads:
                assert (code, engine_reads.get(key)) == (EXIT_OK, value), source
            else:
                assert code == cli.EXIT_USAGE, source
                assert engine_reads == {}, source
                named = f"--{key}" if source == "flag" else f"error: config key {key} in {cfg} "
                assert named in err, source

    # the Boltzmann constant is params.BOLTZMANN_K, not a setting: its old
    # flag and config key fail as unknown rather than being ignored
    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_boltzmann_k_is_not_a_setting(self, command, tmp_path, capsys):
        argv = GUARD_RUNS[command][0]
        code, _, err = _exit_and_output(argv + ["--boltzmann-k", "1"], capsys)
        assert code == cli.EXIT_USAGE
        assert "unrecognized arguments: --boltzmann-k 1" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha=10\nboltzmann_k=1\n")
        code, _, err = _exit_and_output(argv + ["--config", str(cfg)], capsys)
        assert code == cli.EXIT_USAGE
        assert f"error: {cfg}:2: unknown key 'boltzmann_k'" in err

    def test_every_param_field_is_a_config_key_and_a_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{f.name}={f.default}\n" for f in fields(SystemParams)))
        values = parse_config(cfg)
        assert [(k, type(v)) for k, v in values.items()] == [(f.name, type(f.default)) for f in fields(SystemParams)]
        (subparsers,) = (a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command in cli._COMMANDS:
            for parser in (cli.build_parser(command), subparsers.choices[command]):
                flags = {a.option_strings[0]: a for a in parser._actions}
                for f in fields(SystemParams):
                    action = flags["--" + f.name.replace("_", "-")]
                    assert (action.dest, action.type) == (f.name, type(f.default)), (command, parser.prog, f.name)

    # the report the command prints is the one --strict checks
    @pytest.mark.parametrize("command", ["stats", "pls"])
    def test_strict_derives_stats_once(self, monkeypatch, capsys, command):
        calls = []
        real = cli.derive_stats
        monkeypatch.setattr(cli, "derive_stats", lambda params: calls.append(params) or real(params))
        assert main([command, "--strict", "--scenario", "fine_tuned"]) == EXIT_OK
        assert len(calls) == 1


class TestCli:
    def test_stats_prints_reference_values(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "m1" in out and "0.000545454545" in out
        assert "separability" in out

    # the table is built from name lists: a field left out of them, or
    # named twice, would drop out of the table or repeat silently
    def test_stats_prints_every_field_once(self, capsys):
        params = SystemParams()
        stats = derive_stats(params)
        param_rows = ("alpha", "beta", "gamma", "m_l", "m_h", "r_l0", "r_l1", "r_h0", "r_h1", "noise_var_per_ohm")
        derived_rows = [f.name for f in fields(DerivedStats) if f.name not in ("state_means", "state_variances", "note")]
        derived_rows += ["sigma1", "sigma2", "sigma3"]
        assert main(["stats"]) == EXIT_OK
        *table, separability = capsys.readouterr().out.splitlines()
        printed = [line.split() for line in table]
        names = [name for name, _ in printed]
        assert sorted(names) == sorted([*param_rows, *derived_rows])
        assert names[: len(param_rows)] == list(param_rows)
        for name, value in printed:
            source = params if name in param_rows else stats
            assert value == f"{getattr(source, name):.9g}", name
        assert separability.startswith("separability: ")

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha=10\nm_l=1e-4\n")
        assert main(["stats", "--config", str(cfg), "--m-l", "2e-4"]) == 0
        out = capsys.readouterr().out
        assert "0.0002" in out

    def test_config_error_exits_one(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("nope=1\n")
        assert main(["stats", "--config", str(cfg)]) == 1
        assert "nope" in capsys.readouterr().err

    def test_usage_error_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--sweep", "bogus", "--values", "1"])
        assert exc.value.code == 1

    # stats runs no session, so it takes no --bits, --seed or --jobs
    @pytest.mark.parametrize("flag, value", [("--bits", "5"), ("--seed", "5"), ("--jobs", "2")])
    def test_stats_rejects_session_flags(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", flag, value])
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: rhkljn")
        assert f"rhkljn: error: unrecognized arguments: {flag} {value}" in err

    # an empty list or a non-finite value must not run as an empty or NaN grid
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep", "--sweep", "n", "--values", "3", "--scenarios", ","], "scenarios must be non-empty"),
            (["compare", "--values", "2e4", "--scenarios", ","], "scenarios must be non-empty"),
            (["sweep", "--sweep", "n", "--values", "3", "--detectors", ","], "detectors must be non-empty"),
            (["compare", "--values", "2e4", "--detectors", ","], "detectors must be non-empty"),
            (["sweep", "--sweep", "n", "--values", "inf"], "n must be finite"),
            (["sweep", "--sweep", "n", "--values", "nan"], "n must be finite"),
            (["sweep", "--sweep", "rate", "--values", "1e400"], "rate must be finite"),
            (["compare", "--values", "inf"], "rate must be finite"),
            (["stats", "--m-l", "nan"], "m_l must be finite"),
            (["pls", "--gamma-t", "nan"], "gamma_t must be > 0"),
            (["sweep", "--sweep", "n", "--values", "3", "--detectors", "ml,ml,optimum"], "detectors must not repeat"),
            (["sweep", "--sweep", "n", "--values", "3", "--scenarios", "good,good"], "scenarios must not repeat"),
            (["compare", "--values", "2e4", "--scenarios", "good,good"], "scenarios must not repeat"),
            (["compare", "--values", "2e4", "--detectors", "ml,ml"], "detectors must not repeat"),
            (["sweep", "--sweep", "n", "--values", "3", "--detectors", ""], "detectors must be non-empty"),
            (["compare", "--values", "2e4", "--config", "detectors=\n"], "detectors must be non-empty"),
            (["sweep", "--sweep", "n", "--values", "3", "--scenarios", ""], "scenarios must be non-empty"),
            # a blank item beside others is not dropped: 3,,5 would run the grid 3,5
            (["sweep", "--sweep", "n", "--values", "3,,5"], "values list '3,,5' has a blank item"),
            (["compare", "--values", "2e4,"], "values list '2e4,' has a blank item"),
            (
                ["sweep", "--sweep", "n", "--values", "3", "--detectors", "optimum,,simple"],
                "detectors list 'optimum,,simple' has a blank item",
            ),
            (
                ["compare", "--values", "2e4", "--config", "detectors=optimum, ,ml\n"],
                "detectors list 'optimum, ,ml' has a blank item",
            ),
            (
                ["sweep", "--sweep", "n", "--values", "3", "--scenarios", ",good"],
                "scenarios list ',good' has a blank item",
            ),
            (
                ["compare", "--values", "2e4", "--config", "scenario=good,,moderate\n"],
                "scenarios list 'good,,moderate' has a blank item",
            ),
            # finite inputs whose chip-state table overflows fail before any
            # session, with no RuntimeWarning (the suite fails on one)
            (["stats", "--r-l0", "1e308"], "the chip-state table is not finite"),
            (["stats", "--r-l0", "1e200"], "the chip-state table is not finite"),
            (["stats", "--temperature", "1e300", "--bandwidth", "1e308"], "the chip-state table is not finite"),
            (["stats", "--m-l", "1e300", "--gamma", "1e10"], "the chip-state table is not finite"),
            (["sweep", "--sweep", "n", "--values", "3", "--r-l0", "1e200"], "the chip-state table is not finite"),
            (["compare", "--values", "2e4", "--r-l0", "1e308"], "the chip-state table is not finite"),
        ],
    )
    def test_empty_or_non_finite_input_exits_one(self, tmp_path, capsys, argv, message):
        out = tmp_path / "rows.csv"
        if "--config" in argv:
            # the word after --config is the file's text
            at = argv.index("--config") + 1
            cfg = tmp_path / "run.cfg"
            cfg.write_text(argv[at])
            argv = argv[:at] + [str(cfg)] + argv[at + 1:]
        if argv[0] in ("sweep", "compare"):
            argv = argv + ["--bits", "100", "--out", str(out)]
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_import_loads_no_scipy_pool_or_channel(self):
        # scipy serves the tests, the benchmark oracle and the classical
        # exact row, the process pool only --jobs above 1, and
        # rhkljn.channel and rhkljn.exact only tests and demos: a fresh
        # command imports none of them, and the exact module no scipy
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        imports = {
            "rhkljn.cli": ("scipy", "multiprocessing", "concurrent.futures", "rhkljn.channel", "rhkljn.exact"),
            "rhkljn.exact": ("scipy",),
        }
        for module, unused in imports.items():
            code = (
                f"import sys, {module}\n"
                f"print(sorted(m for m in sys.modules if any(m == u or m.startswith(u + '.') for u in {unused!r})))"
            )
            proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.strip() == "[]", module

    # a grid's message names the point that fails, whatever the swept parameter
    def test_strict_non_separable_exits_two(self, capsys):
        runs = [
            # the default 20 samples per chip are separable at good
            (["stats", "--samples-per-chip", "3"], ""),
            (["sweep", "--sweep", "gamma", "--values", "20,8", "--alpha", "19", "--beta", "2.7"], "gamma=20 good: "),
            (["sweep", "--sweep", "n", "--values", "3,5"], "n=3 good: "),
            (["compare", "--values", "2e4", "--scenarios", "moderate"], "rate=20000 moderate: "),
        ]
        for argv, point in runs:
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--strict"])
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith(f"{point}non-separable configuration: margin ratio "), argv

    # a noiseless channel is not separable at zero bias (fine_tuned sets
    # m_l = 0 at temperature 0) or with collapsed means (gamma 1)
    @pytest.mark.parametrize(
        "argv, point",
        [
            (["stats", "--m-l", "0"], ""),
            (["stats", "--gamma", "1"], ""),
            (["stats", "--scenario", "fine_tuned"], ""),
            (["sweep", "--sweep", "beta", "--values", "3.5", "--scenarios", "fine_tuned"], "beta=3.5 fine_tuned: "),
        ],
    )
    def test_strict_noiseless_non_separable_exits_two(self, capsys, argv, point):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--temperature", "0", "--strict"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(f"{point}non-separable configuration: margin ratio 0 ")

    def test_strict_separable_passes(self, capsys):
        assert main(["stats", "--strict", "--scenario", "fine_tuned"]) == 0
        # good turns separable from 4 samples per chip
        assert main(["stats", "--strict", "--samples-per-chip", "5"]) == 0

    # without --strict a grid flags each non-separable session on stderr,
    # with its point, and the CSV stays as it was
    @pytest.mark.parametrize(
        "argv, point",
        [
            (["sweep", "--sweep", "gamma", "--values", "20", "--alpha", "19", "--beta", "2.7"], "gamma=20 good"),
            (
                ["sweep", "--sweep", "beta", "--values", "3.5", "--temperature", "0", "--scenarios", "fine_tuned"],
                "beta=3.5 fine_tuned",
            ),
        ],
    )
    def test_non_separable_point_warns(self, capsys, caplog, argv, point):
        assert main([*argv, "--bits", "1000"]) == EXIT_OK
        flagged = [r.getMessage() for r in caplog.records if "separable" in r.getMessage()]
        assert len(flagged) == 1
        assert flagged[0].startswith(f"{point}: non-separable configuration: margin ratio ")
        assert "separable" not in capsys.readouterr().out

    def test_separable_point_does_not_warn(self, capsys, caplog):
        assert main(["compare", "--values", "2e4,5e4", "--scenarios", "fine_tuned", "--bits", "1000"]) == EXIT_OK
        assert not [r for r in caplog.records if "separable" in r.getMessage()]

    # --strict reads the statistics that grid setup derives for each
    # hopping session: nothing is derived a second time
    @pytest.mark.parametrize(
        "argv, hopping",
        [
            (["sweep", "--sweep", "beta", "--values", "3.4,3.7"], 2),
            (["sweep", "--sweep", "n", "--values", "3,5,10"], 3),
            (["compare", "--values", "2e4,5e4"], 2),
        ],
    )
    def test_strict_derives_once_per_hopping_session(self, monkeypatch, tmp_path, argv, hopping):
        calls = {cli: 0, sweep: 0}
        for module in calls:
            real = module.derive_stats

            def counted(params, module=module, real=real):
                calls[module] += 1
                return real(params)

            monkeypatch.setattr(module, "derive_stats", counted)
        out = tmp_path / "rows.csv"
        assert main(argv + STRICT_TUNED + ["--out", str(out)]) == EXIT_OK
        assert calls == {cli: 0, sweep: hopping}
        assert out.read_text().count("\n") == 1 + hopping + (argv[0] == "compare") * 2

    # the grid is built, and every point checked, before the strict pass,
    # which runs before any session: a point that is both beyond the
    # Nyquist count and non-separable fails as invalid (1), not as 2
    def test_strict_runs_after_setup_and_before_any_session(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a session ran")

        for module, name in ((sweep, "run_session"), (sweep, "run_classical_session")):
            monkeypatch.setattr(module, name, refuse)
        assert main(["sweep", "--sweep", "beta", "--values", "3.5", "--samples-per-chip", "201", "--strict"]) == 1
        assert "exceed the noise's Nyquist count" in capsys.readouterr().err
        for argv in (
            ["sweep", "--sweep", "gamma", "--values", "20,8", "--alpha", "19", "--beta", "2.7"],
            ["compare", "--values", "2e4", "--scenarios", "moderate"],
        ):
            with pytest.raises(SystemExit) as exc:
                main([*argv, "--strict"])
            assert exc.value.code == 2
            assert "non-separable configuration" in capsys.readouterr().err

    def test_degenerate_gamma_prints_collapsed_means(self, capsys):
        assert main(["stats", "--gamma", "1"]) == 0
        out = capsys.readouterr().out
        m1_line = [l for l in out.splitlines() if l.startswith("m1")][0]
        m3_line = [l for l in out.splitlines() if l.startswith("m3")][0]
        assert m1_line.split()[-1] == m3_line.split()[-1] == "0.0001"
        assert "NOT separable" in out

    def test_sweep_csv_roundtrip(self, tmp_path):
        out = tmp_path / "rows.csv"
        code = main(
            [
                "sweep",
                "--sweep",
                "n",
                "--values",
                "3,5",
                "--bits",
                "1500",
                "--seed",
                "11",
                "--detectors",
                "simple,optimum",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 5

    def test_optimum_row_does_not_depend_on_ml(self, tmp_path):
        # only ml reads the scatter, which is drawn last, so adding ml to a
        # sweep leaves every other detector's row byte for byte as it was
        args = ["sweep", "--sweep", "n", "--values", "3,20", "--bits", "3000", "--seed", "9"]
        rows = {}
        for detectors in ("optimum", "ml,optimum"):
            out = tmp_path / f"{detectors}.csv"
            assert main(args + ["--detectors", detectors, "--out", str(out)]) == 0
            lines = out.read_text().splitlines()[1:]
            rows[detectors] = [l for l in lines if ",optimum," in l]
        assert len(rows["optimum"]) == 2
        assert rows["optimum"] == rows["ml,optimum"]

    def test_sweep_trace_writes_chip_lines(self, tmp_path):
        trace = tmp_path / "trace.log"
        out = tmp_path / "rows.csv"
        code = main(
            [
                "sweep",
                "--sweep",
                "n",
                "--values",
                "4",
                "--bits",
                "30",
                "--trace",
                str(trace),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = trace.read_text().strip().splitlines()
        assert len(lines) == 30 * 10
        assert "m_hat=" in lines[0]

    def test_compare_emits_paired_rows(self, tmp_path):
        out = tmp_path / "cmp.csv"
        code = main(
            [
                "compare",
                "--values",
                "50000,100000",
                "--bits",
                "2000",
                "--seed",
                "13",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        # per rate: 1 classical row + fine_tuned and good rh rows
        assert len(lines) == 1 + 2 * 3
        schemes = [l.split(",")[0] for l in lines[1:]]
        assert schemes == ["classical", "rh", "rh"] * 2
        drif_col = CSV_COLUMNS.index("drif")
        drifs = {l.split(",")[0]: l.split(",")[drif_col] for l in lines[1:]}
        assert drifs["classical"] == "1"
        assert drifs["rh"] == "6"

    # without --scenarios, compare's hopping rows follow --scenario, then the
    # config's scenario, like sweep's
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_compare_scenario_follows_scenario_setting(self, tmp_path, source):
        out = tmp_path / "cmp.csv"
        argv = ["compare", "--values", "50000,100000", "--bits", "2000", "--out", str(out)]
        if source == "flag":
            argv += ["--scenario", "moderate"]
        else:
            (tmp_path / "c.cfg").write_text("scenario=moderate\n")
            argv += ["--config", str(tmp_path / "c.cfg")]
        assert main(argv) == 0
        lines = out.read_text().strip().splitlines()
        scenario_col = CSV_COLUMNS.index("scenario")
        assert [l.split(",")[scenario_col] for l in lines[1:]] == ["-", "moderate"] * 2

    def test_pls_report_with_measure(self, capsys):
        assert main(["pls", "--measure", "--bits", "2000", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "secrecy_capacity_bits=1.5849625" in out
        assert "measured_xi=" in out
        assert "measured_eve_accuracy=" in out

    # without --tolerance the outage is exact, so a trial count would be
    # silently ignored; it fails before the session of --measure
    @pytest.mark.parametrize("tolerance", [[], ["--tolerance", "0"]], ids=["none", "zero"])
    def test_pls_trials_without_tolerance_exits_one(self, capsys, monkeypatch, tolerance):
        def refuse(*args, **kwargs):
            raise AssertionError("a session ran")

        monkeypatch.setattr(cli, "run_session", refuse)
        assert main(["pls", "--measure", "--trials", "5000"] + tolerance) == 1
        assert "error: --trials needs a nonzero --tolerance" in capsys.readouterr().err

    # the outage's own arguments fail before the session of --measure, not
    # after it has run
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tolerance", "1.5"], "relative_width must be in [0, 1), got 1.5"),
            (["--tolerance", "-0.01"], "relative_width must be in [0, 1), got -0.01"),
            (["--tolerance", "nan"], "relative_width must be in [0, 1), got nan"),
            (["--gamma-t", "0"], "gamma_t must be > 0, got 0.0"),
            (["--gamma-t", "-1"], "gamma_t must be > 0, got -1.0"),
            (["--gamma-t", "nan"], "gamma_t must be > 0, got nan"),
            (["--tolerance", "0.01", "--trials", "0"], "trials must be >= 1, got 0"),
            (["--tolerance", "0.01", "--trials", "-3"], "trials must be >= 1, got -3"),
        ],
    )
    def test_pls_outage_arguments_fail_before_the_session(self, capsys, monkeypatch, flags, message):
        def refuse(*args, **kwargs):
            raise AssertionError("a session ran")

        monkeypatch.setattr(cli, "run_session", refuse)
        assert main(["pls", "--measure", *flags]) == 1
        assert f"error: {message}" in capsys.readouterr().err

    # only the session of --measure reads --bits and --jobs, and only it and
    # the outage trials read --seed, so without them they fail rather than
    # being ignored (test_pls_report_with_measure runs --measure --bits 2000
    # --seed 3); a name without dashes is a config key, which keeps its
    # flag's rule
    @pytest.mark.parametrize(
        "flag, value",
        [("--bits", "5"), ("--jobs", "3"), ("--seed", "5"), ("bits", "5"), ("jobs", "3"), ("seed", "5")],
    )
    def test_pls_session_flag_without_measure_exits_one(self, tmp_path, capsys, flag, value):
        argv, named = ["pls", flag, value], flag
        if not flag.startswith("--"):
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{flag}={value}\n")
            argv, named = ["pls", "--config", str(cfg)], f"config key {flag} in {cfg}"
        assert main(argv) == 1
        assert f"error: {named} needs --measure" in capsys.readouterr().err

    def test_pls_seed_needs_a_nonzero_tolerance_without_measure(self, tmp_path, capsys):
        assert main(["pls", "--seed", "5", "--tolerance", "0"]) == 1
        assert "error: --seed needs --measure or a nonzero --tolerance" in capsys.readouterr().err
        assert main(["pls", "--seed", "5", "--tolerance", "0.01", "--trials", "200"]) == 0
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\n")
        assert main(["pls", "--config", str(cfg), "--tolerance", "0"]) == 1
        assert f"error: config key seed in {cfg} needs --measure or a nonzero --tolerance" in capsys.readouterr().err
        assert main(["pls", "--config", str(cfg), "--tolerance", "0.01", "--trials", "200"]) == 0
        # under --measure the session reads all three config keys
        cfg.write_text("seed=7\nbits=2000\njobs=1\n")
        assert main(["pls", "--measure", "--config", str(cfg)]) == 0

    def test_pls_zero_trials_exits_one(self, capsys):
        assert main(["pls", "--tolerance", "0.01", "--trials", "0"]) == 1
        assert "error: trials must be >= 1" in capsys.readouterr().err

    # an output that cannot be written fails before the first session, not
    # after the whole grid
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--sweep", "n", "--values", "3,5", "--out"],
            ["compare", "--values", "2e4,5e4", "--out"],
            ["pls", "--measure", "--tolerance", "0.01", "--out"],
            ["pls", "--measure", "--tolerance", "0.01", "--csv"],
            ["sweep", "--sweep", "n", "--values", "3", "--trace"],
        ],
        ids=["sweep", "compare", "pls-out", "pls-csv", "sweep-trace"],
    )
    def test_unwritable_output_fails_before_any_session(self, tmp_path, capsys, monkeypatch, argv):
        def refuse(*args, **kwargs):
            raise AssertionError("a session ran")

        for module, name in ((sweep, "run_session"), (sweep, "run_classical_session"), (cli, "run_session")):
            monkeypatch.setattr(module, name, refuse)
        missing = tmp_path / "no_such_dir" / "out.csv"
        assert main(argv + [str(missing), "--bits", "100000"]) == 1
        assert f"error: cannot write {missing}: no directory {missing.parent}" in capsys.readouterr().err
        assert main(argv + [str(tmp_path), "--bits", "100000"]) == 1
        assert f"error: cannot write {tmp_path}: it is a directory" in capsys.readouterr().err

    # two outputs that name one file would leave only the one written last,
    # and an output that names the config file would overwrite it
    @pytest.mark.parametrize(
        "argv, flags, second",
        [
            (["pls", "--measure", "--out", "r.txt", "--csv"], "--out and --csv", "r.txt"),
            (["pls", "--measure", "--out", "r.txt", "--csv"], "--out and --csv", "sub/../r.txt"),
            (["sweep", "--sweep", "n", "--values", "4", "--out", "t.log", "--trace"], "--out and --trace", "t.log"),
            (["sweep", "--sweep", "n", "--values", "4", "--out", "t.log", "--trace"], "--out and --trace", "./t.log"),
            (["stats", "--config", "c.cfg", "--out"], "--config and --out", "c.cfg"),
        ],
        ids=["pls", "pls-realpath", "sweep-trace", "sweep-trace-realpath", "stats-config"],
    )
    def test_outputs_naming_one_file_fail_before_any_work(
        self, tmp_path, capsys, monkeypatch, argv, flags, second
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("the command ran")

        for module, name in ((sweep, "run_session"), (cli, "run_session"), (cli, "build_report"), (cli, "derive_stats")):
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        first = tmp_path / argv[argv.index(flags.split()[0]) + 1]
        first.write_text("alpha=12\n")
        assert main(argv + [second]) == 1
        assert f"error: {flags} name one file: {second}" in capsys.readouterr().err
        assert first.read_text() == "alpha=12\n"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_invalid_point_fails_before_any_session(self, tmp_path, capsys, monkeypatch, jobs):
        def refuse(*args, **kwargs):
            raise AssertionError("a session ran")

        monkeypatch.setattr(sweep, "run_session", refuse)
        out = tmp_path / "rows.csv"
        out.write_text("earlier rows\n")
        # n = 0 passes the output check and fails at the second grid point,
        # which is set up before the first one runs
        argv = ["sweep", "--sweep", "n", "--values", "3,0", "--out", str(out), "--jobs", jobs]
        assert main(argv) == 1
        assert "error: samples per chip must be >= 1, got 0.0" in capsys.readouterr().err
        assert out.read_text() == "earlier rows\n"

    # the trace file is opened only once the grid is checked, so a traced
    # sweep that fails its checks leaves an existing file as it was
    @pytest.mark.parametrize(
        "values, message",
        [("0", "samples per chip must be >= 1"), ("3,5", "tracing needs a single grid point")],
        ids=["invalid-point", "two-points"],
    )
    def test_invalid_traced_sweep_keeps_the_trace_file(
        self, tmp_path, capsys, monkeypatch, values, message
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("a session ran")

        monkeypatch.setattr(sweep, "run_session", refuse)
        trace = tmp_path / "t.log"
        trace.write_bytes(b"earlier chips\n")
        assert main(["sweep", "--sweep", "n", "--values", values, "--trace", str(trace)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert trace.read_bytes() == b"earlier chips\n"

    # a negative seed, from a flag or a config key, fails with the command's
    # settings, before any file is opened (numpy would reject it only at the
    # first draw, after the trace file was truncated)
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--sweep", "n", "--values", "3", "--trace", "keep.log"],
            ["compare", "--values", "2e4", "--out", "keep.log"],
            ["pls", "--measure", "--out", "keep.log"],
        ],
        ids=["sweep-trace", "compare", "pls"],
    )
    def test_negative_seed_exits_one_and_keeps_the_file(self, tmp_path, capsys, monkeypatch, argv, source):
        def refuse(*args, **kwargs):
            raise AssertionError("a session ran")

        for module, name in ((sweep, "run_session"), (sweep, "run_classical_session"), (cli, "run_session")):
            monkeypatch.setattr(module, name, refuse)
        monkeypatch.chdir(tmp_path)
        keep = tmp_path / "keep.log"
        keep.write_bytes(b"earlier chips\n")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-2\n")
        seed, extra = (-1, ["--seed", "-1"]) if source == "flag" else (-2, ["--config", str(cfg)])
        assert main(argv + ["--bits", "1000", *extra]) == 1
        assert f"error: seed must be >= 0, got {seed}" in capsys.readouterr().err
        assert keep.read_bytes() == b"earlier chips\n"

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exits_one(self, tmp_path, capsys, jobs):
        out = tmp_path / "rows.csv"
        args = ["sweep", "--sweep", "n", "--values", "3", "--bits", "100", "--out", str(out)]
        assert main(args + ["--jobs", jobs]) == 1
        assert "error: jobs must be >= 1" in capsys.readouterr().err

    def test_pls_measure_keys_are_disjoint_from_the_outage_key(self, monkeypatch, capsys):
        # chunk i of the session draws from (tag, i) and the outage trials
        # from (0xE0,); keyed (i,), chunk 224 of a run above 229,376 bits
        # drew the outage's stream.  The keys are recorded where the engine
        # and pls.sop look substream up, on a run of three chunks
        keys = {protocol: [], pls: []}
        for module in keys:
            def record(seed, key=(), module=module, real=module.substream):
                keys[module].append(tuple(key))
                return real(seed, key)
            monkeypatch.setattr(module, "substream", record)
        assert main(["pls", "--measure", "--tolerance", "0.01", "--trials", "10", "--bits", "2100"]) == EXIT_OK
        tag = cli._TAG_PLS_MEASURE
        assert keys == {protocol: [(tag, 0), (tag, 1), (tag, 2)], pls: [(0xE0,)]}
        # chunk keys of any size have two items, the outage key one; a grid
        # session's keys start with another tag
        assert tag not in (sweep._TAG_SWEEP, sweep._TAG_RH_COMPARE, sweep._TAG_CLASSICAL)

    # the midpoint fallback is logged as the run's own WARNING line, as a
    # grid logs it, not shown as a Python warning naming a file and line;
    # a --strict sweep that fails at a fallback point shows no such warning
    # either (its check derives statistics too)
    @pytest.mark.parametrize(
        "command",
        [
            ["stats", "--alpha", "4", "--beta", "3.9", "--gamma", "2.2"],
            ["pls", "--alpha", "4", "--beta", "3.9", "--gamma", "2.2"],
            ["pls", "--measure", "--bits", "1000", "--alpha", "4", "--beta", "3.9", "--gamma", "2.2"],
            ["sweep", "--sweep", "gamma", "--values", "8", "--alpha", "19", "--beta", "2.7", "--strict"],
        ],
    )
    def test_fallback_warning_names_no_file_or_line(self, command):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "rhkljn", *command], env=env, capture_output=True, text=True, timeout=60
        )
        if "--strict" in command:
            assert proc.returncode == 2, proc.stderr
            (line,) = proc.stderr.splitlines()
            assert line.startswith("gamma=8 good: non-separable configuration: ")
        else:
            assert proc.returncode == 0, proc.stderr
            assert proc.stderr.splitlines() == [f"WARNING {FALLBACK.format('th3_opt and th4_opt')}"]
        assert ".py" not in proc.stderr

    def test_pls_csv_row(self, tmp_path, capsys):
        csv = tmp_path / "pls.csv"
        assert main(["pls", "--csv", str(csv)]) == 0
        capsys.readouterr()
        lines = csv.read_text().strip().splitlines()
        assert lines[0].startswith("m_distinguishable,secrecy_capacity_bits,")
        assert lines[1].startswith("3,1.5849625,792.48125,")

    def test_stats_moderate_scenario(self, capsys):
        assert main(["stats", "--scenario", "moderate"]) == 0
        out = capsys.readouterr().out
        m1 = float([l for l in out.splitlines() if l.startswith("m1")][0].split()[-1])
        m2 = float([l for l in out.splitlines() if l.startswith("m2")][0].split()[-1])
        assert abs(m1 - 5.1818e-4) / 5.1818e-4 < 1e-4
        assert abs(m2 - 2.2431e-4) / 2.2431e-4 < 1e-4

    def test_config_file_supplies_harness_settings(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bits=1200\nseed=19\njobs=2\n")
        out = tmp_path / "rows.csv"
        assert main(
            ["sweep", "--config", str(cfg), "--sweep", "n", "--values", "4", "--out", str(out)]
        ) == 0
        row = out.read_text().strip().splitlines()[1].split(",")
        assert row[CSV_COLUMNS.index("num_bits")] == "1200"
        assert row[CSV_COLUMNS.index("seed")] == "19"

    def test_determinism_across_jobs(self, tmp_path):
        args = [
            "sweep",
            "--sweep",
            "n",
            "--values",
            "3,5",
            "--bits",
            "3000",
            "--seed",
            "17",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--jobs", "1", "--out", str(out1)]) == 0
        assert main(args + ["--jobs", "2", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    # derive_stats falls back to the midpoint for th3_opt at gamma 8 and for
    # both optimum thresholds at gamma 3 (alpha 19, beta 2.7); each point
    # logs its note with its rows, after the floor warning of the point
    # before it, at any --jobs
    def test_threshold_fallback_warns_with_its_point(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        argv = ["sweep", "--sweep", "gamma", "--values", "20,8,3", "--alpha", "19", "--beta", "2.7"]
        outputs = []
        for jobs in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "rhkljn", *argv, "--bits", "3000", "--jobs", jobs],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((proc.stdout, proc.stderr))
        assert outputs[0] == outputs[1]
        # every point is also non-separable; each logs that after its fallback
        lines = [line.split(": margin ratio")[0] for line in outputs[0][1].splitlines()]
        floor = lines.pop(1)
        assert floor.startswith("WARNING gamma=20 good/optimum: only ")
        assert floor.endswith(" errors observed; BEP below the Monte Carlo floor")
        assert lines == [
            "WARNING gamma=20 good: non-separable configuration",
            f"WARNING gamma=8 good: {FALLBACK.format('th3_opt')}",
            "WARNING gamma=8 good: non-separable configuration",
            f"WARNING gamma=3 good: {FALLBACK.format('th3_opt and th4_opt')}",
            "WARNING gamma=3 good: non-separable configuration",
        ]

    # stdout, stderr and the CSV of a grid must not depend on --jobs, though
    # above 1 each session runs in shares across processes.  A fresh
    # interpreter prints the log warnings on stderr, as a command line does.
    @pytest.mark.parametrize(
        "argv, marker",
        [
            (
                # at 20 samples per chip only beta 9, good, is non-separable
                ["sweep", "--sweep", "beta", "--values", "3.4,3.7,9", "--scenarios", "fine_tuned,good"],
                "\nrh,beta,9,good,optimum,",
            ),
            (
                ["compare", "--values", "2e4,5e4", "--scenarios", "fine_tuned,good"],
                "\nrh,rate,50000,good,optimum,",
            ),
            (
                # rates of 1.5 and 2.5 samples per chip add a rounding warning per point
                ["sweep", "--sweep", "rate", "--values", "15000,25000", "--detectors", "ml,optimum"],
                "\nrh,rate,25000,good,optimum,",
            ),
            (["pls", "--measure"], "\nmeasured_xi="),
        ],
        ids=["sweep", "compare", "rate", "pls"],
    )
    def test_output_bytes_independent_of_jobs(self, tmp_path, argv, marker):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            extra = ["--csv" if argv[0] == "pls" else "--out", str(out), "--bits", "3000", "--jobs", jobs]
            proc = subprocess.run(
                [sys.executable, "-m", "rhkljn", *argv, *extra],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append((proc.stdout, proc.stderr, out.read_text()))
        assert outputs[0] == outputs[1]
        stdout, stderr, written = outputs[0]
        if argv[0] == "pls":
            assert marker in stdout
            return
        assert marker in written
        # each point's rounding warning, then each session's separability
        # and floor warnings, in grid order: the order of a serial run
        expected, points, sessions = [], set(), set()
        for row in csv.DictReader(io.StringIO(written)):
            parameter, value, scenario = row["swept_parameter"], float(row["value"]), row["scenario"]
            params, note = _point_params(SystemParams(), parameter, value)
            if value not in points:
                points.add(value)
                expected += [f"WARNING {note}"] if note else []
            if row["scheme"] == "rh" and (value, scenario) not in sessions:
                sessions.add((value, scenario))
                params = apply_scenario(params, scenario)
                report = check_separability(params, derive_stats(params))
                if not report.separable:
                    expected.append(f"WARNING {parameter}={value:g} {scenario}: non-separable configuration: {report}")
            if int(row["errors"]) < 100:
                expected.append(
                    f"WARNING {parameter}={value:g} {row['scenario']}/{row['detector']}: only "
                    f"{row['errors']} errors observed; BEP below the Monte Carlo floor"
                )
        assert any("Monte Carlo floor" in line for line in expected)
        assert any("non-separable" in line for line in expected)
        assert stderr.splitlines() == expected
