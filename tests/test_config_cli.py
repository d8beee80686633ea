"""Config parsing, CSV schema, CLI exit codes and reproducibility."""

import io
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from rhkljn import (
    SweepSpec,
    SystemParams,
    run_classical_session,
    run_compare,
    run_sweep,
    value_key,
    write_csv,
)
from rhkljn import protocol
from rhkljn.cli import main
from rhkljn.config import ConfigError, SCENARIOS, apply_scenario, build_params, parse_config
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
        base = SystemParams()
        full = run_sweep(
            SweepSpec(swept_parameter="n", values=(3.0, 5.0), num_bits=2_000, master_seed=3),
            base,
        )
        subset = run_sweep(
            SweepSpec(swept_parameter="n", values=(5.0,), num_bits=2_000, master_seed=3),
            base,
        )
        full_at_5 = [r for r in full if r.value == 5.0][0]
        only_5 = subset[0]
        assert (full_at_5.errors, full_at_5.kept_units, full_at_5.bep) == (
            only_5.errors,
            only_5.kept_units,
            only_5.bep,
        )

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
ROUNDED_25K = "rate=25000 gives 2.5 samples per chip; simulating 2"


class TestGridPoints:
    @pytest.mark.parametrize("parameter, value", [("rate", 25_000.0), ("n", 2.5)])
    def test_rounded_samples_per_chip_are_flagged(self, caplog, parameter, value):
        # 25 kS/s over a 1e-4 s chip asks for 2.5 samples; both round to 2
        with caplog.at_level("WARNING", logger="rhkljn.sweep"):
            params = _point_params(SystemParams(), parameter, value)
        assert params.samples_per_chip == 2
        [record] = caplog.records
        assert f"{parameter}={value:g}" in record.getMessage()
        assert "2.5 samples per chip; simulating 2" in record.getMessage()

    @pytest.mark.parametrize("parameter, value, n", [("rate", 20_000.0, 2), ("n", 3.0, 3)])
    def test_whole_samples_per_chip_are_silent(self, caplog, parameter, value, n):
        with caplog.at_level("WARNING", logger="rhkljn.sweep"):
            params = _point_params(SystemParams(), parameter, value)
        assert params.samples_per_chip == n
        assert not caplog.records

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
    """Executors built and ``map`` calls made on them, through ``protocol.ProcessPoolExecutor``."""
    counts = {"built": 0, "maps": 0}

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            counts["built"] += 1
            super().__init__(*args, **kwargs)

        def map(self, *args, **kwargs):
            counts["maps"] += 1
            return super().map(*args, **kwargs)

    monkeypatch.setattr(protocol, "ProcessPoolExecutor", CountingPool)
    return counts


class TestWorkerPool:
    """One pool per grid: every session of a sweep or compare runs its chunks on it."""

    # 1500 bits are two chunks, so every session maps over the pool
    @pytest.mark.parametrize("jobs, built", [(1, 0), (2, 1)])
    def test_sweep_opens_one_pool(self, pool_counts, jobs, built):
        spec = SweepSpec(
            "beta", (3.4, 3.7, 4.0), scenarios=("fine_tuned", "good"), num_bits=1_500, master_seed=3
        )
        rows = run_sweep(spec, SystemParams(samples_per_chip=3), jobs=jobs)
        assert len(rows) == 3 * 2
        assert pool_counts == {"built": built, "maps": 6 * built}

    @pytest.mark.parametrize("jobs, built", [(1, 0), (2, 1)])
    def test_compare_opens_one_pool(self, pool_counts, jobs, built):
        spec = SweepSpec("rate", (2e4, 5e4), scenarios=("fine_tuned", "good"), num_bits=1_500)
        rows = run_compare(spec, SystemParams(), jobs=jobs)
        # per rate: one classical and two hopping sessions
        assert [r.scheme for r in rows] == ["classical", "rh", "rh"] * 2
        assert pool_counts == {"built": built, "maps": 6 * built}

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


class TestCli:
    def test_stats_prints_reference_values(self, capsys):
        assert main(["stats"]) == 0
        out = capsys.readouterr().out
        assert "m1" in out and "0.000545454545" in out
        assert "separability" in out

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
        ],
    )
    def test_empty_or_non_finite_input_exits_one(self, tmp_path, capsys, argv, message):
        out = tmp_path / "rows.csv"
        if argv[0] in ("sweep", "compare"):
            argv = argv + ["--bits", "100", "--out", str(out)]
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_import_needs_no_scipy(self):
        # scipy serves the tests and the benchmark oracle, never a run
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        code = "import sys, rhkljn.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_strict_non_separable_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--strict"])
        assert exc.value.code == 2
        assert "non-separable" in capsys.readouterr().err

    def test_strict_separable_passes(self, capsys):
        assert main(["stats", "--strict", "--scenario", "fine_tuned"]) == 0

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

    def test_pls_zero_trials_exits_one(self, capsys):
        assert main(["pls", "--tolerance", "0.01", "--trials", "0"]) == 1
        assert "error: trials must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_jobs_below_one_exits_one(self, tmp_path, capsys, jobs):
        out = tmp_path / "rows.csv"
        args = ["sweep", "--sweep", "n", "--values", "3", "--bits", "100", "--out", str(out)]
        assert main(args + ["--jobs", jobs]) == 1
        assert "error: jobs must be >= 1" in capsys.readouterr().err

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

    # compare and pls --measure share one pool across their sessions; their
    # stdout and CSV bytes must not depend on --jobs either
    @pytest.mark.parametrize(
        "argv, marker",
        [
            (
                ["compare", "--values", "2e4,5e4", "--scenarios", "fine_tuned,good", "--bits", "3000"],
                "\nrh,rate,50000,good,optimum,",
            ),
            (["pls", "--measure", "--bits", "3000"], "\nmeasured_xi="),
        ],
        ids=["compare", "pls"],
    )
    def test_output_bytes_independent_of_jobs(self, tmp_path, capsys, argv, marker):
        outputs = []
        for jobs in ("1", "2"):
            csv = tmp_path / f"jobs{jobs}.csv"
            extra = ["--csv", str(csv)] if argv[0] == "pls" else []
            assert main(argv + extra + ["--jobs", jobs]) == 0
            outputs.append((capsys.readouterr().out, csv.read_bytes() if extra else None))
        assert marker in outputs[0][0]
        assert outputs[0] == outputs[1]
