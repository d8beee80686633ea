"""The closed-form rows of ``rhkljn.exact`` against reference values,
50-digit arithmetic, the benchmark's own oracle and the session engine."""

import importlib.util
import math
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rhkljn import SystemParams, run_session, state_moments
from rhkljn.config import apply_scenario
from rhkljn.exact import classical_row, interval_mass, threshold_row
from rhkljn.params import derive_stats
from rhkljn.protocol import run_classical_session
from conftest import assert_pooled, count_moments

BENCH = Path(__file__).resolve().parent.parent / "bench"

# the exact optimum BEP, 5 significant digits, at n = 3, 5, 10, 20, 40
BEP_TABLE = {
    "good": (2.4466e-4, 7.9938e-6, 1.9634e-9, 1.6134e-16, 1.5091e-30),
    "moderate": (4.0792e-4, 1.8244e-5, 9.7891e-9, 3.8266e-15, 8.0833e-28),
}
TABLE_N = (3, 5, 10, 20, 40)

# state (0, 0, 1, 1): both parties low, both sub-bits hopped
ALL_LOW_HOPPED = 3


def row_at(scenario, n, detector="optimum", **changes):
    params = apply_scenario(SystemParams(samples_per_chip=n, **changes), scenario)
    return threshold_row(params, derive_stats(params), detector)


def oracle_module():
    # oracle.py imports ``workloads`` by its plain name, so both are loaded
    # read-only under the names bench/ gives them, as test_seeds does
    for name in ("workloads", "oracle"):
        if name not in sys.modules:
            spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
            module = sys.modules[name] = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
    return sys.modules["oracle"]


class TestIntervalMass:
    def test_edges(self):
        assert interval_mass(-math.inf, math.inf, 3.0, 2.0) == 1.0
        assert interval_mass(0.0, math.inf, 0.0, 1.0) == 0.5
        assert interval_mass(-math.inf, 0.0, 0.0, 1.0) == 0.5
        assert interval_mass(1.0, 1.0, 1.0, 1.0) == 0.0
        assert interval_mass(2.0, 1.0, 1.5, 1.0) == 0.0
        # a point mass counts on (a, b] only
        assert interval_mass(0.0, 1.0, 1.0, 0.0) == 1.0
        assert interval_mass(1.0, 2.0, 1.0, 0.0) == 0.0
        assert interval_mass(-math.inf, math.inf, 1.0, 0.0) == 1.0

    @pytest.mark.parametrize("args", [(math.nan, 1.0, 0.0, 1.0), (0.0, 1.0, math.nan, 1.0), (0.0, 1.0, 0.0, -1.0)])
    def test_invalid_input_fails(self, args):
        with pytest.raises(ValueError):
            interval_mass(*args)

    @pytest.mark.parametrize("z", [5.0, 10.0, 20.0, 30.0])
    def test_far_tail_against_mpmath(self, z):
        # where 1 - CDF cancels to 0 or to one ulp of 1; the rounding of
        # the standardised edge alone costs ~z^2 ulps
        with mpmath.workdps(50):
            want = mpmath.ncdf(-z - 1) - mpmath.ncdf(-z - 2) + mpmath.ncdf(-z)
            got = interval_mass(z + 1.0, z + 2.0, 0.0, 1.0) + interval_mass(-math.inf, -z, 0.0, 1.0)
            assert abs(got - want) <= 1e-12 * want

    EDGE = st.floats(-60.0, 60.0)
    SD = st.floats(1e-3, 10.0)

    @settings(deadline=None, derandomize=True, database=None, max_examples=300)
    @given(EDGE, EDGE, EDGE, EDGE, SD)
    def test_additive_over_a_split_point(self, a, b, c, mu, sd):
        a, b, c = sorted((a, b, c))
        whole = interval_mass(a, c, mu, sd)
        assert math.isclose(whole, interval_mass(a, b, mu, sd) + interval_mass(b, c, mu, sd), rel_tol=1e-12, abs_tol=1e-15)

    @settings(deadline=None, derandomize=True, database=None, max_examples=300)
    @given(EDGE, EDGE, EDGE, SD)
    def test_mirror_symmetric_about_the_mean(self, a, b, mu, sd):
        # X -> -X maps N(mu, sd^2) on (a, b] onto N(-mu, sd^2) on [-b, -a)
        assert interval_mass(a, b, mu, sd) == interval_mass(-b, -a, -mu, sd)

    @settings(deadline=None, derandomize=True, database=None, max_examples=300)
    @given(st.floats(allow_nan=False), st.floats(allow_nan=False), EDGE, st.floats(0.0, 10.0))
    def test_a_probability(self, a, b, mu, sd):
        assert 0.0 <= interval_mass(a, b, mu, sd) <= 1.0


class TestThresholdRows:
    @pytest.mark.parametrize("scenario", sorted(BEP_TABLE))
    def test_optimum_bep_table(self, scenario):
        beps = [row_at(scenario, n).bep for n in TABLE_N]
        assert [float(f"{bep:.5g}") for bep in beps] == list(BEP_TABLE[scenario])

    def test_one_state_carries_the_errors(self):
        # the all-low chips whose sub-bits both hopped leak over the gate th1
        row = row_at("good", 3)
        assert round(row_at("good", 1).shares[ALL_LOW_HOPPED], 4) == 0.9219
        assert round(row.shares[ALL_LOW_HOPPED], 4) == 0.9998
        assert math.isclose(math.fsum(row.shares), 1.0, rel_tol=1e-12)
        assert row.error == pytest.approx(math.fsum(row.error_by_main) / 4)

    @pytest.mark.parametrize("scenario", sorted(BEP_TABLE))
    @pytest.mark.parametrize("detector", ["simple", "optimum"])
    def test_n40_against_mpmath(self, scenario, detector):
        params = apply_scenario(SystemParams(samples_per_chip=40), scenario)
        stats = derive_stats(params)
        row = threshold_row(params, stats, detector)
        with mpmath.workdps(50):
            keep = error = mpmath.mpf(0)
            for k, (mu, var) in enumerate(zip(*(t.tolist() for t in state_moments(params)))):
                sd = mpmath.sqrt(mpmath.mpf(var) / 40)
                mass = sum(
                    mpmath.ncdf((b - mu) / sd) - mpmath.ncdf((a - mu) / sd)
                    for a, b in stats.thresholds().kept_intervals(detector)
                    if a < b
                )
                keep += mass / 16
                error += mass / 16 if (k >> 1 & 1) == (k & 1) else 0
            assert abs(row.keep - keep) <= 1e-10 * keep
            assert abs(row.error - error) <= 1e-10 * error
            assert abs(row.bep - error / keep) <= 1e-10 * (error / keep)
        assert not row.underflow

    # bench/oracle takes ndtr differences: a chip that leaks past th1 with
    # probability Q(z) reads 1 - ndtr(z), so each error term carries an
    # absolute error of about one ulp of 1 (relative 2e-12 at n=5, 6e-9 at
    # n=10); kept fractions, which are O(1), agree to 1e-12 throughout
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 10])
    def test_against_bench_oracle(self, n):
        oracle = oracle_module()
        bits = 100_000
        for scenario in sorted(BEP_TABLE):
            params = apply_scenario(SystemParams(samples_per_chip=n), scenario)
            stats = derive_stats(params)
            units = bits * params.chips_per_bit
            for detector in ("simple", "optimum"):
                row = threshold_row(params, stats, detector)
                keep_m, error_m = oracle.hopping_moments(params, detector, bits)
                for got, want in zip(count_moments(row.keep_by_main, params.chips_per_bit, bits), (keep_m.mean, keep_m.var)):
                    assert got == pytest.approx(want, rel=1e-12, abs=0)
                for got, want in zip(count_moments(row.error_by_main, params.chips_per_bit, bits), (error_m.mean, error_m.var)):
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-15 * units)
                if n <= 3:
                    assert error_m.mean == pytest.approx(row.error * units, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_classical_against_bench_oracle(self, n):
        oracle = oracle_module()
        params = SystemParams(samples_per_chip=n)
        row = classical_row(params)
        keep_m, error_m = oracle.classical_moments(params, n, 1000)
        assert count_moments(row.keep_by_main, 1, 1000) == pytest.approx((keep_m.mean, keep_m.var), rel=1e-12)
        assert count_moments(row.error_by_main, 1, 1000) == pytest.approx((error_m.mean, error_m.var), rel=1e-12)
        assert row.shares[1] == row.shares[2] == 0.0

    def test_underflow_is_flagged(self):
        # m_l = 1e-3 V puts the leak of the all-low chips past erfc's range
        row = row_at(None, 10, m_l=1e-3)
        assert row.error == 0.0 and row.keep > 0.2
        assert row.underflow
        assert not row_at(None, 3, m_l=1e-3).underflow
        assert not row_at("good", 40).underflow

    def test_noiseless_row_is_exact(self):
        # temperature 0: point masses, the mixed chips with differing sub-bits kept
        row = row_at("good", 3, temperature=0.0)
        assert (row.keep, row.error, row.underflow) == (0.25, 0.0, False)

    def test_classical_row_needs_noise(self):
        with pytest.raises(ValueError, match="temperature 0"):
            classical_row(SystemParams(temperature=0.0))


# sessions checked against the exact rows: per scenario, samples per chip
# and count, one pooled check over these seeds (none of them used
# elsewhere), with the between-main variance of conftest.count_moments
MC_SEEDS = (9101, 9102, 9103, 9104, 9105)
MC_BITS = 100_000


@pytest.mark.parametrize("scenario", ["good", "moderate"])
@pytest.mark.parametrize("n", [1, 3])
def test_sessions_match_the_threshold_rows(scenario, n):
    params = apply_scenario(SystemParams(samples_per_chip=n), scenario)
    stats = derive_stats(params)
    detectors = ("simple", "optimum")
    runs = [run_session(MC_BITS, params, stats, seed=seed, detectors=detectors) for seed in MC_SEEDS]
    for detector in detectors:
        row = threshold_row(params, stats, detector)
        kept = [run[detector].kept_chips for run in runs]
        errors = [run[detector].sub_bit_errors for run in runs]
        assert_pooled(kept, *count_moments(row.keep_by_main, params.chips_per_bit, MC_BITS))
        assert_pooled(errors, *count_moments(row.error_by_main, params.chips_per_bit, MC_BITS))


@pytest.mark.parametrize("n", [1, 3])
def test_classical_sessions_match_the_classical_rows(n):
    # rate-matched to n samples per chip, as compare runs it
    params = SystemParams(chips_per_bit=1, samples_per_chip=SystemParams().chips_per_bit * n)
    row = classical_row(params)
    runs = [run_classical_session(MC_BITS, params, seed=seed)["classical"] for seed in MC_SEEDS]
    assert_pooled([run.kept_chips for run in runs], *count_moments(row.keep_by_main, 1, MC_BITS))
    assert_pooled([run.sub_bit_errors for run in runs], *count_moments(row.error_by_main, 1, MC_BITS))
