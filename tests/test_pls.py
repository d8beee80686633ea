"""Security metrics: capacities, rates, Eve advantage and outage."""

import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import norm

from rhkljn import SystemParams, chip_moments, run_session
from rhkljn.params import derive_stats
from rhkljn.pls import (
    IDEAL_DISCARD,
    PlsReport,
    ResistorTolerance,
    build_report,
    delta_m,
    effective_secrecy_rate,
    empirical_eve_confusion,
    rho,
    secrecy_capacity,
    secrecy_rate,
    sigma_max,
    sop,
)
from rhkljn.config import SCENARIOS, apply_scenario
from rhkljn.rng import substream
from conftest import random_valid_params


class TestCapacityAndRate:
    def test_capacity_values(self):
        assert secrecy_capacity(3) == pytest.approx(math.log2(3), rel=1e-15)
        assert secrecy_capacity(1) == 0.0
        assert secrecy_capacity(2) == 1.0
        with pytest.raises(ValueError):
            secrecy_capacity(0)

    def test_rate_defaults(self):
        rate = secrecy_rate(math.log2(3), 0.5, 1e-3)
        assert rate == pytest.approx(0.5 * math.log2(3) / 1e-3, rel=1e-15)
        assert rate == pytest.approx(792.5, rel=1e-3)

    def test_rate_edge_cases(self):
        assert secrecy_rate(math.log2(3), 0.0, 1e-3) == 0.0
        assert secrecy_rate(1.0, 0.5, 2e-3) == pytest.approx(
            0.5 * secrecy_rate(1.0, 0.5, 1e-3), rel=1e-15
        )


class TestSeparationTerms:
    def test_delta_m_default(self, default_stats):
        gap = delta_m(default_stats)
        assert gap == pytest.approx(default_stats.m1 - default_stats.m2, rel=1e-15)
        assert gap == pytest.approx(3.0934e-4, rel=5e-4)

    def test_symmetric_means_tie(self):
        stats = SimpleNamespace(m1=1.0, m2=0.5, m3=1.5)
        assert delta_m(stats) == 0.5

    def test_sigma_max_dominates_components(self, default_stats):
        s_max = sigma_max(default_stats)
        assert s_max >= default_stats.sigma2
        assert s_max >= default_stats.sigma3
        assert s_max == default_stats.sigma3

    def test_rho_limits_and_default(self, default_stats):
        assert rho(0.0, 1.0) == 0.5
        assert rho(1e9, 1.0) == 0.0
        gap, spread = delta_m(default_stats), sigma_max(default_stats)
        expected = norm.sf(gap / (2 * spread))
        assert rho(gap, spread) == pytest.approx(expected, rel=1e-9)
        assert rho(gap, spread) == pytest.approx(4.2e-4, rel=5e-3)

    def test_empirical_confusion_matches_rho(self, default_stats):
        rng = np.random.default_rng(314)
        trials = 1_000_000
        measured = empirical_eve_confusion(default_stats, trials, rng)
        expected = rho(delta_m(default_stats), sigma_max(default_stats))
        se = math.sqrt(expected * (1 - expected) / trials)
        assert abs(measured - expected) < 3 * se


class TestOutage:
    def test_unperturbed_indicator_values(self, default_stats):
        # nominal margin is about 3.34
        assert sop(default_stats, gamma_t=1.0) == 0.0
        assert sop(default_stats, gamma_t=1e9) == 1.0
        margin = delta_m(default_stats) / (2 * sigma_max(default_stats))
        assert sop(default_stats, gamma_t=margin * 0.999) == 0.0
        assert sop(default_stats, gamma_t=margin * 1.001) == 1.0

    def test_monotone_in_gamma_t(self, default_stats):
        values = [sop(default_stats, g) for g in (0.5, 2.0, 3.3, 3.4, 10.0)]
        assert values == sorted(values)

    def test_perturbed_outage_monotone_in_tolerance(self, default_params, default_stats):
        margin = delta_m(default_stats) / (2 * sigma_max(default_stats))
        gamma_t = margin * 0.98
        results = [
            sop(
                default_stats,
                gamma_t,
                perturbation=ResistorTolerance(w),
                trials=2_000,
                params=default_params,
                seed=5,
            )
            for w in (0.02, 0.06, 0.12)
        ]
        assert results == sorted(results)
        assert 0.0 < results[-1] < 1.0

    def test_vectorised_outage_equals_per_trial_loop(self, default_params, default_stats):
        # reference: one four-resistor draw and one scalar margin per trial,
        # with the three middle divider pairs written out
        p = default_params
        a_v = p.noise_var_per_ohm
        margin = delta_m(default_stats) / (2 * sigma_max(default_stats))
        nominal = np.array([p.r_l0, p.r_l1, p.r_h0, p.r_h1])

        def low_high(r_low, r_high):
            # low-branch source weighted by the high resistor and vice versa
            w_low, w_high = r_high / (r_low + r_high), r_low / (r_low + r_high)
            mean = w_low * p.m_l + w_high * p.m_h
            var = w_low * w_low * (a_v * r_low) + w_high * w_high * (a_v * r_high)
            return mean, math.sqrt(var)

        cases = ((0.01, 1, margin), (0.05, 7, margin * 0.99), (0.002, 3, margin * 1.001))
        for width, seed, gamma_t in cases:
            rng = substream(seed, (0xE0,))
            outages = 0
            for _ in range(2_000):
                r_l0, r_l1, r_h0, r_h1 = (nominal * (1.0 + width * rng.uniform(-1.0, 1.0, 4))).tolist()
                m1, _ = low_high(r_l0, r_h0)
                m2, s2 = low_high(r_l0, r_h1)
                m3, s3 = low_high(r_l1, r_h0)
                if min(abs(m1 - m2), abs(m1 - m3)) / (2.0 * max(s2, s3)) < gamma_t:
                    outages += 1
            assert 0 < outages < 2_000
            got = sop(default_stats, gamma_t, ResistorTolerance(width), 2_000, p, seed)
            assert got == outages / 2_000

    @staticmethod
    def single_pass_sop(stats, gamma_t, perturbation, trials, params, seed):
        """Reference: one draw of every bank, then one array pass per middle state."""
        banks = perturbation.draw(params, substream(seed, (0xE0,)), trials)
        m1, _ = chip_moments(params, 0, 1, 0, 0, banks)
        m2, v2 = chip_moments(params, 0, 1, 0, 1, banks)
        m3, v3 = chip_moments(params, 0, 1, 1, 0, banks)
        gap = np.minimum(np.abs(m1 - m2), np.abs(m1 - m3))
        spread = np.sqrt(np.maximum(v2, v3))
        return int(np.count_nonzero(gap / (2.0 * spread) < gamma_t)) / trials

    # block edges of the outage Monte Carlo's 1024-trial blocks: one, a
    # partial, a full and a full-plus-one block, and many blocks
    @pytest.mark.parametrize("trials", [1, 1023, 1024, 1025, 2049, 30_000])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_blocked_outage_equals_single_pass(self, default_params, scenario, trials):
        params = apply_scenario(default_params, scenario)
        stats = derive_stats(params)
        margin = delta_m(stats) / (2 * sigma_max(stats))
        inside = 0
        for width in (0.001, 0.01, 0.05):
            for seed in (1, 2, 3):
                for gamma_t in (0.98 * margin, margin, 1.02 * margin):
                    args = (stats, gamma_t, ResistorTolerance(width), trials, params, seed)
                    got = sop(*args)
                    assert got == self.single_pass_sop(*args), (width, seed, gamma_t)
                    inside += 0.0 < got < 1.0
        # the grid reaches outage fractions that are not all or nothing
        assert inside > 0 or trials == 1

    def test_peak_memory_does_not_grow_with_trials(self, default_params, default_stats):
        margin = delta_m(default_stats) / (2 * sigma_max(default_stats))
        tol = ResistorTolerance(0.01)
        sop(default_stats, margin, tol, 30_000, default_params, 1)  # warm up any cache first
        peaks = []
        for trials in (30_000, 100_000):
            tracemalloc.start()
            try:
                sop(default_stats, margin, tol, trials, default_params, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 512 * 1024
        assert peaks[1] == peaks[0]

    def test_perturbation_requires_params(self, default_stats):
        with pytest.raises(ValueError):
            sop(default_stats, 1.0, perturbation=ResistorTolerance(0.01))

    @pytest.mark.parametrize("gamma_t", [0.0, -1.0, math.nan])
    def test_gamma_t_must_be_positive(self, default_stats, gamma_t):
        with pytest.raises(ValueError, match="gamma_t"):
            sop(default_stats, gamma_t)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_rejected(self, default_params, default_stats, trials):
        with pytest.raises(ValueError, match="trials"):
            sop(default_stats, 1.0, ResistorTolerance(0.01), trials, default_params)
        with pytest.raises(ValueError, match="trials"):
            sop(default_stats, 1.0, trials=trials)

    def test_middle_stats_match_nominal_resistors(self, default_params, default_stats):
        # the outage Monte Carlo's middle Gaussians on the nominal bank
        means, variances = chip_moments(
            default_params, 0, 1, np.array([0, 0, 1]), np.array([0, 1, 0]), default_params.resistors
        )
        assert tuple(means) == pytest.approx(
            (default_stats.m1, default_stats.m2, default_stats.m3), rel=1e-12
        )
        assert tuple(np.sqrt(variances)) == pytest.approx(
            (default_stats.sigma1, default_stats.sigma2, default_stats.sigma3), rel=1e-12
        )


class TestResistorBanks:
    def test_draw_shape_is_trials_by_main_by_sub(self, default_params):
        banks = ResistorTolerance(0.05).draw(default_params, np.random.default_rng(3), 7)
        assert banks.shape == (7, 2, 2)
        assert np.all(np.abs(banks / default_params.resistors - 1.0) <= 0.05)

    def test_draw_prefix_does_not_depend_on_trials(self, default_params):
        tol = ResistorTolerance(0.05)
        short = tol.draw(default_params, np.random.default_rng(9), 5)
        long = tol.draw(default_params, np.random.default_rng(9), 50)
        assert np.array_equal(short, long[:5])

    # random (k, total) pairs: the blocked outage Monte Carlo relies on both
    # properties to draw the same banks as one draw of every trial
    def test_draw_consumes_the_stream_bank_by_bank(self, default_params):
        pick = np.random.default_rng(21)
        for _ in range(30):
            tol = ResistorTolerance(float(pick.uniform(0.0, 0.5)))
            total = int(pick.integers(1, 3000))
            k = int(pick.integers(1, total + 1))
            seed = int(pick.integers(2**32))
            whole = tol.draw(default_params, np.random.default_rng(seed), total)
            prefix = tol.draw(default_params, np.random.default_rng(seed), k)
            assert np.array_equal(prefix, whole[:k])
            rng = np.random.default_rng(seed)
            first = tol.draw(default_params, rng, k)
            second = tol.draw(default_params, rng, total)
            again = tol.draw(default_params, np.random.default_rng(seed), k + total)
            assert np.array_equal(np.concatenate([first, second]), again)

    def test_batch_of_banks_equals_per_bank_calls(self, default_params):
        p = default_params
        banks = ResistorTolerance(0.1).draw(p, np.random.default_rng(4), 6)
        for bits in ((0, 1, 0, 1), (1, 1, 1, 0), (0, 0, 0, 0), (1, 0, 1, 1)):
            means, variances = chip_moments(p, *bits, resistors=banks)
            assert means.shape == variances.shape == (6,)
            for bank, mean, var in zip(banks, means, variances):
                assert (mean, var) == chip_moments(p, *bits, resistors=bank)


class TestEffectiveRate:
    def test_full_discard_kills_rate(self):
        assert effective_secrecy_rate(1.0, 0.0, 1e-3, 3) == 0.0

    def test_ideal_case(self):
        assert effective_secrecy_rate(0.0, 0.0, 1e-3, 3) == pytest.approx(
            math.log2(3) / 1e-3, rel=1e-15
        )

    def test_monotone_in_xi_and_rho(self):
        base = effective_secrecy_rate(0.5, 0.1, 1e-3, 3)
        assert effective_secrecy_rate(0.6, 0.1, 1e-3, 3) < base
        assert effective_secrecy_rate(0.5, 0.2, 1e-3, 3) < base

    def test_ideal_discard_enumerates_the_16_states(self, default_params, default_stats):
        # a chip is exchanged only when the main bits differ and the sub-bits
        # differ; every other equiprobable state is discarded
        states = itertools.product((0, 1), repeat=4)
        discarded = sum(not (b_a != b_b and s_a != s_b) for b_a, b_b, s_a, s_b in states)
        assert IDEAL_DISCARD == discarded / 16
        assert build_report(default_params, default_stats).xi == IDEAL_DISCARD

    def test_measured_xi_matches_combinatorial(self, default_params, default_stats):
        tally = run_session(20_000, default_params, default_stats, seed=99)["optimum"]
        assert abs(tally.discard_fraction - IDEAL_DISCARD) < 0.01
        report = build_report(default_params, default_stats, xi=tally.discard_fraction)
        analytic = build_report(default_params, default_stats)
        assert report.effective_rate == pytest.approx(analytic.effective_rate, rel=0.02)


class TestReport:
    def test_text_block_fields(self, default_params, default_stats):
        report = build_report(default_params, default_stats)
        assert isinstance(report, PlsReport)
        text = report.as_text()
        for key in (
            "m_distinguishable=3",
            "secrecy_capacity_bits=1.5849625",
            "rho=",
            "xi=0.75",
            "sop=0",
            "effective_rate_bps=",
        ):
            assert key in text

    def test_effective_rate_bounded_by_secrecy_rate(self, rng):
        for _ in range(20):
            params = random_valid_params(rng)
            stats = derive_stats(params)
            report = build_report(params, stats)
            # xi = 3/4 exceeds the 1/2 mixed-state weight, so the effective
            # rate sits below the secrecy rate
            assert report.effective_rate <= report.secrecy_rate + 1e-12
