"""Security metrics: capacities, rates, Eve advantage and outage."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.stats import norm

from rhkljn import (
    PlsReport,
    ProtocolConfig,
    ResistorTolerance,
    SystemParams,
    build_report,
    delta_m,
    derive_stats,
    effective_secrecy_rate,
    empirical_eve_confusion,
    ideal_discard_fraction,
    rho,
    run_session,
    secrecy_capacity,
    secrecy_rate,
    sigma_max,
    sop,
)
from rhkljn.pls import middle_stats_from_resistors
from rhkljn.rng import substream


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
        # reference: one four-resistor draw and one scalar margin per trial
        p = default_params
        margin = delta_m(default_stats) / (2 * sigma_max(default_stats))
        nominal = np.array([p.r_l0, p.r_l1, p.r_h0, p.r_h1])
        cases = ((0.01, 1, margin), (0.05, 7, margin * 0.99), (0.002, 3, margin * 1.001))
        for width, seed, gamma_t in cases:
            rng = substream(seed, (0xE0,))
            outages = 0
            for _ in range(2_000):
                r = nominal * (1.0 + width * rng.uniform(-1.0, 1.0, 4))
                m1, m2, m3, _, s2, s3 = middle_stats_from_resistors(
                    *(float(x) for x in r), p.m_l, p.m_h, p.noise_var_per_ohm
                )
                if min(abs(m1 - m2), abs(m1 - m3)) / (2.0 * max(s2, s3)) < gamma_t:
                    outages += 1
            assert 0 < outages < 2_000
            got = sop(default_stats, gamma_t, ResistorTolerance(width), 2_000, p, seed)
            assert got == outages / 2_000

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
        p = default_params
        m1, m2, m3, s1, s2, s3 = middle_stats_from_resistors(
            p.r_l0, p.r_l1, p.r_h0, p.r_h1, p.m_l, p.m_h, p.noise_var_per_ohm
        )
        assert (m1, m2, m3) == pytest.approx(
            (default_stats.m1, default_stats.m2, default_stats.m3), rel=1e-12
        )
        assert (s1, s2, s3) == pytest.approx(
            (default_stats.sigma1, default_stats.sigma2, default_stats.sigma3), rel=1e-12
        )


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

    def test_measured_xi_matches_combinatorial(self, default_params):
        cfg = ProtocolConfig.from_params(default_params)
        tally = run_session(20_000, cfg, seed=99)["optimum"]
        assert abs(tally.discard_fraction - ideal_discard_fraction()) < 0.01
        report = build_report(default_params, cfg.stats, xi=tally.discard_fraction)
        analytic = build_report(default_params, cfg.stats)
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
        from conftest import random_valid_params

        for _ in range(20):
            params = random_valid_params(rng)
            stats = derive_stats(params)
            report = build_report(params, stats)
            # xi = 3/4 exceeds the 1/2 mixed-state weight, so the effective
            # rate sits below the secrecy rate
            assert report.effective_rate <= report.secrecy_rate + 1e-12
