"""Closed-form parameter statistics against hand-computed and reference values."""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from rhkljn import (
    InvalidParamsError,
    NonSeparableError,
    SystemParams,
    check_separability,
    chip_moments,
    derive_coefficients,
    derive_stats,
    drif,
    fine_tuned_bias,
    separability_coefficients,
    state_moments,
)
from conftest import random_valid_params

# reference values printed for the default configuration (5 significant digits)
REF_M1 = 5.4545e-4
REF_M2 = 2.36113e-4
REF_M3_ROUNDED = 1.4e-3
REF_SIGMA1 = 2.7436e-5
REF_SIGMA2 = 2.8373e-5
REF_SIGMA3 = 4.6332e-5


def rel(a, b):
    return abs(a - b) / abs(b)


class TestCoefficients:
    def test_defaults_match_hand_evaluation(self, default_params):
        # c1 = (10+50)/11, c2 = (50+35)/36, c3 = (10+175)/13.5
        c1, c2, c3, c4 = derive_coefficients(default_params)
        assert c1 == pytest.approx(60.0 / 11.0, rel=1e-15)
        assert c2 == pytest.approx(85.0 / 36.0, rel=1e-15)
        assert c3 == pytest.approx(185.0 / 13.5, rel=1e-15)
        assert c4 == c1

    def test_gamma_one_collapses_all_means(self):
        params = SystemParams(gamma=1.0, m_l=1e-4)
        c1, c2, c3, _ = derive_coefficients(params)
        assert c1 == c2 == c3 == 1.0
        stats = derive_stats(params)
        assert stats.m1 == stats.m2 == stats.m3 == params.m_l

    def test_beta_one_degenerates_hopping(self):
        params = SystemParams(beta=1.0)
        c1, c2, c3, _ = derive_coefficients(params)
        assert c2 == pytest.approx(c1, rel=1e-15)
        assert c3 == pytest.approx(c1, rel=1e-15)


class TestDerivedStats:
    def test_default_means_and_sigmas(self, default_stats):
        assert rel(default_stats.m1, REF_M1) < 1e-4
        assert rel(default_stats.m2, REF_M2) < 1e-4
        assert rel(default_stats.sigma1, REF_SIGMA1) < 1e-4
        assert rel(default_stats.sigma2, REF_SIGMA2) < 1e-4
        assert rel(default_stats.sigma3, REF_SIGMA3) < 1e-4
        # m3 is only printed rounded to 1.4e-3; the exact formula is truth
        assert default_stats.m3 == pytest.approx(185.0 / 13.5 * 1e-4, rel=1e-12)
        assert abs(REF_M3_ROUNDED - default_stats.m3) / default_stats.m3 < 0.03

    def test_moderate_bias_means(self):
        stats = derive_stats(SystemParams(m_l=9.5e-5))
        assert rel(stats.m1, 5.1818e-4) < 5e-4
        assert rel(stats.m2, 2.2431e-4) < 5e-4
        assert abs(1.3e-3 - stats.m3) / stats.m3 < 0.03
        # sigmas do not depend on the bias
        assert rel(stats.sigma1, REF_SIGMA1) < 5e-4

    def test_variance_closed_forms(self, default_params, default_stats):
        a = default_params.noise_var_per_ohm
        al, be, r = default_params.alpha, default_params.beta, default_params.r_l0
        assert default_stats.var1 == pytest.approx(a * al * r / (al + 1), rel=1e-14)
        assert default_stats.var2 == pytest.approx(a * al * be * r / (al * be + 1), rel=1e-14)
        assert default_stats.var3 == pytest.approx(a * al * be * r / (al + be), rel=1e-14)
        # the both-hopped middle component: a*(r_l1 || r_h1) = beta*var1
        assert default_stats.var4 == pytest.approx(be * default_stats.var1, rel=1e-14)

    def test_gate_thresholds_are_midpoints(self, default_params, default_stats):
        s = default_stats
        assert s.th1 == pytest.approx(0.5 * (default_params.m_l + s.m2), rel=1e-15)
        assert s.th2 == pytest.approx(0.5 * (default_params.m_h + s.m3), rel=1e-15)
        # printed closed forms in the ratios agree with the mean midpoints
        al, be, ga = default_params.alpha, default_params.beta, default_params.gamma
        m_l = default_params.m_l
        th1_closed = (ga + 2 * al * be + 1) / (2 * (al * be + 1)) * m_l
        th2_closed = (al + 2 * ga * be + al * ga) / (2 * (al + be)) * m_l
        assert s.th1 == pytest.approx(th1_closed, rel=1e-14)
        assert s.th2 == pytest.approx(th2_closed, rel=1e-14)

    def test_mean_ordering(self, default_params, default_stats):
        s = default_stats
        assert default_params.m_l < s.m2 < s.m1 < s.m3 < default_params.m_h
        assert s.th1 < s.m2 and s.th2 > s.m3

    def test_threshold_ordering_under_separability(self, default_params):
        tuned = default_params.replace(m_l=fine_tuned_bias(default_params))
        s = derive_stats(tuned)
        assert s.th1 < s.th3 < s.th4 < s.th2
        assert s.th1 < s.th3_opt < s.th4_opt < s.th2
        assert s.m2 < s.th3_opt < s.m1 < s.th4_opt < s.m3


class TestMixtureTables:
    def test_all_low_case(self, default_params, default_stats):
        a = default_params.noise_var_per_ohm
        r, be = default_params.r_l0, default_params.beta
        table = default_stats.mixture_tables[(0, 0)]
        by_sub = {e.sub_bits: e for e in table}
        for entry in table:
            assert entry.mean == pytest.approx(default_params.m_l, rel=1e-15)
            assert entry.weight == 0.25
        assert by_sub[(0, 0)].variance == pytest.approx(0.5 * a * r, rel=1e-14)
        assert by_sub[(0, 1)].variance == pytest.approx(a * be / (be + 1) * r, rel=1e-14)
        assert by_sub[(1, 0)].variance == by_sub[(0, 1)].variance
        assert by_sub[(1, 1)].variance == pytest.approx(0.5 * a * be * r, rel=1e-14)

    def test_all_high_case(self, default_params, default_stats):
        for entry in default_stats.mixture_tables[(1, 1)]:
            assert entry.mean == pytest.approx(default_params.m_h, rel=1e-15)

    def test_mixed_case_entries(self, default_stats):
        s = default_stats
        by_sub = {e.sub_bits: e for e in s.mixture_tables[(0, 1)]}
        assert by_sub[(0, 0)].mean == pytest.approx(s.m1, rel=1e-15)
        assert by_sub[(0, 0)].variance == pytest.approx(s.var1, rel=1e-15)
        assert by_sub[(0, 1)].mean == pytest.approx(s.m2, rel=1e-15)
        assert by_sub[(0, 1)].variance == pytest.approx(s.var2, rel=1e-15)
        assert by_sub[(1, 0)].mean == pytest.approx(s.m3, rel=1e-15)
        assert by_sub[(1, 0)].variance == pytest.approx(s.var3, rel=1e-15)
        assert by_sub[(1, 1)].mean == pytest.approx(s.m1, rel=1e-15)
        assert by_sub[(1, 1)].variance == pytest.approx(s.var4, rel=1e-15)

    def test_mirror_symmetry_under_sub_swap(self, default_stats):
        fwd = {e.sub_bits: (e.mean, e.variance) for e in default_stats.mixture_tables[(0, 1)]}
        rev = {e.sub_bits: (e.mean, e.variance) for e in default_stats.mixture_tables[(1, 0)]}
        for (sa, sb), moments in fwd.items():
            assert rev[(sb, sa)] == moments

    def test_weights_sum_to_one(self, default_stats):
        for entries in default_stats.mixture_tables.values():
            assert math.fsum(e.weight for e in entries) == pytest.approx(1.0)

    def test_entries_are_floats_in_sub_bit_order(self, default_stats):
        for entries in default_stats.mixture_tables.values():
            assert [e.sub_bits for e in entries] == [(0, 0), (0, 1), (1, 0), (1, 1)]
            for e in entries:
                assert type(e.mean) is float and type(e.variance) is float


class TestStateMoments:
    def test_flat_index_matches_per_state_chip_moments(self, rng):
        configs = [SystemParams(), SystemParams(temperature=0.0)]
        for params in configs + [random_valid_params(rng) for _ in range(5)]:
            means, variances = state_moments(params)
            assert means.shape == variances.shape == (16,)
            for b_a, b_b, s_a, s_b in itertools.product((0, 1), repeat=4):
                k = 8 * b_a + 4 * b_b + 2 * s_a + s_b
                mean, var = chip_moments(params, b_a, b_b, s_a, s_b)
                assert (means[k], variances[k]) == (mean, var), (b_a, b_b, s_a, s_b)


class TestSeparability:
    def test_default_coefficients(self, default_params):
        k1, k2, k3, k4 = separability_coefficients(default_params)
        # evaluate the printed closed forms independently
        al, be, ga = 10.0, 3.5, 50.0
        k1_ref = 3 * (math.sqrt(0.5 * al) + math.sqrt(0.5 * al * be / (al * be + 1))) * (al * be + 1) / (ga - 1)
        k2_ref = 3 * (math.sqrt(al * be / (al + be)) + math.sqrt(0.5 * al * be)) * (al + be) / (al * (ga - 1))
        k3_ref = (
            3
            * (math.sqrt(al / (al + 1)) + math.sqrt(al * be / (al * be + 1)))
            * (al + be)
            * (al * be + 1)
            / (al * (ga * be**2 - ga - be**2))
        )
        k4_ref = (
            3
            * (math.sqrt(al / (al + 1)) + math.sqrt(al * be / (al + be)))
            * (al + be)
            * (al + 1)
            / (al * (1 - ga - be + ga * be))
        )
        assert (k1, k2, k3, k4) == pytest.approx((k1_ref, k2_ref, k3_ref, k4_ref), rel=1e-14)
        assert (round(k1, 2), round(k2, 2), round(k3, 2), round(k4, 2)) == (6.47, 0.48, 0.51, 0.93)
        assert max(k1, k2, k3, k4) == k1

    def test_k1_against_gate_condition_oracle(self, default_params):
        # solve the gate-side tail condition for equality in the bias and
        # express the solution in units of sigma_r_l0
        p = default_params
        a, r = p.noise_var_per_ohm, p.r_l0
        c2 = derive_coefficients(p)[1]
        lhs_noise = 3 * math.sqrt(0.5 * a * p.alpha * r)
        rhs_noise = 3 * math.sqrt(0.5 * a * p.alpha * p.beta / (p.alpha * p.beta + 1) * r)

        def balance(m_l):
            return m_l * (c2 - 1.0) - (lhs_noise + rhs_noise)

        m_star = brentq(balance, 1e-12, 1.0)
        sigma_r = math.sqrt(a * r)
        k1 = separability_coefficients(p)[0]
        assert m_star / sigma_r == pytest.approx(k1, rel=1e-9)

    def test_margin_ratio_default(self, default_params, default_stats):
        report = check_separability(default_params, default_stats)
        sigma_r = math.sqrt(default_params.noise_var_per_ohm * default_params.r_l0)
        assert sigma_r == pytest.approx(2.8775e-5, rel=1e-4)
        assert report.ratio == pytest.approx(1e-4 / (default_stats.k1 * sigma_r), rel=1e-12)
        assert report.ratio == pytest.approx(0.5375, abs=5e-4)
        assert not report.separable

    def test_fine_tuned_margin_is_ten(self, default_params):
        tuned = default_params.replace(m_l=fine_tuned_bias(default_params))
        report = check_separability(tuned, derive_stats(tuned))
        assert report.ratio == pytest.approx(10.0, rel=1e-12)
        assert report.separable

    def test_large_margin_passes_any_factor(self, default_params):
        boosted = default_params.replace(m_l=fine_tuned_bias(default_params, margin=100.0))
        report = check_separability(boosted, derive_stats(boosted), factor=50.0)
        assert report.ratio == pytest.approx(100.0, rel=1e-12)
        assert report.separable

    def test_zero_bias_not_separable(self, default_params):
        params = default_params.replace(m_l=0.0)
        report = check_separability(params, derive_stats(params))
        assert report.ratio == 0.0
        assert not report.separable

    def test_nonpositive_denominator_reports_which(self):
        with pytest.raises(NonSeparableError, match="k3"):
            separability_coefficients(SystemParams(alpha=10.0, beta=1.2, gamma=2.0))
        with pytest.raises(NonSeparableError, match="gamma"):
            separability_coefficients(SystemParams(gamma=1.0))

    def test_degenerate_gamma_reports_not_separable(self):
        params = SystemParams(gamma=1.0)
        stats = derive_stats(params)
        assert math.isinf(stats.k_max)
        assert not check_separability(params, stats).separable


class TestDrif:
    def test_values(self):
        assert drif(10) == 6.0
        assert drif(0) == 1.0
        assert drif(4) == 3.0
        with pytest.raises(ValueError):
            drif(-1)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -1.0},
            {"bandwidth": 0.0},
            {"r_l0": -5.0},
            {"beta": 0.9},
            {"alpha": 2.0, "beta": 3.0},
            {"gamma": 0.5},
            {"m_l": -1e-6},
            {"chips_per_bit": 0},
            {"samples_per_chip": 0},
            {"bit_duration": 0.0},
            # non-finite values fail whichever bound they would slip past
            {"m_l": math.nan},
            {"temperature": math.inf},
            {"alpha": math.inf},
            {"boltzmann_k": math.nan},
        ],
    )
    def test_invalid_params_raise(self, kwargs):
        with pytest.raises(InvalidParamsError):
            SystemParams(**kwargs)


class TestRandomizedProperties:
    def test_ordering_holds_across_valid_draws(self, rng):
        for _ in range(200):
            params = random_valid_params(rng)
            stats = derive_stats(params)
            assert stats.m2 < stats.m1 < stats.m3
            assert stats.var1 < stats.var2 < stats.var3
            assert params.m_l < stats.m2 and stats.m3 < params.m_h
            for entries in stats.mixture_tables.values():
                assert math.fsum(e.weight for e in entries) == pytest.approx(1.0)
                assert all(e.variance > 0 for e in entries)

    def test_mirror_symmetry_across_valid_draws(self, rng):
        for _ in range(50):
            stats = derive_stats(random_valid_params(rng))
            fwd = {e.sub_bits: (e.mean, e.variance) for e in stats.mixture_tables[(0, 1)]}
            rev = {e.sub_bits: (e.mean, e.variance) for e in stats.mixture_tables[(1, 0)]}
            assert all(rev[(sb, sa)] == v for (sa, sb), v in fwd.items())
