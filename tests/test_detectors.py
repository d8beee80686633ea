"""Detector behavior against brute-force and high-precision oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy.stats import norm

from rhkljn import (
    ChipState,
    GaussianHypothesis,
    SystemParams,
    chip_distribution,
    derive_stats,
    gate,
    min_error_threshold,
    ml_detect_batch,
    pe1,
    pe2,
    q_function,
    sample_chip,
    stationarity_residual,
    threshold_detect,
)
from conftest import random_valid_params


class TestQFunction:
    def test_anchor_points(self):
        assert q_function(0.0) == 0.5
        assert q_function(-math.inf) == 1.0
        assert q_function(math.inf) == 0.0
        assert q_function(1.6449) == pytest.approx(0.05, rel=1e-3)

    def test_high_precision_oracle(self):
        # 50-digit reference via mpmath's erfc
        mpmath.mp.dps = 50
        for x in np.linspace(-8.0, 8.0, 33):
            ref = float(0.5 * mpmath.erfc(mpmath.mpf(float(x)) / mpmath.sqrt(2)))
            assert abs(q_function(float(x)) - ref) <= 1e-12 * ref

    def test_vectorized(self):
        xs = np.array([-1.0, 0.0, 1.0])
        out = q_function(xs)
        assert out.shape == xs.shape
        assert np.allclose(out, [q_function(-1.0), 0.5, q_function(1.0)])


class TestSampleMean:
    def test_converges_to_chip_mean(self, default_params, default_stats):
        rng = np.random.default_rng(5)
        samples = sample_chip(ChipState(0, 1, 1, 0), 400_000, rng, default_params)
        se = default_stats.sigma3 / math.sqrt(samples.values.size)
        assert abs(samples.values.mean() - default_stats.m3) < 5 * se


class TestGate:
    def test_all_low_center_discarded(self, default_params, default_stats):
        assert not gate(default_params.m_l, default_stats.thresholds())

    def test_middle_mean_kept(self, default_stats):
        assert gate(default_stats.m1, default_stats.thresholds())

    def test_all_high_center_discarded(self, default_params, default_stats):
        assert not gate(default_params.m_h, default_stats.thresholds())

    def test_array_matches_scalar(self, default_params, default_stats):
        ts = default_stats.thresholds()
        grid = np.linspace(default_params.m_l, default_params.m_h, 4001)
        grid = np.concatenate([grid, [ts.th1, ts.th2]])
        keep = gate(grid, ts)
        assert keep.shape == grid.shape and keep.dtype == bool
        assert keep.tolist() == [gate(float(m), ts) for m in grid]
        assert keep.any() and not keep.all()


class TestThresholdDetect:
    def test_three_regions(self, default_stats):
        s = default_stats
        assert threshold_detect(s.m3, s.th3, s.th4) == 3
        assert threshold_detect(s.m1, s.th3, s.th4) == 1
        assert threshold_detect(s.m2, s.th3, s.th4) == 2

    def test_monotone_step_order(self, default_stats):
        s = default_stats
        grid = np.linspace(s.m2 - 1e-4, s.m3 + 1e-4, 2001)
        labels = [threshold_detect(float(m), s.th3, s.th4) for m in grid]
        order = {2: 0, 1: 1, 3: 2}
        ranks = [order[g] for g in labels]
        assert ranks == sorted(ranks)

    @pytest.mark.parametrize("kind", ["simple", "optimum"])
    def test_array_matches_scalar(self, default_params, default_stats, kind):
        th_lo, th_hi = default_stats.thresholds().pair(kind)
        grid = np.linspace(default_params.m_l, default_params.m_h, 4000)
        grid = np.concatenate([grid, [th_lo, th_hi]]).reshape(-1, 3)
        labels = threshold_detect(grid, th_lo, th_hi)
        assert labels.shape == grid.shape
        scalar = [[threshold_detect(float(m), th_lo, th_hi) for m in row] for row in grid]
        assert labels.tolist() == scalar
        assert set(labels.ravel().tolist()) == {1, 2, 3}
        assert isinstance(threshold_detect(float(grid[0, 0]), th_lo, th_hi), int)


class TestSimpleThresholds:
    def test_default_values(self, default_stats):
        th3, th4 = default_stats.th3, default_stats.th4
        assert th3 == pytest.approx((2.36113e-4 + 5.4545e-4) / 2, rel=5e-4)
        assert th3 == pytest.approx(3.9078e-4, rel=5e-4)
        assert th4 == pytest.approx(0.5 * (default_stats.m1 + default_stats.m3), rel=1e-15)

    def test_closed_forms_match_midpoints(self, rng):
        for _ in range(25):
            p = random_valid_params(rng)
            s = derive_stats(p)
            al, be, ga, m_l = p.alpha, p.beta, p.gamma, p.m_l
            th3_closed = (
                (2 * al**2 * be + 2 * ga + al + al * (ga * be + ga + be))
                / (2 * (al * be + 1) * (al + 1))
                * m_l
            )
            th4_closed = (
                (2 * al**2 + 2 * ga * be + al + al * (ga * be + ga + be))
                / (2 * (al + 1) * (al + be))
                * m_l
            )
            assert s.th3 == pytest.approx(th3_closed, rel=1e-13)
            assert s.th4 == pytest.approx(th4_closed, rel=1e-13)

    def test_gamma_one_collapse(self):
        stats = derive_stats(SystemParams(gamma=1.0, m_l=1e-4))
        assert stats.th3 == stats.th4 == 1e-4


def ml_label(samples, hyps) -> int:
    """The ML label of one chip's samples, scored as a one-row batch."""
    return int(ml_detect_batch(np.asarray(samples, dtype=float)[None, :], hyps)[0])


class TestMlDetect:
    def test_constant_at_second_mean(self, default_stats):
        hyps = default_stats.middle_hypotheses()
        samples = np.full(200, default_stats.m2)
        assert ml_label(samples, hyps) == 2

    def test_single_sample_against_direct_cost_evaluation(self, default_stats):
        # direct cost evaluation oracle across the whole middle band,
        # including the midpoint between the outer means
        hyps = default_stats.middle_hypotheses()
        points = np.linspace(default_stats.m2, default_stats.m3, 101).tolist()
        points.append(0.5 * (default_stats.m1 + default_stats.m3))
        for v in points:
            costs = {
                h.label: math.log(h.std) + (v - h.mean) ** 2 / (2 * h.std**2) for h in hyps
            }
            expected = min(costs, key=costs.get)
            assert ml_label([v], hyps) == expected

    def test_exact_tie_is_deterministic(self):
        a = GaussianHypothesis(label=5, mean=0.0, std=2.0)
        b = GaussianHypothesis(label=7, mean=0.0, std=2.0)
        assert ml_label([1.0], (a, b)) == 5
        assert ml_label([1.0], (b, a)) == 7

    def test_zero_samples_rejected(self, default_stats):
        with pytest.raises(ValueError, match="zero samples"):
            ml_detect_batch(np.empty((3, 0)), default_stats.middle_hypotheses())

    def test_brute_force_log_density_oracle(self, default_stats, rng):
        # independently coded per-sample log-density sum
        hyps = default_stats.middle_hypotheses()
        means = np.array([h.mean for h in hyps])
        stds = np.array([h.std for h in hyps])
        labels = np.array([h.label for h in hyps])
        pick = rng.integers(0, 3, 10_000)
        values = means[pick][:, None] + stds[pick][:, None] * rng.standard_normal((10_000, 20))
        log_liks = norm.logpdf(values[:, :, None], loc=means, scale=stds).sum(axis=1)
        oracle = labels[np.argmax(log_liks, axis=1)]
        assert np.array_equal(ml_detect_batch(values, hyps), oracle)

    def test_permutation_invariance(self, default_stats, rng):
        hyps = default_stats.middle_hypotheses()
        values = default_stats.m2 + default_stats.sigma2 * rng.standard_normal(64)
        shuffled = values.copy()
        rng.shuffle(shuffled)
        assert ml_label(values, hyps) == ml_label(shuffled, hyps)


class TestMomentForm:
    """The batch detector scores (m_hat, S); the oracle sums per-sample log densities."""

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 40])
    def test_matches_log_density_brute_force(self, default_stats, n):
        hyps = default_stats.middle_hypotheses()
        means = np.array([h.mean for h in hyps])
        stds = np.array([h.std for h in hyps])
        labels = np.array([h.label for h in hyps])
        rng = np.random.default_rng(100 + n)
        pick = rng.integers(0, 3, 20_000)
        values = means[pick][:, None] + stds[pick][:, None] * rng.standard_normal((20_000, n))
        log_liks = norm.logpdf(values[:, :, None], loc=means, scale=stds).sum(axis=1)
        assert np.array_equal(ml_detect_batch(values, hyps), labels[np.argmax(log_liks, axis=1)])

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 40])
    def test_noiseless_point_masses(self, n):
        # temperature 0: every middle hypothesis is a point mass and every
        # mixed-state chip repeats its exact mean n times
        params = SystemParams(temperature=0.0)
        hyps = derive_stats(params).middle_hypotheses()
        assert all(h.std == 0.0 for h in hyps)
        rng = np.random.default_rng(n)
        for b_a in (0, 1):
            for s_a in (0, 1):
                for s_b in (0, 1):
                    state = ChipState(b_a, 1 - b_a, s_a, s_b)
                    mean, _ = chip_distribution(state, params)
                    expected = min(hyps, key=lambda h: abs(h.mean - mean)).label
                    values = sample_chip(state, n, rng, params).values[None, :]
                    assert ml_detect_batch(values, hyps)[0] == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 20, 40])
    def test_point_mass_beside_gaussians(self, n):
        hyps = (
            GaussianHypothesis(label=1, mean=0.25, std=0.0),
            GaussianHypothesis(label=2, mean=-1.0, std=0.5),
            GaussianHypothesis(label=3, mean=1.0, std=0.8),
        )
        rng = np.random.default_rng(200 + n)
        noisy = 0.6 * rng.standard_normal((5_000, n))
        values = np.concatenate([np.full((10, n), 0.25), noisy])
        # brute force: the point mass has infinite density on its mean, zero elsewhere
        on_mass = np.all(values == 0.25, axis=1)
        gauss = [h for h in hyps if h.std > 0]
        log_liks = np.stack(
            [norm.logpdf(values, loc=h.mean, scale=h.std).sum(axis=1) for h in gauss], axis=1
        )
        gauss_labels = np.array([h.label for h in gauss])
        oracle = np.where(on_mass, 1, gauss_labels[np.argmax(log_liks, axis=1)])
        assert not on_mass[10:].any()
        assert np.array_equal(ml_detect_batch(values, hyps), oracle)


class TestErrorProbabilities:
    def test_pe1_limits(self, default_stats):
        hyps = default_stats.middle_hypotheses()
        assert pe1(1e6, hyps) == pytest.approx(0.5, abs=1e-12)
        assert pe1(-1e6, hyps) == pytest.approx(0.25, abs=1e-12)

    def test_pe2_limits(self, default_stats):
        hyps = default_stats.middle_hypotheses()
        assert pe2(-1e6, hyps) == pytest.approx(0.5, abs=1e-12)
        assert pe2(1e6, hyps) == pytest.approx(0.25, abs=1e-12)

    def test_pe1_has_local_minimum_at_optimum(self, default_stats):
        hyps = default_stats.middle_hypotheses()
        th = default_stats.th3_opt
        eps = default_stats.sigma1 / 10.0
        assert pe1(th, hyps) <= pe1(th - eps, hyps)
        assert pe1(th, hyps) <= pe1(th + eps, hyps)

    def test_pe1_grid_search_oracle(self, default_stats):
        hyps = default_stats.middle_hypotheses()
        grid = np.linspace(default_stats.m2, default_stats.m1, 20_001)
        values = 0.25 * norm.sf((grid - default_stats.m2) / default_stats.sigma2) + 0.5 * norm.sf(
            (default_stats.m1 - grid) / default_stats.sigma1
        )
        assert pe1(default_stats.th3_opt, hyps) <= values.min()


class TestOptimumThresholds:
    def test_roots_lie_in_brackets(self, default_stats):
        th3, th4 = default_stats.th3_opt, default_stats.th4_opt
        assert default_stats.m2 < th3 < default_stats.m1
        assert default_stats.m1 < th4 < default_stats.m3

    def test_stationarity_residuals(self, default_stats):
        s = default_stats
        r3 = stationarity_residual(s.th3_opt, s.m1, s.sigma1, 0.5, s.m2, s.sigma2, 0.25)
        r4 = stationarity_residual(s.th4_opt, s.m1, s.sigma1, 0.5, s.m3, s.sigma3, 0.25)
        assert r3 < 1e-9 and r4 < 1e-9

    def test_th4_density_balance_direct(self, default_stats):
        # direct evaluation of the weighted normal densities at the root
        s = default_stats
        lhs = norm.pdf((s.th4_opt - s.m3) / s.sigma3) / (4.0 * s.sigma3)
        rhs = norm.pdf((s.th4_opt - s.m1) / s.sigma1) / (2.0 * s.sigma1)
        assert abs(lhs - rhs) <= 1e-9 * max(lhs, rhs)

    def test_beats_midpoint(self, default_stats):
        hyps = default_stats.middle_hypotheses()
        assert pe1(default_stats.th3_opt, hyps) <= pe1(default_stats.th3, hyps)
        assert pe2(default_stats.th4_opt, hyps) <= pe2(default_stats.th4, hyps)

    def test_equal_variance_linear_root(self):
        # A = 0: the balance reduces to a shifted midpoint
        m_heavy, m_light, s, w_heavy, w_light = 1.0, 0.0, 0.1, 0.5, 0.25
        got = min_error_threshold(m_heavy, s, w_heavy, m_light, s, w_light)
        expected = 0.5 * (m_heavy + m_light) - s**2 * math.log(w_heavy / w_light) / (
            m_heavy - m_light
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_no_root_falls_back_to_midpoint_with_warning(self):
        with pytest.warns(RuntimeWarning, match="midpoint"):
            got = min_error_threshold(1.0, 10.0, 0.5, 0.99, 20.0, 0.25)
        assert got == pytest.approx(0.995)

    def test_zero_noise_returns_midpoint(self):
        assert min_error_threshold(1.0, 0.0, 0.5, 0.0, 0.0, 0.25) == 0.5

    def test_beats_midpoint_across_random_draws(self, rng):
        from rhkljn import fine_tuned_bias

        for _ in range(20):
            base = random_valid_params(rng)
            params = base.replace(m_l=fine_tuned_bias(base, margin=float(rng.uniform(0.5, 10))))
            s = derive_stats(params)
            hyps = s.middle_hypotheses()
            assert pe1(s.th3_opt, hyps) <= pe1(s.th3, hyps)
            assert pe2(s.th4_opt, hyps) <= pe2(s.th4, hyps)


class TestMlThresholdConsistency:
    def test_agreement_on_separable_mixed_chips(self, rng):
        # with the bias at the separability bound the two detector families
        # disagree on fewer than 0.1% of mixed-state chips at 20 samples
        from rhkljn import SystemParams, fine_tuned_bias, threshold_detect

        base = SystemParams()
        params = base.replace(m_l=fine_tuned_bias(base, margin=1.0))
        s = derive_stats(params)
        hyps = s.middle_hypotheses()
        moments = np.array(
            [(s.m1, s.var1), (s.m2, s.var2), (s.m3, s.var3), (s.m1, s.var4)]
        )
        pick = rng.integers(0, 4, 20_000)
        values = moments[pick, 0:1] + np.sqrt(moments[pick, 1:2]) * rng.standard_normal(
            (20_000, 20)
        )
        ml_labels = ml_detect_batch(values, hyps)
        m_hat = values.mean(axis=1)
        th_labels = np.array(
            [threshold_detect(float(m), s.th3_opt, s.th4_opt) for m in m_hat]
        )
        assert np.mean(ml_labels == th_labels) >= 0.999
