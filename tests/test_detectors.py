"""Detector behavior against brute-force and high-precision oracles."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import gammaincc
from scipy.stats import norm

from rhkljn import SystemParams, chip_moments
from rhkljn.channel import ChipState, sample_chip
from rhkljn.config import SCENARIOS, apply_scenario
from rhkljn.detectors import (
    ML_CORE_TAIL,
    GaussianHypothesis,
    _center_quadratics,
    _gamma_tail_point,
    detect_moments,
    min_error_threshold,
    ml_center_band,
    ml_core,
    ml_detect_batch,
    moment_costs,
    q_function,
)
from rhkljn.exact import pe1, pe2, stationarity_residual
from rhkljn.params import derive_stats, fine_tuned_bias
from rhkljn.protocol import _ChunkSpec, _rh_chunk_arrays, _tally_chunk
from conftest import random_valid_params, scatter_everywhere


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


class TestSampleMean:
    def test_converges_to_chip_mean(self, default_params, default_stats):
        rng = np.random.default_rng(5)
        samples = sample_chip(ChipState(0, 1, 1, 0), 400_000, rng, default_params)
        se = default_stats.sigma3 / math.sqrt(samples.size)
        assert abs(samples.mean() - default_stats.m3) < 5 * se


def scenario_point(scenario):
    params = apply_scenario(SystemParams(), scenario)
    return params, derive_stats(params)


@pytest.mark.parametrize("kind", ["simple", "optimum"])
@pytest.mark.parametrize("scenario", ["good", "moderate"])
class TestIntervalRule:
    """``ThresholdSet``'s verdicts against the sides its docstring states:
    the gate [th1, th2], the centre band (lo, hi] and so the kept intervals
    [th1, lo] and (hi, th2].  ("good" has the default bias.)"""

    @staticmethod
    def verdicts(ts, kind, m_hat):
        """The gate, keep mask and labels at ``m_hat``, checked against
        the documented sides of ``kept_intervals``."""
        m_hat = np.asarray(m_hat, dtype=float)
        (th1, lo), (hi, th2) = ts.kept_intervals(kind)
        gate, keep, label = ts.gate(m_hat), ts.keep(m_hat, kind), ts.label(m_hat, kind)
        assert gate.dtype == keep.dtype == bool and gate.shape == keep.shape == label.shape == m_hat.shape
        kept = ((th1 <= m_hat) & (m_hat <= lo)) | ((hi < m_hat) & (m_hat <= th2))
        assert np.array_equal(gate & keep, kept)
        assert np.array_equal(keep, label != 1)
        assert np.array_equal(label == 1, (lo < m_hat) & (m_hat <= hi))
        assert np.array_equal(label == 3, m_hat > hi)
        assert not gate[np.isnan(m_hat)].any()
        return gate, keep, label

    @staticmethod
    def edges(ts):
        """Every threshold with its 1-ulp neighbours, then -inf, inf and NaN."""
        near = [x for th in dataclasses.astuple(ts) for x in (np.nextafter(th, -np.inf), th, np.nextafter(th, np.inf))]
        return np.array(near + [-np.inf, np.inf, np.nan])

    def test_every_edge(self, scenario, kind):
        _, stats = scenario_point(scenario)
        ts = stats.thresholds()
        assert ts.th1 < ts.pair(kind)[0] <= ts.pair(kind)[1] < ts.th2  # the clamps change nothing
        gate, keep, label = self.verdicts(ts, kind, self.edges(ts))
        assert not gate[-3:].any() and keep[-3:].all()
        # each threshold's (gate, keep) verdicts at its lower neighbour, itself and its upper one
        near = zip(gate[:-3].reshape(-1, 3).tolist(), keep[:-3].reshape(-1, 3).tolist())
        by_edge = dict(zip(dataclasses.astuple(ts), near))
        # the gate is closed at both ends, the band open below and closed above
        assert by_edge[ts.th1][0] == [False, True, True] and by_edge[ts.th2][0] == [True, True, False]
        lo, hi = ts.pair(kind)
        assert by_edge[lo][1] == [True, True, False] and by_edge[hi][1] == [False, False, True]
        assert label[-1] == 2

    def test_scalar_keep_is_the_label_verdict(self, scenario, kind):
        # a Python float, at each edge of the kept intervals and its
        # 1-ulp neighbours: keep is a bool verdict, not ~ of one
        ts = scenario_point(scenario)[1].thresholds()
        for edge in (x for interval in ts.kept_intervals(kind) for x in interval):
            for m in (math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)):
                assert bool(ts.keep(m, kind)) == (ts.label(m, kind) != 1), m

    def test_equal_band_edges_keep_everything(self, scenario, kind):
        _, stats = scenario_point(scenario)
        th = stats.thresholds().pair(kind)[0]
        ts = dataclasses.replace(stats.thresholds(), th3=th, th4=th, th3_opt=th, th4_opt=th)
        _, keep, label = self.verdicts(ts, kind, self.edges(ts))
        assert keep.all() and 1 not in label

    def test_regions(self, scenario, kind):
        params, stats = scenario_point(scenario)
        ts = stats.thresholds()
        # the all-low and all-high centres fail the gate, the middle means pass it
        assert ts.gate(params.m_l) is False and ts.gate(params.m_h) is False
        assert ts.gate(stats.m1) and ts.gate(stats.m2) and ts.gate(stats.m3)
        assert ts.label(np.array([stats.m2, stats.m1, stats.m3]), kind).tolist() == [2, 1, 3]
        grid = np.linspace(params.m_l, params.m_h, 4001)
        gate, _, label = self.verdicts(ts, kind, grid.reshape(-1, 1))
        assert gate.ravel().tolist() == [ts.gate(float(m)) for m in grid]
        assert gate.any() and not gate.all()
        ranks = [{2: 0, 1: 1, 3: 2}[g] for g in label.ravel().tolist()]
        assert ranks == sorted(ranks) and set(label.ravel().tolist()) == {1, 2, 3}

    @settings(deadline=None, derandomize=True, database=None, max_examples=200)
    @given(
        arrays(np.float64, st.integers(0, 50), elements=st.one_of(st.floats(), st.floats(0.0, 4e-3))),
        st.lists(st.floats(0.0, 4e-3), min_size=2, max_size=2),
    )
    def test_any_sample_means(self, scenario, kind, m_hat, band):
        ts = scenario_point(scenario)[1].thresholds()
        self.verdicts(ts, kind, m_hat)
        # a band drawn anywhere, also past either gate edge, where the clamps act
        lo, hi = sorted(band)
        ts = dataclasses.replace(ts, th3=lo, th4=hi, th3_opt=lo, th4_opt=hi)
        self.verdicts(ts, kind, np.concatenate([m_hat, self.edges(ts)]))


class TestGate:
    def test_all_low_center_discarded(self, default_params, default_stats):
        assert not default_stats.thresholds().gate(default_params.m_l)

    def test_middle_mean_kept(self, default_stats):
        assert default_stats.thresholds().gate(default_stats.m1)

    def test_all_high_center_discarded(self, default_params, default_stats):
        assert not default_stats.thresholds().gate(default_params.m_h)

    def test_array_matches_scalar(self, default_params, default_stats):
        ts = default_stats.thresholds()
        grid = np.linspace(default_params.m_l, default_params.m_h, 4001)
        grid = np.concatenate([grid, [ts.th1, ts.th2]])
        keep = ts.gate(grid)
        assert keep.shape == grid.shape and keep.dtype == bool
        assert keep.tolist() == [ts.gate(float(m)) for m in grid]
        assert keep.any() and not keep.all()


class TestThresholdDetect:
    def test_three_regions(self, default_stats):
        s, ts = default_stats, default_stats.thresholds()
        assert ts.label(s.m3, "simple") == 3
        assert ts.label(s.m1, "simple") == 1
        assert ts.label(s.m2, "simple") == 2

    def test_monotone_step_order(self, default_stats):
        s = default_stats
        grid = np.linspace(s.m2 - 1e-4, s.m3 + 1e-4, 2001)
        labels = s.thresholds().label(grid, "simple").tolist()
        order = {2: 0, 1: 1, 3: 2}
        ranks = [order[g] for g in labels]
        assert ranks == sorted(ranks)

    @pytest.mark.parametrize("kind", ["simple", "optimum"])
    def test_array_matches_scalar(self, default_params, default_stats, kind):
        ts = default_stats.thresholds()
        th_lo, th_hi = ts.pair(kind)
        grid = np.linspace(default_params.m_l, default_params.m_h, 4000)
        grid = np.concatenate([grid, [th_lo, th_hi]]).reshape(-1, 3)
        labels = ts.label(grid, kind)
        assert labels.shape == grid.shape
        scalar = [[3 if m > th_hi else 1 if m > th_lo else 2 for m in row.tolist()] for row in grid]
        assert labels.tolist() == scalar
        assert set(labels.ravel().tolist()) == {1, 2, 3}


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
                    mean, _ = chip_moments(params, *state)
                    expected = min(hyps, key=lambda h: abs(h.mean - mean)).label
                    values = sample_chip(state, n, rng, params)[None, :]
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


class TestRunningMinimum:
    """``detect_moments`` against ``argmin`` over the stacked
    :func:`moment_costs`, written out here.  Where every cost overflows to
    +inf, ``argmin`` gives the tie to the narrowest hypothesis."""

    @staticmethod
    def argmin_labels(m_hat, scatter, n, hyps):
        """The labels from the stacked costs in sigma order."""
        ordered = sorted(hyps, key=lambda h: h.std)
        costs = moment_costs(m_hat, scatter, n, [h.mean for h in ordered], [h.std for h in ordered])
        return np.array([h.label for h in ordered])[np.argmin(costs, axis=-1)]

    @staticmethod
    def chips(hyps, n, rng, size):
        """Chips drawn from the hypotheses, a tenth of them exactly on a mean
        with zero scatter (the point masses' support), a tenth exactly
        halfway between two means (equal-variance ties) and a hundredth so
        far out that every cost overflows to +inf (a tie of all three,
        which the smallest variance wins in ``argmin``)."""
        means = np.array([h.mean for h in hyps])
        stds = np.array([h.std for h in hyps])
        pick = rng.integers(0, len(hyps), size)
        m_hat = means[pick] + stds[pick] / math.sqrt(n) * rng.standard_normal(size)
        scatter = stds[pick] ** 2 * rng.chisquare(max(n - 1, 1), size) * (n > 1)
        on_mean = rng.random(size) < 0.1
        m_hat[on_mean], scatter[on_mean] = means[pick[on_mean]], 0.0
        halfway = rng.random(size) < 0.1
        other = rng.integers(0, len(hyps), size)
        m_hat[halfway] = 0.5 * (means[pick] + means[other])[halfway]
        far = rng.random(size) < 0.01
        m_hat[far] = rng.choice([-1e300, 1e300], far.sum())
        return m_hat, scatter

    HYPOTHESIS_SETS = {
        "middle": None,  # the default middle band
        "duplicates": (
            GaussianHypothesis(label=3, mean=0.0, std=1.0),
            GaussianHypothesis(label=1, mean=0.0, std=1.0),
            GaussianHypothesis(label=2, mean=1.0, std=1.0),
        ),
        "point_masses": (
            GaussianHypothesis(label=2, mean=0.25, std=0.0),
            GaussianHypothesis(label=1, mean=0.25, std=0.0),
            GaussianHypothesis(label=3, mean=-1.0, std=0.5),
        ),
        "unsorted": (
            GaussianHypothesis(label=3, mean=-1.0, std=0.5),
            GaussianHypothesis(label=1, mean=2.0, std=1e-3),
            GaussianHypothesis(label=2, mean=0.25, std=0.0),
        ),
        "all_point_masses": (
            GaussianHypothesis(label=3, mean=0.5, std=0.0),
            GaussianHypothesis(label=2, mean=-0.5, std=0.0),
            GaussianHypothesis(label=1, mean=0.0, std=0.0),
        ),
    }

    @pytest.mark.parametrize("n", [1, 2, 3, 20])
    @pytest.mark.parametrize("kind", list(HYPOTHESIS_SETS))
    def test_equals_argmin_of_stacked_costs(self, default_stats, kind, n):
        hyps = self.HYPOTHESIS_SETS[kind] or default_stats.middle_hypotheses()
        rng = np.random.default_rng(400 + n)
        m_hat, scatter = self.chips(hyps, n, rng, 100_000)
        with np.errstate(over="ignore"):
            want = self.argmin_labels(m_hat, scatter, n, hyps)
            got = detect_moments(m_hat, scatter, n, hyps)
            # the chunk shape and a single chip give the same labels
            grid = detect_moments(m_hat.reshape(-1, 10), scatter.reshape(-1, 10), n, hyps)
        assert np.array_equal(got, want)
        assert np.array_equal(grid.ravel(), want)
        assert detect_moments(m_hat[0], scatter[0], n, hyps) == want[0]

    def test_ties_and_infinite_costs_occur(self):
        # the cases the oracle comparison above is there for
        hyps = self.HYPOTHESIS_SETS["point_masses"]
        m_hat, scatter = self.chips(hyps, 3, np.random.default_rng(7), 10_000)
        ordered = sorted(hyps, key=lambda h: h.std)
        with np.errstate(over="ignore"):
            costs = moment_costs(m_hat, scatter, 3, [h.mean for h in ordered], [h.std for h in ordered])
            labels = detect_moments(m_hat, scatter, 3, hyps)
        assert np.any((costs[:, 0] == costs[:, 1]) & (costs[:, 0] == -np.inf))
        assert np.any(np.all(costs == np.inf, axis=1))
        assert set(np.unique(labels)) == {2, 3}  # the duplicate point mass never wins a tie


class TestMlKeep:
    """ML's keep mask, ``detect_moments(...) != 1``, which the tally reads at
    the shells of ML's center band.  Where the center is strictly the
    narrowest, the band and its core are planned from the center's
    quadratics (:func:`_center_quadratics`), so at finite costs their sign
    must be the labels: :meth:`sign_keep` is that sign test, the oracle."""

    @staticmethod
    def sign_keep(m_hat, scatter, n, hyps):
        """Where a*u + b*x + c > 0 for one of the center's quadratics, with
        x = m_hat - m1 and u = S/n + x^2."""
        m1, quads = _center_quadratics(hyps)
        x = np.asarray(m_hat, dtype=float) - m1
        u = np.asarray(scatter, dtype=float) / n + x * x
        return np.any([a * u + b * x + c > 0.0 for a, b, c in quads], axis=0)

    @settings(deadline=None, derandomize=True, database=None, max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 5, 10, 40]))
    def test_sign_test_equals_the_labels(self, seed, n):
        # the shells' chips never reach the tie rule of overflowed costs: at
        # the band's edges (one ulp in), the core's edges and m1, at S = 0,
        # at the S that the widest state exceeds with probability at most
        # ML_CORE_TAIL, and at 1e6*var1, every cost is finite and the
        # labels are the quadratics' sign
        stats = derive_stats(random_valid_params(np.random.default_rng(seed), samples_per_chip=n))
        hyps = stats.middle_hypotheses()
        lo, hi = ml_center_band(hyps)
        core_lo, core_hi = ml_core(hyps, n, stats.state_means, stats.state_variances)
        points = [np.nextafter(lo, stats.m1), np.nextafter(hi, stats.m1), stats.m1]
        if core_lo <= core_hi:
            points += [core_lo, core_hi]
        m_hat = np.array(points)
        var_max = stats.state_variances.max()
        for scatter in (0.0, 2.0 * var_max * _gamma_tail_point(0.5 * (n - 1)), 1e6 * stats.var1):
            scatter = np.full(m_hat.shape, scatter)
            costs = moment_costs(m_hat, scatter, n, [h.mean for h in hyps], [h.std for h in hyps])
            assert np.isfinite(costs).all(), scatter
            keep = detect_moments(m_hat, scatter, n, hyps) != 1
            assert np.array_equal(keep, self.sign_keep(m_hat, scatter, n, hyps)), scatter
            if not scatter.any():
                # at S = 0 the band's edges are kept and m1 and the core discarded
                assert keep.tolist() == [True, True] + [False] * (m_hat.size - 2)

    @pytest.mark.parametrize("n", [1, 3, 40])
    @pytest.mark.parametrize(
        "overrides",
        [dict(temperature=0.0), dict(beta=1.0), dict(alpha=1.0, beta=1.0)],
        ids=["point_masses", "beta_1", "alpha_beta_1"],
    )
    def test_whole_line_reads_the_labels(self, overrides, n):
        # no strictly narrowest center, so no quadratics: the engine draws S
        # at every gate-kept chip and its mask is the labels there
        params = SystemParams(samples_per_chip=n, **overrides)
        stats = derive_stats(params)
        assert _center_quadratics(stats.middle_hypotheses()) is None
        spec = _ChunkSpec(params, stats, ("ml",), 1024, 40 + n, (0,))
        arrays = _rh_chunk_arrays(spec)
        _, _, m_hat, gate_keep, scatter, scored = arrays
        assert np.array_equal(scored, np.flatnonzero(gate_keep))
        want = gate_keep.copy()
        want[gate_keep] = detect_moments(m_hat[gate_keep], scatter, n, spec.hyps) != 1
        assert np.array_equal(_tally_chunk(spec, *arrays)[1]["ml"], want)

    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_session_chunks(self, scenario, n, rng):
        params = apply_scenario(SystemParams(samples_per_chip=n), scenario)
        spec = _ChunkSpec(params, derive_stats(params), ("ml",), 1024, 60 + n, (0,))
        # S at every gate-kept chip: the engine's in the shells of ML's
        # center band, the test's own draw elsewhere, where the engine
        # labels no chip
        state, _, m_hat, gate_keep, scatter, scored = _rh_chunk_arrays(spec)
        m_hat, scatter = m_hat[gate_keep], scatter_everywhere(rng, spec, state, scatter, scored)[gate_keep]
        keep = detect_moments(m_hat, scatter, n, spec.hyps) != 1
        assert np.array_equal(keep, self.sign_keep(m_hat, scatter, n, spec.hyps))
        assert keep.any() and not keep.all()

    def test_exact_ties_on_either_side_of_the_center(self):
        # equal sigmas keep the given order: label 2, then the center, then
        # label 3.  Halfway between two means the costs tie exactly; the
        # earlier hypothesis takes the chip, so the center loses the tie
        # with label 2 and wins the one with label 3.  Far out every cost
        # is +inf, a tie of all three that label 2 takes.
        hyps = (
            GaussianHypothesis(label=2, mean=-1.0, std=1.0),
            GaussianHypothesis(label=1, mean=0.0, std=1.0),
            GaussianHypothesis(label=3, mean=1.0, std=1.0),
        )
        m_hat = np.array([-0.5, 0.5, np.nextafter(-0.5, 0.0), np.nextafter(0.5, 1.0), 1e300, -1e300])
        scatter = np.zeros_like(m_hat)
        with np.errstate(over="ignore"):
            costs = moment_costs(m_hat, scatter, 3, [h.mean for h in hyps], [h.std for h in hyps])
            keep = detect_moments(m_hat, scatter, 3, hyps) != 1
        assert costs[0, 0] == costs[0, 1] and costs[1, 1] == costs[1, 2]
        assert np.all(costs[4:] == np.inf)
        assert keep.tolist() == [True, False, False, True, True, True]

    # (hypotheses, m_hat, keep): a point mass of label 2 before the center
    # in sigma order, or the center as the point mass that comes first
    INFINITE_TIES = {
        "before_center": (((2, 0.25, 0.0), (1, 0.0, 1.0), (3, 2.0, 2.0)), [1e300, 0.25, 0.0], [True, True, False]),
        "after_center": (((1, 0.0, 0.0), (2, 1.0, 1.0), (3, 2.0, 2.0)), [1e300, 0.0, 1.0], [False, False, True]),
    }

    @pytest.mark.parametrize("kind", list(INFINITE_TIES))
    def test_infinite_ties_of_unequal_sigmas(self, kind):
        # far out every cost is +inf and the first hypothesis in sigma order
        # takes the tie; a chip on a point mass costs it -inf
        triples, m_hat, want = self.INFINITE_TIES[kind]
        hyps = [GaussianHypothesis(label=g, mean=m, std=sd) for g, m, sd in triples]
        m_hat = np.array(m_hat)
        with np.errstate(over="ignore"):
            keep = detect_moments(m_hat, np.zeros_like(m_hat), 1, hyps) != 1
        assert keep.tolist() == want

    def test_noiseless_chips(self):
        # zero temperature: every hypothesis is a point mass, every chip sits
        # on its state's mean, and costs are -inf or +inf
        params = SystemParams(samples_per_chip=5, temperature=0.0)
        stats = derive_stats(params)
        assert all(h.std == 0.0 for h in stats.middle_hypotheses())
        spec = _ChunkSpec(params, stats, ("ml",), 400, 7, (0,))
        _, _, m_hat, gate_keep, scatter, _ = _rh_chunk_arrays(spec)
        keep = detect_moments(m_hat[gate_keep], scatter, 5, stats.middle_hypotheses()) != 1
        assert keep.any() and not keep.all()


class TestMlCenterBand:
    """Outside ``ml_center_band`` ML keeps a chip whatever its S."""

    @settings(deadline=None, derandomize=True, database=None, max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_outside_the_band_ml_keeps_at_any_scatter(self, seed, n):
        rng = np.random.default_rng(seed)
        stats = derive_stats(random_valid_params(rng, samples_per_chip=n))
        hyps = stats.middle_hypotheses()
        lo, hi = ml_center_band(hyps)
        assert lo < stats.m1 < hi
        # the last ulp outside each edge, one band margin (1e-6 of the
        # band's width) out, and spread over a band's width on either side
        width = hi - lo
        m_hat = np.concatenate(
            [
                [np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf), lo - 1e-6 * width, hi + 1e-6 * width],
                rng.uniform(lo - width, lo, 200),
                np.nextafter(rng.uniform(hi, hi + width, 200), np.inf),
            ]
        )
        var1 = stats.var1
        for scatter in (0.0, var1 * rng.chisquare(max(n - 1, 1), m_hat.size), 1e6 * var1):
            assert (detect_moments(m_hat, np.broadcast_to(scatter, m_hat.shape), n, hyps) != 1).all(), scatter
        # and the band is tight: at S = 0 the center takes every chip 1 %
        # of the way in from an edge, and m1 itself
        inside = np.array([stats.m1, lo + 0.01 * (stats.m1 - lo), hi - 0.01 * (hi - stats.m1)])
        assert (detect_moments(inside, np.zeros(3), n, hyps) == 1).all()

    @pytest.mark.parametrize(
        "overrides",
        [dict(temperature=0.0), dict(beta=1.0), dict(alpha=1.0, beta=1.0)],
        ids=["point_masses", "beta_1", "alpha_beta_1"],
    )
    def test_whole_line_without_a_strictly_narrowest_center(self, overrides):
        assert ml_center_band(derive_stats(SystemParams(**overrides)).middle_hypotheses()) == (-math.inf, math.inf)

    def test_whole_line_when_the_center_is_not_narrowest(self):
        # another as narrow as the center, or within the band margin of it
        # (a variance gap of 2e-7), or narrower
        for std in (1.0, 1.0 + 1e-7, 1.0 - 1e-7, 0.5):
            hyps = (
                GaussianHypothesis(label=1, mean=0.0, std=1.0),
                GaussianHypothesis(label=2, mean=-3.0, std=std),
                GaussianHypothesis(label=3, mean=3.0, std=2.0),
            )
            assert ml_center_band(hyps) == (-math.inf, math.inf), std


def band_masses(stats, n, lo, hi):
    """P(lo <= m_hat <= hi) for each of the 16 chip states at n samples,
    m_hat ~ N(mean, var/n), from the tail on each state's far side."""
    mu, sd = stats.state_means, np.sqrt(stats.state_variances / n)
    below = norm.sf((lo - mu) / sd) - norm.sf((hi - mu) / sd)
    above = norm.cdf((hi - mu) / sd) - norm.cdf((lo - mu) / sd)
    return np.where(mu < stats.m1, below, above)


class TestMlCore:
    """Inside ``ml_core`` ML discards a chip whatever S it draws, but with
    probability at most ``ML_CORE_TAIL``."""

    @staticmethod
    def threshold(stats, n, m_hat):
        """n*T(m_hat): ML discards a chip exactly where S <= n*T, from the
        costs at S = 0, which each grow by S times a = 1/(2*sigma^2)."""
        hyps = stats.middle_hypotheses()
        costs = moment_costs(m_hat, 0.0, n, [h.mean for h in hyps], [h.std for h in hyps])
        a = [0.5 / hyps[0].std**2 - 0.5 / h.std**2 for h in hyps[1:]]
        return min(-(costs[0] - costs[j]) / a[j - 1] for j in (1, 2))

    @settings(deadline=None, derandomize=True, database=None, max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 3, 5, 10, 40]))
    def test_discard_is_certain_at_every_reaching_state(self, seed, n):
        stats = derive_stats(random_valid_params(np.random.default_rng(seed), samples_per_chip=n))
        hyps = stats.middle_hypotheses()
        band_lo, band_hi = ml_center_band(hyps)
        lo, hi = ml_core(hyps, n, stats.state_means, stats.state_variances)
        if lo > hi:
            return
        assert band_lo < lo < stats.m1 < hi < band_hi
        # the states whose m_hat reaches the band but with probability below
        # the tail are left out; T is concave, least on the core at an edge
        reaching = stats.state_variances[band_masses(stats, n, band_lo, band_hi) >= ML_CORE_TAIL]
        for edge in (lo, hi):
            n_t = self.threshold(stats, n, edge)
            if n == 1:
                assert n_t >= 0.0  # S = 0
            else:
                # S = var * 2 * Gamma((n - 1)/2)
                assert np.all(gammaincc(0.5 * (n - 1), 0.5 * n_t / reaching) <= ML_CORE_TAIL), edge

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 20, 40])
    def test_core_leaves_under_one_shell_chip_a_chunk_at_good(self, n):
        # each of the 16 states draws 1/16 of a 1024-bit chunk's 10,240
        # chips; a looser tail bound, or a variance cap over all 16 states,
        # leaves hundreds of chips a chunk in the shells, or no core
        stats = derive_stats(apply_scenario(SystemParams(samples_per_chip=n), "good"))
        hyps = stats.middle_hypotheses()
        band_lo, band_hi = ml_center_band(hyps)
        lo, hi = ml_core(hyps, n, stats.state_means, stats.state_variances)
        shell = band_masses(stats, n, band_lo, lo) + band_masses(stats, n, hi, band_hi)
        assert 10_240 / 16 * shell.sum() < 0.5

    @pytest.mark.parametrize(
        "overrides",
        [dict(temperature=0.0), dict(beta=1.0), dict(alpha=1.0, beta=1.0)],
        ids=["point_masses", "beta_1", "alpha_beta_1"],
    )
    def test_empty_without_a_strictly_narrowest_center(self, overrides):
        stats = derive_stats(SystemParams(samples_per_chip=3, **overrides))
        lo, hi = ml_core(stats.middle_hypotheses(), 3, stats.state_means, stats.state_variances)
        assert lo > hi


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
        # a = 0: the balance reduces to a shifted midpoint
        m_heavy, m_light, s, w_heavy, w_light = 1.0, 0.0, 0.1, 0.5, 0.25
        got = min_error_threshold(GaussianHypothesis(1, m_heavy, s), GaussianHypothesis(2, m_light, s))
        expected = 0.5 * (m_heavy + m_light) - s**2 * math.log(w_heavy / w_light) / (
            m_heavy - m_light
        )
        assert got == pytest.approx(expected, rel=1e-12)

    # the caller picks the fallback (derive_stats takes the midpoint)
    def test_no_root_returns_none(self):
        assert min_error_threshold(GaussianHypothesis(1, 1.0, 10.0), GaussianHypothesis(2, 0.99, 20.0)) is None

    def test_zero_noise_returns_midpoint(self):
        assert min_error_threshold(GaussianHypothesis(1, 1.0, 0.0), GaussianHypothesis(2, 0.0, 0.0)) == 0.5

    @settings(deadline=None, derandomize=True, database=None, max_examples=300)
    @given(seed=st.integers(0, 2**32 - 1), margin=st.floats(0.05, 20.0))
    def test_falls_back_exactly_where_the_balance_keeps_its_sign(self, seed, margin):
        # the log of (1/2)*N(y; m1, var1) over (1/4)*N(y; mo, var_o) is > 0 at
        # y = m1, so a root lies between the means iff it is < 0 at y = mo
        base = random_valid_params(np.random.default_rng(seed))
        s = derive_stats(base.replace(m_l=fine_tuned_bias(base, margin=margin)))
        for name, mo, var_o in (("th3_opt", s.m2, s.var2), ("th4_opt", s.m3, s.var3)):
            balance = math.log(2.0) + 0.5 * math.log(var_o / s.var1) - (mo - s.m1) ** 2 / (2.0 * s.var1)
            fell_back = name in (s.note or "")
            assert fell_back == (balance >= 0.0), (name, balance)
            if not fell_back:
                residual = stationarity_residual(getattr(s, name), s.m1, s.sigma1, 0.5, mo, math.sqrt(var_o), 0.25)
                assert residual < 1e-9, name

    @pytest.mark.parametrize(
        "overrides",
        [
            # var2 < var1 by rounding, so the quadratic's a < 0
            dict(alpha=10.790260958836216, beta=1.0000000000000009, r_l0=922523.6811617471, temperature=4.09e-29),
            # b = (m_o - m1)/var_o ~ 1e157: b^2 overflows
            dict(temperature=1e-150),
        ],
    )
    def test_roots_at_the_edges_of_the_range(self, overrides):
        # the exact balance, on the table's doubles, changes sign within
        # 2 ulps of each threshold (sigma is ~1 ulp of m1 in the first case)
        s = derive_stats(SystemParams(**overrides))
        assert s.note is None
        with mpmath.workdps(50):
            m1, var1 = mpmath.mpf(s.m1), mpmath.mpf(s.var1)
            for th, mo, var_o in ((s.th3_opt, s.m2, s.var2), (s.th4_opt, s.m3, s.var3)):
                mo, var_o = mpmath.mpf(mo), mpmath.mpf(var_o)

                def balance(y):
                    y = mpmath.mpf(y)
                    return mpmath.log(2 * mpmath.sqrt(var_o / var1)) - (y - m1) ** 2 / (2 * var1) + (y - mo) ** 2 / (2 * var_o)

                assert balance(th - 2 * math.ulp(th)) * balance(th + 2 * math.ulp(th)) < 0

    def test_variances_that_tie_give_the_linear_root(self):
        # beta = 1 + 1e-11: the variances agree to ~1e-11, the quadratic
        # term vanishes and the root is the equal-variance closed form, a
        # tenth of the means' distance (4e-15) past their midpoint; an
        # absolute-coordinate solver loses it to cancellation
        s = derive_stats(SystemParams(beta=1.0 + 1e-11, temperature=1e-18))
        assert s.note is None
        for th, mo in ((s.th3_opt, s.m2), (s.th4_opt, s.m3)):
            expected = 0.5 * (s.m1 + mo) - s.var1 * math.log(2.0) / (s.m1 - mo)
            assert th == pytest.approx(expected, rel=1e-12)
            # the offset from m1 resolves the shift that rel 1e-12 of th cannot
            assert th - s.m1 == pytest.approx(expected - s.m1, rel=1e-3)

    def test_beats_midpoint_across_random_draws(self, rng):
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
        th_labels = s.thresholds().label(m_hat, "optimum")
        assert np.mean(ml_labels == th_labels) >= 0.999
