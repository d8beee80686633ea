"""Closed-form parameter statistics against hand-computed and reference values."""

import copy
import itertools
import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import brentq

from rhkljn import SystemParams, chip_moments, state_moments
from rhkljn.config import SCENARIOS, apply_scenario
from rhkljn.exact import threshold_row
from rhkljn.params import (
    InvalidParamsError,
    MixtureComponent,
    NonSeparableError,
    check_separability,
    derive_coefficients,
    derive_stats,
    divider_moments,
    drif,
    fine_tuned_bias,
    separability_coefficients,
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

    # derive_stats reads the variances from the state table; the closed
    # forms a * (r_a || r_b) are the independent oracle
    def test_variance_closed_forms(self, default_params, rng):
        draws = [default_params] + [random_valid_params(rng) for _ in range(50)]
        for base, scenario in itertools.product(draws, SCENARIOS):
            params = apply_scenario(base, scenario)
            stats = derive_stats(params)
            a = params.noise_var_per_ohm
            al, be, r = params.alpha, params.beta, params.r_l0
            assert stats.var1 == pytest.approx(a * al * r / (al + 1), rel=1e-14)
            assert stats.var2 == pytest.approx(a * al * be * r / (al * be + 1), rel=1e-14)
            assert stats.var3 == pytest.approx(a * al * be * r / (al + be), rel=1e-14)
            # the both-hopped middle component: a*(r_l1 || r_h1) = beta*var1
            assert stats.var4 == pytest.approx(a * al * be * r / (al + 1), rel=1e-14)

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

    # an optimum threshold without a root between its means is the simple
    # midpoint, bit for bit, and the note names each one that fell back
    @pytest.mark.parametrize(
        "alpha, beta, gamma, fell_back",
        [
            (19.0, 2.7, 8.0, ["th3_opt"]),
            (19.0, 2.7, 3.0, ["th3_opt", "th4_opt"]),
            (4.0, 3.9, 2.2, ["th3_opt", "th4_opt"]),
            (19.0, 2.7, 20.0, []),
        ],
    )
    def test_fallback_is_the_midpoint_and_named(self, alpha, beta, gamma, fell_back):
        stats = derive_stats(SystemParams(alpha=alpha, beta=beta, gamma=gamma))
        assert (stats.th3_opt == stats.th3, stats.th4_opt == stats.th4) == (
            "th3_opt" in fell_back,
            "th4_opt" in fell_back,
        )
        if fell_back:
            assert stats.note == (
                f"no optimum-threshold root inside the mean bracket for {' and '.join(fell_back)}; "
                "falling back to the midpoint"
            )
        else:
            assert stats.note is None

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

    @pytest.mark.parametrize(
        "params",
        [apply_scenario(SystemParams(), s) for s in ("good", "moderate", "fine_tuned")]
        + [SystemParams(alpha=7.0, beta=2.0)],
        ids=["good", "moderate", "fine_tuned", "alpha7-beta2"],
    )
    def test_view_matches_a_per_state_build(self, params):
        # the view, built from the stored table, against one chip_moments
        # call per state, entry for entry: mean, variance, sub-bits, weight
        want = {
            (b_a, b_b): tuple(
                MixtureComponent((s_a, s_b), *(float(x) for x in chip_moments(params, b_a, b_b, s_a, s_b)))
                for s_a, s_b in itertools.product((0, 1), repeat=2)
            )
            for b_a, b_b in itertools.product((0, 1), repeat=2)
        }
        assert derive_stats(params).mixture_tables == want


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

    def test_stats_store_the_table_read_only(self, rng):
        for params in [SystemParams(), SystemParams(temperature=0.0)] + [random_valid_params(rng) for _ in range(5)]:
            stats = derive_stats(params)
            for stored, want in zip((stats.state_means, stats.state_variances), state_moments(params)):
                assert stored.dtype == want.dtype and stored.tobytes() == want.tobytes()
                assert not stored.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    stored[0] = 0.0
            assert [stats.var1, stats.var2, stats.var3, stats.var4] == stats.state_variances[4:8].tolist()

    def test_a_pickled_copy_stays_read_only(self):
        # a --jobs grid pickles each session's stats to its worker, and
        # numpy unpickles an array writeable
        stats = derive_stats(SystemParams(alpha=7.0, beta=2.0))
        for copied in (pickle.loads(pickle.dumps(stats)), copy.deepcopy(stats)):
            assert copied == stats and copied.note == stats.note
            for stored, want in zip((copied.state_means, copied.state_variances), (stats.state_means, stats.state_variances)):
                assert stored is not want and stored.tobytes() == want.tobytes()
                assert not stored.flags.writeable

    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_at_most_one_ulp_from_the_squared_weight_form(self, scenario):
        # the table sessions draw from, against the squared-weight form of its divider
        params = apply_scenario(SystemParams(), scenario)
        b_a, b_b, s_a, s_b = np.ix_((0, 1), (0, 1), (0, 1), (0, 1))
        bank, biases = params.resistors, params.biases
        old = squared_weight_divider(
            bank[b_a, s_a], bank[b_b, s_b], biases[b_a], biases[b_b], params.noise_var_per_ohm
        )
        for new, ref in zip(state_moments(params), old):
            assert np.all(np.abs(new - ref.ravel()) <= np.spacing(ref.ravel()))


def squared_weight_divider(r_a, r_b, bias_a, bias_b, noise_var_per_ohm):
    """The divider in squared-weight form: each source's variance through its squared weight."""
    total = r_a + r_b
    w_a, w_b = r_b / total, r_a / total
    return w_a * bias_a + w_b * bias_b, w_a**2 * (noise_var_per_ohm * r_a) + w_b**2 * (noise_var_per_ohm * r_b)


def assert_divider_exact(r_a, r_b, bias_a, bias_b, noise_var_per_ohm, mean, var):
    """Every entry within 3 eps of the squared-weight closed form at 50 digits."""
    eps = np.finfo(float).eps
    args = np.broadcast_arrays(r_a, r_b, bias_a, bias_b, mean, var)
    with mpmath.workdps(50):
        k = mpmath.mpf(noise_var_per_ohm)
        for ra, rb, ba, bb, got_mean, got_var in zip(*(a.ravel().tolist() for a in args)):
            exact_mean, exact_var = squared_weight_divider(
                mpmath.mpf(ra), mpmath.mpf(rb), mpmath.mpf(ba), mpmath.mpf(bb), k
            )
            assert abs(got_mean - exact_mean) <= 3 * eps * exact_mean, (ra, rb, ba, bb)
            assert abs(got_var - exact_var) <= 3 * eps * exact_var, (ra, rb, ba, bb)


OHMS = st.floats(1.0, 1e6)
BIAS = st.just(0.0) | st.floats(1e-15, 1e-2)  # zero or a physical bias, never subnormal
REPEATABLE = settings(deadline=None, derandomize=True, database=None)


class TestDividerAccuracy:
    """The parallel-resistance divider against the squared-weight form in mpmath.

    Its mean and variance are each a few rounded operations on positive
    values, so both stay within 3 eps of the exact value; the mixture
    tables moved by at most 1 ulp from the squared-weight form for that
    reason (see :class:`TestStateMoments`).
    """

    NOISE = SystemParams().noise_var_per_ohm

    @settings(REPEATABLE, max_examples=300)
    @given(OHMS, OHMS, BIAS, BIAS)
    def test_scalar_call(self, r_a, r_b, bias_a, bias_b):
        mean, var = divider_moments(r_a, r_b, bias_a, bias_b, self.NOISE)
        assert_divider_exact(r_a, r_b, bias_a, bias_b, self.NOISE, mean, var)

    @settings(REPEATABLE, max_examples=60)
    @given(arrays(np.float64, (2, 2), elements=OHMS), BIAS, st.floats(1.0, 50.0))
    def test_sixteen_state_grid(self, bank, m_l, gamma):
        # the grid state_moments builds, on an arbitrary bank and bias pair
        params = SystemParams(m_l=m_l, gamma=gamma)
        b_a, b_b, s_a, s_b = np.ix_((0, 1), (0, 1), (0, 1), (0, 1))
        mean, var = chip_moments(params, b_a, b_b, s_a, s_b, bank)
        assert mean.shape == var.shape == (2, 2, 2, 2)
        biases = params.biases
        r_a, r_b = bank[b_a, s_a], bank[b_b, s_b]
        assert_divider_exact(r_a, r_b, biases[b_a], biases[b_b], self.NOISE, mean, var)

    @settings(REPEATABLE, max_examples=60)
    @given(arrays(np.float64, st.tuples(st.integers(1, 8), st.just(2), st.just(2)), elements=OHMS), BIAS)
    def test_bank_batch_of_the_outage_monte_carlo(self, banks, m_l):
        # the call pls.sop makes: the mixed states (0, 1) at sub-bits (0, 0), (0, 1), (1, 0)
        params = SystemParams(m_l=m_l)
        s_a, s_b = np.array([0, 0, 1]), np.array([0, 1, 0])
        mean, var = chip_moments(params, 0, 1, s_a, s_b, banks)
        assert mean.shape == var.shape == (len(banks), 3)
        r_a, r_b = banks[..., 0, s_a], banks[..., 1, s_b]
        assert_divider_exact(r_a, r_b, params.m_l, params.m_h, self.NOISE, mean, var)


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
        # the verdict reads the margin on the mean of the 20 samples
        assert report.sample_mean_ratio == pytest.approx(report.ratio * math.sqrt(20), rel=1e-15)
        assert report.sample_mean_ratio == pytest.approx(2.404, abs=5e-4)
        assert report.separable

    def test_fine_tuned_margin_is_ten(self, default_params):
        tuned = default_params.replace(m_l=fine_tuned_bias(default_params))
        report = check_separability(tuned, derive_stats(tuned))
        assert report.ratio == pytest.approx(10.0, rel=1e-12)
        assert report.separable

    # the verdict is ratio * sqrt(n) > 1, and the report names that factor
    def test_verdict_flips_at_ratio_one(self, default_params):
        for n, margin in itertools.product((1, 3, 20), (0.999, 1.001)):
            base = default_params.replace(samples_per_chip=n)
            params = base.replace(m_l=fine_tuned_bias(base, margin=margin / math.sqrt(n)))
            report = check_separability(params, derive_stats(params))
            assert report.sample_mean_ratio == pytest.approx(margin, rel=1e-12)
            assert report.separable == (margin > 1.0)
            assert "factor=1)" in str(report)

    # the README's scenarios turn separable from 4 samples per chip
    @pytest.mark.parametrize("scenario, below, above", [("good", 0.931, 1.075), ("moderate", 0.884, 1.021)])
    def test_verdict_flips_between_three_and_four_samples(self, scenario, below, above):
        reports = []
        for n in (3, 4):
            params = apply_scenario(SystemParams(samples_per_chip=n), scenario)
            reports.append(check_separability(params, derive_stats(params)))
        assert [round(r.sample_mean_ratio, 3) for r in reports] == [below, above]
        assert [r.separable for r in reports] == [False, True]

    # the least bias whose exact optimum BEP reaches 1e-6 (good's resistors)
    # falls as 1/sqrt(n), so its margin on the sample mean is one number
    def test_sample_mean_ratio_is_invariant_at_a_target_bep(self):
        def log_bep_gap(log_m_l, n):
            params = SystemParams(samples_per_chip=n, m_l=10.0**log_m_l)
            return math.log10(threshold_row(params, derive_stats(params), "optimum").bep) + 6.0

        for n, m_l in ((1, 2.50e-4), (3, 1.44e-4), (10, 7.90e-5), (40, 3.95e-5)):
            # bracketed within a factor 2, where the BEP stays above erfc's underflow
            least = 10.0 ** brentq(log_bep_gap, math.log10(m_l / 2), math.log10(m_l * 2), args=(n,), xtol=1e-12)
            assert least == pytest.approx(m_l, rel=5e-3), n
            params = SystemParams(samples_per_chip=n, m_l=least)
            report = check_separability(params, derive_stats(params))
            assert report.sample_mean_ratio == pytest.approx(1.342, rel=0.01), n

    # a noiseless channel does not make a zero bias separable
    def test_zero_bias_not_separable(self, default_params):
        for temperature in (300.0, 0.0):
            params = default_params.replace(m_l=0.0, temperature=temperature)
            report = check_separability(params, derive_stats(params))
            assert report.ratio == 0.0, temperature
            assert not report.separable, temperature

    def test_noiseless_positive_bias_separable(self, default_params):
        params = default_params.replace(temperature=0.0)
        report = check_separability(params, derive_stats(params))
        assert report.ratio == math.inf and report.separable

    def test_nonpositive_denominator_reports_which(self):
        with pytest.raises(NonSeparableError, match="k3"):
            separability_coefficients(SystemParams(alpha=10.0, beta=1.2, gamma=2.0))
        with pytest.raises(NonSeparableError, match="gamma"):
            separability_coefficients(SystemParams(gamma=1.0))

    def test_degenerate_gamma_reports_not_separable(self):
        for temperature in (300.0, 0.0):
            params = SystemParams(gamma=1.0, temperature=temperature)
            stats = derive_stats(params)
            assert math.isinf(stats.k_max)
            report = check_separability(params, stats)
            assert report.ratio == 0.0, temperature
            assert not report.separable, temperature


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
            # finite values whose chip-state table overflows: r_a + r_b,
            # r_a * r_b, 4kTB and m_h
            {"r_l0": 1e308},
            {"r_l0": 1e200},
            {"temperature": 1e300, "bandwidth": 1e308},
            {"m_l": 1e300, "gamma": 1e10},
        ],
    )
    def test_invalid_params_raise(self, kwargs):
        with pytest.raises(InvalidParamsError):
            state_moments(SystemParams(**kwargs))


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
