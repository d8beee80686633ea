"""Channel sampling against the closed-form statistics it must reproduce."""

import math

import numpy as np
import pytest

from rhkljn import (
    ChipState,
    SystemParams,
    chip_distribution,
    classical_kljn_variance,
    derive_stats,
    divider_weights,
    dump_chip_samples,
    load_chip_samples,
    sample_chip,
    sample_classical_chip,
)

from conftest import random_valid_params

ALL_STATES = [
    ChipState(b_a=ba, b_b=bb, s_a=sa, s_b=sb)
    for ba in (0, 1)
    for bb in (0, 1)
    for sa in (0, 1)
    for sb in (0, 1)
]


class TestDividerWeights:
    def test_equal_resistors_split_evenly(self):
        assert divider_weights(1e4, 1e4) == (0.5, 0.5)

    def test_ratio_example(self):
        w_a, w_b = divider_weights(50e3, 500e3)
        assert w_a == pytest.approx(10.0 / 11.0, rel=1e-15)
        assert w_b == pytest.approx(1.0 / 11.0, rel=1e-15)

    def test_weights_sum_to_one_and_lie_inside_unit_interval(self, rng):
        for _ in range(100):
            r_a, r_b = rng.uniform(1e2, 1e7, 2)
            w_a, w_b = divider_weights(r_a, r_b)
            assert w_a + w_b == pytest.approx(1.0, rel=1e-12)
            assert 0.0 < w_a < 1.0 and 0.0 < w_b < 1.0

    def test_nonpositive_resistance_rejected(self):
        with pytest.raises(ValueError):
            divider_weights(0.0, 1e3)

    def test_weighted_biases_reproduce_first_middle_mean(self, default_params, default_stats):
        # low bias against high-branch resistor, high bias against low branch
        p = default_params
        w_a, w_b = divider_weights(p.r_l0, p.r_h0)
        mean = p.m_l * w_a + p.m_h * w_b
        assert mean == pytest.approx(default_stats.c1 * p.m_l, rel=1e-14)


def reference_moments(state, p):
    """Hand-written divider for one state: named resistors and biases per party."""
    resistor = {(0, 0): p.r_l0, (0, 1): p.r_l1, (1, 0): p.r_h0, (1, 1): p.r_h1}
    bias = {0: p.m_l, 1: p.m_h}
    r_a, r_b = resistor[(state.b_a, state.s_a)], resistor[(state.b_b, state.s_b)]
    # each party's bias is weighted by the other party's resistor
    mean = (bias[state.b_a] * r_b + bias[state.b_b] * r_a) / (r_a + r_b)
    return mean, p.noise_var_per_ohm * (r_a * r_b / (r_a + r_b))


class TestChipDistribution:
    def test_matches_mixture_tables_for_all_16_states(self, default_params, default_stats):
        rng = np.random.default_rng(16)
        cases = [(default_params, default_stats)]
        for _ in range(5):
            params = random_valid_params(rng, m_l=float(rng.uniform(1e-5, 1e-3)))
            cases.append((params, derive_stats(params)))
        for params, stats in cases:
            for state in ALL_STATES:
                ref_mean, ref_var = reference_moments(state, params)
                entry = {e.sub_bits: e for e in stats.mixture_tables[(state.b_a, state.b_b)]}[
                    (state.s_a, state.s_b)
                ]
                for mean, var in (chip_distribution(state, params), (entry.mean, entry.variance)):
                    assert mean == pytest.approx(ref_mean, rel=1e-14), state
                    assert var == pytest.approx(ref_var, rel=1e-14), state

    def test_all_low_mean_is_exact(self, default_params):
        for sa in (0, 1):
            for sb in (0, 1):
                mean, _ = chip_distribution(ChipState(0, 0, sa, sb), default_params)
                assert mean == pytest.approx(default_params.m_l, rel=1e-15)

    def test_mixed_rows(self, default_params, default_stats):
        mean, var = chip_distribution(ChipState(0, 1, 0, 0), default_params)
        assert mean == pytest.approx(default_stats.m1, rel=1e-14)
        assert var == pytest.approx(default_stats.var1, rel=1e-14)
        mean, var = chip_distribution(ChipState(1, 0, 0, 1), default_params)
        assert mean == pytest.approx(default_stats.m3, rel=1e-14)
        assert var == pytest.approx(default_stats.var3, rel=1e-14)


class TestSampleChip:
    def test_mean_convergence_fixed_seed(self, default_params, default_stats):
        rng = np.random.default_rng(42)
        n = 1_000_000
        samples = sample_chip(ChipState(0, 1, 0, 1), n, rng, default_params)
        sigma2 = default_stats.sigma2
        assert abs(samples.values.mean() - default_stats.m2) < 4 * sigma2 / math.sqrt(n)

    def test_all_16_states_converge(self, default_params):
        rng = np.random.default_rng(7)
        n = 100_000
        for state in ALL_STATES:
            mean, var = chip_distribution(state, default_params)
            values = sample_chip(state, n, rng, default_params).values
            se_mean = math.sqrt(var / n)
            se_var = var * math.sqrt(2.0 / n)
            assert abs(values.mean() - mean) < 5 * se_mean, state
            assert abs(values.var() - var) < 5 * se_var, state

    def test_noiseless_zero_bias_gives_zeros(self):
        params = SystemParams(temperature=0.0, m_l=0.0)
        rng = np.random.default_rng(0)
        samples = sample_chip(ChipState(1, 0, 1, 0), 50, rng, params)
        assert np.all(samples.values == 0.0)

    def test_swap_symmetry_of_distribution(self, default_params):
        for state in ALL_STATES:
            swapped = ChipState(state.b_b, state.b_a, state.s_b, state.s_a)
            assert chip_distribution(state, default_params) == pytest.approx(
                chip_distribution(swapped, default_params)
            )

    def test_sample_count_validation(self, default_params, rng):
        with pytest.raises(ValueError):
            sample_chip(ChipState(0, 0, 0, 0), 0, rng, default_params)


class TestClassicalVariances:
    def test_case_00_value(self, default_params):
        # 4kT*(r/2)*df with the default constants
        expected = 0.5 * default_params.noise_var_per_ohm * default_params.r_l0
        assert classical_kljn_variance("00", default_params) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(4.14e-10, rel=1e-4)

    def test_case_11_is_alpha_times_00(self, default_params):
        assert classical_kljn_variance("11", default_params) == pytest.approx(
            default_params.alpha * classical_kljn_variance("00", default_params), rel=1e-14
        )

    def test_case_mixed_ratio(self, default_params):
        # alpha/(alpha+1)*a*r = (20/11) * case00 at alpha=10
        assert classical_kljn_variance("01or10", default_params) == pytest.approx(
            (20.0 / 11.0) * classical_kljn_variance("00", default_params), rel=1e-14
        )

    def test_ordering(self, default_params):
        v00 = classical_kljn_variance("00", default_params)
        v01 = classical_kljn_variance("01or10", default_params)
        v11 = classical_kljn_variance("11", default_params)
        assert v11 > v01 > v00

    def test_degenerate_alpha_one_collapses_cases(self):
        params = SystemParams(alpha=1.0, beta=1.0)
        values = {classical_kljn_variance(c, params) for c in ("00", "01or10", "11")}
        assert len(values) == 1

    def test_unknown_case_rejected(self, default_params):
        with pytest.raises(ValueError):
            classical_kljn_variance("10", default_params)


class TestClassicalSampling:
    def test_zero_mean(self, default_params):
        rng = np.random.default_rng(3)
        values = sample_classical_chip("11", 200_000, rng, default_params)
        std = math.sqrt(classical_kljn_variance("11", default_params))
        assert abs(values.mean()) < 5 * std / math.sqrt(values.size)

    def test_variance_convergence_mixed_case(self, default_params):
        rng = np.random.default_rng(4)
        n = 500_000
        values = sample_classical_chip("01or10", n, rng, default_params)
        var = classical_kljn_variance("01or10", default_params)
        assert abs(values.var() - var) < 5 * var * math.sqrt(2.0 / n)


class TestRawDump:
    def test_roundtrip_and_manifest(self, default_params, tmp_path):
        rng = np.random.default_rng(11)
        state = ChipState(0, 1, 1, 0, p=4)
        samples = sample_chip(state, 32, rng, default_params)
        path = tmp_path / "chip0004.f64"
        dump_chip_samples(samples, path, seed=11)
        back = load_chip_samples(path)
        assert np.array_equal(back, samples.values)
        manifest = (tmp_path / "chip0004.f64.manifest").read_text()
        assert "b_a=0" in manifest and "b_b=1" in manifest
        assert "s_a=1" in manifest and "s_b=0" in manifest
        assert "n=32" in manifest and "seed=11" in manifest
