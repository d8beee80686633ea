"""Per-chip protocol, session aggregation and eavesdropper behavior."""

import io
import itertools
import math

import numpy as np
import pytest
from scipy.stats import binomtest, chi2, kstest, norm

from rhkljn import (
    ChipState,
    PartySecret,
    ProtocolConfig,
    SystemParams,
    chip_distribution,
    derive_stats,
    eve_observe,
    ideal_discard_fraction,
    run_chip,
    run_classical_session,
    run_session,
    sample_chip,
)
from rhkljn.protocol import _ChunkSpec, _rh_chunk_arrays


def make_cfg(detector="optimum", **param_overrides):
    params = SystemParams(**param_overrides)
    return ProtocolConfig(params=params, stats=derive_stats(params), detector=detector)


def secrets(main, subs):
    return PartySecret(main_bit=main, sub_bits=tuple(subs))


NOISELESS = dict(temperature=0.0)


class TestRunChip:
    def test_all_low_state_gate_discards(self):
        cfg = make_cfg(**NOISELESS)
        rng = np.random.default_rng(0)
        out_a, out_b, _ = run_chip(secrets(0, [0] * 10), secrets(0, [0] * 10), 1, cfg, rng)
        assert out_a.decision == out_b.decision == "discarded_gate"

    def test_all_high_state_gate_discards(self):
        cfg = make_cfg(**NOISELESS)
        rng = np.random.default_rng(0)
        out_a, _, _ = run_chip(secrets(1, [1] * 10), secrets(1, [0] * 10), 1, cfg, rng)
        assert out_a.decision == "discarded_gate"

    def test_secure_chip_exchanges_with_correct_flips(self):
        cfg = make_cfg(**NOISELESS)
        rng = np.random.default_rng(0)
        alice, bob = secrets(0, [0] * 10), secrets(1, [1] * 10)
        out_a, out_b, _ = run_chip(alice, bob, 1, cfg, rng)
        assert out_a.decision == out_b.decision == "exchanged"
        assert out_a.detected_g == 2  # true mean is the left middle Gaussian
        assert out_a.inferred_partner_main == 1 and out_a.inferred_partner_sub == 1
        assert out_b.inferred_partner_main == 0 and out_b.inferred_partner_sub == 0

    def test_equal_subbits_in_mixed_state_discarded_as_center(self):
        cfg = make_cfg(**NOISELESS)
        rng = np.random.default_rng(0)
        out_a, out_b, _ = run_chip(secrets(0, [0] * 10), secrets(1, [0] * 10), 1, cfg, rng)
        assert out_a.decision == out_b.decision == "discarded_g1"

    @pytest.mark.parametrize("detector", ["ml", "simple", "optimum", "map"])
    def test_parties_always_agree(self, detector, rng):
        cfg = make_cfg(detector=detector)
        for _ in range(300):
            alice = secrets(int(rng.integers(2)), rng.integers(0, 2, 10))
            bob = secrets(int(rng.integers(2)), rng.integers(0, 2, 10))
            p = int(rng.integers(1, 11))
            out_a, out_b, _ = run_chip(alice, bob, p, cfg, rng)
            assert out_a.decision == out_b.decision
            assert out_a.detected_g == out_b.detected_g

    def test_correct_detection_implies_correct_inference(self, rng):
        # whenever the detected label equals the true Gaussian label, the
        # flip rule recovers the partner bits exactly
        cfg = make_cfg()
        checked = 0
        for _ in range(500):
            alice = secrets(int(rng.integers(2)), rng.integers(0, 2, 10))
            bob = secrets(int(rng.integers(2)), rng.integers(0, 2, 10))
            if alice.main_bit == bob.main_bit:
                continue
            sa, sb = alice.sub_bits[0], bob.sub_bits[0]
            entry = {
                e.sub_bits: e for e in cfg.stats.mixture_tables[(alice.main_bit, bob.main_bit)]
            }[(sa, sb)]
            middle = {1: cfg.stats.m1, 2: cfg.stats.m2, 3: cfg.stats.m3}
            true_g = min(middle, key=lambda g: abs(middle[g] - entry.mean))
            out_a, out_b, _ = run_chip(alice, bob, 1, cfg, rng)
            if out_a.decision == "exchanged" and out_a.detected_g == true_g:
                checked += 1
                assert out_a.inferred_partner_main == bob.main_bit
                assert out_a.inferred_partner_sub == sb
                assert out_b.inferred_partner_main == alice.main_bit
                assert out_b.inferred_partner_sub == sa
        assert checked > 50


class TestEveObserve:
    def test_all_low_chip_identified_confidently(self, default_params, default_stats):
        rng = np.random.default_rng(1)
        samples = sample_chip(ChipState(0, 0, 1, 0), 20, rng, default_params)
        obs = eve_observe(samples, default_stats)
        assert obs.guess_main == (0, 0)
        assert obs.posterior_main[(0, 0)] > 0.99

    def test_secure_chip_posterior_is_symmetric(self, default_params, default_stats):
        rng = np.random.default_rng(2)
        for state in (ChipState(0, 1, 0, 1), ChipState(1, 0, 0, 1), ChipState(0, 1, 1, 0)):
            samples = sample_chip(state, 20, rng, default_params)
            obs = eve_observe(samples, default_stats)
            assert obs.posterior_main[(0, 1)] == obs.posterior_main[(1, 0)]
            p_alice_zero = obs.posterior_main[(0, 0)] + obs.posterior_main[(0, 1)]
            assert p_alice_zero == pytest.approx(0.5, abs=1e-9)

    def test_coin_guess_uses_rng(self, default_params, default_stats):
        rng = np.random.default_rng(3)
        samples = sample_chip(ChipState(0, 1, 0, 1), 20, rng, default_params)
        guesses = {eve_observe(samples, default_stats, rng=rng).guess_main for _ in range(64)}
        assert guesses == {(0, 1), (1, 0)}


class TestRunSession:
    def test_noiseless_session_is_exact(self):
        cfg = make_cfg(**NOISELESS)
        result = run_session(500, cfg, seed=9, detectors=("ml", "simple", "optimum"))
        for name in ("ml", "simple", "optimum"):
            tally = result.tally(name)
            assert tally.bep == 0.0
            assert tally.sub_bit_errors == 0
            assert tally.main_bit_errors == 0
            assert tally.discard_fraction == pytest.approx(
                ideal_discard_fraction(), abs=0.02
            )

    def test_kept_fraction_matches_combinatorial_count(self):
        # 4 of the 16 equiprobable configurations survive ideal detection
        cfg = make_cfg()
        result = run_session(20_000, cfg, seed=12)
        total = result.tally().total_chips
        se = math.sqrt(0.25 * 0.75 / total)
        assert abs(result.kept_chips / total - 0.25) < 5 * se

    def test_sub_bit_errors_only_from_misdetections(self):
        # noiseless channel: every label is exact, so zero errors and the
        # discard fraction is exactly 3/4
        cfg = make_cfg(**NOISELESS)
        result = run_session(2_000, cfg, seed=4)
        assert result.bep == 0.0
        assert result.discard_fraction == pytest.approx(0.75, abs=0.01)

    def test_determinism_across_worker_counts(self):
        cfg = make_cfg()
        serial = run_session(700, cfg, seed=77, detectors=("simple", "optimum"), chunk_bits=100)
        parallel = run_session(
            700, cfg, seed=77, detectors=("simple", "optimum"), chunk_bits=100, jobs=4
        )
        assert serial.tallies == parallel.tallies

    def test_tally_counts_are_conserved(self):
        cfg = make_cfg()
        result = run_session(5_000, cfg, seed=14, detectors=("ml", "simple", "optimum"))
        for name in ("ml", "simple", "optimum"):
            t = result.tally(name)
            assert t.kept_chips + t.discarded_gate + t.discarded_g1 == t.total_chips
            assert 0.0 <= t.bep <= 1.0
            assert 0.0 <= t.discard_fraction <= 1.0
            assert 0.0 <= t.eve_correct_fraction <= 1.0

    def test_detector_comparison_shares_noise(self):
        # same seed, same point: per-detector tallies come from one realization
        cfg = make_cfg()
        both = run_session(3_000, cfg, seed=5, detectors=("simple", "optimum"))
        simple_only = run_session(3_000, cfg, seed=5, detectors=("simple",))
        assert both.tally("simple") == simple_only.tally("simple")

    def test_eve_accuracy_is_fair_coin(self):
        cfg = make_cfg()
        result = run_session(50_000, cfg, seed=6)
        tally = result.tally()
        assert tally.kept_chips >= 100_000
        test = binomtest(tally.eve_correct, tally.kept_chips, 0.5)
        assert test.pvalue >= 0.01

    def test_trace_logs_every_chip(self):
        cfg = make_cfg()
        buf = io.StringIO()
        result = run_session(20, cfg, seed=8, trace=buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 20 * cfg.params.chips_per_bit
        assert result.total_chips == len(lines)
        first = lines[0]
        for token in ("bit=", "chip=", "b_a=", "s_b=", "m_hat=", "optimum:"):
            assert token in first

    def test_invalid_inputs(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            run_session(0, cfg, seed=1)
        with pytest.raises(ValueError):
            run_session(10, cfg, seed=1, detectors=("bogus",))


class TestChunkSampler:
    """The engine draws each chip as (m_hat, S); check them against the closed forms."""

    # fixed before the first run: about 1% family-wise false alarm over the
    # 119 KS tests below (per state and pooled over the 16 states; m_hat at
    # 4 sample counts, S at 3)
    KS_P_FLOOR = 1e-4

    @staticmethod
    def chunk(params, n_bits, seed):
        spec = _ChunkSpec(
            params=params,
            stats=derive_stats(params),
            detectors=("optimum",),
            n_bits=n_bits,
            master_seed=seed,
            key=(0,),
        )
        return _rh_chunk_arrays(spec)

    @staticmethod
    def by_state(a_main, b_main, a_sub, b_sub):
        for b_a, b_b, s_a, s_b in itertools.product((0, 1), repeat=4):
            mains = (a_main[:, None] == b_a) & (b_main[:, None] == b_b)
            sel = mains & (a_sub == s_a) & (b_sub == s_b)
            yield ChipState(b_a, b_b, s_a, s_b), sel

    @pytest.mark.parametrize("n", [1, 2, 3, 20])
    def test_moments_follow_chip_distribution(self, n):
        params = SystemParams(samples_per_chip=n)
        a_main, b_main, a_sub, b_sub, scatter, m_hat, _ = self.chunk(params, 4_000, seed=41)
        z = np.empty_like(m_hat)
        s_over_var = np.empty_like(scatter)
        for state, sel in self.by_state(a_main, b_main, a_sub, b_sub):
            mean, var = chip_distribution(state, params)
            assert sel.sum() > 1_000
            z[sel] = (m_hat[sel] - mean) / math.sqrt(var / n)
            s_over_var[sel] = scatter[sel] / var
            assert kstest(z[sel], norm.cdf).pvalue >= self.KS_P_FLOOR, state
            if n > 1:
                assert kstest(s_over_var[sel], chi2(n - 1).cdf).pvalue >= self.KS_P_FLOOR, state
        # pooled over all states: ~16x the power of one state against a common bias
        assert kstest(z.ravel(), norm.cdf).pvalue >= self.KS_P_FLOOR
        if n == 1:
            assert np.all(scatter == 0.0)
        else:
            assert kstest(s_over_var.ravel(), chi2(n - 1).cdf).pvalue >= self.KS_P_FLOOR

    def test_noiseless_chunk_is_exact(self):
        params = SystemParams(temperature=0.0, samples_per_chip=5)
        a_main, b_main, a_sub, b_sub, scatter, m_hat, _ = self.chunk(params, 200, seed=3)
        for state, sel in self.by_state(a_main, b_main, a_sub, b_sub):
            mean, _ = chip_distribution(state, params)
            assert np.all(m_hat[sel] == mean), state
        assert np.all(scatter == 0.0)


class TestClassicalSession:
    def test_many_samples_drive_bep_to_zero(self):
        cfg = make_cfg()
        result = run_classical_session(2_000, 4_000, cfg, seed=21)
        assert result.tally("classical").bep == 0.0

    def test_near_degenerate_ratio_gives_coin_flip_on_kept(self):
        cfg = make_cfg(alpha=1.05, beta=1.0)
        result = run_classical_session(50_000, 20, cfg, seed=22)
        tally = result.tally("classical")
        assert tally.kept_chips > 1_000
        assert 0.4 < tally.bep < 0.6

    def test_determinism_across_worker_counts(self):
        cfg = make_cfg()
        a = run_classical_session(900, 50, cfg, seed=23, chunk_bits=128)
        b = run_classical_session(900, 50, cfg, seed=23, chunk_bits=128, jobs=3)
        assert a.tallies == b.tallies

    def test_moderate_sampling_has_errors(self):
        cfg = make_cfg()
        result = run_classical_session(30_000, 20, cfg, seed=24)
        tally = result.tally("classical")
        assert tally.bep > 0.05  # variance trisection is weak at 20 samples


class TestGateSoundness:
    def test_equal_main_bits_leak_less_with_more_samples(self):
        # equal-main-bit chips passing the gate are exactly the decided
        # main-bit errors; the leak vanishes as the sample count grows
        leaks = {}
        for n in (2, 4, 20):
            cfg = make_cfg(samples_per_chip=n)
            result = run_session(30_000, cfg, seed=31)
            leaks[n] = result.tally().main_bit_errors
        assert leaks[2] > leaks[4] > leaks[20] == 0


class TestSecretValidation:
    def test_bad_bits_rejected(self):
        with pytest.raises(ValueError):
            PartySecret(main_bit=2, sub_bits=(0, 1))
        with pytest.raises(ValueError):
            PartySecret(main_bit=0, sub_bits=(0, 3))
