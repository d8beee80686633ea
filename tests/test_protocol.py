"""Session engine, its per-chip verdicts and eavesdropper behavior."""

import io
import itertools
import math

import numpy as np
import pytest
from scipy.stats import binomtest, chi2, kstest, norm

from rhkljn import (
    ChipState,
    ProtocolConfig,
    SystemParams,
    chip_distribution,
    chip_moments,
    derive_stats,
    eve_observe,
    ideal_discard_fraction,
    run_classical_session,
    run_session,
    sample_chip,
    substream,
    worker_pool,
)
from rhkljn import protocol
from rhkljn.protocol import DETECTOR_CHOICES, _ChunkSpec, _rh_chunk_arrays, _tally_chunk
from conftest import assert_parties_agree, random_valid_params


def make_cfg(**param_overrides):
    params = SystemParams(**param_overrides)
    return ProtocolConfig(params=params, stats=derive_stats(params))


NOISELESS = dict(temperature=0.0)


class TestChipVerdicts:
    """Per-chip gate, label and keep verdicts of the engine, for every detector."""

    @pytest.mark.parametrize("detector", DETECTOR_CHOICES)
    def test_noiseless_verdicts_are_exact(self, detector):
        # no noise: every chip sits on its state's mean, so the gate keeps
        # exactly the mixed-main chips and each gets its nearest middle label
        params = SystemParams(samples_per_chip=5, **NOISELESS)
        stats = derive_stats(params)
        spec = _ChunkSpec(params, stats, (detector,), 400, 7, (0,))
        arrays = _rh_chunk_arrays(spec)
        a_main, b_main, a_sub, b_sub = arrays[:4]
        tallies, labels, gate_keep = _tally_chunk(spec, *arrays)

        mixed = np.broadcast_to((a_main != b_main)[:, None], a_sub.shape)
        assert np.array_equal(gate_keep, mixed)
        g = labels[detector]
        kept = gate_keep & (g != 1)
        # kept exactly when the mains and the sub-bits both differ, which is
        # when the flip rule recovers the partner's bits
        assert np.array_equal(kept, mixed & (a_sub != b_sub))
        rows = np.nonzero(kept)[0]
        assert np.array_equal(1 - a_main[rows], b_main[rows])
        assert np.array_equal(1 - a_sub[kept], b_sub[kept])
        tally = tallies[detector]
        assert tally.kept_chips == int(kept.sum()) > 0
        assert tally.sub_bit_errors == tally.main_bit_errors == 0

        middle = {1: stats.m1, 2: stats.m2, 3: stats.m3}
        for b_a, s_a, s_b in itertools.product((0, 1), repeat=3):
            state = ChipState(b_a, 1 - b_a, s_a, s_b)
            mean, _ = chip_distribution(state, params)
            nearest = min(middle, key=lambda k: abs(middle[k] - mean))
            sel = (a_main[:, None] == b_a) & mixed & (a_sub == s_a) & (b_sub == s_b)
            assert sel.any(), state
            assert np.all(g[sel] == nearest), state

    @pytest.mark.parametrize("detector", DETECTOR_CHOICES)
    def test_parties_always_agree(self, detector):
        assert_parties_agree(SystemParams(), 300, seed=13, detectors=(detector,))


def decisions(gate_keep, g):
    """Per-chip verdict as the protocol names it."""
    return np.where(~gate_keep, "discarded_gate", np.where(g == 1, "discarded_g1", "exchanged"))


def noiseless_bit(a_main, a_subs, b_main, b_subs, detector="optimum"):
    """Tally one bit whose chips sit exactly on their state means.

    Returns, for Alice and for Bob (roles swapped on the same statistics),
    the per-chip decisions, detected labels and the tally.
    """
    params = SystemParams(**NOISELESS)
    stats = derive_stats(params)
    spec = _ChunkSpec(params, stats, (detector,), 1, 0, (0,))
    a_sub = np.asarray(a_subs)[None, :]
    b_sub = np.asarray(b_subs)[None, :]
    m_hat = np.array(
        [
            [chip_distribution(ChipState(a_main, b_main, sa, sb), params)[0]]
            for sa, sb in zip(a_sub[0], b_sub[0])
        ]
    ).T
    scatter = np.zeros_like(m_hat)
    eve = np.zeros_like(a_sub)
    a_m, b_m = np.array([a_main]), np.array([b_main])
    out = []
    for own in ((a_m, b_m, a_sub, b_sub), (b_m, a_m, b_sub, a_sub)):
        tallies, labels, gate_keep = _tally_chunk(spec, *own, scatter, m_hat, eve)
        g = labels[detector]
        out.append((decisions(gate_keep, g)[0], g[0], tallies[detector]))
    return out


class TestRunChip:
    """Single-chip verdicts of the engine: gate, center discard and flip rule."""

    def test_all_low_state_gate_discards(self):
        (dec_a, _, _), (dec_b, _, _) = noiseless_bit(0, [0] * 10, 0, [0] * 10)
        assert np.all(dec_a == "discarded_gate") and np.all(dec_b == "discarded_gate")

    def test_all_high_state_gate_discards(self):
        (dec_a, _, tally), _ = noiseless_bit(1, [1] * 10, 1, [0] * 10)
        assert np.all(dec_a == "discarded_gate")
        assert tally.discarded_gate == 10 and tally.kept_chips == 0

    def test_secure_chip_exchanges_with_correct_flips(self):
        a_main, a_sub, b_main, b_sub = 0, [0] * 10, 1, [1] * 10
        (dec_a, g_a, tally_a), (dec_b, g_b, tally_b) = noiseless_bit(a_main, a_sub, b_main, b_sub)
        assert np.all(dec_a == "exchanged") and np.all(dec_b == "exchanged")
        assert np.all(g_a == 2) and np.all(g_b == 2)  # true mean is the left middle Gaussian
        # flip rule: each party infers the partner's bits as the complement of its own
        assert 1 - a_main == b_main and np.array_equal(1 - np.array(a_sub), b_sub)
        for tally in (tally_a, tally_b):
            assert tally.kept_chips == 10
            assert tally.sub_bit_errors == tally.main_bit_errors == 0

    def test_equal_subbits_in_mixed_state_discarded_as_center(self):
        (dec_a, g_a, _), (dec_b, _, _) = noiseless_bit(0, [0] * 10, 1, [0] * 10)
        assert np.all(dec_a == "discarded_g1") and np.all(dec_b == "discarded_g1")
        assert np.all(g_a == 1)

    def test_correct_detection_implies_correct_inference(self):
        # whenever the detected label equals the true Gaussian label, the
        # chip is kept iff the sub-bits differ, and then the flip rule
        # recovers the partner bits exactly
        params = SystemParams()
        stats = derive_stats(params)
        spec = _ChunkSpec(params, stats, ("optimum",), 500, 29, (0,))
        arrays = _rh_chunk_arrays(spec)
        a_main, b_main, a_sub, b_sub = arrays[:4]
        _, labels, gate_keep = _tally_chunk(spec, *arrays)
        g = labels["optimum"]

        middle = {1: stats.m1, 2: stats.m2, 3: stats.m3}
        true_g = np.zeros_like(g)
        for b_a, s_a, s_b in itertools.product((0, 1), repeat=3):
            mean, _ = chip_distribution(ChipState(b_a, 1 - b_a, s_a, s_b), params)
            sel = (a_main[:, None] == b_a) & (b_main[:, None] != b_a) & (a_sub == s_a)
            true_g[sel & (b_sub == s_b)] = min(middle, key=lambda k: abs(middle[k] - mean))

        correct = gate_keep & (g == true_g)
        kept = correct & (g != 1)
        assert np.array_equal(kept, correct & (a_sub != b_sub))
        rows = np.nonzero(kept)[0]
        assert np.array_equal(1 - a_main[rows], b_main[rows])
        assert np.array_equal(1 - b_main[rows], a_main[rows])
        assert np.array_equal(1 - a_sub[kept], b_sub[kept])
        assert np.array_equal(1 - b_sub[kept], a_sub[kept])
        assert kept.sum() > 50


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

    def test_zero_samples_rejected(self, default_stats):
        with pytest.raises(ValueError, match="zero samples"):
            eve_observe(np.empty(0), default_stats)

    # temperature 0: every component is a point mass, so a chip either sits
    # on a component's mean (all the weight) or off it (none)
    def test_noiseless_all_low_chip_is_certain(self):
        params = SystemParams(**NOISELESS)
        samples = sample_chip(ChipState(0, 0, 1, 0), 20, np.random.default_rng(4), params)
        obs = eve_observe(samples, derive_stats(params))
        assert obs.posterior_main == {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 0.0, (1, 1): 0.0}
        assert obs.guess_main == (0, 0)

    def test_noiseless_secure_chip_is_an_exact_coin(self):
        params = SystemParams(**NOISELESS)
        stats = derive_stats(params)
        rng = np.random.default_rng(5)
        samples = sample_chip(ChipState(0, 1, 0, 1), 20, rng, params)
        obs = eve_observe(samples, stats)
        assert obs.posterior_main == {(0, 0): 0.0, (0, 1): 0.5, (1, 0): 0.5, (1, 1): 0.0}
        guesses = {eve_observe(samples, stats, rng=rng).guess_main for _ in range(64)}
        assert guesses == {(0, 1), (1, 0)}


class TestRunSession:
    def test_noiseless_session_is_exact(self):
        cfg = make_cfg(**NOISELESS)
        result = run_session(500, cfg, seed=9, detectors=("ml", "simple", "optimum"))
        for name in ("ml", "simple", "optimum"):
            tally = result[name]
            assert tally.bep == 0.0
            assert tally.sub_bit_errors == 0
            assert tally.main_bit_errors == 0
            assert tally.discard_fraction == pytest.approx(
                ideal_discard_fraction(), abs=0.02
            )

    def test_kept_fraction_matches_combinatorial_count(self):
        # 4 of the 16 equiprobable configurations survive ideal detection
        cfg = make_cfg()
        tally = run_session(20_000, cfg, seed=12)["optimum"]
        total = tally.total_chips
        se = math.sqrt(0.25 * 0.75 / total)
        assert abs(tally.kept_chips / total - 0.25) < 5 * se

    def test_sub_bit_errors_only_from_misdetections(self):
        # noiseless channel: every label is exact, so zero errors and the
        # discard fraction is exactly 3/4
        cfg = make_cfg(**NOISELESS)
        tally = run_session(2_000, cfg, seed=4)["optimum"]
        assert tally.bep == 0.0
        assert tally.discard_fraction == pytest.approx(0.75, abs=0.01)

    def test_determinism_across_worker_counts(self):
        cfg = make_cfg()
        serial = run_session(700, cfg, seed=77, detectors=("simple", "optimum"), chunk_bits=100)
        with worker_pool(4) as pool:
            parallel = run_session(
                700, cfg, seed=77, detectors=("simple", "optimum"), chunk_bits=100, pool=pool
            )
        assert serial == parallel

    def test_tally_counts_are_conserved(self):
        cfg = make_cfg()
        result = run_session(5_000, cfg, seed=14, detectors=("ml", "simple", "optimum"))
        for name in ("ml", "simple", "optimum"):
            t = result[name]
            assert t.kept_chips + t.discarded_gate + t.discarded_g1 == t.total_chips
            assert 0.0 <= t.bep <= 1.0
            assert 0.0 <= t.discard_fraction <= 1.0
            assert 0.0 <= t.eve_correct_fraction <= 1.0

    def test_detector_comparison_shares_noise(self):
        # same seed, same point: per-detector tallies come from one realization
        cfg = make_cfg()
        both = run_session(3_000, cfg, seed=5, detectors=("simple", "optimum"))
        simple_only = run_session(3_000, cfg, seed=5, detectors=("simple",))
        assert both["simple"] == simple_only["simple"]

    def test_eve_accuracy_is_fair_coin(self):
        cfg = make_cfg()
        tally = run_session(50_000, cfg, seed=6)["optimum"]
        assert tally.kept_chips >= 100_000
        test = binomtest(tally.eve_correct, tally.kept_chips, 0.5)
        assert test.pvalue >= 0.01

    def test_trace_logs_every_chip(self):
        cfg = make_cfg()
        buf = io.StringIO()
        result = run_session(20, cfg, seed=8, trace=buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 20 * cfg.params.chips_per_bit
        assert result["optimum"].total_chips == len(lines)
        first = lines[0]
        for token in ("bit=", "chip=", "b_a=", "s_b=", "m_hat=", "optimum:"):
            assert token in first

    def test_invalid_inputs(self):
        cfg = make_cfg()
        with pytest.raises(ValueError):
            run_session(0, cfg, seed=1)
        with pytest.raises(ValueError):
            run_session(10, cfg, seed=1, detectors=("bogus",))
        with pytest.raises(ValueError):
            run_session(10, cfg, seed=1, detectors=("map",))
        with pytest.raises(ValueError, match="non-empty"):
            run_session(10, cfg, seed=1, detectors=())
        with pytest.raises(ValueError, match="must not repeat"):
            run_session(10, cfg, seed=1, detectors=("ml", "optimum", "ml"))

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, jobs):
        cfg = make_cfg()
        with pytest.raises(ValueError, match="jobs"):
            with worker_pool(jobs) as pool:
                run_session(10, cfg, seed=1, pool=pool)
        with pytest.raises(ValueError, match="jobs"):
            with worker_pool(jobs) as pool:
                run_session(10, cfg, seed=1, pool=pool, trace=io.StringIO())
        with pytest.raises(ValueError, match="jobs"):
            with worker_pool(jobs) as pool:
                run_classical_session(10, cfg.params, seed=1, pool=pool)

    def test_chunk_bits_below_one_rejected(self):
        cfg = make_cfg()
        with pytest.raises(ValueError, match="chunk_bits"):
            run_session(10, cfg, seed=1, chunk_bits=0)
        with pytest.raises(ValueError, match="chunk_bits"):
            run_classical_session(10, cfg.params, seed=1, chunk_bits=0)


class TestWorkerPool:
    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            with worker_pool(jobs):
                pass

    def test_one_job_builds_no_executor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an executor was built for jobs=1")

        monkeypatch.setattr(protocol, "ProcessPoolExecutor", refuse)
        with worker_pool(1) as pool:
            assert pool is None

    def test_pool_is_shut_down_when_the_block_ends(self):
        with worker_pool(2) as pool:
            assert pool is not None
        with pytest.raises(RuntimeError):
            pool.submit(int)

    def test_single_chunk_session_runs_serially(self):
        class NoMap:
            def map(self, *args, **kwargs):
                raise AssertionError("a one-chunk session used the pool")

        cfg = make_cfg()
        serial = run_session(500, cfg, seed=3, chunk_bits=500)
        assert run_session(500, cfg, seed=3, chunk_bits=500, pool=NoMap()) == serial


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
            detectors=("ml",),  # S is drawn only for ml
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


class TestChunkTableDraw:
    """The engine's table lookup against the per-chip divider it replaces."""

    @staticmethod
    def replay(params, n_bits, seed, key):
        """The chunk redrawn in the documented order, every chip's moments
        from a broadcast :func:`chip_moments` call."""
        chips, n = params.chips_per_bit, params.samples_per_chip
        rng = substream(seed, key)
        a_main = rng.integers(0, 2, n_bits)
        b_main = rng.integers(0, 2, n_bits)
        a_sub = rng.integers(0, 2, (n_bits, chips))
        b_sub = rng.integers(0, 2, (n_bits, chips))
        eve = rng.integers(0, 2, (n_bits, chips))
        mu, var = chip_moments(params, a_main[:, None], b_main[:, None], a_sub, b_sub)
        m_hat = mu + np.sqrt(var / n) * rng.standard_normal((n_bits, chips))
        scatter = var * (2.0 * rng.standard_gamma(0.5 * (n - 1), (n_bits, chips)))
        return a_main, b_main, a_sub, b_sub, scatter, m_hat, eve

    @pytest.mark.parametrize("n", [1, 2, 3, 20])
    def test_table_draw_equals_per_chip_moments(self, n, rng):
        configs = [SystemParams(samples_per_chip=n)]
        configs += [random_valid_params(rng, samples_per_chip=n) for _ in range(4)]
        for i, params in enumerate(configs):
            spec = _ChunkSpec(params, None, ("ml",), 300, 50 + i, (7, i))
            got = _rh_chunk_arrays(spec)
            want = self.replay(params, 300, 50 + i, (7, i))
            for g, w in zip(got, want):
                assert np.array_equal(g, w), params

    @pytest.mark.parametrize("n", [1, 3, 20])
    def test_scatter_is_drawn_only_for_ml(self, n):
        params = SystemParams(samples_per_chip=n)
        stats = derive_stats(params)
        without = _rh_chunk_arrays(_ChunkSpec(params, stats, ("optimum",), 400, 8, (1,)))
        with_ml = _rh_chunk_arrays(_ChunkSpec(params, stats, ("ml", "optimum"), 400, 8, (1,)))
        assert without[4] is None
        assert with_ml[4].shape == with_ml[5].shape
        # S is the last draw: every other array is the same with or without it
        for i in (0, 1, 2, 3, 5, 6):
            assert np.array_equal(without[i], with_ml[i]), i


class TestClassicalSession:
    def test_many_samples_drive_bep_to_zero(self):
        result = run_classical_session(2_000, SystemParams(samples_per_chip=4_000), seed=21)
        assert result["classical"].bep == 0.0

    def test_near_degenerate_ratio_gives_coin_flip_on_kept(self):
        params = SystemParams(alpha=1.05, beta=1.0, samples_per_chip=20)
        result = run_classical_session(50_000, params, seed=22)
        tally = result["classical"]
        assert tally.kept_chips > 1_000
        assert 0.4 < tally.bep < 0.6

    def test_determinism_across_worker_counts(self):
        params = SystemParams(samples_per_chip=50)
        a = run_classical_session(900, params, seed=23, chunk_bits=128)
        with worker_pool(3) as pool:
            b = run_classical_session(900, params, seed=23, chunk_bits=128, pool=pool)
        assert a == b

    def test_moderate_sampling_has_errors(self):
        result = run_classical_session(30_000, SystemParams(samples_per_chip=20), seed=24)
        tally = result["classical"]
        assert tally.bep > 0.05  # variance trisection is weak at 20 samples


class TestGateSoundness:
    def test_equal_main_bits_leak_less_with_more_samples(self):
        # equal-main-bit chips passing the gate are exactly the decided
        # main-bit errors; the leak vanishes as the sample count grows
        leaks = {}
        for n in (2, 4, 20):
            cfg = make_cfg(samples_per_chip=n)
            result = run_session(30_000, cfg, seed=31)
            leaks[n] = result["optimum"].main_bit_errors
        assert leaks[2] > leaks[4] > leaks[20] == 0

