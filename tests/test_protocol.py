"""Session engine, its per-chip verdicts and eavesdropper behavior."""

import functools
import io
import itertools
import math
import multiprocessing
import operator
import os
import statistics
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binomtest, chi2, chisquare, kstest, norm

from rhkljn import (
    SystemParams,
    chip_moments,
    fan_out,
    merge_tallies,
    run_session,
    state_moments,
)
from rhkljn import protocol
from rhkljn.channel import ChipState, sample_chip
from rhkljn.config import apply_scenario
from rhkljn.detectors import detect_moments, ml_center_band, ml_core
from rhkljn.exact import interval_mass
from rhkljn.params import derive_stats
from rhkljn.pls import IDEAL_DISCARD
from rhkljn.protocol import (
    DETECTOR_CHOICES,
    DetectorTally,
    _ChunkSpec,
    _rh_chunk_arrays,
    _tally_chunk,
    eve_observe,
    run_classical_session,
)
from rhkljn.rng import substream
from conftest import (
    assert_parties_agree,
    party_bits,
    random_valid_params,
    scatter_everywhere,
    swap_parties,
)


def params_and_stats(**param_overrides):
    """A session's ``params`` and ``stats`` at the defaults with ``param_overrides``."""
    params = SystemParams(**param_overrides)
    return params, derive_stats(params)


NOISELESS = dict(temperature=0.0)


def chunk_labels(spec, m_hat, scatter, name):
    """A detector's labels g on a chunk: the interval rule's
    ``ThresholdSet.label`` for a threshold detector, and for ``ml``
    ``detect_moments`` at each chip's (m_hat, S), S from ``scatter``."""
    if name == "ml":
        return detect_moments(m_hat, scatter, spec.params.samples_per_chip, spec.hyps)
    return spec.stats.thresholds().label(m_hat, name)


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
        state, _, m_hat, gate_keep, _, _ = arrays
        a_main, b_main, a_sub, b_sub = party_bits(state)
        tallies, keeps = _tally_chunk(spec, *arrays)

        mixed = np.broadcast_to((a_main != b_main)[:, None], a_sub.shape)
        assert np.array_equal(gate_keep, mixed)
        # at zero temperature every chip's S is 0
        g = chunk_labels(spec, m_hat, np.zeros(m_hat.shape), detector)
        kept = gate_keep & (g != 1)
        assert np.array_equal(keeps[detector], kept)
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
            mean, _ = chip_moments(params, *state)
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
    state = 8 * a_main + 4 * b_main + 2 * a_sub + b_sub
    m_hat = np.array(
        [
            [chip_moments(params, a_main, b_main, sa, sb)[0]]
            for sa, sb in zip(a_sub[0], b_sub[0])
        ]
    ).T
    gate_keep = stats.thresholds().gate(m_hat)
    scatter = np.zeros(np.count_nonzero(gate_keep))
    eve = np.zeros_like(a_sub)
    out = []
    for own in (state, swap_parties(state)):
        tallies, _ = _tally_chunk(spec, own, eve, m_hat, gate_keep, scatter, np.flatnonzero(gate_keep))
        g = chunk_labels(spec, m_hat, np.zeros(m_hat.shape), detector)
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
        state, _, m_hat, gate_keep, _, _ = _rh_chunk_arrays(spec)
        a_main, b_main, a_sub, b_sub = party_bits(state)
        g = stats.thresholds().label(m_hat, "optimum")

        middle = {1: stats.m1, 2: stats.m2, 3: stats.m3}
        true_g = np.zeros_like(g)
        for b_a, s_a, s_b in itertools.product((0, 1), repeat=3):
            mean, _ = chip_moments(params, b_a, 1 - b_a, s_a, s_b)
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
        params, stats = params_and_stats(**NOISELESS)
        result = run_session(500, params, stats, seed=9, detectors=("ml", "simple", "optimum"))
        for name in ("ml", "simple", "optimum"):
            tally = result[name]
            assert tally.bep == 0.0
            assert tally.sub_bit_errors == 0
            assert tally.main_bit_errors == 0
            assert tally.discard_fraction == pytest.approx(IDEAL_DISCARD, abs=0.02)

    def test_kept_fraction_matches_combinatorial_count(self):
        # 4 of the 16 equiprobable configurations survive ideal detection
        params, stats = params_and_stats()
        tally = run_session(20_000, params, stats, seed=12)["optimum"]
        total = tally.total_chips
        se = math.sqrt(0.25 * 0.75 / total)
        assert abs(tally.kept_chips / total - 0.25) < 5 * se

    def test_sub_bit_errors_only_from_misdetections(self):
        # noiseless channel: every label is exact, so zero errors and the
        # discard fraction is exactly 3/4
        params, stats = params_and_stats(**NOISELESS)
        tally = run_session(2_000, params, stats, seed=4)["optimum"]
        assert tally.bep == 0.0
        assert tally.discard_fraction == pytest.approx(0.75, abs=0.01)

    def test_determinism_across_worker_counts(self):
        # 650 bits are 7 chunks, the last one short, which no share count
        # divides; 150 bits are 2 chunks, fewer than the shares of jobs 3 and 4
        params, stats = params_and_stats()
        session = functools.partial(
            run_session, params=params, stats=stats, seed=77, detectors=DETECTOR_CHOICES, chunk_bits=100
        )
        serial = [session(bits) for bits in (650, 150)]
        for jobs in (2, 3, 4):
            fanned = [merge_tallies(fan_out(functools.partial(session, bits), jobs, bits, 100)) for bits in (650, 150)]
            # the same tallies, in the requested detector order
            assert [list(t.items()) for t in fanned] == [list(t.items()) for t in serial], jobs

    def test_shares_add_up_to_the_session(self):
        # 650 bits are 7 chunks of 100: 9 shares leave the last two empty
        params, stats = params_and_stats()
        session = functools.partial(
            run_session, 650, params, stats, seed=77, detectors=DETECTOR_CHOICES, chunk_bits=100
        )
        whole = session()
        for n in (1, 2, 3, 7, 9):
            assert merge_tallies(session(share=(k, n)) for k in range(n)) == whole, n
        assert session(share=(8, 9)) == dict.fromkeys(DETECTOR_CHOICES, DetectorTally())

    @pytest.mark.parametrize("share", [(1, 1), (-1, 2), (0, 0), (3, 2)])
    def test_share_out_of_range_rejected(self, share):
        params, stats = params_and_stats()
        with pytest.raises(ValueError, match="share must be"):
            run_session(10, params, stats, seed=1, share=share)
        with pytest.raises(ValueError, match="share must be"):
            run_classical_session(10, params, seed=1, share=share)

    # a chunk's warning would reach stderr from whichever process ran the
    # chunk, so stderr would depend on --jobs: a chunk must never warn, in
    # the edge cases least of all
    @pytest.mark.parametrize(
        "overrides",
        [NOISELESS, dict(samples_per_chip=1), dict(m_l=0.0)],
        ids=["noiseless", "one_sample", "zero_m_l"],
    )
    def test_chunks_raise_no_warning(self, overrides):
        params, stats = params_and_stats(**overrides)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tallies = run_session(2_000, params, stats, seed=31, detectors=DETECTOR_CHOICES)
            run_classical_session(2_000, params, seed=31)
        if overrides is NOISELESS:
            # the ML detector's point-mass branch labels every chip exactly
            assert tallies["ml"].sub_bit_errors == 0

    def test_tally_counts_are_conserved(self):
        params, stats = params_and_stats()
        result = run_session(5_000, params, stats, seed=14, detectors=("ml", "simple", "optimum"))
        for name in ("ml", "simple", "optimum"):
            t = result[name]
            assert t.kept_chips + t.discarded_gate + t.discarded_g1 == t.total_chips
            assert 0.0 <= t.bep <= 1.0
            assert 0.0 <= t.discard_fraction <= 1.0
            assert 0.0 <= t.eve_correct_fraction <= 1.0

    def test_detector_comparison_shares_noise(self):
        # same seed, same point: per-detector tallies come from one realization
        params, stats = params_and_stats()
        both = run_session(3_000, params, stats, seed=5, detectors=("simple", "optimum"))
        simple_only = run_session(3_000, params, stats, seed=5, detectors=("simple",))
        assert both["simple"] == simple_only["simple"]

    def test_eve_accuracy_is_fair_coin(self):
        params, stats = params_and_stats()
        tally = run_session(50_000, params, stats, seed=6)["optimum"]
        assert tally.kept_chips >= 100_000
        test = binomtest(tally.eve_correct, tally.kept_chips, 0.5)
        assert test.pvalue >= 0.01

    def test_trace_logs_every_chip(self):
        params, stats = params_and_stats()
        buf = io.StringIO()
        detectors = ("optimum", "ml", "simple")
        result = run_session(20, params, stats, seed=8, detectors=detectors, trace=buf)
        lines = buf.getvalue().strip().splitlines()
        assert len(lines) == 20 * params.chips_per_bit
        assert result["optimum"].total_chips == len(lines)
        first = lines[0]
        for token in ("bit=", "chip=", "b_a=", "s_b=", "m_hat="):
            assert token in first
        # one name:verdict field per detector, in the requested order
        verdicts = ("exchanged", "discarded_g1", "discarded_gate")
        for line in lines:
            fields = [field.split(":") for field in line.split()[7:]]
            assert [name for name, _ in fields] == list(detectors), line
            assert all(verdict in verdicts for _, verdict in fields), line

    def test_traced_tallies_are_the_untraced_ones(self):
        # the trace prints the keep masks the tally counted and draws
        # nothing more, so no tally moves; at gamma = 8 and n = 1 the three
        # detectors keep different chips
        for overrides, num_bits in ((dict(samples_per_chip=3), 2_500), (dict(gamma=8.0, samples_per_chip=1), 4_000)):
            params, stats = params_and_stats(**overrides)
            untraced = run_session(num_bits, params, stats, seed=12, detectors=DETECTOR_CHOICES)
            buf = io.StringIO()
            traced = run_session(num_bits, params, stats, seed=12, detectors=DETECTOR_CHOICES, trace=buf)
            assert traced == untraced
            log = buf.getvalue()
            assert log.count(":exchanged") == sum(t.kept_chips for t in untraced.values())
            for name, tally in untraced.items():
                assert log.count(f" {name}:exchanged") == tally.kept_chips, name
                assert log.count(f" {name}:discarded_g1") == tally.discarded_g1 > 0, name
                assert log.count(f" {name}:discarded_gate") == tally.discarded_gate > 0, name
        assert len({t.kept_chips for t in untraced.values()}) == 3

    def test_invalid_inputs(self):
        params, stats = params_and_stats()
        with pytest.raises(ValueError):
            run_session(0, params, stats, seed=1)
        with pytest.raises(ValueError):
            run_session(10, params, stats, seed=1, detectors=("bogus",))
        with pytest.raises(ValueError):
            run_session(10, params, stats, seed=1, detectors=("map",))
        with pytest.raises(ValueError, match="non-empty"):
            run_session(10, params, stats, seed=1, detectors=())
        with pytest.raises(ValueError, match="must not repeat"):
            run_session(10, params, stats, seed=1, detectors=("ml", "optimum", "ml"))

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, jobs):
        params, stats = params_and_stats()
        for session in (
            functools.partial(run_session, 2_000, params, stats, 1),
            functools.partial(run_session, 2_000, params, stats, 1, trace=io.StringIO()),
            functools.partial(run_classical_session, 2_000, params, 1),
        ):
            with pytest.raises(ValueError, match="jobs must be >= 1"):
                fan_out(session, jobs, 2_000)

    def test_chunk_bits_below_one_rejected(self):
        params, stats = params_and_stats()
        with pytest.raises(ValueError, match="chunk_bits"):
            run_session(10, params, stats, seed=1, chunk_bits=0)
        with pytest.raises(ValueError, match="chunk_bits"):
            run_classical_session(10, params, seed=1, chunk_bits=0)


def _share_and_pid(share):
    return share, os.getpid()


def _fail_share(failing, share):
    if share[0] == failing:
        raise RuntimeError(f"share {failing} failed")
    return share


class TestWorkerPool:
    """:func:`fan_out`'s executor: built for two shares or more, always shut down."""

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            fan_out(_share_and_pid, jobs, 4 * 1024)

    def test_one_job_builds_no_executor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an executor was built for jobs=1")

        monkeypatch.setattr(protocol, "ProcessPoolExecutor", refuse)
        assert fan_out(_share_and_pid, 1, 4 * 1024) == [((0, 1), os.getpid())]

    # shut down waiting and cancelling whatever has not started, whether
    # every share returns or share 0 (the caller's) or a worker's raises
    @pytest.mark.parametrize("failing", [None, 0, 1], ids=["success", "caller", "worker"])
    def test_executor_is_shut_down_cancelling_queued_tasks(self, monkeypatch, failing):
        from concurrent.futures import ProcessPoolExecutor

        shutdowns = []

        class Recording(ProcessPoolExecutor):
            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append((wait, cancel_futures))
                super().shutdown(wait=wait, cancel_futures=cancel_futures)

        monkeypatch.setattr(protocol, "ProcessPoolExecutor", Recording)
        run = functools.partial(_fail_share, failing)
        if failing is None:
            assert fan_out(run, 3, 3 * 1024) == [(k, 3) for k in range(3)]
        else:
            with pytest.raises(RuntimeError, match=f"^share {failing} failed$"):
                fan_out(run, 3, 3 * 1024)
        assert shutdowns == [(True, True)]
        assert multiprocessing.active_children() == []

    def test_single_chunk_fan_out_builds_no_executor(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an executor was built for one chunk")

        monkeypatch.setattr(protocol, "ProcessPoolExecutor", refuse)
        params, stats = params_and_stats()
        session = functools.partial(run_session, 500, params, stats, 3, chunk_bits=500)
        assert fan_out(session, 4, 500, 500) == [session()]

    # n = min(jobs, chunks) shares: the calling process runs share 0 and
    # each of the n - 1 workers one task
    @pytest.mark.parametrize("jobs, bits, shares", [(3, 5 * 1024, 3), (8, 2 * 1024, 2)])
    def test_one_task_per_worker(self, monkeypatch, jobs, bits, shares):
        from concurrent.futures import ProcessPoolExecutor

        built, submitted = [], []

        class Counting(ProcessPoolExecutor):
            def __init__(self, max_workers):
                built.append(max_workers)
                super().__init__(max_workers)

            def submit(self, fn, /, *args, **kwargs):
                submitted.append(kwargs["share"])
                return super().submit(fn, *args, **kwargs)

        monkeypatch.setattr(protocol, "ProcessPoolExecutor", Counting)
        results = fan_out(_share_and_pid, jobs, bits)
        assert [share for share, _ in results] == [(k, shares) for k in range(shares)]
        assert results[0][1] == os.getpid()
        assert os.getpid() not in [pid for _, pid in results[1:]]
        assert (built, submitted) == ([shares - 1], [(k, shares) for k in range(1, shares)])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("failing", [0, 1], ids=["caller", "worker"])
    def test_failing_share_reaches_the_caller(self, failing):
        with pytest.raises(RuntimeError, match=f"^share {failing} failed$"):
            fan_out(functools.partial(_fail_share, failing), 2, 2_048)
        assert multiprocessing.active_children() == []


class TestChunkSampler:
    """The engine draws each chip as (m_hat, S); check them against the closed forms."""

    # fixed before the first run: about 1% family-wise false alarm over the
    # KS tests below (m_hat per state and pooled over the 16 states at 4
    # sample counts; S per scored state and pooled over the scored chips at 3)
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
    def by_state():
        for index in range(16):
            yield index, ChipState(*((index >> k) & 1 for k in (3, 2, 1, 0)))

    # plans whose band shells hold over 1,000 of the 40,000 chips: at
    # m_l = 6e-5, n = 3 about 40 % of ML's center band lies outside its
    # core; at n = 2 and 20 these m_l leave no core, so S is drawn over the
    # whole band; at n = 1 S is 0, and beta = 1 leaves no core either
    SHELL_PLANS = {1: dict(beta=1.0), 2: dict(m_l=6e-5), 3: dict(m_l=6e-5), 20: dict(m_l=2e-5)}

    @pytest.mark.parametrize("n", [1, 2, 3, 20])
    def test_moments_follow_chip_distribution(self, n):
        # at n = 20 13 of the 16 states are certain: their chips hold the
        # state mean, and the others draw theirs
        params = SystemParams(samples_per_chip=n)
        need = _ChunkSpec(params, derive_stats(params), ("ml",), 1, 41, (0,)).need
        assert np.count_nonzero(need) == {1: 16, 2: 16, 3: 16, 20: 3}[n]
        state, _, m_hat, *_ = self.chunk(params, 4_000, seed=41)
        z = np.empty_like(m_hat)
        for index, chip_state in self.by_state():
            mean, var = chip_moments(params, *chip_state)
            sel = state == index
            assert sel.sum() > 1_000
            if not need[index]:
                assert np.all(m_hat[sel] == mean), chip_state
                continue
            z[sel] = (m_hat[sel] - mean) / math.sqrt(var / n)
            assert kstest(z[sel], norm.cdf).pvalue >= self.KS_P_FLOOR, chip_state
        # pooled over the drawn states: up to ~16x the power of one state
        # against a common bias
        assert kstest(z[need.take(state)], norm.cdf).pvalue >= self.KS_P_FLOOR

        # S exists for the gate-kept chips in the shells of ML's center
        # band alone; S is independent of m_hat, so picking chips by m_hat
        # leaves its law as it is
        params = SystemParams(samples_per_chip=n, **self.SHELL_PLANS[n])
        state, _, _, _, scatter, scored = self.chunk(params, 4_000, seed=41)
        scored_state = state.take(scored)
        assert scatter.shape == scored_state.shape and scored.size > 1_000
        if n == 1:
            assert np.all(scatter == 0.0)
            return
        s_over_var = np.empty_like(scatter)
        for index, chip_state in self.by_state():
            _, var = chip_moments(params, *chip_state)
            scored = scored_state == index
            s_over_var[scored] = scatter[scored] / var
            if scored.sum() > 1_000:
                assert kstest(s_over_var[scored], chi2(n - 1).cdf).pvalue >= self.KS_P_FLOOR, chip_state
        assert kstest(s_over_var, chi2(n - 1).cdf).pvalue >= self.KS_P_FLOOR

    def test_noiseless_chunk_is_exact(self):
        params = SystemParams(temperature=0.0, samples_per_chip=5)
        state, _, m_hat, gate_keep, scatter, _ = self.chunk(params, 200, seed=3)
        for index, chip_state in self.by_state():
            mean, _ = chip_moments(params, *chip_state)
            assert np.all(m_hat[state == index] == mean), chip_state
        assert scatter.shape == (np.count_nonzero(gate_keep),)
        assert np.all(scatter == 0.0)


def replay_coins(rng, n_bits, chips):
    """A chunk's coins as documented, from uint8 integers: one byte per bit,
    then one per chip; returns the bits and Eve's guesses as 0/1 arrays
    ``(a_main, b_main, a_sub, b_sub, eve)``, the mains per bit."""
    coins = rng.integers(0, 256, n_bits * (1 + chips), dtype=np.uint8)
    bit, chip = coins[:n_bits], coins[n_bits:].reshape(n_bits, chips)
    return (bit >> 1) & 1, bit & 1, (chip >> 1) & 1, chip & 1, (chip >> 2) & 1


def replay_chunk(params, stats, n_bits, seed, key, need=None):
    """A chunk redrawn in the documented order, every chip's moments from a
    broadcast :func:`chip_moments` call: the coins; a normal for each chip
    whose state ``need`` (16 bools) marks, in flat order, the other chips
    holding their state mean; then S for the gate-kept chips inside ML's
    center band but outside its core.  ``need`` None, a normal for every
    chip, is the version-4 draw."""
    chips, n = params.chips_per_bit, params.samples_per_chip
    rng = substream(seed, key)
    a_main, b_main, a_sub, b_sub, eve = replay_coins(rng, n_bits, chips)
    mu, var = chip_moments(params, a_main[:, None], b_main[:, None], a_sub, b_sub)
    state = 8 * a_main[:, None] + 4 * b_main[:, None] + 2 * a_sub + b_sub
    if need is None:
        m_hat = mu + np.sqrt(var / n) * rng.standard_normal((n_bits, chips))
    else:
        drawn = need[state]
        m_hat = mu.copy()
        m_hat[drawn] = np.sqrt(var[drawn] / n) * rng.standard_normal(np.count_nonzero(drawn)) + mu[drawn]
    gate_keep = (m_hat >= stats.th1) & (m_hat <= stats.th2)
    hyps = stats.middle_hypotheses()
    lo, hi = ml_center_band(hyps)
    core_lo, core_hi = ml_core(hyps, n, stats.state_means, stats.state_variances)
    in_shell = gate_keep & (m_hat >= lo) & (m_hat <= hi) & ~((m_hat >= core_lo) & (m_hat <= core_hi))
    scatter = var[in_shell] * (2.0 * rng.standard_gamma(0.5 * (n - 1), np.count_nonzero(in_shell)))
    return state, eve, m_hat, gate_keep, scatter, np.flatnonzero(in_shell)


class TestChunkTableDraw:
    """The engine's table lookup and draw order against a hand-built replay."""

    @pytest.mark.parametrize("n", [1, 2, 3, 20])
    def test_table_draw_equals_per_chip_moments(self, n, rng):
        # the defaults, where ML's band shells are all but empty, a plan
        # whose shells hold chips, and random draws
        configs = [SystemParams(samples_per_chip=n), SystemParams(samples_per_chip=n, **TestChunkSampler.SHELL_PLANS[n])]
        configs += [random_valid_params(rng, samples_per_chip=n) for _ in range(4)]
        for i, params in enumerate(configs):
            stats = derive_stats(params)
            spec = _ChunkSpec(params, stats, ("ml",), 300, 50 + i, (7, i))
            got = _rh_chunk_arrays(spec)
            want = replay_chunk(params, stats, 300, 50 + i, (7, i), spec.need)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(g, w), params

    @pytest.mark.parametrize("n", [1, 3, 20])
    def test_scatter_is_drawn_only_for_ml(self, n):
        # m_l where ML's band at n = 3 and 20 is part core, part shell
        params = SystemParams(samples_per_chip=n, m_l={1: 1e-4, 3: 6e-5, 20: 2.8e-5}[n])
        stats = derive_stats(params)
        without = _rh_chunk_arrays(_ChunkSpec(params, stats, ("optimum",), 400, 8, (1,)))
        with_ml = _rh_chunk_arrays(_ChunkSpec(params, stats, ("ml", "optimum"), 400, 8, (1,)))
        assert without[4] is None and without[5] is None
        # one S per gate-kept chip in the band's shells, and none for the
        # others: those the gate discards, those ML keeps at any S outside
        # the band and those it discards at any likely S in its core
        m_hat, gate_keep, scatter, scored = with_ml[2:]
        hyps = stats.middle_hypotheses()
        lo, hi = ml_center_band(hyps)
        core_lo, core_hi = ml_core(hyps, n, stats.state_means, stats.state_variances)
        in_core = gate_keep & (m_hat >= core_lo) & (m_hat <= core_hi)
        assert scatter.shape == scored.shape
        assert np.array_equal(scored, np.flatnonzero(gate_keep & (m_hat >= lo) & (m_hat <= hi) & ~in_core))
        # at n = 1, where S = 0, the core is the band less its margins
        assert (scored.size > 0) == (n > 1)
        assert 0 < np.count_nonzero(in_core) < np.count_nonzero(gate_keep) < gate_keep.size
        # S is the last draw: every other array is the same with or without it
        for i in range(4):
            assert np.array_equal(without[i], with_ml[i]), i

    # the engine draws all the coins of a chunk, of bits and of chips, in
    # one call; as uint8 integers, the same bits come out in the documented
    # layout, and the normals after them are untouched
    @pytest.mark.parametrize("n_bits, chips", [(1024, 10), (928, 10), (7, 3), (1, 1)])
    def test_one_draw_per_shape_keeps_the_stream(self, n_bits, chips):
        params = SystemParams(chips_per_bit=chips)
        spec = _ChunkSpec(params, derive_stats(params), ("optimum",), n_bits, 9, (n_bits, chips))
        state, eve, m_hat, *_ = _rh_chunk_arrays(spec)
        split = substream(9, (n_bits, chips))
        a_main, b_main, a_sub, b_sub, want_eve = replay_coins(split, n_bits, chips)
        assert state.shape == eve.shape == (n_bits, chips)
        assert [a.tolist() for a in party_bits(state)] == [a.tolist() for a in (a_main, b_main, a_sub, b_sub)]
        assert np.array_equal(eve, want_eve)
        # the defaults' n = 20 is a skipping plan: the chips of needed
        # states draw their normals in flat order, the others hold the mean
        mu, var = state_moments(params)
        sd = np.sqrt(var / params.samples_per_chip)
        assert not spec.full_draw
        drawn = spec.need[state]
        want = mu[state]
        want[drawn] = sd[state[drawn]] * split.standard_normal(np.count_nonzero(drawn)) + mu[state[drawn]]
        assert np.array_equal(m_hat, want)

    def test_states_and_eve_are_uniform_and_independent(self):
        # 10^5 bits of 10 chips: the chips of a bit share its mains, so the
        # joint test over the 16 states and Eve's coin (32 cells) takes one
        # chip per bit; the 8 cells of a chip's own byte (sub-bits and Eve's
        # coin) are tested over all 10^6 chips, and the sub-bits of a bit's
        # two first chips for independence
        params = SystemParams()
        spec = _ChunkSpec(params, derive_stats(params), ("optimum",), 100_000, 11, (0,))
        state, eve, *_ = _rh_chunk_arrays(spec)
        joint = np.bincount(2 * state[:, 0].astype(int) + eve[:, 0], minlength=32)
        own = np.bincount(2 * (state & 3).astype(int).ravel() + eve.ravel(), minlength=8)
        pairs = np.bincount(4 * (state[:, 0] & 3).astype(int) + (state[:, 1] & 3), minlength=16)
        for counts, cells in ((joint, 32), (own, 8), (pairs, 16)):
            assert counts.size == cells
            assert chisquare(counts).pvalue >= 1e-4, counts

    def test_plan_table_reads_the_stats_table_keyed_on_n(self):
        # a hopping plan reads its statistics' stored table; a classical
        # plan, which has no statistics, builds the same one
        mu, var = state_moments(SystemParams())
        sds = []
        for n in (3, 20):
            params = SystemParams(samples_per_chip=n)
            stats = derive_stats(params)
            hopping = _ChunkSpec(params, stats, ("optimum",), 10, 1, (0,)).table
            assert hopping[0] is stats.state_means and hopping[2] is stats.state_variances
            classical = _ChunkSpec(params, None, ("classical",), 10, 1, (0,)).table
            for table in (hopping, classical):
                assert np.array_equal(table[0], mu) and np.array_equal(table[2], var)
                assert np.array_equal(table[1], np.sqrt(var / n))
            sds.append(hopping[1])
        assert not np.array_equal(*sds)

    # the coins are read from the bit generator's raw 64-bit words; on
    # PCG64 they are the bytes of Generator.bytes, at lengths that end
    # inside a 32-bit or a 64-bit word too, and the draws after them do
    # not move (11,264 bytes are a 1024-bit chunk of 10 chips)
    @pytest.mark.parametrize("k", [3, 5, 8, 11, 99, 11_264, 11_268])
    @pytest.mark.parametrize("key", [(0,), (0x51, 0, 4613937818241073152, 3), (0x53, 7)])
    def test_coin_bytes_are_generator_bytes(self, k, key):
        raw, ref = substream(17, key), substream(17, key)
        coins = protocol._coin_bytes(raw, k)
        assert coins.dtype == np.uint8 and coins.shape == (k,)
        assert coins.tobytes() == ref.bytes(k)
        assert np.array_equal(raw.standard_normal(37), ref.standard_normal(37))
        assert np.array_equal(raw.standard_gamma(1.5, 37), ref.standard_gamma(1.5, 37))


class TestCertainStates:
    """A plan marks a state certain when its m_hat leaves the cell of its
    mean, between two verdict edges, with probability below 2^-100; where
    at least ``MIN_CERTAIN_STATES`` are, their chips draw no normal."""

    @staticmethod
    def verdict_edges(spec):
        """Every edge at which a verdict of ``spec``'s detectors can change,
        and ML's shells, the band less its core, where it reads S; written
        out here from the plan's thresholds, band and core, so that an edge
        the plan leaves out fails the bound."""
        t = spec.thresholds
        edges = [t.th1, t.th2]
        for name in spec.detectors:
            if name != "ml":
                (_, lo), (hi, _) = t.kept_intervals(name)
                edges += [lo, hi]
        shells = []
        if "ml" in spec.detectors:
            (lo, hi), (core_lo, core_hi) = spec.ml_band, spec.ml_core
            edges += [lo, hi]
            if core_lo <= core_hi:
                edges += [core_lo, core_hi]
                shells = [(lo, core_lo), (core_hi, hi)]
            else:
                shells = [(lo, hi)]
        return edges, shells

    @settings(deadline=None, derandomize=True, database=None, max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([1, 2, 3, 5, 10, 40]),
        detectors=st.sampled_from([("optimum",), ("simple",), ("ml", "simple", "optimum")]),
    )
    def test_certain_states_leave_their_cell_below_the_bound(self, seed, n, detectors):
        params = random_valid_params(np.random.default_rng(seed), samples_per_chip=n)
        stats = derive_stats(params)
        spec = _ChunkSpec(params, stats, detectors, 1, 1, (0,))
        edges, shells = self.verdict_edges(spec)
        for k, (mu, var) in enumerate(zip(stats.state_means.tolist(), stats.state_variances.tolist())):
            if not spec.certain[k]:
                continue
            # the mass outside the cell, by the tail-safe oracle
            sd = math.sqrt(var / n)
            lo = max((e for e in edges if e < mu), default=-math.inf)
            hi = min((e for e in edges if e > mu), default=math.inf)
            outside = interval_mass(-math.inf, lo, mu, sd) + interval_mass(hi, math.inf, mu, sd)
            assert outside < 2.0**-100, (k, mu, lo, hi, sd)
            assert not any(a <= mu <= b for a, b in shells), k
        assert np.array_equal(spec.need, np.ones(16, dtype=bool) if spec.full_draw else ~spec.certain)
        assert spec.full_draw == (np.count_nonzero(spec.certain) < protocol.MIN_CERTAIN_STATES)

    # the states that need a normal at "good", the same for optimum alone
    # and for all three detectors; the fine-tuned bias leaves none
    NEEDED_AT_GOOD = {1: 12, 2: 10, 3: 10, 5: 8, 10: 8, 20: 3, 40: 1}

    @pytest.mark.parametrize("detectors", [("optimum",), DETECTOR_CHOICES])
    @pytest.mark.parametrize("n", list(NEEDED_AT_GOOD))
    def test_need_counts(self, n, detectors):
        for scenario, needed in (("good", self.NEEDED_AT_GOOD[n]), ("fine_tuned", 0)):
            params = apply_scenario(SystemParams(samples_per_chip=n), scenario)
            spec = _ChunkSpec(params, derive_stats(params), detectors, 1, 1, (0,))
            assert 16 - np.count_nonzero(spec.certain) == needed, scenario
            # below the cut every state draws
            assert spec.full_draw == (needed > 8)
            assert np.count_nonzero(spec.need) == (16 if spec.full_draw else needed)

    def test_edges_sd_zero_and_shells(self):
        mu, sd = np.array([0.0, 0.5, 0.0, 0.5]), np.array([1e-3, 1e-3, 0.0, 0.0])
        # a mean on an edge leaves half its mass past it; a point mass never moves
        assert protocol._certain_states([0.0, 1.0], [], mu, sd).tolist() == [False, True, True, True]
        # a shell reads S, so its states are not certain, unless their S is 0 too
        assert protocol._certain_states([0.0, 1.0], [(0.0, 1.0)], mu, sd).tolist() == [False, False, True, True]
        # a cell wider than ~12 sd each side is certain, ~11 is not
        assert protocol._certain_states([-0.012, 0.012], [], mu[:1], sd[:1]).tolist() == [True]
        assert protocol._certain_states([-0.011, 0.012], [], mu[:1], sd[:1]).tolist() == [False]

    def test_noiseless_plan_draws_no_normal(self):
        params, stats = params_and_stats(temperature=0.0, samples_per_chip=3)
        spec = _ChunkSpec(params, stats, DETECTOR_CHOICES, 300, 5, (0,))
        assert spec.certain.all() and not spec.need.any() and not spec.full_draw
        state, _, m_hat, *_ = _rh_chunk_arrays(spec)
        assert np.array_equal(m_hat, stats.state_means[state])

    # skipping plans: the coins are version 4's, and on every certain chip
    # so is every verdict
    @pytest.mark.parametrize("scenario, n", [("good", 5), ("good", 20), ("good", 40), ("fine_tuned", 3)])
    def test_certain_chips_keep_version_4s_verdicts(self, scenario, n):
        params = apply_scenario(SystemParams(samples_per_chip=n), scenario)
        stats = derive_stats(params)
        spec = _ChunkSpec(params, stats, DETECTOR_CHOICES, 2_000, 61, (5, n))
        assert not spec.full_draw
        got = _rh_chunk_arrays(spec)
        old = replay_chunk(params, stats, 2_000, 61, (5, n))
        state = got[0]
        assert np.array_equal(state, old[0]) and np.array_equal(got[1], old[1])
        certain = spec.certain[state]
        assert certain.sum() >= certain.size // 3
        assert np.array_equal(got[2][certain], stats.state_means[state[certain]])
        assert np.array_equal(got[3][certain], old[3][certain])
        keeps, old_keeps = _tally_chunk(spec, *got)[1], _tally_chunk(spec, *old)[1]
        for name in spec.detectors:
            assert np.array_equal(keeps[name][certain], old_keeps[name][certain]), name

    # plans below the cut, among them fig_beta_jobs2's and the compare and
    # fig_n rows at n = 2-3: every array is version 4's, to the byte
    @pytest.mark.parametrize(
        "overrides, detectors",
        [(dict(samples_per_chip=n), d) for n in (1, 2, 3) for d in (("optimum",), DETECTOR_CHOICES)]
        + [(dict(samples_per_chip=3, beta=beta), ("optimum",)) for beta in (3.4, 3.55, 3.7, 3.85, 4.0)]
        # "moderate" at n = 5: ML's edges leave 10 states uncertain, the
        # threshold edges alone 8
        + [(dict(samples_per_chip=5, m_l=9.5e-5), ("ml",))],
    )
    def test_below_the_cut_the_draw_is_version_4s(self, overrides, detectors):
        params, stats = params_and_stats(**overrides)
        spec = _ChunkSpec(params, stats, detectors, 500, 62, (6,))
        assert spec.full_draw and spec.need.all()
        got = _rh_chunk_arrays(spec)
        want = replay_chunk(params, stats, 500, 62, (6,))
        for g, w in zip(got[:4], want):
            assert np.array_equal(g, w)
        if "ml" in detectors:
            assert np.array_equal(got[4], want[4]) and np.array_equal(got[5], want[5])
        else:
            assert got[4] is None and got[5] is None

    def test_trace_draws_certain_chips_from_a_child_key(self):
        # the defaults' n = 20 skips 13 states; the trace prints the
        # engine's m_hat at the drawn chips and, at the certain ones, a draw
        # from the chunk key's child (0, _TAG_TRACE), and the verdicts the
        # tally counted, which are those of the printed m_hat
        params, stats = params_and_stats()
        buf = io.StringIO()
        traced = run_session(300, params, stats, seed=14, detectors=DETECTOR_CHOICES, trace=buf)
        assert traced == run_session(300, params, stats, seed=14, detectors=DETECTOR_CHOICES)
        spec = _ChunkSpec(params, stats, DETECTOR_CHOICES, 300, 14, ()).chunk(300, (0,))
        state, _, m_hat, *_ = _rh_chunk_arrays(spec)
        certain = spec.certain[state]
        mu, sd, _ = spec.table
        z = substream(14, (0, protocol._TAG_TRACE)).standard_normal(np.count_nonzero(certain))
        want = m_hat.copy()
        want[certain] = sd[state[certain]] * z + mu[state[certain]]
        assert not np.array_equal(want, m_hat)
        lines = [line.split() for line in buf.getvalue().splitlines()]
        assert [line[6] for line in lines] == [f"m_hat={x:.9g}" for x in want.ravel()]
        t = spec.thresholds
        for j, name in enumerate(spec.detectors):
            exchanged = np.array([line[7 + j] == f"{name}:exchanged" for line in lines]).reshape(state.shape)
            if name != "ml":
                assert np.array_equal(exchanged, t.gate(want) & t.keep(want, name)), name


class TestChunkPlan:
    """A session builds its chunk plan once; its chunks derive nothing again."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts = {"thresholds": 0, "middle_hypotheses": 0, "state_moments": 0}

        def counted(name, real):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            return wrapper

        from rhkljn.params import DerivedStats

        for name in ("thresholds", "middle_hypotheses"):
            monkeypatch.setattr(DerivedStats, name, counted(name, getattr(DerivedStats, name)))
        monkeypatch.setattr(protocol, "state_moments", counted("state_moments", protocol.state_moments))
        return counts

    def test_session_builds_its_plan_once(self, calls):
        params, stats = params_and_stats(samples_per_chip=3)
        tallies = run_session(450, params, stats, seed=3, detectors=DETECTOR_CHOICES, chunk_bits=100)
        assert tallies["ml"].total_chips == 4_500  # five chunks
        assert calls == {"thresholds": 1, "middle_hypotheses": 1, "state_moments": 0}

    def test_traced_session_builds_its_plan_once(self, calls):
        log = io.StringIO()
        run_session(450, *params_and_stats(), seed=3, detectors=DETECTOR_CHOICES, trace=log, chunk_bits=100)
        assert len(log.getvalue().splitlines()) == 4_500
        assert calls == {"thresholds": 1, "middle_hypotheses": 1, "state_moments": 0}

    def test_classical_session_builds_its_plan_once(self, calls):
        params = SystemParams(m_l=0.0, chips_per_bit=1, samples_per_chip=30)
        tallies = run_classical_session(450, params, seed=3, chunk_bits=100)
        assert tallies["classical"].total_chips == 450
        assert calls == {"thresholds": 0, "middle_hypotheses": 0, "state_moments": 1}

    def test_compare_builds_one_state_table_per_session(self, monkeypatch, capsys):
        # one per hopping point, in derive_stats (2 scenarios x 5 rates),
        # and one per classical plan (5 rates)
        from rhkljn import cli, params

        calls = []

        def counted(p):
            calls.append(p)
            return state_moments(p)

        for module in (params, protocol):
            monkeypatch.setattr(module, "state_moments", counted)
        assert cli.main(["compare", "--values", "2e4,3e4,5e4,1e5,2e5", "--bits", "100"]) == 0
        assert len(calls) == 15

    def test_chunk_copies_the_plan_with_its_own_size_and_key(self):
        params, stats = params_and_stats()
        plan = _ChunkSpec(params, stats, ("ml", "optimum"), 5_000, 4, (9,))
        chunk = plan.chunk(100, (9, 3))
        assert (chunk.n_bits, chunk.key, plan.n_bits, plan.key) == (100, (9, 3), 5_000, (9,))
        for name in ("params", "stats", "detectors", "master_seed", "table", "thresholds", "hyps"):
            assert getattr(chunk, name) is getattr(plan, name), name
        # in label order: the ML detector sorts the hypotheses by sigma itself
        assert plan.hyps == stats.middle_hypotheses()

    def test_tally_add_sums_every_field(self):
        a = DetectorTally(*range(1, 8))
        b = DetectorTally(*range(10, 80, 10))
        assert a + b == DetectorTally(*(x + y for x, y in zip(range(1, 8), range(10, 80, 10))))


class TestThresholdKeep:
    """The tally's keep masks against the labels of the interval rule and
    ``detect_moments``."""

    def test_chunk_tally_equals_label_tally(self, rng):
        # 1e5 chips: the tally's counts against counts made from the labels
        params = SystemParams(samples_per_chip=2)
        stats = derive_stats(params)
        spec = _ChunkSpec(params, stats, DETECTOR_CHOICES, 10_000, 19, (0,))
        arrays = _rh_chunk_arrays(spec)
        state, eve, m_hat, gate_keep, scatter, scored = arrays
        a_main, b_main, a_sub, b_sub = party_bits(state)
        result = _tally_chunk(spec, *arrays)
        # the tallies and the keep masks they counted: no label is built
        assert len(result) == 2
        tallies, keeps = result
        assert list(keeps) == list(spec.detectors)
        # the ml labels read S at every gate-kept chip; outside the band's
        # shells S decides nothing (but with probability 2^-100 in its
        # core), so the test draws its own
        scatter = scatter_everywhere(rng, spec, state, scatter, scored)
        for name in spec.detectors:
            g = chunk_labels(spec, m_hat, scatter, name)
            if name != "ml":
                assert np.array_equal(stats.thresholds().keep(m_hat, name), g != 1)
            kept = gate_keep & (g != 1)
            assert keeps[name].dtype == bool and np.array_equal(keeps[name], kept), name
            tally = tallies[name]
            assert tally.total_chips == m_hat.size == 100_000
            assert tally.kept_chips == int(kept.sum())
            assert tally.discarded_g1 == int((gate_keep & (g == 1)).sum()) > 0
            assert tally.sub_bit_errors == int((kept & (a_sub == b_sub)).sum()) > 0
            assert tally.main_bit_errors == int((kept.any(axis=1) & (a_main == b_main)).sum())
            assert tally.eve_correct == int((kept & (eve == a_main[:, None])).sum())


def v3_ml_mask(spec):
    """ML's keep mask of a chunk as engine version 3 drew it: the chunk's
    coins and sample means as the engine draws them, then S for every
    gate-kept chip inside ML's center band, core and shells alike, in flat
    order, and ML's keep, ``detect_moments(...) != 1``, on each of them."""
    n = spec.params.samples_per_chip
    state, _, m_hat, gate_keep, _, _ = _rh_chunk_arrays(spec)
    rng = substream(spec.master_seed, spec.key)
    protocol._coin_bytes(rng, m_hat.size + spec.n_bits)
    rng.standard_normal(m_hat.shape)
    lo, hi = spec.ml_band
    band = np.flatnonzero((m_hat >= lo) & (m_hat <= hi))
    scatter = 2.0 * rng.standard_gamma(0.5 * (n - 1), band.size) * spec.table[2].take(state.take(band))
    kept = gate_keep.copy()
    kept.put(band, detect_moments(m_hat.take(band), scatter, n, spec.hyps) != 1)
    return kept


class TestMlTally:
    """``ml`` is tallied from the :func:`rhkljn.detectors.detect_moments`
    labels of the gated chips in the shells of its center band, discards
    those in the band's core and keeps every other gated chip."""

    @staticmethod
    def full_tally(spec, rng, state, eve, m_hat, gate_keep, scatter, scored):
        """The ``ml`` tally of ``detect_moments(...) != 1`` on every
        gate-kept chip, those outside the band's shells at S drawn from
        ``rng``."""
        scatter = scatter_everywhere(rng, spec, state, scatter, scored)[gate_keep]
        kept = gate_keep.copy()
        kept[gate_keep] = detect_moments(m_hat[gate_keep], scatter, spec.params.samples_per_chip, spec.hyps) != 1
        return protocol._count({"ml": kept}, gate_keep, state, eve)

    # the point masses and beta = 1 have no strictly narrowest center, so S
    # is drawn for every gated chip; at alpha = beta the center is still
    # the narrowest
    @pytest.mark.parametrize(
        "overrides, whole_line",
        [({}, False), (NOISELESS, True), (dict(beta=1.0), True), (dict(alpha=3.5), False), (dict(samples_per_chip=1), False)],
        ids=["good", "point_masses", "beta_1", "alpha_eq_beta", "one_sample"],
    )
    def test_band_tally_equals_ml_keep_on_every_gated_chip(self, overrides, whole_line, rng):
        params, stats = params_and_stats(**overrides)
        spec = _ChunkSpec(params, stats, ("ml",), 2_000, 23, (0,))
        arrays = _rh_chunk_arrays(spec)
        tally = _tally_chunk(spec, *arrays)[0]
        assert tally == self.full_tally(spec, rng, *arrays)
        gate_keep, scored = arrays[3], arrays[5]
        assert np.array_equal(scored, np.flatnonzero(gate_keep)) == whole_line

    def test_chunk_with_no_chip_in_the_band(self, rng):
        # the band's chips moved past th2, out of the gate: S is drawn for
        # no chip, and ml keeps every gated chip
        params, stats = params_and_stats()
        spec = _ChunkSpec(params, stats, ("ml",), 500, 29, (0,))
        state, eve, m_hat, *_ = _rh_chunk_arrays(spec)
        lo, hi = spec.ml_band
        m_hat[(m_hat >= lo) & (m_hat <= hi)] = 2.0 * stats.th2
        gate_keep = stats.thresholds().gate(m_hat)
        arrays = (state, eve, m_hat, gate_keep, np.empty(0), np.empty(0, dtype=np.intp))
        tally = _tally_chunk(spec, *arrays)[0]["ml"]
        assert tally.kept_chips == np.count_nonzero(gate_keep) > 0
        assert {"ml": tally} == self.full_tally(spec, rng, *arrays)

    # no S is in doubt: S = 0 at n = 1, and no core where the center is
    # not strictly the narrowest, so S is drawn for every band chip
    @pytest.mark.parametrize(
        "overrides", [dict(samples_per_chip=1), NOISELESS, dict(beta=1.0)], ids=["one_sample", "point_masses", "beta_1"]
    )
    def test_mask_is_version_3s_where_no_s_is_in_doubt(self, overrides):
        params, stats = params_and_stats(**overrides)
        spec = _ChunkSpec(params, stats, ("ml",), 2_000, 31, (0,))
        keep = _tally_chunk(spec, *_rh_chunk_arrays(spec))[1]["ml"]
        assert np.array_equal(keep, v3_ml_mask(spec))

    def test_kept_counts_match_version_3_on_populated_shells(self):
        # at m_l = 6e-5, n = 3 about 1,000 chips a chunk fall in the band's
        # shells; over 40 seeds ML keeps as many chips as when S is drawn
        # for every band chip.  The masks differ only in the shells, where
        # S lands on other chips; in the core, only with probability 2^-100
        params, stats = params_and_stats(samples_per_chip=3, m_l=6e-5)
        diffs, shells = [], 0
        for seed in range(40):
            spec = _ChunkSpec(params, stats, ("ml",), 1024, 700 + seed, (0,))
            arrays = _rh_chunk_arrays(spec)
            keep, old = _tally_chunk(spec, *arrays)[1]["ml"], v3_ml_mask(spec)
            outside = np.ones(keep.size, dtype=bool)
            outside[arrays[5]] = False
            assert np.array_equal(keep.ravel()[outside], old.ravel()[outside])
            shells += arrays[5].size
            diffs.append(int(keep.sum()) - int(old.sum()))
        assert shells >= 40 * 1_000
        assert any(diffs)
        assert abs(sum(diffs)) <= 4 * math.sqrt(len(diffs)) * statistics.stdev(diffs)

    def test_peak_allocation_is_bounded(self):
        # a deterministic guard on the temporaries of the ml path: one
        # 1024-bit chunk of 10,240 chips at n = 3 holds 80 KiB per float64
        # array; scoring every chip with full-size label and cost arrays
        # peaked at ~514 KiB
        params = SystemParams(samples_per_chip=3)
        spec = _ChunkSpec(params, derive_stats(params), ("ml",), 1024, 5, (0,))
        arrays = _rh_chunk_arrays(spec)
        _tally_chunk(spec, *arrays)  # warm up any cache first
        tracemalloc.start()
        try:
            _tally_chunk(spec, *arrays)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024


class TestClassicalSession:
    @staticmethod
    def replay(params, n_bits, seed, key):
        """The classical chunk redrawn with one uint8 integers call (a hopping
        bit byte per bit: b_a in bit 1, b_b in bit 0, Eve's coin in bit 2),
        then its tally."""
        rng = substream(seed, key)
        coins = rng.integers(0, 256, n_bits, dtype=np.uint8)
        a_main, b_main, eve = (coins >> 1) & 1, coins & 1, (coins >> 2) & 1
        n = params.samples_per_chip
        var = chip_moments(params, *np.ix_((0, 1), (0, 1)), 0, 0)[1]
        v_hat = var[a_main, b_main] * (2.0 * rng.standard_gamma(0.5 * n, n_bits)) / n
        kept = (v_hat >= 0.5 * (var[0, 0] + var[0, 1])) & (v_hat <= 0.5 * (var[0, 1] + var[1, 1]))
        errors = int(np.count_nonzero(kept & (a_main == b_main)))
        return protocol.DetectorTally(
            total_chips=n_bits,
            kept_chips=int(np.count_nonzero(kept)),
            sub_bit_errors=errors,
            main_bit_errors=errors,
            discarded_gate=int(np.count_nonzero(~kept)),
            discarded_g1=0,
            eve_correct=int(np.count_nonzero(kept & (eve == a_main))),
        )

    # odd chunk sizes: a byte count that is no multiple of 4 leaves part of
    # the last 32-bit word unread, and the chi-square draw must follow it
    @pytest.mark.parametrize("n_bits", [1, 7, 999])
    def test_chunk_equals_integers_replay(self, n_bits):
        params = SystemParams(m_l=0.0, chips_per_bit=1, samples_per_chip=30)
        spec = _ChunkSpec(params, None, ("classical",), n_bits, 25, (3, n_bits))
        tally = protocol._classical_chunk(spec)["classical"]
        assert tally == self.replay(params, n_bits, 25, (3, n_bits))

    def test_session_with_odd_last_chunk_equals_replay(self):
        params = SystemParams(m_l=0.0, chips_per_bit=1, samples_per_chip=30)
        got = run_classical_session(901, params, seed=26, point_key=(4,), chunk_bits=128)
        # seven chunks of 128 bits, then one of 5
        sizes = [128] * 7 + [5]
        want = functools.reduce(
            operator.add, (self.replay(params, size, 26, (4, i)) for i, size in enumerate(sizes))
        )
        assert got == {"classical": want}

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
        # 850 bits are 7 chunks, the last one short; 200 bits are 2 chunks
        session = functools.partial(
            run_classical_session, params=SystemParams(samples_per_chip=50), seed=23, chunk_bits=128
        )
        serial = [session(bits) for bits in (850, 200)]
        for jobs in (2, 3, 4):
            fanned = [merge_tallies(fan_out(functools.partial(session, bits), jobs, bits, 128)) for bits in (850, 200)]
            assert fanned == serial, jobs

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
            params, stats = params_and_stats(samples_per_chip=n)
            result = run_session(30_000, params, stats, seed=31)
            leaks[n] = result["optimum"].main_bit_errors
        assert leaks[2] > leaks[4] > leaks[20] == 0

