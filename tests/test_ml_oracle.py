"""The engine's ``ml`` rows against an independent raw-sample Monte Carlo.

``bench/oracle.py`` has no closed form for ML rows: their labels read the
scatter S as well as the sample mean.  Here a reference Monte Carlo draws
raw samples with :func:`rhkljn.channel.sample_chip`, one call per chip
state for many chips at once, and labels them with
:func:`rhkljn.detectors.ml_detect_batch`, which reduces the samples to
(m_hat, S) itself.  It shares none of the engine's draw: not its
sufficient statistics, its state table, its coins or its keep masks, only
the public gate and hypotheses.  For each of the 16 equiprobable states it
estimates the chance that a chip is kept and that it is a kept error
(equal sub-bits); the engine's kept and error counts must lie within
binomial bounds of the expected counts at every seed.
"""

import math

import numpy as np
import pytest

from rhkljn import SystemParams, run_session
from rhkljn.channel import ChipState, sample_chip
from rhkljn.config import apply_scenario
from rhkljn.detectors import ml_detect_batch
from rhkljn.params import derive_stats

SEEDS = (301, 302, 303, 304, 305)
BITS = 20_000
REFERENCE_CHIPS = 200_000  # per state
Z_MAX = 4.0


def _reference(params, stats, seed):
    """Per state (flat index 8*b_a + 4*b_b + 2*s_a + s_b): the fractions of
    raw-sample chips that ML keeps and that are kept errors."""
    rng = np.random.default_rng(seed)
    n = params.samples_per_chip
    kept, errors = np.empty(16), np.empty(16)
    for index in range(16):
        state = ChipState(*((index >> k) & 1 for k in (3, 2, 1, 0)))
        # one call draws every chip's samples, all i.i.d. given the state
        values = sample_chip(state, n * REFERENCE_CHIPS, rng, params).reshape(REFERENCE_CHIPS, n)
        keep = stats.thresholds().gate(values.mean(axis=-1))
        keep &= ml_detect_batch(values, stats.middle_hypotheses()) != 1
        kept[index] = keep.mean()
        errors[index] = kept[index] if state.s_a == state.s_b else 0.0
    return kept, errors


def _bounds(p_state, bits, chips):
    """Expected count over ``bits`` bits and its standard deviation: the
    engine's own spread, per bit since a bit's chips share its mains, plus
    the reference's."""
    per_main = p_state.reshape(4, 4).mean(axis=1)  # the mains' four pairs, each over its sub-bit pairs
    within = np.mean(chips * per_main * (1.0 - per_main))
    between = np.var(chips * per_main)
    reference = (bits * chips / 16) ** 2 * np.sum(p_state * (1.0 - p_state)) / REFERENCE_CHIPS
    return bits * chips * p_state.mean(), math.sqrt(bits * (within + between) + reference)


@pytest.fixture(scope="module", params=[1, 3], ids=["n1", "n3"])
def point(request):
    params = apply_scenario(SystemParams(samples_per_chip=request.param), "good")
    stats = derive_stats(params)
    return params, stats, _reference(params, stats, seed=request.param)


@pytest.mark.parametrize("seed", SEEDS)
def test_ml_counts_match_raw_samples(point, seed):
    params, stats, (p_kept, p_error) = point
    tally = run_session(BITS, params, stats, seed=seed, detectors=("ml",))["ml"]
    chips = params.chips_per_bit
    for name, observed, p_state in (("kept", tally.kept_chips, p_kept), ("errors", tally.sub_bit_errors, p_error)):
        expected, sd = _bounds(p_state, BITS, chips)
        assert abs(observed - expected) <= Z_MAX * sd + 1.0, (name, observed, expected, sd)
    # the reference is not vacuous: ML errs at either sample count
    assert p_error.sum() > 0
