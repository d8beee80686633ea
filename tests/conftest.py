import math

import numpy as np
import pytest

from rhkljn import SystemParams
from rhkljn.params import derive_stats
from rhkljn.protocol import _ChunkSpec, _rh_chunk_arrays, _tally_chunk


@pytest.fixture(scope="session")
def default_params():
    return SystemParams()


@pytest.fixture(scope="session")
def default_stats(default_params):
    return derive_stats(default_params)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)


def random_valid_params(rng, **overrides):
    """Draw parameters in the operating region with positive k denominators."""
    beta = float(rng.uniform(1.05, 5.0))
    alpha = float(rng.uniform(beta * 1.05, 20.0))
    gamma_floor = max(2.0, 1.3 * beta**2 / (beta**2 - 1.0))
    gamma = float(rng.uniform(gamma_floor, 100.0))
    kwargs = dict(alpha=alpha, beta=beta, gamma=gamma)
    kwargs.update(overrides)
    return SystemParams(**kwargs)


def party_bits(state):
    """``(a_main, b_main, a_sub, b_sub)`` of a chunk's flat state indices
    8*b_a + 4*b_b + 2*s_a + s_b: the mains per bit, the sub-bits per chip."""
    return state[:, 0] >> 3, (state[:, 0] >> 2) & 1, (state >> 1) & 1, state & 1


def scatter_everywhere(rng, spec, state, scatter, scored):
    """S at every chip of a chunk: the engine's ``scatter`` at the flat
    indices ``scored``, the shells of ML's center band, and a
    sigma^2*chi^2(n - 1) draw from ``rng`` at the others, where ML keeps a
    chip whatever its S (outside the band) or discards it at every S but
    with probability 2^-100 (in the band's core)."""
    full = 2.0 * rng.standard_gamma(0.5 * (spec.params.samples_per_chip - 1), state.shape) * spec.table[2][state]
    full.put(scored, scatter)
    return full


def swap_parties(state):
    """Bob's view of flat state indices: the party bits of each pair swapped."""
    return ((state & 0b1010) >> 1) | ((state & 0b0101) << 1)


def assert_parties_agree(params, n_bits, seed, detectors):
    """Tally fresh chips as Alice and as Bob, whose state has the party
    bits swapped, on the same (m_hat, S).

    Both parties see only the public statistics, so every count but Eve's
    (she guesses Alice's main bit) must be identical: the discards at the
    gate and at g = 1, the kept chips and the errors.  Returns the number
    of chips checked.
    """
    spec = _ChunkSpec(params, derive_stats(params), tuple(detectors), n_bits, seed, (0,))
    state, eve, m_hat, gate_keep, scatter, gated = _rh_chunk_arrays(spec)
    alice = _tally_chunk(spec, state, eve, m_hat, gate_keep, scatter, gated)[0]
    bob = _tally_chunk(spec, swap_parties(state), eve, m_hat, gate_keep, scatter, gated)[0]
    counts = ("total_chips", "discarded_gate", "discarded_g1", "kept_chips", "sub_bit_errors", "main_bit_errors")
    for name in detectors:
        assert [getattr(alice[name], c) for c in counts] == [getattr(bob[name], c) for c in counts], name
    return m_hat.size


def count_moments(p_by_main, units, bits):
    """Mean and variance of a count over ``bits`` bits of ``units`` units
    each, given the per-unit probability under each of the equally likely
    main-bit pairs.

    Given its main pair, a bit's count is binomial; the spread of the pair
    means adds the between-main term, which makes a kept-chip count about
    five times as wide as a binomial one.
    """
    p = np.asarray(p_by_main, dtype=float)
    means = units * p
    within = float(np.mean(means * (1.0 - p)))
    return bits * float(np.mean(means)), bits * (within + float(np.var(means)))


def assert_pooled(observed, mean, var):
    """Counts observed at several seeds against their expected mean and
    variance (scalars, or one per seed); returns the pooled z.

    The pooled z, sum(observed - mean) / sqrt(sum(var)), must be within 4,
    and the sample variance of the per-seed z's must lie inside the 99.9 %
    band of chi2(k - 1) / (k - 1), its law for k independent standard
    normals, so a variance off by a factor fails too.  Unlike a check
    that every seed's interval holds, which fails 1 - 0.95^k of the time
    for a correct engine, neither depends on a lucky seed.
    """
    from scipy.stats import chi2

    observed = np.asarray(observed, dtype=float)
    k = observed.size
    mean, var = np.broadcast_to(mean, (k,)), np.broadcast_to(var, (k,))
    pooled = float(np.sum(observed - mean) / math.sqrt(np.sum(var)))
    assert abs(pooled) <= 4.0, (pooled, observed.tolist(), mean.tolist())
    spread = float(np.var((observed - mean) / np.sqrt(var), ddof=1))
    lo, hi = chi2.ppf([0.0005, 0.9995], k - 1) / (k - 1)
    assert lo <= spread <= hi, (spread, (lo, hi), observed.tolist(), mean.tolist())
    return pooled
