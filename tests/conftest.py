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
