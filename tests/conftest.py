import numpy as np
import pytest

from rhkljn import SystemParams, derive_stats
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


def assert_parties_agree(params, n_bits, seed, detectors):
    """Tally fresh chips as Alice (a, b) and as Bob (b, a) on the same (m_hat, S).

    Both parties see only the public statistics, so every label, gate
    verdict, kept count and error count must be identical.  Returns the
    number of chips checked.
    """
    spec = _ChunkSpec(params, derive_stats(params), tuple(detectors), n_bits, seed, (0,))
    a_main, b_main, a_sub, b_sub, scatter, m_hat, eve = _rh_chunk_arrays(spec)
    alice = _tally_chunk(spec, a_main, b_main, a_sub, b_sub, scatter, m_hat, eve)
    bob = _tally_chunk(spec, b_main, a_main, b_sub, a_sub, scatter, m_hat, eve)
    assert np.array_equal(alice[2], bob[2])
    for name in detectors:
        assert np.array_equal(alice[1][name], bob[1][name]), name
        ta, tb = alice[0][name], bob[0][name]
        counts = ("kept_chips", "sub_bit_errors", "main_bit_errors")
        assert [getattr(ta, c) for c in counts] == [getattr(tb, c) for c in counts], name
    return m_hat.size
