import numpy as np
import pytest

from rhkljn import SystemParams
from rhkljn.detectors import detect_moments, threshold_detect
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


# some random_valid_params draws have no optimum-threshold root, and
# derive_stats warns that it falls back to the midpoint
midpoint_fallback = pytest.mark.filterwarnings(
    "ignore:no optimum-threshold root inside the mean bracket:RuntimeWarning"
)


def random_valid_params(rng, **overrides):
    """Draw parameters in the operating region with positive k denominators."""
    beta = float(rng.uniform(1.05, 5.0))
    alpha = float(rng.uniform(beta * 1.05, 20.0))
    gamma_floor = max(2.0, 1.3 * beta**2 / (beta**2 - 1.0))
    gamma = float(rng.uniform(gamma_floor, 100.0))
    kwargs = dict(alpha=alpha, beta=beta, gamma=gamma)
    kwargs.update(overrides)
    return SystemParams(**kwargs)


def detector_labels(spec, m_hat, scatter):
    """Every detector's labels on a chunk tallied by ``_tally_chunk``.

    The tally builds no labels, only keep masks.  As in the trace, the
    ``ml`` labels come from ``detect_moments`` on the chunk's (m_hat, S) and
    the threshold detectors' from ``threshold_detect`` on the same ``m_hat``.
    """
    thresholds = spec.stats.thresholds()
    hyps = spec.stats.middle_hypotheses()
    return {
        name: detect_moments(m_hat, scatter, spec.params.samples_per_chip, hyps)
        if name == "ml"
        else threshold_detect(m_hat, *thresholds.pair(name))
        for name in spec.detectors
    }


def assert_parties_agree(params, n_bits, seed, detectors):
    """Tally fresh chips as Alice (a, b) and as Bob (b, a) on the same (m_hat, S).

    Both parties see only the public statistics, so every gate verdict,
    kept count and error count must be identical.  Returns the
    number of chips checked.
    """
    spec = _ChunkSpec(params, derive_stats(params), tuple(detectors), n_bits, seed, (0,))
    a_main, b_main, a_sub, b_sub, scatter, m_hat, eve = _rh_chunk_arrays(spec)
    alice = _tally_chunk(spec, a_main, b_main, a_sub, b_sub, scatter, m_hat, eve)
    bob = _tally_chunk(spec, b_main, a_main, b_sub, a_sub, scatter, m_hat, eve)
    assert np.array_equal(alice[1], bob[1])
    for name in detectors:
        ta, tb = alice[0][name], bob[0][name]
        counts = ("kept_chips", "sub_bit_errors", "main_bit_errors")
        assert [getattr(ta, c) for c in counts] == [getattr(tb, c) for c in counts], name
    return m_hat.size
