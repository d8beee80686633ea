"""Exchange protocol, session engine and the passive eavesdropper.

One chip runs in three steps from either party's perspective: gate the
sample mean against th1/th2 (rejects the all-low/all-high states), detect
the middle Gaussian with the configured detector, then either discard
(g = 1, the center Gaussian) or exchange by the flip rule: the partner's
main bit and sub-bit are the negations of one's own.  Both parties see the
same samples and the same public thresholds, so their keep/discard verdicts
and detected labels are always identical.

Sessions draw i.i.d. uniform secrets, run every chip, and reduce to integer
tallies.  The session engine draws each chip as its sufficient statistics,
the sample mean m_hat and the scatter S = sum((v - m_hat)^2), instead of n
raw samples: the gate, the threshold detectors and the ML costs depend on
the samples only through these two, so the work per chip does not grow
with n.  Per chunk the draw order is mains, subs, Eve coins, m_hat, S.
Each chip's mean and variance are looked up in the 16-state table of
:func:`rhkljn.params.state_moments`, the table Eve's hypotheses come from,
and S is drawn only when the ``ml`` detector, the one detector that reads
it, runs.
Work is split into fixed-size chunks of bits, each with its own seed
substream, so results are bit-identical across worker counts.  Chunks run
serially or on an executor from :func:`worker_pool`, which a command opens
once and passes to every session of its grid.  The
classical two-resistor baseline (variance trisection on zero-mean noise,
its mean of squares drawn as a scaled chi-square, its bank the sub-bit-0
column of the hopping bank) runs on the same chunk engine for
rate-matched comparisons.  Raw samples are drawn only by
:func:`rhkljn.channel.sample_chip` and
:func:`rhkljn.channel.dump_chip_samples`, the oracles for the sampled
distributions.

The eavesdropper (:func:`eve_observe`) scores the 16 bit configurations
with the ML detector's cost, :func:`rhkljn.detectors.moment_costs`.
"""

from __future__ import annotations

import contextlib
import functools
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import detectors as det
from .params import DerivedStats, SystemParams, chip_moments, derive_stats, state_moments
from .rng import substream

DETECTOR_CHOICES = ("ml", "simple", "optimum")
DEFAULT_CHUNK_BITS = 1024


@dataclass(frozen=True)
class EveObservation:
    """The eavesdropper's read of one chip from the public statistics alone."""

    m_hat: float
    posterior_main: dict[tuple[int, int], float]
    posterior_sub: dict[tuple[int, int], float]
    guess_main: tuple[int, int]
    guess_sub: tuple[int, int]


@dataclass(frozen=True)
class ProtocolConfig:
    """Everything a party (and Eve) knows publicly: parameters and derived stats."""

    params: SystemParams
    stats: DerivedStats

    @classmethod
    def from_params(cls, params: SystemParams) -> "ProtocolConfig":
        return cls(params=params, stats=derive_stats(params))


@dataclass(frozen=True)
class DetectorTally:
    """Integer counters for one detector over a set of chips; merged by addition."""

    total_chips: int = 0
    kept_chips: int = 0
    sub_bit_errors: int = 0
    main_bit_errors: int = 0
    discarded_gate: int = 0
    discarded_g1: int = 0
    eve_correct: int = 0

    def __add__(self, other: "DetectorTally") -> "DetectorTally":
        # field by field: dataclasses.astuple deep-copies every value, which
        # cost about a tenth of a small sweep's wall time
        return DetectorTally(*(getattr(self, f.name) + getattr(other, f.name) for f in fields(self)))

    @property
    def bep(self) -> float:
        """Sub-bit error probability: errors over kept chips (0 when none kept)."""
        return self.sub_bit_errors / self.kept_chips if self.kept_chips else 0.0

    @property
    def discard_fraction(self) -> float:
        return 1.0 - self.kept_chips / self.total_chips if self.total_chips else 0.0

    @property
    def eve_correct_fraction(self) -> float:
        return self.eve_correct / self.kept_chips if self.kept_chips else 0.0


def ideal_discard_fraction() -> float:
    """Discard fraction with perfect detection: enumeration of the 16 cases.

    A chip is exchanged only when the main bits differ and the sub-bits
    differ (4 of 16 equiprobable configurations), so 3/4 are discarded.
    """
    discarded = 0
    for b_a in (0, 1):
        for b_b in (0, 1):
            for s_a in (0, 1):
                for s_b in (0, 1):
                    if not (b_a != b_b and s_a != s_b):
                        discarded += 1
    return discarded / 16.0


def eve_observe(
    samples, stats: DerivedStats, rng: np.random.Generator | None = None
) -> EveObservation:
    """Eve's posterior over the 16 bit configurations from the samples alone.

    She knows every public quantity but no secrets, so each configuration
    has prior 1/16.  The two mixed main-bit cases contain the same
    mean/variance multiset, hence their posteriors are identical and her
    hard main-bit guess on a secure chip is a fair coin (drawn from ``rng``
    when given, otherwise the lexicographically first argmax is returned).
    """
    values = np.asarray(getattr(samples, "values", samples), dtype=float)
    m_hat, scatter, n = det._moments(values)
    comps = [(pair + c.sub_bits, c) for pair, entries in stats.mixture_tables.items() for c in entries]
    costs = det.moment_costs(
        m_hat, scatter, n, [c.mean for _, c in comps], [math.sqrt(c.variance) for _, c in comps]
    )
    log_liks = {key: -cost for (key, _), cost in zip(comps, costs.tolist())}

    # relative weights exp(ll - peak); when the peak is infinite (a matching
    # point mass, or no component explains the chip) the components at the
    # peak share the weight and the rest get none
    peak = max(log_liks.values())
    if math.isinf(peak):
        weights = {k: float(ll == peak) for k, ll in log_liks.items()}
    else:
        weights = {k: math.exp(ll - peak) for k, ll in log_liks.items()}

    def marginal(index_pair) -> dict[tuple[int, int], float]:
        groups: dict[tuple[int, int], list[float]] = {}
        for key, w in weights.items():
            groups.setdefault(index_pair(key), []).append(w)
        # summing in sorted order keeps symmetric groups bit-identical
        sums = {k: math.fsum(sorted(v)) for k, v in groups.items()}
        total = math.fsum(sorted(sums.values()))
        return {k: s / total for k, s in sums.items()}

    post_main = marginal(lambda k: (k[0], k[1]))
    post_sub = marginal(lambda k: (k[2], k[3]))

    def hard_guess(post: dict[tuple[int, int], float]) -> tuple[int, int]:
        best = max(post.values())
        top = sorted(k for k, v in post.items() if v == best)
        if len(top) > 1 and rng is not None:
            return top[int(rng.integers(0, len(top)))]
        return top[0]

    return EveObservation(
        m_hat=float(m_hat),
        posterior_main=post_main,
        posterior_sub=post_sub,
        guess_main=hard_guess(post_main),
        guess_sub=hard_guess(post_sub),
    )


# ----------------------------------------------------------------------
# Vectorized session engine
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _ChunkSpec:
    params: SystemParams
    stats: DerivedStats | None  # None for the classical baseline, which reads none
    detectors: tuple[str, ...]
    n_bits: int
    master_seed: int
    key: tuple[int, ...]


def _rh_chunk_arrays(spec: _ChunkSpec):
    """Draw one chunk of bits and return the per-chip arrays.

    A chip is drawn as its sufficient statistics, not as raw samples: given
    the chip state, the n samples are i.i.d. N(mu, sigma^2), so their mean
    is m_hat ~ N(mu, sigma^2/n) and, independently, their scatter
    S = sum((v - m_hat)^2) ~ sigma^2 * chi^2(n - 1), drawn as
    sigma^2 * 2 * Gamma((n - 1)/2) (identically zero at n = 1).  Every
    detector sees a chip only through (m_hat, S), and only ``ml`` reads S:
    without it S is not drawn and ``None`` stands in its place.  (mu,
    sigma^2) come from the 16-state :func:`rhkljn.params.state_moments`
    table, looked up by each chip's flat state index.

    Draw order is fixed (mains, subs, Eve coins, m_hat, S) so the stream is
    a pure function of the chunk key; the coins come before any channel
    noise, so they do not depend on n, and S comes last, so skipping it
    moves no other draw.
    """
    p = spec.params
    n_bits, chips, n = spec.n_bits, p.chips_per_bit, p.samples_per_chip
    rng = substream(spec.master_seed, spec.key)

    a_main = rng.integers(0, 2, n_bits)
    b_main = rng.integers(0, 2, n_bits)
    a_sub = rng.integers(0, 2, (n_bits, chips))
    b_sub = rng.integers(0, 2, (n_bits, chips))
    eve_guess_a = rng.integers(0, 2, (n_bits, chips))

    mu, var = state_moments(p)
    state = (8 * a_main + 4 * b_main)[:, None] + (2 * a_sub + b_sub)
    m_hat = mu[state] + np.sqrt(var / n)[state] * rng.standard_normal((n_bits, chips))
    scatter = None
    if "ml" in spec.detectors:
        scatter = var[state] * (2.0 * rng.standard_gamma(0.5 * (n - 1), (n_bits, chips)))
    return a_main, b_main, a_sub, b_sub, scatter, m_hat, eve_guess_a


def _rh_chunk(spec: _ChunkSpec) -> dict[str, DetectorTally]:
    return _tally_chunk(spec, *_rh_chunk_arrays(spec))[0]


def _tally_chunk(spec, a_main, b_main, a_sub, b_sub, scatter, m_hat, eve_guess_a):
    stats = spec.stats
    thresholds = stats.thresholds()
    gate_keep = det.gate(m_hat, thresholds)
    subs_equal = a_sub == b_sub

    tallies: dict[str, DetectorTally] = {}
    labels: dict[str, np.ndarray] = {}
    for name in spec.detectors:
        if name == "ml":
            g = det.detect_moments(
                m_hat, scatter, spec.params.samples_per_chip, stats.middle_hypotheses()
            )
        else:
            g = det.threshold_detect(m_hat, *thresholds.pair(name))
        labels[name] = g

        kept = gate_keep & (g != 1)
        sub_err = kept & subs_equal
        tallies[name] = DetectorTally(
            total_chips=int(kept.size),
            kept_chips=int(np.count_nonzero(kept)),
            sub_bit_errors=int(np.count_nonzero(sub_err)),
            main_bit_errors=int(np.count_nonzero(kept.any(axis=1) & (a_main == b_main))),
            discarded_gate=int(np.count_nonzero(~gate_keep)),
            discarded_g1=int(np.count_nonzero(gate_keep & (g == 1))),
            eve_correct=int(np.count_nonzero(kept & (eve_guess_a == a_main[:, None]))),
        )
    return tallies, labels, gate_keep


def _chunk_sizes(num_bits: int, chunk_bits: int) -> list[int]:
    full, rest = divmod(num_bits, chunk_bits)
    return [chunk_bits] * full + ([rest] if rest else [])


@contextlib.contextmanager
def worker_pool(jobs: int):
    """The executor every session inside the block runs its chunks on.

    Yields ``None`` for ``jobs == 1``, building no executor, so sessions
    run serially; otherwise one ``ProcessPoolExecutor`` of ``jobs``
    workers, shut down when the block ends.  A grid opens one pool and
    passes it to each of its sessions, so workers start once per command
    rather than once per session.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        yield None
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield pool


def _run_chunks(chunk, spec: _ChunkSpec, num_bits: int, chunk_bits: int, pool):
    """Run ``chunk`` over ``num_bits`` bits in chunks and merge the tallies.

    ``spec`` is the session's template: chunk ``i`` gets its own size as
    ``n_bits`` and ``spec.key + (i,)`` as its substream key, so the merged
    tallies are the same whether the chunks run serially or on ``pool``.
    """
    if num_bits < 1:
        raise ValueError(f"num_bits must be >= 1, got {num_bits}")
    if chunk_bits < 1:
        raise ValueError(f"chunk_bits must be >= 1, got {chunk_bits}")
    specs = [
        replace(spec, n_bits=size, key=spec.key + (idx,))
        for idx, size in enumerate(_chunk_sizes(num_bits, chunk_bits))
    ]
    if pool is not None and len(specs) > 1:
        parts = list(pool.map(chunk, specs, chunksize=4))
    else:
        parts = [chunk(s) for s in specs]

    merged: dict[str, DetectorTally] = {}
    for part in parts:
        for name, tally in part.items():
            merged[name] = merged[name] + tally if name in merged else tally
    return merged


def run_session(
    num_bits: int,
    cfg: ProtocolConfig,
    seed: int,
    detectors: tuple[str, ...] = ("optimum",),
    pool=None,
    point_key: tuple[int, ...] = (),
    trace=None,
    chunk_bits: int = DEFAULT_CHUNK_BITS,
) -> dict[str, DetectorTally]:
    """Run ``num_bits`` main bits of the protocol; returns one tally per detector.

    Secrets are i.i.d. uniform.  Every detector in ``detectors`` is
    evaluated on the same sampled chips, so detector comparisons share one
    noise realization; the tallies come back in the requested order.
    Chunks run on ``pool`` (from :func:`worker_pool`; ``None`` runs them
    serially), and the result is bit-identical for a fixed
    ``seed``/``point_key`` either way.  ``trace`` (a writable text file)
    logs one line per chip and runs serially, ignoring ``pool``.
    """
    names = tuple(detectors)
    if not names:
        raise ValueError("detectors must be non-empty")
    for name in names:
        if name not in DETECTOR_CHOICES:
            raise ValueError(f"detector must be one of {DETECTOR_CHOICES}, got {name!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"detectors must not repeat, got {','.join(names)}")
    spec = _ChunkSpec(cfg.params, cfg.stats, names, num_bits, seed, point_key)
    if trace is None:
        return _run_chunks(_rh_chunk, spec, num_bits, chunk_bits, pool)
    # one trace file, written in bit order: never more than one worker
    traced = functools.partial(_traced_chunk, trace=trace, chunk_bits=chunk_bits)
    return _run_chunks(traced, spec, num_bits, chunk_bits, None)


def _traced_chunk(spec: _ChunkSpec, trace, chunk_bits: int) -> dict[str, DetectorTally]:
    arrays = _rh_chunk_arrays(spec)
    a_main, b_main, a_sub, b_sub, _, m_hat, _ = arrays
    tallies, labels, gate_keep = _tally_chunk(spec, *arrays)
    base_bit = spec.key[-1] * chunk_bits
    for i in range(spec.n_bits):
        for c in range(spec.params.chips_per_bit):
            verdicts = []
            for name in spec.detectors:
                g = int(labels[name][i, c])
                if not gate_keep[i, c]:
                    verdicts.append(f"{name}:-:discarded_gate")
                elif g == 1:
                    verdicts.append(f"{name}:1:discarded_g1")
                else:
                    verdicts.append(f"{name}:{g}:exchanged")
            trace.write(
                f"bit={base_bit + i} chip={c + 1} "
                f"b_a={a_main[i]} b_b={b_main[i]} s_a={a_sub[i, c]} s_b={b_sub[i, c]} "
                f"m_hat={m_hat[i, c]:.9g} {' '.join(verdicts)}\n"
            )
    return tallies


# ----------------------------------------------------------------------
# Classical baseline
# ----------------------------------------------------------------------


def _classical_chunk(spec: _ChunkSpec) -> dict[str, DetectorTally]:
    p = spec.params
    rng = substream(spec.master_seed, spec.key)
    a_main = rng.integers(0, 2, spec.n_bits)
    b_main = rng.integers(0, 2, spec.n_bits)

    # the classical bank is the sub-bit-0 column of the hopping bank
    var = chip_moments(p, *np.ix_((0, 1), (0, 1)), 0, 0)[1]  # indexed [b_a, b_b]
    var_00, var_01, var_11 = var[0, 0], var[0, 1], var[1, 1]
    var_true = var[a_main, b_main]

    # the mean of squares of n zero-mean normals is var * chi^2(n) / n
    eve_guess_a = rng.integers(0, 2, spec.n_bits)
    n = p.samples_per_chip
    v_hat = var_true * (2.0 * rng.standard_gamma(0.5 * n, spec.n_bits)) / n

    th_lo = 0.5 * (var_00 + var_01)
    th_hi = 0.5 * (var_01 + var_11)
    kept = (v_hat >= th_lo) & (v_hat <= th_hi)
    errors = kept & (a_main == b_main)

    tally = DetectorTally(
        total_chips=spec.n_bits,
        kept_chips=int(np.count_nonzero(kept)),
        sub_bit_errors=int(np.count_nonzero(errors)),
        main_bit_errors=int(np.count_nonzero(errors)),
        discarded_gate=int(np.count_nonzero(~kept)),
        discarded_g1=0,
        eve_correct=int(np.count_nonzero(kept & (eve_guess_a == a_main))),
    )
    return {"classical": tally}


def run_classical_session(
    num_bits: int,
    params: SystemParams,
    seed: int,
    pool=None,
    point_key: tuple[int, ...] = (),
    chunk_bits: int = DEFAULT_CHUNK_BITS,
) -> dict[str, DetectorTally]:
    """Classical two-resistor baseline with variance trisection.

    Per bit: estimate the common-voltage variance from
    ``params.samples_per_chip`` zero-mean samples (mean of squares), pick
    the nearest of the three case variances via midpoint thresholds,
    discard detections of the equal-bit cases, and infer the partner bit by
    the flip rule otherwise.  The decision unit is the bit, so
    ``total_chips`` counts bits here; the result holds one tally, under
    ``"classical"``.  Chunks run on ``pool`` as in :func:`run_session`.
    """
    spec = _ChunkSpec(params, None, ("classical",), num_bits, seed, point_key)
    return _run_chunks(_classical_chunk, spec, num_bits, chunk_bits, pool)
