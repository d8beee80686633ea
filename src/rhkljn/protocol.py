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
The coins (the secret bits and Eve's guesses) are the top bits of the
32-bit halves of raw PCG64 words (:func:`_coins`): the stream
``Generator.integers(0, 2)`` draws, without its int64 arrays.
Each chip's mean and variance are looked up in the 16-state table of
:func:`rhkljn.params.state_moments`, the table Eve's hypotheses come from,
and S is drawn only when the ``ml`` detector, the one detector that reads
it, runs.  Every detector is tallied from a keep mask, ``ml`` scored only
on the chips the gate keeps; labels are built only for the trace.
Work is split into fixed-size chunks of bits, each with its own seed
substream, so results are bit-identical across worker counts.  A session
runs the chunks of one share (k, n), chunks k, k + n, ..., serially in the
calling process, all of them by default, and knows nothing of processes.
:func:`fan_out` runs the n shares of a function of a share at once: share
0 in the calling process and the others as one task each on a
:func:`worker_pool` of n - 1 worker processes, forked for that one call.
A command fans out once, over every session of its grid, and adds up each
session's shares with :func:`merge_tallies`.
The classical two-resistor baseline (variance trisection on zero-mean
noise, its mean of squares drawn as a scaled chi-square, its bank the
sub-bit-0 column of the hopping bank) runs on the same chunk engine for
rate-matched comparisons.  Raw samples are drawn only by
:func:`rhkljn.channel.sample_chip`, the oracle for the sampled
distributions.

The eavesdropper (:func:`eve_observe`) scores the 16 bit configurations
with the ML detector's cost, :func:`rhkljn.detectors.moment_costs`.
"""

from __future__ import annotations

import contextlib
import functools
import math
import sys
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from . import detectors as det
from .params import DerivedStats, SystemParams, derive_stats, state_moments
from .rng import substream

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

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
    m_hat, scatter, n = det._moments(samples)
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


@functools.lru_cache(maxsize=64)
def _draw_table(params: SystemParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu, sqrt(var / n), var) of the 16 chip states, built once per process and params.

    The arrays are shared by every chunk drawn at ``params``, so they are
    read-only.
    """
    mu, var = state_moments(params)
    table = (mu, np.sqrt(var / params.samples_per_chip), var)
    for column in table:
        column.flags.writeable = False
    return table


def _coins(rng: np.random.Generator, count: int) -> np.ndarray:
    """The ``count`` coins ``rng.integers(0, 2, count)`` draws, as ``uint8``.

    At range 2 NumPy's bounded-integer draw (Lemire's method, which never
    rejects there) returns the top bit of the next 32-bit half of a raw
    PCG64 word, low half first; so the coins are read from
    ``random_raw((count + 1) // 2)`` directly, as the same stream.  An odd
    count leaves the high half of the last word unread, as ``integers``
    does, and no later draw of a chunk reads it.
    """
    words = rng.bit_generator.random_raw((count + 1) // 2)
    halves = words.astype("<u8", copy=False).view("<u4")[:count]
    coins = np.empty(count, np.uint8)
    np.right_shift(halves, 31, out=coins, casting="unsafe")
    return coins


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
    table, looked up by each chip's flat state index in the cached
    :func:`_draw_table`.

    Draw order is fixed (mains, subs, Eve coins, m_hat, S) so the stream is
    a pure function of the chunk key; the coins come before any channel
    noise, so they do not depend on n, and S comes last, so skipping it
    moves no other draw.  All the coins come from one :func:`_coins` call,
    read from raw PCG64 words: the stream ``integers(0, 2)`` draws, as
    ``uint8``.
    """
    p = spec.params
    n_bits, chips, n = spec.n_bits, p.chips_per_bit, p.samples_per_chip
    rng = substream(spec.master_seed, spec.key)

    coins = _coins(rng, n_bits * (2 + 3 * chips))
    a_main, b_main = coins[: 2 * n_bits].reshape(2, n_bits)
    a_sub, b_sub, eve_guess_a = coins[2 * n_bits :].reshape(3, n_bits, chips)

    mu, sd, var = _draw_table(p)
    state = (8 * a_main + 4 * b_main)[:, None] + (2 * a_sub + b_sub)
    # mu + sd * z and var * (2 * gamma), in place; take is the cheaper gather
    m_hat = sd.take(state)
    m_hat *= rng.standard_normal((n_bits, chips))
    m_hat += mu.take(state)
    scatter = None
    if "ml" in spec.detectors:
        scatter = 2.0 * rng.standard_gamma(0.5 * (n - 1), (n_bits, chips))
        scatter *= var.take(state)
    return a_main, b_main, a_sub, b_sub, scatter, m_hat, eve_guess_a


def _rh_chunk(spec: _ChunkSpec) -> dict[str, DetectorTally]:
    return _tally_chunk(spec, *_rh_chunk_arrays(spec))[0]


def _tally_chunk(spec, a_main, b_main, a_sub, b_sub, scatter, m_hat, eve_guess_a):
    """One tally per detector, and the gate.

    A detector keeps a gated chip unless it labels it g = 1; the tally
    reads that mask (:func:`rhkljn.detectors.threshold_keep`, or
    :func:`rhkljn.detectors.ml_keep` on the gated chips alone) and builds
    no label array, so the trace, which shows the labels, gets them from
    :func:`rhkljn.detectors.threshold_detect` and
    :func:`rhkljn.detectors.detect_moments`.
    """
    stats = spec.stats
    thresholds = stats.thresholds()
    gate_keep = det.gate(m_hat, thresholds)
    # what every detector's tally shares, computed once per chunk
    gate_kept = int(np.count_nonzero(gate_keep))
    subs_equal = a_sub == b_sub
    mains_equal = a_main == b_main
    eve_right = eve_guess_a == a_main[:, None]
    # a boolean matmul with ones is the row-wise any, a few times faster
    chips_any = np.ones(a_sub.shape[1], dtype=bool)

    tallies: dict[str, DetectorTally] = {}
    for name in spec.detectors:
        if name == "ml":
            kept = gate_keep.copy()
            kept[gate_keep] = det.ml_keep(
                m_hat[gate_keep],
                scatter[gate_keep],
                spec.params.samples_per_chip,
                stats.middle_hypotheses(),
            )
        else:
            kept = gate_keep & det.threshold_keep(m_hat, *thresholds.pair(name))

        kept_chips = int(np.count_nonzero(kept))
        tallies[name] = DetectorTally(
            total_chips=int(kept.size),
            kept_chips=kept_chips,
            sub_bit_errors=int(np.count_nonzero(kept & subs_equal)),
            main_bit_errors=int(np.count_nonzero((kept @ chips_any) & mains_equal)),
            discarded_gate=int(kept.size) - gate_kept,
            discarded_g1=gate_kept - kept_chips,
            eve_correct=int(np.count_nonzero(kept & eve_right)),
        )
    return tallies, gate_keep


def _chunk_sizes(num_bits: int, chunk_bits: int) -> list[int]:
    if num_bits < 1:
        raise ValueError(f"num_bits must be >= 1, got {num_bits}")
    if chunk_bits < 1:
        raise ValueError(f"chunk_bits must be >= 1, got {chunk_bits}")
    full, rest = divmod(num_bits, chunk_bits)
    return [chunk_bits] * full + ([rest] if rest else [])


def __getattr__(name: str):
    """``protocol.ProcessPoolExecutor``, imported on first use (PEP 562).

    The executor and the multiprocessing stack it loads serve only a
    :func:`fan_out` of more than one share, so a serial command never
    imports them.  The class is kept as a module attribute once loaded,
    where a patch can replace it.
    """
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _Pool(NamedTuple):
    """What :func:`worker_pool` yields: the executor and the number of shares it serves."""

    executor: ProcessPoolExecutor
    shares: int


@contextlib.contextmanager
def worker_pool(jobs: int):
    """The executor of a :func:`fan_out` of ``jobs`` shares, shut down when the block ends.

    Yields ``None`` for ``jobs == 1``, building no executor.  Otherwise it
    yields a ``ProcessPoolExecutor`` of ``jobs - 1`` workers, looked up at
    call time as ``protocol.ProcessPoolExecutor``, for the shares the
    calling process does not run.  If the block ends by an exception,
    tasks not yet started are cancelled rather than run.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        yield None
        return
    # looked up through the module at call time, so that a patched class applies
    executor = sys.modules[__name__].ProcessPoolExecutor(max_workers=jobs - 1)
    failed = True
    try:
        yield _Pool(executor, jobs)
        failed = False
    finally:
        executor.shutdown(wait=True, cancel_futures=failed)


def fan_out(run_share, jobs: int, num_bits: int, chunk_bits: int = DEFAULT_CHUNK_BITS) -> list:
    """``run_share(share=(k, n))`` for k = 0 ... n - 1, the results in share order.

    ``run_share`` runs share ``(k, n)`` of sessions of ``num_bits`` bits in
    chunks of ``chunk_bits`` (``run_session``'s ``share``), and
    n = min(``jobs``, chunks per session).  Share 0 runs in the calling
    process and shares 1 ... n - 1 on the n - 1 workers of a
    :func:`worker_pool`, one task each, submitted before the caller starts
    its own share: with the fork start method the first task forks every
    worker, on the calling thread, before the executor starts its manager
    thread.  One share builds no executor.
    """
    with worker_pool(min(jobs, len(_chunk_sizes(num_bits, chunk_bits)))) as pool:
        if pool is None:
            return [run_share(share=(0, 1))]
        futures = [pool.executor.submit(run_share, share=(k, pool.shares)) for k in range(1, pool.shares)]
        return [run_share(share=(0, pool.shares))] + [future.result() for future in futures]


def merge_tallies(parts) -> dict[str, DetectorTally]:
    """The tallies of a session's shares, added detector by detector."""
    first, *rest = parts
    merged = dict(first)
    for part in rest:
        for name, tally in part.items():
            merged[name] += tally
    return merged


def _run_chunks(chunk, spec: _ChunkSpec, num_bits: int, chunk_bits: int, share) -> dict[str, DetectorTally]:
    """Run ``chunk`` over chunks k, k + n, ... of ``num_bits`` bits, for
    ``share`` = (k, n), and add up the tallies.

    ``spec`` is the session's template: chunk ``i`` gets its own size as
    ``n_bits`` and ``spec.key + (i,)`` as its substream key.  Tallies are
    integer sums, so the n shares of a session add up to the session run
    as one share, ``(0, 1)``.
    """
    k, n = share
    if not 0 <= k < n:
        raise ValueError(f"share must be (k, n) with 0 <= k < n, got {share}")
    merged = dict.fromkeys(spec.detectors, DetectorTally())
    for idx, size in list(enumerate(_chunk_sizes(num_bits, chunk_bits)))[k::n]:
        for name, tally in chunk(replace(spec, n_bits=size, key=spec.key + (idx,))).items():
            merged[name] += tally
    return merged


def run_session(
    num_bits: int,
    cfg: ProtocolConfig,
    seed: int,
    detectors: tuple[str, ...] = ("optimum",),
    share: tuple[int, int] = (0, 1),
    point_key: tuple[int, ...] = (),
    trace=None,
    chunk_bits: int = DEFAULT_CHUNK_BITS,
) -> dict[str, DetectorTally]:
    """Run ``num_bits`` main bits of the protocol; returns one tally per detector.

    Secrets are i.i.d. uniform.  Every detector in ``detectors`` is
    evaluated on the same sampled chips, so detector comparisons share one
    noise realization; the tallies come back in the requested order.
    The chunks of ``share`` = (k, n), chunks k, k + n, ..., run serially in
    the calling process; the n shares add up (:func:`merge_tallies`) to the
    whole session, bit-identical for a fixed ``seed``/``point_key``, and
    :func:`fan_out` runs them on worker processes.  ``trace`` (a writable
    text file) logs one line per chip of the share, in bit order.
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
        return _run_chunks(_rh_chunk, spec, num_bits, chunk_bits, share)
    traced = functools.partial(_traced_chunk, trace=trace, chunk_bits=chunk_bits)
    return _run_chunks(traced, spec, num_bits, chunk_bits, share)


def _traced_chunk(spec: _ChunkSpec, trace, chunk_bits: int) -> dict[str, DetectorTally]:
    arrays = _rh_chunk_arrays(spec)
    a_main, b_main, a_sub, b_sub, scatter, m_hat, _ = arrays
    tallies, gate_keep = _tally_chunk(spec, *arrays)
    thresholds = spec.stats.thresholds()
    labels = {}
    for name in spec.detectors:
        if name == "ml":
            hyps = spec.stats.middle_hypotheses()
            labels[name] = det.detect_moments(m_hat, scatter, spec.params.samples_per_chip, hyps)
        else:
            labels[name] = det.threshold_detect(m_hat, *thresholds.pair(name))
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
    # one call draws the coins of three back-to-back integers(0, 2, n_bits)
    # calls, the buffered 32-bit half of an odd n_bits included
    a_main, b_main, eve_guess_a = _coins(rng, 3 * spec.n_bits).reshape(3, spec.n_bits)

    # the classical bank is the sub-bit-0 column of the hopping bank
    var = _draw_table(p)[2][::4].reshape(2, 2)  # states (b_a, b_b, 0, 0), indexed [b_a, b_b]
    var_00, var_01, var_11 = var[0, 0], var[0, 1], var[1, 1]
    var_true = var[a_main, b_main]

    # the mean of squares of n zero-mean normals is var * chi^2(n) / n
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
    share: tuple[int, int] = (0, 1),
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
    ``"classical"``.  ``share`` picks chunks as in :func:`run_session`.
    """
    spec = _ChunkSpec(params, None, ("classical",), num_bits, seed, point_key)
    return _run_chunks(_classical_chunk, spec, num_bits, chunk_bits, share)
