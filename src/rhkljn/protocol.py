"""Exchange protocol, session engine and the passive eavesdropper.

One chip runs in three steps from either party's perspective: gate the
sample mean against th1/th2 (rejects the all-low/all-high states), detect
the middle Gaussian with the configured detector (the threshold rule is
:class:`rhkljn.detectors.ThresholdSet`), then either discard (g = 1, the
center Gaussian) or exchange by the flip rule: the partner's main bit and
sub-bit are the negations of one's own.  Both parties see the same samples
and the same public thresholds, so their keep/discard verdicts are
always identical.

Sessions draw i.i.d. uniform secrets, run every chip, and reduce to integer
tallies.  The session engine draws each chip as its sufficient statistics,
the sample mean m_hat and the scatter S = sum((v - m_hat)^2), instead of n
raw samples: the gate, the threshold detectors and the ML costs depend on
the samples only through these two, so the work per chip does not grow
with n.  Per chunk the draw order is: the coin bytes, read from the bit
generator's raw words (the bytes of ``rng.bytes`` on PCG64), one byte per
bit, whose low two bits are the mains (b_a, b_b), and one byte per chip,
whose low two bits are the sub-bits (s_a, s_b) and whose bit 2 is Eve's
coin; then m_hat; then, after the gate, S for the gate-kept chips in the
two shells of ML's center band (:func:`rhkljn.detectors.ml_center_band`),
outside which ML keeps a chip whatever its S, around its core
(:func:`rhkljn.detectors.ml_core`), inside which ML discards a chip at
every S but with probability at most 2^-100 (:func:`_rh_chunk_arrays`).
Each chip's state is the flat index 8*b_a + 4*b_b + 2*s_a + s_b of the
16-state table of :func:`rhkljn.params.state_moments`, stored once in the
session's ``DerivedStats`` (``state_means``, ``state_variances``), the
table Eve's hypotheses come from; its mean and variance are looked up
there, and the tally reads the parties' bits from it with bit tests.  S
is drawn only when the ``ml`` detector, the one detector that reads it,
runs, and only on the chips whose verdict it can change but with
probability 2^-100.  Every detector is tallied from a keep mask, and the
trace prints those masks; only ML builds labels, on those chips alone.
The stream is engine version :data:`ENGINE_VERSION`.
Work is split into fixed-size chunks of bits, each with its own seed
substream, so results are bit-identical across worker counts.  A session
builds its chunk plan (:class:`_ChunkSpec`: the state table, thresholds
and hypotheses) once, and each chunk runs on a copy of it.  A session
runs the chunks of one share (k, n), chunks k, k + n, ..., serially in the
calling process, all of them by default, and knows nothing of processes.
:func:`fan_out` runs the n shares of a function of a share at once: share
0 in the calling process and the others as one task each on an executor
of n - 1 worker processes, forked for that one call.
A command fans out once, over every session of its grid, and adds up each
session's shares with :func:`merge_tallies`.
The classical two-resistor baseline (variance trisection on zero-mean
noise, its mean of squares drawn as a scaled chi-square, its bank the
sub-bit-0 column of the hopping bank, one hopping bit byte per bit for
its coins) runs on the same chunk engine and
the same flip-rule counter for rate-matched comparisons.  Raw samples
are drawn only by :func:`rhkljn.channel.sample_chip`, the oracle for the
sampled distributions.

The eavesdropper (:func:`eve_observe`) scores the 16 bit configurations
with the ML detector's cost, :func:`rhkljn.detectors.moment_costs`, in
flat-state order; her main-bit and sub-bit posteriors are the row and
column sums of the resulting (4, 4) weight table.  :func:`check_names`
is the one check of a list of detector or scenario names.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import detectors as det
# derive_stats is not called here: the name stays because bench/worker.py traces it
from .params import DerivedStats, SystemParams, classical_band, derive_stats, state_moments  # noqa: F401
from .rng import substream

DETECTOR_CHOICES = ("ml", "simple", "optimum")
DEFAULT_CHUNK_BITS = 1024

ENGINE_VERSION = 4
"""The version of the chunk draw.  Output bytes are a pure function of the
command, its seed and this version, which changes whenever a draw moves.
Version 3 drew ML's S only inside its center band; version 4 only in the
band's shells, outside its certain-discard core.  No other draw moved."""


def check_names(kind: str, names, choices) -> tuple[str, ...]:
    """``names`` as a tuple; fails unless it is non-empty, among ``choices``
    and free of repeats.  ``kind`` names the list in the message."""
    names = tuple(names)
    if not names:
        raise ValueError(f"{kind} must be non-empty")
    for name in names:
        if name not in choices:
            raise ValueError(f"{kind} must be among {choices}, got {name!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"{kind} must not repeat, got {','.join(names)}")
    return names


@dataclass(frozen=True)
class EveObservation:
    """The eavesdropper's read of one chip from the public statistics alone."""

    m_hat: float
    posterior_main: dict[tuple[int, int], float]
    posterior_sub: dict[tuple[int, int], float]
    guess_main: tuple[int, int]
    guess_sub: tuple[int, int]


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
        # field by field, written out: a loop over dataclasses.fields costs
        # twice as much, and dataclasses.astuple deep-copies every value
        return DetectorTally(
            self.total_chips + other.total_chips,
            self.kept_chips + other.kept_chips,
            self.sub_bit_errors + other.sub_bit_errors,
            self.main_bit_errors + other.main_bit_errors,
            self.discarded_gate + other.discarded_gate,
            self.discarded_g1 + other.discarded_g1,
            self.eve_correct + other.eve_correct,
        )

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


def _row_posterior(rows) -> dict[tuple[int, int], float]:
    """The row sums of a (4, 4) weight table, normalised, row 2*i + j keyed (i, j)."""
    # summing in sorted order keeps symmetric rows bit-identical
    sums = [math.fsum(sorted(row)) for row in rows]
    total = math.fsum(sorted(sums))
    return {(k >> 1, k & 1): s / total for k, s in enumerate(sums)}


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
    # the 16 states in flat order 8*b_a + 4*b_b + 2*s_a + s_b
    costs = det.moment_costs(m_hat, scatter, n, stats.state_means, np.sqrt(stats.state_variances))
    log_liks = [-cost for cost in costs.tolist()]

    # relative weights exp(ll - peak); when the peak is infinite (a matching
    # point mass, or no component explains the chip) the components at the
    # peak share the weight and the rest get none
    peak = max(log_liks)
    if math.isinf(peak):
        weights = [float(ll == peak) for ll in log_liks]
    else:
        weights = [math.exp(ll - peak) for ll in log_liks]
    # rows (b_a, b_b), columns (s_a, s_b)
    table = [weights[k : k + 4] for k in range(0, 16, 4)]
    post_main = _row_posterior(table)
    post_sub = _row_posterior(zip(*table))

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


@dataclass
class _ChunkSpec:
    """A session's chunk plan, or one chunk of it.

    Built once per session from its parameters, statistics, detectors,
    seed and point key; building it derives everything a chunk reads
    and that stays fixed for the session: ``table``, the (mu,
    sqrt(var / n), var) of the 16 chip states, from the statistics' state
    table, the :class:`~rhkljn.detectors.ThresholdSet` and, when ``ml``
    runs, the middle hypotheses, ``ml_band``, ML's center band
    (:func:`~rhkljn.detectors.ml_center_band`) within the gate, and
    ``ml_core``, its certain-discard core
    (:func:`~rhkljn.detectors.ml_core`), and, for the classical baseline
    (``stats`` None, the table then from
    :func:`~rhkljn.params.state_moments`), its variance band.
    :meth:`chunk` copies the plan for one chunk, with that chunk's size
    and substream key, and derives nothing again.
    """

    params: SystemParams
    stats: DerivedStats | None  # None for the classical baseline, which reads none
    detectors: tuple[str, ...]
    n_bits: int
    master_seed: int
    key: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.stats is None:
            mu, var = state_moments(self.params)
            self.band = classical_band(var)
        else:
            mu, var = self.stats.state_means, self.stats.state_variances
            self.thresholds = self.stats.thresholds()
            if "ml" in self.detectors:
                self.hyps = self.stats.middle_hypotheses()
                lo, hi = det.ml_center_band(self.hyps)
                # within the gate: the chips whose S is drawn, outside the core
                self.ml_band = max(lo, self.thresholds.th1), min(hi, self.thresholds.th2)
                self.ml_core = det.ml_core(self.hyps, self.params.samples_per_chip, mu, var)
        self.table = (mu, np.sqrt(var / self.params.samples_per_chip), var)

    def chunk(self, n_bits: int, key: tuple[int, ...]) -> "_ChunkSpec":
        """The plan for one chunk of ``n_bits`` bits drawn from substream ``key``."""
        spec = object.__new__(_ChunkSpec)
        spec.__dict__.update(self.__dict__)
        spec.n_bits, spec.key = n_bits, key
        return spec


def _rh_chunk_arrays(spec: _ChunkSpec):
    """Draw one chunk of bits; returns ``(state, eve, m_hat, gate_keep, scatter, scored)``.

    ``state`` is each chip's flat state index 8*b_a + 4*b_b + 2*s_a + s_b,
    ``eve`` Eve's guess of b_a, ``m_hat`` the chip's sample mean and
    ``gate_keep`` the gate's verdict (``ThresholdSet.gate``), all
    ``(bits, chips)``; ``scored`` is the flat indices of the gate-kept
    chips in the shells of ML's center band ``spec.ml_band``, the band
    less its core ``spec.ml_core``: the only chips whose ML verdict S can
    change but with probability 2^-100.  ``scatter`` is S at those chips,
    1-D; both are ``None`` unless ``ml`` runs.

    A chip is drawn as its sufficient statistics, not as raw samples: given
    the chip state, the n samples are i.i.d. N(mu, sigma^2), so their mean
    is m_hat ~ N(mu, sigma^2/n) and, independently, their scatter
    S = sum((v - m_hat)^2) ~ sigma^2 * chi^2(n - 1), drawn as
    sigma^2 * 2 * Gamma((n - 1)/2) (identically zero at n = 1).  (mu,
    sigma^2) come from the 16-state :func:`rhkljn.params.state_moments`
    table, looked up by the state index in the plan's ``table``.

    Draw order is fixed, so the stream is a pure function of the chunk
    key: first the coins, one byte per bit, then one byte per chip in bit
    order (:func:`_coin_bytes`).  A bit byte's low two bits are (b_a, b_b);
    a chip byte's low two bits are (s_a, s_b) and its bit 2 is Eve's coin;
    every other bit is unread.  Then m_hat, then the gate, then, only when
    ``ml``, the one detector that reads S, runs, S for the gate-kept chips
    in the band's shells, in flat order.  S comes last, so skipping it
    moves no other draw.
    """
    n_bits, chips = spec.n_bits, spec.params.chips_per_bit
    rng = substream(spec.master_seed, spec.key)

    coins = _coin_bytes(rng, n_bits * (1 + chips))
    chip = coins[n_bits:].reshape(n_bits, chips)
    state = ((coins[:n_bits] & 3) << 2)[:, None] | (chip & 3)
    eve = (chip >> 2) & 1

    mu, sd, _ = spec.table
    # mu + sd * z, in place; take is the cheaper gather
    m_hat = sd.take(state)
    m_hat *= rng.standard_normal((n_bits, chips))
    m_hat += mu.take(state)
    gate_keep = spec.thresholds.gate(m_hat)
    scatter = scored = None
    if "ml" in spec.detectors:
        (lo, hi), (core_lo, core_hi) = spec.ml_band, spec.ml_core
        # the gate-kept chips in the band, outside its core; a gather at
        # their flat indices is several times cheaper than boolean
        # indexing, in the same order
        scored = np.flatnonzero((m_hat >= lo) & (m_hat <= hi) & ((m_hat < core_lo) | (m_hat > core_hi)))
        scatter = 2.0 * rng.standard_gamma(0.5 * (spec.params.samples_per_chip - 1), scored.size)
        scatter *= spec.table[2].take(state.take(scored))
    return state, eve, m_hat, gate_keep, scatter, scored


def _coin_bytes(rng: np.random.Generator, k: int) -> np.ndarray:
    """``k`` uniform bytes from ``rng``, the bytes of ``rng.bytes(k)``.

    Read from the raw 64-bit words of the bit generator, little-endian:
    on PCG64 ``Generator.bytes`` takes 32-bit halves of the same words,
    low half first, so both give the same bytes and leave the generator
    at the same word for the normals and gammas drawn after them.
    """
    return rng.bit_generator.random_raw(-(-k // 8)).astype("<u8", copy=False).view(np.uint8)[:k]


def _rh_chunk(spec: _ChunkSpec) -> dict[str, DetectorTally]:
    return _tally_chunk(spec, *_rh_chunk_arrays(spec))[0]


def _tally_chunk(spec, state, eve, m_hat, gate_keep, scatter, scored):
    """One tally per detector, and the keep masks they count.

    A detector keeps a gated chip unless it labels it g = 1; the tally
    reads that mask: the interval rule's ``ThresholdSet.keep``, or, for
    ``ml``, :func:`rhkljn.detectors.detect_moments` on the chips in the
    shells of ML's center band alone, at their flat indices ``scored``,
    every gated chip in its core ``spec.ml_core`` discarded and every
    other one kept.  Returns ``(tallies, keeps)``, ``keeps`` the
    ``(bits, chips)`` mask of each detector, which the trace prints.
    """
    keeps = {}
    for name in spec.detectors:
        if name == "ml":
            core_lo, core_hi = spec.ml_core
            kept = gate_keep & ((m_hat < core_lo) | (m_hat > core_hi))
            # at "good" nearly every chunk's shells are empty, where a call still costs ~20 us
            if scored.size:
                labels = det.detect_moments(m_hat.take(scored), scatter, spec.params.samples_per_chip, spec.hyps)
                kept.put(scored, labels != 1)
        else:
            kept = gate_keep & spec.thresholds.keep(m_hat, name)
        keeps[name] = kept
    return _count(keeps, gate_keep, state, eve), keeps


def _low_bits_equal(x: np.ndarray) -> np.ndarray:
    """Where bit 0 of ``x`` equals bit 1."""
    return ((x ^ (x >> 1)) & 1) == 0


def _count(keeps, gate_keep, state, eve) -> dict[str, DetectorTally]:
    """One tally per keep mask, by the flip rule: a kept chip is an error
    when the parties' bits are equal.  Masks, gate, states (the flat index
    8*b_a + 4*b_b + 2*s_a + s_b) and Eve's guesses of b_a are
    ``(bits, chips)``; the chips of a bit share its mains."""
    gate_kept = int(np.count_nonzero(gate_keep))
    subs_equal = _low_bits_equal(state)
    mains_equal = _low_bits_equal(state[:, 0] >> 2)
    eve_right = eve == (state >> 3)
    # a boolean matmul with ones is the row-wise any, a few times faster
    chips_any = np.ones(state.shape[1], dtype=bool)
    tallies = {}
    for name, kept in keeps.items():
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
    return tallies


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


def fan_out(run_share, jobs: int, num_bits: int, chunk_bits: int = DEFAULT_CHUNK_BITS) -> list:
    """``run_share(share=(k, n))`` for k = 0 ... n - 1, the results in share order.

    ``run_share`` runs share ``(k, n)`` of sessions of ``num_bits`` bits in
    chunks of ``chunk_bits`` (``run_session``'s ``share``), and
    n = min(``jobs``, chunks per session).  Share 0 runs in the calling
    process and, when n > 1, shares 1 ... n - 1 on an executor of n - 1
    workers (``protocol.ProcessPoolExecutor``, looked up at call time), one
    task each, submitted before the caller starts its own share: with the
    fork start method the first task forks every worker, on the calling
    thread, before the executor starts its manager thread.  The executor
    is shut down, cancelling what has not started, before this returns or
    raises.
    """
    n = min(jobs, len(_chunk_sizes(num_bits, chunk_bits)))
    if n < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if n == 1:
        return [run_share(share=(0, 1))]
    # looked up through the module at call time, so that a patched class applies
    executor = sys.modules[__name__].ProcessPoolExecutor(max_workers=n - 1)
    try:
        futures = [executor.submit(run_share, share=(k, n)) for k in range(1, n)]
        return [run_share(share=(0, n))] + [future.result() for future in futures]
    finally:
        # every future is done on success, so cancelling costs nothing there
        executor.shutdown(wait=True, cancel_futures=True)


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

    ``spec`` is the session's plan: chunk ``i`` gets a copy of it
    (:meth:`_ChunkSpec.chunk`) with its own size as ``n_bits`` and
    ``spec.key + (i,)`` as its substream key.  Tallies are integer sums, so
    the n shares of a session add up to the session run as one share,
    ``(0, 1)``.
    """
    k, n = share
    if not 0 <= k < n:
        raise ValueError(f"share must be (k, n) with 0 <= k < n, got {share}")
    sizes = _chunk_sizes(num_bits, chunk_bits)
    zero = dict.fromkeys(spec.detectors, DetectorTally())
    return merge_tallies([zero] + [chunk(spec.chunk(sizes[i], spec.key + (i,))) for i in range(k, len(sizes), n)])


def run_session(
    num_bits: int,
    params: SystemParams,
    stats: DerivedStats,
    seed: int,
    detectors: tuple[str, ...] = ("optimum",),
    share: tuple[int, int] = (0, 1),
    point_key: tuple[int, ...] = (),
    trace=None,
    chunk_bits: int = DEFAULT_CHUNK_BITS,
) -> dict[str, DetectorTally]:
    """Run ``num_bits`` main bits of the protocol; returns one tally per detector.

    ``stats`` is ``derive_stats(params)``; both are public, the secrets
    i.i.d. uniform.  Every detector in ``detectors`` is evaluated on the
    same sampled chips, so detector comparisons share one noise
    realization; the tallies come back in the requested order.  The chunks
    of ``share`` = (k, n), chunks k, k + n, ..., run serially in the
    calling process; the n shares add up (:func:`merge_tallies`) to the
    whole session, bit-identical for a fixed ``seed``/``point_key``, and
    :func:`fan_out` runs them on worker processes.  ``trace`` (a writable
    text file) logs one line per chip of the share, in bit order.
    """
    names = check_names("detectors", detectors, DETECTOR_CHOICES)
    spec = _ChunkSpec(params, stats, names, num_bits, seed, point_key)
    if trace is None:
        return _run_chunks(_rh_chunk, spec, num_bits, chunk_bits, share)
    traced = functools.partial(_traced_chunk, trace=trace, chunk_bits=chunk_bits)
    return _run_chunks(traced, spec, num_bits, chunk_bits, share)


def _traced_chunk(spec: _ChunkSpec, trace, chunk_bits: int) -> dict[str, DetectorTally]:
    """A chunk's tallies, as :func:`_rh_chunk`'s, and one trace line per
    chip: its state, m_hat and each detector's verdict, read from the keep
    masks the tally counted and the gate."""
    arrays = _rh_chunk_arrays(spec)
    state, _, m_hat, gate_keep, _, _ = arrays
    tallies, keeps = _tally_chunk(spec, *arrays)
    b_a, b_b, s_a, s_b = ((state >> k) & 1 for k in (3, 2, 1, 0))
    base_bit = spec.key[-1] * chunk_bits
    for i in range(spec.n_bits):
        for c in range(spec.params.chips_per_bit):
            verdicts = []
            for name in spec.detectors:
                if keeps[name][i, c]:
                    verdicts.append(f"{name}:exchanged")
                elif gate_keep[i, c]:
                    verdicts.append(f"{name}:discarded_g1")
                else:
                    verdicts.append(f"{name}:discarded_gate")
            trace.write(
                f"bit={base_bit + i} chip={c + 1} "
                f"b_a={b_a[i, c]} b_b={b_b[i, c]} s_a={s_a[i, c]} s_b={s_b[i, c]} "
                f"m_hat={m_hat[i, c]:.9g} {' '.join(verdicts)}\n"
            )
    return tallies


# ----------------------------------------------------------------------
# Classical baseline
# ----------------------------------------------------------------------


def _classical_chunk(spec: _ChunkSpec) -> dict[str, DetectorTally]:
    rng = substream(spec.master_seed, spec.key)
    # one byte per bit, laid out as a hopping bit byte: (b_a, b_b) in the
    # low two bits, Eve's coin in bit 2
    coins = _coin_bytes(rng, spec.n_bits)
    mains = coins & 3

    # the mean of squares of n zero-mean normals is var * chi^2(n) / n,
    # var that of the state (b_a, b_b, 0, 0) at index 4 * mains
    n = spec.params.samples_per_chip
    v_hat = spec.table[2].take(mains << 2) * (2.0 * rng.standard_gamma(0.5 * n, spec.n_bits)) / n

    # one chip per bit whose sub-bits are the mains, state (b_a, b_b, b_a,
    # b_b): the variance band is both the gate and the keep mask
    lo, hi = spec.band
    kept = ((v_hat >= lo) & (v_hat <= hi))[:, None]
    return _count({"classical": kept}, kept, (5 * mains)[:, None], ((coins >> 2) & 1)[:, None])


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
