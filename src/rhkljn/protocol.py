"""Per-chip exchange protocol, session aggregation and the passive eavesdropper.

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
raw samples: the gate, the threshold detectors and the ML/MAP costs depend
on the samples only through these two, so the work per chip does not grow
with n.  Per chunk the draw order is mains, subs, Eve coins, m_hat, S.
Work is split into fixed-size chunks of bits, each with its own seed
substream, so results are bit-identical across worker counts.  The
classical two-resistor baseline (variance trisection on zero-mean noise,
its mean of squares drawn as a scaled chi-square) is provided for
rate-matched comparisons.  Raw samples are drawn only by the per-chip
path (:func:`run_chip`, :func:`rhkljn.channel.sample_chip`).
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import detectors as det
from .channel import ChipState, classical_kljn_variance, divider_moments, sample_chip
from .params import DerivedStats, SystemParams, derive_stats
from .rng import substream

DETECTOR_CHOICES = ("ml", "simple", "optimum", "map")
DEFAULT_CHUNK_BITS = 1024


@dataclass(frozen=True)
class PartySecret:
    """One party's secret for a bit duration: the main bit and its sub-bits."""

    main_bit: int
    sub_bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.main_bit not in (0, 1):
            raise ValueError(f"main_bit must be 0 or 1, got {self.main_bit}")
        if any(s not in (0, 1) for s in self.sub_bits):
            raise ValueError("sub_bits must all be 0 or 1")


@dataclass(frozen=True)
class ChipOutcome:
    """One party's verdict for a chip.

    ``detected_g`` and the inferred partner bits are present exactly when
    the chip was exchanged.
    """

    decision: str  # discarded_gate | discarded_g1 | exchanged
    detected_g: int | None = None
    inferred_partner_main: int | None = None
    inferred_partner_sub: int | None = None

    def __post_init__(self) -> None:
        exchanged = self.decision == "exchanged"
        have = self.inferred_partner_main is not None and self.inferred_partner_sub is not None
        if exchanged != have:
            raise ValueError("inferred partner bits present iff decision is 'exchanged'")


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
    """Everything a party (and Eve) knows publicly: parameters, derived stats, detector."""

    params: SystemParams
    stats: DerivedStats
    detector: str = "optimum"

    def __post_init__(self) -> None:
        if self.detector not in DETECTOR_CHOICES:
            raise ValueError(f"detector must be one of {DETECTOR_CHOICES}, got {self.detector!r}")

    @classmethod
    def from_params(cls, params: SystemParams, detector: str = "optimum") -> "ProtocolConfig":
        return cls(params=params, stats=derive_stats(params), detector=detector)


@dataclass(frozen=True)
class DetectorTally:
    """Integer counters for one detector over a set of chips; merged by addition."""

    total_chips: int = 0
    kept_chips: int = 0
    sub_bit_errors: int = 0
    main_bits_decided: int = 0
    main_bit_errors: int = 0
    discarded_gate: int = 0
    discarded_g1: int = 0
    eve_correct: int = 0

    def __add__(self, other: "DetectorTally") -> "DetectorTally":
        return DetectorTally(
            total_chips=self.total_chips + other.total_chips,
            kept_chips=self.kept_chips + other.kept_chips,
            sub_bit_errors=self.sub_bit_errors + other.sub_bit_errors,
            main_bits_decided=self.main_bits_decided + other.main_bits_decided,
            main_bit_errors=self.main_bit_errors + other.main_bit_errors,
            discarded_gate=self.discarded_gate + other.discarded_gate,
            discarded_g1=self.discarded_g1 + other.discarded_g1,
            eve_correct=self.eve_correct + other.eve_correct,
        )

    @property
    def bep(self) -> float:
        """Sub-bit error probability: errors over kept chips (0 when none kept)."""
        return self.sub_bit_errors / self.kept_chips if self.kept_chips else 0.0

    @property
    def discard_fraction(self) -> float:
        return 1.0 - self.kept_chips / self.total_chips if self.total_chips else 0.0

    @property
    def main_bep(self) -> float:
        return self.main_bit_errors / self.main_bits_decided if self.main_bits_decided else 0.0

    @property
    def eve_correct_fraction(self) -> float:
        return self.eve_correct / self.kept_chips if self.kept_chips else 0.0


@dataclass(frozen=True)
class SessionResult:
    """Aggregate of a session; per-detector tallies plus the primary view."""

    total_bits: int
    detector: str
    tallies: dict[str, DetectorTally] = field(repr=False)

    def tally(self, detector: str | None = None) -> DetectorTally:
        return self.tallies[detector or self.detector]

    @property
    def total_chips(self) -> int:
        return self.tally().total_chips

    @property
    def kept_chips(self) -> int:
        return self.tally().kept_chips

    @property
    def sub_bit_errors(self) -> int:
        return self.tally().sub_bit_errors

    @property
    def main_bit_errors(self) -> int:
        return self.tally().main_bit_errors

    @property
    def bep(self) -> float:
        return self.tally().bep

    @property
    def discard_fraction(self) -> float:
        return self.tally().discard_fraction

    @property
    def eve_correct_fraction(self) -> float:
        return self.tally().eve_correct_fraction


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


def _detect(values: np.ndarray, m_hat: float, detector: str, cfg: ProtocolConfig) -> int:
    ts = cfg.stats.thresholds()
    if detector == "ml":
        return det.ml_detect(values, cfg.stats.middle_hypotheses())
    if detector == "map":
        return det.map_detect(values, cfg.stats.middle_hypotheses())
    th_lo, th_hi = ts.pair(detector)
    return det.threshold_detect(m_hat, th_lo, th_hi)


def run_chip(
    alice: PartySecret,
    bob: PartySecret,
    p: int,
    cfg: ProtocolConfig,
    rng: np.random.Generator,
) -> tuple[ChipOutcome, ChipOutcome, EveObservation]:
    """Run one chip; returns both parties' outcomes and Eve's observation.

    Both outcomes are computed from the same sample mean and thresholds, so
    the keep/discard verdicts always agree.  Misdetections become data in
    the outcomes, never errors raised.
    """
    state = ChipState(
        b_a=alice.main_bit,
        b_b=bob.main_bit,
        s_a=alice.sub_bits[p - 1],
        s_b=bob.sub_bits[p - 1],
        p=p,
    )
    samples = sample_chip(state, cfg.params.samples_per_chip, rng, cfg.params)
    m_hat = det.sample_mean(samples)
    eve = eve_observe(samples, cfg.stats, rng=rng)

    if not det.gate(m_hat, cfg.stats.thresholds()):
        outcome = ChipOutcome(decision="discarded_gate")
        return outcome, outcome, eve

    g = _detect(samples.values, m_hat, cfg.detector, cfg)
    if g == 1:
        outcome = ChipOutcome(decision="discarded_g1", detected_g=None)
        return outcome, outcome, eve

    out_a = ChipOutcome(
        decision="exchanged",
        detected_g=g,
        inferred_partner_main=1 - alice.main_bit,
        inferred_partner_sub=1 - alice.sub_bits[p - 1],
    )
    out_b = ChipOutcome(
        decision="exchanged",
        detected_g=g,
        inferred_partner_main=1 - bob.main_bit,
        inferred_partner_sub=1 - bob.sub_bits[p - 1],
    )
    return out_a, out_b, eve


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
    n = values.size
    log_liks: dict[tuple[int, int, int, int], float] = {}
    for main_pair, entries in stats.mixture_tables.items():
        for comp in entries:
            if comp.variance > 0.0:
                ll = -0.5 * n * math.log(2.0 * math.pi * comp.variance) - float(
                    np.sum((values - comp.mean) ** 2)
                ) / (2.0 * comp.variance)
            else:
                matches = bool(det._matches_point_mass(values, comp.mean))
                ll = 0.0 if matches else -math.inf
            log_liks[main_pair + comp.sub_bits] = ll

    peak = max(log_liks.values())
    if peak == -math.inf:
        weights = {k: 1.0 for k in log_liks}
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
        m_hat=float(values.mean()),
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
    stats: DerivedStats
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
    detector sees a chip only through (m_hat, S).

    Draw order is fixed (mains, subs, Eve coins, m_hat, S) so the stream is
    a pure function of the chunk key; the coins come before any channel
    noise, so they do not depend on n.
    """
    p = spec.params
    n_bits, chips, n = spec.n_bits, p.chips_per_bit, p.samples_per_chip
    rng = substream(spec.master_seed, spec.key)

    a_main = rng.integers(0, 2, n_bits)
    b_main = rng.integers(0, 2, n_bits)
    a_sub = rng.integers(0, 2, (n_bits, chips))
    b_sub = rng.integers(0, 2, (n_bits, chips))
    eve_guess_a = rng.integers(0, 2, (n_bits, chips))

    r_a = np.where(
        a_main[:, None] == 0,
        np.where(a_sub == 0, p.r_l0, p.r_l1),
        np.where(a_sub == 0, p.r_h0, p.r_h1),
    )
    r_b = np.where(
        b_main[:, None] == 0,
        np.where(b_sub == 0, p.r_l0, p.r_l1),
        np.where(b_sub == 0, p.r_h0, p.r_h1),
    )
    bias_a = np.where(a_main == 0, p.m_l, p.m_h)[:, None]
    bias_b = np.where(b_main == 0, p.m_l, p.m_h)[:, None]
    mu, var = divider_moments(r_a, r_b, bias_a, bias_b, p.noise_var_per_ohm)

    m_hat = mu + np.sqrt(var / n) * rng.standard_normal((n_bits, chips))
    scatter = var * (2.0 * rng.standard_gamma(0.5 * (n - 1), (n_bits, chips)))
    return a_main, b_main, a_sub, b_sub, scatter, m_hat, eve_guess_a


def _rh_chunk(spec: _ChunkSpec) -> dict[str, DetectorTally]:
    a_main, b_main, a_sub, b_sub, scatter, m_hat, eve_guess_a = _rh_chunk_arrays(spec)
    return _tally_chunk(spec, a_main, b_main, a_sub, b_sub, scatter, m_hat, eve_guess_a)[0]


def _tally_chunk(spec, a_main, b_main, a_sub, b_sub, scatter, m_hat, eve_guess_a):
    stats = spec.stats
    gate_keep = (m_hat >= stats.th1) & (m_hat <= stats.th2)
    subs_equal = a_sub == b_sub

    tallies: dict[str, DetectorTally] = {}
    labels: dict[str, np.ndarray] = {}
    for name in spec.detectors:
        if name in ("simple", "optimum"):
            th_lo, th_hi = stats.thresholds().pair(name)
            g = np.where(m_hat > th_hi, 3, np.where(m_hat > th_lo, 1, 2))
        elif name in ("ml", "map"):
            g = det.detect_moments(
                m_hat,
                scatter,
                spec.params.samples_per_chip,
                stats.middle_hypotheses(),
                use_priors=name == "map",
            )
        else:
            raise ValueError(f"unknown detector {name!r}")
        labels[name] = g

        kept = gate_keep & (g != 1)
        sub_err = kept & subs_equal
        decided = kept.any(axis=1)
        tallies[name] = DetectorTally(
            total_chips=int(kept.size),
            kept_chips=int(kept.sum()),
            sub_bit_errors=int(sub_err.sum()),
            main_bits_decided=int(decided.sum()),
            main_bit_errors=int((decided & (a_main == b_main)).sum()),
            discarded_gate=int((~gate_keep).sum()),
            discarded_g1=int((gate_keep & (g == 1)).sum()),
            eve_correct=int((kept & (eve_guess_a == a_main[:, None])).sum()),
        )
    return tallies, labels, gate_keep


def _chunk_sizes(num_bits: int, chunk_bits: int) -> list[int]:
    full, rest = divmod(num_bits, chunk_bits)
    return [chunk_bits] * full + ([rest] if rest else [])


def _merge(parts: list[dict[str, DetectorTally]]) -> dict[str, DetectorTally]:
    merged: dict[str, DetectorTally] = {}
    for part in parts:
        for name, tally in part.items():
            merged[name] = merged[name] + tally if name in merged else tally
    return merged


def run_session(
    num_bits: int,
    cfg: ProtocolConfig,
    seed: int,
    detectors: tuple[str, ...] | None = None,
    jobs: int = 1,
    point_key: tuple[int, ...] = (),
    trace=None,
    chunk_bits: int = DEFAULT_CHUNK_BITS,
) -> SessionResult:
    """Run ``num_bits`` main bits of the protocol and aggregate the tallies.

    Secrets are i.i.d. uniform.  Every detector in ``detectors`` (default:
    the configured one) is evaluated on the same sampled chips, so detector
    comparisons share one noise realization.  The result is bit-identical
    for a fixed ``seed``/``point_key`` regardless of ``jobs``; ``trace``
    (a writable text file) forces serial execution and logs one line per
    chip.
    """
    if num_bits < 1:
        raise ValueError(f"num_bits must be >= 1, got {num_bits}")
    names = tuple(detectors) if detectors else (cfg.detector,)
    for name in names:
        if name not in DETECTOR_CHOICES:
            raise ValueError(f"detector must be one of {DETECTOR_CHOICES}, got {name!r}")

    specs = [
        _ChunkSpec(
            params=cfg.params,
            stats=cfg.stats,
            detectors=names,
            n_bits=size,
            master_seed=seed,
            key=point_key + (idx,),
        )
        for idx, size in enumerate(_chunk_sizes(num_bits, chunk_bits))
    ]

    if trace is not None:
        parts = [_traced_chunk(spec, trace, base_bit=i * chunk_bits) for i, spec in enumerate(specs)]
    elif jobs > 1 and len(specs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_rh_chunk, specs, chunksize=4))
    else:
        parts = [_rh_chunk(spec) for spec in specs]

    return SessionResult(total_bits=num_bits, detector=names[0], tallies=_merge(parts))


def _traced_chunk(spec: _ChunkSpec, trace, base_bit: int) -> dict[str, DetectorTally]:
    a_main, b_main, a_sub, b_sub, scatter, m_hat, eve_guess_a = _rh_chunk_arrays(spec)
    tallies, labels, gate_keep = _tally_chunk(
        spec, a_main, b_main, a_sub, b_sub, scatter, m_hat, eve_guess_a
    )
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


@dataclass(frozen=True)
class _ClassicalChunkSpec:
    params: SystemParams
    n_bits: int
    n_per_bit: int
    master_seed: int
    key: tuple[int, ...]


def _classical_chunk(spec: _ClassicalChunkSpec) -> dict[str, DetectorTally]:
    p = spec.params
    rng = substream(spec.master_seed, spec.key)
    a_main = rng.integers(0, 2, spec.n_bits)
    b_main = rng.integers(0, 2, spec.n_bits)

    var_00 = classical_kljn_variance("00", p)
    var_01 = classical_kljn_variance("01or10", p)
    var_11 = classical_kljn_variance("11", p)
    var_true = np.where(a_main == b_main, np.where(a_main == 0, var_00, var_11), var_01)

    # the mean of squares of n zero-mean normals is var * chi^2(n) / n
    eve_guess_a = rng.integers(0, 2, spec.n_bits)
    n = spec.n_per_bit
    v_hat = var_true * (2.0 * rng.standard_gamma(0.5 * n, spec.n_bits)) / n

    th_lo = 0.5 * (var_00 + var_01)
    th_hi = 0.5 * (var_01 + var_11)
    kept = (v_hat >= th_lo) & (v_hat <= th_hi)
    errors = kept & (a_main == b_main)

    tally = DetectorTally(
        total_chips=spec.n_bits,
        kept_chips=int(kept.sum()),
        sub_bit_errors=int(errors.sum()),
        main_bits_decided=int(kept.sum()),
        main_bit_errors=int(errors.sum()),
        discarded_gate=int((~kept).sum()),
        discarded_g1=0,
        eve_correct=int((kept & (eve_guess_a == a_main)).sum()),
    )
    return {"classical": tally}


def run_classical_session(
    num_bits: int,
    n_per_bit: int,
    cfg: ProtocolConfig,
    seed: int,
    jobs: int = 1,
    point_key: tuple[int, ...] = (),
    chunk_bits: int = DEFAULT_CHUNK_BITS,
) -> SessionResult:
    """Classical two-resistor baseline with variance trisection.

    Per bit: estimate the common-voltage variance from ``n_per_bit``
    zero-mean samples (mean of squares), pick the nearest of the three
    case variances via midpoint thresholds, discard detections of the
    equal-bit cases, and infer the partner bit by the flip rule otherwise.
    The decision unit is the bit, so ``total_chips`` counts bits here.
    """
    if num_bits < 1:
        raise ValueError(f"num_bits must be >= 1, got {num_bits}")
    if n_per_bit < 1:
        raise ValueError(f"n_per_bit must be >= 1, got {n_per_bit}")
    specs = [
        _ClassicalChunkSpec(
            params=cfg.params,
            n_bits=size,
            n_per_bit=n_per_bit,
            master_seed=seed,
            key=point_key + (idx,),
        )
        for idx, size in enumerate(_chunk_sizes(num_bits, chunk_bits))
    ]
    if jobs > 1 and len(specs) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_classical_chunk, specs, chunksize=4))
    else:
        parts = [_classical_chunk(spec) for spec in specs]
    return SessionResult(total_bits=num_bits, detector="classical", tallies=_merge(parts))
