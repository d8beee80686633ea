"""Physical-layer-security metrics: secrecy capacity/rate, outage, effective rate.

All quantities are driven by the separation of the middle-band means
relative to their spreads.  The eavesdropper-advantage term rho is the
tail probability Q(delta_m / (2*sigma_max)) for the worst (closest) pair of
middle means under the largest middle spread; the secrecy outage
probability asks whether that margin falls below a target, optionally under
resistor tolerance perturbations.  The perturbed middle Gaussians are the
mixed states (b_a, b_b) = (0, 1) of :func:`rhkljn.params.chip_moments`,
evaluated on one jittered resistor bank per trial; the banks are drawn in
blocks of trials from one stream, so the outage count is the same as with
one draw of every bank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detectors import q_function
from .params import DerivedStats, SystemParams, chip_moments
from .rng import substream


@dataclass(frozen=True)
class PlsReport:
    """All security metrics for one configuration."""

    m_distinguishable: int
    secrecy_capacity: float  # bits per channel use
    secrecy_rate: float  # bits per second
    delta_m: float  # volts
    sigma_max: float  # volts
    rho: float  # Eve advantage term
    xi: float  # discard fraction (analytic or measured)
    gamma_t: float
    sop: float
    effective_rate: float  # bits per second

    def _fields(self) -> list[tuple[str, str]]:
        return [
            ("m_distinguishable", f"{self.m_distinguishable}"),
            ("secrecy_capacity_bits", f"{self.secrecy_capacity:.9g}"),
            ("secrecy_rate_bps", f"{self.secrecy_rate:.9g}"),
            ("delta_m_volts", f"{self.delta_m:.9g}"),
            ("sigma_max_volts", f"{self.sigma_max:.9g}"),
            ("rho", f"{self.rho:.9g}"),
            ("xi", f"{self.xi:.9g}"),
            ("gamma_t", f"{self.gamma_t:.9g}"),
            ("sop", f"{self.sop:.9g}"),
            ("effective_rate_bps", f"{self.effective_rate:.9g}"),
        ]

    def as_text(self) -> str:
        """Flat key=value block, one metric per line."""
        return "\n".join(f"{k}={v}" for k, v in self._fields())

    def csv_header(self) -> str:
        return ",".join(k for k, _ in self._fields())

    def as_csv_row(self) -> str:
        return ",".join(v for _, v in self._fields())


def secrecy_capacity(m: int) -> float:
    """log2(m) bits per channel use for m distinguishable resistor combinations."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return math.log2(m)


def secrecy_rate(c_s: float, p_mixed: float, t_b: float) -> float:
    """Secrecy rate p_mixed * c_s / t_b in bits per second."""
    if t_b <= 0:
        raise ValueError(f"t_b must be > 0, got {t_b}")
    return p_mixed * c_s / t_b


def delta_m(stats: DerivedStats) -> float:
    """Minimum distance between adjacent middle means: min(|m1-m2|, |m1-m3|)."""
    return min(abs(stats.m1 - stats.m2), abs(stats.m1 - stats.m3))


def sigma_max(stats: DerivedStats) -> float:
    """Largest spread of the outer middle Gaussians, max(sigma2, sigma3) in volts."""
    return max(stats.sigma2, stats.sigma3)


def rho(delta_m_v: float, sigma_max_v: float) -> float:
    """Eve advantage term Q(delta_m / (2*sigma_max))."""
    if sigma_max_v <= 0:
        raise ValueError(f"sigma_max must be > 0, got {sigma_max_v}")
    return q_function(delta_m_v / (2.0 * sigma_max_v))


def empirical_eve_confusion(
    stats: DerivedStats, trials: int, rng: np.random.Generator
) -> float:
    """Measured confusion between the two closest middle components.

    Simulates Eve's worst-case pairwise decision: single observations from
    two Gaussians separated by delta_m, both spread sigma_max, classified
    at the midpoint.  The error fraction estimates rho.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    gap = delta_m(stats)
    spread = sigma_max(stats)
    half = trials // 2
    lower = spread * rng.standard_normal(half)
    upper = gap + spread * rng.standard_normal(trials - half)
    errors = int(np.sum(lower > gap / 2.0)) + int(np.sum(upper < gap / 2.0))
    return errors / trials


@dataclass(frozen=True)
class ResistorTolerance:
    """Independent uniform relative jitter on the four resistors."""

    relative_width: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.relative_width < 1.0:
            raise ValueError(
                f"relative_width must be in [0, 1), got {self.relative_width}"
            )

    def draw(self, params: SystemParams, rng: np.random.Generator, trials: int) -> np.ndarray:
        """Jittered resistor banks indexed ``[trial, main, sub]``: shape (trials, 2, 2).

        The stream is consumed bank by bank, so the first k banks are the
        same whatever ``trials`` is, and consecutive draws on one generator
        give the banks of one draw of their total: :func:`sop` relies on
        this to draw its trials in blocks.
        """
        return params.resistors * (
            1.0 + self.relative_width * rng.uniform(-1.0, 1.0, (trials, 2, 2))
        )


DEFAULT_TRIALS = 10_000
"""Draws of the outage Monte Carlo when a caller names no count."""

_SOP_BLOCK = 1024
"""Trials per block of the outage Monte Carlo.

Every temporary of a block (at most 32 KiB) stays below glibc's 128 KiB
mmap threshold, so the blocks reuse heap memory instead of mapping and
faulting in fresh pages for each array.
"""


def sop(
    stats: DerivedStats,
    gamma_t: float,
    perturbation: ResistorTolerance | None = None,
    trials: int = DEFAULT_TRIALS,
    params: SystemParams | None = None,
    seed: int = 0,
) -> float:
    """Secrecy outage probability P(delta_m / (2*sigma_max) < gamma_t).

    Without a perturbation model the margin is deterministic, so the result
    is exactly 0.0 or 1.0.  With one, the four resistors are jittered
    independently per trial and the outage fraction is returned; ``params``
    must then be given to supply the nominal resistors and biases.  The
    trials run in blocks of ``_SOP_BLOCK`` banks drawn from one stream,
    so memory stays flat in ``trials`` and the count does not depend on
    the block size.
    """
    if not gamma_t > 0:
        raise ValueError(f"gamma_t must be > 0, got {gamma_t}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if perturbation is None:
        margin = delta_m(stats) / (2.0 * sigma_max(stats))
        return 1.0 if margin < gamma_t else 0.0
    if params is None:
        raise ValueError("params required for perturbed outage estimation")
    rng = substream(seed, (0xE0,))
    # middle Gaussians 1, 2, 3: mains (0, 1) with sub-bits (0, 0), (0, 1), (1, 0)
    s_a, s_b = np.array([0, 0, 1]), np.array([0, 1, 0])
    outages = 0
    for start in range(0, trials, _SOP_BLOCK):
        banks = perturbation.draw(params, rng, min(_SOP_BLOCK, trials - start))
        means, variances = chip_moments(params, 0, 1, s_a, s_b, banks)
        m1 = means[:, 0]
        gap = np.minimum(np.abs(m1 - means[:, 1]), np.abs(m1 - means[:, 2]))
        spread = np.sqrt(np.maximum(variances[:, 1], variances[:, 2]))
        outages += int(np.count_nonzero(gap / (2.0 * spread) < gamma_t))
    return outages / trials


def effective_secrecy_rate(xi: float, rho_v: float, t_b: float, m: int) -> float:
    """Effective secrecy rate (1-xi)*(1-rho)*log2(m)/t_b in bits per second."""
    if not 0.0 <= xi <= 1.0:
        raise ValueError(f"xi must be in [0, 1], got {xi}")
    if not 0.0 <= rho_v <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho_v}")
    if t_b <= 0:
        raise ValueError(f"t_b must be > 0, got {t_b}")
    return (1.0 - xi) * (1.0 - rho_v) * secrecy_capacity(m) / t_b


MIXED_STATE_COUNT = 3
"""Distinguishable middle-band combinations carried by a mixed-state chip."""

P_MIXED = 0.5
"""Probability that a chip is in a mixed main-bit state."""

IDEAL_DISCARD = 0.75
"""Discard fraction with perfect detection: a chip is exchanged only when the
main bits differ and the sub-bits differ, 4 of the 16 equiprobable states."""


def build_report(
    params: SystemParams,
    stats: DerivedStats,
    gamma_t: float = 1.0,
    xi: float | None = None,
    perturbation: ResistorTolerance | None = None,
    trials: int = DEFAULT_TRIALS,
    seed: int = 0,
) -> PlsReport:
    """Assemble the full report; ``xi`` defaults to the ideal 3/4 discard fraction.

    Pass a measured session discard fraction as ``xi`` to get the effective
    rate of an actual run.
    """
    gap = delta_m(stats)
    spread = sigma_max(stats)
    rho_v = rho(gap, spread)
    xi_v = IDEAL_DISCARD if xi is None else xi
    c_s = secrecy_capacity(MIXED_STATE_COUNT)
    return PlsReport(
        m_distinguishable=MIXED_STATE_COUNT,
        secrecy_capacity=c_s,
        secrecy_rate=secrecy_rate(c_s, P_MIXED, params.bit_duration),
        delta_m=gap,
        sigma_max=spread,
        rho=rho_v,
        xi=xi_v,
        gamma_t=gamma_t,
        sop=sop(stats, gamma_t, perturbation, trials, params, seed),
        effective_rate=effective_secrecy_rate(
            xi_v, rho_v, params.bit_duration, MIXED_STATE_COUNT
        ),
    )
