"""System parameters, the chip-state model and closed-form statistics.

Everything downstream (channel sampling, detectors, protocol, security
metrics) is driven by what is defined here:

* :class:`SystemParams` holds the physical constants, the resistor bank
  expressed through the ratios ``alpha`` and ``beta``, the bias pair
  (``m_l``, ``gamma``) and the timing/sampling layout.  Its
  ``resistors`` table, indexed ``[main, sub]``, and its ``biases`` pair,
  indexed by the main bit, are the one statement of which resistor and
  bias a party puts on the wire for a chip.
* :func:`chip_moments` is the chip-state model: the (mean, variance) of
  the common voltage for any (main, sub) bit pair of the two parties,
  through :func:`divider_moments`.  Sessions, the mixture tables, the
  classical baseline and the outage Monte Carlo all read it.
* :class:`DerivedStats` holds every closed-form quantity: the coefficients
  ``c1..c4`` of the middle means, the three middle Gaussian moments, the
  separability coefficients ``k1..k4``, the gate and detector thresholds,
  and the full per-state mixture tables for all 16 bit configurations.

Both dataclasses are frozen; instances are immutable and safe to share
across worker processes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import detectors as _det

BOLTZMANN_K = 1.38e-23  # J/K


class InvalidParamsError(ValueError):
    """A parameter violates the constraints of the scheme."""


class NonSeparableError(ValueError):
    """A separability-coefficient denominator is not positive."""


@dataclass(frozen=True)
class SystemParams:
    """Immutable scheme parameters.

    The resistor bank is fully determined by ``r_l0`` and the two ratios:
    ``r_l1 = beta*r_l0``, ``r_h0 = alpha*r_l0``, ``r_h1 = alpha*beta*r_l0``.
    The high-branch bias is ``m_h = gamma*m_l``.
    """

    temperature: float = 300.0
    """Resistor temperature in kelvin (>= 0; zero gives a noiseless channel)."""

    bandwidth: float = 1e6
    """Noise bandwidth in hertz (> 0)."""

    r_l0: float = 50e3
    """Smallest low-branch resistor in ohms (> 0)."""

    alpha: float = 10.0
    """High/low resistor ratio within a branch pair (> beta)."""

    beta: float = 3.5
    """Hopping ratio between the two resistors of a branch (> 1)."""

    gamma: float = 50.0
    """Bias ratio m_h/m_l (> 1)."""

    m_l: float = 1e-4
    """Low-branch bias voltage in volts (>= 0)."""

    bit_duration: float = 1e-3
    """Main-bit duration in seconds (> 0)."""

    chips_per_bit: int = 10
    """Number of chip intervals per bit (>= 1)."""

    samples_per_chip: int = 20
    """Voltage samples gathered per chip (>= 1)."""

    boltzmann_k: float = BOLTZMANN_K
    """Boltzmann constant in J/K; overridable for unit experiments."""

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidParamsError(f"{f.name} must be finite, got {value}")
        if self.temperature < 0:
            raise InvalidParamsError(f"temperature must be >= 0, got {self.temperature}")
        for name in ("bandwidth", "r_l0", "bit_duration", "boltzmann_k"):
            if getattr(self, name) <= 0:
                raise InvalidParamsError(f"{name} must be > 0, got {getattr(self, name)}")
        # operating conditions are alpha > beta > 1 and gamma > 1; the
        # boundary values are admitted so degenerate limits stay computable
        if not self.beta >= 1:
            raise InvalidParamsError(f"beta must be >= 1, got {self.beta}")
        if not self.alpha >= self.beta:
            raise InvalidParamsError(
                f"alpha must be >= beta, got alpha={self.alpha}, beta={self.beta}"
            )
        if not self.gamma >= 1:
            raise InvalidParamsError(f"gamma must be >= 1, got {self.gamma}")
        if self.m_l < 0:
            raise InvalidParamsError(f"m_l must be >= 0, got {self.m_l}")
        if self.chips_per_bit < 1:
            raise InvalidParamsError(f"chips_per_bit must be >= 1, got {self.chips_per_bit}")
        if self.samples_per_chip < 1:
            raise InvalidParamsError(
                f"samples_per_chip must be >= 1, got {self.samples_per_chip}"
            )

    @property
    def noise_var_per_ohm(self) -> float:
        """Johnson-noise variance per ohm, 4*k*T*bandwidth (V^2/ohm)."""
        return 4.0 * self.boltzmann_k * self.temperature * self.bandwidth

    @property
    def m_h(self) -> float:
        """High-branch bias voltage, gamma*m_l."""
        return self.gamma * self.m_l

    @property
    def r_l1(self) -> float:
        return self.beta * self.r_l0

    @property
    def r_h0(self) -> float:
        return self.alpha * self.r_l0

    @property
    def r_h1(self) -> float:
        return self.alpha * self.beta * self.r_l0

    @property
    def chip_duration(self) -> float:
        """Chip interval in seconds, bit_duration/chips_per_bit."""
        return self.bit_duration / self.chips_per_bit

    @property
    def resistors(self) -> np.ndarray:
        """The resistor bank indexed ``[main, sub]``: ``[[r_l0, r_l1], [r_h0, r_h1]]``.

        The main bit picks the branch, the sub-bit the hop within it.
        """
        return np.array([[self.r_l0, self.r_l1], [self.r_h0, self.r_h1]])

    @property
    def biases(self) -> np.ndarray:
        """The DC bias indexed by the main bit: ``[m_l, m_h]``."""
        return np.array([self.m_l, self.m_h])

    def replace(self, **changes) -> "SystemParams":
        """Return a copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **changes)


def divider_moments(r_a, r_b, bias_a, bias_b, noise_var_per_ohm):
    """(mean, variance) of the common voltage for given resistors and biases.

    Accepts scalars or broadcastable arrays.  Each source is weighted by the
    other party's resistor; the thermal variances add through the squared
    weights.
    """
    total = r_a + r_b
    w_a = r_b / total
    w_b = r_a / total
    mean = w_a * bias_a + w_b * bias_b
    var = w_a**2 * (noise_var_per_ohm * r_a) + w_b**2 * (noise_var_per_ohm * r_b)
    return mean, var


def chip_moments(params: SystemParams, b_a, b_b, s_a, s_b, resistors=None):
    """(mean, variance) of the common voltage for the chip state (b_a, b_b, s_a, s_b).

    The bits are ints or integer arrays that broadcast together, so one
    call serves a single state, all 16 states or a whole chunk of chips.
    ``resistors`` is an array bank indexed ``[main, sub]`` (default
    ``params.resistors``) or a batch of banks of shape ``(..., 2, 2)``;
    a batch puts its leading axes before the axes of the bits.
    """
    bank = params.resistors if resistors is None else resistors
    r_a, r_b, biases = bank[..., b_a, s_a], bank[..., b_b, s_b], params.biases
    return divider_moments(r_a, r_b, biases[b_a], biases[b_b], params.noise_var_per_ohm)


def state_moments(params: SystemParams):
    """(means, variances) of all 16 chip states, each of shape ``(16,)``.

    The flat index of state (b_a, b_b, s_a, s_b) is
    ``8*b_a + 4*b_b + 2*s_a + s_b``.  One :func:`chip_moments` call over
    the grid of all states.
    """
    means, variances = chip_moments(params, *np.ix_((0, 1), (0, 1), (0, 1), (0, 1)))
    return means.ravel(), variances.ravel()


@dataclass(frozen=True)
class MixtureComponent:
    """One entry of a per-state mixture: the Gaussian seen for a sub-bit pair."""

    sub_bits: tuple[int, int]
    mean: float
    variance: float
    weight: float = 0.25


@dataclass(frozen=True)
class DerivedStats:
    """Every closed-form quantity derived from a :class:`SystemParams`.

    ``m4``/``c4`` alias ``m1``/``c1`` (the fourth middle mean coincides with
    the first); the canonical middle-band model everywhere downstream is the
    three Gaussians (m2, var2), (m1, var1), (m3, var3).  ``var4`` is the
    mixture-table variance of the mixed state with both sub-bits hopped,
    ``noise_var_per_ohm * (r_l1 || r_h1) = beta * var1``.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    m1: float
    m2: float
    m3: float
    m_h: float
    var1: float
    var2: float
    var3: float
    var4: float
    k1: float
    k2: float
    k3: float
    k4: float
    th1: float
    th2: float
    th3: float
    th4: float
    th3_opt: float
    th4_opt: float
    mixture_tables: dict[tuple[int, int], tuple[MixtureComponent, ...]] = field(repr=False)

    @property
    def m4(self) -> float:
        return self.m1

    @property
    def sigma1(self) -> float:
        return math.sqrt(self.var1)

    @property
    def sigma2(self) -> float:
        return math.sqrt(self.var2)

    @property
    def sigma3(self) -> float:
        return math.sqrt(self.var3)

    @property
    def k_max(self) -> float:
        return max(self.k1, self.k2, self.k3, self.k4)

    def thresholds(self) -> "_det.ThresholdSet":
        return _det.ThresholdSet(
            th1=self.th1,
            th2=self.th2,
            th3=self.th3,
            th4=self.th4,
            th3_opt=self.th3_opt,
            th4_opt=self.th4_opt,
        )

    def middle_hypotheses(self) -> tuple["_det.GaussianHypothesis", ...]:
        """The three middle-band hypotheses (label g indexes the mean m_g)."""
        return (
            _det.GaussianHypothesis(label=1, mean=self.m1, std=self.sigma1),
            _det.GaussianHypothesis(label=2, mean=self.m2, std=self.sigma2),
            _det.GaussianHypothesis(label=3, mean=self.m3, std=self.sigma3),
        )


def derive_coefficients(params: SystemParams) -> tuple[float, float, float, float]:
    """Coefficients of the middle means: m_g = c_g * m_l.

    c1 = (alpha+gamma)/(alpha+1), c2 = (gamma+alpha*beta)/(alpha*beta+1),
    c3 = (alpha+gamma*beta)/(alpha+beta), c4 = c1.
    """
    a, b, g = params.alpha, params.beta, params.gamma
    c1 = (a + g) / (a + 1.0)
    c2 = (g + a * b) / (a * b + 1.0)
    c3 = (a + g * b) / (a + b)
    return c1, c2, c3, c1


def separability_coefficients(params: SystemParams) -> tuple[float, float, float, float]:
    """The four bias lower-bound coefficients k1..k4.

    The separability condition is m_l >> max(k1..k4) * sqrt(a*r_l0).  k1/k2
    bound the middle band away from the all-low/all-high clusters; k3/k4
    bound the three middle Gaussians apart from each other.

    Raises :class:`NonSeparableError` when a denominator is not positive
    (k3 needs gamma*beta^2 > gamma + beta^2; k4 needs (gamma-1)*(beta-1) > 0).
    """
    a, b, g = params.alpha, params.beta, params.gamma
    if g <= 1.0:
        raise NonSeparableError("k1/k2 denominators need gamma > 1")
    den3 = g * b * b - g - b * b
    if den3 <= 0.0:
        raise NonSeparableError(
            f"k3 denominator gamma*beta^2 - gamma - beta^2 = {den3:g} is not positive"
        )
    den4 = 1.0 - g - b + g * b
    if den4 <= 0.0:
        raise NonSeparableError(
            f"k4 denominator (gamma-1)*(beta-1) = {den4:g} is not positive"
        )
    k1 = 3.0 * (math.sqrt(0.5 * a) + math.sqrt(0.5 * a * b / (a * b + 1.0))) * (a * b + 1.0) / (g - 1.0)
    k2 = 3.0 * (math.sqrt(a * b / (a + b)) + math.sqrt(0.5 * a * b)) * (a + b) / (a * (g - 1.0))
    k3 = (
        3.0
        * (math.sqrt(a / (a + 1.0)) + math.sqrt(a * b / (a * b + 1.0)))
        * (a + b)
        * (a * b + 1.0)
        / (a * den3)
    )
    k4 = (
        3.0
        * (math.sqrt(a / (a + 1.0)) + math.sqrt(a * b / (a + b)))
        * (a + b)
        * (a + 1.0)
        / (a * den4)
    )
    return k1, k2, k3, k4


def _mixture_tables(
    params: SystemParams,
) -> dict[tuple[int, int], tuple[MixtureComponent, ...]]:
    """Mean/variance of the common voltage for all 16 bit configurations.

    The :func:`state_moments` table, the one sessions draw from; each
    main-bit pair keeps its four sub-bit components in (s_a, s_b) order.
    """
    means, variances = (t.tolist() for t in state_moments(params))
    subs = ((0, 0), (0, 1), (1, 0), (1, 1))
    return {
        (b_a, b_b): tuple(
            MixtureComponent(sub_bits=sub, mean=means[k], variance=variances[k])
            for k, sub in enumerate(subs, start=8 * b_a + 4 * b_b)
        )
        for b_a in (0, 1)
        for b_b in (0, 1)
    }


def derive_stats(params: SystemParams) -> DerivedStats:
    """Populate every derived quantity of the scheme for the given parameters.

    The optimum thresholds come from the minimum-error quadratic solver in
    :mod:`rhkljn.detectors`; when the configuration is numerically
    degenerate (zero noise) they fall back to the simple midpoints.
    """
    c1, c2, c3, c4 = derive_coefficients(params)
    m1, m2, m3 = c1 * params.m_l, c2 * params.m_l, c3 * params.m_l
    a_v = params.noise_var_per_ohm
    al, be = params.alpha, params.beta
    var1 = a_v * al * params.r_l0 / (al + 1.0)
    var2 = a_v * al * be * params.r_l0 / (al * be + 1.0)
    var3 = a_v * al * be * params.r_l0 / (al + be)
    mixture_tables = _mixture_tables(params)
    var4 = mixture_tables[(0, 1)][3].variance  # sub-bits (1, 1)
    try:
        k1, k2, k3, k4 = separability_coefficients(params)
    except NonSeparableError:
        # degenerate ratios put the bias bound at infinity; the margin
        # report then flags the configuration instead of failing here
        k1 = k2 = k3 = k4 = math.inf
    th1 = 0.5 * (params.m_l + m2)
    th2 = 0.5 * (params.m_h + m3)
    th3, th4 = _det.midpoint_thresholds(m1, m2, m3)
    s1, s2, s3 = math.sqrt(var1), math.sqrt(var2), math.sqrt(var3)
    th3_opt = _det.min_error_threshold(m1, s1, 0.5, m2, s2, 0.25)
    th4_opt = _det.min_error_threshold(m1, s1, 0.5, m3, s3, 0.25)
    return DerivedStats(
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        m1=m1,
        m2=m2,
        m3=m3,
        m_h=params.m_h,
        var1=var1,
        var2=var2,
        var3=var3,
        var4=var4,
        k1=k1,
        k2=k2,
        k3=k3,
        k4=k4,
        th1=th1,
        th2=th2,
        th3=th3,
        th4=th4,
        th3_opt=th3_opt,
        th4_opt=th4_opt,
        mixture_tables=mixture_tables,
    )


@dataclass(frozen=True)
class SeparabilityReport:
    """Margin of the bias against the separability lower bound."""

    ratio: float
    """m_l / (max(k1..k4) * sqrt(a*r_l0)); 0 when the bound is infinite."""

    k_max: float
    sigma_r_l0: float
    factor: float
    separable: bool

    def __str__(self) -> str:
        verdict = "separable" if self.separable else "NOT separable"
        return (
            f"margin ratio {self.ratio:.4g} (k_max={self.k_max:.4g}, "
            f"sigma_r_l0={self.sigma_r_l0:.4g} V, factor={self.factor:g}): {verdict}"
        )


def check_separability(
    params: SystemParams, stats: DerivedStats, factor: float = 1.0
) -> SeparabilityReport:
    """Report the bias margin m_l / (k_max * sigma_r_l0) and a pass/fail at ``factor``.

    The scheme's condition is a ">>" on the bias; the tool reports the ratio
    and flags separable when it exceeds the configurable ``factor`` (default
    1.0).  A zero-noise configuration is separable by convention.
    """
    sigma_r = math.sqrt(params.noise_var_per_ohm * params.r_l0)
    if sigma_r == 0.0:
        # noiseless channel: any positive bias separates exactly
        return SeparabilityReport(
            ratio=math.inf, k_max=stats.k_max, sigma_r_l0=sigma_r, factor=factor, separable=True
        )
    bound = stats.k_max * sigma_r
    ratio = 0.0 if math.isinf(bound) else params.m_l / bound
    return SeparabilityReport(
        ratio=ratio,
        k_max=stats.k_max,
        sigma_r_l0=sigma_r,
        factor=factor,
        separable=ratio > factor,
    )


def fine_tuned_bias(params: SystemParams, margin: float = 10.0) -> float:
    """Bias placed ``margin`` times above the separability bound."""
    k1, k2, k3, k4 = separability_coefficients(params)
    sigma_r = math.sqrt(params.noise_var_per_ohm * params.r_l0)
    return margin * max(k1, k2, k3, k4) * sigma_r


def drif(chips_per_bit: int) -> float:
    """Data-rate improvement factor over the classical scheme: P/2 + 1.

    Half of the P sub-bits and half of the main bits are exchanged, against
    half of the main bits alone for the classical scheme.
    """
    if chips_per_bit < 0:
        raise ValueError(f"chips_per_bit must be >= 0, got {chips_per_bit}")
    return chips_per_bit / 2.0 + 1.0
