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
  through :func:`divider_moments`, the two-resistor divider whose noise
  is that of the resistors in parallel.  Sessions, Eve's hypotheses,
  the classical baseline and the outage Monte Carlo all read it.
* :class:`DerivedStats` holds every derived quantity: the 16-state table
  of :func:`state_moments` (the one copy sessions, Eve and the exact rows
  read), the coefficients ``c1..c4`` of the middle means, the three
  middle Gaussian moments (the means in closed form, the variances read
  from the state table), the separability coefficients ``k1..k4`` and
  the gate and detector thresholds.

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

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidParamsError(f"{f.name} must be finite, got {value}")
        if self.temperature < 0:
            raise InvalidParamsError(f"temperature must be >= 0, got {self.temperature}")
        for name in ("bandwidth", "r_l0", "bit_duration"):
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
        return 4.0 * BOLTZMANN_K * self.temperature * self.bandwidth

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


def check_nyquist(params: SystemParams) -> None:
    """Fail unless the samples of a chip can be independent.

    Noise of bandwidth B gives at most 2·B·chip_duration independent
    samples per chip (its Nyquist count, 200 at the defaults).  Sessions
    draw every sample as independent, so more samples than that would be
    simulated as information the band-limited noise does not carry.
    """
    limit = 2.0 * params.bandwidth * params.chip_duration
    if params.samples_per_chip > limit * (1.0 + 1e-9):
        raise InvalidParamsError(
            f"{params.samples_per_chip} samples per chip exceed the noise's Nyquist count "
            f"2*bandwidth*chip_duration = {limit:.9g}; band-limited samples that close are correlated"
        )


def divider_moments(r_a, r_b, bias_a, bias_b, noise_var_per_ohm):
    """(mean, variance) of the common voltage for given resistors and biases.

    Accepts scalars or broadcastable arrays.  Each source is weighted by the
    other party's resistor: mean = (r_b*bias_a + r_a*bias_b)/(r_a + r_b).
    The two sources' thermal variances, added through the squared
    weights, sum to the noise of the resistors in parallel:
    var = 4kTB*(r_a || r_b).  On the scheme's nonnegative inputs both come
    out within 3 eps of their exact values.
    """
    total = r_a + r_b
    mean = (r_b * bias_a + r_a * bias_b) / total
    var = noise_var_per_ohm * (r_a * r_b / total)
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


def classical_band(variances) -> tuple[float, float]:
    """The classical keep band, lo <= v_hat <= hi: the midpoints of the case
    variances of its bank, the states (b_a, b_b, 0, 0) of :func:`state_moments`."""
    return 0.5 * (variances[0] + variances[4]), 0.5 * (variances[4] + variances[12])


@dataclass(frozen=True)
class MixtureComponent:
    """One entry of a per-state mixture: the Gaussian seen for a sub-bit pair."""

    sub_bits: tuple[int, int]
    mean: float
    variance: float
    weight: float = 0.25


@dataclass(frozen=True)
class DerivedStats:
    """Every quantity derived from a :class:`SystemParams`.

    ``state_means`` and ``state_variances`` are the :func:`state_moments`
    table, read-only (in a pickled copy too), the one table sessions draw
    from and Eve scores.
    The canonical middle-band model everywhere downstream is the three
    Gaussians (m2, var2), (m1, var1), (m3, var3).  The means are the
    closed forms m_g = c_g * m_l; var1..var4 are the table's variances of
    the mixed state (0, 1) at sub-bits (0, 0), (0, 1), (1, 0) and (1, 1),
    flat indices 4..7.  ``var4``, both sub-bits hopped, is
    ``noise_var_per_ohm * (r_l1 || r_h1) = beta * var1`` and enters no
    detector.  ``note`` names the optimum thresholds that fell back to the
    simple midpoints, None when neither did.
    """

    c1: float
    c2: float
    c3: float
    c4: float
    m1: float
    m2: float
    m3: float
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
    state_means: np.ndarray = field(repr=False, compare=False)
    state_variances: np.ndarray = field(repr=False, compare=False)
    note: str | None = None

    def __post_init__(self) -> None:
        self.state_means.flags.writeable = self.state_variances.flags.writeable = False

    def __reduce__(self):
        # unpickled through __init__, so a --jobs worker's table is read-only
        # too: numpy unpickles every array writeable
        return DerivedStats, tuple(getattr(self, f.name) for f in fields(self))

    @property
    def mixture_tables(self) -> dict[tuple[int, int], tuple[MixtureComponent, ...]]:
        """The state table by main-bit pair (b_a, b_b), each pair's four
        sub-bit components in (s_a, s_b) order; built on each access."""
        means, variances = self.state_means.tolist(), self.state_variances.tolist()
        subs = ((0, 0), (0, 1), (1, 0), (1, 1))
        return {
            (b_a, b_b): tuple(
                MixtureComponent(sub_bits=sub, mean=means[k], variance=variances[k])
                for k, sub in enumerate(subs, start=8 * b_a + 4 * b_b)
            )
            for b_a in (0, 1)
            for b_b in (0, 1)
        }

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
        return _det.ThresholdSet(**{f.name: getattr(self, f.name) for f in fields(_det.ThresholdSet)})

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


def derive_stats(params: SystemParams) -> DerivedStats:
    """Populate every derived quantity of the scheme for the given parameters.

    The optimum thresholds come from the minimum-error quadratic solver in
    :mod:`rhkljn.detectors`.  One without a root between its two means
    falls back to the simple midpoint, and ``note`` names it; when the
    configuration is degenerate (zero noise) the solver itself returns
    the midpoints.
    """
    c1, c2, c3, c4 = derive_coefficients(params)
    m1, m2, m3 = c1 * params.m_l, c2 * params.m_l, c3 * params.m_l
    state_means, state_variances = state_moments(params)
    # the mixed state (0, 1) at sub-bits (0, 0), (0, 1), (1, 0), (1, 1)
    var1, var2, var3, var4 = state_variances[4:8].tolist()
    try:
        k1, k2, k3, k4 = separability_coefficients(params)
    except NonSeparableError:
        # degenerate ratios put the bias bound at infinity; the margin
        # report then flags the configuration instead of failing here
        k1 = k2 = k3 = k4 = math.inf
    th1 = 0.5 * (params.m_l + m2)
    th2 = 0.5 * (params.m_h + m3)
    th3, th4 = 0.5 * (m2 + m1), 0.5 * (m1 + m3)
    s1, s2, s3 = math.sqrt(var1), math.sqrt(var2), math.sqrt(var3)
    th3_opt = _det.min_error_threshold(m1, s1, 0.5, m2, s2, 0.25)
    th4_opt = _det.min_error_threshold(m1, s1, 0.5, m3, s3, 0.25)
    fell_back = " and ".join(name for name, th in (("th3_opt", th3_opt), ("th4_opt", th4_opt)) if th is None)
    note = None
    if fell_back:
        note = f"no optimum-threshold root inside the mean bracket for {fell_back}; falling back to the midpoint"
    return DerivedStats(
        c1=c1,
        c2=c2,
        c3=c3,
        c4=c4,
        m1=m1,
        m2=m2,
        m3=m3,
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
        th3_opt=th3 if th3_opt is None else th3_opt,
        th4_opt=th4 if th4_opt is None else th4_opt,
        state_means=state_means,
        state_variances=state_variances,
        note=note,
    )


# the margin ratio a configuration must exceed to count as separable
SEPARABILITY_FACTOR = 1.0


@dataclass(frozen=True)
class SeparabilityReport:
    """Margin of the bias against the separability lower bound.

    The k's are 3-sigma rules on per-sample spreads, but the detectors
    threshold the sample mean of n samples, whose spread is sigma/sqrt(n):
    the verdict reads the margin on the sample mean, ratio * sqrt(n).
    """

    ratio: float
    """m_l / (max(k1..k4) * sqrt(a*r_l0)), the paper's per-sample margin; 0 when the bound is infinite."""

    sample_mean_ratio: float
    """ratio * sqrt(samples_per_chip), the margin on the sample mean; the verdict reads it."""

    k_max: float
    sigma_r_l0: float
    separable: bool

    def __str__(self) -> str:
        verdict = "separable" if self.separable else "NOT separable"
        return (
            f"margin ratio {self.ratio:.4g} (k_max={self.k_max:.4g}, sigma_r_l0={self.sigma_r_l0:.4g} V), "
            f"sample-mean ratio {self.sample_mean_ratio:.4g} (factor={SEPARABILITY_FACTOR:g}): {verdict}"
        )


def check_separability(params: SystemParams, stats: DerivedStats) -> SeparabilityReport:
    """Report the bias margin m_l / (k_max * sigma_r_l0) and a pass/fail.

    The scheme's condition is a ">>" on the bias; the tool reports the ratio
    and flags separable when the sample-mean ratio, ratio *
    sqrt(samples_per_chip), exceeds :data:`SEPARABILITY_FACTOR`.  A
    zero-noise configuration has ratio inf when its bias is positive and
    ``k_max`` finite, and 0 otherwise.
    """
    sigma_r = math.sqrt(params.noise_var_per_ohm * params.r_l0)
    if sigma_r == 0.0:
        # noiseless channel: a positive bias separates exactly, unless the
        # means collapse (k_max infinite)
        ratio = math.inf if params.m_l > 0.0 and math.isfinite(stats.k_max) else 0.0
    else:
        bound = stats.k_max * sigma_r
        ratio = 0.0 if math.isinf(bound) else params.m_l / bound
    sample_mean_ratio = ratio * math.sqrt(params.samples_per_chip)
    return SeparabilityReport(
        ratio=ratio,
        sample_mean_ratio=sample_mean_ratio,
        k_max=stats.k_max,
        sigma_r_l0=sigma_r,
        separable=sample_mean_ratio > SEPARABILITY_FACTOR,
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
