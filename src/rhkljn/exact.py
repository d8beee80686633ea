"""Closed-form keep and error rates, the exact oracle of the Monte Carlo rows.

No command imports this module: it holds the closed forms that the tests
hold the session engine and the optimum thresholds to.  Every rate is a
sum of :func:`interval_mass` terms, the mass of a Gaussian on an interval,
taken with ``math.erfc`` on the edge nearer the mean so that it keeps its
digits far in the tails, where a difference of two CDFs cancels to 0.

* :func:`threshold_row` -- a threshold detector's keep and error fractions
  per chip and each chip state's share of the errors.  Given its state, a
  chip's sample mean is N(mu, var/n), so the fractions are sums over the
  16 :func:`~rhkljn.params.state_moments` entries at weight 1/16;
* :func:`classical_row` -- the classical baseline's keep and error
  fractions per bit, from the chi-square law of its mean of squares;
* :func:`pe1`, :func:`pe2` and :func:`stationarity_residual` -- the
  weighted two-Gaussian error and density balance that the optimum
  thresholds minimise.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .detectors import GaussianHypothesis
from .params import DerivedStats, SystemParams, state_moments

_SQRT2 = math.sqrt(2.0)


def interval_mass(a: float, b: float, mu: float, sd: float) -> float:
    """P(a < X <= b) for X ~ N(mu, sd^2), accurate in the far tails.

    An interval on one side of the mean is a difference of ``math.erfc``
    values, the larger one at the edge nearer the mean, so it loses no
    digits to a CDF near 1; one that holds the mean is a sum of two
    ``math.erf`` values.  Edges may be infinite; an empty interval
    (b <= a) has mass 0 and sd = 0 is a point mass at mu.  A mass below
    ~5e-324 underflows to 0.
    """
    if math.isnan(a) or math.isnan(b) or math.isnan(mu) or not sd >= 0.0:
        raise ValueError(f"interval_mass needs edges, a mean and sd >= 0, got {(a, b, mu, sd)}")
    if not a < b:
        return 0.0
    if sd == 0.0:
        return float(a < mu <= b)
    za, zb = (a - mu) / (sd * _SQRT2), (b - mu) / (sd * _SQRT2)
    if za >= 0.0:
        return 0.5 * (math.erfc(za) - math.erfc(zb))
    if zb <= 0.0:
        return 0.5 * (math.erfc(-zb) - math.erfc(-za))
    return 0.5 * (math.erf(zb) - math.erf(za))


@dataclass(frozen=True)
class ExactRow:
    """The exact rates of one row, per unit: a chip of the hopping scheme,
    a bit of the classical one.

    ``keep_by_main`` and ``error_by_main`` are the kept and error fractions
    given each main-bit pair (b_a, b_b), in the order (0, 0), (0, 1),
    (1, 0), (1, 1); the pairs are equally likely.  ``shares`` is each
    state's share of the errors in flat state order: the 16 chip states
    8*b_a + 4*b_b + 2*s_a + s_b of a hopping row, the 4 main pairs
    2*b_a + b_b of a classical one; all 0 when the error fraction is 0.
    ``underflow`` is set when the error fraction reads 0, or a value below
    the normal double range, although an interval it sums has positive
    mass: its value is then not the true one.
    """

    keep_by_main: tuple[float, ...]
    error_by_main: tuple[float, ...]
    shares: tuple[float, ...]
    underflow: bool

    @property
    def keep(self) -> float:
        """The kept fraction per unit."""
        return math.fsum(self.keep_by_main) / len(self.keep_by_main)

    @property
    def error(self) -> float:
        """The error fraction per unit: kept, and the flip rule gets it wrong."""
        return math.fsum(self.error_by_main) / len(self.error_by_main)

    @property
    def bep(self) -> float:
        """Errors over kept units (0 when none is kept)."""
        return self.error / self.keep if self.keep else 0.0


def _row(keeps: Sequence[float], errors: Sequence[float], has_mass: bool) -> ExactRow:
    """The row of per-state kept and error fractions of equally likely
    states, grouped by main pair (four groups of equal size)."""
    group = len(keeps) // 4
    keep_by_main = tuple(math.fsum(keeps[j : j + group]) / group for j in range(0, len(keeps), group))
    error_by_main = tuple(math.fsum(errors[j : j + group]) / group for j in range(0, len(errors), group))
    total = math.fsum(errors)
    shares = tuple(e / total if total else 0.0 for e in errors)
    underflow = has_mass and total / len(errors) < sys.float_info.min
    return ExactRow(keep_by_main, error_by_main, shares, underflow)


def threshold_row(params: SystemParams, stats: DerivedStats, detector: str) -> ExactRow:
    """The exact row of the ``simple`` or ``optimum`` detector.

    A chip is kept when the gate th1 <= m_hat <= th2 passes it and m_hat
    is outside the centre band (lo, hi] of ``stats.thresholds().pair(detector)``,
    i.e. on (th1, lo] or (hi, th2]; it is an error when its sub-bits are
    equal.  ``stats`` is ``derive_stats(params)``.
    """
    lo, hi = stats.thresholds().pair(detector)
    th1, th2 = stats.th1, stats.th2
    kept = ((th1, min(lo, th2)), (max(hi, th1), th2))
    means, variances = state_moments(params)
    n = params.samples_per_chip
    keeps, errors = [], []
    for k, (mu, var) in enumerate(zip(means.tolist(), variances.tolist())):
        sd = math.sqrt(var / n)
        keeps.append(math.fsum(interval_mass(a, b, mu, sd) for a, b in kept))
        errors.append(keeps[-1] if (k >> 1 & 1) == (k & 1) else 0.0)
    has_mass = params.temperature > 0.0 and any(a < b for a, b in kept)
    return _row(keeps, errors, has_mass)


def classical_row(params: SystemParams) -> ExactRow:
    """The exact row of the classical variance trisection, per bit.

    The mean of squares of n = ``params.samples_per_chip`` samples of the
    main-pair state (b_a, b_b, 0, 0) is v_hat = var * chi2(n) / n; a bit is
    kept when v_hat lies in the band between the midpoints of the three
    case variances (the session engine's band), and it is an error when its
    main bits are equal.
    """
    # scipy serves this oracle alone: importing it here keeps it out of
    # every process that imports the module for the threshold rows
    from scipy.special import chdtr, chdtrc

    if params.temperature == 0.0:
        raise ValueError("the classical row needs a noisy channel: at temperature 0 every variance is 0")
    n = params.samples_per_chip
    var = state_moments(params)[1][[0, 4, 8, 12]].tolist()
    lo, hi = 0.5 * (var[0] + var[1]), 0.5 * (var[1] + var[3])
    keeps = []
    for v in var:
        x_lo, x_hi = lo * n / v, hi * n / v
        # as interval_mass does: a band on one side of the mean n is a
        # difference of that side's tails, one that holds it 1 less both
        if x_hi <= n:
            keeps.append(float(chdtr(n, x_hi) - chdtr(n, x_lo)))
        elif x_lo >= n:
            keeps.append(float(chdtrc(n, x_lo) - chdtrc(n, x_hi)))
        else:
            keeps.append(float(1.0 - chdtr(n, x_lo) - chdtrc(n, x_hi)))
    errors = [keeps[0], 0.0, 0.0, keeps[3]]
    return _row(keeps, errors, True)


def pe1(th: float, hyps: Sequence[GaussianHypothesis]) -> float:
    """Weighted error between the left (m2) and center (m1) Gaussians at ``th``.

    pe1 = 1/4 * P(m_hat > th | left) + 1/2 * P(m_hat <= th | center).
    """
    by_label = {h.label: h for h in hyps}
    h1, h2 = by_label[1], by_label[2]
    return 0.25 * interval_mass(th, math.inf, h2.mean, h2.std) + 0.5 * interval_mass(
        -math.inf, th, h1.mean, h1.std
    )


def pe2(th: float, hyps: Sequence[GaussianHypothesis]) -> float:
    """Weighted error between the center (m1) and right (m3) Gaussians at ``th``.

    pe2 = 1/4 * P(m_hat <= th | right) + 1/2 * P(m_hat > th | center).
    """
    by_label = {h.label: h for h in hyps}
    h1, h3 = by_label[1], by_label[3]
    return 0.25 * interval_mass(-math.inf, th, h3.mean, h3.std) + 0.5 * interval_mass(
        th, math.inf, h1.mean, h1.std
    )


def stationarity_residual(
    y: float,
    m_heavy: float,
    s_heavy: float,
    w_heavy: float,
    m_light: float,
    s_light: float,
    w_light: float,
) -> float:
    """Relative mismatch of the two weighted densities at ``y``.

    Equals |lhs - rhs| / rhs for the balance
    (w_light/s_light)*phi((y-m_light)/s_light) =
    (w_heavy/s_heavy)*phi((y-m_heavy)/s_heavy), from the log of each
    side, so it stays meaningful when both densities underflow.  Written
    apart from the threshold solver's own balance, which it checks.
    """

    def log_density(mean: float, std: float, weight: float) -> float:
        # log of weight/std * phi((y - mean)/std), less log(1/sqrt(2*pi))
        return math.log(weight / std) - 0.5 * ((y - mean) / std) ** 2

    return abs(math.expm1(log_density(m_light, s_light, w_light) - log_density(m_heavy, s_heavy, w_heavy)))
