"""Gaussian detection for the middle band: gate, ML, simple and optimum thresholds.

A chip is first gated on its sample mean (anything near the all-low or
all-high clusters is discarded), then one of three detectors assigns the
label g of the middle Gaussian that produced it:

* ``ml_detect``      -- maximum-likelihood over the three hypotheses,
                        cost M_g = N*ln(sigma_g) + ||v - m_g||^2 / (2*sigma_g^2);
* ``threshold_detect`` with the simple midpoints (m2+m1)/2 and (m1+m3)/2;
* ``threshold_detect`` with the minimum-error thresholds obtained from the
  weighted two-Gaussian decision problem (quadratic in the threshold).

Label convention: g indexes the mean, so g=1 is the center Gaussian (mean
m1, discarded by the protocol), g=2 the left one (m2) and g=3 the right one
(m3).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

_SQRT2 = math.sqrt(2.0)


def q_function(x):
    """Standard normal tail probability Q(x) = P(Z > x).

    Accepts scalars or arrays; accurate to machine precision over the whole
    double range (computed via erfc), with Q(-inf)=1 and Q(inf)=0.
    """
    out = 0.5 * special.erfc(np.asarray(x, dtype=float) / _SQRT2)
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class GaussianHypothesis:
    """One middle-band hypothesis: the chip voltage is N(mean, std^2)."""

    label: int
    mean: float
    std: float
    prior: float

    def __post_init__(self) -> None:
        if self.std < 0:
            raise ValueError(f"std must be >= 0, got {self.std}")
        if not 0.0 <= self.prior <= 1.0:
            raise ValueError(f"prior must be in [0, 1], got {self.prior}")


@dataclass(frozen=True)
class ThresholdSet:
    """All decision thresholds: gate (th1/th2), simple (th3/th4), optimum."""

    th1: float
    th2: float
    th3: float
    th4: float
    th3_opt: float
    th4_opt: float

    def pair(self, kind: str) -> tuple[float, float]:
        """The (lower, upper) middle-band thresholds for 'simple' or 'optimum'."""
        if kind == "simple":
            return self.th3, self.th4
        if kind == "optimum":
            return self.th3_opt, self.th4_opt
        raise ValueError(f"unknown threshold kind {kind!r}")


def sample_mean(samples) -> float:
    """Arithmetic mean of the chip samples; rejects empty input."""
    values = np.asarray(getattr(samples, "values", samples), dtype=float)
    if values.size == 0:
        raise ValueError("cannot take the mean of zero samples")
    return float(values.mean())


def gate(m_hat: float, ts: ThresholdSet) -> bool:
    """True when the chip is kept: th1 <= m_hat <= th2, discard outside."""
    return not (m_hat < ts.th1 or m_hat > ts.th2)


def threshold_detect(m_hat: float, th3: float, th4: float) -> int:
    """g=3 above th4, g=1 above th3, else g=2."""
    if m_hat > th4:
        return 3
    if m_hat > th3:
        return 1
    return 2


# zero-variance hypotheses are point masses; "equals the mean" allows a few
# ulps so exact-arithmetic chains through the divider still match
_DEGENERATE_RTOL = 1e-12


def _matches_point_mass(values: np.ndarray, mean: float) -> np.ndarray:
    tol = _DEGENERATE_RTOL * max(abs(mean), 1e-300)
    return np.all(np.abs(values - mean) <= tol, axis=-1)


def _ml_costs(values: np.ndarray, hyps: Sequence[GaussianHypothesis]) -> list[float]:
    n = values.shape[-1]
    costs = []
    for h in hyps:
        if h.std == 0.0:
            exact = bool(_matches_point_mass(values, h.mean))
            costs.append(-math.inf if exact else math.inf)
            continue
        sq = float(np.sum((values - h.mean) ** 2))
        costs.append(n * math.log(h.std) + sq / (2.0 * h.std**2))
    return costs


def ml_detect(samples, hyps: Sequence[GaussianHypothesis]) -> int:
    """Label of the hypothesis minimizing N*ln(sigma) + ||v-m||^2/(2*sigma^2).

    Exact cost ties break toward the smaller-variance hypothesis so the
    decision is deterministic.
    """
    values = np.asarray(getattr(samples, "values", samples), dtype=float)
    if values.size == 0:
        raise ValueError("cannot detect on zero samples")
    costs = _ml_costs(values, hyps)
    best = min(range(len(hyps)), key=lambda i: (costs[i], hyps[i].std))
    return hyps[best].label


def map_detect(samples, hyps: Sequence[GaussianHypothesis]) -> int:
    """ML variant with the prior folded in: minimizes M_g - ln(prior_g)."""
    values = np.asarray(getattr(samples, "values", samples), dtype=float)
    if values.size == 0:
        raise ValueError("cannot detect on zero samples")
    costs = _ml_costs(values, hyps)
    adjusted = [
        c - (math.log(h.prior) if h.prior > 0 else -math.inf)
        for c, h in zip(costs, hyps)
    ]
    best = min(range(len(hyps)), key=lambda i: (adjusted[i], hyps[i].std))
    return hyps[best].label


def detect_moments(
    m_hat: np.ndarray,
    scatter: np.ndarray,
    n: int,
    hyps: Sequence[GaussianHypothesis],
    use_priors: bool = False,
) -> np.ndarray:
    """ML labels of chips given only their sufficient statistics.

    For N i.i.d. Gaussian samples the ML cost depends on the samples only
    through the mean m_hat and the scatter S = sum((v - m_hat)^2):
    M_g = N*ln(sigma_g) + (S + N*(m_hat - m_g)^2) / (2*sigma_g^2).
    With ``use_priors`` the cost is reduced by ln(prior_g) (the MAP rule).
    A zero-variance hypothesis matches exactly when m_hat is within the
    point-mass tolerance of its mean and S <= N*tol^2.  Ties break toward
    the smaller variance, matching the scalar rule.
    """
    m_hat = np.asarray(m_hat, dtype=float)
    scatter = np.asarray(scatter, dtype=float)
    order = sorted(range(len(hyps)), key=lambda i: hyps[i].std)
    costs = np.empty(m_hat.shape + (len(hyps),))
    for j, i in enumerate(order):
        h = hyps[i]
        shift = -math.log(h.prior) if use_priors and h.prior > 0 else 0.0
        if h.std == 0.0:
            tol = _DEGENERATE_RTOL * max(abs(h.mean), 1e-300)
            exact = (np.abs(m_hat - h.mean) <= tol) & (scatter <= n * tol**2)
            costs[..., j] = np.where(exact, -np.inf, np.inf)
        else:
            sq = scatter + n * (m_hat - h.mean) ** 2
            costs[..., j] = n * math.log(h.std) + sq / (2.0 * h.std**2) + shift
    labels = np.array([hyps[i].label for i in order])
    return labels[np.argmin(costs, axis=-1)]


def _moments(values) -> tuple[np.ndarray, np.ndarray, int]:
    values = np.asarray(values, dtype=float)
    m_hat = values.mean(axis=-1)
    scatter = np.sum((values - m_hat[..., None]) ** 2, axis=-1)
    return m_hat, scatter, values.shape[-1]


def ml_detect_batch(values: np.ndarray, hyps: Sequence[GaussianHypothesis]) -> np.ndarray:
    """Vectorized ml_detect over a (..., N) array; returns integer labels.

    The samples are reduced to (m_hat, S) and scored by :func:`detect_moments`.
    """
    return detect_moments(*_moments(values), hyps)


def map_detect_batch(values: np.ndarray, hyps: Sequence[GaussianHypothesis]) -> np.ndarray:
    """Vectorized map_detect over a (..., N) array."""
    return detect_moments(*_moments(values), hyps, use_priors=True)


def midpoint_thresholds(m1: float, m2: float, m3: float) -> tuple[float, float]:
    """Simple thresholds: the midpoints (m2+m1)/2 and (m1+m3)/2."""
    return 0.5 * (m2 + m1), 0.5 * (m1 + m3)


def simple_thresholds(stats) -> tuple[float, float]:
    """Simple middle-band thresholds from derived statistics."""
    return midpoint_thresholds(stats.m1, stats.m2, stats.m3)


def _z(th: float, mean: float, std: float) -> float:
    if std > 0.0:
        return (th - mean) / std
    if th == mean:
        return 0.0
    return math.inf if th > mean else -math.inf


def pe1(th: float, hyps: Sequence[GaussianHypothesis]) -> float:
    """Weighted error between the left (m2) and center (m1) Gaussians at ``th``.

    pe1 = 1/4 * Q((th-m2)/sigma2) + 1/2 * P(m_hat < th | center), with the
    second term evaluated as Q((m1-th)/sigma1) to avoid cancellation in the
    far tails.
    """
    by_label = {h.label: h for h in hyps}
    h1, h2 = by_label[1], by_label[2]
    return 0.25 * q_function(_z(th, h2.mean, h2.std)) + 0.5 * q_function(
        _z(h1.mean, th, h1.std)
    )


def pe2(th: float, hyps: Sequence[GaussianHypothesis]) -> float:
    """Weighted error between the center (m1) and right (m3) Gaussians at ``th``."""
    by_label = {h.label: h for h in hyps}
    h1, h3 = by_label[1], by_label[3]
    return 0.25 * q_function(_z(h3.mean, th, h3.std)) + 0.5 * q_function(
        _z(th, h1.mean, h1.std)
    )


def _log_balance(
    y: float,
    m_heavy: float,
    s_heavy: float,
    w_heavy: float,
    m_light: float,
    s_light: float,
    w_light: float,
) -> float:
    """log of the density-balance ratio; zero exactly at the optimum threshold."""
    return (
        (y - m_heavy) ** 2 / (2.0 * s_heavy**2)
        - (y - m_light) ** 2 / (2.0 * s_light**2)
        - math.log(w_heavy * s_light / (w_light * s_heavy))
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
    (w_heavy/s_heavy)*phi((y-m_heavy)/s_heavy), evaluated in log space so it
    stays meaningful when both densities underflow.
    """
    return abs(math.expm1(-_log_balance(y, m_heavy, s_heavy, w_heavy, m_light, s_light, w_light)))


def min_error_threshold(
    m_heavy: float,
    s_heavy: float,
    w_heavy: float,
    m_light: float,
    s_light: float,
    w_light: float,
) -> float:
    """Threshold between two weighted Gaussians minimizing the decision error.

    Solves the quadratic A*y^2 + B*y + C = 0 obtained from equating the two
    weighted densities, with A = 1 - s_heavy^2/s_light^2,
    B = -2*m_heavy + 2*(s_heavy^2/s_light^2)*m_light and
    C = m_heavy^2 - (s_heavy^2/s_light^2)*m_light^2
        - 2*s_heavy^2*ln(w_heavy*s_light/(w_light*s_heavy)).
    The root lying between the two means is selected and polished by a few
    Newton steps until the density-balance residual is at machine level.

    Falls back (with a warning) to the midpoint when no real root lies in
    the bracket; degenerate zero-variance inputs return the midpoint
    directly.
    """
    lo, hi = min(m_heavy, m_light), max(m_heavy, m_light)
    mid = 0.5 * (m_heavy + m_light)
    if s_heavy <= 0.0 or s_light <= 0.0 or lo == hi:
        return mid

    ratio = (s_heavy / s_light) ** 2
    log_term = math.log(w_heavy * s_light / (w_light * s_heavy))
    a = 1.0 - ratio
    b = -2.0 * m_heavy + 2.0 * ratio * m_light
    c = m_heavy**2 - ratio * m_light**2 - 2.0 * s_heavy**2 * log_term

    candidates: list[float] = []
    if abs(a) < 1e-12:
        if b != 0.0:
            candidates.append(-c / b)
    else:
        disc = b * b - 4.0 * a * c
        if disc >= 0.0:
            # q-form quadratic roots: immune to cancellation when b dominates
            q = -0.5 * (b + math.copysign(math.sqrt(disc), b))
            candidates.append(q / a)
            if q != 0.0:
                candidates.append(c / q)

    inside = [y for y in candidates if lo < y < hi]
    if not inside:
        warnings.warn(
            "no optimum-threshold root inside the mean bracket; "
            "falling back to the midpoint",
            RuntimeWarning,
            stacklevel=2,
        )
        return mid

    y = inside[0]
    # Newton polish on the log balance; it is monotone between the means.
    for _ in range(8):
        g = _log_balance(y, m_heavy, s_heavy, w_heavy, m_light, s_light, w_light)
        gp = (y - m_heavy) / s_heavy**2 - (y - m_light) / s_light**2
        if gp == 0.0:
            break
        step = g / gp
        y_new = y - step
        if not lo < y_new < hi:
            break
        y = y_new
        if abs(step) <= 1e-16 * max(abs(y), 1e-300):
            break
    return y


def optimum_thresholds(stats) -> tuple[float, float]:
    """Minimum-error thresholds for the middle band from derived statistics.

    Left threshold separates (m2, sigma2, weight 1/4) from (m1, sigma1,
    weight 1/2); right threshold separates (m1, sigma1, 1/2) from
    (m3, sigma3, 1/4).  Requires sigma1 < sigma2 and sigma1 < sigma3, which
    holds for every valid parameter set.
    """
    s1, s2, s3 = stats.sigma1, stats.sigma2, stats.sigma3
    th3 = min_error_threshold(stats.m1, s1, 0.5, stats.m2, s2, 0.25)
    th4 = min_error_threshold(stats.m1, s1, 0.5, stats.m3, s3, 0.25)
    return th3, th4
