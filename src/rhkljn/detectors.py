"""Gaussian detection for the middle band: gate, ML, simple and optimum thresholds.

A chip is first gated on its sample mean (``gate``: anything near the
all-low or all-high clusters is discarded), then one of three detectors
assigns the label g of the middle Gaussian that produced it:

* ML            -- maximum-likelihood over the three hypotheses, cost
                   M_g = N*ln(sigma_g) + ||v - m_g||^2 / (2*sigma_g^2),
                   written in the sufficient statistics (m_hat, S) by
                   ``moment_costs``, the one Gaussian likelihood of the
                   package (the eavesdropper scores her 16 components with
                   it too).  ``detect_moments`` labels chips from (m_hat, S),
                   the session engine's path; ``ml_detect_batch`` from
                   (..., N) raw samples;
* simple        -- ``threshold_detect`` with the midpoints (m2+m1)/2 and
                   (m1+m3)/2;
* optimum       -- ``threshold_detect`` with the minimum-error thresholds
                   obtained from the weighted two-Gaussian decision problem
                   (quadratic in the threshold).

``gate`` and ``threshold_detect`` take a scalar or an array of sample means.

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

_SQRT2 = math.sqrt(2.0)
_erfc = np.vectorize(math.erfc, otypes=[float])


def q_function(x):
    """Standard normal tail probability Q(x) = P(Z > x).

    Accepts scalars or arrays; accurate to machine precision over the whole
    double range (computed via erfc), with Q(-inf)=1 and Q(inf)=0.
    """
    if np.ndim(x) == 0:
        return 0.5 * math.erfc(float(x) / _SQRT2)
    return 0.5 * _erfc(np.asarray(x, dtype=float) / _SQRT2)


@dataclass(frozen=True)
class GaussianHypothesis:
    """One middle-band hypothesis: the chip voltage is N(mean, std^2)."""

    label: int
    mean: float
    std: float

    def __post_init__(self) -> None:
        if self.std < 0:
            raise ValueError(f"std must be >= 0, got {self.std}")


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


def gate(m_hat, ts: ThresholdSet):
    """True where the chip is kept: th1 <= m_hat <= th2, discard outside.

    Accepts a scalar (returns bool) or an array (returns a bool array).
    """
    m_hat = np.asarray(m_hat)
    keep = (m_hat >= ts.th1) & (m_hat <= ts.th2)
    return bool(keep) if keep.ndim == 0 else keep


def threshold_detect(m_hat, th3: float, th4: float):
    """g=3 above th4, g=1 above th3, else g=2.

    Accepts a scalar (returns int) or an array (returns an int array).
    """
    m_hat = np.asarray(m_hat)
    g = np.where(m_hat > th4, 3, np.where(m_hat > th3, 1, 2))
    return int(g) if g.ndim == 0 else g


# zero-variance hypotheses are point masses; "equals the mean" allows a few
# ulps so exact-arithmetic chains through the divider still match
_DEGENERATE_RTOL = 1e-12


def moment_costs(
    m_hat: np.ndarray,
    scatter: np.ndarray,
    n: int,
    means: Sequence[float],
    stds: Sequence[float],
) -> np.ndarray:
    """Gaussian ML costs, one per hypothesis along a trailing axis.

    The negative log-likelihood of N i.i.d. N(m, sigma^2) samples, less
    N/2*ln(2*pi), depends on them only through the mean m_hat and the
    scatter S = sum((v - m_hat)^2): M = N*ln(sigma) + (S + N*(m_hat - m)^2)
    / (2*sigma^2).  A zero-variance hypothesis is a point mass: -inf where
    m_hat is within the point-mass tolerance of m and S <= N*tol^2, +inf
    elsewhere.
    """
    m_hat = np.asarray(m_hat, dtype=float)
    scatter = np.asarray(scatter, dtype=float)
    costs = np.empty(m_hat.shape + (len(means),))
    for j, (mean, std) in enumerate(zip(means, stds)):
        if std == 0.0:
            tol = _DEGENERATE_RTOL * max(abs(mean), 1e-300)
            exact = (np.abs(m_hat - mean) <= tol) & (scatter <= n * tol**2)
            costs[..., j] = np.where(exact, -np.inf, np.inf)
        else:
            sq = scatter + n * (m_hat - mean) ** 2
            costs[..., j] = n * math.log(std) + sq / (2.0 * std**2)
    return costs


def detect_moments(
    m_hat: np.ndarray,
    scatter: np.ndarray,
    n: int,
    hyps: Sequence[GaussianHypothesis],
) -> np.ndarray:
    """ML labels of chips given their sufficient statistics (m_hat, S).

    Each chip takes the hypothesis of least :func:`moment_costs`; exact
    ties break toward the smaller variance, then the earlier hypothesis.
    """
    ordered = sorted(hyps, key=lambda h: h.std)
    costs = moment_costs(m_hat, scatter, n, [h.mean for h in ordered], [h.std for h in ordered])
    return np.array([h.label for h in ordered])[np.argmin(costs, axis=-1)]


def _moments(values) -> tuple[np.ndarray, np.ndarray, int]:
    values = np.asarray(values, dtype=float)
    if values.shape[-1] == 0:
        raise ValueError("cannot detect on zero samples")
    m_hat = values.mean(axis=-1)
    scatter = np.sum((values - m_hat[..., None]) ** 2, axis=-1)
    return m_hat, scatter, values.shape[-1]


def ml_detect_batch(values: np.ndarray, hyps: Sequence[GaussianHypothesis]) -> np.ndarray:
    """ML labels of chips given as a (..., N) array of raw samples.

    The samples are reduced to (m_hat, S) and scored by :func:`detect_moments`.
    """
    return detect_moments(*_moments(values), hyps)


def midpoint_thresholds(m1: float, m2: float, m3: float) -> tuple[float, float]:
    """Simple thresholds: the midpoints (m2+m1)/2 and (m1+m3)/2."""
    return 0.5 * (m2 + m1), 0.5 * (m1 + m3)


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

