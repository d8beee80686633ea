"""Gaussian detection for the middle band: gate, ML, simple and optimum thresholds.

A chip is first gated on its sample mean (anything near the all-low or
all-high clusters is discarded), then one of three detectors assigns the
label g of the middle Gaussian that produced it:

* ML            -- maximum-likelihood over the three hypotheses, cost
                   M_g = N*ln(sigma_g) + ||v - m_g||^2 / (2*sigma_g^2),
                   written in the sufficient statistics (m_hat, S) by
                   ``moment_costs``, the one Gaussian likelihood of the
                   package (the eavesdropper scores her 16 components with
                   it too).  ``detect_moments`` labels chips from (m_hat, S)
                   as the ``argmin`` of those costs, the reference for
                   ``ml_keep``; ``ml_detect_batch`` from (..., N) raw
                   samples, the oracle;
* simple        -- the midpoint thresholds (m2+m1)/2 and (m1+m3)/2;
* optimum       -- the minimum-error thresholds obtained from the weighted
                   two-Gaussian decision problem (quadratic in the
                   threshold); the weighted errors they minimise are
                   oracles in :mod:`rhkljn.exact`.

The gate and both threshold detectors are one interval rule on m_hat,
:class:`ThresholdSet`.  The tally reads keep masks, built without labels:
``ThresholdSet.keep`` and ``ml_keep``, the mask of ``detect_moments``
labels other than 1: where the center is strictly the narrowest, the sign
of one quadratic per other hypothesis in (m_hat - m1, S/n + (m_hat - m1)^2),
whose roots at S = 0 give ``ml_center_band``, outside which ML keeps a chip
whatever its S (the session engine scores only the chips inside it);
otherwise the labels themselves.  ``q_function`` takes a scalar.

Label convention: g indexes the mean, so g=1 is the center Gaussian (mean
m1, discarded by the protocol), g=2 the left one (m2) and g=3 the right one
(m3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

_SQRT2 = math.sqrt(2.0)


def q_function(x: float) -> float:
    """Standard normal tail probability Q(x) = P(Z > x) of a scalar.

    Accurate to machine precision over the whole double range (computed
    via erfc), with Q(-inf)=1 and Q(inf)=0.
    """
    return 0.5 * math.erfc(x / _SQRT2)


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
    """The decision thresholds, and the one interval rule on a sample mean.

    The gate passes th1 <= m_hat <= th2, closed at both ends.  A ``simple``
    (th3/th4) or ``optimum`` (th3_opt/th4_opt) detector labels the band
    lo < m_hat <= hi, open below and closed above, g = 1, above it g = 3
    and below it (or at NaN) g = 2, with (lo, hi) its :meth:`pair` clamped
    to the gate.  So a chip is kept on [th1, lo] and (hi, th2].
    """

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

    def kept_intervals(self, kind: str) -> tuple[tuple[float, float], tuple[float, float]]:
        """The edges of [th1, lo] and (hi, th2], where ``kind`` keeps a chip."""
        lo, hi = self.pair(kind)
        return (self.th1, min(lo, self.th2)), (max(hi, self.th1), self.th2)

    def gate(self, m_hat):
        """Where th1 <= m_hat <= th2 (never at NaN)."""
        return (m_hat >= self.th1) & (m_hat <= self.th2)

    def keep(self, m_hat, kind: str) -> np.ndarray:
        """``label(m_hat, kind) != 1``, without the labels."""
        (_, lo), (hi, _) = self.kept_intervals(kind)
        return np.logical_not((m_hat > lo) & (m_hat <= hi))

    def label(self, m_hat, kind: str) -> np.ndarray:
        """The labels g of ``kind``, without the gate."""
        (_, lo), (hi, _) = self.kept_intervals(kind)
        return np.where(m_hat > hi, 3, np.where(m_hat > lo, 1, 2))


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
    costs = np.empty(np.broadcast_shapes(m_hat.shape, scatter.shape) + (len(means),))
    for j, (mean, std) in enumerate(zip(means, stds)):
        if std == 0.0:
            tol = _DEGENERATE_RTOL * max(abs(mean), 1e-300)
            exact = (np.abs(m_hat - mean) <= tol) & (scatter <= n * tol**2)
            costs[..., j] = np.where(exact, -np.inf, np.inf)
        else:
            costs[..., j] = (n * (m_hat - mean) ** 2 + scatter) / (2.0 * std**2) + n * math.log(std)
    return costs


def detect_moments(
    m_hat: np.ndarray,
    scatter: np.ndarray,
    n: int,
    hyps: Sequence[GaussianHypothesis],
) -> np.ndarray:
    """ML labels of chips given their sufficient statistics (m_hat, S).

    Each chip takes the hypothesis of least :func:`moment_costs`; exact
    ties break toward the smaller variance, then the earlier hypothesis:
    the ``argmin`` over the costs in that order.
    """
    ordered = sorted(hyps, key=lambda h: h.std)
    costs = moment_costs(m_hat, scatter, n, [h.mean for h in ordered], [h.std for h in ordered])
    return np.array([h.label for h in ordered])[np.argmin(costs, axis=-1)]


# the center band's edges are pushed out by this fraction of their distance
# from m1, plus this fraction of |m1|; a center variance within this
# fraction of another's gives the whole line
_BAND_MARGIN = 1e-6


def _center_quadratics(hyps: Sequence[GaussianHypothesis]) -> tuple[float, list] | None:
    """``(m1, [(a, b, c), ...])``, one quadratic per other hypothesis o, or
    ``None`` unless the center is strictly the narrowest (a sigma of 0, or
    variances within a relative ``_BAND_MARGIN``: the point masses, beta = 1).

    With x = m_hat - m1 and u = S/n + x^2, the center's cost less o's, over
    n, is a*u + b*x + c, the unequal-variance Gaussian quadratic boundary:
    a = 1/(2*sigma1^2) - 1/(2*sigma_o^2) > 0, b = (m_o - m1)/sigma_o^2 and
    c = ln(sigma1/sigma_o) - (m_o - m1)^2/(2*sigma_o^2) < 0.
    """
    center = next(h for h in hyps if h.label == 1)
    others = [h for h in hyps if h.label != 1]
    var_c = center.std**2
    if var_c == 0.0 or any(h.std**2 * (1.0 - _BAND_MARGIN) <= var_c for h in others):
        return None
    quads = []
    for h in others:
        var_o, delta = h.std**2, h.mean - center.mean
        c = math.log(center.std / h.std) - 0.5 * delta**2 / var_o
        quads.append((0.5 / var_c - 0.5 / var_o, delta / var_o, c))
    return center.mean, quads


def ml_keep(
    m_hat: np.ndarray,
    scatter: np.ndarray,
    n: int,
    hyps: Sequence[GaussianHypothesis],
) -> np.ndarray:
    """``detect_moments(m_hat, scatter, n, hyps) != 1`` for arrays, without the labels.

    A strictly narrowest center is first in the sigma order and wins ties,
    so a chip is kept where a*u + b*x + c > 0 for one of
    :func:`_center_quadratics`: no cost is evaluated, and the chips so far
    out that every cost overflows to +inf, which ``argmin`` gives the
    center, are kept.  Otherwise the mask is read off the labels.
    """
    quadratics = _center_quadratics(hyps)
    if quadratics is None:
        return detect_moments(m_hat, scatter, n, hyps) != 1
    m1, quads = quadratics
    x = np.asarray(m_hat, dtype=float) - m1
    u = np.asarray(scatter, dtype=float) / n + x * x
    keep = np.zeros(u.shape, dtype=bool)
    for a, b, c in quads:
        keep |= a * u + b * x + c > 0.0
    return keep


def ml_center_band(hyps: Sequence[GaussianHypothesis]) -> tuple[float, float]:
    """ML's center band ``(lo, hi)``: :func:`ml_keep` keeps every chip with
    m_hat < lo or m_hat > hi, whatever its S >= 0 and its n.

    The band is where both quadratics of :func:`_center_quadratics` are
    negative at S = 0 (u = x^2); each is convex with c < 0, so m1 lies
    between its two real roots, and a > 0 only raises it with S.  Each
    edge is widened by ``_BAND_MARGIN`` of its distance from m1, which
    raises the quadratic there by at least that fraction of |c|, far above
    the rounding, and of |m1|, the rounding of the edge.  Where the center
    is not strictly the narrowest, the whole line.
    """
    quadratics = _center_quadratics(hyps)
    if quadratics is None:
        return -math.inf, math.inf
    m1, quads = quadratics
    x_lo, x_hi = -math.inf, math.inf
    for a, b, c in quads:
        # q-form roots, immune to cancellation; q != 0 since b^2 - 4*a*c > b^2
        q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
        lo, hi = sorted((q / a, c / q))
        x_lo, x_hi = max(x_lo, lo), min(x_hi, hi)
    scale, pad = 1.0 + _BAND_MARGIN, _BAND_MARGIN * abs(m1)
    return m1 + x_lo * scale - pad, m1 + x_hi * scale + pad


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


def min_error_threshold(
    m_heavy: float,
    s_heavy: float,
    w_heavy: float,
    m_light: float,
    s_light: float,
    w_light: float,
) -> float | None:
    """Threshold between two weighted Gaussians minimizing the decision error.

    Solves the quadratic A*y^2 + B*y + C = 0 obtained from equating the two
    weighted densities, with A = 1 - s_heavy^2/s_light^2,
    B = -2*m_heavy + 2*(s_heavy^2/s_light^2)*m_light and
    C = m_heavy^2 - (s_heavy^2/s_light^2)*m_light^2
        - 2*s_heavy^2*ln(w_heavy*s_light/(w_light*s_heavy)).
    The root lying between the two means is selected and polished by a few
    Newton steps until the density-balance residual is at machine level.

    Returns None when no real root lies strictly between the means, so the
    caller chooses the fallback; degenerate zero-variance or equal-mean
    inputs return the midpoint.
    """
    lo, hi = min(m_heavy, m_light), max(m_heavy, m_light)
    if s_heavy <= 0.0 or s_light <= 0.0 or lo == hi:
        return 0.5 * (m_heavy + m_light)

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
        return None

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

