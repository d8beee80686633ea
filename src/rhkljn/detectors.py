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
* optimum       -- the minimum-error thresholds of the center, at prior
                   1/2, against each other hypothesis, at 1/4:
                   ``min_error_threshold``, a root of ML's center quadratic
                   at S = 0 shifted by ln 2; the weighted errors they
                   minimise are oracles in :mod:`rhkljn.exact`.

The gate and both threshold detectors are one interval rule on m_hat,
:class:`ThresholdSet`.  The tally reads keep masks, built without labels:
``ThresholdSet.keep`` and ``ml_keep``, the mask of ``detect_moments``
labels other than 1: where the center is strictly the narrowest, the sign
of one quadratic per other hypothesis in (m_hat - m1, S/n + (m_hat - m1)^2),
whose roots at S = 0 give ``ml_center_band``, outside which ML keeps a chip
whatever its S; otherwise the labels themselves.  Inside the band,
``ml_core`` is the interval where ML discards a chip at every S it draws
but with probability at most ``ML_CORE_TAIL``: the band's quadratics
lifted by a Chernoff bound on S's tail.  The session engine scores only
the band's two shells outside that core.  Those quadratics are the one
unequal-variance boundary of the module (``_boundary``) and ``_q`` its one
root formula, for the band, its core and the optimum thresholds alike.
``q_function`` takes a scalar.

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
_LN2 = math.log(2.0)


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


def _boundary(center: GaussianHypothesis, other: GaussianHypothesis) -> tuple[float, float, float]:
    """``(a, b, c)``: with x = m_hat - m1 and u = S/n + x^2, the center's cost
    less ``other``'s, over n, is a*u + b*x + c, the unequal-variance Gaussian
    quadratic boundary: a = 1/(2*sigma1^2) - 1/(2*sigma_o^2),
    b = (m_o - m1)/sigma_o^2 and c = ln(sigma1/sigma_o) - (m_o - m1)^2/(2*sigma_o^2),
    so a >= 0 and c <= 0 wherever sigma1 <= sigma_o.

    The mean gap is taken in sigma_o units, r = (m_o - m1)/sigma_o, so that
    b = r/sigma_o and c = ln(sigma1/sigma_o) - r^2/2 overflow only where r
    does.  Raises :class:`~rhkljn.params.InvalidParamsError` unless all
    three are finite: every caller, and the core's lift of c, needs them so.
    """
    r = (other.mean - center.mean) / other.std
    # divided twice, not by a square that can underflow to 0
    a = 0.5 / center.std / center.std - 0.5 / other.std / other.std
    b, c = r / other.std, math.log(center.std / other.std) - 0.5 * r * r
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        from .params import InvalidParamsError  # params imports this module

        raise InvalidParamsError(
            f"the ML boundary of the center against hypothesis {other.label} is not finite: "
            "its mean gap is too wide, or a variance too small, for double precision"
        )
    return a, b, c


def _q(a: float, b: float, c: float) -> float:
    """q = -(b + sign(b)*sqrt(b^2 - 4*a*c))/2 for a >= 0 > c, so that the
    roots of a*x^2 + b*x + c, which straddle 0, are q/a and c/q, the one on
    b's side, immune to cancellation.  The square root is a hypot, which
    overflows only where a or c does (b^2 overflows past |b| = 1e154)."""
    return -0.5 * (b + math.copysign(math.hypot(b, 2.0 * math.sqrt(a) * math.sqrt(-c)), b))


def _center_quadratics(hyps: Sequence[GaussianHypothesis]) -> tuple[float, list] | None:
    """``(m1, [(a, b, c), ...])``, the :func:`_boundary` of the center
    against each other hypothesis, or ``None`` unless the center is strictly
    the narrowest (a sigma of 0, or variances within a relative
    ``_BAND_MARGIN``: the point masses, beta = 1), where every a > 0.
    """
    center = next(h for h in hyps if h.label == 1)
    others = [h for h in hyps if h.label != 1]
    var_c = center.std**2
    if var_c == 0.0 or any(h.std**2 * (1.0 - _BAND_MARGIN) <= var_c for h in others):
        return None
    return center.mean, [_boundary(center, h) for h in others]


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


def _inner_interval(quads: list, lift: float) -> tuple[float, float] | None:
    """``(x_lo, x_hi)``, where every a*x^2 + b*x + c + a*lift <= 0, each
    quadratic's roots from :func:`_q`; ``None`` where a lifted c is >= 0,
    so that no x is."""
    x_lo, x_hi = -math.inf, math.inf
    for a, b, c in quads:
        c += a * lift
        if c >= 0.0:
            return None
        q = _q(a, b, c)  # != 0 since a*c < 0
        lo, hi = sorted((q / a, c / q))
        x_lo, x_hi = max(x_lo, lo), min(x_hi, hi)
    return x_lo, x_hi


def _edges(m1: float, x_lo: float, x_hi: float, margin: float) -> tuple[float, float]:
    """``(m1 + x_lo, m1 + x_hi)``, each edge moved out by ``margin`` of its
    distance from m1 and of |m1| (in, for a negative ``margin``)."""
    scale, pad = 1.0 + margin, margin * abs(m1)
    return m1 + x_lo * scale - pad, m1 + x_hi * scale + pad


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
    return _edges(m1, *_inner_interval(quads, 0.0), _BAND_MARGIN)


ML_CORE_TAIL = 2.0**-100
"""The probability below which :func:`ml_core` takes ML's discard as
certain.  A chip in the core is discarded without an S: if its state's
sample mean reaches ML's band with probability at least this, a drawn S
would have made ML keep it with probability at most this; any other
state reaches the band with probability below it.  So, against drawing
every S, ML's keep probability of a chip moves by less than
2 * ML_CORE_TAIL = 2^-99."""


def _gamma_tail_point(k: float) -> float:
    """The g > k where Chernoff's bound on a Gamma(k) tail, P(G >= g) <=
    (g/k)^k * e^(k - g), equals :data:`ML_CORE_TAIL`; 0 at k = 0, where G = 0.

    Newton's method on the bound's logarithm, concave and falling in g > k,
    from g = 2*(k*ln 2 - ln tail), the root of the looser bound at t = 1/2:
    started above the root, each step stays above it, where the bound is
    at most the tail."""
    if k == 0.0:
        return 0.0
    log_tail = math.log(ML_CORE_TAIL)
    g = 2.0 * (k * _LN2 - log_tail)
    while True:
        step = (k * math.log(g / k) + k - g - log_tail) / (k / g - 1.0)
        g -= step
        if step <= 1e-12 * g:
            return g


def ml_core(hyps: Sequence[GaussianHypothesis], n: int, state_means, state_variances) -> tuple[float, float]:
    """ML's certain-discard core ``(lo, hi)`` at ``n`` samples a chip: a
    chip with lo <= m_hat <= hi is discarded by ML at every S but with
    probability at most :data:`ML_CORE_TAIL`.  Empty, with lo > hi, where
    the center is not strictly the narrowest or no S is that certain.

    ML discards a chip exactly where S <= n*T(m_hat), with T(m1 + x) the
    least over :func:`_center_quadratics` of -(a*x^2 + b*x + c)/a.  A chip
    of state variance var has S = var*2*G, G ~ Gamma((n - 1)/2), so
    P(S > n*s_cap) <= ML_CORE_TAIL for var <= var_cap, at
    s_cap = 2*var_cap*g/n with g from :func:`_gamma_tail_point`.  var_cap is
    the largest of the ``state_variances`` whose m_hat ~ N(mean, var/n)
    lands in :func:`ml_center_band` with probability at least the tail,
    bounded by the normal tail past the band's nearer edge.  The core is
    {T >= s_cap}, the band with every c raised by a*s_cap; its edges are
    pulled in by ``_BAND_MARGIN`` as the band's are pushed out.
    """
    quadratics = _center_quadratics(hyps)
    if quadratics is None:
        return math.inf, -math.inf
    m1, quads = quadratics
    band_lo, band_hi = ml_center_band(hyps)
    var_cap = 0.0
    for mean, var in zip(state_means.tolist(), state_variances.tolist()):
        gap = max(band_lo - mean, mean - band_hi)
        if gap <= 0.0 or q_function(gap / math.sqrt(var / n)) >= ML_CORE_TAIL:
            var_cap = max(var_cap, var)
    inner = _inner_interval(quads, 2.0 * var_cap * _gamma_tail_point(0.5 * (n - 1)) / n)
    if inner is None:
        return math.inf, -math.inf
    return _edges(m1, *inner, -_BAND_MARGIN)


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


def min_error_threshold(center: GaussianHypothesis, other: GaussianHypothesis) -> float | None:
    """The threshold between the center, at prior 1/2, and ``other``, at 1/4,
    that minimizes the weighted decision error.

    The priors shift the :func:`_boundary` at S = 0 and n = 1 to
    a*x^2 + b*x + c - ln 2 = 0, with x = y - m1; the threshold is its root
    on ``other``'s side of m1, y = m1 + (c - ln 2)/q.  That root exists
    wherever center.std <= other.std, which every beta >= 1 gives the middle
    band (a >= 0 and c - ln 2 < 0), and stays finite at a = 0 (beta = 1),
    where it is the linear root.

    Returns None when the root is not strictly between the means, so the
    caller chooses the fallback; a zero std or equal means give the midpoint.
    """
    m1, m_o = center.mean, other.mean
    if center.std <= 0.0 or other.std <= 0.0 or m1 == m_o:
        return 0.5 * (m1 + m_o)
    a, b, c = _boundary(center, other)
    # where the variances tie (beta -> 1), rounding can leave a below 0
    y = m1 + (c - _LN2) / _q(max(a, 0.0), b, c - _LN2)
    return y if min(m1, m_o) < y < max(m1, m_o) else None
