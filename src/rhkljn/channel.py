"""Common-voltage sampling for one chip interval.

Each party contributes a biased Johnson-noise source (DC bias plus thermal
noise of the selected resistor); the wire combines them through the
resistive divider, each source weighted by the *other* party's resistor:

    v = x * r_b/(r_a + r_b) + y * r_a/(r_a + r_b)

Samples within a chip are i.i.d. Gaussian given the four bits of the chip
state; the divider acts identically on bias and noise, which is what turns
the bias pair into the distinct middle-band means.

Also provides the classical (bias-free, two-resistor) baseline statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .params import SystemParams


@dataclass(frozen=True)
class ChipState:
    """The four bits fixed for one chip: both mains and both sub-bits."""

    b_a: int
    b_b: int
    s_a: int
    s_b: int
    p: int = 1
    """Chip index within the bit, 1..chips_per_bit."""

    def __post_init__(self) -> None:
        for name in ("b_a", "b_b", "s_a", "s_b"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {getattr(self, name)}")
        if self.p < 1:
            raise ValueError(f"chip index must be >= 1, got {self.p}")


@dataclass(frozen=True)
class NoiseSource:
    """One party's source for a chip: DC bias plus thermal noise of ``resistor``."""

    bias: float
    std: float
    resistor: float


@dataclass(frozen=True)
class ChipSamples:
    """The voltages observed during one chip; ``state`` is bookkeeping only.

    Detectors must never look at ``state``: it is hidden from the opposite
    party and from the eavesdropper.
    """

    values: np.ndarray
    state: ChipState

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def divider_weights(r_alice: float, r_bob: float) -> tuple[float, float]:
    """Divider weights (w_alice, w_bob); Alice's source is weighted by Bob's resistor.

    The weights are positive and sum to one.
    """
    if r_alice <= 0 or r_bob <= 0:
        raise ValueError(f"resistances must be > 0, got ({r_alice}, {r_bob})")
    total = r_alice + r_bob
    return r_bob / total, r_alice / total


def noise_sources(state: ChipState, params: SystemParams) -> tuple[NoiseSource, NoiseSource]:
    """The two parties' sources for a chip state."""
    a_v = params.noise_var_per_ohm

    def source(main: int, sub: int) -> NoiseSource:
        r = params.resistor(main, sub)
        return NoiseSource(bias=params.bias(main), std=np.sqrt(a_v * r), resistor=r)

    return source(state.b_a, state.s_a), source(state.b_b, state.s_b)


def divider_moments(r_a, r_b, bias_a, bias_b, noise_var_per_ohm):
    """(mean, variance) of the common voltage for given resistors and biases.

    Accepts scalars or broadcastable arrays, so one formula serves a single
    chip state and a whole chunk of chips.  Each source is weighted by the
    other party's resistor; the thermal variances add through the squared
    weights.
    """
    total = r_a + r_b
    w_a = r_b / total
    w_b = r_a / total
    mean = w_a * bias_a + w_b * bias_b
    var = w_a**2 * (noise_var_per_ohm * r_a) + w_b**2 * (noise_var_per_ohm * r_b)
    return mean, var


def chip_distribution(state: ChipState, params: SystemParams) -> tuple[float, float]:
    """Exact (mean, variance) of the common voltage for a chip state.

    Matches the corresponding mixture-table entry of the derived statistics.
    """
    return divider_moments(
        params.resistor(state.b_a, state.s_a),
        params.resistor(state.b_b, state.s_b),
        params.bias(state.b_a),
        params.bias(state.b_b),
        params.noise_var_per_ohm,
    )


def sample_chip(state: ChipState, n: int, rng: np.random.Generator, params: SystemParams) -> ChipSamples:
    """Draw ``n`` i.i.d. common-voltage samples for a chip.

    Each sample combines one fresh draw per party through the divider; the
    empirical mean and variance converge to :func:`chip_distribution`.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    src_a, src_b = noise_sources(state, params)
    w_a, w_b = divider_weights(src_a.resistor, src_b.resistor)
    x = src_a.bias + src_a.std * rng.standard_normal(n)
    y = src_b.bias + src_b.std * rng.standard_normal(n)
    return ChipSamples(values=w_a * x + w_b * y, state=state)


_CLASSICAL_CASES = ("00", "01or10", "11")


def classical_kljn_variance(case: str, params: SystemParams) -> float:
    """Common-voltage variance of the classical bias-free scheme.

    Uses the two-resistor bank (r_l0, alpha*r_l0).  The three cases order
    as var("11") > var("01or10") > var("00") for alpha > 1.
    """
    if case not in _CLASSICAL_CASES:
        raise ValueError(f"case must be one of {_CLASSICAL_CASES}, got {case!r}")
    a_v = params.noise_var_per_ohm
    r_l = params.r_l0
    if case == "00":
        return a_v * r_l / 2.0
    if case == "11":
        return a_v * params.alpha * r_l / 2.0
    return a_v * params.alpha / (params.alpha + 1.0) * r_l


def sample_classical_chip(
    case: str, n: int, rng: np.random.Generator, params: SystemParams
) -> np.ndarray:
    """Zero-mean Gaussian samples at the classical-case variance."""
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    std = np.sqrt(classical_kljn_variance(case, params))
    return std * rng.standard_normal(n)


def dump_chip_samples(samples: ChipSamples, path, seed=None) -> None:
    """Write one chip to disk for offline inspection.

    ``path`` receives the raw samples as little-endian float64; a sidecar
    ``path + '.manifest'`` records the chip state, the seed used (if any)
    and the sample count as flat key=value text.
    """
    path = Path(path)
    samples.values.astype("<f8").tofile(path)
    state = samples.state
    manifest = path.with_name(path.name + ".manifest")
    lines = [
        f"b_a={state.b_a}",
        f"b_b={state.b_b}",
        f"s_a={state.s_a}",
        f"s_b={state.s_b}",
        f"p={state.p}",
        f"n={samples.values.size}",
        f"seed={'' if seed is None else seed}",
    ]
    manifest.write_text("\n".join(lines) + "\n")


def load_chip_samples(path) -> np.ndarray:
    """Read back a raw-sample dump written by :func:`dump_chip_samples`."""
    return np.fromfile(Path(path), dtype="<f8")
