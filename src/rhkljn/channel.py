"""Common-voltage sampling for one chip interval.

Each party contributes a biased Johnson-noise source (DC bias plus thermal
noise of the selected resistor); the wire combines them through the
resistive divider, each source weighted by the *other* party's resistor:

    v = x * r_b/(r_a + r_b) + y * r_a/(r_a + r_b)

Samples within a chip are i.i.d. Gaussian given the four bits of the chip
state; the divider acts identically on bias and noise, which is what turns
the bias pair into the distinct middle-band means.  The exact moments come
from :func:`rhkljn.params.chip_moments`; :func:`sample_chip` draws the two
sources themselves, picking each party's resistor and bias from the same
``params.resistors``/``params.biases`` tables, so it is an independent
check of those moments.

Also provides the classical (bias-free) baseline statistics, whose
two-resistor bank is the sub-bit-0 column of the hopping bank.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .params import SystemParams, chip_moments


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


def chip_distribution(state: ChipState, params: SystemParams) -> tuple[float, float]:
    """Exact (mean, variance) of the common voltage for a chip state.

    Matches the corresponding mixture-table entry of the derived statistics.
    """
    mean, var = chip_moments(params, state.b_a, state.b_b, state.s_a, state.s_b)
    return float(mean), float(var)


def sample_chip(state: ChipState, n: int, rng: np.random.Generator, params: SystemParams) -> ChipSamples:
    """Draw ``n`` i.i.d. common-voltage samples for a chip.

    Each sample combines one fresh draw per party through the divider; the
    empirical mean and variance converge to :func:`chip_distribution`.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    bank, biases, a_v = params.resistors, params.biases, params.noise_var_per_ohm
    r_a, r_b = bank[state.b_a, state.s_a], bank[state.b_b, state.s_b]
    w_a, w_b = divider_weights(r_a, r_b)
    x = biases[state.b_a] + np.sqrt(a_v * r_a) * rng.standard_normal(n)
    y = biases[state.b_b] + np.sqrt(a_v * r_b) * rng.standard_normal(n)
    return ChipSamples(values=w_a * x + w_b * y, state=state)


_CLASSICAL_MAINS = {"00": (0, 0), "01or10": (0, 1), "11": (1, 1)}


def classical_kljn_variance(case: str, params: SystemParams) -> float:
    """Common-voltage variance of the classical bias-free scheme.

    The classical bank is the hopping bank at sub-bit 0, (r_l0, alpha*r_l0),
    and the variance does not depend on the bias.  The three cases order
    as var("11") > var("01or10") > var("00") for alpha > 1.
    """
    if case not in _CLASSICAL_MAINS:
        raise ValueError(f"case must be one of {tuple(_CLASSICAL_MAINS)}, got {case!r}")
    return float(chip_moments(params, *_CLASSICAL_MAINS[case], 0, 0)[1])


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
