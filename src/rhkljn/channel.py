"""Raw common-voltage samples for one chip: the independent oracle.

Each party contributes a biased Johnson-noise source (DC bias plus thermal
noise of the selected resistor); the wire combines them through the
resistive divider, each source weighted by the *other* party's resistor:

    v = x * r_b/(r_a + r_b) + y * r_a/(r_a + r_b)

Samples within a chip are i.i.d. Gaussian given the four bits of the chip
state; the divider acts identically on bias and noise, which is what turns
the bias pair into the distinct middle-band means.  The exact moments come
from :func:`rhkljn.params.chip_moments` (``chip_moments(params, *state)``);
:func:`sample_chip` draws the two sources themselves, picking each party's
resistor and bias from the same ``params.resistors``/``params.biases``
tables, so it is an independent check of those moments.  No command runs
this module: sessions draw sufficient statistics, not raw samples.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .params import SystemParams


class ChipState(NamedTuple):
    """The four bits fixed for one chip: both mains and both sub-bits."""

    b_a: int
    b_b: int
    s_a: int
    s_b: int


def divider_weights(r_alice: float, r_bob: float) -> tuple[float, float]:
    """Divider weights (w_alice, w_bob); Alice's source is weighted by Bob's resistor.

    The weights are positive and sum to one.
    """
    if r_alice <= 0 or r_bob <= 0:
        raise ValueError(f"resistances must be > 0, got ({r_alice}, {r_bob})")
    total = r_alice + r_bob
    return r_bob / total, r_alice / total


def sample_chip(state: ChipState, n: int, rng: np.random.Generator, params: SystemParams) -> np.ndarray:
    """Draw ``n`` i.i.d. common-voltage samples for a chip.

    Each sample combines one fresh draw per party through the divider, all
    of Alice's draws before Bob's; the empirical mean and variance converge
    to ``chip_moments(params, *state)``.
    """
    for name, bit in zip(ChipState._fields, state):
        if bit not in (0, 1):
            raise ValueError(f"{name} must be 0 or 1, got {bit}")
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    bank, biases, a_v = params.resistors, params.biases, params.noise_var_per_ohm
    r_a, r_b = bank[state.b_a, state.s_a], bank[state.b_b, state.s_b]
    w_a, w_b = divider_weights(r_a, r_b)
    x = biases[state.b_a] + np.sqrt(a_v * r_a) * rng.standard_normal(n)
    y = biases[state.b_b] + np.sqrt(a_v * r_b) * rng.standard_normal(n)
    return w_a * x + w_b * y
