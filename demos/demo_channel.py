#!/usr/bin/env python3
# Sample the common voltage for a few chip states and compare the empirical
# moments against the closed forms; dump one chip to disk.

import tempfile
from pathlib import Path

import numpy as np

from rhkljn import SystemParams
from rhkljn.channel import (
    ChipState,
    chip_distribution,
    classical_kljn_variance,
    dump_chip_samples,
    load_chip_samples,
    sample_chip,
)

params = SystemParams()
rng = np.random.default_rng(0)

print("state (b_a,b_b,s_a,s_b)   closed-form mean/var      empirical mean/var")
for state in (ChipState(0, 0, 0, 1), ChipState(0, 1, 0, 1), ChipState(1, 0, 0, 1), ChipState(1, 1, 1, 1)):
    mean, var = chip_distribution(state, params)
    values = sample_chip(state, 200_000, rng, params).values
    print(
        f"({state.b_a},{state.b_b},{state.s_a},{state.s_b})"
        f"   {mean:.4e} / {var:.4e}   {values.mean():.4e} / {values.var():.4e}"
    )

# the classical scheme separates cases by variance only
print("\nclassical variances:")
for case in ("00", "01or10", "11"):
    print(f"  {case}: {classical_kljn_variance(case, params):.4e}")

# raw-sample dump: little-endian float64 plus a text manifest
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "chip.f64"
    samples = sample_chip(ChipState(0, 1, 1, 0, p=3), 20, rng, params)
    dump_chip_samples(samples, path, seed=0)
    print("\ndump roundtrip ok:", np.array_equal(load_chip_samples(path), samples.values))
    print((path.with_name(path.name + ".manifest")).read_text())
