#!/usr/bin/env python3
# Sample the common voltage for a few chip states and compare the empirical
# moments against the closed forms; dump one chip to disk.

import tempfile
from pathlib import Path

import numpy as np

from rhkljn import SystemParams, chip_moments
from rhkljn.channel import ChipState, sample_chip

params = SystemParams()
rng = np.random.default_rng(0)

print("state (b_a,b_b,s_a,s_b)   closed-form mean/var      empirical mean/var")
for state in (ChipState(0, 0, 0, 1), ChipState(0, 1, 0, 1), ChipState(1, 0, 0, 1), ChipState(1, 1, 1, 1)):
    mean, var = chip_moments(params, *state)
    values = sample_chip(state, 200_000, rng, params)
    print(
        f"({state.b_a},{state.b_b},{state.s_a},{state.s_b})"
        f"   {mean:.4e} / {var:.4e}   {values.mean():.4e} / {values.var():.4e}"
    )

# the classical scheme separates cases by variance only; its bank is the
# sub-bit-0 column of the hopping bank
print("\nclassical variances:")
for case, (b_a, b_b) in (("00", (0, 0)), ("01or10", (0, 1)), ("11", (1, 1))):
    print(f"  {case}: {chip_moments(params, b_a, b_b, 0, 0)[1]:.4e}")

# raw-sample dump: little-endian float64 plus a key=value manifest that
# records the chip state, its index within the bit, the count and the seed
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "chip.f64"
    state = ChipState(0, 1, 1, 0)
    values = sample_chip(state, 20, rng, params)
    values.astype("<f8").tofile(path)
    manifest = path.with_name(path.name + ".manifest")
    fields = {**state._asdict(), "p": 3, "n": values.size, "seed": 0}
    manifest.write_text("".join(f"{key}={value}\n" for key, value in fields.items()))
    print("\ndump roundtrip ok:", np.array_equal(np.fromfile(path, dtype="<f8"), values))
    print(manifest.read_text())
