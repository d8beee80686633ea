#!/usr/bin/env python3
# Run full exchange sessions: error rate versus the per-chip sample count,
# then the rate-matched comparison against the classical scheme.

import sys

from rhkljn import SweepSpec, SystemParams, run_compare, run_sweep, write_csv

base = SystemParams()

# the hopping scheme's error rate collapses quickly with the sample count;
# three detectors share one noise realization per grid point
spec = SweepSpec(
    swept_parameter="n",
    values=(2.0, 3.0, 5.0, 10.0),
    detectors=("ml", "simple", "optimum"),
    scenarios=("good", "moderate"),
    num_bits=20_000,
    master_seed=7,
)
rows = run_sweep(spec, base)
print("per-chip samples vs error rate:")
for row in rows:
    if row.detector == "optimum":
        print(
            f"  n={int(row.value):2d} {row.scenario:9s} bep={row.bep:.3e} "
            f"(errors={row.errors}, kept={row.kept_units})"
        )

# at the same physical sampling rate the classical variance detector gets
# all its samples in one bit duration and still loses by a wide margin
print("\nclassical vs hopping at matched rates (CSV):")
spec = SweepSpec(
    swept_parameter="rate",
    values=(3e4, 1e5),
    scenarios=("fine_tuned", "good"),
    num_bits=20_000,
    master_seed=7,
)
rows = run_compare(spec, base)
write_csv(rows, sys.stdout)
