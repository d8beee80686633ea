#!/usr/bin/env python3
# The eavesdropper's view of one chip, her aggregate accuracy over a
# session, and the physical-layer-security report.

import numpy as np

from rhkljn import (
    ChipState,
    ProtocolConfig,
    ResistorTolerance,
    SystemParams,
    build_report,
    derive_stats,
    eve_observe,
    run_session,
    sample_chip,
    sop,
)

params = SystemParams()
stats = derive_stats(params)
rng = np.random.default_rng(5)

# an all-low chip is obvious to Eve (that is why the protocol discards it)
obs = eve_observe(sample_chip(ChipState(0, 0, 1, 0), 20, rng, params), stats)
print("all-low chip  -> Eve's main-bit posterior:", {k: round(v, 4) for k, v in obs.posterior_main.items()})

# a kept mixed chip leaves her two explanations exactly balanced
obs = eve_observe(sample_chip(ChipState(0, 1, 0, 1), 20, rng, params), stats, rng=rng)
print("secure chip   -> Eve's main-bit posterior:", {k: round(v, 4) for k, v in obs.posterior_main.items()})
print("her guess is a coin flip:", obs.guess_main)

# over a session her accuracy on exchanged chips stays at chance
tally = run_session(20_000, ProtocolConfig.from_params(params), seed=5)["optimum"]
print(f"\nsession: kept={tally.kept_chips} eve accuracy={tally.eve_correct_fraction:.4f}")
print(f"discard fraction={tally.discard_fraction:.4f} (ideal 0.75)")

# the security report: capacity, rates, Eve advantage, outage
report = build_report(params, stats, xi=tally.discard_fraction)
print("\n" + report.as_text())

# outage under resistor tolerance, just below the nominal margin
margin = report.delta_m / (2 * report.sigma_max)
for width in (0.02, 0.06, 0.12):
    p_out = sop(stats, margin * 0.98, perturbation=ResistorTolerance(width),
                trials=4_000, params=params, seed=5)
    print(f"outage at {width:.0%} resistor tolerance: {p_out:.3f}")
