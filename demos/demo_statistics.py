#!/usr/bin/env python3
# Walk through the closed-form statistics of the hopping scheme:
# resistor bank, middle-band Gaussians, separability margin.

from rhkljn import SystemParams
from rhkljn.params import check_separability, derive_stats, drif, fine_tuned_bias

params = SystemParams()  # the reference configuration
print("resistor bank:", params.r_l0, params.r_l1, params.r_h0, params.r_h1)
print("biases: m_l =", params.m_l, " m_h =", params.m_h)
print("noise variance per ohm:", params.noise_var_per_ohm)

stats = derive_stats(params)
print("\nmiddle-band means  :", stats.m2, "<", stats.m1, "<", stats.m3)
print("middle-band sigmas :", stats.sigma1, stats.sigma2, stats.sigma3)
print("gate thresholds    :", stats.th1, stats.th2)
print("simple thresholds  :", stats.th3, stats.th4)
print("optimum thresholds :", stats.th3_opt, stats.th4_opt)

# the separability coefficients bound the bias from below, by 3-sigma rules
# on per-sample spreads; the reference bias sits at about half that bound,
# but the detectors read the mean of 20 samples, on which its margin is
# sqrt(20) times larger, and that margin is the verdict
print("\nk coefficients:", stats.k1, stats.k2, stats.k3, stats.k4)
print(check_separability(params, stats))

tuned = params.replace(m_l=fine_tuned_bias(params))
print("fine-tuned bias:", tuned.m_l)
print(check_separability(tuned, derive_stats(tuned)))

# hopping carries half the sub-bits on top of half the main bits
print("\ndata-rate improvement factor at P=10:", drif(params.chips_per_bit))
