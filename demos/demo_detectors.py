#!/usr/bin/env python3
# Compare the three middle-band detectors on simulated chips and show what
# the optimum threshold buys over the naive midpoint.

import numpy as np

from rhkljn import SystemParams
from rhkljn.detectors import ml_detect_batch
from rhkljn.exact import pe1, pe2
from rhkljn.params import derive_stats

params = SystemParams(m_l=2.5e-5)  # small bias: the Gaussians overlap visibly
stats = derive_stats(params)
hyps = stats.middle_hypotheses()

print("means :", stats.m2, stats.m1, stats.m3)
print("sigmas:", stats.sigma1, stats.sigma2, stats.sigma3)
print("simple thresholds :", stats.th3, stats.th4)
print("optimum thresholds:", stats.th3_opt, stats.th4_opt)
print("pe1 midpoint vs optimum:", pe1(stats.th3, hyps), pe1(stats.th3_opt, hyps))
print("pe2 midpoint vs optimum:", pe2(stats.th4, hyps), pe2(stats.th4_opt, hyps))

# draw mixed-state chips (true label known) and classify with each detector;
# a single sample per chip keeps the Gaussians overlapping enough to see
# the detectors actually differ
rng = np.random.default_rng(1)
chips, n = 50_000, 1
moments = {1: (stats.m1, stats.sigma1), 2: (stats.m2, stats.sigma2), 3: (stats.m3, stats.sigma3)}
truth = rng.choice([1, 2, 3], size=chips, p=[0.5, 0.25, 0.25])
mean = np.array([moments[g][0] for g in truth])
std = np.array([moments[g][1] for g in truth])
values = mean[:, None] + std[:, None] * rng.standard_normal((chips, n))
m_hat = values.mean(axis=1)

ml = ml_detect_batch(values, hyps)
# the threshold labels are the interval rule's, without its gate
thresholds = stats.thresholds()
simple = thresholds.label(m_hat, "simple")
optimum = thresholds.label(m_hat, "optimum")
for name, labels in (("ml", ml), ("simple", simple), ("optimum", optimum)):
    print(f"{name:8s} misclassification: {np.mean(labels != truth):.4f}")
