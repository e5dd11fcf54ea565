#!/usr/bin/env python3
"""Expected number of events: closed form, numerical inversion, and
Monte Carlo means side by side.

``E[N(t)]`` grows like ``lambda0*t/(1-alpha)`` for large t, with a
sub-linear memory correction.  Three independent routes are compared on
t = 1..10: the Mittag-Leffler closed form, the numerical inversion of the
expected-count image, and thinning-simulation means.

Smaller replica counts than the validation suite: this is a walkthrough,
not the gate.  Writes one curve table per gamma into ``out/``.
"""

import pathlib

import numpy as np

from fhawkes import ModelParams, expected_n, expected_n_half
from fhawkes.harness import count_matrix, expected_n_ilt_curve, mean_and_se
from fhawkes.io import write_curves_csv

OUT = pathlib.Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

REPLICAS = 2000
times = np.arange(1.0, 11.0)

for beta in (0.5, 0.99):
    print(f"\nbeta = {beta}: MC over {REPLICAS} replicas vs closed form vs inversion")
    for gamma in (0.1, 0.8, 1.7):
        p = ModelParams(lambda0=1.0, alpha=0.1, beta=beta, gamma=gamma)
        mc, se = mean_and_se(count_matrix(p, times, REPLICAS, seed=515))
        exact = expected_n(times, p)
        if beta == 0.5:
            assert np.allclose(expected_n_half(times, p), exact, rtol=1e-9)
        via_ilt = expected_n_ilt_curve(p, times)
        worst = np.max(np.abs(mc - exact) / se)
        print(
            f"  gamma={gamma:4.1f}: E[N(10)] exact={exact[-1]:7.3f} "
            f"ilt={via_ilt[-1]:7.3f} mc={mc[-1]:7.3f}+-{se[-1]:.3f} "
            f"(max dev {worst:.2f} se)"
        )
        write_curves_csv(
            OUT / f"expected_n_beta{beta}_gamma{gamma}.csv",
            {"t": times, "mc_mean": mc, "mc_se": se, "exact": exact, "ilt": via_ilt},
        )

print(f"\ncurve tables written to {OUT}")
