#!/usr/bin/env python3
"""Expected intensity of the process: closed forms against numerical
Laplace inversion.

The expected intensity rises from the baseline rate ``lambda0`` toward the
stationary level ``lambda0 / (1 - alpha)``; the memory exponent ``beta``
controls how heavy the approach is.  For ``beta = 1/2`` there is a scaled-
erfc closed form; for general ``beta`` a one-parameter Mittag-Leffler one.
Both are checked here against inverting the transform
``(lambda0/s) * (gamma + s^beta) / ((1-alpha)*gamma + s^beta)`` numerically.

Writes one curve table per (beta, gamma) into ``out/``.
"""

import pathlib

import numpy as np

from fhawkes import ModelParams, lambda_exact, lambda_exact_half, lambda_image, ilt_grid
from fhawkes.io import write_curves_csv

OUT = pathlib.Path(__file__).resolve().parent / "out"
OUT.mkdir(exist_ok=True)

t = np.geomspace(0.05, 50.0, 200)

ps = [
    ModelParams(lambda0=1.0, alpha=0.1, beta=beta, gamma=gamma)
    for beta in (0.5, 0.9)
    for gamma in (0.1, 0.8, 1.7)
]
# the six images share one contour per time: one inversion call for all
numerics, _ = ilt_grid(lambda_image(*ps), t)

print(f"{'beta':>5} {'gamma':>6} {'max |ilt-exact|/exact':>22}")
for p, numeric in zip(ps, numerics):
    exact = lambda_exact(t, p)
    if p.beta == 0.5:
        # the scaled-erfc form agrees to ~1e-14
        assert np.max(np.abs(lambda_exact_half(t, p) - exact) / exact) < 1e-9
    rel = np.max(np.abs(numeric - exact) / exact)
    print(f"{p.beta:5.2f} {p.gamma:6.2f} {rel:22.3e}")
    write_curves_csv(
        OUT / f"lambda_beta{p.beta}_gamma{p.gamma}.csv",
        {"t": t, "exact": exact, "ilt": numeric},
    )

print(f"\ncurve tables written to {OUT}")
