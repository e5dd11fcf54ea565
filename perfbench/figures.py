#!/usr/bin/env python3
"""Reference figures quoted in perfbench/README.md (about one minute):

    python3 perfbench/figures.py

* one ``intensity()`` call at the end of a long H = 1000 path, at gamma = 1
  and gamma = 20;
* ``prabhakar`` on 1k arguments per shape, for z spread over [-1e4, -1e-3]
  and for z in [-40, 5];
* one kernel-table build (first thinning path) at H = 100 and H = 1000.
"""

import sys
import time

import run  # sets the thread pins and the paths

if not run.use_checkout_sources():
    sys.exit(2)

import numpy as np  # noqa: E402

from fhawkes import simulate, special  # noqa: E402
from fhawkes.analytics import ModelParams  # noqa: E402
from wl_curves import band_z  # noqa: E402


def seconds(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def main():
    for gamma in (1.0, 20.0):
        p = ModelParams(1.0, 0.5, 0.5, gamma)
        path = simulate.simulate_cluster(p, 1000.0, seed=1)
        dt = seconds(simulate.intensity, 1000.0, path, p)
        print(f"intensity() at t=1000 after {len(path)} events, gamma={gamma:g}: "
              f"{dt * 1e3:.0f} ms")

    rng = np.random.default_rng(1)
    spread = -np.exp(rng.uniform(np.log(1e-3), np.log(1e4), 1000))
    for shape in ((0.5, 1.0, 1.0), (0.9, 0.9, 1.0), (0.5, 2.0, 1.0), (0.7, 1.3, 2.0)):
        a = seconds(special.prabhakar, *shape, spread)
        b = seconds(special.prabhakar, *shape, band_z(rng, 1000, shape))
        print(f"prabhakar{shape} on 1k args: z in [-1e4, -1e-3] {a * 1e3:.0f} ms, "
              f"z in [-40, 5] {b * 1e3:.0f} ms")

    p = ModelParams(1.0, 0.5, 0.5, 1.0)
    for h in (100.0, 1000.0):
        first = seconds(simulate.simulate_thinning, p, h * 1.0007, 1, 0)
        again = seconds(simulate.simulate_thinning, p, h * 1.0007, 1, 1)
        print(f"thinning at H={h:g}: first path {first * 1e3:.0f} ms (builds the "
              f"kernel table), next path {again * 1e3:.0f} ms")


if __name__ == "__main__":
    main()
