#!/usr/bin/env python3
"""Distribution of the event count N(t): limit comparisons.

No closed form is available for P(N(t)=k), so the histograms come from
simulation.  Two limits anchor them:

* weak excitation (alpha = 0.01): the count is close to Poisson(lambda0*t);
* beta close to 1: the process is close to the exponential-kernel one.

At strong excitation (alpha = 0.5) the Poisson picture breaks down, which
the chi-square test makes quantitative.  Prints the comparisons only;
``fhawkes dist --compare ... --out table.csv`` writes a histogram table.
"""

from fhawkes import ModelParams
from fhawkes.harness import count_distributions

REPLICAS = 2000
TIMES = (1.0, 5.0, 10.0)

print("weak excitation: total-variation distance to Poisson(lambda0*t)")
for beta in (0.5, 0.9):
    p = ModelParams(1.0, 0.01, beta, 1.0)
    for d, ref in count_distributions(p, TIMES, REPLICAS, 616, "poisson"):
        print(f"  beta={beta}, t={d.t:4.1f}: TV = {d.tv_distance(ref):.4f}")

print("\nnear-exponential kernel: TV distance to the exponential-kernel process")
for alpha in (0.1, 0.5):
    p = ModelParams(1.0, alpha, 0.99, 1.0)
    for d, ref in count_distributions(p, TIMES, REPLICAS, 617, "exp_hawkes"):
        print(f"  alpha={alpha}, t={d.t:4.1f}: TV = {d.tv_distance(ref):.4f}")

print("\nstrong excitation: chi-square against the Poisson reference")
for beta in (0.5, 0.9):
    p = ModelParams(1.0, 0.5, beta, 1.0)
    for d, ref in count_distributions(p, (5.0, 10.0), REPLICAS, 618, "poisson"):
        stat, pvalue, dof = d.chi_square(ref)
        print(
            f"  beta={beta}, t={d.t:4.1f}: chi2 = {stat:9.1f} on {dof} cells, "
            f"p = {pvalue:.2e}  -> Poisson rejected"
        )
