"""Walkthrough: the Monte-Carlo error harness.

Each simulation design knows its population covariance surface, and its
truth (``true_eigensystem``) is that surface's eigensystem: a closed-form
rank-3 kernel for the distribution design, and for the network design a
quadrature over the clamped edge weights, which is not exactly rank 3
(at T = 51 its fourth eigenvalue is about 3e-4, against 0.26 for the
first).  So estimation error can be measured against a known truth:
integrated squared error of the surface, of each (sign-aligned)
eigenfunction, and squared error of each eigenvalue, averaged over
repeated runs.

A full-size table uses runs=100 and n in {25, 50, 100}; this demo keeps
the run count small so it finishes in seconds.  The same table comes out
of the command line:

    ofpca mise --design dist --n 25,50,100 --runs 100 --out mise.csv
"""

import numpy as np

import ofpca as of

runs = 10
print(f"distribution design, {runs} runs per sample size")
truth = of.true_eigensystem(of.DistributionSimConfig(n=25, n_times=51))
print("truth eigenvalues:", truth.eigenvalues)
print(f"{'n':>5} {'MISE(C)':>10} {'MISE(phi1)':>11} {'MISE(lam1)':>11}")
for n in (25, 50, 100):
    cfg = of.DistributionSimConfig(n=n, n_times=51, m=100, seed=31)
    row = of.mise_report(cfg, runs=runs)
    print(f"{n:>5} {row['mise_c']:>10.3f} {row['mise_phi'][0]:>11.4f} "
          f"{row['mise_lambda'][0]:>11.4f}")

print("\nnetwork design")
truth = of.true_eigensystem(of.NetworkSimConfig(n=25, n_times=51))
print("truth eigenvalues:", np.round(truth.eigenvalues, 4))
print(f"{'n':>5} {'MISE(C)':>10} {'MISE(phi1)':>11} {'MISE(lam1)':>11}")
for n in (25, 50, 100):
    cfg = of.NetworkSimConfig(n=n, n_times=51, seed=31)
    row = of.mise_report(cfg, runs=runs)
    print(f"{n:>5} {row['mise_c']:>10.5f} {row['mise_phi'][0]:>11.4f} "
          f"{row['mise_lambda'][0]:>11.5f}")

print("\nfeeding the true surface into the eigen step (self-check) gives")
cfg = of.DistributionSimConfig(n=25, n_times=21, m=10, seed=0)
row = of.mise_report(cfg, runs=1, truth_debug=True)
print("MISE(C) =", row["mise_c"], " max MISE(lambda) =", row["mise_lambda"].max())
