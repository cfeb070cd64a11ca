"""Walkthrough: FPCA for time-varying probability distributions.

Each trajectory is a curve of Gaussian distributions represented by
quantile vectors; distances are 2-Wasserstein.  We estimate the metric
auto-covariance, read off its eigenstructure, and summarize every curve
by Frechet scores and by object principal components (which are
themselves distributions).
"""

import numpy as np

import ofpca as of

# ---------------------------------------------------------------------
# simulate a sample of distribution-valued curves
# ---------------------------------------------------------------------
cfg = of.DistributionSimConfig(n=200, n_times=51, m=100, seed=12345)
sample = of.simulate(cfg)
print(f"sample: n={sample.n} trajectories, T={sample.time_grid.size} time points, "
      f"space={sample.space.tag}(m={sample.space.dim})")

# ---------------------------------------------------------------------
# metric auto-covariance and its spectrum
# ---------------------------------------------------------------------
surface = of.estimate_cov_surface(sample)
es = of.eigendecompose(surface, k=4)
print("\ntop eigenvalues:", np.round(es.eigenvalues, 3))
print("population values (12, 6, 1.75, 0) for this design")
print("explained fractions:", np.round(es.explained_fractions, 4).tolist())
print("total variance (trace):", round(es.spectrum_total, 3))

# ---------------------------------------------------------------------
# Frechet mean curve: for quantile objects this is the pointwise
# average of the quantile vectors
# ---------------------------------------------------------------------
mean = of.frechet_mean_trajectory(sample)
mid = sample.time_grid.size // 2
print(f"\nmean distribution at t=0.5: median ~ {mean.values[mid, 50]:.3f} "
      f"(population mean curve is 1 + mixing, centered near 1)")

# ---------------------------------------------------------------------
# Frechet scores: projections of each curve's distance-to-mean profile
# ---------------------------------------------------------------------
scores = of.frechet_scores(sample, mean, es)
print("\nscore matrix:", scores.shape)
print("first three rows:\n", np.round(scores[:3], 4))

# ---------------------------------------------------------------------
# object principal components: Frechet integrals of one curve against
# the normalized eigenfunctions; they live in the quantile space
# ---------------------------------------------------------------------
phi1_star = of.normalize_eigenfunction(es, 1)
component = of.object_fpc(sample.trajectories[0], phi1_star)
print("\nobject component of trajectory 0 along direction 1:")
print("  quantile vector head:", np.round(component.data[:5], 3))
print("  monotone:", bool(np.all(np.diff(component.data) >= 0)))
