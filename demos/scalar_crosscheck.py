"""Walkthrough: the scalar sanity checks behind the estimator.

For real-valued curves the metric machinery must reproduce textbook
answers: the pairwise-distance covariance estimator equals the unbiased
sample cross-covariance, metric correlation equals Pearson correlation,
and the trace equals the integrated pointwise variance.
"""

import numpy as np

import ofpca as of

rng = np.random.default_rng(2)
n, T = 40, 21
grid = np.linspace(0.0, 1.0, T)

# two smooth random directions plus noise
shapes = np.stack([np.sin(np.pi * grid), np.cos(2 * np.pi * grid)])
loadings = rng.normal(size=(n, 2)) * np.array([1.5, 0.7])
X = loadings @ shapes + 0.1 * rng.normal(size=(n, T))

space = of.SpaceKind("scalar", 1)
sample = of.ObjectSample(space, grid, X[..., None])

# 1. covariance surface == classical unbiased cross-covariance
surface = of.estimate_cov_surface(sample)
centered = X - X.mean(axis=0)
classical = centered.T @ centered / (n - 1)
print("max |U-statistic - classical covariance| =",
      f"{np.abs(surface.values - classical).max():.2e}")

# 2. trace (the sum of all T eigenvalues) == integrated pointwise variance
lhs = of.eigendecompose(surface, k=T).spectrum_total
rhs = float(np.dot(surface.quad_weights, X.var(axis=0, ddof=1)))
print(f"trace {lhs:.6f} vs integrated variance {rhs:.6f}")

# 3. metric correlation == Pearson correlation on paired scalars
u = [of.ObjectPoint(space, [v]) for v in X[:, 3]]
v = [of.ObjectPoint(space, [v]) for v in X[:, 15]]
rho = of.metric_correlation(u, v)
pearson = np.corrcoef(X[:, 3], X[:, 15])[0, 1]
print(f"metric correlation {rho:.6f} vs Pearson {pearson:.6f}")

# 4. eigenstructure recovers the two planted directions
es = of.eigendecompose(surface, k=3)
print("\neigenvalues:", np.round(es.eigenvalues, 4))
print("planted: about", np.round([1.5**2 * 0.5, 0.7**2 * 0.5], 3),
      "(0.5 is the L2 norm of each raw shape)")
