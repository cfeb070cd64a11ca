"""Walkthrough: FPCA for time-varying weighted networks.

Trajectories are curves of 10-node adjacency matrices (two communities
of five, noisy within-community edge weights) under the Frobenius
metric.  The same estimator code runs unchanged; only the space differs.
"""

import numpy as np

import ofpca as of

# each community has 20 varying entries and Var(Unif(0, c)) = c^2 / 12, so
# without the [0, 1] clamp the eigenvalues would be these
NO_CLAMP = (3.2 / 12.0, 1.8 / 12.0, 1.0 / 30.0)

cfg = of.NetworkSimConfig(n=150, n_times=51, seed=777)
sample = of.simulate(cfg)
print(f"sample: n={sample.n}, T={sample.time_grid.size}, "
      f"space={sample.space.tag}({sample.space.dim} nodes)")

fit = of.fit_fpca(sample, n_components=3, fpc_objects=True)
print("\nestimated eigenvalues:", np.round(fit.eigen.eigenvalues, 4))
print("population truth:      ", np.round(of.true_eigensystem(cfg).eigenvalues, 4))
print("no-clamp closed form:  ", np.round(NO_CLAMP, 4))
print("(the [0,1] weight clamp attenuates the population values a few percent)")

# the Frechet mean at each time is the entrywise average adjacency
mean_mid = fit.mean.values[sample.time_grid.size // 2].reshape(10, 10)
print("\nmean network at t=0.5:")
print("  within community 1 edge:", round(mean_mid[0, 1], 3))
print("  within community 2 edge:", round(mean_mid[6, 7], 3))
print("  across-community edge:  ", round(mean_mid[0, 5], 3), "(fixed at 0.1)")

# object components are adjacency matrices again
components = fit.object_components[0]
if components is not None:
    mat = of.ObjectPoint(sample.space, components[0]).matrix()
    print("\nobject component of trajectory 0, direction 1:")
    print("  community-1 edge:", round(mat[0, 1], 3),
          " community-2 edge:", round(mat[5, 6], 3))

print("\nscore summary (std per direction):", np.round(fit.scores.std(axis=0), 4))
