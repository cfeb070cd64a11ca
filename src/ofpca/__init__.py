"""Functional principal component analysis for metric-space-valued curves.

The pipeline: estimate the metric auto-covariance surface of a sample of
object-valued trajectories with a pairwise-distance U-statistic,
eigendecompose it under quadrature weights, and summarize each
trajectory by Frechet scores (projections of its distance-to-mean
curve) and by object principal components (Frechet integrals against
the normalized eigenfunctions, which live in the object space itself).
"""

from .eigen import EigenSystem, eigendecompose
from .errors import (
    BadRank,
    BadWeights,
    DegenerateVariance,
    InputError,
    InvalidObject,
    InvalidSurface,
    NonIntegrableEigenfunction,
    OfpcaError,
    SchemaError,
    SpaceMismatch,
    TooFewTrajectories,
)
from .fpca import (
    FpcaFit,
    distance_curves,
    fit_fpca,
    frechet_mean_trajectory,
    frechet_scores,
    normalize_eigenfunction,
    object_fpc,
)
from .kernel import (
    KernelSurface,
    ObjectSample,
    ObjectTrajectory,
    estimate_cov_surface,
    metric_correlation,
    metric_covariance,
    metric_variance,
    trapezoid_weights,
)
from .sim import (
    DistributionSimConfig,
    NetworkSimConfig,
    distribution_sim_basis,
    jacobi_polynomial,
    mise_report,
    network_sim_basis,
    simulate,
    true_eigensystem,
)
from .spaces import (
    ObjectPoint,
    SpaceKind,
    distance,
    isotonic_projection,
    squared_distance,
)

__version__ = "0.1.0"

__all__ = [
    "BadRank",
    "BadWeights",
    "DegenerateVariance",
    "DistributionSimConfig",
    "EigenSystem",
    "FpcaFit",
    "InputError",
    "InvalidObject",
    "InvalidSurface",
    "KernelSurface",
    "NetworkSimConfig",
    "NonIntegrableEigenfunction",
    "ObjectPoint",
    "ObjectSample",
    "ObjectTrajectory",
    "OfpcaError",
    "SchemaError",
    "SpaceKind",
    "SpaceMismatch",
    "TooFewTrajectories",
    "distance",
    "distance_curves",
    "distribution_sim_basis",
    "eigendecompose",
    "estimate_cov_surface",
    "fit_fpca",
    "frechet_mean_trajectory",
    "frechet_scores",
    "isotonic_projection",
    "jacobi_polynomial",
    "metric_correlation",
    "metric_covariance",
    "metric_variance",
    "mise_report",
    "network_sim_basis",
    "normalize_eigenfunction",
    "object_fpc",
    "simulate",
    "squared_distance",
    "trapezoid_weights",
    "true_eigensystem",
]
