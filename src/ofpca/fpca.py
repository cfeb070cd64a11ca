"""Frechet mean curves, object principal components, and Frechet scores.

The object principal component of a trajectory along a direction phi is
the Frechet integral: the object minimizing the phi-weighted integral
of squared distances to the trajectory.  In the convex spaces provided
here that minimizer is computed exactly as the signed-weight barycenter
of the trajectory's objects; :func:`riemann_sum_minimizer` is the
metric-agnostic fallback that searches an explicit candidate set and
doubles as the independent check of the closed-form path.  Each stage
takes the sample's (n, T, L) array whole: the object components of all
n trajectories along one direction are one average and one projection.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .eigen import EigenSystem, eigendecompose
from .errors import BadRank, BadWeights, EmptyInput, NonIntegrableEigenfunction
from .kernel import (
    KernelSurface,
    ObjectSample,
    ObjectTrajectory,
    estimate_cov_surface,
    trapezoid_weights,
)
from .spaces import ObjectPoint, cross_squared_distances, project_coordinates

#: Minimum absolute eigenfunction integral for object components; below
#: this the normalized direction is numerically undefined.
MIN_EIGENFUNCTION_INTEGRAL = 1e-6


def frechet_mean_trajectory(sample: ObjectSample) -> ObjectTrajectory:
    """Pointwise Frechet mean curve of a sample.

    At each grid time this is the uniform-weight barycenter of the
    sample slice: the coordinatewise average followed by metric
    projection (a no-op for convex combinations up to rounding).
    """
    avg = sample.stacked_values.mean(axis=0)
    return ObjectTrajectory(sample.space, sample.time_grid, project_coordinates(sample.space, avg))


def normalize_eigenfunction(es: EigenSystem, j: int) -> np.ndarray:
    """Eigenfunction j (1-based) rescaled to quadrature integral one.

    Raises NonIntegrableEigenfunction when the integral is numerically
    zero; the object component along that direction is undefined, but
    scores do not need the normalization and remain available.
    """
    integral = es.integral(j)
    if abs(integral) < MIN_EIGENFUNCTION_INTEGRAL:
        raise NonIntegrableEigenfunction(
            f"eigenfunction {j} integrates to {integral:.3g}"
        )
    return es.eigenfunctions[j - 1] / integral


def object_fpc(
    traj: ObjectTrajectory,
    phi_star: np.ndarray,
    quad_weights: np.ndarray | None = None,
) -> ObjectPoint:
    """Frechet integral of a trajectory against a unit-integral weight
    function, i.e. the object principal component along that direction.

    ``phi_star`` is sampled on the trajectory grid and must integrate to
    one under the quadrature weights; the induced barycenter weights
    w_k * phi_star(t_k) may be signed.  Exact in the convex spaces
    provided here (average, then project).
    """
    if quad_weights is None:
        quad_weights = trapezoid_weights(traj.time_grid)
    coords = _frechet_integrals(traj.space, traj.values, quad_weights, phi_star)
    return ObjectPoint(traj.space, coords)


def _frechet_integrals(space, values, quad_weights, phi_star) -> np.ndarray:
    """Frechet integrals against phi_star of the trajectory in ``values``
    (T, L), or of all n in (n, T, L): one average, one projection."""
    weights = quad_weights * np.asarray(phi_star, dtype=float)
    total = weights.sum()
    if abs(total - 1.0) > 1e-8:
        raise BadWeights(f"phi_star integrates to {total!r}, expected 1")
    return project_coordinates(space, weights @ values)


def riemann_sum_minimizer(
    traj: ObjectTrajectory,
    phi_star: np.ndarray,
    candidates: list[ObjectPoint] | None = None,
    quad_weights: np.ndarray | None = None,
) -> ObjectPoint:
    """Minimizer of the discretized Frechet-integral objective over an
    explicit candidate set.

    Evaluates sum_k d^2(omega, X(t_k)) phi_star(t_k) w_k for every
    candidate omega and returns the first minimizer.  Works in any space because it only
    needs distances; with a dense candidate lattice it converges to the
    exact Frechet integral as the grid refines, which makes it the
    oracle for :func:`object_fpc`.  When ``candidates`` is omitted the
    trajectory's own observed objects are searched, a cheap heuristic
    for spaces without a closed-form minimizer.
    """
    if candidates is None:
        candidates = list(traj.points)
    if len(candidates) == 0:
        raise EmptyInput("riemann_sum_minimizer needs at least one candidate")
    if quad_weights is None:
        quad_weights = trapezoid_weights(traj.time_grid)
    phi_star = np.asarray(phi_star, dtype=float)
    rows = np.stack([c.data for c in candidates])
    d2 = cross_squared_distances(traj.space, rows, traj.values)
    objective = d2 @ (phi_star * quad_weights)
    return candidates[int(np.argmin(objective))]


def distance_curves(sample: ObjectSample, mean: ObjectTrajectory) -> np.ndarray:
    """(n, T) matrix of distances from each trajectory to the mean curve."""
    scale = sample.space.coord_scale
    diff = (sample.stacked_values - mean.values[None, :, :]) * scale
    return np.sqrt(np.einsum("itp,itp->it", diff, diff))


def frechet_scores(
    sample: ObjectSample, mean: ObjectTrajectory, es: EigenSystem
) -> np.ndarray:
    """Frechet scores: quadrature projections of each trajectory's
    distance-to-mean curve onto the retained eigenfunctions.

    Returns an (n, K) matrix; row i, column j holds
    sum_k w_k d(X_i(t_k), mean(t_k)) phi_j(t_k).  Distances enter
    unsquared.
    """
    return _project_curves(distance_curves(sample, mean), es)


def _project_curves(curves: np.ndarray, es: EigenSystem) -> np.ndarray:
    return curves @ (es.eigenfunctions * es.quad_weights).T


@dataclass(frozen=True)
class FpcaFit:
    """Bundle of everything the pipeline estimates from one sample.

    ``object_components[j]`` holds the (n, L) object components along
    component j+1 (None if skipped); ``object_fpcs[i][j]`` views them
    as ObjectPoints.
    """

    surface: KernelSurface
    eigen: EigenSystem
    mean: ObjectTrajectory
    scores: np.ndarray
    distance_curves: np.ndarray
    object_components: tuple[np.ndarray | None, ...] | None
    skipped_components: tuple[int, ...] = ()

    @cached_property
    def object_fpcs(self) -> tuple[tuple[ObjectPoint | None, ...], ...] | None:
        if self.object_components is None:
            return None
        columns = ([None] * len(self.scores) if comps is None
                   else [ObjectPoint(self.mean.space, row) for row in comps]
                   for comps in self.object_components)
        return tuple(zip(*columns))


def _numerical_rank(es: EigenSystem) -> int:
    """The count of retained eigenvalues above T*eps*lambda1, at least one.

    Every shipped surface is a Gram matrix, so an eigenvalue under that
    cut (the ``matrix_rank`` rule) is round-off, and its eigenfunction an
    arbitrary vector of the null space."""
    cut = es.time_grid.size * np.finfo(float).eps * es.eigenvalues[0]
    return max(int(np.sum(es.eigenvalues > cut)), 1)


def _fraction_count(es: EigenSystem, fraction: float) -> int:
    """The size of the smallest leading block of ``es`` whose cumulative
    explained fraction (of the clipped whole spectrum) reaches ``fraction``."""
    if es.spectrum_total <= 0:
        return es.num_retained
    cumulative = np.cumsum(np.clip(es.eigenvalues, 0.0, None)) / es.spectrum_total
    return int(np.searchsorted(cumulative, fraction - 1e-12) + 1)


def _first_components(es: EigenSystem, keep: int) -> EigenSystem:
    if keep >= es.num_retained:
        return es
    kept = es.eigenvalues[:keep]
    return replace(es, eigenvalues=kept, eigenfunctions=es.eigenfunctions[:keep],
                   n_negative=int(np.sum(kept < 0)))


def fit_fpca(
    sample: ObjectSample,
    n_components: int = 4,
    clip_negative: bool = False,
    fpc_objects: bool = True,
    explained_fraction: float | None = None,
) -> FpcaFit:
    """Run the full pipeline: covariance surface, eigensystem, mean curve,
    scores, and (optionally) per-trajectory object components.

    The eigensystem keeps at most the numerical rank of the surface (and
    at least one component): components whose eigenvalues are not above
    T*eps*lambda1 are dropped with a warning that names them.  With
    ``explained_fraction`` it keeps only the smallest number of leading
    components (at most ``n_components``) whose cumulative explained
    fraction reaches it.  Both cuts come before object components are
    computed.  Components whose eigenfunction integrates to numerically
    zero are skipped for object components (with a warning) but keep
    their score column.  An ``explained_fraction`` outside
    (0, 1] raises ``BadRank``.
    """
    if explained_fraction is not None and not 0.0 < explained_fraction <= 1.0:
        raise BadRank(f"explained fraction must be in (0, 1], got {explained_fraction}")
    surface = estimate_cov_surface(sample)
    es = eigendecompose(surface, k=n_components, clip=clip_negative)
    mean = frechet_mean_trajectory(sample)
    curves = distance_curves(sample, mean)
    # trimmed score columns are sliced from the untrimmed product, so they
    # match the untrimmed fit bit for bit
    scores = _project_curves(curves, es)
    keep = _numerical_rank(es)
    if keep < es.num_retained:
        dropped = ", ".join(map(str, range(keep + 1, es.num_retained + 1)))
        warnings.warn(f"components above the numerical rank dropped: {dropped} "
                      "(eigenvalues below T*eps*lambda1 are round-off)", stacklevel=2)
    if explained_fraction is not None:
        keep = min(keep, _fraction_count(es, explained_fraction))
    es = _first_components(es, keep)
    scores = scores[:, : es.num_retained]

    object_components = None
    skipped: list[int] = []
    if fpc_objects:
        per_component: list[np.ndarray | None] = []
        for j in range(1, es.num_retained + 1):
            try:
                phi_star = normalize_eigenfunction(es, j)
            except NonIntegrableEigenfunction:
                warnings.warn(
                    f"component {j}: eigenfunction integral ~ 0, "
                    "object component skipped",
                    stacklevel=2,
                )
                skipped.append(j)
                per_component.append(None)
                continue
            per_component.append(_frechet_integrals(
                sample.space, sample.stacked_values, surface.quad_weights, phi_star
            ))
        object_components = tuple(per_component)

    return FpcaFit(
        surface=surface,
        eigen=es,
        mean=mean,
        scores=scores,
        distance_curves=curves,
        object_components=object_components,
        skipped_components=tuple(skipped),
    )
