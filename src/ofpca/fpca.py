"""Frechet mean curves, object principal components, and Frechet scores.

The object principal component of a trajectory along a direction phi is
the Frechet integral: the object minimizing the phi-weighted integral
of squared distances to the trajectory.  In the convex spaces provided
here that minimizer is computed exactly as the signed-weight barycenter
of the trajectory's objects, in :func:`_frechet_integrals` alone; a
Riemann-sum search over explicit candidates in ``tests/oracles.py``
checks it.  Each stage batches over the sample's (n, T, L) array: the
object components of all n trajectories along one direction are one
average and one projection, and the distance curves are filled one
block of trajectories at a time (``kernel._blocks``), so that a fit
holds no temporary the size of the sample.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .eigen import EigenSystem, eigendecompose
from .errors import BadRank, BadWeights, InvalidObject, NonIntegrableEigenfunction, SpaceMismatch
from .kernel import (
    KernelSurface,
    ObjectSample,
    ObjectTrajectory,
    _blocks,
    _coordinate_mean,
    _trapezoid,
    estimate_cov_surface,
)
from .spaces import ObjectPoint, _count, _freeze, _own, project_coordinates

#: Minimum absolute eigenfunction integral for object components; below
#: this the normalized direction is numerically undefined.
MIN_EIGENFUNCTION_INTEGRAL = 1e-6


def frechet_mean_trajectory(sample: ObjectSample) -> ObjectTrajectory:
    """Pointwise Frechet mean curve of a sample.

    At each grid time this is the uniform-weight barycenter of the
    sample slice, the coordinatewise average: every space is convex, so
    an average of admitted objects needs no projection, and
    ``ObjectTrajectory`` admits it as it does any curve.
    """
    return ObjectTrajectory(sample.space, sample.time_grid,
                            _coordinate_mean(sample.stacked_values))


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


def object_fpc(traj: ObjectTrajectory, phi_star: np.ndarray) -> ObjectPoint:
    """Frechet integral of a trajectory against a unit-integral weight
    function, i.e. the object principal component along that direction.

    ``phi_star`` is sampled on the trajectory grid and must integrate to
    one under the grid's trapezoid weights w; the induced barycenter
    weights w_k * phi_star(t_k) may be signed.  Exact in the convex
    spaces provided here (average, then project).
    """
    w = _trapezoid(traj.time_grid)
    return ObjectPoint(traj.space, _frechet_integrals(traj.space, traj.values, w, phi_star))


def _frechet_integrals(space, values, quad_weights, phi_star) -> np.ndarray:
    """Frechet integrals against phi_star of the trajectory in ``values``
    (T, L), or of all n in (n, T, L): one average, one projection."""
    phi_star = np.asarray(phi_star, dtype=float)
    T = values.shape[-2]
    if phi_star.shape != (T,):
        raise BadWeights(f"phi_star must have shape ({T},), got {phi_star.shape}")
    weights = quad_weights * phi_star
    total = weights.sum()
    if not abs(total - 1.0) <= 1e-8:  # a NaN total fails it too
        raise BadWeights(f"phi_star integrates to {total!r}, expected 1")
    return project_coordinates(space, weights @ values)


def _check_grid(sample: ObjectSample, time_grid: np.ndarray, what: str) -> None:
    if not np.array_equal(time_grid, sample.time_grid):
        raise InvalidObject(f"{what} is on another time grid than the sample")


def distance_curves(sample: ObjectSample, mean: ObjectTrajectory) -> np.ndarray:
    """(n, T) matrix of distances from each trajectory to the mean curve,
    filled one block of trajectories at a time.  A mean in another space
    raises SpaceMismatch, one on another time grid InvalidObject."""
    if mean.space != sample.space:
        raise SpaceMismatch("the mean curve is in another space than the sample")
    _check_grid(sample, mean.time_grid, "the mean curve")
    values = sample.stacked_values
    n, T, L = values.shape
    scale = sample.space.coord_scale
    curves = np.empty((n, T))
    for rows in _blocks(n, T * L):
        diff = values[rows] - mean.values
        diff *= scale
        curves[rows] = np.sqrt(np.einsum("itp,itp->it", diff, diff))
        del diff  # so that one block is alive at a time
    return curves


def frechet_scores(
    sample: ObjectSample, mean: ObjectTrajectory, es: EigenSystem
) -> np.ndarray:
    """Frechet scores: quadrature projections of each trajectory's
    distance-to-mean curve onto the retained eigenfunctions.

    Returns an (n, K) matrix; row i, column j holds
    sum_k w_k d(X_i(t_k), mean(t_k)) phi_j(t_k).  Distances enter
    unsquared.  ``mean`` and ``es`` must be on the sample's space and
    time grid (see :func:`distance_curves`).
    """
    _check_grid(sample, es.time_grid, "the eigensystem")
    return _project_curves(distance_curves(sample, mean), es)


def _project_curves(curves: np.ndarray, es: EigenSystem) -> np.ndarray:
    return curves @ (es.eigenfunctions * es.quad_weights).T


@dataclass(frozen=True, eq=False)
class FpcaFit:
    """Bundle of everything the pipeline estimates from one sample.

    ``object_components[j]`` holds the (n, L) object components along
    component j+1 (None if skipped); ``skipped_components`` lists those
    j+1.  Row i is the coordinate vector of trajectory i's component:
    ``ObjectPoint(fit.mean.space, object_components[j][i])``.  ``scores``,
    ``distance_curves`` and each object component are read-only: a
    read-only float64 array is kept, anything else held as a read-only copy.
    """

    surface: KernelSurface
    eigen: EigenSystem
    mean: ObjectTrajectory
    scores: np.ndarray
    distance_curves: np.ndarray
    object_components: tuple[np.ndarray | None, ...] | None

    def __post_init__(self):
        _freeze(self, scores=self.scores, distance_curves=self.distance_curves)
        if self.object_components is not None:
            object.__setattr__(self, "object_components", tuple(
                None if comps is None else _own(comps) for comps in self.object_components))

    @property
    def skipped_components(self) -> tuple[int, ...]:
        return tuple(j for j, comps in enumerate(self.object_components or (), 1)
                     if comps is None)


def _numerical_rank(es: EigenSystem) -> int:
    """The count of retained eigenvalues above T*eps*lambda1, at least one.

    Every shipped surface is a Gram matrix, so an eigenvalue under that
    cut (the ``matrix_rank`` rule) is round-off, and its eigenfunction an
    arbitrary vector of the null space."""
    cut = es.time_grid.size * np.finfo(float).eps * es.eigenvalues[0]
    return max(int(np.sum(es.eigenvalues > cut)), 1)


def _fraction_count(es: EigenSystem, fraction: float) -> int:
    """The size of the smallest leading block of ``es`` whose cumulative
    explained fraction (of the clipped whole spectrum) reaches ``fraction``.
    On a zero spectrum no block does, but a fit keeps at most the numerical
    rank, which is 1 there."""
    return int(np.searchsorted(np.cumsum(es.explained_fractions), fraction - 1e-12) + 1)


def fit_fpca(
    sample: ObjectSample,
    n_components: int = 4,
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
    their score column.  An ``n_components`` outside [1, T] or an
    ``explained_fraction`` outside (0, 1] raises ``BadRank``.
    """
    T = sample.time_grid.size
    if _count(n_components, "n_components", 1, BadRank) > T:
        raise BadRank(f"n_components must be in [1, {T}], got {n_components}")
    if explained_fraction is not None and (isinstance(explained_fraction, (bool, np.bool_))
                                           or not 0.0 < explained_fraction <= 1.0):
        raise BadRank(f"explained fraction must be in (0, 1], got {explained_fraction}")
    surface = estimate_cov_surface(sample)
    es = eigendecompose(surface, k=n_components)
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
    es = replace(es, eigenvalues=es.eigenvalues[:keep],
                 eigenfunctions=es.eigenfunctions[:keep])
    scores = scores[:, :keep]

    object_components = None
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
                per_component.append(None)
                continue
            comps = _frechet_integrals(
                sample.space, sample.stacked_values, surface.quad_weights, phi_star
            )
            comps.flags.writeable = False
            per_component.append(comps)
        object_components = tuple(per_component)

    # read-only, so that the fit keeps them uncopied
    curves.flags.writeable = scores.flags.writeable = False
    return FpcaFit(
        surface=surface,
        eigen=es,
        mean=mean,
        scores=scores,
        distance_curves=curves,
        object_components=object_components,
    )
