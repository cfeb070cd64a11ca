"""Metric spaces for object-valued data.

Four concrete spaces are provided, each a convex subset of a Euclidean
coordinate space so that squared distances are (weighted) squared
Euclidean norms and weighted barycenters reduce to "average, then
project onto the constraint set":

- ``scalar``: the real line with the absolute-value metric.
- ``quantile``: univariate distributions represented by their quantile
  function sampled on the interior midpoint grid u_k = (k - 0.5)/m.
  The metric is the discrete 2-Wasserstein distance, i.e. the
  (1/m)-weighted L2 distance of quantile vectors.
- ``adjacency``: undirected weighted graphs on a fixed node set,
  represented by symmetric, zero-diagonal adjacency matrices with
  entries in [0, 1], under the Frobenius metric.
- ``sympsd``: symmetric positive semidefinite matrices under the
  Frobenius metric.

The quantile metric approximates the continuum Wasserstein integral
with a midpoint rule, so its quadrature error is O(1/m).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadWeights, EmptyInput, InvalidObject, SpaceMismatch

SPACE_TAGS = ("scalar", "quantile", "adjacency", "sympsd")

#: Admission tolerance for constraint violations on ingestion: inputs
#: violating an invariant by more than this are rejected, violations
#: within it are repaired by metric projection.  PSD eigenvalues within
#: round-off of zero (r * eps * max|lambda|, the most that projection
#: itself leaves) are admitted as they are, so admission is a fixed point.
ADMISSION_TOL = 1e-10


@dataclass(frozen=True)
class SpaceKind:
    """A metric-space descriptor.

    Parameters
    ----------
    tag : str
        One of ``"scalar"``, ``"quantile"``, ``"adjacency"``, ``"sympsd"``.
    dim : int
        Quantile grid size m, or matrix side r; must be 1 for scalars.
    """

    tag: str
    dim: int = 1

    def __post_init__(self):
        if self.tag not in SPACE_TAGS:
            raise InvalidObject(f"unknown space tag {self.tag!r}")
        if int(self.dim) != self.dim or self.dim < 1:
            raise InvalidObject(f"dim must be a positive integer, got {self.dim!r}")
        if self.tag == "scalar" and self.dim != 1:
            raise InvalidObject("scalar space has dim 1")
        object.__setattr__(self, "dim", int(self.dim))

    @property
    def data_len(self) -> int:
        """Length of the coordinate vector of one object."""
        if self.tag == "scalar":
            return 1
        if self.tag == "quantile":
            return self.dim
        return self.dim * self.dim

    @property
    def is_matrix(self) -> bool:
        return self.tag in ("adjacency", "sympsd")

    @property
    def coord_scale(self) -> float:
        """Scale c such that d^2(x, y) = ||c (x - y)||^2 in coordinates."""
        if self.tag == "quantile":
            return 1.0 / np.sqrt(self.dim)
        return 1.0

    def metric_coordinates(self) -> tuple[slice | np.ndarray, np.ndarray]:
        """Coordinates ``keep`` and weights ``w`` with d^2(x, y) =
        ||w (x - y)[keep]||^2 on admitted objects: all at ``coord_scale``,
        or the upper triangle of the exactly symmetric matrices, at
        sqrt(2) off the diagonal, without the zero adjacency diagonal."""
        if not self.is_matrix:
            return slice(None), np.full(self.data_len, self.coord_scale)
        rows, cols = np.triu_indices(self.dim, k=int(self.tag == "adjacency"))
        return rows * self.dim + cols, np.where(rows == cols, 1.0, np.sqrt(2.0))

    def quantile_grid(self) -> np.ndarray:
        """Interior midpoint probability grid u_k = (k - 0.5)/m."""
        if self.tag != "quantile":
            raise InvalidObject("quantile_grid is defined for quantile spaces only")
        m = self.dim
        return (np.arange(1, m + 1) - 0.5) / m


def scalar_space() -> SpaceKind:
    return SpaceKind("scalar", 1)


def quantile_space(m: int) -> SpaceKind:
    return SpaceKind("quantile", m)


def adjacency_space(r: int) -> SpaceKind:
    return SpaceKind("adjacency", r)


def sympsd_space(r: int) -> SpaceKind:
    return SpaceKind("sympsd", r)


def _as_matrices(space: SpaceKind, block: np.ndarray) -> np.ndarray:
    r = space.dim
    return block.reshape(block.shape[:-1] + (r, r))


def validate_block(space: SpaceKind, block: np.ndarray) -> np.ndarray:
    """Validate (and, within tolerance, repair) a batch of raw objects.

    ``block`` has shape (..., data_len).  Violations beyond
    ``ADMISSION_TOL`` raise InvalidObject; violations within it are
    repaired in a copy (metrically projected).  Returns the
    admitted data, sharing memory with ``block`` when nothing needed
    repair.
    """
    block = np.asarray(block, dtype=float)
    if block.shape[-1] != space.data_len:
        raise InvalidObject(
            f"expected data of length {space.data_len} for {space.tag}, "
            f"got {block.shape[-1]}"
        )
    if not np.all(np.isfinite(block)):
        raise InvalidObject("data contains non-finite values")

    if space.tag == "scalar":
        return block

    if space.tag == "quantile":
        if np.any(block[..., 1:] < block[..., :-1]):
            out = block.reshape(-1, space.dim).copy()
            dips = np.any(out[:, 1:] < out[:, :-1], axis=1)
            if (out[dips, :-1] - out[dips, 1:]).max() > ADMISSION_TOL:
                raise InvalidObject("quantile vector is not non-decreasing")
            out[dips] = project_coordinates(space, out[dips])
            block = out.reshape(block.shape)
        return block

    mats = _as_matrices(space, block)
    trans = np.swapaxes(mats, -1, -2)
    if not np.array_equal(mats, trans):
        asym = np.abs(mats - trans).max()
        if asym > ADMISSION_TOL:
            raise InvalidObject(f"matrix not symmetric (max asymmetry {asym:.3g})")
        mats = 0.5 * (mats + trans)

    if space.tag == "adjacency":
        diag = np.abs(np.diagonal(mats, axis1=-2, axis2=-1)).max()
        if diag > ADMISSION_TOL:
            raise InvalidObject(f"adjacency diagonal not zero (max {diag:.3g})")
        lo, hi = mats.min(), mats.max()
        if lo < -ADMISSION_TOL or hi > 1.0 + ADMISSION_TOL:
            raise InvalidObject("adjacency entries outside [0, 1]")
        if diag > 0.0 or lo < 0.0 or hi > 1.0:
            return project_coordinates(space, mats.reshape(block.shape))
        return mats.reshape(block.shape)

    # sympsd: eigenvalues at least -ADMISSION_TOL; dips beyond round-off re-projected
    eigs = np.linalg.eigvalsh(mats)
    min_eigs = eigs[..., 0]
    if min_eigs.min() < -ADMISSION_TOL:
        raise InvalidObject(
            f"matrix not positive semidefinite (min eigenvalue {min_eigs.min():.3g})"
        )
    out = mats.reshape(block.shape)
    dips = min_eigs < -space.dim * np.finfo(float).eps * np.abs(eigs).max(axis=-1)
    if dips.any():
        out = out.copy()
        out[dips] = project_coordinates(space, out[dips])
    return out


@dataclass(frozen=True)
class ObjectPoint:
    """One element of a metric space, stored as a flat coordinate vector.

    Matrices are stored row-major.  The constructor enforces the space
    invariants (see :func:`validate_block`) and freezes the data.
    """

    space: SpaceKind
    data: np.ndarray

    def __post_init__(self):
        data = validate_block(self.space, np.asarray(self.data, dtype=float))
        data = data.copy()
        data.flags.writeable = False
        object.__setattr__(self, "data", data)

    def matrix(self) -> np.ndarray:
        """The object as an (r, r) matrix (matrix spaces only)."""
        if not self.space.is_matrix:
            raise InvalidObject(f"{self.space.tag} objects are not matrices")
        return self.data.reshape(self.space.dim, self.space.dim)

    def __eq__(self, other):
        return (
            isinstance(other, ObjectPoint)
            and self.space == other.space
            and np.array_equal(self.data, other.data)
        )


def distance(a: ObjectPoint, b: ObjectPoint) -> float:
    """Metric distance between two objects of the same space.

    Quantile objects use the discrete 2-Wasserstein distance
    sqrt((1/m) sum_k (Q_a(u_k) - Q_b(u_k))^2), matrices the Frobenius
    norm of the difference, scalars the absolute difference.
    """
    return float(np.sqrt(squared_distance(a, b)))


def squared_distance(a: ObjectPoint, b: ObjectPoint) -> float:
    if a.space != b.space:
        raise SpaceMismatch(f"{a.space.tag}(dim={a.space.dim}) vs {b.space.tag}(dim={b.space.dim})")
    diff = (a.data - b.data) * a.space.coord_scale
    return float(np.dot(diff, diff))


def cross_squared_distances(space: SpaceKind, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """All pairwise squared distances between two stacks of coordinate rows.

    ``rows_a`` is (na, L), ``rows_b`` is (nb, L); returns (na, nb).  Both
    stacks are centered on the mean of ``rows_b`` before |a|^2 + |b|^2 - 2ab
    is expanded, so a large common offset does not cancel catastrophically.
    """
    scale = space.coord_scale
    center = rows_b.mean(axis=0)
    a = (rows_a - center) * scale
    b = (rows_b - center) * scale
    sq_a = np.einsum("ip,ip->i", a, a)
    sq_b = np.einsum("ip,ip->i", b, b)
    gram = a @ b.T
    out = sq_a[:, None] + sq_b[None, :] - 2.0 * gram
    np.maximum(out, 0.0, out=out)
    return out


def isotonic_projection(y: np.ndarray) -> np.ndarray:
    """L2 projection onto non-decreasing vectors (pool adjacent violators).

    Only strict violations are pooled, so a non-decreasing vector comes
    back bit for bit and the projection is idempotent.  The metric is
    uniform, so each block's weight is its count.
    """
    y = np.asarray(y, dtype=float)
    n = y.size

    # stack of blocks: (pooled mean, count)
    means = np.empty(n)
    counts = np.empty(n, dtype=int)
    top = -1
    for i in range(n):
        top += 1
        means[top] = y[i]
        counts[top] = 1
        while top > 0 and means[top - 1] > means[top]:
            total = counts[top - 1] + counts[top]
            means[top - 1] = (counts[top - 1] * means[top - 1] + counts[top] * means[top]) / total
            counts[top - 1] = total
            top -= 1
    return np.repeat(means[: top + 1], counts[: top + 1])


def project_coordinates(space: SpaceKind, raw: np.ndarray) -> np.ndarray:
    """Metric projection of each raw coordinate vector in ``raw``
    (..., data_len) onto the space's constraint set; returns coordinates
    of the same shape.  Idempotent bit for bit, up to ``eigh`` round-off
    for sympsd.  PAVA runs only on quantile vectors that decrease
    somewhere: the others are feasible and come back unchanged."""
    raw = np.asarray(raw, dtype=float)
    if raw.ndim == 0 or raw.shape[-1] != space.data_len:
        raise InvalidObject(
            f"expected raw vectors of length {space.data_len}, got shape {raw.shape}"
        )
    if not np.all(np.isfinite(raw)):
        raise InvalidObject("raw data contains non-finite values")

    if space.tag == "scalar":
        return raw.copy()
    if space.tag == "quantile":
        out = raw.copy()
        rows = out.reshape(-1, space.dim)
        for i in np.flatnonzero(np.any(rows[:, 1:] < rows[:, :-1], axis=1)):
            rows[i] = isotonic_projection(rows[i])
        return out

    mats = _as_matrices(space, raw)
    sym = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    if space.tag == "adjacency":
        idx = np.arange(space.dim)
        sym[..., idx, idx] = 0.0
        return np.clip(sym, 0.0, 1.0).reshape(raw.shape)

    vals, vecs = np.linalg.eigh(sym)
    vals = np.clip(vals, 0.0, None)
    psd = (vecs * vals[..., None, :]) @ np.swapaxes(vecs, -1, -2)
    psd = 0.5 * (psd + np.swapaxes(psd, -1, -2))
    return psd.reshape(raw.shape)


def project(space: SpaceKind, raw: np.ndarray) -> ObjectPoint:
    """Metric projection of a raw coordinate vector, as an ObjectPoint."""
    return ObjectPoint(space, project_coordinates(space, raw))


def weighted_barycenter(points: list[ObjectPoint], weights: np.ndarray) -> ObjectPoint:
    """Weighted Frechet barycenter argmin_w sum_j w_j d^2(w, x_j).

    Weights must sum to 1 (within 1e-10) but may be negative, e.g. when
    derived from eigenfunction values.  Because the weight sum is 1 the
    coordinatewise weighted average remains the unconstrained minimizer
    of the quadratic objective even with signed weights, so the exact
    solution is that average followed by metric projection onto the
    constraint set.

    Parameters
    ----------
    points : list of ObjectPoint
        At least one point; all in the same space.
    weights : array_like
        Same length as ``points``; sums to 1 within 1e-10.

    Raises
    ------
    EmptyInput
        If ``points`` is empty.
    BadWeights
        If the weights do not match or do not sum to 1.
    SpaceMismatch
        If the points live in different spaces.
    """
    if len(points) == 0:
        raise EmptyInput("weighted_barycenter needs at least one point")
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(points),):
        raise BadWeights(f"{len(points)} points but weight shape {weights.shape}")
    total = weights.sum()
    if abs(total - 1.0) > 1e-10:
        raise BadWeights(f"weights sum to {total!r}, expected 1")
    space = points[0].space
    for p in points[1:]:
        if p.space != space:
            raise SpaceMismatch("barycenter points must share a space")

    stacked = np.stack([p.data for p in points])
    average = weights @ stacked
    return project(space, average)
