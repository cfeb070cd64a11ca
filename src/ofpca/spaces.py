"""Metric spaces for object-valued data.

Four concrete spaces are provided, each built as ``SpaceKind(tag, dim)``
and each a convex subset of a Euclidean coordinate space, so that squared
distances are (weighted) squared Euclidean norms and weighted barycenters
reduce to "average, then project onto the constraint set":

- ``scalar``: the real line with the absolute-value metric.  Its points
  are point masses, whose quantile function is one number, so it is
  ``quantile`` with m = 1, computed on that path; only the tag differs.
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
from functools import lru_cache

import numpy as np

from .errors import InvalidObject, SpaceMismatch

SPACE_TAGS = ("scalar", "quantile", "adjacency", "sympsd")

#: Admission tolerance for constraint violations on ingestion: inputs
#: violating an invariant by more than this are rejected, violations
#: within it are repaired by metric projection.  PSD eigenvalues within
#: round-off of zero (r * eps * max|lambda|, the most that projection
#: itself leaves) are admitted as they are, so admission is a fixed point.
ADMISSION_TOL = 1e-10


def _own(a) -> np.ndarray:
    """``a`` itself if it is a read-only float64 array, as no one can write
    through it; otherwise a read-only float64 copy, so the caller's stays its own."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable):
        a = np.array(a, dtype=float)
        a.flags.writeable = False
    return a


def _freeze(obj, **arrays) -> list[np.ndarray]:
    """Set each array on the frozen dataclass ``obj`` as ``_own`` gives it; return them."""
    for name, a in arrays.items():
        object.__setattr__(obj, name, _own(a))
    return [getattr(obj, name) for name in arrays]


def _count(value, name: str, least: int, error=InvalidObject) -> int:
    """``value`` as an ``int``: an integer (Python or numpy, not a bool) of
    at least ``least``.  Anything else raises ``error`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise error(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SpaceKind:
    """A metric-space descriptor.

    Parameters
    ----------
    tag : str
        One of ``"scalar"``, ``"quantile"``, ``"adjacency"``, ``"sympsd"``.
    dim : int
        Quantile grid size m, or matrix side r; must be 1 for scalars.
        Required: no tag has a default size.
    """

    tag: str
    dim: int

    def __post_init__(self):
        if self.tag not in SPACE_TAGS:
            raise InvalidObject(f"unknown space tag {self.tag!r}")
        object.__setattr__(self, "dim", _count(self.dim, "dim", 1))
        if self.tag == "scalar" and self.dim != 1:
            raise InvalidObject("scalar space has dim 1")

    @property
    def data_len(self) -> int:
        """Length of the coordinate vector of one object."""
        return self.dim * self.dim if self.is_matrix else self.dim

    @property
    def is_matrix(self) -> bool:
        return self.tag in ("adjacency", "sympsd")

    @property
    def coord_scale(self) -> float:
        """Scale c such that d^2(x, y) = ||c (x - y)||^2 in coordinates."""
        return 1.0 if self.is_matrix else 1.0 / np.sqrt(self.dim)

    def metric_coordinates(self) -> tuple[slice | np.ndarray, np.ndarray]:
        """Coordinates ``keep`` and weights ``w`` with d^2(x, y) =
        ||w (x - y)[keep]||^2 on admitted objects: all at ``coord_scale``,
        or the upper triangle of the exactly symmetric matrices, at
        sqrt(2) off the diagonal, without the zero adjacency diagonal.
        Built once per space value; both arrays are read-only."""
        return _metric_coordinates(self)

    def quantile_grid(self) -> np.ndarray:
        """Interior midpoint probability grid u_k = (k - 0.5)/m."""
        if self.tag != "quantile":
            raise InvalidObject("quantile_grid is defined for quantile spaces only")
        m = self.dim
        return (np.arange(1, m + 1) - 0.5) / m


@lru_cache(maxsize=16)
def _metric_coordinates(space: SpaceKind) -> tuple[slice | np.ndarray, np.ndarray]:
    keep, w = slice(None), np.full(space.data_len, space.coord_scale)
    if space.is_matrix:
        rows, cols = np.triu_indices(space.dim, k=int(space.tag == "adjacency"))
        keep, w = rows * space.dim + cols, np.where(rows == cols, 1.0, np.sqrt(2.0))
        keep.flags.writeable = False
    w.flags.writeable = False
    return keep, w


def _as_matrices(space: SpaceKind, block: np.ndarray) -> np.ndarray:
    r = space.dim
    return block.reshape(block.shape[:-1] + (r, r))


def validate_block(space: SpaceKind, block: np.ndarray) -> np.ndarray:
    """Validate (and, within tolerance, repair) a batch of raw objects.

    ``block`` has shape (..., data_len); checking that shape is the
    caller's job, as every caller checks its own.  Violations beyond
    ``ADMISSION_TOL`` raise InvalidObject; violations within it are
    repaired in a copy (metrically projected).  Returns the
    admitted data, sharing memory with ``block`` when nothing needed
    repair.

    Adjacency finiteness comes from the range that the [0, 1] check
    needs: a NaN reaches both the minimum and the maximum, an inf one.
    """
    block = np.asarray(block, dtype=float)
    if space.tag == "adjacency":
        lo, hi = block.min(), block.max()
        finite = np.isfinite(lo) and np.isfinite(hi)
    else:
        finite = np.all(np.isfinite(block))
    if not finite:
        raise InvalidObject("data contains non-finite values")

    if not space.is_matrix:
        if not np.any(block[..., 1:] < block[..., :-1]):
            return block
        if (block[..., :-1] - block[..., 1:]).max() > ADMISSION_TOL:
            raise InvalidObject("quantile vector is not non-decreasing")
        return project_coordinates(space, block)

    # a NaN fails the symmetry, diagonal and range checks too
    mats = _as_matrices(space, block)
    trans = np.swapaxes(mats, -1, -2)
    if not np.array_equal(mats, trans):
        asym = np.abs(mats - trans).max()
        if not asym <= ADMISSION_TOL:
            raise InvalidObject(f"matrix not symmetric (max asymmetry {asym:.3g})")
        mats = 0.5 * (mats + trans)
        if space.tag == "adjacency":  # the range check reads the symmetrized entries
            lo, hi = mats.min(), mats.max()

    if space.tag == "adjacency":
        diag = np.abs(np.diagonal(mats, axis1=-2, axis2=-1)).max()
        if not diag <= ADMISSION_TOL:
            raise InvalidObject(f"adjacency diagonal not zero (max {diag:.3g})")
        if not (lo >= -ADMISSION_TOL and hi <= 1.0 + ADMISSION_TOL):
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


def _admitted(space: SpaceKind, block: np.ndarray, raw) -> np.ndarray:
    """``validate_block(space, block)`` of ``block``, the float64 form of the
    caller's ``raw``.  A result that shares no memory with ``raw`` (a
    conversion or a repair) is made read-only, so that ``_own`` keeps it
    uncopied."""
    admitted = validate_block(space, block)
    if not (isinstance(raw, np.ndarray) and np.may_share_memory(admitted, raw)):
        admitted.flags.writeable = False
    return admitted


@dataclass(frozen=True, eq=False)
class ObjectPoint:
    """One element of a metric space, stored as a flat coordinate vector.

    Matrices are stored row-major.  The constructor takes exactly one
    object, a vector of length ``space.data_len``, and enforces the space
    invariants (see :func:`validate_block`).  A read-only float64 ``data``
    that needs no repair is kept; anything else is held as a read-only
    copy, so later writes to the caller's array do not reach the point.
    """

    space: SpaceKind
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.shape != (self.space.data_len,):
            raise InvalidObject(f"a point needs shape ({self.space.data_len},), got {data.shape}")
        _freeze(self, data=_admitted(self.space, data, self.data))

    def matrix(self) -> np.ndarray:
        """The object as an (r, r) matrix (matrix spaces only)."""
        if not self.space.is_matrix:
            raise InvalidObject(f"{self.space.tag} objects are not matrices")
        return self.data.reshape(self.space.dim, self.space.dim)


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

    if not space.is_matrix:
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
