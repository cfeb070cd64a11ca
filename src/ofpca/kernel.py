"""Metric auto-covariance estimation for samples of object-valued curves.

The estimator of the paper is a U-statistic over trajectory pairs built
from squared distances only:

    C_hat(s, t) = 1/(4 n (n-1)) * sum_{i != j} f_{s,t}(X_i, X_j)

with the pair kernel

    f_{s,t}(x, y) = d^2(x(s), y(t)) + d^2(y(s), x(t))
                    - d^2(x(s), x(t)) - d^2(y(s), y(t)).

Every supported space is flat in weighted coordinates Z(a) = w a[keep],
d^2(a, b) = ||Z(a) - Z(b)||^2 (``SpaceKind.metric_coordinates``), so the
pair kernel is f_{s,t}(x, y) = 2 <Z(x(s)) - Z(y(s)), Z(x(t)) - Z(y(t))>
and the U-statistic equals the classical unbiased cross-covariance of
the coordinate curves:

    C_hat(s, t) = 1/(n-1) * sum_i <Z_i(s) - Zbar(s), Z_i(t) - Zbar(t)>.

:func:`estimate_cov_surface` takes the mean first, then adds the
product of each centered, weighted block of trajectories, a (T, b k)
array of about ``_BLOCK_FLOATS`` floats, into one T x T sum: O(n T^2 k)
cost, with k = L for scalars and quantiles, r(r-1)/2 for adjacency and
r(r+1)/2 for sympsd, and no temporary the size of the sample.
Centering first also keeps the result accurate for curves with a large
common offset.  :func:`pair_kernel` keeps the distance-only form as a
test oracle.  An :class:`ObjectSample` is one read-only (n, T, L)
array, validated once as a block, so every stage can batch over it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateVariance,
    InvalidObject,
    InvalidSurface,
    SpaceMismatch,
    TooFewTrajectories,
)
from .spaces import ObjectPoint, SpaceKind, validate_block

#: Floats (512 KiB) per block of :func:`estimate_cov_surface`.
_BLOCK_FLOATS = 1 << 16


def trapezoid_weights(time_grid: np.ndarray) -> np.ndarray:
    """Composite trapezoid quadrature weights for a strictly increasing grid."""
    t = np.asarray(time_grid, dtype=float)
    w = np.empty_like(t)
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    w[1:-1] = 0.5 * (t[2:] - t[:-2])
    return w


def _check_time_grid(time_grid: np.ndarray) -> np.ndarray:
    t = np.asarray(time_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise InvalidObject("time grid must be a 1-d array with at least 2 points")
    if not np.all(np.isfinite(t)):
        raise InvalidObject("time grid contains non-finite values")
    if np.any(np.diff(t) <= 0):
        raise InvalidObject("time grid must be strictly increasing")
    if t[0] < 0.0 or t[-1] > 1.0:
        raise InvalidObject("time grid must lie inside [0, 1]")
    return t


def _admitted(space: SpaceKind, time_grid, values: np.ndarray, ndim: int):
    """The checked time grid and ``values`` ((T, L) with ndim 2, or
    (n, T, L) with ndim 3) validated as one block, both read-only.
    ``values`` is frozen in place, so the caller must own it."""
    t = _check_time_grid(time_grid).copy()
    if values.ndim != ndim or values.shape[-2:] != (t.size, space.data_len):
        raise InvalidObject(
            f"values must have shape (..., T={t.size}, {space.data_len}), got {values.shape}"
        )
    values = validate_block(space, values)
    t.flags.writeable = values.flags.writeable = False
    return t, values


@dataclass(frozen=True)
class ObjectTrajectory:
    """One object-valued curve: a time grid plus one object per time.

    ``values`` has shape (T, data_len); row k is the coordinate vector
    of the object at time ``time_grid[k]``.  Space invariants are
    enforced for every row on construction.
    """

    space: SpaceKind
    time_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t, vals = _admitted(self.space, self.time_grid, np.array(self.values, dtype=float), 2)
        object.__setattr__(self, "time_grid", t)
        object.__setattr__(self, "values", vals)

    @property
    def n_times(self) -> int:
        return self.time_grid.size

    def point(self, k: int) -> ObjectPoint:
        return ObjectPoint(self.space, self.values[k])

    @property
    def points(self) -> tuple[ObjectPoint, ...]:
        return tuple(self.point(k) for k in range(self.n_times))


@dataclass(frozen=True, init=False)
class ObjectSample:
    """n >= 2 trajectories on one space and time grid, held as one
    read-only (n, T, data_len) array ``stacked_values``; ``trajectories``
    is a lazy view.  ``ObjectSample(trajectories)`` stacks validated
    trajectories; simulation and file loading use :meth:`_from_values`.
    """

    space: SpaceKind
    time_grid: np.ndarray
    stacked_values: np.ndarray

    def __init__(self, trajectories):
        trajs = tuple(trajectories)
        if len(trajs) < 2:
            raise TooFewTrajectories("a sample needs at least two trajectories")
        first = trajs[0]
        for tr in trajs[1:]:
            if tr.space != first.space:
                raise SpaceMismatch("sample trajectories must share a space")
            if not np.array_equal(tr.time_grid, first.time_grid):
                raise InvalidObject("sample trajectories must share the time grid")
        values = np.stack([tr.values for tr in trajs])
        values.flags.writeable = False
        # the dataclass is frozen, so its fields go straight into __dict__
        self.__dict__.update(space=first.space, time_grid=first.time_grid,
                             stacked_values=values, trajectories=trajs)

    @classmethod
    def _from_values(cls, space: SpaceKind, time_grid, values) -> "ObjectSample":
        """A sample from an (n, T, data_len) array that the caller hands
        over and no longer writes to: it is validated (and repaired
        within tolerance) as one block and frozen in place."""
        t, values = _admitted(space, time_grid, np.asarray(values, dtype=float), 3)
        if values.shape[0] < 2:
            raise TooFewTrajectories("a sample needs at least two trajectories")
        sample = object.__new__(cls)
        sample.__dict__.update(space=space, time_grid=t, stacked_values=values)
        return sample

    @property
    def n(self) -> int:
        return self.stacked_values.shape[0]

    @cached_property
    def trajectories(self) -> tuple[ObjectTrajectory, ...]:
        return tuple(
            ObjectTrajectory(self.space, self.time_grid, v) for v in self.stacked_values
        )


@dataclass(frozen=True)
class KernelSurface:
    """A symmetric T x T kernel on a time grid, with quadrature weights."""

    time_grid: np.ndarray
    values: np.ndarray
    quad_weights: np.ndarray

    def __post_init__(self):
        t = _check_time_grid(self.time_grid).copy()
        vals = np.array(self.values, dtype=float)
        w = np.array(self.quad_weights, dtype=float)
        if vals.shape != (t.size, t.size):
            raise InvalidSurface(f"values must be ({t.size}, {t.size}), got {vals.shape}")
        if np.abs(vals - vals.T).max() > 1e-12 * np.abs(vals).max():
            raise InvalidSurface("surface is not symmetric")
        if w.shape != (t.size,) or np.any(w < 0):
            raise InvalidSurface("quadrature weights must be T nonnegative reals")
        if abs(w.sum() - (t[-1] - t[0])) > 1e-9:
            raise InvalidSurface("quadrature weights must sum to the grid range")
        for arr in (t, vals, w):
            arr.flags.writeable = False
        object.__setattr__(self, "time_grid", t)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "quad_weights", w)

    @property
    def n_times(self) -> int:
        return self.time_grid.size


def pair_kernel(x: ObjectTrajectory, y: ObjectTrajectory, s_idx: int, t_idx: int) -> float:
    """The symmetrized squared-distance kernel for one trajectory pair at
    one pair of grid indices.

    Symmetric under swapping the trajectories and under swapping the
    indices, and zero when x and y are the same trajectory.  Curves that
    are constant in time give 2 d^2(a, b): values at different times are
    then perfectly dependent.
    """
    if x.space != y.space:
        raise SpaceMismatch("pair kernel needs trajectories in one space")
    T = x.n_times
    if not (0 <= s_idx < T and 0 <= t_idx < T):
        raise IndexError(f"grid indices ({s_idx}, {t_idx}) out of range for T={T}")
    scale = x.space.coord_scale

    def sq(u, v):
        diff = (u - v) * scale
        return float(np.dot(diff, diff))

    return (
        sq(x.values[s_idx], y.values[t_idx])
        + sq(y.values[s_idx], x.values[t_idx])
        - sq(x.values[s_idx], x.values[t_idx])
        - sq(y.values[s_idx], y.values[t_idx])
    )


def estimate_cov_surface(sample: ObjectSample) -> KernelSurface:
    """U-statistic estimate of the metric auto-covariance surface: the
    centered cross-covariance of the weighted metric coordinates, summed
    over blocks of trajectories (see the module docstring)."""
    values = sample.stacked_values
    n, T, _ = values.shape
    keep, w = sample.space.metric_coordinates()
    mean = values.mean(axis=0)[:, None, keep]
    step = max(1, _BLOCK_FLOATS // (T * w.size))
    surface = np.zeros((T, T))
    for i in range(0, n, step):
        # (T, b, k) as a C-ordered copy or a T-fastest gather: a view either way
        block = values[i:i + step].transpose(1, 0, 2)
        X = block.copy() if isinstance(keep, slice) else block[..., keep]
        X -= mean
        X *= w
        X = X.reshape(T, -1, order="A")
        surface += X @ X.T
        del X  # so that one block is alive at a time
    surface = (surface + surface.T) / (2 * (n - 1))
    return KernelSurface(sample.time_grid, surface, trapezoid_weights(sample.time_grid))


def _centered_points(objs: list[ObjectPoint]) -> tuple[SpaceKind, np.ndarray]:
    """Scaled coordinates of the objects minus their mean, as (n, L).

    The rows are shifted by the first object before centering, so
    identical objects center to exact zeros.
    """
    if len(objs) < 2:
        raise TooFewTrajectories("need at least two objects")
    space = objs[0].space
    for o in objs[1:]:
        if o.space != space:
            raise SpaceMismatch("objects must share a space")
    rows = np.stack([o.data for o in objs])
    rows = rows - rows[0]
    rows -= rows.mean(axis=0)
    return space, rows * space.coord_scale


def metric_variance(objs: list[ObjectPoint]) -> float:
    """U-statistic estimate of the metric variance (1/2) E d^2(U, U'),
    computed as sum_i ||U_i - Ubar||^2 / (n-1) in scaled coordinates.

    Equals the diagonal of :func:`estimate_cov_surface` when the objects
    are a time slice of a sample, and the unbiased sample variance for
    scalars.
    """
    return metric_covariance(objs, objs)


def metric_covariance(u: list[ObjectPoint], v: list[ObjectPoint]) -> float:
    """U-statistic estimate of the metric covariance of paired objects,
    computed as sum_i <U_i - Ubar, V_i - Vbar> / (n-1) in scaled
    coordinates.

    Both lists must live in the same space: the U-statistic evaluates
    distances between u- and v-objects.  :func:`metric_variance` is this
    with ``u`` equal to ``v``, so self-correlation is exactly 1.
    """
    space_u, rows_u = _centered_points(u)
    space_v, rows_v = _centered_points(v)
    if space_u != space_v:
        raise SpaceMismatch("metric covariance needs both margins in one space")
    if rows_u.shape[0] != rows_v.shape[0]:
        raise InvalidObject("paired lists must have equal length")
    return float(np.sum(rows_u * rows_v) / (rows_u.shape[0] - 1))


def metric_correlation(u: list[ObjectPoint], v: list[ObjectPoint]) -> float:
    """Metric correlation in [-1, 1]: covariance over the geometric mean
    of the two metric variances.

    Raises DegenerateVariance if either margin has zero variance.  The
    empirical Cauchy-Schwarz bound holds exactly, so values are clamped
    only against float noise within 1e-9.
    """
    var_u = metric_variance(u)
    var_v = metric_variance(v)
    if var_u <= 0.0 or var_v <= 0.0:
        raise DegenerateVariance("zero metric variance in a margin")
    rho = metric_covariance(u, v) / np.sqrt(var_u * var_v)
    if abs(rho) > 1.0 + 1e-9:
        raise InvalidObject(f"correlation {rho!r} exceeds 1 beyond float tolerance")
    return float(np.clip(rho, -1.0, 1.0))


def total_variance(surface: KernelSurface) -> float:
    """Quadrature integral of the surface diagonal (the operator trace)."""
    return float(np.dot(surface.quad_weights, np.diagonal(surface.values)))
