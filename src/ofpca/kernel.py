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

:func:`estimate_cov_surface` computes this with
``_coordinate_covariance``, which takes the mean first, in one pass in
the sample's own memory order (``_coordinate_mean``), then adds the
product of each centered, weighted block of trajectories, a (T, b k)
array of about ``_BLOCK_FLOATS`` floats, into one T x T sum: O(n T^2 k)
cost, with k = L for scalars and quantiles, r(r-1)/2 for adjacency and
r(r+1)/2 for sympsd, and no temporary the size of the sample.
Centering first also keeps the result accurate for curves with a large
common offset.  ``_blocks`` cuts the trajectories into those blocks;
the distance curves of ``ofpca.fpca`` use it too.  The metric
covariance of paired objects is the same statistic on the two-point
curves (U_i, V_i): :func:`metric_covariance` is entry (0, 1) of
``_coordinate_covariance`` on them.  The distance-only
pair kernel is kept as a test oracle in ``tests/oracles.py``.  An
:class:`ObjectSample` is built from one (n, T, L) array, which it
validates as a block and keeps read-only, so every stage can batch over
it; a writable array is copied first, a read-only one is kept.
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
from .spaces import ObjectPoint, SpaceKind, _admitted, _freeze, _own

#: Floats (512 KiB) per block of trajectories (``_blocks``).
_BLOCK_FLOATS = 1 << 16


def _blocks(n: int, floats_per_trajectory: int):
    """Slices of consecutive trajectories out of n, each of about
    ``_BLOCK_FLOATS`` floats and at least one trajectory."""
    step = max(1, _BLOCK_FLOATS // floats_per_trajectory)
    for i in range(0, n, step):
        yield slice(i, i + step)


def _coordinate_mean(values: np.ndarray) -> np.ndarray:
    """``values.mean(axis=0)``, bit for bit on C order and on the network
    simulator's coordinate-outermost layout, on which ``mean`` is slow."""
    return np.einsum("i...->...", values) / values.shape[0]


def trapezoid_weights(time_grid: np.ndarray) -> np.ndarray:
    """Composite trapezoid quadrature weights of a time grid; a grid that
    is not strictly increasing inside [0, 1] raises InvalidObject."""
    return _trapezoid(_check_time_grid(time_grid))


def _trapezoid(t: np.ndarray) -> np.ndarray:
    """The trapezoid weights of a grid that has passed ``_check_time_grid``."""
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


def _admit(obj, field: str, ndim: int) -> None:
    """Check ``obj``'s time grid and its array ``field`` ((T, L) with ndim 2, or
    (n >= 2, T, L) with ndim 3), validate (and repair within tolerance) the array as
    one block, and set both on the frozen ``obj`` (``_freeze``)."""
    t = _check_time_grid(obj.time_grid)
    raw = getattr(obj, field)
    values = np.asarray(raw, dtype=float)
    if values.ndim != ndim or values.shape[-2:] != (t.size, obj.space.data_len):
        raise InvalidObject(
            f"values must have shape (..., T={t.size}, {obj.space.data_len}), got {values.shape}"
        )
    if ndim == 3 and values.shape[0] < 2:
        raise TooFewTrajectories("a sample needs at least two trajectories")
    _freeze(obj, time_grid=t, **{field: _admitted(obj.space, values, raw)})


@dataclass(frozen=True, eq=False)
class ObjectTrajectory:
    """One object-valued curve: a time grid plus one object per time.

    ``values`` has shape (T, data_len); row k is the coordinate vector
    of the object at time ``time_grid[k]``.  Space invariants are
    enforced for every row on construction; ``values`` is copied as a
    sample's array is.
    """

    space: SpaceKind
    time_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        _admit(self, "values", 2)


@dataclass(frozen=True, eq=False)
class ObjectSample:
    """n >= 2 trajectories on one space and time grid, held as one
    read-only (n, T, data_len) array ``stacked_values``; ``trajectories``
    are lazy views of its rows.  The array is validated as one block and
    copied if it is writable, so later writes to the caller's array do not
    reach the sample; a read-only float64 array (a memory map too) is kept.
    So is a read-only grid (``_own``), which the trajectories share.
    """

    space: SpaceKind
    time_grid: np.ndarray
    stacked_values: np.ndarray

    def __post_init__(self):
        _admit(self, "stacked_values", 3)

    @property
    def n(self) -> int:
        return self.stacked_values.shape[0]

    @cached_property
    def trajectories(self) -> tuple[ObjectTrajectory, ...]:
        return tuple(
            ObjectTrajectory(self.space, self.time_grid, v) for v in self.stacked_values
        )


class _OnGrid:
    """``quad_weights``: the read-only trapezoid weights of ``time_grid``."""

    @cached_property
    def quad_weights(self) -> np.ndarray:
        return _own(_trapezoid(self.time_grid))


@dataclass(frozen=True, eq=False)
class KernelSurface(_OnGrid):
    """A symmetric T x T kernel on a time grid, with its ``quad_weights``.

    A read-only float64 ``time_grid`` or ``values`` is kept; anything else
    is held as a read-only copy, so later writes to the caller's arrays do
    not reach the surface.
    """

    time_grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = _check_time_grid(self.time_grid)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (t.size, t.size):
            raise InvalidSurface(f"values must be ({t.size}, {t.size}), got {vals.shape}")
        if not np.isfinite(vals).all():
            raise InvalidSurface("surface is not finite")
        if np.abs(vals - vals.T).max() > 1e-12 * np.abs(vals).max():
            raise InvalidSurface("surface is not symmetric")
        _freeze(self, time_grid=t, values=vals)


def estimate_cov_surface(sample: ObjectSample) -> KernelSurface:
    """U-statistic estimate of the metric auto-covariance surface: the
    centered cross-covariance of the weighted metric coordinates, summed
    over blocks of trajectories (see the module docstring)."""
    surface = _coordinate_covariance(sample.stacked_values, sample.space)
    surface.flags.writeable = False  # so that the surface keeps it uncopied
    return KernelSurface(sample.time_grid, surface)


def _coordinate_covariance(values: np.ndarray, space: SpaceKind) -> np.ndarray:
    """The symmetrized (T, T) unbiased cross-covariance of the weighted metric
    coordinates of ``values`` (n, T, L), summed over blocks of trajectories."""
    n, T, _ = values.shape
    keep, w = space.metric_coordinates()
    mean = _coordinate_mean(values)[:, None, keep]
    surface = np.zeros((T, T))
    # a one-node network keeps no coordinates: its blocks are empty, its surface zero
    for rows in _blocks(n, T * max(w.size, 1)):
        # (T, b, k) as a C-ordered copy or a T-fastest gather: a view either way
        block = values[rows].transpose(1, 0, 2)
        X = block.copy() if isinstance(keep, slice) else block[..., keep]
        X -= mean
        X *= w
        X = X.reshape(T, -1, order="A")
        surface += X @ X.T
        del X  # so that one block is alive at a time
    return (surface + surface.T) / (2 * (n - 1))


def metric_variance(objs: list[ObjectPoint]) -> float:
    """U-statistic estimate of the metric variance (1/2) E d^2(U, U'),
    ``metric_covariance(objs, objs)``: sum_i ||U_i - Ubar||^2 / (n-1) in
    metric coordinates.

    Equals, up to round-off, the diagonal of :func:`estimate_cov_surface`
    when the objects are a time slice of a sample, and the unbiased
    sample variance for scalars.
    """
    return metric_covariance(objs, objs)


def metric_covariance(u: list[ObjectPoint], v: list[ObjectPoint]) -> float:
    """U-statistic estimate of the metric covariance of paired objects:
    entry (0, 1) of the auto-covariance surface of the two-point curves
    (u_i, v_i), computed by the surface's own code.

    Both lists must live in the same space: the U-statistic evaluates
    distances between u- and v-objects.  The pairs are shifted by the
    first pair before the mean is taken, so identical objects give exactly
    0.  :func:`metric_variance` is this with ``u`` equal to ``v``, so
    self-correlation is exactly 1.
    """
    if min(len(u), len(v)) < 2:
        raise TooFewTrajectories("need at least two objects")
    space = u[0].space
    if any(o.space != space for o in (*u, *v)):
        raise SpaceMismatch("metric covariance needs all objects in one space")
    if len(u) != len(v):
        raise InvalidObject("paired lists must have equal length")
    pairs = np.array([(a.data, b.data) for a, b in zip(u, v)])
    pairs = pairs - pairs[0]
    return float(_coordinate_covariance(pairs, space)[0, 1])


def metric_correlation(u: list[ObjectPoint], v: list[ObjectPoint]) -> float:
    """Metric correlation in [-1, 1]: covariance over the geometric mean
    of the two metric variances, taken without their product, which
    overflows or underflows for data scaled by 1e+-100.

    The pair is checked first, by :func:`metric_covariance`, so that a
    constant margin cannot hide an input error; then DegenerateVariance is
    raised if either margin has zero variance.  The covariance and both
    variances are separate calls on one set of coordinates, so the
    empirical Cauchy-Schwarz bound holds up to round-off, which the clamp
    removes.
    """
    cov, var_u, var_v = metric_covariance(u, v), metric_variance(u), metric_variance(v)
    if var_u <= 0.0 or var_v <= 0.0:
        raise DegenerateVariance("zero metric variance in a margin")
    rho = (cov / var_u) * np.sqrt(var_u / var_v)
    return float(np.clip(rho, -1.0, 1.0))
