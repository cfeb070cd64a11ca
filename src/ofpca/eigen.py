"""Eigendecomposition of kernel surfaces under quadrature discretization.

The surface is discretized as an integral operator with the grid's
trapezoid weights, which a surface and an eigensystem derive from their
grid as ``quad_weights`` (a Nystrom scheme): with W = diag(quad_weights),
the symmetric problem B = W^{1/2} C W^{1/2} is solved densely and the
eigenvectors mapped back through W^{-1/2}, which makes the
eigenfunctions orthonormal in the quadrature L2 inner product and the
eigenvalues consistent with the continuum operator as the grid refines.

A simulation truth is an ``EigenSystem`` too: ``sim.true_eigensystem``
is this decomposition of a design's population surface.
Explained fractions divide by the clipped sum of all T eigenvalues, so
they do not depend on how many are retained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BadRank, InvalidSurface
from .kernel import KernelSurface, _check_time_grid, _OnGrid
from .spaces import _count, _freeze

#: Below this absolute value an eigenfunction integral counts as zero
#: for the sign convention.
SIGN_INTEGRAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class EigenSystem(_OnGrid):
    """Descending eigenvalues with L2-orthonormal eigenfunctions on a grid.

    ``eigenfunctions`` has shape (K, T); row j is the j-th eigenfunction
    sampled on ``time_grid``, normalized so that
    sum_k w_k phi_j(t_k)^2 = 1.  Each eigenfunction carries the sign
    convention: its quadrature integral is nonnegative, and if that
    integral is numerically zero, the first entry exceeding 1e-9 in
    absolute value is positive.  ``quad_weights`` are the trapezoid
    weights of ``time_grid``.  ``eigenvalues`` is a non-empty vector; it and
    ``eigenfunctions`` are finite.
    ``spectrum_total`` (keyword-only) is the clipped sum of the whole
    spectrum, finite and at least that of the retained eigenvalues, less
    1e-12 relative for summation order; left out, it is the retained sum,
    as for a truth with no other components.  A read-only float64
    ``eigenvalues``, ``eigenfunctions`` or ``time_grid`` is kept; anything
    else is held as a read-only copy, so later writes to the caller's
    arrays do not reach the system.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    time_grid: np.ndarray
    spectrum_total: float | None = field(default=None, kw_only=True)

    def __post_init__(self):
        # set before the checks: the Gram check reads quad_weights of the grid
        vals, funs, t = _freeze(self, eigenvalues=self.eigenvalues,
                                eigenfunctions=self.eigenfunctions, time_grid=self.time_grid)
        _check_time_grid(t)
        if vals.ndim != 1 or not vals.size:
            raise InvalidSurface(f"eigenvalues must be a non-empty vector, got shape {vals.shape}")
        if funs.shape != (vals.size, t.size):
            raise InvalidSurface(
                f"eigenfunctions must be ({vals.size}, {t.size}), got {funs.shape}"
            )
        if not (np.isfinite(vals).all() and np.isfinite(funs).all()):
            raise InvalidSurface("eigenvalues and eigenfunctions must be finite")
        if np.any(np.diff(vals) > 1e-12):
            raise InvalidSurface("eigenvalues must be in descending order")
        gram = (funs * self.quad_weights) @ funs.T
        if np.abs(gram - np.eye(vals.size)).max() > 1e-8:
            raise InvalidSurface("eigenfunctions are not quadrature-orthonormal")
        retained = float(np.clip(vals, 0.0, None).sum())
        if self.spectrum_total is None:
            object.__setattr__(self, "spectrum_total", retained)
        elif not retained * (1.0 - 1e-12) <= self.spectrum_total < np.inf:
            raise InvalidSurface(f"spectrum_total must be finite and at least {retained!r},"
                                 f" got {self.spectrum_total!r}")

    @property
    def num_retained(self) -> int:
        return self.eigenvalues.size

    @property
    def explained_fractions(self) -> np.ndarray:
        """Clipped retained eigenvalues over ``spectrum_total`` (zeros if it is
        0): entry j - 1 is component j's share of the clipped whole spectrum."""
        vals = np.clip(self.eigenvalues, 0.0, None)
        return vals / self.spectrum_total if self.spectrum_total > 0.0 else np.zeros_like(vals)

    def integral(self, j: int) -> float:
        """Quadrature integral of the j-th eigenfunction (1-based j); BadRank
        unless j names a retained component."""
        if _count(j, "component", 1, BadRank) > self.num_retained:
            raise BadRank(f"component {j} not retained (K={self.num_retained})")
        return float(np.dot(self.quad_weights, self.eigenfunctions[j - 1]))


def apply_sign_convention(funs: np.ndarray, quad_weights: np.ndarray) -> np.ndarray:
    """Flip eigenfunction rows so each integrates to a nonnegative value;
    rows with (numerically) zero integral get a positive first large entry."""
    funs = funs.copy()
    integrals = funs @ quad_weights
    for j in range(funs.shape[0]):
        if abs(integrals[j]) >= SIGN_INTEGRAL_TOL:
            if integrals[j] < 0:
                funs[j] = -funs[j]
        else:
            big = np.nonzero(np.abs(funs[j]) > SIGN_INTEGRAL_TOL)[0]
            if big.size and funs[j, big[0]] < 0:
                funs[j] = -funs[j]
    return funs


def eigendecompose(surface: KernelSurface, k: int) -> EigenSystem:
    """Top-k eigenpairs of a kernel surface under quadrature weights.

    Eigenvalues are reported raw: a surface that is not nonnegative
    definite keeps its negative ones.

    Parameters
    ----------
    surface : KernelSurface
        Symmetric kernel (its construction checked that) on a strictly
        increasing grid, so its trapezoid weights are positive.
    k : int
        Number of components to retain; at most T.

    Raises
    ------
    BadRank
        If k is not an integer in [1, T].
    """
    T = surface.time_grid.size
    if _count(k, "k", 1, BadRank) > T:
        raise BadRank(f"k must be in [1, {T}], got {k}")

    w = surface.quad_weights
    sqrt_w = np.sqrt(w)
    b = sqrt_w[:, None] * surface.values * sqrt_w[None, :]
    b = 0.5 * (b + b.T)
    vals, vecs = np.linalg.eigh(b)
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    spectrum_total = float(np.clip(vals, 0.0, None).sum())
    vals = vals[:k]
    funs = (vecs[:, order[:k]] / sqrt_w[:, None]).T

    norms = np.sqrt((funs * funs) @ w)
    funs = funs / norms[:, None]
    funs = apply_sign_convention(funs, w)
    vals.flags.writeable = funs.flags.writeable = False  # so that the system keeps them
    return EigenSystem(vals, funs, surface.time_grid, spectrum_total=spectrum_total)

