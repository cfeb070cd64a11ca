"""Eigendecomposition of kernel surfaces under quadrature discretization.

The surface is discretized as an integral operator with the grid's
trapezoid weights (a Nystrom scheme): with W = diag(quad_weights), the
symmetric problem B = W^{1/2} C W^{1/2} is solved densely and the
eigenvectors mapped back through W^{-1/2}, which makes the
eigenfunctions orthonormal in the quadrature L2 inner product and the
eigenvalues consistent with the continuum operator as the grid refines.

A known truth is an ``EigenSystem`` too (``sim.true_eigensystem``).
Explained fractions divide by the clipped sum of all T eigenvalues, so
they do not depend on how many are retained.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadRank, DegenerateSpectrum, InvalidSurface
from .kernel import KernelSurface

#: Below this absolute value an eigenfunction integral counts as zero
#: for the sign convention.
SIGN_INTEGRAL_TOL = 1e-9


@dataclass(frozen=True)
class EigenSystem:
    """Descending eigenvalues with L2-orthonormal eigenfunctions on a grid.

    ``eigenfunctions`` has shape (K, T); row j is the j-th eigenfunction
    sampled on ``time_grid``, normalized so that
    sum_k w_k phi_j(t_k)^2 = 1.  Each eigenfunction carries the sign
    convention: its quadrature integral is nonnegative, and if that
    integral is numerically zero, the first entry exceeding 1e-9 in
    absolute value is positive.  ``n_negative`` counts eigenvalues that
    were negative before any clipping.  ``spectrum_total`` is the clipped
    sum of the whole spectrum; left out, it is that of the retained
    eigenvalues, as for a truth with no other components.
    """

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    time_grid: np.ndarray
    quad_weights: np.ndarray
    n_negative: int = 0
    clipped: bool = False
    spectrum_total: float | None = None

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float)
        funs = np.array(self.eigenfunctions, dtype=float)
        t = np.array(self.time_grid, dtype=float)
        w = np.array(self.quad_weights, dtype=float)
        if funs.shape != (vals.size, t.size):
            raise InvalidSurface(
                f"eigenfunctions must be ({vals.size}, {t.size}), got {funs.shape}"
            )
        if np.any(np.diff(vals) > 1e-12):
            raise InvalidSurface("eigenvalues must be in descending order")
        gram = (funs * w) @ funs.T
        if np.abs(gram - np.eye(vals.size)).max() > 1e-8:
            raise InvalidSurface("eigenfunctions are not quadrature-orthonormal")
        if self.spectrum_total is None:
            object.__setattr__(self, "spectrum_total", float(np.clip(vals, 0.0, None).sum()))
        for arr in (vals, funs, t, w):
            arr.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenfunctions", funs)
        object.__setattr__(self, "time_grid", t)
        object.__setattr__(self, "quad_weights", w)

    @property
    def num_retained(self) -> int:
        return self.eigenvalues.size

    def integral(self, j: int) -> float:
        """Quadrature integral of the j-th eigenfunction (1-based j)."""
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


def eigendecompose(surface: KernelSurface, k: int, clip: bool = False) -> EigenSystem:
    """Top-k eigenpairs of a kernel surface under quadrature weights.

    Parameters
    ----------
    surface : KernelSurface
        Kernel with positive quadrature weights; its construction has
        already checked that it is symmetric.
    k : int
        Number of components to retain; at most T.
    clip : bool
        If True, negative eigenvalues are zeroed in the output (they are
        still counted in ``n_negative``).  Finite-sample surfaces need
        not be nonnegative definite, so the default reports them raw.

    Raises
    ------
    BadRank
        If k exceeds the grid size (or k < 1).
    """
    T = surface.n_times
    if not (1 <= k <= T):
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

    n_negative = int(np.sum(vals < 0.0))
    if clip:
        vals = np.clip(vals, 0.0, None)
    return EigenSystem(vals, funs, surface.time_grid, w, n_negative, bool(clip), spectrum_total)


def explained_fraction(es: EigenSystem, j: int) -> float:
    """Fraction of the (clipped) whole spectrum carried by component j
    (1-based).

    Negative eigenvalues are clipped to zero in both the numerator and
    ``es.spectrum_total``, so the fractions of all nonnegative components,
    retained or not, sum to 1, and a component's fraction does not depend
    on how many components were retained.
    """
    if not (1 <= j <= es.num_retained):
        raise BadRank(f"component {j} not retained (K={es.num_retained})")
    if es.spectrum_total <= 0.0:
        raise DegenerateSpectrum("all clipped eigenvalues are zero")
    return float(np.clip(es.eigenvalues[j - 1], 0.0, None) / es.spectrum_total)


def reconstruct(es: EigenSystem) -> np.ndarray:
    """Surface rebuilt from the retained nonnegative components."""
    vals = np.clip(es.eigenvalues, 0.0, None)
    return (es.eigenfunctions.T * vals) @ es.eigenfunctions
