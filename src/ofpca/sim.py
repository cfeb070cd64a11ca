"""Simulation designs for distribution-valued and network-valued curves,
their true eigenstructures, and the Monte-Carlo error harness.

Both designs draw four independent factors per trajectory and mix them
through fixed polynomial directions, so the population auto-covariance
is a known rank-3 kernel and estimation error can be measured exactly.
Random numbers come from counter-based Philox streams with one
substream per trajectory, so enlarging a sample extends it without
reshuffling earlier trajectories.  Only the factor draws are made per
trajectory; the values of a whole sample are built in one broadcast over
the draws, bit for bit equal to building each trajectory on its own,
and validated once as one block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import BadRank, InvalidObject
from .kernel import (
    KernelSurface,
    ObjectSample,
    ObjectTrajectory,
    estimate_cov_surface,
    trapezoid_weights,
)
from .eigen import eigendecompose
from .spaces import adjacency_space, quantile_space

NETWORK_NODES = 10
NETWORK_COMMUNITY = 5  # first five nodes vs last five

#: Population eigenvalues of the distribution design: Var(U)=12,
#: Var(W)=72/12=6, Var(V)+Var(Z)=1+9/12=1.75.
DISTRIBUTION_EIGENVALUES = (12.0, 6.0, 1.75)

#: Population eigenvalues of the network design.  Each community
#: contributes 20 varying off-diagonal entries (5*4, diagonal is zero),
#: and Var(U(0, c)) = c^2/12, so:
#:   lambda_1 = 20 * 0.4^2 / 12, lambda_2 = 20 * 0.3^2 / 12,
#:   lambda_3 = 2 * 20 * 0.1^2 / 12 = 1/30.
#: The third value is confirmed by network_population_eigenvalue.
NETWORK_EIGENVALUES = (3.2 / 12.0, 1.8 / 12.0, 1.0 / 30.0)


def distribution_sim_basis(t) -> np.ndarray:
    """The three polynomial directions of the distribution design,
    stacked as rows; orthonormal on [0, 1] up to the rounding of the
    printed constants."""
    t = np.asarray(t, dtype=float)
    phi1 = (t**2 - 0.5) / 0.3416
    phi2 = np.sqrt(3.0) * t
    phi3 = (t**3 - 0.3571 * t**2 - 0.6 * t + 0.1786) / 0.0895
    return np.stack([phi1, phi2, phi3])


def jacobi_polynomial(n: int, alpha: float, beta: float, x) -> np.ndarray:
    """Jacobi polynomial P_n^(alpha, beta)(x) by the standard three-term
    recurrence."""
    x = np.asarray(x, dtype=float)
    if n == 0:
        return np.ones_like(x)
    p_prev = np.ones_like(x)
    p = (alpha + 1.0) + (alpha + beta + 2.0) * (x - 1.0) / 2.0
    for k in range(2, n + 1):
        a = 2.0 * k * (k + alpha + beta) * (2.0 * k + alpha + beta - 2.0)
        b = (2.0 * k + alpha + beta - 1.0) * (alpha**2 - beta**2)
        c = (
            (2.0 * k + alpha + beta - 1.0)
            * (2.0 * k + alpha + beta)
            * (2.0 * k + alpha + beta - 2.0)
        )
        d = 2.0 * (k + alpha - 1.0) * (k + beta - 1.0) * (2.0 * k + alpha + beta)
        p, p_prev = ((b + c * x) * p - d * p_prev) / a, p
    return p


def _network_basis_raw(j: int, t: np.ndarray) -> np.ndarray:
    return jacobi_polynomial(2 * j, 4.0, 3.0, 2.0 * t - 1.0) * t**1.5 * (1.0 - t) ** 2


@lru_cache(maxsize=None)
def _network_basis_norm(j: int) -> float:
    # high-resolution trapezoid quadrature of the squared numerator
    grid = np.linspace(0.0, 1.0, 100001)
    vals = _network_basis_raw(j, grid)
    return float(np.sqrt(np.trapezoid(vals * vals, grid)))


def network_sim_basis(j: int, t) -> np.ndarray:
    """Direction j in {1, 2, 3} of the network design: a Jacobi polynomial
    times the weight t^1.5 (1-t)^2, normalized to unit L2 norm on [0, 1].
    Vanishes at both endpoints."""
    if j not in (1, 2, 3):
        raise InvalidObject(f"network basis index must be 1, 2 or 3, got {j}")
    t = np.asarray(t, dtype=float)
    return _network_basis_raw(j, t) / _network_basis_norm(j)


@dataclass(frozen=True)
class DistributionSimConfig:
    """Sample size, time-grid size, quantile-grid size, and seed."""

    n: int
    n_times: int = 51
    m: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.n_times < 3 or self.m < 2:
            raise InvalidObject("need n >= 2, n_times >= 3, m >= 2")

    @property
    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_times)


@dataclass(frozen=True)
class NetworkSimConfig:
    """Sample size, time-grid size, and seed; the node structure is fixed
    at 10 nodes in two communities of 5."""

    n: int
    n_times: int = 51
    seed: int = 0

    def __post_init__(self):
        if self.n < 2 or self.n_times < 3:
            raise InvalidObject("need n >= 2, n_times >= 3")

    @property
    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_times)


def _trajectory_rng(seed: int, index: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.Philox(ss))


def _factor_draws(cfg, draw) -> np.ndarray:
    """(4, n) factor draws, ``draw(rng)`` on each trajectory's own substream."""
    return np.array([draw(_trajectory_rng(cfg.seed, i)) for i in range(cfg.n)]).T


def distribution_curve_params(u, v, w, z, time_grid) -> tuple[np.ndarray, np.ndarray]:
    """Mean and scale curves of the Gaussian distribution design for the
    given factor draws; broadcasts over leading axes of the draws.

    The scale is floored at 1e-6: extreme draws can push the raw scale
    slightly negative near the interior minimum of the third direction,
    and a positive scale keeps quantile vectors monotone.
    """
    basis = distribution_sim_basis(time_grid)
    u, v, w, z = (np.asarray(a, dtype=float)[..., None] for a in (u, v, w, z))
    mu = 1.0 + u * basis[0] + v * basis[2]
    sigma = 3.0 + w * basis[1] + z * basis[2]
    return mu, np.maximum(sigma, 1e-6)


def quantile_probes(m: int) -> np.ndarray:
    """Standard normal quantiles at the midpoint grid u_k = (k - 0.5)/m."""
    inv_cdf = NormalDist().inv_cdf
    return np.array([inv_cdf(u) for u in quantile_space(m).quantile_grid()])


def _distribution_values(mu, sigma, probes) -> np.ndarray:
    values = sigma[..., None] * probes
    values += mu[..., None]
    return values


def distribution_trajectory(u, v, w, z, time_grid, m: int) -> ObjectTrajectory:
    """One quantile-vector trajectory from explicit factor draws."""
    mu, sigma = distribution_curve_params(u, v, w, z, time_grid)
    values = _distribution_values(mu, sigma, quantile_probes(m))
    return ObjectTrajectory(quantile_space(m), np.asarray(time_grid, float), values)


def simulate_distributions(cfg: DistributionSimConfig) -> ObjectSample:
    """Sample of Gaussian-quantile trajectories: mean 1 + U phi1 + V phi3
    with U ~ N(0, 12), V ~ N(0, 1); scale 3 + W phi2 + Z phi3 with
    W ~ sqrt(72) Unif(0, 1), Z ~ 3 Unif(0, 1)."""
    draws = _factor_draws(cfg, lambda rng: (
        rng.normal() * np.sqrt(12.0), rng.normal(),
        np.sqrt(72.0) * rng.uniform(), 3.0 * rng.uniform(),
    ))
    grid = cfg.time_grid
    mu, sigma = distribution_curve_params(*draws, grid)
    values = _distribution_values(mu, sigma, quantile_probes(cfg.m))
    return ObjectSample._from_values(quantile_space(cfg.m), grid, values)


def network_curve_params(u, v, w, z, time_grid) -> tuple[np.ndarray, np.ndarray]:
    """Within-community edge-weight curves (p1, p2) for the given factor
    draws, clamped to [0, 1]; broadcasts over leading axes."""
    phi1 = network_sim_basis(1, time_grid)
    phi2 = network_sim_basis(2, time_grid)
    phi3 = network_sim_basis(3, time_grid)
    u, v, w, z = (np.asarray(a, dtype=float)[..., None] for a in (u, v, w, z))
    p1 = np.clip(0.5 + u * phi1 + v * phi3, 0.0, 1.0)
    p2 = np.clip(0.5 + w * phi2 + z * phi3, 0.0, 1.0)
    return p1, p2


_CROSS_WEIGHT = 0.1


@lru_cache(maxsize=None)
def _edge_classes() -> np.ndarray:
    """Class of each entry of the flattened adjacency matrix: 0 inside the
    first community, 1 inside the second, 2 across, 3 on the diagonal."""
    first = np.arange(NETWORK_NODES) < NETWORK_COMMUNITY
    same = first[:, None] == first[None, :]
    classes = np.where(same, np.where(first[:, None], 0, 1), 2)
    np.fill_diagonal(classes, 3)
    return classes.ravel()


def _network_values(p1, p2) -> np.ndarray:
    """Flattened adjacency matrices for edge-weight curves of shape (..., T),
    gathered from the weights (p1, p2, cross, 0) by edge class, so the
    result is the only array of that size that is built."""
    weights = np.stack([p1, p2, np.full_like(p1, _CROSS_WEIGHT), np.zeros_like(p1)], axis=-1)
    return weights[..., _edge_classes()]


def network_trajectory(u, v, w, z, time_grid) -> ObjectTrajectory:
    """One adjacency-matrix trajectory from explicit factor draws: edge
    weight p1 inside the first community, p2 inside the second, 0.1
    across, zero diagonal."""
    values = _network_values(*network_curve_params(u, v, w, z, time_grid))
    return ObjectTrajectory(adjacency_space(NETWORK_NODES), np.asarray(time_grid, float), values)


def simulate_networks(cfg: NetworkSimConfig) -> ObjectSample:
    """Sample of two-community network trajectories with factor draws
    U ~ Unif(0, 0.4), V ~ Unif(0, 0.1), W ~ Unif(0, 0.3), Z ~ Unif(0, 0.1)."""
    draws = _factor_draws(cfg, lambda rng: (
        rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.3), rng.uniform(0.0, 0.1)
    ))
    grid = cfg.time_grid
    values = _network_values(*network_curve_params(*draws, grid))
    return ObjectSample._from_values(adjacency_space(NETWORK_NODES), grid, values)


def simulate(cfg) -> ObjectSample:
    """Dispatch on the config type."""
    if isinstance(cfg, DistributionSimConfig):
        return simulate_distributions(cfg)
    if isinstance(cfg, NetworkSimConfig):
        return simulate_networks(cfg)
    raise InvalidObject(f"unknown simulation config {type(cfg).__name__}")


def quadrature_orthonormalize(rows: np.ndarray, quad_weights: np.ndarray) -> np.ndarray:
    """Gram-Schmidt under the quadrature inner product, keeping each row's
    orientation.  Used to turn nearly orthonormal closed-form bases into
    exactly grid-orthonormal ones."""
    rows = np.array(rows, dtype=float)
    for j in range(rows.shape[0]):
        for l in range(j):
            rows[j] -= np.dot(rows[l] * quad_weights, rows[j]) * rows[l]
        norm = np.sqrt(np.dot(rows[j] * quad_weights, rows[j]))
        rows[j] /= norm
    return rows


@dataclass(frozen=True)
class SimulationTruth:
    """True eigenstructure of a design, sampled on a grid.

    Eigenfunctions are the design's closed-form directions
    re-orthonormalized under the grid's trapezoid quadrature (the raw
    printed constants are rounded, so the raw directions are orthonormal
    only to about 5e-4)."""

    eigenvalues: np.ndarray
    eigenfunctions: np.ndarray
    time_grid: np.ndarray
    quad_weights: np.ndarray

    def __post_init__(self):
        vals = np.array(self.eigenvalues, dtype=float)
        funs = np.array(self.eigenfunctions, dtype=float)
        t = np.array(self.time_grid, dtype=float)
        w = np.array(self.quad_weights, dtype=float)
        gram = (funs * w) @ funs.T
        if np.abs(gram - np.eye(funs.shape[0])).max() > 1e-6:
            raise InvalidObject("truth eigenfunctions are not quadrature-orthonormal")
        for arr in (vals, funs, t, w):
            arr.flags.writeable = False
        object.__setattr__(self, "eigenvalues", vals)
        object.__setattr__(self, "eigenfunctions", funs)
        object.__setattr__(self, "time_grid", t)
        object.__setattr__(self, "quad_weights", w)

    def surface(self) -> np.ndarray:
        """The rank-K true covariance surface on the grid."""
        return (self.eigenfunctions.T * self.eigenvalues) @ self.eigenfunctions

    @classmethod
    def for_distributions(cls, time_grid) -> "SimulationTruth":
        t = np.asarray(time_grid, dtype=float)
        w = trapezoid_weights(t)
        basis = quadrature_orthonormalize(distribution_sim_basis(t), w)
        return cls(np.array(DISTRIBUTION_EIGENVALUES), basis, t, w)

    @classmethod
    def for_networks(cls, time_grid) -> "SimulationTruth":
        t = np.asarray(time_grid, dtype=float)
        w = trapezoid_weights(t)
        basis = np.stack([network_sim_basis(j, t) for j in (1, 2, 3)])
        basis = quadrature_orthonormalize(basis, w)
        return cls(np.array(NETWORK_EIGENVALUES), basis, t, w)

    @classmethod
    def for_config(cls, cfg) -> "SimulationTruth":
        if isinstance(cfg, DistributionSimConfig):
            return cls.for_distributions(cfg.time_grid)
        if isinstance(cfg, NetworkSimConfig):
            return cls.for_networks(cfg.time_grid)
        raise InvalidObject(f"unknown simulation config {type(cfg).__name__}")


def run_seed(seed: int, run_index: int) -> int:
    """Derived seed for one Monte-Carlo run; independent of the run count."""
    return int(np.random.SeedSequence(entropy=(seed, run_index)).generate_state(1, dtype=np.uint64)[0])


def mise_report(
    cfg,
    truth: SimulationTruth,
    runs: int = 100,
    n_components: int = 3,
    truth_debug: bool = False,
) -> dict:
    """Mean integrated squared errors over repeated simulation runs.

    Per run: simulate, estimate the covariance surface, eigendecompose,
    then accumulate the squared quadrature-L2 errors of the surface, of
    each eigenfunction (sign-aligned to truth by quadrature inner
    product), and of each eigenvalue.  With ``truth_debug`` the true
    surface is fed into the eigen step instead of an estimate, which
    must drive every error to ~0.

    Returns a dict with keys ``n``, ``runs``, ``mise_c``, ``mise_phi``
    (length ``n_components``, at most the design's rank), and
    ``mise_lambda``.
    """
    if runs < 1:
        raise InvalidObject("runs must be >= 1")
    rank = truth.eigenvalues.size
    if not 1 <= n_components <= rank:
        raise BadRank(f"components must be in [1, {rank}] (the design's rank), got {n_components}")
    w = truth.quad_weights
    w2 = np.outer(w, w)
    true_surface = truth.surface()
    ise_c = 0.0
    ise_phi = np.zeros(n_components)
    se_lambda = np.zeros(n_components)
    for r in range(runs):
        if truth_debug:
            est_values = true_surface
        else:
            # the sample stays bound until the next run's is built, so the
            # allocator reuses its memory instead of handing it back to the
            # system with the surface's temporary, to be faulted in again
            sample = simulate(replace(cfg, seed=run_seed(cfg.seed, r)))
            est_values = estimate_cov_surface(sample).values
        est_surface = KernelSurface(truth.time_grid, est_values, w)
        es = eigendecompose(est_surface, k=n_components)
        ise_c += float(np.sum(w2 * (est_values - true_surface) ** 2))
        for j in range(n_components):
            phi_hat = es.eigenfunctions[j]
            phi_true = truth.eigenfunctions[j]
            if np.dot(phi_hat * w, phi_true) < 0:
                phi_hat = -phi_hat
            ise_phi[j] += float(np.dot(w, (phi_hat - phi_true) ** 2))
            se_lambda[j] += (es.eigenvalues[j] - truth.eigenvalues[j]) ** 2
    return {
        "n": cfg.n,
        "runs": runs,
        "mise_c": ise_c / runs,
        "mise_phi": ise_phi / runs,
        "mise_lambda": se_lambda / runs,
    }


def network_population_eigenvalue(
    j: int, n_draws: int = 1_000_000, n_times: int = 51, seed: int = 2024
) -> float:
    """Brute-force Monte-Carlo estimate of the j-th population eigenvalue
    of the network design.

    Draws independent trajectory pairs, evaluates the pairwise
    covariance kernel on the grid, and projects it onto the j-th true
    direction.  Distances are computed through the two within-community
    edge-weight curves; that reduction is verified against full
    adjacency matrices on a subsample before being trusted for the bulk
    of the draws.
    """
    grid = np.linspace(0.0, 1.0, n_times)
    w = trapezoid_weights(grid)
    truth = SimulationTruth.for_networks(grid)
    g = w * truth.eigenfunctions[j - 1]
    g_total = g.sum()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    def draw_curves(size):
        u = rng.uniform(0.0, 0.4, size)
        v = rng.uniform(0.0, 0.1, size)
        wd = rng.uniform(0.0, 0.3, size)
        z = rng.uniform(0.0, 0.1, size)
        return network_curve_params(u, v, wd, z, grid), (u, v, wd, z)

    def projected_cross(p1x, p2x, p1y, p2y):
        # sum_{s,t} g_s g_t d^2(X(s), Y(t)) with d^2 expanded per channel;
        # 20 off-diagonal entries carry each within-community weight
        out = 0.0
        for px, py in ((p1x, p1y), (p2x, p2y)):
            a_x = (px * px) @ g
            a_y = (py * py) @ g
            b_x = px @ g
            b_y = py @ g
            out = out + 20.0 * (g_total * a_x + g_total * a_y - 2.0 * b_x * b_y)
        return out

    # verify the two-channel reduction against full matrices
    (p1a, p2a), (ua, va, wa, za) = draw_curves(64)
    (p1b, p2b), (ub, vb, wb, zb) = draw_curves(64)
    for idx in range(8):
        ta = network_trajectory(ua[idx], va[idx], wa[idx], za[idx], grid)
        tb = network_trajectory(ub[idx], vb[idx], wb[idx], zb[idx], grid)
        diff = ta.values[:, None, :] - tb.values[None, :, :]
        d2_full = np.einsum("stp,stp->st", diff, diff)
        d2_fast = (
            20.0 * (p1a[idx][:, None] - p1b[idx][None, :]) ** 2
            + 20.0 * (p2a[idx][:, None] - p2b[idx][None, :]) ** 2
        )
        if np.abs(d2_full - d2_fast).max() > 1e-10:
            raise InvalidObject("network distance reduction failed validation")

    total = 0.0
    chunk = 50_000
    done = 0
    while done < n_draws:
        size = min(chunk, n_draws - done)
        (p1x, p2x), _ = draw_curves(size)
        (p1y, p2y), _ = draw_curves(size)
        cross = projected_cross(p1x, p2x, p1y, p2y)
        self_x = projected_cross(p1x, p2x, p1x, p2x)
        self_y = projected_cross(p1y, p2y, p1y, p2y)
        total += float(np.sum(0.25 * (2.0 * cross - self_x - self_y)))
        done += size
    return total / n_draws
