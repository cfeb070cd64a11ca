"""Simulation designs for distribution-valued and network-valued curves,
their true eigensystems, and the Monte-Carlo error harness.

Both designs draw four independent factors per trajectory and mix them
through fixed polynomial directions, so the population auto-covariance
is known.  Each design is one config class (see ``_SimConfig``):
``simulate(cfg)`` draws its sample, ``cfg.population_surface()`` is its
population surface on the config's grid (the network's is not exactly
rank 3: its edge weights are clamped to [0, 1]), ``true_eigensystem(cfg)``
that surface's eigensystem, and ``mise_report`` measures against both.
Random numbers come from counter-based Philox streams, one per factor,
each drawing its whole column in trajectory order; trajectory i uses
only the first i + 1 draws of each stream, so enlarging a sample extends
it without reshuffling earlier trajectories.  The values of a whole
sample are built in one broadcast over the draws, bit for bit equal to
the one-trajectory builders of ``tests/oracles.py``, and validated once
as one block.  The network directions are computed once per time grid,
and the truth once per design and grid, so neither a Monte-Carlo run nor
another sample size rebuilds an invariant.  The brute-force
population-eigenvalue oracle lives there too: no command runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import lru_cache
from statistics import NormalDist

import numpy as np

from .errors import BadRank, InvalidObject
from .eigen import EigenSystem, eigendecompose
from .fpca import _numerical_rank
from .kernel import KernelSurface, ObjectSample, estimate_cov_surface
from .spaces import SpaceKind, _count

NETWORK_NODES = 10
NETWORK_COMMUNITY = 5  # first five nodes vs last five

#: Midpoint nodes per factor axis of the network truth's quadrature.  At
#: T = 51 its surface is an ISE of 5e-8 from 2048 nodes (3e-8 from 64),
#: 0.1% of the network MISE(C) at n = 1600.
TRUTH_NODES = 32


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
    if _count(n, "n", 0) == 0:
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
    if _count(j, "j", 1) > 3:
        raise InvalidObject(f"network basis index must be 1, 2 or 3, got {j}")
    t = np.asarray(t, dtype=float)
    return _network_basis_raw(j, t) / _network_basis_norm(j)


@lru_cache(maxsize=16)
def _network_directions(grid: bytes) -> np.ndarray:
    """The three directions on the time grid with float64 bytes ``grid``, read-only."""
    directions = np.stack([network_sim_basis(j, np.frombuffer(grid)) for j in (1, 2, 3)])
    directions.flags.writeable = False
    return directions


def _factor_draws(cfg) -> np.ndarray:
    """(4, n) factor draws: row k is n draws of the k-th (kind, scale) of
    ``cfg._FACTORS`` ("normal", or "uniform" on [0, 1), times scale) from factor
    k's own Philox stream, spawned from the seed and read in trajectory order."""
    streams = np.random.SeedSequence(cfg.seed).spawn(4)
    return np.array([
        scale * getattr(np.random.Generator(np.random.Philox(ss)), kind)(size=cfg.n)
        for (kind, scale), ss in zip(cfg._FACTORS, streams)
    ])


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
    return np.array([inv_cdf(u) for u in SpaceKind("quantile", m).quantile_grid()])


def _distribution_values(mu, sigma, probes) -> np.ndarray:
    values = sigma[..., None] * probes
    values += mu[..., None]
    return values


def network_curve_params(u, v, w, z, time_grid) -> tuple[np.ndarray, np.ndarray]:
    """Within-community edge-weight curves (p1, p2) for the given factor
    draws, clamped to [0, 1]; broadcasts over leading axes."""
    t = np.asarray(time_grid, dtype=float)
    phi1, phi2, phi3 = _network_directions(t.tobytes()).reshape((3,) + t.shape)
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


class _SimConfig:
    """A design's config: count fields checked on construction (an (n, T,
    ``space.data_len``) sample must be one numpy can index), the time grid, the
    object ``space``, the factor laws ``_FACTORS`` as (kind, scale) pairs, the
    ``_values(draws, grid)`` of (4, n) draws, and the truth's
    ``population_surface()``."""

    def __post_init__(self):
        least = {"n": 2, "n_times": 3, "m": 2, "seed": 0}
        for f in fields(self):
            object.__setattr__(self, f.name, _count(getattr(self, f.name), f.name, least[f.name]))
        L = self.space.data_len
        if self.n * self.n_times * L * 8 > np.iinfo(np.intp).max:
            raise InvalidObject(f"an (n, T, {L}) sample is too big for numpy to index")

    @property
    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_times)


@dataclass(frozen=True)
class DistributionSimConfig(_SimConfig):
    """Sample size, time-grid size, quantile-grid size, and seed of the
    Gaussian-quantile design: mean 1 + U phi1 + V phi3 with U ~ N(0, 12),
    V ~ N(0, 1); scale 3 + W phi2 + Z phi3 with W ~ sqrt(72) Unif(0, 1),
    Z ~ 3 Unif(0, 1)."""

    n: int
    n_times: int = 51
    m: int = 100
    seed: int = 0
    _FACTORS = (("normal", np.sqrt(12.0)), ("normal", 1.0),
                ("uniform", np.sqrt(72.0)), ("uniform", 3.0))
    space = property(lambda self: SpaceKind("quantile", self.m))

    def _values(self, draws, grid) -> np.ndarray:
        mu, sigma = distribution_curve_params(*draws, grid)
        return _distribution_values(mu, sigma, quantile_probes(self.m))

    def population_surface(self) -> np.ndarray:
        """The (T, T) population metric auto-covariance, in closed form:
        Cov(mu) + c Cov(sigma) = 12 phi1 phi1' + phi3 phi3' + c (6 phi2 phi2' +
        0.75 phi3 phi3'), with the raw directions and c the mean square of
        the probes (mu and sigma are independent, so the probes' mean drops
        out).  The 1e-6 scale floor is ignored: it binds at about 3e-5 of
        the grid points (5e-4 of the trajectories) of 10^6 draws."""
        phi1, phi2, phi3 = distribution_sim_basis(self.time_grid)
        c = np.mean(quantile_probes(self.m) ** 2)
        return (12.0 * np.outer(phi1, phi1) + np.outer(phi3, phi3)
                + c * (6.0 * np.outer(phi2, phi2) + 0.75 * np.outer(phi3, phi3)))


@dataclass(frozen=True)
class NetworkSimConfig(_SimConfig):
    """Sample size, time-grid size, and seed of the two-community network
    design, with factor draws U ~ Unif(0, 0.4), V ~ Unif(0, 0.1),
    W ~ Unif(0, 0.3), Z ~ Unif(0, 0.1); the node structure is fixed at 10
    nodes in two communities of 5."""

    n: int
    n_times: int = 51
    seed: int = 0
    _FACTORS = (("uniform", 0.4), ("uniform", 0.1), ("uniform", 0.3), ("uniform", 0.1))
    space = SpaceKind("adjacency", NETWORK_NODES)

    def _values(self, draws, grid) -> np.ndarray:
        return _network_values(*network_curve_params(*draws, grid))

    def population_surface(self) -> np.ndarray:
        """The (T, T) population metric auto-covariance 20 Cov(p1) + 20 Cov(p2)
        of the clamped edge weights (each fills 20 entries), by a tensor
        midpoint rule with ``TRUTH_NODES`` nodes per axis over (U, V) and
        over (W, Z)."""
        u, v, w, z = (scale * (np.arange(TRUTH_NODES) + 0.5) / TRUTH_NODES
                      for _, scale in self._FACTORS)
        surface = np.zeros((self.n_times, self.n_times))
        for p in network_curve_params(u[:, None], v, w[:, None], z, self.time_grid):
            p = p.reshape(-1, self.n_times)
            p = p - p.mean(axis=0)
            surface += p.T @ p
        return surface * (20.0 / TRUTH_NODES**2)


def simulate(cfg) -> ObjectSample:
    """The sample of the design that ``cfg`` configures; ``InvalidObject``
    for anything but a simulation config."""
    if not isinstance(cfg, _SimConfig):
        raise InvalidObject(f"unknown simulation config {type(cfg).__name__}")
    grid = cfg.time_grid
    values = cfg._values(_factor_draws(cfg), grid)
    grid.flags.writeable = values.flags.writeable = False
    return ObjectSample(cfg.space, grid, values)


def _truth(cfg) -> tuple[KernelSurface, EigenSystem]:
    """The design's population surface on the config's grid and its top
    three eigenpairs; ``InvalidObject`` for anything but a simulation config.
    Neither depends on the sample size or the seed, so each design and grid
    builds them once, and every config that shares both gets the same
    read-only pair."""
    if not isinstance(cfg, _SimConfig):
        raise InvalidObject(f"unknown simulation config {type(cfg).__name__}")
    return _design_truth(replace(cfg, n=2, seed=0))


@lru_cache(maxsize=16)
def _design_truth(cfg) -> tuple[KernelSurface, EigenSystem]:
    surface = KernelSurface(cfg.time_grid, cfg.population_surface())
    return surface, eigendecompose(surface, k=3)


def true_eigensystem(cfg) -> EigenSystem:
    """The design's population eigensystem on the config's time grid: the
    top three eigenpairs of ``cfg.population_surface()``, by the estimator's
    own ``eigendecompose``.  Raises ``InvalidObject`` for an unknown config.
    """
    return _truth(cfg)[1]


def run_seed(seed: int, run_index: int) -> int:
    """Derived seed for one Monte-Carlo run; independent of the run count."""
    return int(np.random.SeedSequence(entropy=(seed, run_index)).generate_state(1, dtype=np.uint64)[0])


def mise_report(
    cfg,
    runs: int = 100,
    n_components: int = 3,
    truth_debug: bool = False,
) -> dict:
    """Mean integrated squared errors over repeated simulation runs,
    measured against the design's population surface and its eigensystem
    ``true_eigensystem(cfg)``.

    Per run: simulate, estimate the covariance surface, eigendecompose,
    then accumulate the squared quadrature-L2 errors of the surface, of
    each eigenfunction (sign-aligned to truth by quadrature inner
    product), and of each eigenvalue.  With ``truth_debug`` the population
    surface itself is fed into the eigen step instead of an estimate,
    which makes every error exactly 0.

    Returns a dict with keys ``n``, ``runs``, ``mise_c``, ``mise_phi``
    (length ``n_components``, at most the truth's numerical rank, which is
    at most 3), and ``mise_lambda``.
    """
    runs = _count(runs, "runs", 1)
    true_surface, truth = _truth(cfg)
    rank = _numerical_rank(truth)
    if _count(n_components, "n_components", 1, BadRank) > rank:
        raise BadRank(f"components must be in [1, {rank}] (the truth's rank), got {n_components}")
    w = truth.quad_weights
    w2 = np.outer(w, w)
    ise_c = 0.0
    ise_phi = np.zeros(n_components)
    se_lambda = np.zeros(n_components)
    for r in range(runs):
        if truth_debug:
            surface = true_surface
        else:
            surface = estimate_cov_surface(simulate(replace(cfg, seed=run_seed(cfg.seed, r))))
        es = eigendecompose(surface, k=n_components)
        ise_c += float(np.sum(w2 * (surface.values - true_surface.values) ** 2))
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
