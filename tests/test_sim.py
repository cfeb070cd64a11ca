"""Simulation designs: bases, generators, population checks, MISE harness."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import eval_jacobi, ndtri

from ofpca import (
    DistributionSimConfig,
    InvalidObject,
    NetworkSimConfig,
    distance,
    estimate_cov_surface,
    jacobi_polynomial,
    mise_report,
    network_sim_basis,
    simulate_distributions,
    simulate_networks,
    trapezoid_weights,
    true_eigensystem,
)
from ofpca.sim import (
    DISTRIBUTION_EIGENVALUES,
    NETWORK_EIGENVALUES,
    distribution_curve_params,
    distribution_sim_basis,
    distribution_trajectory,
    network_curve_params,
    network_population_eigenvalue,
    network_trajectory,
    quantile_probes,
    run_seed,
    _distribution_values,
    _factor_draws,
    _network_values,
)

from oracles import mc_pair_kernel_mean


class TestDistributionBasis:
    def test_linear_direction_endpoint(self):
        assert distribution_sim_basis(np.array([1.0]))[1, 0] == pytest.approx(np.sqrt(3.0))

    def test_first_direction_root(self):
        t = np.array([np.sqrt(0.5)])
        assert distribution_sim_basis(t)[0, 0] == pytest.approx(0.0, abs=1e-14)

    def test_stated_pair_orthogonal_on_fine_grid(self):
        grid = np.linspace(0, 1, 1001)
        w = trapezoid_weights(grid)
        basis = distribution_sim_basis(grid)
        assert abs(np.dot(basis[0] * w, basis[1])) <= 1e-4

    def test_near_orthonormal_overall(self):
        # printed constants are rounded: deviations up to ~4e-3 remain
        grid = np.linspace(0, 1, 2001)
        w = trapezoid_weights(grid)
        basis = distribution_sim_basis(grid)
        gram = (basis * w) @ basis.T
        assert np.abs(gram - np.eye(3)).max() <= 5e-3


class TestNetworkBasis:
    def test_recurrence_matches_scipy(self):
        x = np.linspace(-1, 1, 23)
        for n in (0, 1, 2, 3, 4, 5, 6):
            mine = jacobi_polynomial(n, 4.0, 3.0, x)
            assert np.abs(mine - eval_jacobi(n, 4.0, 3.0, x)).max() <= 1e-12

    def test_vanishes_at_endpoints(self):
        ends = np.array([0.0, 1.0])
        for j in (1, 2, 3):
            assert np.abs(network_sim_basis(j, ends)).max() == 0.0

    def test_unit_norm_on_fine_grid(self):
        grid = np.linspace(0, 1, 2001)
        for j in (1, 2, 3):
            phi = network_sim_basis(j, grid)
            assert np.trapezoid(phi * phi, grid) == pytest.approx(1.0, abs=1e-6)

    def test_cross_orthogonality(self):
        grid = np.linspace(0, 1, 2001)
        w = trapezoid_weights(grid)
        b = np.stack([network_sim_basis(j, grid) for j in (1, 2, 3)])
        assert abs(np.dot(b[0] * w, b[1])) <= 1e-4
        assert abs(np.dot(b[0] * w, b[2])) <= 1e-4
        assert abs(np.dot(b[1] * w, b[2])) <= 1e-4


class TestDistributionGenerator:
    def test_forced_zero_factors_give_constant_sample(self):
        grid = np.linspace(0, 1, 11)
        tr = distribution_trajectory(0.0, 0.0, 0.0, 0.0, grid, m=15)
        # mean 1, scale 3 everywhere
        assert np.abs(tr.values - tr.values[0]).max() == 0.0
        other = distribution_trajectory(0.0, 0.0, 0.0, 0.0, grid, m=15)
        from ofpca import ObjectSample
        surface = estimate_cov_surface(ObjectSample((tr, other)))
        assert np.abs(surface.values).max() == 0.0

    def test_reproducible_and_prefix_stable(self):
        a = simulate_distributions(DistributionSimConfig(n=4, n_times=7, m=9, seed=5))
        b = simulate_distributions(DistributionSimConfig(n=4, n_times=7, m=9, seed=5))
        assert np.array_equal(a.stacked_values, b.stacked_values)
        bigger = simulate_distributions(DistributionSimConfig(n=6, n_times=7, m=9, seed=5))
        assert np.array_equal(bigger.stacked_values[:4], a.stacked_values)
        different = simulate_distributions(DistributionSimConfig(n=4, n_times=7, m=9, seed=6))
        assert not np.array_equal(different.stacked_values, a.stacked_values)

    def test_slice_distance_matches_gaussian_closed_form(self):
        # Wasserstein distance between two generated Gaussian slices is
        # sqrt(dmu^2 + dsigma^2); the quantile grid introduces a small
        # downweighting of the scale part, about 0.75% at m=100
        grid = np.array([0.0, 0.5, 1.0])
        a = distribution_trajectory(2.0, 0.5, 1.0, 0.3, grid, m=100)
        b = distribution_trajectory(-1.0, 0.2, 2.5, 1.0, grid, m=100)
        mu_a, s_a = distribution_curve_params(2.0, 0.5, 1.0, 0.3, grid)
        mu_b, s_b = distribution_curve_params(-1.0, 0.2, 2.5, 1.0, grid)
        for k in range(3):
            closed = np.sqrt((mu_a[k] - mu_b[k]) ** 2 + (s_a[k] - s_b[k]) ** 2)
            assert distance(a.point(k), b.point(k)) == pytest.approx(closed, rel=1e-2)

    def test_monte_carlo_population_covariance(self):
        # covariance kernel at (0.3, 0.7) against the analytic rank-3 form
        s, t = 0.3, 0.7
        grid = np.array([s, t])
        basis = distribution_sim_basis(grid)
        target = sum(
            lam * basis[j, 0] * basis[j, 1]
            for j, lam in enumerate(DISTRIBUTION_EIGENVALUES)
        )
        m = 100
        rng = np.random.default_rng(99)

        def draw_pair_d2(rng, size):
            def draws(size):
                u = rng.normal(size=size) * np.sqrt(12.0)
                v = rng.normal(size=size)
                w = np.sqrt(72.0) * rng.uniform(size=size)
                z = 3.0 * rng.uniform(size=size)
                return distribution_curve_params(u, v, w, z, grid)
            from scipy.special import ndtri
            probe = ndtri((np.arange(1, m + 1) - 0.5) / m)
            (mu_x, s_x), (mu_y, s_y) = draws(size), draws(size)

            def d2(mu1, s1, k1, mu2, s2, k2):
                dmu = mu1[:, k1] - mu2[:, k2]
                ds = s1[:, k1] - s2[:, k2]
                return dmu**2 + 2 * dmu * ds * probe.mean() + ds**2 * np.mean(probe**2)

            return (
                d2(mu_x, s_x, 0, mu_y, s_y, 1),
                d2(mu_y, s_y, 0, mu_x, s_x, 1),
                d2(mu_x, s_x, 0, mu_x, s_x, 1),
                d2(mu_y, s_y, 0, mu_y, s_y, 1),
            )

        est, se = mc_pair_kernel_mean(draw_pair_d2, 100_000, rng)
        assert abs(est - target) <= 3.0 * se + 0.05

    def test_generated_objects_satisfy_invariants(self):
        sample = simulate_distributions(DistributionSimConfig(n=6, n_times=9, m=25, seed=1))
        diffs = np.diff(sample.stacked_values, axis=2)
        assert diffs.min() >= 0.0


class TestBatchedSimulation:
    """The batched generators against one trajectory built at a time."""

    @staticmethod
    def factor_streams(seed):
        return [np.random.Generator(np.random.Philox(ss))
                for ss in np.random.SeedSequence(seed).spawn(4)]

    @classmethod
    def reference_distributions(cls, cfg):
        su, sv, sw, sz = cls.factor_streams(cfg.seed)
        us = su.normal(size=cfg.n) * np.sqrt(12.0)
        vs = sv.normal(size=cfg.n)
        ws = np.sqrt(72.0) * sw.uniform(size=cfg.n)
        zs = 3.0 * sz.uniform(size=cfg.n)
        trajs = [distribution_trajectory(u, v, w, z, cfg.time_grid, cfg.m)
                 for u, v, w, z in zip(us, vs, ws, zs)]
        return np.stack([tr.values for tr in trajs])

    @classmethod
    def reference_networks(cls, cfg):
        su, sv, sw, sz = cls.factor_streams(cfg.seed)
        us = su.uniform(0.0, 0.4, cfg.n)
        vs = sv.uniform(0.0, 0.1, cfg.n)
        ws = sw.uniform(0.0, 0.3, cfg.n)
        zs = sz.uniform(0.0, 0.1, cfg.n)
        trajs = [network_trajectory(u, v, w, z, cfg.time_grid)
                 for u, v, w, z in zip(us, vs, ws, zs)]
        return np.stack([tr.values for tr in trajs])

    @pytest.mark.parametrize("n", [2, 17])
    @pytest.mark.parametrize("T", [3, 51])
    def test_distributions_bit_equal_to_reference(self, n, T):
        cfg = DistributionSimConfig(n=n, n_times=T, m=13, seed=4)
        got = simulate_distributions(cfg).stacked_values
        assert got.tobytes() == self.reference_distributions(cfg).tobytes()

    @pytest.mark.parametrize("n", [2, 17])
    @pytest.mark.parametrize("T", [3, 51])
    def test_networks_bit_equal_to_reference(self, n, T):
        cfg = NetworkSimConfig(n=n, n_times=T, seed=4)
        got = simulate_networks(cfg).stacked_values
        assert got.tobytes() == self.reference_networks(cfg).tobytes()

    @pytest.mark.parametrize("n", [2, 17])
    def test_sample_is_prefix_of_larger_sample(self, n):
        for make, cfg in (
            (simulate_distributions, DistributionSimConfig(n=n, n_times=9, m=11, seed=3)),
            (simulate_networks, NetworkSimConfig(n=n, n_times=9, seed=3)),
        ):
            small = make(cfg).stacked_values
            big = make(replace(cfg, n=n + 5)).stacked_values
            assert big[:n].tobytes() == small.tobytes()

    def test_factors_come_from_distinct_streams(self):
        # one stream shared by two factors would make their draws, scaled
        # back to [0, 1), equal
        draws = _factor_draws(NetworkSimConfig(n=17, seed=4), ("uniform",) * 4,
                              (0.4, 0.1, 0.3, 0.1))
        unit = draws / np.array([0.4, 0.1, 0.3, 0.1])[:, None]
        assert unit.shape == (4, 17)
        assert unit.min() >= 0.0 and unit.max() < 1.0
        for a in range(4):
            for b in range(a):
                assert np.abs(unit[a] - unit[b]).min() > 0.0

    @pytest.mark.parametrize("design", ["dist", "net"])
    def test_values_built_without_full_size_temporaries(self, design):
        # a sample-sized temporary per term made every simulated sample
        # allocate, fault in and free several arrays of its own size
        p = np.linspace(0.2, 0.8, 100 * 51).reshape(100, 51)
        tracemalloc.start()
        try:
            if design == "dist":
                values = _distribution_values(p, p, quantile_probes(100))
            else:
                values = _network_values(p, p[::-1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (100, 51, 100)
        assert peak < 1.5 * values.nbytes

    @pytest.mark.parametrize("m", [2, 7, 100, 10000])
    def test_quantile_probes_match_ndtri(self, m):
        want = ndtri((np.arange(1, m + 1) - 0.5) / m)
        assert np.abs(quantile_probes(m) - want).max() <= 2e-15


class TestNetworkGenerator:
    def test_forced_zero_factors_give_constant_sample(self):
        grid = np.linspace(0, 1, 9)
        tr = network_trajectory(0.0, 0.0, 0.0, 0.0, grid)
        assert np.abs(tr.values - tr.values[0]).max() == 0.0

    def test_single_matrix_structure(self):
        grid = np.array([0.0, 0.4, 1.0])
        tr = network_trajectory(0.3, 0.05, 0.2, 0.1, grid)
        p1, p2 = network_curve_params(0.3, 0.05, 0.2, 0.1, grid)
        mat = tr.values[1].reshape(10, 10)
        assert mat[0, 1] == pytest.approx(p1[1])
        assert mat[5, 6] == pytest.approx(p2[1])
        assert mat[0, 5] == 0.1
        assert np.array_equal(mat, mat.T)
        assert np.abs(np.diag(mat)).max() == 0.0
        assert mat.min() >= 0.0 and mat.max() <= 1.0

    def test_reproducible(self):
        a = simulate_networks(NetworkSimConfig(n=3, n_times=6, seed=8))
        b = simulate_networks(NetworkSimConfig(n=3, n_times=6, seed=8))
        assert np.array_equal(a.stacked_values, b.stacked_values)

    def test_monte_carlo_population_diagonal(self):
        # kernel value at (0.5, 0.5) against an independent pairwise oracle
        grid = np.array([0.5, 0.5 + 1e-9])
        rng = np.random.default_rng(123)

        def draw_pair_d2(rng, size):
            def draws(size):
                u = rng.uniform(0, 0.4, size)
                v = rng.uniform(0, 0.1, size)
                w = rng.uniform(0, 0.3, size)
                z = rng.uniform(0, 0.1, size)
                return network_curve_params(u, v, w, z, grid)
            (p1x, p2x), (p1y, p2y) = draws(size), draws(size)

            def d2(a1, a2, k1, b1, b2, k2):
                return 20.0 * (a1[:, k1] - b1[:, k2]) ** 2 + 20.0 * (a2[:, k1] - b2[:, k2]) ** 2

            return (
                d2(p1x, p2x, 0, p1y, p2y, 1),
                d2(p1y, p2y, 0, p1x, p2x, 1),
                d2(p1x, p2x, 0, p1x, p2x, 1),
                d2(p1y, p2y, 0, p1y, p2y, 1),
            )

        est, se = mc_pair_kernel_mean(draw_pair_d2, 100_000, rng)
        s = 0.5
        basis = np.array([network_sim_basis(j, np.array([s]))[0] for j in (1, 2, 3)])
        closed_form = sum(lam * b * b for lam, b in zip(NETWORK_EIGENVALUES, basis))
        # the [0,1] clamp attenuates the population value a few percent
        # below the closed form
        assert est <= closed_form + 3 * se
        assert est >= 0.85 * closed_form - 3 * se

    def test_third_eigenvalue_oracle_rejects_printed_value(self):
        # the brute-force oracle reproduces the 20-entries-per-community
        # derivation (1/30, attenuated slightly by the clamp), and is
        # incompatible with 0.0417
        lam3 = network_population_eigenvalue(3, n_draws=300_000)
        assert abs(lam3 - 1.0 / 30.0) <= 0.0025
        assert abs(lam3 - 0.0417) >= 0.005

    def test_oracle_matches_top_eigenvalue_scale(self):
        lam1 = network_population_eigenvalue(1, n_draws=100_000)
        assert abs(lam1 - NETWORK_EIGENVALUES[0]) <= 0.05 * NETWORK_EIGENVALUES[0] + 0.005


class TestTruth:
    def test_orthonormal_within_tolerance(self):
        for truth in (
            true_eigensystem(DistributionSimConfig(n=2, n_times=51)),
            true_eigensystem(NetworkSimConfig(n=2, n_times=51)),
        ):
            gram = (truth.eigenfunctions * truth.quad_weights) @ truth.eigenfunctions.T
            assert np.abs(gram - np.eye(3)).max() <= 1e-6

    def test_surface_reproduces_eigenvalues(self):
        from ofpca import KernelSurface, eigendecompose, reconstruct

        truth = true_eigensystem(DistributionSimConfig(n=2, n_times=41))
        surface = KernelSurface(truth.time_grid, reconstruct(truth), truth.quad_weights)
        es = eigendecompose(surface, k=3)
        assert np.abs(es.eigenvalues - truth.eigenvalues).max() <= 1e-8


    @pytest.mark.parametrize("n_times", [5, 51])
    @pytest.mark.parametrize("make_cfg", [DistributionSimConfig, NetworkSimConfig])
    def test_reconstruct_is_the_rank3_surface_bit_for_bit(self, make_cfg, n_times):
        # the truth eigenvalues are positive, so clipping in reconstruct
        # changes nothing and the surface is exactly (phi^T Lambda) phi
        from ofpca import reconstruct

        truth = true_eigensystem(make_cfg(n=2, n_times=n_times))
        funs, vals = truth.eigenfunctions, truth.eigenvalues
        assert np.array_equal(reconstruct(truth), (funs.T * vals) @ funs)
        assert truth.spectrum_total == float(np.sum(vals))

    def test_unknown_config_rejected(self):
        with pytest.raises(InvalidObject):
            true_eigensystem(object())


class TestMiseHarness:
    def test_truth_debug_gives_zero_errors(self):
        cfg = DistributionSimConfig(n=10, n_times=21, m=10, seed=0)
        rep = mise_report(cfg, runs=1, truth_debug=True)
        assert rep["mise_c"] <= 1e-8
        assert rep["mise_phi"].max() <= 1e-8
        assert rep["mise_lambda"].max() <= 1e-8

    def test_small_run_sane_values(self):
        cfg = DistributionSimConfig(n=10, n_times=21, m=20, seed=3)
        rep = mise_report(cfg, runs=3)
        assert rep["n"] == 10 and rep["runs"] == 3
        assert rep["mise_c"] > 0
        assert np.all(np.isfinite(rep["mise_phi"]))
        assert np.all(np.isfinite(rep["mise_lambda"]))

    def test_run_seed_deterministic(self):
        assert run_seed(7, 3) == run_seed(7, 3)
        assert run_seed(7, 3) != run_seed(7, 4)
