"""Frechet means, object components, Riemann-sum minimizer, scores."""

import numpy as np
import pytest

from ofpca import (
    EigenSystem,
    EmptyInput,
    NonIntegrableEigenfunction,
    ObjectPoint,
    ObjectSample,
    ObjectTrajectory,
    distance,
    fit_fpca,
    frechet_mean_trajectory,
    frechet_scores,
    normalize_eigenfunction,
    object_fpc,
    quantile_space,
    riemann_sum_minimizer,
    scalar_space,
    squared_distance,
    sympsd_space,
    trapezoid_weights,
)
from ofpca.sim import quadrature_orthonormalize

from oracles import gaussian_quantiles, monotone_lattice


def scalar_sample(X, grid=None):
    n, T = X.shape
    if grid is None:
        grid = np.linspace(0.0, 1.0, T)
    return ObjectSample(tuple(
        ObjectTrajectory(scalar_space(), grid, X[i][:, None]) for i in range(n)
    ))


def legendre_eigen(grid):
    """EigenSystem built from grid-orthonormalized shifted Legendre rows;
    the first direction is constant, hence nonnegative."""
    w = trapezoid_weights(grid)
    raw = np.stack([
        np.ones_like(grid),
        np.sqrt(3.0) * (2 * grid - 1),
        np.sqrt(5.0) * (6 * grid**2 - 6 * grid + 1),
    ])
    basis = quadrature_orthonormalize(raw, w)
    return EigenSystem(np.array([3.0, 2.0, 1.0]), basis, grid, w)


class TestMeanTrajectory:
    def test_identical_trajectories(self):
        grid = np.linspace(0, 1, 6)
        vals = np.sort(np.random.default_rng(0).normal(size=(6, 3)), axis=1)
        tr = ObjectTrajectory(quantile_space(3), grid, vals)
        sample = ObjectSample((tr, tr, tr))
        mean = frechet_mean_trajectory(sample)
        assert np.abs(mean.values - vals).max() <= 1e-15

    def test_symmetric_pair_gives_zero(self):
        grid = np.linspace(0, 1, 9)
        g = np.sin(2 * np.pi * grid)
        sample = scalar_sample(np.stack([g, -g]))
        mean = frechet_mean_trajectory(sample)
        assert np.abs(mean.values).max() <= 1e-15

    def test_quantile_mean_is_pointwise_average(self):
        rng = np.random.default_rng(1)
        grid = np.linspace(0, 1, 5)
        space = quantile_space(4)
        vals = np.sort(rng.normal(size=(7, 5, 4)), axis=2)
        sample = ObjectSample(tuple(
            ObjectTrajectory(space, grid, vals[i]) for i in range(7)
        ))
        mean = frechet_mean_trajectory(sample)
        assert np.abs(mean.values - vals.mean(axis=0)).max() <= 1e-12

    def test_slice_optimality_against_perturbations(self):
        rng = np.random.default_rng(2)
        grid = np.linspace(0, 1, 4)
        space = quantile_space(3)
        vals = np.sort(rng.normal(size=(6, 4, 3)), axis=2)
        sample = ObjectSample(tuple(
            ObjectTrajectory(space, grid, vals[i]) for i in range(6)
        ))
        mean = frechet_mean_trajectory(sample)
        for t in range(4):
            center = mean.point(t)
            base = sum(squared_distance(center, tr.point(t)) for tr in sample.trajectories)
            for _ in range(100):
                cand = ObjectPoint(space, np.sort(center.data + rng.normal(scale=0.2, size=3)))
                val = sum(squared_distance(cand, tr.point(t)) for tr in sample.trajectories)
                assert base <= val + 1e-10

    def test_continuity_shrinks_with_grid(self):
        # adjacent-point mean distances shrink as the grid doubles
        def max_adjacent(T):
            grid = np.linspace(0, 1, T)
            rng = np.random.default_rng(3)
            X = np.stack([
                np.sin(2 * np.pi * grid) + rng.normal(scale=0.1),
                np.cos(2 * np.pi * grid) + rng.normal(scale=0.1),
                grid**2,
            ])
            mean = frechet_mean_trajectory(scalar_sample(X, grid))
            return np.abs(np.diff(mean.values[:, 0])).max()

        coarse, fine = max_adjacent(26), max_adjacent(51)
        assert fine < coarse


class TestNormalize:
    def test_constant_function_unchanged(self):
        grid = np.linspace(0, 1, 11)
        es = legendre_eigen(grid)
        out = normalize_eigenfunction(es, 1)
        assert np.abs(out - es.eigenfunctions[0]).max() <= 1e-12

    def test_integral_two_halves(self):
        grid = np.linspace(0, 1, 21)
        w = trapezoid_weights(grid)
        phi = np.full_like(grid, 2.0)
        basis = np.stack([phi / np.sqrt(np.dot(w, phi * phi))])
        es = EigenSystem(np.array([1.0]), basis, grid, w)
        # the unit-norm constant is 1, scaling by its integral is identity;
        # force a function with integral 2 instead
        doubled = EigenSystem(np.array([1.0]), basis, grid, w)
        out = normalize_eigenfunction(doubled, 1)
        assert np.dot(w, out) == pytest.approx(1.0, abs=1e-10)

    def test_linear_direction_closed_form(self):
        # the linear direction c*t integrates to c/2, so its normalized
        # version is exactly 2t whatever the unit-norm constant c is
        # (trapezoid quadrature is exact on linear functions)
        grid = np.linspace(0, 1, 51)
        w = trapezoid_weights(grid)
        phi2 = np.sqrt(3.0) * grid
        phi2 = phi2 / np.sqrt(np.dot(w, phi2 * phi2))
        es = EigenSystem(np.array([1.0]), np.stack([phi2]), grid, w)
        out = normalize_eigenfunction(es, 1)
        assert np.abs(out - 2.0 * grid).max() <= 1e-10
        assert np.dot(w, out) == pytest.approx(1.0, abs=1e-10)

    def test_zero_integral_raises(self):
        grid = np.linspace(0, 1, 41)
        w = trapezoid_weights(grid)
        phi = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
        phi = phi / np.sqrt(np.dot(w, phi * phi))
        es = EigenSystem(np.array([1.0]), np.stack([phi]), grid, w)
        with pytest.raises(NonIntegrableEigenfunction):
            normalize_eigenfunction(es, 1)


class TestObjectFpc:
    def test_constant_trajectory_returns_the_constant(self):
        grid = np.linspace(0, 1, 21)
        w = trapezoid_weights(grid)
        space = quantile_space(3)
        point = np.array([0.0, 0.5, 2.0])
        traj = ObjectTrajectory(space, grid, np.tile(point, (21, 1)))
        phi_star = 2.0 * grid  # integrates to 1, signed weights after w*phi
        out = object_fpc(traj, phi_star, w)
        assert np.abs(out.data - point).max() <= 1e-12

    def test_constant_weight_gives_time_average(self):
        grid = np.linspace(0, 1, 31)
        w = trapezoid_weights(grid)
        vals = np.linspace(-1, 3, 31)[:, None]
        traj = ObjectTrajectory(scalar_space(), grid, vals)
        out = object_fpc(traj, np.ones_like(grid), w)
        assert out.data[0] == pytest.approx(float(np.trapezoid(vals[:, 0], grid)), abs=1e-12)

    def test_gaussian_quantile_closed_form(self):
        # mean/scale curves mix through the weight function, then the
        # result projects to a monotone vector
        m, T = 12, 41
        grid = np.linspace(0, 1, T)
        w = trapezoid_weights(grid)
        space = quantile_space(m)
        mu = 1.0 + 0.5 * grid
        sigma = 1.0 + grid**2
        probe = gaussian_quantiles(0.0, 1.0, m)
        vals = mu[:, None] + sigma[:, None] * probe[None, :]
        traj = ObjectTrajectory(space, grid, vals)
        phi_star = 2.0 * grid
        out = object_fpc(traj, phi_star, w)
        mu_int = float(np.dot(w, mu * phi_star))
        sigma_int = float(np.dot(w, sigma * phi_star))
        expected = mu_int + sigma_int * probe
        assert np.abs(out.data - expected).max() <= 1e-10

    def test_matches_riemann_lattice_scalar(self):
        grid = np.linspace(0, 1, 17)
        w = trapezoid_weights(grid)
        vals = np.cos(np.pi * grid)[:, None]
        traj = ObjectTrajectory(scalar_space(), grid, vals)
        phi_star = 2.0 * grid
        closed = object_fpc(traj, phi_star, w)
        lattice = [ObjectPoint(scalar_space(), [v]) for v in np.linspace(-2, 2, 4001)]
        searched = riemann_sum_minimizer(traj, phi_star, lattice, w)
        assert abs(closed.data[0] - searched.data[0]) <= 1e-3

    @pytest.mark.parametrize("offset", [1e6, 1e8])
    def test_matches_riemann_lattice_scalar_at_large_offset(self, offset):
        grid = np.linspace(0, 1, 17)
        w = trapezoid_weights(grid)
        traj = ObjectTrajectory(scalar_space(), grid, offset + np.cos(np.pi * grid)[:, None])
        phi_star = 2.0 * grid
        closed = object_fpc(traj, phi_star, w)
        step = 1e-3
        lattice = [ObjectPoint(scalar_space(), [offset + v]) for v in np.arange(-1.5, 1.5, step)]
        searched = riemann_sum_minimizer(traj, phi_star, lattice, w)
        assert abs(closed.data[0] - searched.data[0]) <= step + 1e-12

    @pytest.mark.parametrize("m,n_levels", [(2, 81), (3, 51)])
    def test_matches_riemann_lattice_quantile(self, m, n_levels):
        rng = np.random.default_rng(4)
        T = 9
        grid = np.linspace(0, 1, T)
        w = trapezoid_weights(grid)
        space = quantile_space(m)
        vals = np.sort(rng.uniform(0, 1, size=(T, m)), axis=1)
        traj = ObjectTrajectory(space, grid, vals)
        phi_star = 2.0 * grid
        closed = object_fpc(traj, phi_star, w)
        levels = np.linspace(-0.5, 1.5, n_levels)
        cands = [ObjectPoint(space, row) for row in monotone_lattice(m, levels)]
        searched = riemann_sum_minimizer(traj, phi_star, cands, w)
        step = levels[1] - levels[0]
        assert np.abs(closed.data - searched.data).max() <= step


class TestRiemannMinimizer:
    def test_returns_closed_form_when_present(self):
        grid = np.linspace(0, 1, 11)
        w = trapezoid_weights(grid)
        traj = ObjectTrajectory(scalar_space(), grid, grid[:, None])
        phi_star = np.ones_like(grid)
        target = float(np.trapezoid(grid, grid))
        cands = [ObjectPoint(scalar_space(), [v]) for v in (0.0, target, 1.0)]
        out = riemann_sum_minimizer(traj, phi_star, cands, w)
        assert out.data[0] == target

    def test_constant_trajectory_prefers_its_value(self):
        grid = np.linspace(0, 1, 7)
        traj = ObjectTrajectory(scalar_space(), grid, np.full((7, 1), 0.25))
        cands = [ObjectPoint(scalar_space(), [0.25]), ObjectPoint(scalar_space(), [1.5])]
        out = riemann_sum_minimizer(traj, np.ones_like(grid), cands)
        assert out.data[0] == 0.25

    def test_default_candidates_are_observed_objects(self):
        grid = np.linspace(0, 1, 5)
        traj = ObjectTrajectory(scalar_space(), grid, np.array([[0.0], [1.0], [2.0], [3.0], [4.0]]))
        out = riemann_sum_minimizer(traj, np.ones_like(grid))
        assert out.data[0] in traj.values[:, 0]

    def test_empty_candidates(self):
        grid = np.linspace(0, 1, 5)
        traj = ObjectTrajectory(scalar_space(), grid, np.zeros((5, 1)))
        with pytest.raises(EmptyInput):
            riemann_sum_minimizer(traj, np.ones_like(grid), [])

    def test_error_halves_as_grid_doubles(self):
        # smooth scalar curve: the quadrature minimizer converges to the
        # closed-form integral, and the error at 2T is at most half
        phi_star_fn = lambda t: 2.0 * t
        curve = lambda t: np.sin(2 * np.pi * t) + 0.2 * t
        # closed form of integral x(t) phi*(t) dt on [0,1]
        from scipy.integrate import quad
        target, _ = quad(lambda t: curve(t) * phi_star_fn(t), 0, 1, limit=200)

        step = 5e-5
        lattice = [ObjectPoint(scalar_space(), [v])
                   for v in np.arange(-1.0, 1.0 + step, step)]

        def minimizer_error(T):
            grid = np.linspace(0, 1, T)
            w = trapezoid_weights(grid)
            traj = ObjectTrajectory(scalar_space(), grid, curve(grid)[:, None])
            out = riemann_sum_minimizer(traj, phi_star_fn(grid), lattice, w)
            return abs(out.data[0] - target)

        e_coarse = minimizer_error(11)
        e_fine = minimizer_error(21)
        assert e_fine <= 0.5 * e_coarse + 2.0 * step


class TestScores:
    def test_trajectory_equal_to_mean_scores_zero(self):
        grid = np.linspace(0, 1, 21)
        es = legendre_eigen(grid)
        g = np.sin(2 * np.pi * grid)
        sample = scalar_sample(np.stack([g, -g]), grid)
        mean = frechet_mean_trajectory(sample)
        third = scalar_sample(np.stack([np.zeros_like(grid), g, -g]), grid)
        scores = frechet_scores(third, mean, es)
        assert np.abs(scores[0]).max() == 0.0

    def test_distance_curve_equal_to_first_eigenfunction(self):
        grid = np.linspace(0, 1, 101)
        es = legendre_eigen(grid)
        phi1 = es.eigenfunctions[0]
        assert phi1.min() > 0  # constant direction stays positive
        mu = np.sin(np.pi * grid)
        sample = scalar_sample(np.stack([mu + phi1, mu - phi1, mu, mu]), grid)
        mean_traj = ObjectTrajectory(scalar_space(), grid, mu[:, None])
        scores = frechet_scores(sample, mean_traj, es)
        assert scores[0, 0] == pytest.approx(1.0, abs=1e-4)
        assert np.abs(scores[0, 1:]).max() <= 1e-4

    def test_equidistant_trajectories_share_rows(self):
        grid = np.linspace(0, 1, 31)
        es = legendre_eigen(grid)
        g = 0.5 + 0.3 * np.cos(np.pi * grid)
        sample = scalar_sample(np.stack([g, -g]), grid)
        mean = frechet_mean_trajectory(sample)  # zero curve
        scores = frechet_scores(sample, mean, es)
        assert np.abs(scores[0] - scores[1]).max() <= 1e-14

    def test_sign_flip_equivariance(self):
        rng = np.random.default_rng(5)
        grid = np.linspace(0, 1, 21)
        es = legendre_eigen(grid)
        flipped = EigenSystem(
            es.eigenvalues,
            es.eigenfunctions * np.array([[1.0], [-1.0], [1.0]]),
            grid,
            es.quad_weights,
        )
        sample = scalar_sample(rng.normal(size=(5, 21)), grid)
        mean = frechet_mean_trajectory(sample)
        a = frechet_scores(sample, mean, es)
        b = frechet_scores(sample, mean, flipped)
        assert np.abs(a[:, 1] + b[:, 1]).max() <= 1e-14
        assert np.abs(a[:, [0, 2]] - b[:, [0, 2]]).max() <= 1e-14

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(6)
        grid = np.linspace(0, 1, 21)
        es = legendre_eigen(grid)
        X = rng.normal(size=(6, 21))
        sample = scalar_sample(X, grid)
        mean = frechet_mean_trajectory(sample)
        scores = frechet_scores(sample, mean, es)
        perm = rng.permutation(6)
        scores_perm = frechet_scores(scalar_sample(X[perm], grid), mean, es)
        assert np.abs(scores[perm] - scores_perm).max() <= 1e-14


class TestFitPipeline:
    def test_fit_shapes_and_feasibility(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(0, 1, 13)
        space = quantile_space(5)
        vals = np.sort(rng.normal(size=(6, 13, 5)), axis=2)
        sample = ObjectSample(tuple(
            ObjectTrajectory(space, grid, vals[i]) for i in range(6)
        ))
        fit = fit_fpca(sample, n_components=3)
        assert fit.scores.shape == (6, 3)
        assert fit.distance_curves.shape == (6, 13)
        assert fit.object_fpcs is not None
        for row in fit.object_fpcs:
            for j, p in enumerate(row, start=1):
                if j in fit.skipped_components:
                    assert p is None
                else:
                    assert p is not None and np.all(np.diff(p.data) >= -1e-12)

    def test_fit_skips_zero_integral_components(self):
        # a rank-2 sample whose top eigenfunction has a zero integral; that
        # object component is skipped, the constant second one is not, and
        # both score columns stay
        grid = np.linspace(0, 1, 41)
        phi = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
        X = np.stack([a * phi + b for a, b in zip((-1.5, -0.5, 0.5, 1.5),
                                                  (0.1, -0.3, 0.3, -0.1))])
        sample = scalar_sample(X, grid)
        with pytest.warns(UserWarning, match="component 1: eigenfunction integral"):
            fit = fit_fpca(sample, n_components=2)
        assert fit.skipped_components == (1,)
        assert fit.object_components[1] is not None
        assert fit.scores.shape[1] == 2

    def test_fit_drops_round_off_components(self):
        # a rank-1 sample: component 2 is a null-space direction whose
        # eigenvalue is round-off, so it is dropped with a warning
        grid = np.linspace(0, 1, 41)
        phi = np.sqrt(2.0) * np.cos(2 * np.pi * grid) + 1.0
        sample = scalar_sample(np.stack([a * phi for a in (-1.5, -0.5, 0.5, 1.5)]), grid)
        with pytest.warns(UserWarning, match=r"numerical rank dropped: 2, 3 \("):
            fit = fit_fpca(sample, n_components=3)
        assert fit.eigen.num_retained == 1
        assert fit.scores.shape == (4, 1)
        assert len(fit.object_components) == 1

    def test_views_equal_their_arrays(self):
        # rank-2 4x4 matrices: round-off negative eigenvalues are admitted
        rng = np.random.default_rng(2)
        a = rng.normal(size=(20, 11, 4, 2))
        values = (a @ np.swapaxes(a, -1, -2)).reshape(20, 11, 16)
        sample = ObjectSample._from_values(sympsd_space(4), np.linspace(0, 1, 11), values)
        for traj, row in zip(sample.trajectories, sample.stacked_values):
            assert traj.values.tobytes() == row.tobytes()
        fit = fit_fpca(sample, n_components=2)
        for j, comps in enumerate(fit.object_components):
            for i, row in enumerate(comps):
                assert fit.object_fpcs[i][j].data.tobytes() == row.tobytes()

    def test_scores_ignore_object_fpc_toggle(self):
        rng = np.random.default_rng(8)
        sample = scalar_sample(rng.normal(size=(5, 9)))
        a = fit_fpca(sample, n_components=2, fpc_objects=True)
        b = fit_fpca(sample, n_components=2, fpc_objects=False)
        assert b.object_fpcs is None
        assert np.array_equal(a.scores, b.scores)
