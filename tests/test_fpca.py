"""Frechet means, object components, Riemann-sum minimizer, scores."""

import dataclasses

import numpy as np
import pytest

from ofpca import (
    BadRank,
    BadWeights,
    DistributionSimConfig,
    EigenSystem,
    InvalidObject,
    NetworkSimConfig,
    NonIntegrableEigenfunction,
    ObjectPoint,
    ObjectSample,
    ObjectTrajectory,
    SpaceKind,
    SpaceMismatch,
    distance_curves,
    fit_fpca,
    frechet_mean_trajectory,
    frechet_scores,
    normalize_eigenfunction,
    object_fpc,
    simulate,
    squared_distance,
    trapezoid_weights,
)
from ofpca.fpca import _fraction_count, _numerical_rank

from oracles import (
    gaussian_quantiles,
    monotone_lattice,
    quadrature_orthonormalize,
    riemann_sum_minimizer,
)


def scalar_sample(X, grid=None):
    if grid is None:
        grid = np.linspace(0.0, 1.0, X.shape[1])
    return ObjectSample(SpaceKind("scalar", 1), grid, X[..., None])


def constant_and_cosine(grid):
    """h = 1 and g = sqrt(2) cos(2 pi t) rescaled to unit norm: a
    quadrature-orthonormal pair with integrals 1 and about 0."""
    w = trapezoid_weights(grid)
    g = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
    return np.ones_like(grid), g / np.sqrt(np.dot(w, g * g))


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
    return EigenSystem(np.array([3.0, 2.0, 1.0]), basis, grid)


class TestMeanTrajectory:
    def test_identical_trajectories(self):
        grid = np.linspace(0, 1, 6)
        vals = np.sort(np.random.default_rng(0).normal(size=(6, 3)), axis=1)
        sample = ObjectSample(SpaceKind("quantile", 3), grid, np.stack([vals] * 3))
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
        space = SpaceKind("quantile", 4)
        vals = np.sort(rng.normal(size=(7, 5, 4)), axis=2)
        sample = ObjectSample(space, grid, vals)
        mean = frechet_mean_trajectory(sample)
        assert np.abs(mean.values - vals.mean(axis=0)).max() <= 1e-12

    def test_slice_optimality_against_perturbations(self):
        rng = np.random.default_rng(2)
        grid = np.linspace(0, 1, 4)
        space = SpaceKind("quantile", 3)
        vals = np.sort(rng.normal(size=(6, 4, 3)), axis=2)
        sample = ObjectSample(space, grid, vals)
        mean = frechet_mean_trajectory(sample)
        for t in range(4):
            center = ObjectPoint(space, mean.values[t])
            slice_t = [ObjectPoint(space, row) for row in vals[:, t]]
            base = sum(squared_distance(center, p) for p in slice_t)
            for _ in range(100):
                cand = ObjectPoint(space, np.sort(center.data + rng.normal(scale=0.2, size=3)))
                val = sum(squared_distance(cand, p) for p in slice_t)
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
        # phi = 1/2 + b (2t - 1) integrates to 1/2 (trapezoid quadrature is
        # exact on linear functions, and 2t - 1 integrates to 0), and b
        # makes it unit-norm; normalizing divides by 1/2
        grid = np.linspace(0, 1, 21)
        w = trapezoid_weights(grid)
        b = np.sqrt(0.75 / np.dot(w, (2 * grid - 1) ** 2))
        phi = 0.5 + b * (2 * grid - 1)
        assert np.dot(w, phi * phi) == pytest.approx(1.0, abs=1e-12)
        assert np.dot(w, phi) == pytest.approx(0.5, abs=1e-12)
        out = normalize_eigenfunction(EigenSystem(np.array([1.0]), np.stack([phi]), grid), 1)
        assert np.abs(out - 2.0 * phi).max() <= 1e-12
        assert np.dot(w, out) == pytest.approx(1.0, abs=1e-12)

    def test_linear_direction_closed_form(self):
        # the linear direction c*t integrates to c/2, so its normalized
        # version is exactly 2t whatever the unit-norm constant c is
        # (trapezoid quadrature is exact on linear functions)
        grid = np.linspace(0, 1, 51)
        w = trapezoid_weights(grid)
        phi2 = np.sqrt(3.0) * grid
        phi2 = phi2 / np.sqrt(np.dot(w, phi2 * phi2))
        es = EigenSystem(np.array([1.0]), np.stack([phi2]), grid)
        out = normalize_eigenfunction(es, 1)
        assert np.abs(out - 2.0 * grid).max() <= 1e-10
        assert np.dot(w, out) == pytest.approx(1.0, abs=1e-10)

    def test_zero_integral_raises(self):
        grid = np.linspace(0, 1, 41)
        w = trapezoid_weights(grid)
        phi = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
        phi = phi / np.sqrt(np.dot(w, phi * phi))
        es = EigenSystem(np.array([1.0]), np.stack([phi]), grid)
        with pytest.raises(NonIntegrableEigenfunction):
            normalize_eigenfunction(es, 1)

    def test_small_integral_still_normalizes(self):
        # an integral of 1e-4 is small but not zero: 1e-3 would refuse it
        grid = np.linspace(0, 1, 41)
        h, g = constant_and_cosine(grid)
        beta = 1e-4
        es = EigenSystem(np.array([1.0]), np.stack([np.sqrt(1 - beta**2) * g + beta * h]), grid)
        assert es.integral(1) == pytest.approx(beta, rel=1e-9)
        out = normalize_eigenfunction(es, 1)
        assert np.dot(trapezoid_weights(grid), out) == pytest.approx(1.0, abs=1e-9)


class TestObjectFpc:
    def test_constant_trajectory_returns_the_constant(self):
        grid = np.linspace(0, 1, 21)
        space = SpaceKind("quantile", 3)
        point = np.array([0.0, 0.5, 2.0])
        traj = ObjectTrajectory(space, grid, np.tile(point, (21, 1)))
        phi_star = 2.0 * grid  # integrates to 1, signed weights after w*phi
        out = object_fpc(traj, phi_star)
        assert np.abs(out.data - point).max() <= 1e-12

    def test_constant_weight_gives_time_average(self):
        grid = np.linspace(0, 1, 31)
        vals = np.linspace(-1, 3, 31)[:, None]
        traj = ObjectTrajectory(SpaceKind("scalar", 1), grid, vals)
        out = object_fpc(traj, np.ones_like(grid))
        assert out.data[0] == pytest.approx(float(np.trapezoid(vals[:, 0], grid)), abs=1e-12)

    def test_weight_integrating_to_one_plus_1e_6_rejected(self):
        grid = np.linspace(0, 1, 41)
        traj = ObjectTrajectory(SpaceKind("scalar", 1), grid, np.zeros((41, 1)))
        with pytest.raises(BadWeights, match="integrates to"):
            object_fpc(traj, np.full(41, 1 + 1e-6))

    def test_nan_weight_rejected(self):
        # the weights are blamed, not the trajectory: a NaN total fails no comparison
        grid = np.linspace(0, 1, 41)
        traj = ObjectTrajectory(SpaceKind("scalar", 1), grid, np.zeros((41, 1)))
        with pytest.raises(BadWeights, match="integrates to"):
            object_fpc(traj, np.full(41, np.nan))

    def test_gaussian_quantile_closed_form(self):
        # mean/scale curves mix through the weight function, then the
        # result projects to a monotone vector
        m, T = 12, 41
        grid = np.linspace(0, 1, T)
        w = trapezoid_weights(grid)
        space = SpaceKind("quantile", m)
        mu = 1.0 + 0.5 * grid
        sigma = 1.0 + grid**2
        probe = gaussian_quantiles(0.0, 1.0, m)
        vals = mu[:, None] + sigma[:, None] * probe[None, :]
        traj = ObjectTrajectory(space, grid, vals)
        phi_star = 2.0 * grid
        out = object_fpc(traj, phi_star)
        mu_int = float(np.dot(w, mu * phi_star))
        sigma_int = float(np.dot(w, sigma * phi_star))
        expected = mu_int + sigma_int * probe
        assert np.abs(out.data - expected).max() <= 1e-10

    def test_matches_riemann_lattice_scalar(self):
        grid = np.linspace(0, 1, 17)
        w = trapezoid_weights(grid)
        vals = np.cos(np.pi * grid)[:, None]
        traj = ObjectTrajectory(SpaceKind("scalar", 1), grid, vals)
        phi_star = 2.0 * grid
        closed = object_fpc(traj, phi_star)
        lattice = [ObjectPoint(SpaceKind("scalar", 1), [v]) for v in np.linspace(-2, 2, 4001)]
        searched = riemann_sum_minimizer(traj, phi_star, lattice, w)
        assert abs(closed.data[0] - searched.data[0]) <= 1e-3

    @pytest.mark.parametrize("offset", [1e6, 1e8])
    def test_matches_riemann_lattice_scalar_at_large_offset(self, offset):
        grid = np.linspace(0, 1, 17)
        w = trapezoid_weights(grid)
        space = SpaceKind("scalar", 1)
        traj = ObjectTrajectory(space, grid, offset + np.cos(np.pi * grid)[:, None])
        phi_star = 2.0 * grid
        closed = object_fpc(traj, phi_star)
        step = 1e-3
        lattice = [ObjectPoint(space, [offset + v]) for v in np.arange(-1.5, 1.5, step)]
        searched = riemann_sum_minimizer(traj, phi_star, lattice, w)
        assert abs(closed.data[0] - searched.data[0]) <= step + 1e-12

    @pytest.mark.parametrize("m,n_levels", [(2, 81), (3, 51)])
    def test_matches_riemann_lattice_quantile(self, m, n_levels):
        rng = np.random.default_rng(4)
        T = 9
        grid = np.linspace(0, 1, T)
        w = trapezoid_weights(grid)
        space = SpaceKind("quantile", m)
        vals = np.sort(rng.uniform(0, 1, size=(T, m)), axis=1)
        traj = ObjectTrajectory(space, grid, vals)
        phi_star = 2.0 * grid
        closed = object_fpc(traj, phi_star)
        levels = np.linspace(-0.5, 1.5, n_levels)
        cands = [ObjectPoint(space, row) for row in monotone_lattice(m, levels)]
        searched = riemann_sum_minimizer(traj, phi_star, cands, w)
        step = levels[1] - levels[0]
        assert np.abs(closed.data - searched.data).max() <= step


class TestRiemannMinimizer:
    def test_returns_closed_form_when_present(self):
        grid = np.linspace(0, 1, 11)
        w = trapezoid_weights(grid)
        traj = ObjectTrajectory(SpaceKind("scalar", 1), grid, grid[:, None])
        phi_star = np.ones_like(grid)
        target = float(np.trapezoid(grid, grid))
        cands = [ObjectPoint(SpaceKind("scalar", 1), [v]) for v in (0.0, target, 1.0)]
        out = riemann_sum_minimizer(traj, phi_star, cands, w)
        assert out.data[0] == target

    def test_constant_trajectory_prefers_its_value(self):
        grid = np.linspace(0, 1, 7)
        space = SpaceKind("scalar", 1)
        traj = ObjectTrajectory(space, grid, np.full((7, 1), 0.25))
        cands = [ObjectPoint(space, [0.25]), ObjectPoint(space, [1.5])]
        out = riemann_sum_minimizer(traj, np.ones_like(grid), cands)
        assert out.data[0] == 0.25

    def test_default_candidates_are_observed_objects(self):
        grid = np.linspace(0, 1, 5)
        traj = ObjectTrajectory(SpaceKind("scalar", 1), grid,
                                np.array([[0.0], [1.0], [2.0], [3.0], [4.0]]))
        out = riemann_sum_minimizer(traj, np.ones_like(grid))
        assert out.data[0] in traj.values[:, 0]

    def test_empty_candidates(self):
        grid = np.linspace(0, 1, 5)
        traj = ObjectTrajectory(SpaceKind("scalar", 1), grid, np.zeros((5, 1)))
        with pytest.raises(ValueError):
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
        lattice = [ObjectPoint(SpaceKind("scalar", 1), [v])
                   for v in np.arange(-1.0, 1.0 + step, step)]

        def minimizer_error(T):
            grid = np.linspace(0, 1, T)
            w = trapezoid_weights(grid)
            traj = ObjectTrajectory(SpaceKind("scalar", 1), grid, curve(grid)[:, None])
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
        mean_traj = ObjectTrajectory(SpaceKind("scalar", 1), grid, mu[:, None])
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

    def test_mean_and_eigensystem_must_fit_the_sample(self):
        # both spaces hold 100 coordinates per object, both grids 11 times
        sample = simulate(NetworkSimConfig(n=6, n_times=11))
        other = simulate(DistributionSimConfig(n=6, n_times=11, m=100))
        mean = frechet_mean_trajectory(sample)
        es = legendre_eigen(sample.time_grid)
        foreign_mean = frechet_mean_trajectory(other)
        shifted_mean = ObjectTrajectory(mean.space, np.linspace(0, 0.5, 11), mean.values)
        for fn in (distance_curves, lambda s, m: frechet_scores(s, m, es)):
            with pytest.raises(SpaceMismatch):
                fn(sample, foreign_mean)
            with pytest.raises(InvalidObject):
                fn(sample, shifted_mean)
        for grid in (np.linspace(0, 0.5, 11), np.linspace(0, 1, 12)):
            with pytest.raises(InvalidObject):
                frechet_scores(sample, mean, legendre_eigen(grid))
        assert frechet_scores(sample, mean, es).shape == (6, 3)


class TestFitPipeline:
    @pytest.mark.parametrize("fraction", [True, np.True_])
    def test_bool_explained_fraction_rejected(self, fraction):
        # a bool is not a fraction, though True compares equal to 1.0; the
        # command line parses a float, so this is reachable from the API only
        sample = scalar_sample(np.random.default_rng(4).normal(size=(5, 7)))
        with pytest.raises(BadRank, match="explained fraction must be in"):
            fit_fpca(sample, explained_fraction=fraction)

    def test_fraction_count_forgives_round_off(self):
        # ten equal eigenvalues: the cumulative fraction of eight sums to
        # 0.7999999999999999, which still reaches a fraction of 0.8
        grid = np.linspace(0, 1, 41)
        rows = quadrature_orthonormalize(np.cos(np.pi * np.outer(np.arange(10), grid)),
                                         trapezoid_weights(grid))
        es = EigenSystem(np.ones(10), rows, grid)
        assert np.cumsum(es.explained_fractions)[7] < 0.8
        assert _fraction_count(es, 0.8) == 8

    def test_numerical_rank_cuts_at_T_eps_lambda1(self):
        # 5e-15 is under 41 * eps (9.1e-15) but over eps (2.2e-16)
        grid = np.linspace(0, 1, 41)
        es = EigenSystem(np.array([1.0, 5e-15]), np.stack(constant_and_cosine(grid)), grid)
        assert _numerical_rank(es) == 1

    def test_zero_spectrum_keeps_one_component(self):
        # no block of a zero spectrum reaches a fraction; the numerical
        # rank keeps one component
        sample = scalar_sample(np.zeros((5, 11)))
        with pytest.warns(UserWarning, match="numerical rank dropped: 2, 3, 4"):
            fit = fit_fpca(sample, fpc_objects=False, explained_fraction=0.5)
        assert fit.eigen.spectrum_total == 0.0
        assert fit.eigen.num_retained == 1
        assert fit.scores.shape == (5, 1)

    def test_fit_shapes_and_feasibility(self):
        rng = np.random.default_rng(7)
        grid = np.linspace(0, 1, 13)
        space = SpaceKind("quantile", 5)
        vals = np.sort(rng.normal(size=(6, 13, 5)), axis=2)
        sample = ObjectSample(space, grid, vals)
        fit = fit_fpca(sample, n_components=3)
        assert fit.scores.shape == (6, 3)
        assert fit.distance_curves.shape == (6, 13)
        assert fit.object_components is not None
        for j, comps in enumerate(fit.object_components, start=1):
            if j in fit.skipped_components:
                assert comps is None
            else:
                assert comps is not None and np.all(np.diff(comps, axis=1) >= -1e-12)

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
        sample = ObjectSample(SpaceKind("sympsd", 4), np.linspace(0, 1, 11), values)
        for traj, row in zip(sample.trajectories, sample.stacked_values):
            assert traj.values.tobytes() == row.tobytes()
        fit = fit_fpca(sample, n_components=2)
        for comps in fit.object_components:
            for row in comps:
                assert ObjectPoint(sample.space, row).data.tobytes() == row.tobytes()

    def test_every_array_of_a_fit_is_read_only(self):
        sample = simulate(DistributionSimConfig(n=20, n_times=11, m=10, seed=1))
        fit = fit_fpca(sample, n_components=3)

        def arrays(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, tuple):
                for item in obj:
                    yield from arrays(item)
            elif dataclasses.is_dataclass(obj):
                for f in dataclasses.fields(obj):
                    yield from arrays(getattr(obj, f.name))
                if hasattr(obj, "quad_weights"):
                    yield obj.quad_weights

        reachable = list(arrays(fit))
        # surface, eigensystem, mean, scores and curves, components
        assert len(reachable) == 3 + 4 + 2 + 2 + len(fit.object_components)
        assert not any(a.flags.writeable for a in reachable)
        # handed over, not copied
        assert fit.surface.time_grid is fit.eigen.time_grid is sample.time_grid
        # the public stages still give their callers writable arrays
        assert distance_curves(sample, fit.mean).flags.writeable
        assert frechet_scores(sample, fit.mean, fit.eigen).flags.writeable

    def test_scores_ignore_object_fpc_toggle(self):
        rng = np.random.default_rng(8)
        sample = scalar_sample(rng.normal(size=(5, 9)))
        a = fit_fpca(sample, n_components=2, fpc_objects=True)
        b = fit_fpca(sample, n_components=2, fpc_objects=False)
        assert b.object_components is None
        assert np.array_equal(a.scores, b.scores)
