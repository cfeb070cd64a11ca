"""Auto-covariance U-statistic and related kernels against classical oracles."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from ofpca import (
    DegenerateVariance,
    DistributionSimConfig,
    EigenSystem,
    InvalidObject,
    InvalidSurface,
    KernelSurface,
    NetworkSimConfig,
    ObjectPoint,
    ObjectSample,
    ObjectTrajectory,
    OfpcaError,
    SpaceKind,
    SpaceMismatch,
    TooFewTrajectories,
    distance_curves,
    eigendecompose,
    estimate_cov_surface,
    fit_fpca,
    frechet_mean_trajectory,
    metric_correlation,
    metric_covariance,
    metric_variance,
    simulate,
    squared_distance,
    trapezoid_weights,
)

from ofpca.kernel import _BLOCK_FLOATS, _coordinate_mean
from ofpca.spaces import ADMISSION_TOL

from oracles import (
    classical_cross_covariance,
    pair_kernel,
    pearson_unbiased,
    reference_cov_surface,
    reference_distance_curves,
    traced_memory,
    traced_peak,
)


def scalar_sample(X, grid=None):
    if grid is None:
        grid = np.linspace(0.0, 1.0, X.shape[1])
    return ObjectSample(SpaceKind("scalar", 1), grid, X[..., None])


def quantile_sample(rng, n, T, m):
    values = np.sort(rng.normal(size=(n, T, m)), axis=2)
    return ObjectSample(SpaceKind("quantile", m), np.linspace(0.0, 1.0, T), values)


def random_objects(space, rng, shape):
    """Random valid coordinates of ``space`` with leading shape ``shape``."""
    if space.tag == "scalar":
        return rng.normal(size=shape + (1,))
    if space.tag == "quantile":
        return np.sort(rng.normal(size=shape + (space.dim,)), axis=-1)
    r = space.dim
    a = rng.uniform(size=shape + (r, r))
    if space.tag == "adjacency":
        a = 0.5 * (a + np.swapaxes(a, -1, -2))
        a[..., np.arange(r), np.arange(r)] = 0.0
    else:
        a = a @ np.swapaxes(a, -1, -2)
    return a.reshape(shape + (r * r,))


def pair_kernel_surface(sample):
    """The U-statistic summed by brute force over all pairs i != j."""
    n, T = sample.n, sample.time_grid.size
    total = np.zeros((T, T))
    for i, x in enumerate(sample.trajectories):
        for j, y in enumerate(sample.trajectories):
            if i != j:
                for s in range(T):
                    for t in range(T):
                        total[s, t] += pair_kernel(x, y, s, t)
    return total / (4.0 * n * (n - 1))


class TestPairKernel:
    def test_same_trajectory_is_zero(self):
        rng = np.random.default_rng(0)
        sample = scalar_sample(rng.normal(size=(2, 6)))
        x = sample.trajectories[0]
        for s in range(6):
            for t in range(6):
                assert pair_kernel(x, x, s, t) == 0.0

    def test_scalar_diagonal_value(self):
        grid = np.linspace(0, 1, 3)
        x = ObjectTrajectory(SpaceKind("scalar", 1), grid, np.zeros((3, 1)))
        y = ObjectTrajectory(SpaceKind("scalar", 1), grid, np.full((3, 1), 2.0))
        assert pair_kernel(x, y, 1, 1) == 8.0

    def test_constant_trajectories(self):
        # constant-in-time curves are perfectly dependent across times, so
        # the pair kernel equals 2 d^2(a, b) at every (s, t); this is what
        # keeps the estimator consistent with the classical covariance of
        # constant scalar curves
        grid = np.linspace(0, 1, 4)
        x = ObjectTrajectory(SpaceKind("scalar", 1), grid, np.full((4, 1), 0.7))
        y = ObjectTrajectory(SpaceKind("scalar", 1), grid, np.full((4, 1), -1.3))
        for s in range(4):
            for t in range(4):
                assert pair_kernel(x, y, s, t) == pytest.approx(8.0, abs=1e-12)

    def test_symmetries(self):
        rng = np.random.default_rng(1)
        sample = scalar_sample(rng.normal(size=(2, 5)))
        x, y = sample.trajectories
        for s in range(5):
            for t in range(5):
                v = pair_kernel(x, y, s, t)
                assert v == pytest.approx(pair_kernel(y, x, s, t), abs=1e-14)
                assert v == pytest.approx(pair_kernel(x, y, t, s), abs=1e-14)

    def test_index_out_of_range(self):
        rng = np.random.default_rng(2)
        sample = scalar_sample(rng.normal(size=(2, 5)))
        x, y = sample.trajectories
        with pytest.raises(IndexError):
            pair_kernel(x, y, 5, 0)
        with pytest.raises(IndexError):
            pair_kernel(x, y, 0, -1)


class TestCovSurface:
    def test_matches_classical_oracle_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(2, 51))
            T = int(rng.integers(2, 21))
            X = rng.normal(size=(n, T)) * rng.uniform(0.5, 3.0)
            surface = estimate_cov_surface(scalar_sample(X))
            assert np.abs(surface.values - classical_cross_covariance(X)).max() <= 1e-10

    def test_two_point_diagonal(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0]])
        surface = estimate_cov_surface(scalar_sample(X))
        assert surface.values[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_identical_trajectories_zero_surface(self):
        X = np.tile(np.linspace(-1, 1, 8), (4, 1))
        surface = estimate_cov_surface(scalar_sample(X))
        assert np.abs(surface.values).max() <= 1e-14

    def test_symmetric_exactly(self):
        rng = np.random.default_rng(8)
        surface = estimate_cov_surface(scalar_sample(rng.normal(size=(12, 9))))
        assert np.array_equal(surface.values, surface.values.T)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(10, 7))
        base = estimate_cov_surface(scalar_sample(X)).values
        for _ in range(5):
            perm = rng.permutation(10)
            shuffled = estimate_cov_surface(scalar_sample(X[perm])).values
            assert np.abs(base - shuffled).max() <= 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(8, 6))
        shifted = X + 17.0
        a = estimate_cov_surface(scalar_sample(X)).values
        b = estimate_cov_surface(scalar_sample(shifted)).values
        assert np.abs(a - b).max() <= 1e-10

    def test_quantile_sample_matches_embedded_oracle(self):
        # for quantile curves the surface must match the classical
        # covariance of the (1/sqrt(m))-scaled coordinate curves
        rng = np.random.default_rng(11)
        sample = quantile_sample(rng, n=9, T=5, m=4)
        surface = estimate_cov_surface(sample)
        E = sample.stacked_values / np.sqrt(4)
        n, T, p = E.shape
        centered = E - E.mean(axis=0)
        oracle = np.einsum("isp,itp->st", centered, centered) / (n - 1)
        assert np.abs(surface.values - oracle).max() <= 1e-10

    @pytest.mark.parametrize("space", [SpaceKind("scalar", 1), SpaceKind("quantile", 4),
                                       SpaceKind("adjacency", 3), SpaceKind("sympsd", 3)],
                             ids=lambda sp: sp.tag)
    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("T", [2, 4])
    @pytest.mark.parametrize("constant", [False, True], ids=["varying", "constant"])
    def test_matches_pair_kernel_u_statistic(self, space, n, T, constant):
        rng = np.random.default_rng(100 * n + T)
        if constant:
            values = np.repeat(random_objects(space, rng, (n, 1)), T, axis=1)
        else:
            values = random_objects(space, rng, (n, T))
        grid = np.linspace(0.0, 1.0, T)
        sample = ObjectSample(space, grid, values)
        want = pair_kernel_surface(sample)
        got = estimate_cov_surface(sample).values
        assert np.abs(want).max() > 0.0
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_large_offset_matches_np_cov(self):
        rng = np.random.default_rng(30)
        X = rng.normal(size=(40, 9)) + 1e8
        X[:5] = X[:5, :1]  # a few constant curves
        want = np.cov(X, rowvar=False)
        got = estimate_cov_surface(scalar_sample(X)).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_quad_weights_sum_to_range(self):
        grid = np.array([0.0, 0.1, 0.4, 1.0])
        w = trapezoid_weights(grid)
        assert w.sum() == pytest.approx(1.0, abs=1e-15)
        assert np.all(w > 0)

    def test_too_few_trajectories(self):
        with pytest.raises(TooFewTrajectories):
            ObjectSample(SpaceKind("scalar", 1), np.linspace(0, 1, 4), np.zeros((1, 4, 1)))


class TestMetricVariance:
    def test_identical_objects(self):
        space = SpaceKind("scalar", 1)
        objs = [ObjectPoint(space, [3.0]) for _ in range(5)]
        assert metric_variance(objs) == 0.0

    def test_two_scalars(self):
        space = SpaceKind("scalar", 1)
        objs = [ObjectPoint(space, [0.0]), ObjectPoint(space, [2.0])]
        assert metric_variance(objs) == pytest.approx(2.0, abs=1e-14)

    def test_three_scalars(self):
        space = SpaceKind("scalar", 1)
        objs = [ObjectPoint(space, [v]) for v in (1.0, 2.0, 3.0)]
        assert metric_variance(objs) == pytest.approx(1.0, abs=1e-14)

    def test_matches_unbiased_variance_oracle(self):
        rng = np.random.default_rng(13)
        space = SpaceKind("scalar", 1)
        for _ in range(20):
            vals = rng.normal(size=int(rng.integers(2, 30)))
            objs = [ObjectPoint(space, [v]) for v in vals]
            assert metric_variance(objs) == pytest.approx(np.var(vals, ddof=1), abs=1e-12)

    def test_large_offset_matches_np_var(self):
        rng = np.random.default_rng(31)
        space = SpaceKind("scalar", 1)
        vals = rng.normal(size=50) + 1e8
        objs = [ObjectPoint(space, [v]) for v in vals]
        want = np.var(vals, ddof=1)
        assert abs(metric_variance(objs) - want) <= 1e-12 * want

    @pytest.mark.parametrize("data", [[0.1], [0.1, 0.2, 0.7]], ids=["scalar", "quantile"])
    def test_identical_inexact_objects(self, data):
        # the mean of three copies of 0.1 is not 0.1 in floating point; the
        # shift by the first pair makes the variance exactly 0 all the same
        space = SpaceKind("scalar" if len(data) == 1 else "quantile", len(data))
        assert metric_variance([ObjectPoint(space, data) for _ in range(3)]) == 0.0

    def test_matches_surface_diagonal(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(7, 5))
        sample = scalar_sample(X)
        surface = estimate_cov_surface(sample)
        space = SpaceKind("scalar", 1)
        for t in range(5):
            objs = [ObjectPoint(space, [X[i, t]]) for i in range(7)]
            assert metric_variance(objs) == pytest.approx(surface.values[t, t], abs=1e-12)


@pytest.mark.parametrize("space", [SpaceKind("scalar", 1), SpaceKind("quantile", 6),
                                   SpaceKind("adjacency", 4), SpaceKind("sympsd", 3)],
                         ids=lambda sp: sp.tag)
def test_surface_entries_are_metric_covariances(space):
    # C(s, t) is the metric covariance of the paired objects (X(s), X(t))
    rng = np.random.default_rng(22)
    n, T = 12, 6
    # a common object per trajectory keeps every entry of the surface far from 0
    values = 0.7 * random_objects(space, rng, (n, 1)) + 0.3 * random_objects(space, rng, (n, T))
    sample = ObjectSample(space, np.linspace(0.0, 1.0, T), values)
    surface = estimate_cov_surface(sample).values
    X = sample.stacked_values
    for s, t in [(0, 5), (1, 3), (4, 2), (2, 3)]:
        u = [ObjectPoint(space, X[i, s]) for i in range(n)]
        v = [ObjectPoint(space, X[i, t]) for i in range(n)]
        assert metric_covariance(u, v) == pytest.approx(surface[s, t], rel=1e-12)


class TestMetricCorrelation:
    def test_self_correlation_is_one(self):
        space = SpaceKind("scalar", 1)
        objs = [ObjectPoint(space, [v]) for v in (0.0, 1.0, 5.0)]
        assert metric_correlation(objs, objs) == 1.0

    def test_self_correlation_exact_on_random_fixtures(self):
        rng = np.random.default_rng(21)
        space = SpaceKind("quantile", 4)
        for _ in range(20):
            objs = [ObjectPoint(space, np.sort(rng.normal(size=4)))
                    for _ in range(int(rng.integers(2, 12)))]
            assert metric_correlation(objs, objs) == 1.0

    def test_scaled_copy_correlates_at_most_one(self):
        # the unclamped ratio reads 1.0000000000000002 for this pair
        space = SpaceKind("scalar", 1)
        x = (0.264, -0.314)
        u = [ObjectPoint(space, [v]) for v in x]
        assert metric_correlation(u, [ObjectPoint(space, [3.0 * v]) for v in x]) == 1.0

    @pytest.mark.parametrize("scale", [1e100, 1e-100])
    def test_scale_invariant(self, scale):
        # the product of the two variances overflows at 1e100 and underflows at 1e-100
        rng = np.random.default_rng(38)
        space = SpaceKind("scalar", 1)
        uu = rng.normal(size=50)
        vv = 0.4 * uu + rng.normal(size=50)

        def points(xs, s):
            return [ObjectPoint(space, [s * x]) for x in xs]

        rho = metric_correlation(points(uu, 1.0), points(vv, 1.0))
        assert abs(metric_correlation(points(uu, scale), points(vv, scale)) - rho) <= 1e-14
        assert metric_correlation(points(uu, scale), points(uu, scale)) == 1.0

    def test_negated_pairs(self):
        space = SpaceKind("scalar", 1)
        u = [ObjectPoint(space, [v]) for v in (-1.0, 0.5, 2.0)]
        v = [ObjectPoint(space, [-p.data[0]]) for p in u]
        assert metric_correlation(u, v) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_pearson_oracle(self):
        space = SpaceKind("scalar", 1)
        uu = np.array([0.0, 1.0, 2.0])
        vv = np.array([1.0, 0.0, 2.0])
        u = [ObjectPoint(space, [x]) for x in uu]
        v = [ObjectPoint(space, [x]) for x in vv]
        assert metric_correlation(u, v) == pytest.approx(pearson_unbiased(uu, vv), abs=1e-10)

    def test_matches_pearson_randomized(self):
        rng = np.random.default_rng(15)
        space = SpaceKind("scalar", 1)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            uu = rng.normal(size=n)
            vv = 0.3 * uu + rng.normal(size=n)
            u = [ObjectPoint(space, [x]) for x in uu]
            v = [ObjectPoint(space, [x]) for x in vv]
            assert metric_correlation(u, v) == pytest.approx(
                pearson_unbiased(uu, vv), abs=1e-10
            )

    def test_large_offset_covariance_matches_np_cov(self):
        rng = np.random.default_rng(32)
        space = SpaceKind("scalar", 1)
        uu = rng.normal(size=50)
        vv = 0.5 * uu + rng.normal(size=50)
        uu, vv = uu + 1e8, vv - 1e8
        u = [ObjectPoint(space, [x]) for x in uu]
        v = [ObjectPoint(space, [x]) for x in vv]
        want = np.cov(uu, vv)
        assert abs(metric_covariance(u, v) - want[0, 1]) <= 1e-12 * abs(want[0, 1])
        assert metric_correlation(u, v) == pytest.approx(
            want[0, 1] / np.sqrt(want[0, 0] * want[1, 1]), abs=1e-12
        )

    def test_degenerate_variance(self):
        space = SpaceKind("scalar", 1)
        const = [ObjectPoint(space, [1.0]) for _ in range(3)]
        varying = [ObjectPoint(space, [v]) for v in (0.0, 1.0, 2.0)]
        with pytest.raises(DegenerateVariance):
            metric_correlation(const, varying)

    @pytest.mark.parametrize("space, count, error", [
        (SpaceKind("quantile", 1), 3, SpaceMismatch),
        (SpaceKind("scalar", 1), 2, InvalidObject),
    ], ids=["other space", "unequal lengths"])
    def test_pair_is_checked_before_the_margins(self, space, count, error):
        # a constant margin would raise DegenerateVariance, which hides the input error
        const = [ObjectPoint(SpaceKind("scalar", 1), [1.0]) for _ in range(3)]
        varying = [ObjectPoint(space, [float(v)]) for v in range(count)]
        with pytest.raises(error):
            metric_correlation(const, varying)

    @pytest.mark.parametrize("n_u, n_v, error, message", [
        (1, 1, TooFewTrajectories, "at least two objects"),
        (3, 2, InvalidObject, "equal length"),
    ], ids=["one pair", "unequal lengths"])
    def test_rejects_unpaired_lists(self, n_u, n_v, error, message):
        points = [ObjectPoint(SpaceKind("scalar", 1), [v]) for v in (0.0, 1.0, 3.0)]
        with pytest.raises(error, match=message):
            metric_covariance(points[:n_u], points[:n_v])

    def test_cross_space_rejected(self):
        u = [ObjectPoint(SpaceKind("scalar", 1), [v]) for v in (0.0, 1.0)]
        v = [ObjectPoint(SpaceKind("quantile", 2), [0.0, 1.0]) for _ in range(2)]
        with pytest.raises(SpaceMismatch):
            metric_covariance(u, v)


class TestTotalVariance:
    """The operator trace, sum of eigenvalues = integral of C(t, t), is the
    eigensystem's ``spectrum_total``."""

    def test_zero_surface(self):
        grid = np.linspace(0, 1, 5)
        surface = KernelSurface(grid, np.zeros((5, 5)))
        assert eigendecompose(surface, k=5).spectrum_total == 0.0

    def test_rank_one_trace(self):
        grid = np.linspace(0, 1, 201)
        w = trapezoid_weights(grid)
        phi = np.sin(2 * np.pi * grid) + 0.3
        phi = phi / np.sqrt(np.dot(w, phi * phi))
        lam = 4.5
        surface = KernelSurface(grid, lam * np.outer(phi, phi))
        assert eigendecompose(surface, k=201).spectrum_total == pytest.approx(lam, rel=1e-10)

    def test_scalar_sample_matches_pointwise_variance_integral(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(15, 9)) * np.linspace(1, 2, 9)
        sample = scalar_sample(X)
        surface = estimate_cov_surface(sample)
        w = surface.quad_weights
        pointwise = X.var(axis=0, ddof=1)
        trace = eigendecompose(surface, k=9).spectrum_total
        assert trace == pytest.approx(float(np.dot(w, pointwise)), abs=1e-10)

    def test_nonnegative_on_simulated_fixture(self):
        # the raw trace too: a rank-5 surface on 8 points has only round-off below 0
        rng = np.random.default_rng(17)
        X = rng.normal(size=(6, 8))
        es = eigendecompose(estimate_cov_surface(scalar_sample(X)), k=8)
        assert es.eigenvalues.sum() >= -1e-8
        assert es.spectrum_total == pytest.approx(es.eigenvalues.sum(), abs=1e-12)


class TestSurfaceInvariants:
    def test_rejects_asymmetric_values(self):
        grid = np.linspace(0, 1, 3)
        vals = np.array([[1.0, 0.5, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]])
        for scale in (1.0, 1e8):
            with pytest.raises(InvalidSurface):
                KernelSurface(grid, scale * vals)

    def test_rejects_asymmetry_of_1e_9(self):
        # 1e-9 off a unit diagonal is far above round-off
        vals = np.eye(41)
        vals[0, 1] += 1e-9
        with pytest.raises(InvalidSurface, match="not symmetric"):
            KernelSurface(np.linspace(0, 1, 41), vals)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        grid = np.linspace(0, 1, 3)
        vals = np.eye(3)
        vals[0, 1] = vals[1, 0] = bad
        with pytest.raises(InvalidSurface, match="not finite"):
            KernelSurface(grid, vals)

    @pytest.mark.parametrize("make, message", [
        (lambda grid: KernelSurface(grid, np.eye(grid.size + 1)[:-1]),
         r"values must be \(3, 3\), got \(3, 4\)"),
        (lambda grid: EigenSystem([1.0], [np.ones(grid.size + 1)], grid),
         r"eigenfunctions must be \(1, 3\), got \(1, 4\)"),
        (lambda grid: EigenSystem(np.ones((1, 1)), [np.ones(grid.size)], grid),
         r"eigenvalues must be a non-empty vector, got shape \(1, 1\)"),
        (lambda grid: EigenSystem(np.empty(0), np.empty((0, grid.size)), grid),
         r"eigenvalues must be a non-empty vector, got shape \(0,\)"),
    ], ids=["KernelSurface", "EigenSystem", "2-d eigenvalues", "no eigenvalues"])
    def test_rejects_wrong_shape(self, make, message):
        with pytest.raises(InvalidSurface, match=message):
            make(np.linspace(0, 1, 3))

    @pytest.mark.parametrize("vals, fun", [
        ([np.nan], [1.0, 1.0, 1.0]),
        ([np.inf], [1.0, 1.0, 1.0]),
        ([1.0], [np.nan, np.nan, np.nan]),
        ([1.0], [1.0, np.inf, 1.0]),
    ], ids=["NaN eigenvalue", "inf eigenvalue", "NaN eigenfunction", "inf eigenfunction"])
    def test_rejects_non_finite_eigensystem(self, vals, fun):
        # the constant 1 is quadrature-orthonormal on this grid; a NaN passes
        # every order and tolerance comparison, so only the finiteness check sees it
        with pytest.raises(InvalidSurface, match="must be finite"):
            EigenSystem(vals, [fun], np.linspace(0, 1, 3))

    @pytest.mark.parametrize("scale", [1e3, 1e8])
    def test_symmetry_tolerance_is_relative(self, scale):
        # symmetric by construction, but the product rounds each triangle
        # on its own
        grid = np.linspace(0, 1, 9)
        basis = np.random.default_rng(4).normal(size=(3, 9))
        lam = scale * np.array([3.0, 2.0, 1.0])
        vals = (basis.T * lam) @ basis
        assert not np.array_equal(vals, vals.T)
        KernelSurface(grid, vals)

    def test_rejects_bad_grid(self):
        with pytest.raises(InvalidObject):
            ObjectTrajectory(SpaceKind("scalar", 1), np.array([0.0, 0.5, 0.5]), np.zeros((3, 1)))
        # NaN fails no order or range comparison, so only the finiteness check sees it
        with pytest.raises(InvalidObject, match="non-finite"):
            ObjectTrajectory(SpaceKind("scalar", 1), np.array([0.0, np.nan]), np.zeros((2, 1)))
        with pytest.raises(InvalidObject):
            ObjectTrajectory(SpaceKind("scalar", 1), np.array([0.0, 1.5]), np.zeros((2, 1)))
        # an eigensystem checks its grid before it derives weights from it
        with pytest.raises(InvalidObject):
            EigenSystem([1.0], [[1.0]], [0.5])
        with pytest.raises(InvalidObject):
            EigenSystem([1.0], [[1.0, 1.0, 1.0]], [0.0, 0.5, 0.2])
        # so do the weights themselves: a decreasing step would give a
        # negative weight, and one point has no step at all
        with pytest.raises(InvalidObject):
            trapezoid_weights([0.0, 0.5, 0.2])
        with pytest.raises(InvalidObject):
            trapezoid_weights([0.5])

    @pytest.mark.parametrize("make", [
        lambda grid, *w: KernelSurface(grid, np.eye(grid.size), *w),
        lambda grid, *w: EigenSystem([1.0], [np.ones(grid.size)], grid, *w),
    ], ids=["KernelSurface", "EigenSystem"])
    def test_quad_weights_are_the_grid_trapezoid_weights(self, make):
        grid = np.array([0.0, 0.1, 0.4, 1.0])
        w = trapezoid_weights(grid)
        with pytest.raises(TypeError):
            make(grid, w)
        obj = make(grid)
        assert obj.quad_weights.tobytes() == w.tobytes()
        with pytest.raises(ValueError):
            obj.quad_weights[0] = 1.0
        with pytest.raises(FrozenInstanceError):
            obj.quad_weights = w


ALL_SPACES = [SpaceKind("scalar", 1), SpaceKind("quantile", 4), SpaceKind("adjacency", 3),
              SpaceKind("sympsd", 3)]


def per_trajectory_values(space, grid, values):
    """The reference admission of an (n, T, L) array: at least two rows,
    each admitted as its own ObjectTrajectory, stacked."""
    if len(values) < 2:
        raise TooFewTrajectories("a sample needs at least two trajectories")
    return np.stack([ObjectTrajectory(space, grid, v).values for v in values])


def read_only(values):
    """A read-only float64 copy of ``values``."""
    out = np.array(values, dtype=float)
    out.flags.writeable = False
    return out


#: The two paths into a sample: the constructor copies a writable array
#: and keeps a read-only float64 one.
ENTRY_POINTS = {
    "writable": ObjectSample,
    "read-only": lambda space, grid, values: ObjectSample(space, grid, read_only(values)),
}


def nudged(space, values, size):
    """``values`` with the first object of trajectory 1 moved off the
    constraint set by about ``size``."""
    out = values.copy()
    if space.tag == "quantile":
        out[1, 0, 1] = out[1, 0, 0] - size
    elif space.tag == "adjacency":
        out[1, 0, 1] += size
    elif space.tag == "sympsd":
        r = space.dim
        out[1, 0] = np.diag(np.r_[-size, np.ones(r - 1)]).reshape(-1)
    return out


class TestSampleFromValues:
    """ObjectSample validates an (n, T, L) array, writable or read-only,
    as one block and must admit, repair and reject exactly as per-row
    ObjectTrajectory construction does."""

    @staticmethod
    def cases(space):
        rng = np.random.default_rng(8)
        grid = np.linspace(0.0, 1.0, 5)
        values = random_objects(space, rng, (4, 5))
        L = space.data_len
        cases = {
            "one trajectory": (grid, values[:1]),
            "repeated time": (np.array([0.0, 0.25, 0.25, 0.5, 1.0]), values),
            "time outside [0, 1]": (grid + 0.5, values),
            "wrong T": (grid[:4], values),
            "wrong L": (grid, np.zeros((4, 5, L + 1))),
            "non-finite": (grid, np.where(np.arange(L) == 0, np.nan, values)),
        }
        if space.tag != "scalar":  # every finite scalar is valid
            cases["invalid object"] = (grid, nudged(space, values, 1e-3))
        return cases

    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda sp: sp.tag)
    def test_raises_like_constructors(self, space):
        for name, (grid, values) in self.cases(space).items():
            with pytest.raises(OfpcaError) as want:
                per_trajectory_values(space, grid, values)
            for entry, build in ENTRY_POINTS.items():
                with pytest.raises(OfpcaError) as got:
                    build(space, grid, values)
                assert type(got.value) is type(want.value), (name, entry)
        for build in ENTRY_POINTS.values():
            with pytest.raises(InvalidObject):
                build(space, np.linspace(0.0, 1.0, 5), np.zeros((4, 5)))

    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda sp: sp.tag)
    def test_repairs_like_constructors(self, space):
        grid = np.linspace(0.0, 1.0, 5)
        values = nudged(space, random_objects(space, np.random.default_rng(9), (4, 5)), 5e-11)
        given = values.copy()
        want = per_trajectory_values(space, grid, values)
        for entry, build in ENTRY_POINTS.items():
            got = build(space, grid, values)
            assert got.stacked_values.tobytes() == want.tobytes(), entry
            assert space.tag == "scalar" or not np.array_equal(got.stacked_values, values)
            assert np.array_equal(values, given) and values.flags.writeable
            assert got.n == 4 and got.space == space
            assert not got.stacked_values.flags.writeable
            assert np.array_equal(got.trajectories[1].values, want[1])

    def test_constructor_leaves_caller_arrays_writeable(self):
        grid = np.linspace(0.0, 1.0, 3)
        values = np.zeros((2, 3, 1))
        sample = ObjectSample(SpaceKind("scalar", 1), grid, values)
        assert values.flags.writeable and grid.flags.writeable
        values[0] = 1.0
        grid[0] = 0.5
        assert not sample.stacked_values.any()
        assert sample.time_grid[0] == 0.0
        assert sample.stacked_values.shape == (2, 3, 1)

    def test_read_only_float64_is_kept(self):
        grid = np.linspace(0.0, 1.0, 3)
        values = read_only(np.arange(6.0).reshape(2, 3, 1))
        sample = ObjectSample(SpaceKind("scalar", 1), grid, values)
        assert sample.stacked_values is values
        assert all(np.shares_memory(traj.values, row)
                   for traj, row in zip(sample.trajectories, values))
        # writable, or read-only of another dtype: copied
        single = values.astype(np.float32)
        single.flags.writeable = False
        for other in (np.array(values), single):
            copied = ObjectSample(SpaceKind("scalar", 1), grid, other)
            assert not np.shares_memory(copied.stacked_values, other)
            assert np.array_equal(copied.stacked_values, values)

    def test_trajectories_hold_no_copy(self):
        sample = simulate(DistributionSimConfig(n=400, n_times=51, m=100, seed=5))
        trajectories, held, _ = traced_memory(lambda: sample.trajectories)
        assert len(trajectories) == 400
        assert np.shares_memory(trajectories[7].values, sample.stacked_values)
        assert np.shares_memory(trajectories[0].time_grid, sample.time_grid)
        assert held < 1e6  # a copy of every row would hold 16.3 MB

    def test_time_grid_kept_or_copied_like_values(self):
        values = np.zeros((2, 3, 1))
        grid = read_only(np.linspace(0.0, 1.0, 3))
        assert ObjectSample(SpaceKind("scalar", 1), grid, values).time_grid is grid
        writable = np.linspace(0.0, 1.0, 3)
        sample = ObjectSample(SpaceKind("scalar", 1), writable, values)
        assert not np.shares_memory(sample.time_grid, writable)
        assert not sample.time_grid.flags.writeable
        assert all(traj.time_grid is sample.time_grid for traj in sample.trajectories)

    def test_read_only_memmap_is_not_read_in(self, tmp_path):
        sample = simulate(DistributionSimConfig(n=400, n_times=51, m=100, seed=5))
        path = tmp_path / "values.npy"
        np.save(path, sample.stacked_values)
        mapped = np.load(path, mmap_mode="r")
        loaded, held, _ = traced_memory(ObjectSample, sample.space, sample.time_grid, mapped)
        assert np.shares_memory(loaded.stacked_values, mapped)
        assert held < 1e6  # reading the map in would hold 16.3 MB
        assert loaded.stacked_values.tobytes() == sample.stacked_values.tobytes()

    def test_constructor_makes_one_copy(self):
        # one copy plus the block check's temporaries; a second copy would hold 2x
        space = SpaceKind("quantile", 100)
        grid = np.linspace(0.0, 1.0, 51)
        values = random_objects(space, np.random.default_rng(13), (400, 51))
        sample, peak = traced_peak(ObjectSample, space, grid, values)
        assert sample.stacked_values.shape == values.shape
        assert peak < 1.25 * values.nbytes

    def test_read_only_repair_is_kept_uncopied(self):
        # the repair is the one copy: owning it must not copy it again
        space = SpaceKind("quantile", 100)
        grid = np.linspace(0.0, 1.0, 51)
        values = random_objects(space, np.random.default_rng(13), (400, 51))
        values[7, 3, 40] = values[7, 3, 41] + 1e-11  # one decrease within tolerance
        values.flags.writeable = False
        sample, peak = traced_peak(ObjectSample, space, grid, values)
        assert not np.shares_memory(sample.stacked_values, values)
        assert np.all(np.diff(sample.stacked_values[7, 3]) >= 0.0)
        assert peak < 1.25 * values.nbytes

    def test_conversion_is_the_one_copy(self):
        # a float32 input is converted once: owning the conversion must not copy it again
        space = SpaceKind("quantile", 100)
        grid = np.linspace(0.0, 1.0, 51)
        values = random_objects(space, np.random.default_rng(13), (400, 51))
        single = values.astype(np.float32)
        sample, peak = traced_peak(ObjectSample, space, grid, single)
        assert np.array_equal(sample.stacked_values, single)
        assert peak < 1.25 * values.nbytes

    @pytest.mark.parametrize("space", [SpaceKind("quantile", 100), SpaceKind("adjacency", 10)],
                             ids=lambda sp: sp.tag)
    def test_sample_and_surface_build_one_sample_sized_temporary(self, space):
        # validation through out-of-place temporaries would hold several
        # arrays of the sample's size at once; block validation needs less
        # than one, and the surface a few blocks (TestBlockedSurface)
        grid = np.linspace(0.0, 1.0, 51)
        values = random_objects(space, np.random.default_rng(10), (100, 51))
        values.flags.writeable = False  # so the sample keeps it uncopied
        def admit_and_estimate():
            sample = ObjectSample(space, grid, values)
            estimate_cov_surface(sample)
            return sample

        sample, peak = traced_peak(admit_and_estimate)
        assert sample.stacked_values.shape == (100, 51, space.data_len)
        assert peak < 1.5 * values.nbytes


SURFACE_SPACES = [SpaceKind("scalar", 1), SpaceKind("quantile", 100), SpaceKind("adjacency", 10),
                  SpaceKind("sympsd", 10)]


def trajectories_per_block(space, T):
    return _BLOCK_FLOATS // (T * space.metric_coordinates()[1].size)


class TestBlockedSurface:
    """estimate_cov_surface sums blocks of trajectories on each space's
    metric coordinates; it must match the full-coordinate centered
    product, and hold only a block at a time besides the sample."""

    @pytest.mark.parametrize("space", SURFACE_SPACES, ids=lambda sp: sp.tag)
    def test_metric_coordinates_give_squared_distance(self, space):
        a, b = random_objects(space, np.random.default_rng(3), (2,))
        keep, w = space.metric_coordinates()
        want = squared_distance(ObjectPoint(space, a), ObjectPoint(space, b))
        assert np.sum((w * (a - b)[keep]) ** 2) == pytest.approx(want, rel=1e-14)
        if space.is_matrix:
            r = space.dim
            assert w.size == r * (r + (1 if space.tag == "sympsd" else -1)) // 2

    @pytest.mark.parametrize("space", SURFACE_SPACES, ids=lambda sp: sp.tag)
    def test_metric_coordinates_shared_and_read_only(self, space):
        # built once per space value: an equal space gets equal arrays,
        # and no caller can write into the ones that the next caller gets
        keep, w = space.metric_coordinates()
        keep_again, w_again = SpaceKind(space.tag, space.dim).metric_coordinates()
        index = np.arange(space.data_len)
        assert np.array_equal(index[keep], index[keep_again])
        assert np.array_equal(w, w_again)
        for arr in (w, keep) if space.is_matrix else (w,):
            with pytest.raises(ValueError):
                arr[0] = 0

    @pytest.mark.parametrize("make_cfg", [NetworkSimConfig, DistributionSimConfig])
    def test_mean_bit_equal_on_simulated_and_c_order(self, make_cfg):
        # the network simulator hands over a view whose coordinate axis is
        # outermost in memory; its C-ordered copy must give the same bytes
        sample = simulate(make_cfg(n=300, seed=2))
        copy = ObjectSample(sample.space, sample.time_grid,
                            np.ascontiguousarray(sample.stacked_values))
        assert copy.stacked_values.flags.c_contiguous
        for values in (sample.stacked_values, copy.stacked_values):
            assert _coordinate_mean(values).tobytes() == values.mean(axis=0).tobytes()
        assert (estimate_cov_surface(sample).values.tobytes()
                == estimate_cov_surface(copy).values.tobytes())

    @pytest.mark.parametrize("space", SURFACE_SPACES, ids=lambda sp: sp.tag)
    @pytest.mark.parametrize("blocks", ["n=2", "block-1", "block", "block+1", "3 blocks+1"])
    def test_matches_reference(self, space, blocks):
        T = 51
        b = trajectories_per_block(space, T)
        assert b >= 3
        n = {"n=2": 2, "block-1": b - 1, "block": b, "block+1": b + 1,
             "3 blocks+1": 3 * b + 1}[blocks]
        values = random_objects(space, np.random.default_rng(n), (n, T))
        # nudged within tolerance: admission repairs it to an exactly valid object
        values = nudged(space, values, 0.5 * ADMISSION_TOL)
        sample = ObjectSample(space, np.linspace(0.0, 1.0, T), values)
        want = reference_cov_surface(sample)
        got = estimate_cov_surface(sample).values
        assert np.array_equal(got, got.T)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_sympsd_large_offset_matches_reference(self):
        space, T = SpaceKind("sympsd", 10), 51
        n = trajectories_per_block(space, T) + 1
        values = random_objects(space, np.random.default_rng(4), (n, T))
        values += 1e8 * np.eye(space.dim).reshape(-1)
        sample = ObjectSample(space, np.linspace(0.0, 1.0, T), values)
        want = reference_cov_surface(sample)
        got = estimate_cov_surface(sample).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("space", SURFACE_SPACES[1:], ids=lambda sp: sp.tag)
    @pytest.mark.parametrize("n", [100, 1600])
    def test_surface_holds_a_fraction_of_the_sample(self, space, n):
        grid = np.linspace(0.0, 1.0, 51)
        values = random_objects(space, np.random.default_rng(11), (n, 51))
        sample = ObjectSample(space, grid, values)
        _, peak = traced_peak(estimate_cov_surface, sample)
        assert peak < 0.25 * values.nbytes


class TestBlockedDistanceCurves:
    """distance_curves fills its (n, T) output one block of trajectories at
    a time; each row's arithmetic is the whole-sample formula's, so the
    bytes must match it, and a fit must hold no sample-sized temporary."""

    @pytest.mark.parametrize("space", SURFACE_SPACES, ids=lambda sp: sp.tag)
    @pytest.mark.parametrize("blocks", ["n=2", "block-1", "block", "block+1", "3 blocks+1"])
    def test_bit_equal_to_reference(self, space, blocks):
        T = 51
        b = _BLOCK_FLOATS // (T * space.data_len)
        assert b >= 3
        n = {"n=2": 2, "block-1": b - 1, "block": b, "block+1": b + 1,
             "3 blocks+1": 3 * b + 1}[blocks]
        values = random_objects(space, np.random.default_rng(n), (n, T))
        sample = ObjectSample(space, np.linspace(0.0, 1.0, T), values)
        mean = frechet_mean_trajectory(sample)
        got = distance_curves(sample, mean)
        assert got.shape == (n, T)
        assert got.tobytes() == reference_distance_curves(sample, mean).tobytes()

    @pytest.mark.parametrize("space", SURFACE_SPACES[1:], ids=lambda sp: sp.tag)
    @pytest.mark.parametrize("n", [100, 1600])
    def test_fit_holds_a_fraction_of_the_sample(self, space, n):
        grid = np.linspace(0.0, 1.0, 51)
        values = random_objects(space, np.random.default_rng(12), (n, 51))
        sample = ObjectSample(space, grid, values)
        fit, peak = traced_peak(fit_fpca, sample, 4, False)
        assert fit.distance_curves.shape == (n, 51)
        assert peak < 0.25 * values.nbytes
