"""Auto-covariance U-statistic and related kernels against classical oracles."""

import tracemalloc

import numpy as np
import pytest

from ofpca import (
    DegenerateVariance,
    InvalidObject,
    InvalidSurface,
    KernelSurface,
    ObjectPoint,
    ObjectSample,
    ObjectTrajectory,
    OfpcaError,
    SpaceMismatch,
    TooFewTrajectories,
    adjacency_space,
    estimate_cov_surface,
    metric_correlation,
    metric_covariance,
    metric_variance,
    pair_kernel,
    quantile_space,
    scalar_space,
    squared_distance,
    sympsd_space,
    total_variance,
    trapezoid_weights,
)

from ofpca.kernel import _BLOCK_FLOATS
from ofpca.spaces import ADMISSION_TOL

from oracles import classical_cross_covariance, pearson_unbiased, reference_cov_surface


def scalar_sample(X, grid=None):
    n, T = X.shape
    if grid is None:
        grid = np.linspace(0.0, 1.0, T)
    space = scalar_space()
    return ObjectSample(tuple(
        ObjectTrajectory(space, grid, X[i][:, None]) for i in range(n)
    ))


def quantile_sample(rng, n, T, m):
    grid = np.linspace(0.0, 1.0, T)
    space = quantile_space(m)
    trajs = []
    for _ in range(n):
        vals = np.sort(rng.normal(size=(T, m)), axis=1)
        trajs.append(ObjectTrajectory(space, grid, vals))
    return ObjectSample(tuple(trajs))


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
        x = ObjectTrajectory(scalar_space(), grid, np.zeros((3, 1)))
        y = ObjectTrajectory(scalar_space(), grid, np.full((3, 1), 2.0))
        assert pair_kernel(x, y, 1, 1) == 8.0

    def test_constant_trajectories(self):
        # constant-in-time curves are perfectly dependent across times, so
        # the pair kernel equals 2 d^2(a, b) at every (s, t); this is what
        # keeps the estimator consistent with the classical covariance of
        # constant scalar curves
        grid = np.linspace(0, 1, 4)
        x = ObjectTrajectory(scalar_space(), grid, np.full((4, 1), 0.7))
        y = ObjectTrajectory(scalar_space(), grid, np.full((4, 1), -1.3))
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

    @pytest.mark.parametrize("space", [scalar_space(), quantile_space(4),
                                       adjacency_space(3), sympsd_space(3)],
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
        sample = ObjectSample(tuple(ObjectTrajectory(space, grid, v) for v in values))
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
        grid = np.linspace(0, 1, 4)
        tr = ObjectTrajectory(scalar_space(), grid, np.zeros((4, 1)))
        with pytest.raises(TooFewTrajectories):
            ObjectSample((tr,))


class TestMetricVariance:
    def test_identical_objects(self):
        space = scalar_space()
        objs = [ObjectPoint(space, [3.0]) for _ in range(5)]
        assert metric_variance(objs) == 0.0

    def test_two_scalars(self):
        space = scalar_space()
        objs = [ObjectPoint(space, [0.0]), ObjectPoint(space, [2.0])]
        assert metric_variance(objs) == pytest.approx(2.0, abs=1e-14)

    def test_three_scalars(self):
        space = scalar_space()
        objs = [ObjectPoint(space, [v]) for v in (1.0, 2.0, 3.0)]
        assert metric_variance(objs) == pytest.approx(1.0, abs=1e-14)

    def test_matches_unbiased_variance_oracle(self):
        rng = np.random.default_rng(13)
        space = scalar_space()
        for _ in range(20):
            vals = rng.normal(size=int(rng.integers(2, 30)))
            objs = [ObjectPoint(space, [v]) for v in vals]
            assert metric_variance(objs) == pytest.approx(np.var(vals, ddof=1), abs=1e-12)

    def test_large_offset_matches_np_var(self):
        rng = np.random.default_rng(31)
        space = scalar_space()
        vals = rng.normal(size=50) + 1e8
        objs = [ObjectPoint(space, [v]) for v in vals]
        want = np.var(vals, ddof=1)
        assert abs(metric_variance(objs) - want) <= 1e-12 * want

    def test_matches_surface_diagonal(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(7, 5))
        sample = scalar_sample(X)
        surface = estimate_cov_surface(sample)
        space = scalar_space()
        for t in range(5):
            objs = [ObjectPoint(space, [X[i, t]]) for i in range(7)]
            assert metric_variance(objs) == pytest.approx(surface.values[t, t], abs=1e-12)


class TestMetricCorrelation:
    def test_self_correlation_is_one(self):
        space = scalar_space()
        objs = [ObjectPoint(space, [v]) for v in (0.0, 1.0, 5.0)]
        assert metric_correlation(objs, objs) == 1.0

    def test_self_correlation_exact_on_random_fixtures(self):
        rng = np.random.default_rng(21)
        space = quantile_space(4)
        for _ in range(20):
            objs = [ObjectPoint(space, np.sort(rng.normal(size=4)))
                    for _ in range(int(rng.integers(2, 12)))]
            assert metric_correlation(objs, objs) == 1.0

    def test_negated_pairs(self):
        space = scalar_space()
        u = [ObjectPoint(space, [v]) for v in (-1.0, 0.5, 2.0)]
        v = [ObjectPoint(space, [-p.data[0]]) for p in u]
        assert metric_correlation(u, v) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_pearson_oracle(self):
        space = scalar_space()
        uu = np.array([0.0, 1.0, 2.0])
        vv = np.array([1.0, 0.0, 2.0])
        u = [ObjectPoint(space, [x]) for x in uu]
        v = [ObjectPoint(space, [x]) for x in vv]
        assert metric_correlation(u, v) == pytest.approx(pearson_unbiased(uu, vv), abs=1e-10)

    def test_matches_pearson_randomized(self):
        rng = np.random.default_rng(15)
        space = scalar_space()
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
        space = scalar_space()
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
        space = scalar_space()
        const = [ObjectPoint(space, [1.0]) for _ in range(3)]
        varying = [ObjectPoint(space, [v]) for v in (0.0, 1.0, 2.0)]
        with pytest.raises(DegenerateVariance):
            metric_correlation(const, varying)

    def test_cross_space_rejected(self):
        u = [ObjectPoint(scalar_space(), [v]) for v in (0.0, 1.0)]
        v = [ObjectPoint(quantile_space(2), [0.0, 1.0]) for _ in range(2)]
        with pytest.raises(SpaceMismatch):
            metric_covariance(u, v)


class TestTotalVariance:
    def test_zero_surface(self):
        grid = np.linspace(0, 1, 5)
        surface = KernelSurface(grid, np.zeros((5, 5)), trapezoid_weights(grid))
        assert total_variance(surface) == 0.0

    def test_rank_one_trace(self):
        grid = np.linspace(0, 1, 201)
        w = trapezoid_weights(grid)
        phi = np.sin(2 * np.pi * grid) + 0.3
        phi = phi / np.sqrt(np.dot(w, phi * phi))
        lam = 4.5
        surface = KernelSurface(grid, lam * np.outer(phi, phi), w)
        assert total_variance(surface) == pytest.approx(lam, rel=1e-10)

    def test_scalar_sample_matches_pointwise_variance_integral(self):
        rng = np.random.default_rng(16)
        X = rng.normal(size=(15, 9)) * np.linspace(1, 2, 9)
        sample = scalar_sample(X)
        surface = estimate_cov_surface(sample)
        w = surface.quad_weights
        pointwise = X.var(axis=0, ddof=1)
        assert total_variance(surface) == pytest.approx(float(np.dot(w, pointwise)), abs=1e-10)

    def test_nonnegative_on_simulated_fixture(self):
        rng = np.random.default_rng(17)
        X = rng.normal(size=(6, 8))
        assert total_variance(estimate_cov_surface(scalar_sample(X))) >= -1e-8


class TestSurfaceInvariants:
    def test_rejects_asymmetric_values(self):
        grid = np.linspace(0, 1, 3)
        vals = np.array([[1.0, 0.5, 0.0], [0.4, 1.0, 0.0], [0.0, 0.0, 1.0]])
        for scale in (1.0, 1e8):
            with pytest.raises(InvalidSurface):
                KernelSurface(grid, scale * vals, trapezoid_weights(grid))

    @pytest.mark.parametrize("scale", [1e3, 1e8])
    def test_symmetry_tolerance_is_relative(self, scale):
        # symmetric by construction, but the product rounds each triangle
        # on its own
        grid = np.linspace(0, 1, 9)
        basis = np.random.default_rng(4).normal(size=(3, 9))
        lam = scale * np.array([3.0, 2.0, 1.0])
        vals = (basis.T * lam) @ basis
        assert not np.array_equal(vals, vals.T)
        KernelSurface(grid, vals, trapezoid_weights(grid))

    def test_rejects_bad_grid(self):
        with pytest.raises(InvalidObject):
            ObjectTrajectory(scalar_space(), np.array([0.0, 0.5, 0.5]), np.zeros((3, 1)))
        with pytest.raises(InvalidObject):
            ObjectTrajectory(scalar_space(), np.array([0.0, 1.5]), np.zeros((2, 1)))

    def test_sample_requires_shared_grid(self):
        a = ObjectTrajectory(scalar_space(), np.array([0.0, 1.0]), np.zeros((2, 1)))
        b = ObjectTrajectory(scalar_space(), np.array([0.0, 0.5]), np.zeros((2, 1)))
        with pytest.raises(InvalidObject):
            ObjectSample((a, b))


ALL_SPACES = [scalar_space(), quantile_space(4), adjacency_space(3), sympsd_space(3)]


def per_trajectory_sample(space, grid, values):
    return ObjectSample(tuple(ObjectTrajectory(space, grid, v) for v in values))


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
    """ObjectSample._from_values validates an (n, T, L) array as one block
    and must admit, repair and reject exactly as the per-trajectory
    constructors do."""

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
                per_trajectory_sample(space, grid, values)
            with pytest.raises(OfpcaError) as got:
                ObjectSample._from_values(space, grid, values.copy())
            assert type(got.value) is type(want.value), name
        with pytest.raises(InvalidObject):
            ObjectSample._from_values(space, np.linspace(0.0, 1.0, 5), np.zeros((4, 5)))

    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda sp: sp.tag)
    def test_repairs_like_constructors(self, space):
        grid = np.linspace(0.0, 1.0, 5)
        values = nudged(space, random_objects(space, np.random.default_rng(9), (4, 5)), 5e-11)
        want = per_trajectory_sample(space, grid, values).stacked_values
        got = ObjectSample._from_values(space, grid, values.copy())
        assert got.stacked_values.tobytes() == want.tobytes()
        assert space.tag == "scalar" or not np.array_equal(got.stacked_values, values)
        assert got.n == 4 and got.space == space
        assert not got.stacked_values.flags.writeable
        assert np.array_equal(got.trajectories[1].values, want[1])

    def test_constructor_leaves_caller_arrays_writeable(self):
        values = np.zeros((3, 1))
        tr = ObjectTrajectory(scalar_space(), np.linspace(0.0, 1.0, 3), values)
        sample = ObjectSample((tr, tr))
        assert values.flags.writeable
        assert sample.trajectories == (tr, tr)
        assert sample.stacked_values.shape == (2, 3, 1)

    @pytest.mark.parametrize("space", [quantile_space(100), adjacency_space(10)],
                             ids=lambda sp: sp.tag)
    def test_sample_and_surface_build_one_sample_sized_temporary(self, space):
        # validation through out-of-place temporaries would hold several
        # arrays of the sample's size at once; block validation needs less
        # than one, and the surface a few blocks (TestBlockedSurface)
        grid = np.linspace(0.0, 1.0, 51)
        values = random_objects(space, np.random.default_rng(10), (100, 51))
        tracemalloc.start()
        try:
            sample = ObjectSample._from_values(space, grid, values)
            estimate_cov_surface(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.stacked_values.shape == (100, 51, space.data_len)
        assert peak < 1.5 * values.nbytes


SURFACE_SPACES = [scalar_space(), quantile_space(100), adjacency_space(10), sympsd_space(10)]


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
        sample = ObjectSample._from_values(space, np.linspace(0.0, 1.0, T), values)
        want = reference_cov_surface(sample)
        got = estimate_cov_surface(sample).values
        assert np.array_equal(got, got.T)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_sympsd_large_offset_matches_reference(self):
        space, T = sympsd_space(10), 51
        n = trajectories_per_block(space, T) + 1
        values = random_objects(space, np.random.default_rng(4), (n, T))
        values += 1e8 * np.eye(space.dim).reshape(-1)
        sample = ObjectSample._from_values(space, np.linspace(0.0, 1.0, T), values)
        want = reference_cov_surface(sample)
        got = estimate_cov_surface(sample).values
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("space", SURFACE_SPACES[1:], ids=lambda sp: sp.tag)
    @pytest.mark.parametrize("n", [100, 1600])
    def test_surface_holds_a_fraction_of_the_sample(self, space, n):
        grid = np.linspace(0.0, 1.0, 51)
        values = random_objects(space, np.random.default_rng(11), (n, 51))
        sample = ObjectSample._from_values(space, grid, values)
        tracemalloc.start()
        try:
            estimate_cov_surface(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * values.nbytes
