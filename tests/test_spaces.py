"""Metric-space operations: distances, projections, barycenters."""

import numpy as np
import pytest

from ofpca import (
    BadWeights,
    EmptyInput,
    InvalidObject,
    ObjectPoint,
    SpaceMismatch,
    adjacency_space,
    distance,
    isotonic_projection,
    project,
    quantile_space,
    scalar_space,
    squared_distance,
    sympsd_space,
    weighted_barycenter,
)
from ofpca.spaces import ADMISSION_TOL, project_coordinates, validate_block

from oracles import best_monotone_on_lattice, gaussian_quantiles, monotone_lattice


def random_point(space, rng):
    if space.tag == "scalar":
        return ObjectPoint(space, rng.normal(size=1))
    if space.tag == "quantile":
        return ObjectPoint(space, np.sort(rng.normal(size=space.dim)))
    r = space.dim
    a = rng.uniform(size=(r, r))
    a = 0.5 * (a + a.T)
    if space.tag == "adjacency":
        np.fill_diagonal(a, 0.0)
        return ObjectPoint(space, a.reshape(-1))
    return ObjectPoint(space, (a @ a.T).reshape(-1))


ALL_SPACES = [scalar_space(), quantile_space(6), adjacency_space(4), sympsd_space(3)]


class TestDistance:
    def test_gaussian_location_shift(self):
        # N(0,1) vs N(2,1): quantiles differ by the constant 2, so the
        # discrete Wasserstein distance is exactly the mean difference
        m = 400
        space = quantile_space(m)
        a = ObjectPoint(space, gaussian_quantiles(0.0, 1.0, m))
        b = ObjectPoint(space, gaussian_quantiles(2.0, 1.0, m))
        assert distance(a, b) == pytest.approx(2.0, abs=1e-12)

    def test_identical_adjacency_zero(self):
        space = adjacency_space(3)
        mat = np.array([[0, 0.5, 0.2], [0.5, 0, 0.1], [0.2, 0.1, 0]])
        a = ObjectPoint(space, mat.reshape(-1))
        b = ObjectPoint(space, mat.reshape(-1))
        assert distance(a, b) == 0.0

    def test_single_edge_difference(self):
        space = adjacency_space(2)
        a = ObjectPoint(space, np.array([0.0, 0.5, 0.5, 0.0]))
        b = ObjectPoint(space, np.array([0.0, 0.8, 0.8, 0.0]))
        # both symmetric entries move by 0.3
        assert distance(a, b) == pytest.approx(np.sqrt(2 * 0.09), rel=1e-12)

    def test_scalar_absolute_difference(self):
        space = scalar_space()
        assert distance(ObjectPoint(space, [1.5]), ObjectPoint(space, [-2.0])) == 3.5

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatch):
            distance(ObjectPoint(scalar_space(), [0.0]),
                     ObjectPoint(quantile_space(2), [0.0, 1.0]))

    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.tag)
    def test_metric_axioms(self, space):
        rng = np.random.default_rng(42)
        n_triples = 10_000
        pts = [random_point(space, rng) for _ in range(60)]
        idx = rng.integers(0, len(pts), size=(n_triples, 3))
        for i, j, k in idx:
            a, b, c = pts[i], pts[j], pts[k]
            dab = distance(a, b)
            assert dab == distance(b, a)  # symmetry, exact
            assert dab >= 0.0
            if np.array_equal(a.data, b.data):
                assert dab == 0.0
            assert dab <= distance(a, c) + distance(c, b) + 1e-12


class TestProjection:
    def test_monotone_vector_unchanged(self):
        for y in ([0.0, 0.5, 0.5, 2.0], [0.0, 0.1, 0.1, 0.1, 1.0]):
            y = np.array(y)
            assert isotonic_projection(y).tobytes() == y.tobytes()

    def test_psd_eigenvalue_clamp(self):
        raw = np.diag([1.0, -0.5]).reshape(-1)
        p = project(sympsd_space(2), raw)
        assert np.allclose(p.matrix(), np.diag([1.0, 0.0]), atol=1e-12)

    def test_adjacency_box_clamp(self):
        raw = np.array([0.0, 1.4, 1.4, 0.0])
        p = project(adjacency_space(2), raw)
        assert p.matrix()[0, 1] == 1.0

    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.tag)
    def test_idempotent(self, space):
        rng = np.random.default_rng(3)
        for _ in range(200):
            raw = rng.normal(size=space.data_len) * 2.0
            once = project_coordinates(space, raw)
            twice = project_coordinates(space, once)
            if space.tag == "sympsd":  # re-runs eigh
                assert np.abs(once - twice).max() <= 1e-12
            else:
                assert twice.tobytes() == once.tobytes()

    def test_pava_matches_lattice_brute_force(self):
        rng = np.random.default_rng(11)
        for m in (2, 3, 4):
            levels = np.linspace(0.0, 1.0, 21)
            lattice = monotone_lattice(m, levels)
            for _ in range(200):
                y = rng.uniform(size=m)
                fitted = isotonic_projection(y)
                best = best_monotone_on_lattice(y, lattice)
                assert ((fitted - y) ** 2).sum() <= ((best - y) ** 2).sum() + 1e-12
                assert np.abs(fitted - best).max() <= (levels[1] - levels[0]) + 1e-12


def adversarial_raw(space, rng):
    """(3, 8, L) raw vectors of ``space``: random ones beside feasible
    ones, ties, and violations within and beyond the admission tolerance."""
    L = space.data_len
    rows = list(rng.normal(size=(12, L)) * 2.0)
    if space.tag == "quantile":
        rows += [
            np.sort(rng.normal(size=L)),
            np.array([0.0, 1.0, 1.0, 1.0, 2.0, 3.0]),
            np.full(L, 0.1),
            np.array([0.0, 1.0, 1.0 - 5e-11, 2.0, 3.0, 4.0]),
            np.array([0.0, 1.0, 0.5, 2.0, 1.9, 1.8]),
            np.array([-1.0, 0.3, 0.3 - 1e-3, 0.3, 0.7, 5.0]),
        ]
    elif space.is_matrix:
        r = space.dim
        sym = rng.uniform(size=(r, r))
        sym = 0.5 * (sym + sym.T)
        psd = sym @ sym.T
        tiny = sym.copy()
        tiny[0, 1] += 5e-11
        rows += [m.reshape(-1) for m in (sym, psd, tiny, -psd, psd - 0.5 * np.eye(r),
                                         np.diag(np.r_[1.0, -5e-11, np.ones(r - 2)]))]
    rows += list(rng.normal(size=(24 - len(rows), L)))
    return np.stack(rows).reshape(3, 8, L)


class TestBatchedProjection:
    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.tag)
    def test_bit_equal_to_per_row(self, space):
        raw = adversarial_raw(space, np.random.default_rng(5))
        if space.tag == "quantile":
            per_row = [isotonic_projection(row) for row in raw.reshape(-1, space.dim)]
        else:
            per_row = [project_coordinates(space, row) for row in raw.reshape(-1, space.data_len)]
        want = np.stack(per_row).reshape(raw.shape)
        got = project_coordinates(space, raw)
        assert got.shape == raw.shape
        assert got.tobytes() == want.tobytes()
        assert project_coordinates(space, raw[1]).tobytes() == want[1].tobytes()

    def test_rejects_wrong_length_and_scalars(self):
        with pytest.raises(InvalidObject):
            project_coordinates(quantile_space(3), np.zeros((2, 4)))
        with pytest.raises(InvalidObject):
            project_coordinates(scalar_space(), 1.0)


class TestValidation:
    def test_rejects_non_monotone_quantile(self):
        with pytest.raises(InvalidObject):
            ObjectPoint(quantile_space(3), [0.0, 1.0, 0.5])

    def test_rejects_asymmetric_adjacency(self):
        with pytest.raises(InvalidObject):
            ObjectPoint(adjacency_space(2), [0.0, 0.3, 0.6, 0.0])

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(InvalidObject):
            ObjectPoint(adjacency_space(2), [0.5, 0.3, 0.3, 0.0])

    def test_rejects_indefinite_matrix(self):
        with pytest.raises(InvalidObject):
            ObjectPoint(sympsd_space(2), np.diag([1.0, -0.1]).reshape(-1))

    def test_repairs_tiny_negative_eigenvalue(self):
        raw = np.diag([1.0, -5e-11]).reshape(-1)
        p = ObjectPoint(sympsd_space(2), raw)
        assert np.linalg.eigvalsh(p.matrix()).min() >= 0.0

    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.tag)
    def test_admission_is_a_fixed_point(self, space):
        # projected objects, alone and nudged within the tolerance
        rng = np.random.default_rng(12)
        feasible = project_coordinates(space, rng.normal(size=(200, space.data_len)) * 2.0)
        nudge = rng.uniform(-0.5, 0.5, size=feasible.shape) * ADMISSION_TOL
        for raw in (feasible, feasible + nudge):
            once = validate_block(space, raw)
            assert validate_block(space, once).tobytes() == once.tobytes()

    def test_repairs_tiny_quantile_violation(self):
        raw = [0.0, 1.0, 1.0 - 5e-11]
        p = ObjectPoint(quantile_space(3), raw)
        assert np.all(np.diff(p.data) >= 0.0)
        # the repair is the L2 projection (PAVA)
        np.testing.assert_array_equal(p.data, isotonic_projection(raw))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidObject):
            ObjectPoint(scalar_space(), [np.nan])

    def test_data_is_frozen(self):
        p = ObjectPoint(scalar_space(), [1.0])
        with pytest.raises(ValueError):
            p.data[0] = 2.0


class TestBarycenter:
    def test_two_scalars_midpoint(self):
        space = scalar_space()
        out = weighted_barycenter(
            [ObjectPoint(space, [0.0]), ObjectPoint(space, [2.0])], [0.5, 0.5]
        )
        assert out.data[0] == 1.0

    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.tag)
    def test_nonnegative_weights_equal_plain_average(self, space):
        rng = np.random.default_rng(9)
        for _ in range(50):
            pts = [random_point(space, rng) for _ in range(4)]
            w = rng.uniform(0.1, 1.0, size=4)
            w /= w.sum()
            out = weighted_barycenter(pts, w)
            avg = w @ np.stack([p.data for p in pts])
            assert np.abs(out.data - avg).max() <= 1e-12

    def test_signed_weights_trigger_projection(self):
        # monotone inputs whose signed average (2, 1) is non-monotone:
        # the pooled value (1.5, 1.5) must win on the lattice too
        space = quantile_space(2)
        pts = [ObjectPoint(space, [0.0, 1.0]), ObjectPoint(space, [1.0, 1.0])]
        weights = np.array([-1.0, 2.0])
        out = weighted_barycenter(pts, weights)
        assert np.allclose(out.data, [1.5, 1.5], atol=1e-12)

        lattice = monotone_lattice(2, np.linspace(0.0, 3.0, 61))
        def objective(omega):
            return sum(
                wj * squared_distance(ObjectPoint(space, omega), p)
                for wj, p in zip(weights, pts)
            )
        ours = objective(out.data)
        best_lattice = min(objective(cand) for cand in lattice)
        assert ours <= best_lattice + 1e-12

    @pytest.mark.parametrize("space", ALL_SPACES, ids=lambda s: s.tag)
    def test_objective_beats_random_perturbations(self, space):
        rng = np.random.default_rng(17)
        pts = [random_point(space, rng) for _ in range(5)]
        w = np.array([1.2, -0.4, 0.5, -0.6, 0.3])
        out = weighted_barycenter(pts, w)

        def objective(point):
            return sum(wj * squared_distance(point, p) for wj, p in zip(w, pts))

        base = objective(out)
        for _ in range(100):
            noise = rng.normal(scale=0.3, size=space.data_len)
            candidate = project(space, out.data + noise)
            assert base <= objective(candidate) + 1e-10

    def test_empty_points(self):
        with pytest.raises(EmptyInput):
            weighted_barycenter([], [])

    def test_bad_weight_sum(self):
        space = scalar_space()
        with pytest.raises(BadWeights):
            weighted_barycenter([ObjectPoint(space, [1.0])], [0.5])

    def test_mixed_spaces(self):
        with pytest.raises(SpaceMismatch):
            weighted_barycenter(
                [ObjectPoint(scalar_space(), [1.0]),
                 ObjectPoint(quantile_space(2), [0.0, 1.0])],
                [0.5, 0.5],
            )
