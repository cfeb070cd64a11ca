"""Quadrature eigendecomposition: recovery, orthonormality, spectra."""

import numpy as np
import pytest

from ofpca import (
    BadRank,
    EigenSystem,
    InvalidSurface,
    KernelSurface,
    eigendecompose,
    normalize_eigenfunction,
    trapezoid_weights,
)
from ofpca.eigen import apply_sign_convention
from ofpca.sim import distribution_sim_basis

from oracles import quadrature_orthonormalize, reconstruct


def unit_norm_function(grid, w, seed=0):
    rng = np.random.default_rng(seed)
    coef = rng.normal(size=4)
    phi = sum(c * np.cos((k + 1) * np.pi * grid) for k, c in enumerate(coef)) + 0.5
    return phi / np.sqrt(np.dot(w, phi * phi))


def random_surface(grid, w, seed, lams=(3.0, 1.0, 0.2)):
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(len(lams), grid.size))
    basis = quadrature_orthonormalize(basis, w)
    return (basis.T * np.array(lams)) @ basis


class TestRecovery:
    def test_rank_one(self):
        grid = np.linspace(0, 1, 101)
        w = trapezoid_weights(grid)
        phi = unit_norm_function(grid, w, seed=5)
        lam = 12.0
        surface = KernelSurface(grid, lam * np.outer(phi, phi))
        es = eigendecompose(surface, k=3)
        assert abs(es.eigenvalues[0] - lam) <= 1e-8
        aligned = phi if np.dot(es.eigenfunctions[0] * w, phi) >= 0 else -phi
        ise = float(np.dot(w, (es.eigenfunctions[0] - aligned) ** 2))
        assert ise <= 1e-8
        assert np.abs(es.eigenvalues[1:]).max() <= 1e-8

    def test_zero_surface(self):
        grid = np.linspace(0, 1, 21)
        es = eigendecompose(KernelSurface(grid, np.zeros((21, 21))), k=5)
        assert np.abs(es.eigenvalues).max() == 0.0

    def test_rank_three_known_spectrum(self):
        # grid-orthonormalized polynomial directions with a fixed spectrum
        grid = np.linspace(0, 1, 101)
        w = trapezoid_weights(grid)
        basis = quadrature_orthonormalize(distribution_sim_basis(grid), w)
        lams = np.array([12.0, 6.0, 1.75])
        surface = KernelSurface(grid, (basis.T * lams) @ basis)
        es = eigendecompose(surface, k=3)
        assert np.abs(es.eigenvalues - lams).max() <= 1e-6
        for j in range(3):
            ref = basis[j]
            if np.dot(es.eigenfunctions[j] * w, ref) < 0:
                ref = -ref
            assert np.dot(w, (es.eigenfunctions[j] - ref) ** 2) <= 1e-8

    def test_grid_refinement_stability(self):
        # analytic rank-3 kernel: doubling the grid moves the top three
        # eigenvalues by O(h^2), below 1e-4 from T=401 on
        lams = np.array([12.0, 6.0, 1.75])

        def top3(T):
            grid = np.linspace(0, 1, T)
            basis = distribution_sim_basis(grid)
            surface = KernelSurface(grid, (basis.T * lams) @ basis)
            return eigendecompose(surface, k=3).eigenvalues

        coarse = top3(401)
        fine = top3(801)
        assert np.abs(coarse - fine).max() <= 1e-4


class TestConventions:
    def test_descending_order(self):
        grid = np.linspace(0, 1, 31)
        w = trapezoid_weights(grid)
        surface = KernelSurface(grid, random_surface(grid, w, seed=1))
        es = eigendecompose(surface, k=10)
        assert np.all(np.diff(es.eigenvalues) <= 1e-12)

    def test_orthonormality_all_pairs(self):
        grid = np.linspace(0, 1, 41)
        w = trapezoid_weights(grid)
        for seed in range(5):
            surface = KernelSurface(grid, random_surface(grid, w, seed=seed))
            es = eigendecompose(surface, k=8)
            gram = (es.eigenfunctions * w) @ es.eigenfunctions.T
            assert np.abs(gram - np.eye(8)).max() <= 1e-8

    def test_sign_convention_nonnegative_integral(self):
        grid = np.linspace(0, 1, 41)
        w = trapezoid_weights(grid)
        for seed in range(10):
            surface = KernelSurface(grid, random_surface(grid, w, seed=seed))
            es = eigendecompose(surface, k=3)
            for j in range(1, 4):
                integral = es.integral(j)
                if abs(integral) >= 1e-9:
                    assert integral >= 0
                else:
                    row = es.eigenfunctions[j - 1]
                    big = np.nonzero(np.abs(row) > 1e-9)[0]
                    if big.size:
                        assert row[big[0]] > 0

    def test_sign_convention_edges(self):
        grid = np.linspace(0, 1, 41)
        w = trapezoid_weights(grid)
        cosine = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
        # an integral of about -5e-17 counts as zero: the first large
        # entry decides, and it comes back positive
        assert abs(np.dot(w, cosine)) < 1e-15
        assert apply_sign_convention(-cosine[None], w)[0, 0] > 0
        # an integral of -1e-6 is not zero, so a row that starts positive
        # is flipped all the same
        row = cosine - 1e-6
        assert np.dot(w, row) == pytest.approx(-1e-6, rel=1e-6) and row[0] > 0
        flipped = apply_sign_convention(row[None], w)[0]
        assert np.array_equal(flipped, -row) and np.dot(w, flipped) > 0

    def test_gram_and_order_tolerances(self):
        # h = 1 and a unit-norm cosine g are quadrature-orthonormal
        grid = np.linspace(0, 1, 41)
        w = trapezoid_weights(grid)
        h = np.ones_like(grid)
        g = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
        g /= np.sqrt(np.dot(w, g * g))
        EigenSystem(np.array([1.0, 1.0]), np.stack([h, g]), grid)
        # a norm off by 1e-6 is not orthonormal; a rise of 1e-9 is not descending
        with pytest.raises(InvalidSurface, match="quadrature-orthonormal"):
            EigenSystem(np.array([1.0]), np.stack([(1 + 1e-6) * h]), grid)
        with pytest.raises(InvalidSurface, match="descending"):
            EigenSystem(np.array([1.0, 1.0 + 1e-9]), np.stack([h, g]), grid)

    def test_surface_and_its_transpose_give_one_eigensystem(self):
        # asymmetric within the 1e-12 bound; the square roots of the weights
        # (1/4, 1/4) are powers of two, so B is the surface scaled exactly, and
        # only its symmetrization gives the surface and its transpose one B
        grid = np.array([0.25, 0.75])
        values = np.array([[2.0, 1.0], [1.0 + 1e-13, 3.0]])
        a = eigendecompose(KernelSurface(grid, values), k=2)
        b = eigendecompose(KernelSurface(grid, values.T), k=2)
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.eigenfunctions.tobytes() == b.eigenfunctions.tobytes()

    def test_bad_rank(self):
        grid = np.linspace(0, 1, 5)
        w = trapezoid_weights(grid)
        surface = KernelSurface(grid, np.eye(5) * w)
        with pytest.raises(BadRank):
            eigendecompose(surface, k=6)
        with pytest.raises(BadRank):
            eigendecompose(surface, k=0)

    def test_component_index_checked(self):
        # row j - 1 would silently read component K for j = 0
        grid = np.linspace(0, 1, 21)
        w = trapezoid_weights(grid)
        es = eigendecompose(KernelSurface(grid, random_surface(grid, w, seed=2)), k=3)
        for j in (0, -1, 4):
            with pytest.raises(BadRank):
                es.integral(j)
            with pytest.raises(BadRank):
                normalize_eigenfunction(es, j)


class TestNegativeEigenvalues:
    def indefinite_surface(self):
        grid = np.linspace(0, 1, 21)
        w = trapezoid_weights(grid)
        basis = quadrature_orthonormalize(
            np.stack([np.ones_like(grid), grid - 0.5]), w
        )
        vals = (basis.T * np.array([3.0, -1.0])) @ basis
        return KernelSurface(grid, vals)

    def test_raw_spectrum_reports_negatives(self):
        es = eigendecompose(self.indefinite_surface(), k=21)
        assert es.eigenvalues.min() == pytest.approx(-1.0, abs=1e-10)
        assert (es.eigenvalues < 0).sum() >= 1


class TestExplainedFraction:
    def test_rank_one(self):
        grid = np.linspace(0, 1, 51)
        w = trapezoid_weights(grid)
        phi = unit_norm_function(grid, w, seed=2)
        es = eigendecompose(KernelSurface(grid, 2.0 * np.outer(phi, phi)), k=1)
        assert es.explained_fractions[0] == pytest.approx(1.0, abs=1e-12)

    def test_known_spectrum(self):
        # the denominator is the whole spectrum, so retaining fewer
        # components does not inflate the fraction of the first
        grid = np.linspace(0, 1, 101)
        w = trapezoid_weights(grid)
        basis = quadrature_orthonormalize(distribution_sim_basis(grid), w)
        lams = np.array([12.0, 6.0, 1.75])
        surface = KernelSurface(grid, (basis.T * lams) @ basis)
        for k in (1, 2, 3):
            es = eigendecompose(surface, k=k)
            assert es.spectrum_total == pytest.approx(19.75, abs=1e-7)
            assert es.explained_fractions[0] == pytest.approx(12.0 / 19.75, abs=1e-7)

    def test_clipped_negative(self):
        grid = np.linspace(0, 1, 21)
        w = trapezoid_weights(grid)
        basis = quadrature_orthonormalize(
            np.stack([np.ones_like(grid), grid - 0.5]), w
        )
        vals = (basis.T * np.array([3.0, -1.0])) @ basis
        es = eigendecompose(KernelSurface(grid, vals), k=21)
        assert es.explained_fractions[0] == pytest.approx(1.0, abs=1e-10)

    def test_negative_retained_eigenvalue_explains_nothing(self):
        # a fit trims to the numerical rank, so only a built system reaches this
        grid = np.array([0.0, 0.5, 1.0])
        funs = np.array([[1.0, 1.0, 1.0], [np.sqrt(2.0), 0.0, -np.sqrt(2.0)]])
        es = EigenSystem(np.array([1.0, -0.5]), funs, grid)
        assert es.spectrum_total == 1.0
        assert es.explained_fractions.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("total", [0.5, np.nan, np.inf, -1.0])
    def test_rejects_a_total_below_the_retained_or_not_finite(self, total):
        with pytest.raises(InvalidSurface, match="spectrum_total"):
            EigenSystem([2.0], [[1.0, 1.0, 1.0]], [0.0, 0.5, 1.0], spectrum_total=total)

    def test_whole_spectrum_may_round_below_the_retained_sum(self):
        # summed in another order, the nine clipped eigenvalues come to 3.0
        # and the first four to 3.0000000000000004, which the check admits
        full = np.array([0.9, 0.8, 0.7, 0.6, 0.0, 0.0, 0.0, 0.0, 0.0])
        total = float(np.clip(full, 0.0, None).sum())
        assert total < float(np.clip(full[:4], 0.0, None).sum())
        grid = np.linspace(0, 1, 9)
        funs = quadrature_orthonormalize(np.random.default_rng(3).normal(size=(4, 9)),
                                         trapezoid_weights(grid))
        assert EigenSystem(full[:4], funs, grid, spectrum_total=total).spectrum_total == total

    def test_degenerate_spectrum(self):
        # no share of a zero spectrum: every fraction reads zero
        grid = np.linspace(0, 1, 11)
        es = eigendecompose(KernelSurface(grid, np.zeros((11, 11))), k=2)
        assert es.spectrum_total == 0.0
        assert np.array_equal(es.explained_fractions, np.zeros(2))


class TestReconstruction:
    def test_truncation_bound_weighted_norm(self):
        # dropped components bound the quadrature-weighted Frobenius error
        grid = np.linspace(0, 1, 41)
        w = trapezoid_weights(grid)
        rng = np.random.default_rng(4)
        for seed in range(20):
            lams = np.sort(np.abs(rng.normal(size=6)))[::-1] * 3.0
            basis = quadrature_orthonormalize(rng.normal(size=(6, grid.size)), w)
            vals = (basis.T * lams) @ basis
            surface = KernelSurface(grid, vals)
            k = int(rng.integers(1, 7))
            es = eigendecompose(surface, k=k)
            rebuilt = reconstruct(es)
            w2 = np.outer(w, w)
            err = np.sqrt(float(np.sum(w2 * (rebuilt - vals) ** 2)))
            dropped = lams[k:].sum()
            assert err <= dropped + 1e-8

    def test_invalid_surface_rejected(self):
        grid = np.linspace(0, 1, 4)
        with pytest.raises(InvalidSurface):
            KernelSurface(grid, np.arange(16.0).reshape(4, 4))
