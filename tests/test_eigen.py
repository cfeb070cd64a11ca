"""Quadrature eigendecomposition: recovery, orthonormality, spectra."""

import numpy as np
import pytest

from ofpca import (
    BadRank,
    DegenerateSpectrum,
    InvalidSurface,
    KernelSurface,
    eigendecompose,
    explained_fraction,
    reconstruct,
    trapezoid_weights,
)
from ofpca.sim import distribution_sim_basis, quadrature_orthonormalize


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
        surface = KernelSurface(grid, lam * np.outer(phi, phi), w)
        es = eigendecompose(surface, k=3)
        assert abs(es.eigenvalues[0] - lam) <= 1e-8
        aligned = phi if np.dot(es.eigenfunctions[0] * w, phi) >= 0 else -phi
        ise = float(np.dot(w, (es.eigenfunctions[0] - aligned) ** 2))
        assert ise <= 1e-8
        assert np.abs(es.eigenvalues[1:]).max() <= 1e-8

    def test_zero_surface(self):
        grid = np.linspace(0, 1, 21)
        w = trapezoid_weights(grid)
        es = eigendecompose(KernelSurface(grid, np.zeros((21, 21)), w), k=5)
        assert np.abs(es.eigenvalues).max() == 0.0

    def test_rank_three_known_spectrum(self):
        # grid-orthonormalized polynomial directions with a fixed spectrum
        grid = np.linspace(0, 1, 101)
        w = trapezoid_weights(grid)
        basis = quadrature_orthonormalize(distribution_sim_basis(grid), w)
        lams = np.array([12.0, 6.0, 1.75])
        surface = KernelSurface(grid, (basis.T * lams) @ basis, w)
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
            w = trapezoid_weights(grid)
            basis = distribution_sim_basis(grid)
            surface = KernelSurface(grid, (basis.T * lams) @ basis, w)
            return eigendecompose(surface, k=3).eigenvalues

        coarse = top3(401)
        fine = top3(801)
        assert np.abs(coarse - fine).max() <= 1e-4


class TestConventions:
    def test_descending_order(self):
        grid = np.linspace(0, 1, 31)
        w = trapezoid_weights(grid)
        surface = KernelSurface(grid, random_surface(grid, w, seed=1), w)
        es = eigendecompose(surface, k=10)
        assert np.all(np.diff(es.eigenvalues) <= 1e-12)

    def test_orthonormality_all_pairs(self):
        grid = np.linspace(0, 1, 41)
        w = trapezoid_weights(grid)
        for seed in range(5):
            surface = KernelSurface(grid, random_surface(grid, w, seed=seed), w)
            es = eigendecompose(surface, k=8)
            gram = (es.eigenfunctions * w) @ es.eigenfunctions.T
            assert np.abs(gram - np.eye(8)).max() <= 1e-8

    def test_sign_convention_nonnegative_integral(self):
        grid = np.linspace(0, 1, 41)
        w = trapezoid_weights(grid)
        for seed in range(10):
            surface = KernelSurface(grid, random_surface(grid, w, seed=seed), w)
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

    def test_bad_rank(self):
        grid = np.linspace(0, 1, 5)
        w = trapezoid_weights(grid)
        surface = KernelSurface(grid, np.eye(5) * w, w)
        with pytest.raises(BadRank):
            eigendecompose(surface, k=6)
        with pytest.raises(BadRank):
            eigendecompose(surface, k=0)


class TestNegativeEigenvalues:
    def indefinite_surface(self):
        grid = np.linspace(0, 1, 21)
        w = trapezoid_weights(grid)
        basis = quadrature_orthonormalize(
            np.stack([np.ones_like(grid), grid - 0.5]), w
        )
        vals = (basis.T * np.array([3.0, -1.0])) @ basis
        return KernelSurface(grid, vals, w)

    def test_raw_spectrum_reports_negatives(self):
        es = eigendecompose(self.indefinite_surface(), k=21)
        assert es.eigenvalues.min() == pytest.approx(-1.0, abs=1e-10)
        # the count includes float-noise negatives among the zero modes
        assert es.n_negative >= 1
        assert not es.clipped

    def test_clip_zeroes_negatives(self):
        es = eigendecompose(self.indefinite_surface(), k=21, clip=True)
        assert es.eigenvalues.min() == 0.0
        assert es.n_negative >= 1
        assert es.clipped


class TestExplainedFraction:
    def test_rank_one(self):
        grid = np.linspace(0, 1, 51)
        w = trapezoid_weights(grid)
        phi = unit_norm_function(grid, w, seed=2)
        es = eigendecompose(KernelSurface(grid, 2.0 * np.outer(phi, phi), w), k=1)
        assert explained_fraction(es, 1) == pytest.approx(1.0, abs=1e-12)

    def test_known_spectrum(self):
        # the denominator is the whole spectrum, so retaining fewer
        # components does not inflate the fraction of the first
        grid = np.linspace(0, 1, 101)
        w = trapezoid_weights(grid)
        basis = quadrature_orthonormalize(distribution_sim_basis(grid), w)
        lams = np.array([12.0, 6.0, 1.75])
        surface = KernelSurface(grid, (basis.T * lams) @ basis, w)
        for k in (1, 2, 3):
            es = eigendecompose(surface, k=k)
            assert es.spectrum_total == pytest.approx(19.75, abs=1e-7)
            assert explained_fraction(es, 1) == pytest.approx(12.0 / 19.75, abs=1e-7)

    def test_clipped_negative(self):
        grid = np.linspace(0, 1, 21)
        w = trapezoid_weights(grid)
        basis = quadrature_orthonormalize(
            np.stack([np.ones_like(grid), grid - 0.5]), w
        )
        vals = (basis.T * np.array([3.0, -1.0])) @ basis
        es = eigendecompose(KernelSurface(grid, vals, w), k=21)
        assert explained_fraction(es, 1) == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_spectrum(self):
        grid = np.linspace(0, 1, 11)
        w = trapezoid_weights(grid)
        es = eigendecompose(KernelSurface(grid, np.zeros((11, 11)), w), k=2)
        with pytest.raises(DegenerateSpectrum):
            explained_fraction(es, 1)


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
            surface = KernelSurface(grid, vals, w)
            k = int(rng.integers(1, 7))
            es = eigendecompose(surface, k=k)
            rebuilt = reconstruct(es)
            w2 = np.outer(w, w)
            err = np.sqrt(float(np.sum(w2 * (rebuilt - vals) ** 2)))
            dropped = lams[k:].sum()
            assert err <= dropped + 1e-8

    def test_invalid_surface_rejected(self):
        grid = np.linspace(0, 1, 4)
        w = trapezoid_weights(grid)
        with pytest.raises(InvalidSurface):
            KernelSurface(grid, np.arange(16.0).reshape(4, 4), w)
