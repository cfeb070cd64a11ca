"""Cross-module paths not covered by the per-module suites: non-uniform
grids, matrix spaces end to end, degenerate dimensions."""

import json

import numpy as np
import pytest

import ofpca
from ofpca import (
    ObjectPoint,
    ObjectSample,
    SpaceKind,
    distance,
    eigendecompose,
    estimate_cov_surface,
    fit_fpca,
)
from ofpca.cli import main as cli_main
from ofpca.sim import DistributionSimConfig, NetworkSimConfig, simulate

from oracles import classical_cross_covariance


def test_every_public_name_resolves():
    # a stale __all__ entry breaks `from ofpca import *`
    missing = [name for name in ofpca.__all__ if not hasattr(ofpca, name)]
    assert not missing


class TestNonUniformGrid:
    GRID = np.array([0.0, 0.05, 0.2, 0.45, 0.5, 0.8, 1.0])

    def sample(self, rng, n=12):
        X = rng.normal(size=(n, self.GRID.size))
        return ObjectSample(SpaceKind("scalar", 1), self.GRID, X[..., None]), X

    def test_surface_matches_classical_oracle(self):
        rng = np.random.default_rng(0)
        sample, X = self.sample(rng)
        surface = estimate_cov_surface(sample)
        assert np.abs(surface.values - classical_cross_covariance(X)).max() <= 1e-10
        assert surface.quad_weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_eigen_orthonormal_under_nonuniform_weights(self):
        rng = np.random.default_rng(1)
        sample, _ = self.sample(rng)
        es = eigendecompose(estimate_cov_surface(sample), k=4)
        gram = (es.eigenfunctions * es.quad_weights) @ es.eigenfunctions.T
        assert np.abs(gram - np.eye(4)).max() <= 1e-8

    def test_full_fit_runs(self):
        rng = np.random.default_rng(2)
        sample, _ = self.sample(rng)
        fit = fit_fpca(sample, n_components=3)
        assert fit.scores.shape == (12, 3)


class TestMatrixSpacesEndToEnd:
    def psd_sample(self, rng, n=8, T=6, r=3):
        grid = np.linspace(0, 1, T)
        space = SpaceKind("sympsd", r)
        trajs = []
        for _ in range(n):
            base = rng.normal(size=(r, r))
            mats = []
            for t in grid:
                a = base + 0.5 * t * rng.normal(size=(r, r))
                mats.append((a @ a.T).reshape(-1))
            trajs.append(np.stack(mats))
        return ObjectSample(space, grid, np.stack(trajs))

    def test_psd_fit_components_stay_psd(self):
        rng = np.random.default_rng(3)
        sample = self.psd_sample(rng)
        fit = fit_fpca(sample, n_components=2)
        for comps in fit.object_components:
            if comps is None:
                continue
            for row in comps:
                eigs = np.linalg.eigvalsh(ObjectPoint(sample.space, row).matrix())
                assert eigs.min() >= -1e-10
        assert np.diagonal(fit.surface.values).min() >= 0.0  # a Gram matrix

    def test_psd_cli_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        sample = self.psd_sample(rng)
        from ofpca import io as ofio

        data = tmp_path / "psd.json"
        ofio.save_trajectory_file(sample, data)
        out = tmp_path / "fit"
        assert cli_main(["fit", str(data), "--components", "2",
                         "--out", str(out)]) == 0
        artifact = json.loads((out / "fit.json").read_text())
        assert artifact["space"] == "sympsd" and artifact["dim"] == 3
        assert len(artifact["eigenvalues"]) == 2

    def test_adjacency_cli_fit_from_simulated_file(self, tmp_path):
        data = tmp_path / "net.json"
        assert cli_main(["simulate", "--design", "net", "--n", "12", "--T", "9",
                         "--seed", "2", "--out", str(data)]) == 0
        out = tmp_path / "fit"
        assert cli_main(["fit", str(data), "--components", "3", "--space",
                         "adjacency", "--out", str(out)]) == 0
        artifact = json.loads((out / "fit.json").read_text())
        # object components remain valid adjacency matrices
        for row in artifact["object_fpcs"]:
            for flat in row:
                if flat is None:
                    continue
                mat = np.asarray(flat).reshape(10, 10)
                assert np.abs(mat - mat.T).max() <= 1e-12
                assert mat.min() >= 0.0 and mat.max() <= 1.0

    def test_column_means_are_the_means_of_the_object_fpcs(self, tmp_path):
        data = tmp_path / "dist.json"
        assert cli_main(["simulate", "--design", "dist", "--n", "12", "--T", "9",
                         "--m", "7", "--seed", "2", "--out", str(data)]) == 0
        out = tmp_path / "fit"
        assert cli_main(["fit", str(data), "--components", "3", "--out", str(out)]) == 0
        artifact = json.loads((out / "fit.json").read_text())
        means = artifact["object_fpc_column_means"]
        assert len(means) == 3 and None not in means
        for j, mean in enumerate(means):
            column = np.array([row[j] for row in artifact["object_fpcs"]])
            assert column.shape == (12, 7)
            np.testing.assert_allclose(mean, column.mean(axis=0), rtol=1e-12, atol=0)


class TestDegenerateDimensions:
    def test_single_point_quantile_space(self):
        space = SpaceKind("quantile", 1)
        a = ObjectPoint(space, [2.0])
        b = ObjectPoint(space, [5.0])
        assert distance(a, b) == 3.0

    def test_two_by_two_adjacency_sample(self):
        grid = np.linspace(0, 1, 4)
        space = SpaceKind("adjacency", 2)

        vals = np.zeros((3, 4, 4))
        vals[..., 1] = vals[..., 2] = np.array([0.2, 0.8, 0.5])[:, None] * grid
        sample = ObjectSample(space, grid, vals)
        with pytest.warns(UserWarning, match="numerical rank"):
            fit = fit_fpca(sample, n_components=2)
        assert np.all(np.isfinite(fit.scores))

    @pytest.mark.parametrize("space", [SpaceKind("scalar", 1), SpaceKind("quantile", 1),
                                       SpaceKind("adjacency", 1), SpaceKind("sympsd", 1)],
                             ids=lambda s: s.tag)
    def test_dim_one_constant_sample_fits(self, space):
        # a one-node network keeps no metric coordinates at all
        grid = np.linspace(0, 1, 5)
        sample = ObjectSample(space, grid, np.zeros((3, 5, 1)))
        fit = fit_fpca(sample, n_components=1)
        assert np.array_equal(fit.surface.values, np.zeros((5, 5)))
        assert np.array_equal(fit.scores, np.zeros((3, 1)))
        assert np.array_equal(fit.object_components[0], np.zeros((3, 1)))

    def test_explained_fraction_component_out_of_range(self):
        # one fraction per retained component, the rest of the spectrum
        # counted in the denominator only
        rng = np.random.default_rng(5)
        grid = np.linspace(0, 1, 8)
        X = rng.normal(size=(5, 8))
        sample = ObjectSample(SpaceKind("scalar", 1), grid, X[..., None])
        es = eigendecompose(estimate_cov_surface(sample), k=3)
        assert es.explained_fractions.shape == (3,)
        assert 0.0 < es.explained_fractions.sum() < 1.0


class TestSimulatedTraceInvariant:
    @pytest.mark.parametrize("cfg", [
        DistributionSimConfig(n=15, n_times=15, m=12, seed=9),
        NetworkSimConfig(n=15, n_times=15, seed=9),
    ], ids=["dist", "net"])
    def test_total_variance_nonnegative(self, cfg):
        # every shipped surface is a Gram matrix: its diagonal, whose
        # quadrature integral is the trace, is nonnegative exactly
        surface = estimate_cov_surface(simulate(cfg))
        assert np.diagonal(surface.values).min() >= 0.0
