"""Cross-module paths not covered by the per-module suites: non-uniform
grids, matrix spaces end to end, degenerate dimensions."""

import json

import numpy as np
import pytest

import ofpca
from ofpca import (
    BadRank,
    ObjectPoint,
    ObjectSample,
    ObjectTrajectory,
    adjacency_space,
    distance,
    eigendecompose,
    estimate_cov_surface,
    explained_fraction,
    fit_fpca,
    quantile_space,
    scalar_space,
    sympsd_space,
    total_variance,
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
        return ObjectSample(tuple(
            ObjectTrajectory(scalar_space(), self.GRID, X[i][:, None]) for i in range(n)
        )), X

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
        space = sympsd_space(r)
        trajs = []
        for _ in range(n):
            base = rng.normal(size=(r, r))
            mats = []
            for t in grid:
                a = base + 0.5 * t * rng.normal(size=(r, r))
                mats.append((a @ a.T).reshape(-1))
            trajs.append(ObjectTrajectory(space, grid, np.stack(mats)))
        return ObjectSample(tuple(trajs))

    def test_psd_fit_components_stay_psd(self):
        rng = np.random.default_rng(3)
        sample = self.psd_sample(rng)
        fit = fit_fpca(sample, n_components=2)
        for row in fit.object_fpcs:
            for j, p in enumerate(row, start=1):
                if j in fit.skipped_components:
                    continue
                eigs = np.linalg.eigvalsh(p.matrix())
                assert eigs.min() >= -1e-10
        assert total_variance(fit.surface) >= -1e-8

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


class TestDegenerateDimensions:
    def test_single_point_quantile_space(self):
        space = quantile_space(1)
        a = ObjectPoint(space, [2.0])
        b = ObjectPoint(space, [5.0])
        assert distance(a, b) == 3.0

    def test_two_by_two_adjacency_sample(self):
        grid = np.linspace(0, 1, 4)
        space = adjacency_space(2)

        def traj(w):
            vals = np.stack([np.array([0.0, w * t, w * t, 0.0]) for t in grid])
            return ObjectTrajectory(space, grid, vals)

        sample = ObjectSample((traj(0.2), traj(0.8), traj(0.5)))
        fit = fit_fpca(sample, n_components=2)
        assert np.all(np.isfinite(fit.scores))

    def test_explained_fraction_component_out_of_range(self):
        rng = np.random.default_rng(5)
        grid = np.linspace(0, 1, 8)
        X = rng.normal(size=(5, 8))
        sample = ObjectSample(tuple(
            ObjectTrajectory(scalar_space(), grid, X[i][:, None]) for i in range(5)
        ))
        es = eigendecompose(estimate_cov_surface(sample), k=3)
        with pytest.raises(BadRank):
            explained_fraction(es, 4)
        with pytest.raises(BadRank):
            explained_fraction(es, 0)


class TestSimulatedTraceInvariant:
    @pytest.mark.parametrize("cfg", [
        DistributionSimConfig(n=15, n_times=15, m=12, seed=9),
        NetworkSimConfig(n=15, n_times=15, seed=9),
    ], ids=["dist", "net"])
    def test_total_variance_nonnegative(self, cfg):
        surface = estimate_cov_surface(simulate(cfg))
        assert total_variance(surface) >= -1e-8
