"""The whole fit against the isometries of each metric.

The estimators are defined through distances alone, so an isometry g
applied at every time to every trajectory leaves the surface, the
eigenvalues, the distance curves and the explained fractions unchanged,
the eigenfunctions and the scores unchanged up to the sign of each
component, and maps the mean curve and every object component by g.
A permutation of the trajectories permutes the rows of the scores, the
distance curves and the object components, and leaves the rest alone.
An affine change of time t -> a t + b scales the quadrature weights by
a: the eigenvalues scale by a, the eigenfunctions by 1/sqrt(a) and the
scores by sqrt(a), and the rest stays.
Each fit runs through ``ofpca fit`` on a written file, so that loading
and admission are covered too.  Tolerances are relative to the largest
magnitude of each quantity.
"""

import json

import numpy as np
import pytest

from ofpca import (
    DistributionSimConfig,
    ObjectSample,
    SpaceKind,
    simulate,
)
from ofpca.cli import main
from ofpca.io import save_trajectory_file

N, T, K = 12, 9, 4
#: Relative tolerance: every difference is round-off of a reordered sum,
#: and the eigenfunctions' share of it is scaled by the inverse eigengap.
RTOL = 1e-10


def random_values(space, rng) -> np.ndarray:
    """(N, T, L) values of a valid sample of ``space``, away from its
    boundaries, with a large common offset where the space allows one."""
    shape = (N, T)
    if space.tag == "scalar":
        return 50.0 + rng.normal(size=shape + (1,))
    if space.tag == "quantile":
        steps = rng.uniform(0.1, 1.0, size=shape + (space.dim,))
        return np.cumsum(steps, axis=-1) + rng.normal(size=shape + (1,))
    r = space.dim
    a = rng.uniform(0.05, 0.95, size=shape + (r, r))
    if space.tag == "adjacency":
        a = 0.5 * (a + np.swapaxes(a, -1, -2))
        a[..., np.arange(r), np.arange(r)] = 0.0
        return a.reshape(shape + (r * r,))
    return (a @ np.swapaxes(a, -1, -2)).reshape(shape + (r * r,))


def conjugate(q):
    """A -> q A q^T on flattened (..., r * r) matrices, symmetrized."""
    def g(x):
        mats = x.reshape(x.shape[:-1] + q.shape)
        out = q @ mats @ q.T
        return (0.5 * (out + np.swapaxes(out, -1, -2))).reshape(x.shape)
    return g


def isometries():
    rng = np.random.default_rng(1907)
    perm = rng.permutation(4)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    return [
        ("scalar reflection", SpaceKind("scalar", 1), lambda x: -x + 3.25),
        ("quantile translation", SpaceKind("quantile", 6), lambda x: x + 2.5),
        ("adjacency relabeling", SpaceKind("adjacency", 4), conjugate(np.eye(4)[perm])),
        ("sympsd rotation", SpaceKind("sympsd", 3), conjugate(q)),
    ]


ISOMETRIES = isometries()


def fit(tmp_path, name, space, values, grid=np.linspace(0.0, 1.0, T), k=K) -> dict:
    """fit.json of ``ofpca fit --components k`` on the sample, as arrays."""
    path = tmp_path / f"{name}.json"
    save_trajectory_file(ObjectSample(space, grid, values), path)
    assert main(["fit", str(path), "--components", str(k), "--out", str(tmp_path / name)]) == 0
    doc = json.loads((tmp_path / name / "fit.json").read_text())
    assert doc["status"] == "ok" and len(doc["eigenvalues"]) == k
    keys = ("surface", "eigenvalues", "eigenfunctions", "explained_fractions", "mean",
            "scores", "distance_curves", "object_fpcs")
    return {key: np.array(doc[key], dtype=float) for key in keys}


def assert_close(got, want, what):
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= RTOL * scale, what


def assert_same_fit(a, b, g=lambda x: x, rows=slice(None)):
    """``b`` is the fit of the sample of ``a`` mapped by ``g`` with its
    trajectories reordered by ``rows``."""
    for key in ("surface", "eigenvalues", "explained_fractions"):
        assert_close(b[key], a[key], key)
    signs = np.sign(np.sum(a["eigenfunctions"] * b["eigenfunctions"], axis=1))
    assert np.all(signs != 0)
    assert_close(b["eigenfunctions"] * signs[:, None], a["eigenfunctions"], "eigenfunctions")
    assert_close(b["scores"] * signs, a["scores"][rows], "scores")
    assert_close(b["distance_curves"], a["distance_curves"][rows], "distance_curves")
    assert_close(b["mean"], g(a["mean"]), "mean")
    assert_close(b["object_fpcs"], g(a["object_fpcs"][rows]), "object_fpcs")


@pytest.mark.parametrize("name, space, g", ISOMETRIES, ids=[row[0] for row in ISOMETRIES])
def test_isometry_of_every_object(tmp_path, name, space, g):
    values = random_values(space, np.random.default_rng(12))
    a = fit(tmp_path, "a", space, values)
    b = fit(tmp_path, "b", space, g(values))
    assert_same_fit(a, b, g)


@pytest.mark.parametrize("space", [row[1] for row in ISOMETRIES], ids=lambda s: s.tag)
def test_permutation_of_trajectories(tmp_path, space):
    values = random_values(space, np.random.default_rng(13))
    rows = np.random.default_rng(14).permutation(N)
    a = fit(tmp_path, "a", space, values)
    b = fit(tmp_path, "b", space, values[rows])
    assert_same_fit(a, b, rows=rows)


def test_affine_time_change(tmp_path):
    # the simulated distributions span three directions in time
    sample = simulate(DistributionSimConfig(n=40, n_times=21, m=20, seed=4))
    space, values, grid = sample.space, sample.stacked_values, sample.time_grid
    scale, shift = 0.6, 0.3
    a = fit(tmp_path, "a", space, values, grid, k=3)
    b = fit(tmp_path, "b", space, values, scale * grid + shift, k=3)
    assert np.array_equal(b["surface"], a["surface"])
    for key in ("explained_fractions", "mean", "distance_curves", "object_fpcs"):
        assert_close(b[key], a[key], key)
    assert_close(b["eigenvalues"], scale * a["eigenvalues"], "eigenvalues")
    signs = np.sign(np.sum(a["eigenfunctions"] * b["eigenfunctions"], axis=1))
    assert np.all(signs != 0)
    assert_close(b["eigenfunctions"] * signs[:, None], a["eigenfunctions"] / np.sqrt(scale),
                 "eigenfunctions")
    assert_close(b["scores"] * signs, a["scores"] * np.sqrt(scale), "scores")
