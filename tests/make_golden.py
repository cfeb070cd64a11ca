"""Regenerate the committed scalar fixture and its golden scores.

Run from the repository root:

    python tests/make_golden.py

The fixture is a fixed seeded scalar sample; the golden scores come
from the classical pipeline in tests/oracles.py, not from the library,
so the committed file is an independent reference.
"""

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from oracles import classical_scalar_fpca  # noqa: E402

from ofpca import ObjectSample, SpaceKind  # noqa: E402
from ofpca import io as ofio  # noqa: E402

DATA = pathlib.Path(__file__).parent / "data"
K = 3


def build_fixture():
    rng = np.random.default_rng(20240211)
    n, T = 8, 12
    grid = np.linspace(0.0, 1.0, T)
    loadings = rng.normal(size=(n, 3)) * np.array([2.0, 1.0, 0.4])
    shapes = np.stack([
        np.sin(np.pi * grid),
        np.cos(2 * np.pi * grid),
        grid - 0.5,
    ])
    X = 1.0 + loadings @ shapes + 0.05 * rng.normal(size=(n, T))
    return grid, X


def main(data=DATA):
    """Write the fixture and its golden scores into the directory ``data``."""
    data.mkdir(exist_ok=True)
    grid, X = build_fixture()
    sample = ObjectSample(SpaceKind("scalar", 1), grid, X[..., None])
    ofio.save_trajectory_file(sample, data / "scalar_fixture.json")

    _, _, _, _, scores = classical_scalar_fpca(X, grid, k=K)
    ofio.write_scores_csv(data / "golden_scores.csv", scores)
    print(f"wrote {data / 'scalar_fixture.json'} and {data / 'golden_scores.csv'}")


if __name__ == "__main__":
    main()
