"""Make the fit-dist input: a quantile-curve trajectory file and its covariance oracle.

    python3 perfbench/make_input.py --seed 1 --n 400 --T 51 --m 100 --out DIR

Writes DIR/input.json, the trajectory file `ofpca fit` reads, and
DIR/oracle.npy, the classical centered covariance
(1/(n-1)) sum_i (E_i - Ebar)(E_i - Ebar)^T of the scaled coordinates
E = values / sqrt(m).  The quantile space is flat in those coordinates,
so the metric auto-covariance surface must equal it.

The run script starts this as a child process so that building the
40 MB JSON text does not count toward the benchmark's peak memory.
The curves depend only on numpy and the seed, never on ofpca.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from statistics import NormalDist

import numpy as np


def quantile_curves(seed: int, n: int, n_times: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Time grid (T,) and Gaussian quantile vectors (n, T, m) with random
    smooth mean and positive scale curves; each vector is increasing."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0.0, 1.0, n_times)
    probes = np.array([NormalDist().inv_cdf((k - 0.5) / m) for k in range(1, m + 1)])
    a = rng.normal(size=(n, 3, 1))
    mean = 1.0 + 3.0 * a[:, 0] * (t**2 - 0.5) + a[:, 1] * np.sin(2.0 * np.pi * t)
    scale = np.exp(0.3 * a[:, 2] * np.cos(np.pi * t))
    return t, mean[..., None] + scale[..., None] * probes


def classical_covariance(values: np.ndarray) -> np.ndarray:
    """(T, T) unbiased covariance of the scaled coordinates, summed over them."""
    n, n_times, m = values.shape
    centered = values * (1.0 / np.sqrt(m))
    centered = centered - centered.mean(axis=0)
    flat = centered.transpose(1, 0, 2).reshape(n_times, n * m)
    return flat @ flat.T / (n - 1)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--T", type=int, required=True, dest="n_times")
    parser.add_argument("--m", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    t, values = quantile_curves(args.seed, args.n, args.n_times, args.m)
    doc = {
        "space": "quantile",
        "dim": args.m,
        "time_grid": t.tolist(),
        "trajectories": values.tolist(),
    }
    # json writes floats as repr, which round-trips, so ofpca parses these exact values
    with open(args.out / "input.json", "w") as fh:
        json.dump(doc, fh)
    np.save(args.out / "oracle.npy", classical_covariance(values))


if __name__ == "__main__":
    main()
