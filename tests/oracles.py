"""Independent reference implementations used as test oracles.

Nothing here imports the estimator paths it is meant to check: the
classical covariance is computed by centering, the lattice search by
enumeration, quadrature by numpy's trapezoid, and file bytes by the
per-scalar writer that the vectorised one replaced.
"""

from __future__ import annotations

import itertools
import json

import numpy as np
from scipy.linalg import eigh as scipy_eigh
from scipy.special import ndtri

from ofpca.errors import InvalidObject


def classical_cross_covariance(X: np.ndarray) -> np.ndarray:
    """Unbiased sample cross-covariance surface of scalar curves.

    X has shape (n, T); returns (T, T) with entry (s, t) equal to
    (1/(n-1)) sum_i (X_i(s) - mean(s)) (X_i(t) - mean(t)).
    """
    n = X.shape[0]
    centered = X - X.mean(axis=0)
    return centered.T @ centered / (n - 1)


def pearson_unbiased(u: np.ndarray, v: np.ndarray) -> float:
    u = np.asarray(u, float)
    v = np.asarray(v, float)
    n = u.size
    cu = u - u.mean()
    cv = v - v.mean()
    cov = np.dot(cu, cv) / (n - 1)
    return cov / np.sqrt((np.dot(cu, cu) / (n - 1)) * (np.dot(cv, cv) / (n - 1)))


def monotone_lattice(m: int, levels: np.ndarray) -> np.ndarray:
    """All non-decreasing m-vectors with entries drawn from ``levels``."""
    combos = itertools.combinations_with_replacement(levels, m)
    return np.array(list(combos), dtype=float)


def best_monotone_on_lattice(y: np.ndarray, lattice: np.ndarray) -> np.ndarray:
    """Lattice candidate with the smallest squared distance to y."""
    d2 = ((lattice - y[None, :]) ** 2).sum(axis=1)
    return lattice[int(np.argmin(d2))]


def gaussian_quantiles(mu: float, sigma: float, m: int) -> np.ndarray:
    u = (np.arange(1, m + 1) - 0.5) / m
    return mu + sigma * ndtri(u)


def trapezoid_integral(y: np.ndarray, x: np.ndarray) -> float:
    return float(np.trapezoid(y, x))


def classical_scalar_fpca(X: np.ndarray, grid: np.ndarray, k: int):
    """Classical scalar pipeline computed with independent code.

    Covariance by centering, quadrature discretization via scipy's
    symmetric solver, distance curves as absolute deviations from the
    pointwise mean, scores by trapezoid integration.  Returns
    (surface, eigenvalues, eigenfunctions, mean, scores).
    """
    n, T = X.shape
    surface = classical_cross_covariance(X)
    w = np.empty(T)
    w[0] = 0.5 * (grid[1] - grid[0])
    w[-1] = 0.5 * (grid[-1] - grid[-2])
    w[1:-1] = 0.5 * (grid[2:] - grid[:-2])
    root = np.sqrt(w)
    b = root[:, None] * surface * root[None, :]
    vals, vecs = scipy_eigh(0.5 * (b + b.T))
    order = np.argsort(vals)[::-1][:k]
    vals = vals[order]
    funs = (vecs[:, order] / root[:, None]).T
    funs = funs / np.sqrt((funs * funs) @ w)[:, None]
    for j in range(k):
        integral = np.dot(w, funs[j])
        if abs(integral) >= 1e-9:
            if integral < 0:
                funs[j] = -funs[j]
        else:
            big = np.nonzero(np.abs(funs[j]) > 1e-9)[0]
            if big.size and funs[j, big[0]] < 0:
                funs[j] = -funs[j]
    mean = X.mean(axis=0)
    dist = np.abs(X - mean)
    scores = np.stack([[trapezoid_integral(dist[i] * funs[j], grid) for j in range(k)]
                       for i in range(n)])
    return surface, vals, funs, mean, scores


def mc_pair_kernel_mean(draw_pair_d2, n_draws: int, rng) -> tuple[float, float]:
    """Monte-Carlo mean and standard error of the covariance kernel
    0.25 (d2_xy' + d2_x'y - d2_xy - d2_x'y') over independent pairs.

    ``draw_pair_d2(rng, size)`` must return the four squared-distance
    arrays for ``size`` independent draws.
    """
    d2_cross_a, d2_cross_b, d2_self_a, d2_self_b = draw_pair_d2(rng, n_draws)
    vals = 0.25 * (d2_cross_a + d2_cross_b - d2_self_a - d2_self_b)
    return float(vals.mean()), float(vals.std(ddof=1) / np.sqrt(n_draws))


# Reference writer: the per-scalar formatter that `ofpca.io` used before
# its writers were vectorised, kept verbatim so that the fast writer can
# be checked byte for byte against it.


def reference_format_float(x: float) -> str:
    if not np.isfinite(x):
        raise InvalidObject(f"cannot serialize non-finite float {x!r}")
    return f"{float(x):.17g}"


def _reference_emit(obj, parts: list[str], indent: int) -> None:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(pad + "  " + json.dumps(str(key)) + ": ")
            _reference_emit(value, parts, indent + 2)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            parts.append("[]")
            return
        scalars = all(isinstance(x, (int, float, np.floating, np.integer)) for x in items)
        if scalars:
            parts.append("[" + ", ".join(_reference_scalar(x) for x in items) + "]")
            return
        parts.append("[\n")
        for i, value in enumerate(items):
            parts.append(pad + "  ")
            _reference_emit(value, parts, indent + 2)
            parts.append(",\n" if i < len(items) - 1 else "\n")
        parts.append(pad + "]")
    else:
        parts.append(_reference_scalar(obj))


def _reference_scalar(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return reference_format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InvalidObject(f"cannot serialize {type(obj).__name__}")


def reference_dumps(obj) -> str:
    parts: list[str] = []
    _reference_emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def _reference_csv_cell(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return reference_format_float(float(x))
    return str(x)


def reference_csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(_reference_csv_cell(x) for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def reference_surface_csv(time_grid, values) -> str:
    rows = (
        (s, t, values[a][b])
        for a, s in enumerate(time_grid)
        for b, t in enumerate(time_grid)
    )
    return reference_csv(["s", "t", "value"], rows)


def reference_eigenfunctions_csv(time_grid, eigenfunctions) -> str:
    funs = np.asarray(eigenfunctions, dtype=float)
    header = ["t"] + [f"phi{j + 1}" for j in range(funs.shape[0])]
    rows = ([time_grid[k]] + list(funs[:, k]) for k in range(len(time_grid)))
    return reference_csv(header, rows)


def reference_scores_csv(scores) -> str:
    scores = np.asarray(scores, dtype=float)
    header = ["i"] + [f"beta{j + 1}" for j in range(scores.shape[1])]
    rows = ([i] + list(scores[i]) for i in range(scores.shape[0]))
    return reference_csv(header, rows)


def reference_mise_csv(rows: list[dict], n_components: int = 3) -> str:
    header = (
        ["n", "C"]
        + [f"phi{j + 1}" for j in range(n_components)]
        + [f"lambda{j + 1}" for j in range(n_components)]
    )
    table = (
        [row["n"], row["mise_c"]] + list(row["mise_phi"]) + list(row["mise_lambda"])
        for row in rows
    )
    return reference_csv(header, table)
