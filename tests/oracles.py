"""Independent reference implementations used as test oracles.

Nothing here imports the estimator paths it is meant to check: the
classical covariance is computed by centering, the U-statistic by the
distance-only pair kernel, the lattice search by enumeration,
quadrature by numpy's trapezoid, and file bytes by the per-scalar
writer that the vectorised one replaced.  The Frechet integral is
checked by a Riemann-sum search over explicit candidates, the batched
simulators by one-trajectory builders that assemble the values
themselves, and the network design's eigenvalues by a brute-force Monte
Carlo over trajectory pairs.  The designs' closed-form eigenvalues, a
quadrature Gram-Schmidt that builds orthonormal test bases, and the
rank-K surface of an eigensystem live here too.  ``traced_peak``
measures the memory bounds.
"""

from __future__ import annotations

import itertools
import json
import tracemalloc

import numpy as np
from scipy.linalg import eigh as scipy_eigh
from scipy.special import ndtri

from ofpca import (
    NetworkSimConfig,
    ObjectPoint,
    ObjectTrajectory,
    SpaceKind,
    trapezoid_weights,
    true_eigensystem,
)
from ofpca.errors import InvalidObject, SpaceMismatch
from ofpca.sim import (
    NETWORK_COMMUNITY,
    NETWORK_NODES,
    distribution_curve_params,
    network_curve_params,
    quantile_probes,
)


#: Population eigenvalues of the distribution design with orthonormal
#: directions and probes of mean square 1: Var(U)=12, Var(W)=72/12=6,
#: Var(V)+Var(Z)=1+9/12=1.75.
DISTRIBUTION_EIGENVALUES = (12.0, 6.0, 1.75)

#: Population eigenvalues of the network design without its [0, 1] clamp.
#: Each community contributes 20 varying off-diagonal entries (5*4, diagonal
#: is zero), and Var(U(0, c)) = c^2/12, so:
#:   lambda_1 = 20 * 0.4^2 / 12, lambda_2 = 20 * 0.3^2 / 12,
#:   lambda_3 = 2 * 20 * 0.1^2 / 12 = 1/30.
NETWORK_EIGENVALUES = (3.2 / 12.0, 1.8 / 12.0, 1.0 / 30.0)


def quadrature_orthonormalize(rows: np.ndarray, quad_weights: np.ndarray) -> np.ndarray:
    """Gram-Schmidt under the quadrature inner product, keeping each row's
    orientation: turns nearly orthonormal or random rows into exactly
    grid-orthonormal ones."""
    rows = np.array(rows, dtype=float)
    for j in range(rows.shape[0]):
        for l in range(j):
            rows[j] -= np.dot(rows[l] * quad_weights, rows[j]) * rows[l]
        norm = np.sqrt(np.dot(rows[j] * quad_weights, rows[j]))
        rows[j] /= norm
    return rows


def reconstruct(es) -> np.ndarray:
    """Surface rebuilt from the retained nonnegative components of an
    ``EigenSystem``."""
    vals = np.clip(es.eigenvalues, 0.0, None)
    return (es.eigenfunctions.T * vals) @ es.eigenfunctions


def classical_cross_covariance(X: np.ndarray) -> np.ndarray:
    """Unbiased sample cross-covariance surface of scalar curves.

    X has shape (n, T); returns (T, T) with entry (s, t) equal to
    (1/(n-1)) sum_i (X_i(s) - mean(s)) (X_i(t) - mean(t)).
    """
    n = X.shape[0]
    centered = X - X.mean(axis=0)
    return centered.T @ centered / (n - 1)


def reference_cov_surface(sample) -> np.ndarray:
    """The surface values as ``estimate_cov_surface`` computed them before
    it used each space's triangle coordinates in blocks, kept verbatim:
    one product of all L centered coordinates, through a (T, n, L) copy
    of the sample."""
    n, T, L = sample.stacked_values.shape
    X = sample.stacked_values.transpose(1, 0, 2).copy()
    X -= X.mean(axis=1, keepdims=True)
    X = X.reshape(T, n * L)
    surface = X @ X.T * sample.space.coord_scale**2 / (n - 1)
    return 0.5 * (surface + surface.T)


def pair_kernel(x: ObjectTrajectory, y: ObjectTrajectory, s_idx: int, t_idx: int) -> float:
    """The symmetrized squared-distance kernel for one trajectory pair at
    one pair of grid indices:

        f_{s,t}(x, y) = d^2(x(s), y(t)) + d^2(y(s), x(t))
                        - d^2(x(s), x(t)) - d^2(y(s), y(t)).

    Symmetric under swapping the trajectories and under swapping the
    indices, and zero when x and y are the same trajectory.  Curves that
    are constant in time give 2 d^2(a, b): values at different times are
    then perfectly dependent.
    """
    if x.space != y.space:
        raise SpaceMismatch("pair kernel needs trajectories in one space")
    T = x.time_grid.size
    if not (0 <= s_idx < T and 0 <= t_idx < T):
        raise IndexError(f"grid indices ({s_idx}, {t_idx}) out of range for T={T}")
    scale = x.space.coord_scale

    def sq(u, v):
        diff = (u - v) * scale
        return float(np.dot(diff, diff))

    return (
        sq(x.values[s_idx], y.values[t_idx])
        + sq(y.values[s_idx], x.values[t_idx])
        - sq(x.values[s_idx], x.values[t_idx])
        - sq(y.values[s_idx], y.values[t_idx])
    )


def reference_distance_curves(sample, mean) -> np.ndarray:
    """The distance curves as ``distance_curves`` computed them before it
    went block by block, kept verbatim: one whole-sample difference."""
    scale = sample.space.coord_scale
    diff = (sample.stacked_values - mean.values[None, :, :]) * scale
    return np.sqrt(np.einsum("itp,itp->it", diff, diff))


def traced_memory(fn, *args):
    """``fn(*args)`` and the memory that numpy and Python allocated during
    the call, in bytes, as ``(result, held, peak)``; ``held`` is what is
    still allocated when the call returns."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return (result, *tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of its allocations, as ``(result, peak)``."""
    result, _, peak = traced_memory(fn, *args)
    return result, peak


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


def cross_squared_distances(space, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """All pairwise squared distances between two stacks of coordinate rows.

    ``rows_a`` is (na, L), ``rows_b`` is (nb, L); returns (na, nb).  Both
    stacks are centered on the mean of ``rows_b`` before |a|^2 + |b|^2 - 2ab
    is expanded, so a large common offset does not cancel catastrophically.
    """
    scale = space.coord_scale
    center = rows_b.mean(axis=0)
    a = (rows_a - center) * scale
    b = (rows_b - center) * scale
    sq_a = np.einsum("ip,ip->i", a, a)
    sq_b = np.einsum("ip,ip->i", b, b)
    gram = a @ b.T
    out = sq_a[:, None] + sq_b[None, :] - 2.0 * gram
    np.maximum(out, 0.0, out=out)
    return out


def riemann_sum_minimizer(
    traj: ObjectTrajectory,
    phi_star: np.ndarray,
    candidates: list[ObjectPoint] | None = None,
    quad_weights: np.ndarray | None = None,
) -> ObjectPoint:
    """Minimizer of the discretized Frechet-integral objective over an
    explicit candidate set.

    Evaluates sum_k d^2(omega, X(t_k)) phi_star(t_k) w_k for every
    candidate omega and returns the first minimizer.  Works in any space because it only
    needs distances; with a dense candidate lattice it converges to the
    exact Frechet integral as the grid refines, which makes it the
    oracle for ``object_fpc``.  When ``candidates`` is omitted the
    trajectory's own observed objects are searched.
    """
    if candidates is None:
        candidates = [ObjectPoint(traj.space, row) for row in traj.values]
    if len(candidates) == 0:
        raise ValueError("riemann_sum_minimizer needs at least one candidate")
    if quad_weights is None:
        quad_weights = trapezoid_weights(traj.time_grid)
    phi_star = np.asarray(phi_star, dtype=float)
    rows = np.stack([c.data for c in candidates])
    d2 = cross_squared_distances(traj.space, rows, traj.values)
    objective = d2 @ (phi_star * quad_weights)
    return candidates[int(np.argmin(objective))]


def distribution_trajectory(u, v, w, z, time_grid, m: int) -> ObjectTrajectory:
    """One quantile-vector trajectory from explicit factor draws: the
    Gaussian quantiles sigma(t) * probes + mu(t)."""
    mu, sigma = distribution_curve_params(u, v, w, z, time_grid)
    values = sigma[:, None] * quantile_probes(m) + mu[:, None]
    return ObjectTrajectory(SpaceKind("quantile", m), np.asarray(time_grid, float), values)


def network_trajectory(u, v, w, z, time_grid) -> ObjectTrajectory:
    """One adjacency-matrix trajectory from explicit factor draws: edge
    weight p1 inside the first community, p2 inside the second, 0.1
    across, zero diagonal."""
    p1, p2 = network_curve_params(u, v, w, z, time_grid)
    c = NETWORK_COMMUNITY
    mats = np.full((p1.size, NETWORK_NODES, NETWORK_NODES), 0.1)
    mats[:, :c, :c] = p1[:, None, None]
    mats[:, c:, c:] = p2[:, None, None]
    idx = np.arange(NETWORK_NODES)
    mats[:, idx, idx] = 0.0
    return ObjectTrajectory(SpaceKind("adjacency", NETWORK_NODES), np.asarray(time_grid, float),
                            mats.reshape(p1.size, -1))


def network_population_eigenvalue(
    j: int, n_draws: int = 1_000_000, n_times: int = 51, seed: int = 2024
) -> float:
    """Brute-force Monte-Carlo estimate of the j-th population eigenvalue
    of the network design (see ``network_population_eigenvalue_and_se``)."""
    return network_population_eigenvalue_and_se(j, n_draws, n_times, seed)[0]


def network_population_eigenvalue_and_se(
    j: int, n_draws: int = 1_000_000, n_times: int = 51, seed: int = 2024
) -> tuple[float, float]:
    """Brute-force Monte-Carlo estimate of the j-th population eigenvalue
    of the network design, with its standard error.

    Draws independent trajectory pairs, evaluates the pairwise
    covariance kernel on the grid, and projects it onto the j-th
    eigenfunction of ``true_eigensystem``, whose Rayleigh quotient on the
    population surface is the j-th eigenvalue.  Distances are computed
    through the two within-community edge-weight curves; that reduction
    is verified against full adjacency matrices on a subsample before
    being trusted for the bulk of the draws.
    """
    truth = true_eigensystem(NetworkSimConfig(n=2, n_times=n_times))
    grid = truth.time_grid
    g = truth.quad_weights * truth.eigenfunctions[j - 1]
    g_total = g.sum()
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))

    def draw_curves(size):
        u = rng.uniform(0.0, 0.4, size)
        v = rng.uniform(0.0, 0.1, size)
        wd = rng.uniform(0.0, 0.3, size)
        z = rng.uniform(0.0, 0.1, size)
        return network_curve_params(u, v, wd, z, grid), (u, v, wd, z)

    def projected_cross(p1x, p2x, p1y, p2y):
        # sum_{s,t} g_s g_t d^2(X(s), Y(t)) with d^2 expanded per channel;
        # 20 off-diagonal entries carry each within-community weight
        out = 0.0
        for px, py in ((p1x, p1y), (p2x, p2y)):
            a_x = (px * px) @ g
            a_y = (py * py) @ g
            b_x = px @ g
            b_y = py @ g
            out = out + 20.0 * (g_total * a_x + g_total * a_y - 2.0 * b_x * b_y)
        return out

    # verify the two-channel reduction against full matrices
    (p1a, p2a), (ua, va, wa, za) = draw_curves(64)
    (p1b, p2b), (ub, vb, wb, zb) = draw_curves(64)
    for idx in range(8):
        ta = network_trajectory(ua[idx], va[idx], wa[idx], za[idx], grid)
        tb = network_trajectory(ub[idx], vb[idx], wb[idx], zb[idx], grid)
        diff = ta.values[:, None, :] - tb.values[None, :, :]
        d2_full = np.einsum("stp,stp->st", diff, diff)
        d2_fast = (
            20.0 * (p1a[idx][:, None] - p1b[idx][None, :]) ** 2
            + 20.0 * (p2a[idx][:, None] - p2b[idx][None, :]) ** 2
        )
        if np.abs(d2_full - d2_fast).max() > 1e-10:
            raise InvalidObject("network distance reduction failed validation")

    total = total_sq = 0.0
    chunk = 50_000
    done = 0
    while done < n_draws:
        size = min(chunk, n_draws - done)
        (p1x, p2x), _ = draw_curves(size)
        (p1y, p2y), _ = draw_curves(size)
        cross = projected_cross(p1x, p2x, p1y, p2y)
        self_x = projected_cross(p1x, p2x, p1x, p2x)
        self_y = projected_cross(p1y, p2y, p1y, p2y)
        per_pair = 0.25 * (2.0 * cross - self_x - self_y)
        total += float(np.sum(per_pair))
        total_sq += float(np.sum(per_pair * per_pair))
        done += size
    mean = total / n_draws
    return mean, float(np.sqrt((total_sq / n_draws - mean * mean) / (n_draws - 1)))


def monte_carlo_surface(design: str, n_times: int, n_draws: int, seed: int) -> np.ndarray:
    """Monte-Carlo estimate of a design's population metric auto-covariance
    on ``np.linspace(0, 1, n_times)`` from ``n_draws`` independent factor
    draws, with the factor laws written out here.

    Only the curve parameters are drawn; the surface follows from their
    sample covariances: Cov(mu) + m1 (Cov(mu, sigma) + Cov(sigma, mu)) +
    m2 Cov(sigma) for distributions, with m1 and m2 the mean and mean square
    of the m = 100 probes, and 20 Cov(p1) + 20 Cov(p2) for networks.
    """
    grid = np.linspace(0.0, 1.0, n_times)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    if design == "dist":
        probes = ndtri((np.arange(1, 101) - 0.5) / 100)
        m1, m2 = probes.mean(), np.mean(probes**2)
        weights = np.array([[1.0, m1], [m1, m2]])
    else:
        weights = 20.0 * np.eye(2)
    total = np.zeros(2 * n_times)
    total_sq = np.zeros((2 * n_times, 2 * n_times))
    shift = None
    for start in range(0, n_draws, 100_000):
        size = min(100_000, n_draws - start)
        if design == "dist":
            u, v = rng.normal(0.0, np.sqrt(12.0), size), rng.normal(0.0, 1.0, size)
            w, z = rng.uniform(0.0, np.sqrt(72.0), size), rng.uniform(0.0, 3.0, size)
            curves = distribution_curve_params(u, v, w, z, grid)
        else:
            u, v = rng.uniform(0.0, 0.4, size), rng.uniform(0.0, 0.1, size)
            w, z = rng.uniform(0.0, 0.3, size), rng.uniform(0.0, 0.1, size)
            curves = network_curve_params(u, v, w, z, grid)
        x = np.concatenate(curves, axis=1)
        if shift is None:  # a common shift keeps the sums of squares accurate
            shift = x.mean(axis=0)
        x = x - shift
        total += x.sum(axis=0)
        total_sq += x.T @ x
    cov = (total_sq - np.outer(total, total) / n_draws) / (n_draws - 1)
    blocks = cov.reshape(2, n_times, 2, n_times)
    return np.einsum("ab,asbt->st", weights, blocks)


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
