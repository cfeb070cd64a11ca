"""Apply one-line mutants to a copy of the code and report which the
tier-1 suite kills.

Run from the root of a checkout:

    python tests/mutants.py              # every mutant in MUTANTS
    python tests/mutants.py sign-tol     # only the named ones

For each row of ``MUTANTS`` it copies the files the suite reads (``src``,
``tests``, ``demos``, ``perfbench``, ``pytest.ini``, ``BENCHMARK.json``,
``README.md``) to a temporary directory, replaces the row's old text
with its new text there (the checkout is never edited), and runs
``python -m pytest -x -q`` in the copy, without the host-pinned digest
test, so that a mutant only that test would catch is not counted as
killed, and without
``test_mutant_rows.py``, which every mutant would fail by removing its
own old text.  A failing run kills the
mutant; the first failing test is printed.  For a survivor it runs the
copy's ``tests/output_digests.py`` and compares with the checkout's: a
survivor whose output bytes change is a test gap, one whose bytes stay
the same is dead code.  A row whose
old text is not in its file exactly once is reported as stale; the
tier-1 ``test_mutant_rows.py`` checks that of every row in milliseconds.
This is a script, not a test: a survivor takes as long as the whole suite.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "demos", "perfbench", "pytest.ini", "BENCHMARK.json", "README.md")
DESELECTED = ("tests/test_output_digests.py::test_outputs_match_the_pinned_digests",
              "tests/test_mutant_rows.py")

#: (name, file, old text, new text)
MUTANTS = [
    ("frechet-weight-tol", "src/ofpca/fpca.py",
     "if not abs(total - 1.0) <= 1e-8:", "if not abs(total - 1.0) <= 1e-2:"),
    ("frechet-weight-nan", "src/ofpca/fpca.py",
     "if not abs(total - 1.0) <= 1e-8:", "if abs(total - 1.0) > 1e-8:"),
    ("surface-symmetry-tol", "src/ofpca/kernel.py",
     "> 1e-12 * np.abs(vals).max()", "> 1e-6 * np.abs(vals).max()"),
    ("min-eigenfunction-integral", "src/ofpca/fpca.py",
     "MIN_EIGENFUNCTION_INTEGRAL = 1e-6", "MIN_EIGENFUNCTION_INTEGRAL = 1e-3"),
    ("eigen-gram-tol", "src/ofpca/eigen.py",
     "np.abs(gram - np.eye(vals.size)).max() > 1e-8",
     "np.abs(gram - np.eye(vals.size)).max() > 1e-2"),
    ("eigen-descending-tol", "src/ofpca/eigen.py",
     "np.any(np.diff(vals) > 1e-12)", "np.any(np.diff(vals) > 1e-3)"),
    ("numerical-rank-cut", "src/ofpca/fpca.py",
     "cut = es.time_grid.size * np.finfo(float).eps", "cut = np.finfo(float).eps"),
    ("sign-zero-branch", "src/ofpca/eigen.py",
     "if big.size and funs[j, big[0]] < 0:", "if big.size and funs[j, big[0]] > 0:"),
    ("sign-tol", "src/ofpca/eigen.py",
     "SIGN_INTEGRAL_TOL = 1e-9", "SIGN_INTEGRAL_TOL = 1e-3"),
    ("fraction-slack", "src/ofpca/fpca.py",
     "fraction - 1e-12) + 1)", "fraction) + 1)"),
    ("eigen-symmetrize", "src/ofpca/eigen.py",
     "    b = 0.5 * (b + b.T)\n", ""),
    ("correlation-clamp", "src/ofpca/kernel.py",
     "return float(np.clip(rho, -1.0, 1.0))", "return float(rho)"),
    ("biased-surface", "src/ofpca/kernel.py",
     "/ (2 * (n - 1))", "/ (2 * n)"),
    ("psd-round-off-cut", "src/ofpca/spaces.py",
     "dips = min_eigs < -space.dim * np.finfo(float).eps * np.abs(eigs).max(axis=-1)",
     "dips = min_eigs < 0.0"),
    ("sigma-floor", "src/ofpca/sim.py",
     "return mu, np.maximum(sigma, 1e-6)", "return mu, sigma"),
    ("grid-range", "src/ofpca/kernel.py",
     "if t[0] < 0.0 or t[-1] > 1.0:", "if t[0] < -1.0 or t[-1] > 2.0:"),
    ("admission-tol", "src/ofpca/spaces.py",
     "ADMISSION_TOL = 1e-10", "ADMISSION_TOL = 1e-6"),
    ("adjacency-diagonal-projection", "src/ofpca/spaces.py",
     "        sym[..., idx, idx] = 0.0\n", ""),
    ("own-always-copy", "src/ofpca/spaces.py",
     "if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable):",
     "if True:"),
    ("run-seed-order", "src/ofpca/sim.py",
     "entropy=(seed, run_index)", "entropy=(run_index, seed)"),
    ("column-means-axis", "src/ofpca/io.py",
     "comps.mean(axis=0) for comps", "comps.mean(axis=0) * 1.0000001 for comps"),
    ("mise-lambda-abs", "src/ofpca/sim.py",
     "(es.eigenvalues[j] - truth.eigenvalues[j]) ** 2",
     "abs(es.eigenvalues[j] - truth.eigenvalues[j])"),
    ("trap-end-weight", "src/ofpca/kernel.py",
     "w[0] = 0.5 * (t[1] - t[0])", "w[0] = 1.0 * (t[1] - t[0])"),
    ("distance-scale", "src/ofpca/fpca.py",
     "        diff *= scale\n", ""),
    ("factor-stream-order", "src/ofpca/sim.py",
     "zip(cfg._FACTORS, streams)", "zip(cfg._FACTORS, streams[::-1])"),
    ("covariance-first-shift", "src/ofpca/kernel.py",
     "    pairs = pairs - pairs[0]\n", ""),
    ("numbers-16g", "src/ofpca/io.py",
     '"%.17g"', '"%.16g"'),
    ("quantile-grid", "src/ofpca/spaces.py",
     "(np.arange(1, m + 1) - 0.5) / m", "np.arange(1, m + 1) / (m + 1)"),
    ("cross-weight", "src/ofpca/sim.py",
     "_CROSS_WEIGHT = 0.1", "_CROSS_WEIGHT = 0.2"),
    ("cross-weight-ulp", "src/ofpca/sim.py",
     "_CROSS_WEIGHT = 0.1", "_CROSS_WEIGHT = 0.1000000000000001"),
    ("explained-clip", "src/ofpca/eigen.py",
     "vals = np.clip(self.eigenvalues, 0.0, None)", "vals = self.eigenvalues"),
    ("basis-norm-grid", "src/ofpca/sim.py",
     "np.linspace(0.0, 1.0, 100001)", "np.linspace(0.0, 1.0, 1001)"),
    ("psd-resymmetrize", "src/ofpca/spaces.py",
     "    psd = 0.5 * (psd + np.swapaxes(psd, -1, -2))\n", ""),
    ("spectrum-total-retained", "src/ofpca/eigen.py",
     "    spectrum_total = float(np.clip(vals, 0.0, None).sum())\n    vals = vals[:k]\n",
     "    vals = vals[:k]\n    spectrum_total = float(np.clip(vals, 0.0, None).sum())\n"),
    ("admitted-converted", "src/ofpca/spaces.py",
     "isinstance(raw, np.ndarray) and np.may_share_memory(admitted, raw)",
     "np.may_share_memory(admitted, block)"),
    ("container-identity", "src/ofpca/kernel.py",
     "@dataclass(frozen=True, eq=False)\nclass ObjectSample:",
     "@dataclass(frozen=True)\nclass ObjectSample:"),
    ("point-identity", "src/ofpca/spaces.py",
     "@dataclass(frozen=True, eq=False)\nclass ObjectPoint:",
     "@dataclass(frozen=True)\nclass ObjectPoint:"),
    ("grid-finite", "src/ofpca/kernel.py",
     "if not np.all(np.isfinite(t)):", "if False:"),
    ("surface-shape", "src/ofpca/kernel.py",
     "if vals.shape != (t.size, t.size):", "if False:"),
    ("eigenfunction-shape", "src/ofpca/eigen.py",
     "if funs.shape != (vals.size, t.size):", "if False:"),
    ("pair-count", "src/ofpca/kernel.py",
     "if min(len(u), len(v)) < 2:", "if False:"),
    ("pair-lengths", "src/ofpca/kernel.py",
     "if len(u) != len(v):", "if False:"),
    ("network-basis-index", "src/ofpca/sim.py",
     'if _count(j, "j", 1) > 3:', 'if _count(j, "j", 1) > 4:'),
    ("space-tag", "src/ofpca/spaces.py",
     "if self.tag not in SPACE_TAGS:", "if False:"),
    ("scalar-dim", "src/ofpca/spaces.py",
     'if self.tag == "scalar" and self.dim != 1:', "if False:"),
    ("quantile-grid-space", "src/ofpca/spaces.py",
     'if self.tag != "quantile":', "if False:"),
    ("matrix-space", "src/ofpca/spaces.py",
     "if not self.space.is_matrix:", "if False:"),
    ("projection-finite", "src/ofpca/spaces.py",
     "if not np.all(np.isfinite(raw)):", "if False:"),
    ("dumps-type", "src/ofpca/io.py",
     'raise InvalidObject(f"cannot serialize {type(obj).__name__}")', "return str(obj)"),
    ("empty-first-trajectory", "src/ofpca/io.py",
     "if first.size", "if True"),
    ("scalar-family", "src/ofpca/spaces.py",
     "if not space.is_matrix:\n        out = raw.copy()\n",
     'if space.tag == "quantile":\n        out = raw.copy()\n'),
    ("eigenvalue-vector", "src/ofpca/eigen.py",
     "if vals.ndim != 1 or not vals.size:", "if not vals.size:"),
    ("eigenvalue-count", "src/ofpca/eigen.py",
     "if vals.ndim != 1 or not vals.size:", "if vals.ndim != 1:"),
    ("spectrum-total-floor", "src/ofpca/eigen.py",
     "retained * (1.0 - 1e-12) <= self.spectrum_total", "-np.inf <= self.spectrum_total"),
    ("spectrum-total-finite", "src/ofpca/eigen.py",
     "<= self.spectrum_total < np.inf:", "<= self.spectrum_total <= np.inf:"),
    ("spectrum-total-slack", "src/ofpca/eigen.py",
     "retained * (1.0 - 1e-12) <=", "retained <="),
    ("correlation-pair-first", "src/ofpca/kernel.py",
     "    cov, var_u, var_v = metric_covariance(u, v), metric_variance(u), metric_variance(v)\n"
     "    if var_u <= 0.0 or var_v <= 0.0:\n"
     '        raise DegenerateVariance("zero metric variance in a margin")\n',
     "    var_u, var_v = metric_variance(u), metric_variance(v)\n"
     "    if var_u <= 0.0 or var_v <= 0.0:\n"
     '        raise DegenerateVariance("zero metric variance in a margin")\n'
     "    cov = metric_covariance(u, v)\n"),
    ("eigen-finite", "src/ofpca/eigen.py",
     "if not (np.isfinite(vals).all() and np.isfinite(funs).all()):", "if False:"),
    ("correlation-variance-product", "src/ofpca/kernel.py",
     "rho = (cov / var_u) * np.sqrt(var_u / var_v)", "rho = cov / np.sqrt(var_u * var_v)"),
    ("fit-components-bound", "src/ofpca/fpca.py",
     'if _count(n_components, "n_components", 1, BadRank) > T:',
     'if _count(n_components, "n_components", 1, BadRank) > T + 1000:'),
]


def copy_tree(dest: pathlib.Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", "_work", ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def output_digests(root: pathlib.Path) -> str:
    return subprocess.run([sys.executable, "tests/output_digests.py"], cwd=root, check=True,
                          capture_output=True, text=True).stdout


def first_failure(out: str) -> str:
    failed = [line.split(" - ")[0] for line in out.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0].split(" ", 1)[1] if failed else (out.strip().splitlines() or ["?"])[-1]


def run_mutant(path, old, new, want_digests) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        root = pathlib.Path(tmp)
        copy_tree(root)
        target = root / path
        text = target.read_text()
        if text.count(old) != 1:
            return "stale: old text not found exactly once"
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        deselect = [arg for test in DESELECTED for arg in ("--deselect", test)]
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *deselect], cwd=root,
                              env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            return f"killed by {first_failure(proc.stdout)}"
        same = output_digests(root) == want_digests
        return "survived: dead code (bytes same)" if same else "survived: test gap (bytes change)"


def main(names) -> int:
    rows = [row for row in MUTANTS if not names or row[0] in names]
    unknown = set(names) - {row[0] for row in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    want_digests = output_digests(ROOT)
    for name, path, old, new in rows:
        start = time.perf_counter()
        result = run_mutant(path, old, new, want_digests)
        print(f"{name:28s} {time.perf_counter() - start:6.1f} s  {result}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
