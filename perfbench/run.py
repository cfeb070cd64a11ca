"""Benchmark of the ofpca command line, timed in-process.

    python3 perfbench/run.py --workload fit-dist --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45

Each workload is a closed loop with one client that runs one command at
a time through `ofpca.cli.main`, because ofpca is a batch tool whose
callers wait for each result.  Inputs come from --seed and are made
before timing.  Every op's outputs go through a correctness gate outside
the timed region; an op fails on a nonzero exit, an exception or a
failed gate.

--trace 0 measures the named workload and prints its end-to-end
metrics.  --trace 1 is a separate run that wraps the calls between
ofpca's modules (see spans.py) and prints the per-layer table of all
three workloads, whichever is named, because
kernel.estimate_cov_surface.n_scaling compares two of them.  --workload
all runs every workload and then the traced run, each in a child
process so that each peak memory figure is its own.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

#: Spans each workload enters today (spans.WRAPS names them).  An expected
#: span that no traced op enters is reported as missing, never as 0 s.
EXPECTED_SPANS = {
    "fit-dist": ("cli.main", "io.load_trajectory_file", "kernel.estimate_cov_surface",
                 "eigen.eigendecompose", "fpca.fit_fpca", "fpca.frechet_mean_trajectory",
                 "fpca.distance_curves", "io.write_json", "io.dumps", "io.write_csv"),
    "mise-net": ("cli.main", "sim.mise_report", "sim.simulate", "kernel.estimate_cov_surface",
                 "eigen.eigendecompose", "io.write_csv"),
    "simulate-dist": ("cli.main", "sim.simulate", "io.write_json", "io.dumps"),
}

#: Spans whose own time is reported without that of the spans they call.
SELF_TIMED = {"cli.main", "fpca.fit_fpca", "sim.mise_report"}

SURFACE_RTOL = 1e-9
ORTHONORMAL_TOL = 1e-8
TRUTH_DEBUG_TOL = 1e-12


@dataclass(frozen=True)
class Config:
    n_fit: int = 400
    n_mise: int = 100
    mise_runs: int = 10
    n_sim: int = 100
    n_times: int = 51
    m: int = 100
    setup_repeats: int = 7
    max_ops: int | None = None  # cap on timed ops (or traced pairs) per workload


TINY = Config(n_fit=4, n_mise=4, mise_runs=1, n_sim=4, n_times=5, m=5,
              setup_repeats=1, max_ops=1)


@dataclass
class Case:
    """One workload, prepared: the command, its per-op trajectory count,
    the gate for one op's outputs, and untimed checking ops."""

    argv: list[str]
    trajectories: int
    check: Callable[[], str | None]
    inputs: dict[str, str]
    extra: list[tuple[list[str], Callable[[], str | None]]] = field(default_factory=list)


def sha256_bytes(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def output_gate(path: Path, content_check: Callable[[bytes], str | None]):
    """Gate for the file an op writes: the first op's bytes go through
    `content_check`, and every later op must write the same bytes (by
    sha256), which then carry the same verdict."""
    verdicts: dict[str, str | None] = {}

    def check():
        raw = path.read_bytes()
        digest = sha256_bytes(raw)
        if not verdicts:
            verdicts[digest] = content_check(raw)
        if digest not in verdicts:
            return f"{path.name} differs from the first op's bytes"
        return verdicts[digest]

    return check


def table_rows(text: str) -> list[list[float]]:
    """Numeric rows of a CSV table, without its header."""
    _, *rows = csv.reader(text.splitlines())
    return [[float(x) for x in row] for row in rows]


def prepare_fit_dist(work: Path, seed: int, cfg: Config) -> Case:
    import numpy as np

    subprocess.run(
        [sys.executable, str(HERE / "make_input.py"), "--seed", str(seed), "--n", str(cfg.n_fit),
         "--T", str(cfg.n_times), "--m", str(cfg.m), "--out", str(work)],
        check=True,
    )
    source = work / "input.json"
    oracle = np.load(work / "oracle.npy")
    out = work / "fit"

    def check(raw):
        doc = json.loads(raw)
        surface = np.asarray(doc["surface"], dtype=float)
        rel = np.abs(surface - oracle).max() / np.abs(oracle).max()
        if not rel <= SURFACE_RTOL:
            return f"surface is {rel:.3g} (relative) from the classical covariance"
        funs = np.asarray(doc["eigenfunctions"], dtype=float)
        weights = np.asarray(doc["quad_weights"], dtype=float)
        gram_error = np.abs((funs * weights) @ funs.T - np.eye(len(funs))).max()
        if not gram_error <= ORTHONORMAL_TOL:
            return f"eigenfunctions are {gram_error:.3g} from quadrature-orthonormal"
        if len(funs) != 4 or doc["object_fpcs"] is None:
            return "fit.json lacks 4 components with object components"
        return None

    argv = ["fit", str(source), "--components", "4", "--fpc-objects", "--out", str(out)]
    return Case(argv, cfg.n_fit, output_gate(out / "fit.json", check),
                {"input.json": sha256_bytes(source.read_bytes())})


def prepare_mise_net(work: Path, seed: int, cfg: Config) -> Case:
    import numpy as np

    base = ["mise", "--design", "net", "--n", str(cfg.n_mise), "--runs", str(cfg.mise_runs),
            "--T", str(cfg.n_times), "--seed", str(seed)]
    table = work / "mise.csv"
    debug_table = work / "mise_truth.csv"

    def check(raw):
        rows = table_rows(raw.decode())
        if not rows or not np.all(np.isfinite(rows)):
            return "MISE table is empty or has non-finite entries"
        return None

    def check_truth():
        errors = np.abs(np.asarray(table_rows(debug_table.read_text()))[:, 1:])
        if not errors.size:
            return "--truth-debug wrote an empty MISE table"
        if not errors.max() <= TRUTH_DEBUG_TOL:
            return f"--truth-debug errors reach {errors.max():.3g}, expected ~0"
        return None

    extra = [(base + ["--truth-debug", "--out", str(debug_table)], check_truth)]
    return Case(base + ["--out", str(table)], cfg.n_mise * cfg.mise_runs,
                output_gate(table, check), {}, extra)


def prepare_simulate_dist(work: Path, seed: int, cfg: Config) -> Case:
    import numpy as np
    import ofpca

    sim_cfg = ofpca.DistributionSimConfig(n=cfg.n_sim, n_times=cfg.n_times, m=cfg.m, seed=seed)
    expected = np.stack([tr.values for tr in ofpca.simulate(sim_cfg).trajectories])
    target = work / "sim.json"

    def check(raw):
        values = np.asarray(json.loads(raw)["trajectories"], dtype=float)
        if values.shape != expected.shape or not np.array_equal(values, expected):
            return "sim.json does not reload bit-equal to ofpca.simulate(cfg)"
        return None

    argv = ["simulate", "--design", "dist", "--n", str(cfg.n_sim), "--T", str(cfg.n_times),
            "--m", str(cfg.m), "--seed", str(seed), "--out", str(target)]
    return Case(argv, cfg.n_sim, output_gate(target, check), {})


#: Workload name -> preparation.  BENCHMARK.json says why each was chosen.
#: It declares fit-dist and mise-net only: simulate-dist's op time, almost
#: all Python string formatting, varied run to run by more than any bound
#: allowed on a shared 2-core host, so it is measured by hand and in the
#: traced run, where its layer rows stay.
PREPARE = {
    "fit-dist": prepare_fit_dist,
    "mise-net": prepare_mise_net,
    "simulate-dist": prepare_simulate_dist,
}
WORKLOADS = tuple(PREPARE)


@dataclass
class Tally:
    """Counts every op run in this process, timed or not."""

    attempted: int = 0
    failed: int = 0

    def run(self, argv: list[str], check: Callable[[], str | None]) -> float:
        """Run one command, returning its wall seconds; the gate runs after
        the clock stops."""
        import ofpca.cli

        gc.collect()
        self.attempted += 1
        sink = StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                code = ofpca.cli.main(argv)
        except SystemExit as exc:
            code = exc.code or 0
        except Exception:  # the op fails; the benchmark keeps running
            elapsed = time.perf_counter() - start
            traceback.print_exc()
            problem = "raised"
        else:
            elapsed = time.perf_counter() - start
            problem = f"exit code {code}" if code != 0 else check()
        if problem:
            self.failed += 1
            print(f"op failed ({argv[0]}): {problem}", file=sys.stderr)
        return elapsed


@contextlib.contextmanager
def prepared(name: str, seed: int, cfg: Config, tally: Tally):
    """Prepare a workload in a fresh work directory, then run its checking
    ops and one warm-up op, which fills caches and fixes the reference
    bytes; yields (work directory, case) and removes the directory."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    try:
        case = PREPARE[name](work, seed, cfg)
        for argv, check in case.extra:
            tally.run(argv, check)
        tally.run(case.argv, case.check)
        yield work, case
    finally:
        shutil.rmtree(work, ignore_errors=True)


def setup_seconds(repeats: int) -> float:
    """Median wall time of a fresh interpreter importing ofpca.cli, after
    one untimed import that fills the page and bytecode caches."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    cmd = [sys.executable, "-c", "import ofpca.cli"]
    times = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        if i:
            times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(times: list[float]) -> tuple[float, float] | None:
    """(seconds, percentile) of the highest percentile with at least ten
    ops beyond it, or None with fewer than eleven ops."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def measure(name: str, seed: int, seconds: float, cfg: Config, tally: Tally, env: dict) -> dict:
    """End-to-end metrics of one workload: {metric: (value, unit)}."""
    setup = setup_seconds(cfg.setup_repeats)
    with prepared(name, seed, cfg, tally) as (work, case):
        env["inputs"] = case.inputs
        env["argv"] = [arg.replace(str(work), "<work>") for arg in case.argv]
        times: list[float] = []
        while not times or (sum(times) < seconds and len(times) != cfg.max_ops):
            times.append(tally.run(case.argv, case.check))
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_at = tail(times)
    print(f"ops timed: {len(times)}; op_s.tail: "
          + (f"{tail_at[0]!r} s at p{tail_at[1]:.1f} (10 ops beyond)" if tail_at
             else "n/a (needs 11 ops)"))
    return {
        "op_s.p50": (statistics.median(times), "s"),
        "trajectories_per_s": (case.trajectories * len(times) / sum(times), "1/s"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (peak_mib, "MiB"),
    }


def layer_metrics(name: str, traced: list[float], plain: list[float],
                  per_op: list[dict]) -> dict:
    """Per-layer metrics of one workload from its traced ops' span totals."""
    out = {}

    def put(metric, value, unit):
        out[f"{name}.{metric}"] = (value, unit)

    def total(span, attr):
        values = [getattr(op[span], attr) for op in per_op if span in op]
        return None if any(v is None for v in values) else sum(values)

    written = 0.0
    for span in EXPECTED_SPANS[name]:
        called = [op for op in per_op if span in op]
        suffix = "self_s" if span in SELF_TIMED else "s"
        if not called:
            print(f"warning: {name} no longer calls {span}; reported as missing",
                  file=sys.stderr)
            put(f"{span}.{suffix}", None, "s")
            put(f"{span}.calls", None, "count")
            continue
        attr = "self_time" if span in SELF_TIMED else "busy"
        put(f"{span}.{suffix}",
            statistics.median(getattr(op[span], attr) if span in op else 0.0 for op in per_op), "s")
        put(f"{span}.calls", statistics.median(op[span].calls if span in op else 0 for op in per_op),
            "count")
        busy, work = total(span, "busy"), total(span, "work")
        if span == "io.load_trajectory_file":
            put("io.load_trajectory_file.mb_per_s", work and work / busy / 1e6, "MB/s")
            put("io.bytes_read", work and work / len(per_op), "B")
        elif span == "io.dumps":
            put("io.dumps.mb_per_s", work and work / busy / 1e6, "MB/s")
        elif span in ("io.write_json", "io.write_csv"):
            written = None if work is None or written is None else written + work
        elif span in ("kernel.estimate_cov_surface", "sim.simulate"):
            put(f"{span}.us_per_traj", work and busy / work * 1e6, "us")
    if any(s.startswith("io.write") for s in EXPECTED_SPANS[name]):
        put("io.bytes_written", written and written / len(per_op), "B")
    covered = [(op["cli.main"].busy - op["cli.main"].self_time) / wall
               for op, wall in zip(per_op, traced) if "cli.main" in op]
    put("trace.coverage", statistics.median(covered) if covered else None, "frac")
    put("trace.overhead_frac", statistics.median(traced) / statistics.median(plain) - 1.0, "frac")
    return out


def trace_all(seed: int, seconds: float, cfg: Config, tally: Tally, env: dict) -> dict:
    """Per-layer metrics of every workload.  Traced and untraced ops
    alternate, each side going first in turn, so that their medians give
    the tracing overhead."""
    from spans import Tracer, summarize

    metrics = {}
    env["inputs"] = {}
    for name in WORKLOADS:
        with prepared(name, seed, cfg, tally) as (_, case):
            env["inputs"].update({f"{name}/{k}": v for k, v in case.inputs.items()})
            plain: list[float] = []
            traced: list[float] = []
            per_op: list[dict] = []
            budget = seconds / len(WORKLOADS)
            while not traced or (sum(plain) + sum(traced) < budget
                                 and len(traced) != cfg.max_ops):
                for use_tracer in ((False, True) if len(traced) % 2 == 0 else (True, False)):
                    if not use_tracer:
                        plain.append(tally.run(case.argv, case.check))
                        continue
                    tracer = Tracer()
                    with tracer.installed():
                        traced.append(tally.run(case.argv, case.check))
                    per_op.append(summarize(tracer.spans))
        metrics.update(layer_metrics(name, traced, plain, per_op))
        unexpected = sorted({s for op in per_op for s in op} - set(EXPECTED_SPANS[name]))
        if unexpected:
            print(f"note: {name} now also calls {', '.join(unexpected)}", file=sys.stderr)
    big = metrics["fit-dist.kernel.estimate_cov_surface.us_per_traj"][0]
    small = metrics["mise-net.kernel.estimate_cov_surface.us_per_traj"][0]
    metrics["kernel.estimate_cov_surface.n_scaling"] = (big and small and big / small, "ratio")
    return metrics


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the loaded library itself."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def load_average() -> list[float]:
    with open("/proc/loadavg") as fh:
        return [float(x) for x in fh.read().split()[:3]]


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "ofpca").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    git_sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        git_sha = done.stdout.strip() or None
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "cpu_count": os.cpu_count(),
        "loadavg_start": load_average(),
    }


def run(name: str, seed: int, seconds: float, trace: bool, cfg: Config = Config()) -> dict:
    """Measure one workload (or, traced, all of them) and print the result;
    returns the result object printed on the last line."""
    import ofpca.cli  # noqa: F401  (imported before the environment is read)

    print(f"workload {name} seed {seed} seconds {seconds} trace {int(trace)}")
    env = environment()
    tally = Tally()
    if trace:
        metrics = trace_all(seed, seconds, cfg, tally, env)
    else:
        metrics = measure(name, seed, seconds, cfg, tally, env)
    env["loadavg_end"] = load_average()
    # this run keeps about one CPU busy; more than that means another process
    env["contended"] = max(env["loadavg_start"][0], env["loadavg_end"][0]) > (
        (env["cpu_count"] or 1) - 0.5)
    if env["contended"]:
        print("warning: another process kept the CPUs busy; figures may be slow",
              file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"failed_frac {tally.failed / tally.attempted!r} frac "
          f"({tally.failed} of {tally.attempted} ops)")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value!r} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ofpca benchmark")
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ofpca" / "__init__.py").is_file():
        print(f"error: no ofpca sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        jobs = [["--workload", w, "--trace", "0"] for w in WORKLOADS]
        jobs.append(["--workload", "fit-dist", "--trace", "1"])
        codes = [subprocess.run([sys.executable, str(HERE / "run.py"), *job, *common]).returncode
                 for job in jobs]
        return max(codes)

    sys.path.insert(0, str(SRC))
    import ofpca

    if SRC not in Path(ofpca.__file__).resolve().parents:
        print(f"error: imported ofpca from {ofpca.__file__}, not {SRC}", file=sys.stderr)
        return 2
    run(args.workload, args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    sys.exit(main())
