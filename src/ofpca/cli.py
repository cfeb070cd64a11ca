"""Batch command-line interface.

Commands: simulate, fit, mise, scores, export-plots.  Every command is
pure given its input file, flags, and seed: re-running writes identical
bytes, and the worker-thread count never changes results.

Exit codes: 0 success (including partial fits, which set a status
field), 2 input or schema error (an unreadable input or unwritable
output path included), 3 internal numeric error.  Flags are checked by
the library calls that use them (``--components`` outside [1, T],
``--explained-fraction`` outside (0, 1] and a negative ``--seed`` exit 2).
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

import numpy as np

from . import io
from .errors import (
    BadRank,
    BadWeights,
    EmptyInput,
    InvalidObject,
    OfpcaError,
    SchemaError,
    SpaceMismatch,
    TooFewTrajectories,
)
from .fpca import fit_fpca
from .sim import (
    DistributionSimConfig,
    NetworkSimConfig,
    mise_report,
    simulate,
)

INPUT_ERRORS = (
    SchemaError,
    InvalidObject,
    SpaceMismatch,
    TooFewTrajectories,
    BadRank,
    EmptyInput,
    BadWeights,
)


def _add_common_fit_args(parser):
    parser.add_argument("--space", choices=("scalar", "quantile", "adjacency", "sympsd"),
                        default=None,
                        help="assert the input file's space (guards against mixing files)")
    parser.add_argument("--components", type=int, default=4, metavar="K",
                        help="number of eigencomponents to retain, at most the "
                             "surface's numerical rank (default 4)")
    parser.add_argument("--explained-fraction", type=float, default=None, metavar="F",
                        help="keep the smallest K whose cumulative explained "
                             "fraction reaches F, in (0, 1] (capped by --components)")
    parser.add_argument("--clip-negative-eigenvalues", action="store_true",
                        help="zero out negative eigenvalues in the output")
    parser.add_argument("--fpc-objects", action="store_true", default=True,
                        help="compute per-trajectory object components (default)")
    parser.add_argument("--no-fpc-objects", dest="fpc_objects", action="store_false")
    parser.add_argument("--project-on-load", action="store_true",
                        help="repair invalid objects by metric projection on load")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; has no effect")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofpca",
        description="Functional PCA for metric-space-valued curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a trajectory file")
    p_sim.add_argument("--design", choices=("dist", "net"), required=True)
    p_sim.add_argument("--n", type=int, required=True, help="sample size")
    p_sim.add_argument("--T", type=int, default=51, dest="n_times", help="time-grid size")
    p_sim.add_argument("--m", type=int, default=100, help="quantile-grid size (dist only)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True, help="output JSON path")

    p_fit = sub.add_parser("fit", help="fit a trajectory file")
    p_fit.add_argument("input", help="trajectory JSON file")
    _add_common_fit_args(p_fit)
    p_fit.add_argument("--out", required=True, help="output directory")

    p_scores = sub.add_parser("scores", help="fit and write only the scores CSV")
    p_scores.add_argument("input", help="trajectory JSON file")
    _add_common_fit_args(p_scores)
    p_scores.add_argument("--out", required=True, help="output CSV path")

    p_mise = sub.add_parser("mise", help="Monte-Carlo error table for a design")
    p_mise.add_argument("--design", choices=("dist", "net"), required=True)
    p_mise.add_argument("--n", default="25,50,100",
                        help="comma-separated sample sizes (default 25,50,100)")
    p_mise.add_argument("--runs", type=int, default=100)
    p_mise.add_argument("--T", type=int, default=51, dest="n_times")
    p_mise.add_argument("--m", type=int, default=100)
    p_mise.add_argument("--seed", type=int, default=0)
    p_mise.add_argument("--components", type=int, default=3)
    p_mise.add_argument("--truth-debug", action="store_true",
                        help="feed the true surface into the eigen step (all errors ~ 0)")
    p_mise.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; has no effect")
    p_mise.add_argument("--out", required=True, help="output CSV path")

    p_export = sub.add_parser("export-plots", help="re-emit plot CSVs from a fit artifact")
    p_export.add_argument("artifact", help="fit.json produced by the fit command")
    p_export.add_argument("--out", required=True, help="output directory")
    return parser


def _make_config(args, n):
    if args.design == "dist":
        return DistributionSimConfig(n=n, n_times=args.n_times, m=args.m, seed=args.seed)
    return NetworkSimConfig(n=n, n_times=args.n_times, seed=args.seed)


def cmd_simulate(args) -> int:
    sample = simulate(_make_config(args, args.n))
    io.save_trajectory_file(sample, args.out)
    print(f"wrote {args.out}")
    return 0


def _run_fit(args, fpc_objects):
    sample = io.load_trajectory_file(args.input, project_on_load=args.project_on_load)
    if args.space is not None and sample.space.tag != args.space:
        raise SchemaError(
            f"file holds {sample.space.tag!r} objects, --space says {args.space!r}"
        )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_fpca(
            sample,
            n_components=args.components,
            clip_negative=args.clip_negative_eigenvalues,
            fpc_objects=fpc_objects,
            explained_fraction=args.explained_fraction,
        )
    return sample, fit, [str(w.message) for w in caught]


def cmd_fit(args) -> int:
    sample, fit, notes = _run_fit(args, args.fpc_objects)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    status = "partial" if fit.skipped_components else "ok"
    io.write_json(io.fit_to_dict(fit, sample.space, status=status, warnings_list=notes),
                  out / "fit.json")
    io.write_surface_csv(out / "surface.csv", fit.surface.time_grid, fit.surface.values)
    io.write_eigenfunctions_csv(out / "eigenfunctions.csv", fit.eigen.time_grid,
                                fit.eigen.eigenfunctions)
    io.write_scores_csv(out / "scores.csv", fit.scores)
    print(f"wrote {out / 'fit.json'} (status: {status})")
    return 0


def cmd_scores(args) -> int:
    # object components never reach the scores file
    _, fit, _ = _run_fit(args, fpc_objects=False)
    io.write_scores_csv(args.out, fit.scores)
    print(f"wrote {args.out}")
    return 0


def cmd_mise(args) -> int:
    try:
        n_list = [int(x) for x in str(args.n).split(",") if x.strip()]
    except ValueError:
        raise SchemaError(f"--n must be comma-separated integers, got {args.n!r}")
    if not n_list:
        raise SchemaError("--n selected no sample sizes")
    rows = []
    for n in n_list:
        rows.append(mise_report(_make_config(args, n), runs=args.runs,
                                n_components=args.components, truth_debug=args.truth_debug))
    io.write_mise_csv(args.out, rows, n_components=args.components)
    print(f"wrote {args.out}")
    return 0


def cmd_export_plots(args) -> int:
    doc = io.load_fit_artifact(args.artifact)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    io.write_surface_csv(out / "surface.csv", doc["time_grid"], doc["surface"])
    io.write_eigenfunctions_csv(out / "eigenfunctions.csv", doc["time_grid"],
                                doc["eigenfunctions"])
    io.write_scores_csv(out / "scores.csv", doc["scores"])
    print(f"wrote plot CSVs to {out}")
    return 0


COMMANDS = {
    "simulate": cmd_simulate,
    "fit": cmd_fit,
    "scores": cmd_scores,
    "mise": cmd_mise,
    "export-plots": cmd_export_plots,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except (*INPUT_ERRORS, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OfpcaError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
