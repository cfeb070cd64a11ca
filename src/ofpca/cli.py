"""Batch command-line interface.

Commands: simulate, fit, mise.  Every command is pure given its input
file, flags, and seed: re-running writes identical bytes, and the BLAS
thread count never changes results.  No command repeats another: ``fit``
writes the scores and plot CSVs next to its ``fit.json``.

Exit codes: 0 success (including partial fits, which set a status
field), 2 an ``errors.InputError`` or an unreadable input or unwritable
output path, 3 any other library or linear-algebra error.  Flags are
checked by the library calls that use them (``--components`` outside
[1, T], ``--explained-fraction`` outside (0, 1] and a negative
``--seed`` exit 2).  An option that several commands take is declared
once, in ``_SHARED_OPTIONS``.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings
from pathlib import Path

import numpy as np

from . import io
from .errors import InputError, OfpcaError, SchemaError
from .fpca import fit_fpca
from .sim import DistributionSimConfig, NetworkSimConfig, mise_report, simulate
from .spaces import SPACE_TAGS

_SHARED_OPTIONS = {
    "--design": dict(choices=("dist", "net"), required=True),
    "--T": dict(type=int, default=51, dest="n_times", help="time-grid size"),
    "--m": dict(type=int, default=100, help="quantile-grid size (dist only)"),
    "--seed": dict(type=int, default=0),
}


def _add_shared(parser, *flags):
    for flag in flags:
        parser.add_argument(flag, **_SHARED_OPTIONS[flag])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="ofpca", description="Functional PCA for metric-space-valued curves")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a trajectory file")
    p_sim.set_defaults(run=cmd_simulate)
    _add_shared(p_sim, "--design")
    p_sim.add_argument("--n", type=int, required=True, help="sample size")
    _add_shared(p_sim, "--T", "--m", "--seed")
    p_sim.add_argument("--out", required=True, help="output JSON path")

    p_fit = sub.add_parser("fit", help="fit a trajectory file")
    p_fit.set_defaults(run=cmd_fit)
    p_fit.add_argument("input", help="trajectory JSON file")
    p_fit.add_argument("--space", choices=SPACE_TAGS, default=None,
                       help="assert the input file's space (guards against mixing files)")
    p_fit.add_argument("--components", type=int, default=4, metavar="K",
                       help="number of eigencomponents to retain, at most T; "
                            "components above the surface's numerical rank are "
                            "dropped with a warning (default 4)")
    p_fit.add_argument("--explained-fraction", type=float, default=None, metavar="F",
                       help="keep the smallest K whose cumulative explained "
                            "fraction reaches F, in (0, 1] (capped by --components)")
    p_fit.add_argument("--fpc-objects", action=argparse.BooleanOptionalAction, default=True,
                       help="compute per-trajectory object components (on by default)")
    p_fit.add_argument("--project-on-load", action="store_true",
                       help="repair invalid objects by metric projection on load")
    p_fit.add_argument("--out", required=True, help="output directory")

    p_mise = sub.add_parser("mise", help="Monte-Carlo error table for a design")
    p_mise.set_defaults(run=cmd_mise)
    _add_shared(p_mise, "--design")
    p_mise.add_argument("--n", default="25,50,100",
                        help="comma-separated sample sizes (default 25,50,100)")
    p_mise.add_argument("--runs", type=int, default=100)
    _add_shared(p_mise, "--T", "--m", "--seed")
    p_mise.add_argument("--components", type=int, default=3)
    p_mise.add_argument("--truth-debug", action="store_true",
                        help="feed the true surface into the eigen step (all errors ~ 0)")
    p_mise.add_argument("--out", required=True, help="output CSV path")
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


def cmd_fit(args) -> int:
    sample = io.load_trajectory_file(args.input, project_on_load=args.project_on_load)
    if args.space is not None and sample.space.tag != args.space:
        raise SchemaError(f"file holds {sample.space.tag!r} objects, "
                          f"--space says {args.space!r}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fit = fit_fpca(sample, n_components=args.components, fpc_objects=args.fpc_objects,
                       explained_fraction=args.explained_fraction)
    del sample  # the fit does not hold it, so the outputs are built without it
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    doc = io.fit_to_dict(fit, [str(w.message) for w in caught])
    io.write_json(doc, out / "fit.json")
    io.write_surface_csv(out / "surface.csv", doc["time_grid"], doc["surface"])
    io.write_eigenfunctions_csv(out / "eigenfunctions.csv", doc["time_grid"],
                                doc["eigenfunctions"])
    io.write_scores_csv(out / "scores.csv", doc["scores"])
    print(f"wrote {out / 'fit.json'} (status: {doc['status']})")
    return 0


def cmd_mise(args) -> int:
    try:
        n_list = [int(x) for x in str(args.n).split(",") if x.strip()]
    except ValueError:
        raise SchemaError(f"--n must be comma-separated integers, got {args.n!r}")
    if not n_list:
        raise SchemaError("--n selected no sample sizes")
    rows = [mise_report(_make_config(args, n), runs=args.runs, n_components=args.components,
                        truth_debug=args.truth_debug) for n in n_list]
    io.write_mise_csv(args.out, rows)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OfpcaError, np.linalg.LinAlgError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
