"""Layer spans taken from outside the program.

`Tracer.installed()` replaces, for the duration of a `with` block, the
module attributes through which `ofpca.cli`, `ofpca.fpca`, `ofpca.sim`
and `ofpca.io` call each other with wrappers that record one span per
call, and restores them afterwards.  No file of ofpca changes.  Spans
stay in memory; `summarize` turns one op's spans into per-layer busy
time, self time, call counts and work counts.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


def _file_size(index):
    return lambda args, result: os.path.getsize(args[index])


def _sample_size(args, result):
    return args[0].n


#: (module, attribute, span name, work counter).  A layer called from two
#: modules is wrapped at both attributes under one span name.  The work
#: counter maps (positional args, result) to bytes or trajectories.
WRAPS = (
    ("ofpca.cli", "main", "cli.main", None),
    ("ofpca.cli", "fit_fpca", "fpca.fit_fpca", None),
    ("ofpca.cli", "simulate", "sim.simulate", _sample_size),
    ("ofpca.cli", "mise_report", "sim.mise_report", None),
    ("ofpca.io", "load_trajectory_file", "io.load_trajectory_file", _file_size(0)),
    ("ofpca.io", "write_json", "io.write_json", _file_size(1)),
    ("ofpca.io", "dumps", "io.dumps", lambda args, result: len(result)),
    ("ofpca.io", "write_csv", "io.write_csv", _file_size(0)),
    ("ofpca.fpca", "estimate_cov_surface", "kernel.estimate_cov_surface", _sample_size),
    ("ofpca.fpca", "eigendecompose", "eigen.eigendecompose", None),
    ("ofpca.fpca", "frechet_mean_trajectory", "fpca.frechet_mean_trajectory", None),
    ("ofpca.fpca", "distance_curves", "fpca.distance_curves", None),
    ("ofpca.sim", "simulate", "sim.simulate", _sample_size),
    ("ofpca.sim", "estimate_cov_surface", "kernel.estimate_cov_surface", _sample_size),
    ("ofpca.sim", "eigendecompose", "eigen.eigendecompose", None),
)


@dataclass(slots=True)
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    work: float | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    def _wrap(self, name, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, self._open[-1] if self._open else None, time.perf_counter())
            self.spans.append(span)
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
            if work is not None:
                try:
                    span.work = work(args, result)
                except (IndexError, AttributeError, TypeError, OSError):
                    span.work = None  # the call signature changed; work is unknown
            return result

        return wrapper

    @contextmanager
    def installed(self):
        saved = []
        try:
            for module, attr, name, work in WRAPS:
                target = sys.modules[module]
                fn = getattr(target, attr, None)
                if fn is None:
                    print(f"warning: {module}.{attr} is gone; span {name} not recorded",
                          file=sys.stderr)
                    continue
                saved.append((target, attr, fn))
                setattr(target, attr, self._wrap(name, fn, work))
            yield self
        finally:
            for target, attr, fn in reversed(saved):
                setattr(target, attr, fn)


@dataclass
class LayerTotals:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    work: float | None = 0.0


def summarize(spans: list[Span]) -> dict[str, LayerTotals]:
    """Per span name: calls, busy seconds, self seconds (busy minus the
    time covered by child spans) and summed work (None if any call's
    work is unknown)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, LayerTotals] = {}
    for span, children in zip(spans, child_time):
        layer = totals.setdefault(span.name, LayerTotals())
        duration = span.end - span.start
        layer.calls += 1
        layer.busy += duration
        layer.self_time += duration - children
        layer.work = None if layer.work is None or span.work is None else layer.work + span.work
    return totals
