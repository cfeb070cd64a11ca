"""File formats: trajectory JSON, fit-artifact JSON, and plot CSVs.

All floats are serialized with 17 significant digits so every value
round-trips exactly, and the writers are deterministic byte for byte
for a fixed input.  A trajectory file loads into one (n, T, L) array,
validated once as a block.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .errors import InvalidObject, SchemaError
from .kernel import ObjectSample
from .spaces import SPACE_TAGS, SpaceKind, project_coordinates


def format_float(x: float) -> str:
    if not np.isfinite(x):
        raise InvalidObject(f"cannot serialize non-finite float {x!r}")
    return f"{float(x):.17g}"


def _emit(obj: Any, parts: list[str], indent: int) -> None:
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            parts.append(pad + "  " + json.dumps(str(key)) + ": ")
            _emit(value, parts, indent + 2)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            parts.append("[]")
            return
        scalars = all(isinstance(x, (int, float, np.floating, np.integer)) for x in items)
        if scalars:
            parts.append("[" + ", ".join(_scalar(x) for x in items) + "]")
            return
        parts.append("[\n")
        for i, value in enumerate(items):
            parts.append(pad + "  ")
            _emit(value, parts, indent + 2)
            parts.append(",\n" if i < len(items) - 1 else "\n")
        parts.append(pad + "]")
    else:
        parts.append(_scalar(obj))


def _scalar(obj: Any) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InvalidObject(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    parts: list[str] = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def write_json(obj: Any, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps(obj))


def _require(doc: dict, field: str, kind=None):
    if field not in doc:
        raise SchemaError("missing required field", field=field)
    value = doc[field]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"expected {kind.__name__}, got {type(value).__name__}", field=field)
    return value


def sample_to_dict(sample: ObjectSample) -> dict:
    return {
        "space": sample.space.tag,
        "dim": sample.space.dim,
        "time_grid": sample.time_grid,
        "trajectories": sample.stacked_values,
    }


def save_trajectory_file(sample: ObjectSample, path) -> None:
    write_json(sample_to_dict(sample), path)


def load_trajectory_file(path, project_on_load: bool = False) -> ObjectSample:
    """Parse and validate a trajectory JSON file.

    With ``project_on_load`` each stored object is first metrically
    projected onto its space's constraint set, repairing invalid input
    instead of rejecting it.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")

    tag = _require(doc, "space", str)
    if tag not in SPACE_TAGS:
        raise SchemaError(f"unknown space {tag!r}", field="space")
    dim = _require(doc, "dim", int)
    space = SpaceKind(tag, dim)

    raw_grid = _require(doc, "time_grid", list)
    grid = np.asarray(raw_grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise SchemaError("time_grid must be a flat list of at least 2 reals", field="time_grid")

    raw_trajs = _require(doc, "trajectories", list)
    if not raw_trajs:
        raise SchemaError("trajectories must be non-empty", field="trajectories")
    values = np.empty((len(raw_trajs), grid.size, space.data_len))
    for i, raw in enumerate(raw_trajs):
        field = f"trajectories[{i}]"
        try:
            traj = np.asarray(raw, dtype=float)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"non-numeric data: {exc}", field=field) from exc
        if traj.shape != values.shape[1:]:
            raise SchemaError(
                f"expected shape ({grid.size}, {space.data_len}), got {traj.shape}",
                field=field,
            )
        if not np.all(np.isfinite(traj)):
            raise SchemaError("values must be finite", field=field)
        values[i] = traj
    if project_on_load:
        values = project_coordinates(space, values)
    try:
        return ObjectSample._from_values(space, grid, values)
    except InvalidObject as exc:
        raise SchemaError(str(exc), field="trajectories") from exc


def fit_to_dict(fit, space: SpaceKind, status: str = "ok", warnings_list=()) -> dict:
    es = fit.eigen
    doc = {
        "status": status,
        "warnings": list(warnings_list),
        "space": space.tag,
        "dim": space.dim,
        "time_grid": fit.surface.time_grid,
        "quad_weights": fit.surface.quad_weights,
        "surface": fit.surface.values,
        "eigenvalues": es.eigenvalues,
        "n_negative_eigenvalues": es.n_negative,
        "clipped": es.clipped,
        "eigenfunctions": es.eigenfunctions,
        "explained_fractions": _explained_list(es),
        "mean": fit.mean.values,
        "scores": fit.scores,
        "distance_curves": fit.distance_curves,
        "skipped_components": list(fit.skipped_components),
    }
    components = fit.object_components
    if components is None:
        doc["object_fpcs"] = None
        doc["object_fpc_column_means"] = None
    else:
        doc["object_fpcs"] = [
            [None if comps is None else comps[i] for comps in components]
            for i in range(fit.scores.shape[0])
        ]
        # compact display helper: uniform barycenter of each component's
        # column of objects; derived output, not an estimation target
        doc["object_fpc_column_means"] = [
            None if comps is None else project_coordinates(space, comps.mean(axis=0))
            for comps in components
        ]
        doc["object_fpc_column_means_note"] = "derived display summary"
    return doc


def _explained_list(es) -> list:
    from .eigen import explained_fraction
    from .errors import DegenerateSpectrum

    out = []
    for j in range(1, es.num_retained + 1):
        try:
            out.append(explained_fraction(es, j))
        except DegenerateSpectrum:
            out.append(0.0)
    return out


def load_fit_artifact(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    for field in ("time_grid", "eigenvalues", "eigenfunctions", "scores", "surface"):
        _require(doc, field)
    return doc


def write_csv(path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_csv_cell(x) for x in row) + "\n")


def _csv_cell(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format_float(float(x))
    return str(x)


def surface_csv_rows(time_grid, values):
    for a, s in enumerate(time_grid):
        for b, t in enumerate(time_grid):
            yield (s, t, values[a][b])


def write_surface_csv(path, time_grid, values) -> None:
    write_csv(path, ["s", "t", "value"], surface_csv_rows(time_grid, values))


def write_eigenfunctions_csv(path, time_grid, eigenfunctions) -> None:
    funs = np.asarray(eigenfunctions, dtype=float)
    header = ["t"] + [f"phi{j + 1}" for j in range(funs.shape[0])]
    rows = ([time_grid[k]] + list(funs[:, k]) for k in range(len(time_grid)))
    write_csv(path, header, rows)


def write_scores_csv(path, scores) -> None:
    scores = np.asarray(scores, dtype=float)
    header = ["i"] + [f"beta{j + 1}" for j in range(scores.shape[1])]
    rows = ([i] + list(scores[i]) for i in range(scores.shape[0]))
    write_csv(path, header, rows)


def write_mise_csv(path, rows: list[dict], n_components: int = 3) -> None:
    header = (
        ["n", "C"]
        + [f"phi{j + 1}" for j in range(n_components)]
        + [f"lambda{j + 1}" for j in range(n_components)]
    )
    table = (
        [row["n"], row["mise_c"]] + list(row["mise_phi"]) + list(row["mise_lambda"])
        for row in rows
    )
    write_csv(path, header, table)
