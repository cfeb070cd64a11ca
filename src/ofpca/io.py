"""File formats: trajectory JSON, fit-artifact JSON, and plot CSVs.

One rule formats every number written: `_numbers` renders an array of
reals with 17 significant digits, so each float round-trips exactly and
each integer below 2**53 prints as an integer; NaN or inf raises
InvalidObject.  The writers are deterministic byte for byte for a fixed
input.  JSON files are read as UTF-8 text in 1 MiB chunks, never whole,
and each element of a trajectory file's `trajectories` becomes a float
array as soon as it is decoded, so its parsed document is never held
whole either; text that is not UTF-8, not JSON or nested too deep is a
SchemaError that gives the offset of the fault in the file.  A
trajectory file loads into one (n, T, L) array, validated once as a
block.  A fit artifact read back for `export-plots` has its plotted
fields checked for type and shape; a malformed one is a SchemaError.
"""

from __future__ import annotations

import json
import re
from typing import Any

import numpy as np

from .eigen import explained_fraction
from .errors import DegenerateSpectrum, InvalidObject, SchemaError
from .kernel import ObjectSample
from .spaces import SPACE_TAGS, SpaceKind, project_coordinates, validate_block

_NUMBER = (int, float, np.integer, np.floating)


def _numbers(values, sep: str) -> str:
    """The reals of the flat ``values`` with 17 significant digits, joined by ``sep``."""
    arr = np.asarray(values, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        raise InvalidObject(f"cannot serialize non-finite float {float(arr[~finite][0])!r}")
    return sep.join(["%.17g"] * arr.size) % tuple(arr.tolist())


def format_float(x: float) -> str:
    return _numbers([x], "")


def _emit(obj: Any, parts: list[str], indent: int) -> None:
    if isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind in "fiu":
        parts.append("[" + _numbers(obj, ", ") + "]")
    elif isinstance(obj, (list, tuple, np.ndarray)) and all(isinstance(x, _NUMBER) for x in obj):
        # a flat run, inline: bools one by one as true/false, numbers by the one rule
        if any(isinstance(x, bool) for x in obj):
            parts.append("[" + ", ".join(map(_scalar, obj)) + "]")
        else:
            parts.append("[" + _numbers(obj, ", ") + "]")
    elif isinstance(obj, (dict, list, tuple, np.ndarray)) and len(obj):
        keyed = isinstance(obj, dict)
        pad = " " * indent
        parts.append("{" if keyed else "[")
        for i, (key, value) in enumerate(obj.items() if keyed else enumerate(obj)):
            parts.append(("," if i else "") + "\n" + pad + "  ")
            if keyed:
                parts.append(json.dumps(str(key)) + ": ")
            _emit(value, parts, indent + 2)
        parts.append("\n" + pad + ("}" if keyed else "]"))
    elif isinstance(obj, dict):
        parts.append("{}")
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
        return format_float(obj)
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


#: Characters read from a JSON file at a time.
_CHUNK = 1 << 20
_SPACE = re.compile(r"[ \t\n\r]*")
_DECODE = json.JSONDecoder().raw_decode


class _JsonChunks:
    """A JSON file read ``_CHUNK`` characters at a time; only the text from
    the cursor on is held.  Errors give their offset in the file."""

    def __init__(self, fh):
        self.fh, self.text, self.pos, self.base, self.eof = fh, "", 0, 0, False

    def invalid(self, message: str, pos: int) -> SchemaError:
        return SchemaError(f"not valid JSON: {message} at char {self.base + pos}")

    def more(self) -> bool:
        """Read on, at least as much as is held, so that a value longer than
        a chunk is decoded O(log) times; False at end of file."""
        if self.eof:
            return False
        try:
            chunk = self.fh.read(max(_CHUNK, len(self.text) - self.pos))
        except UnicodeDecodeError as exc:
            at = self.fh.buffer.tell() - len(exc.object) + exc.start
            raise SchemaError(f"not valid JSON: not UTF-8 ({exc.reason}) at byte {at}") from exc
        self.base, self.text = self.base + self.pos, self.text[self.pos:] + chunk
        self.pos, self.eof = 0, not chunk
        return not self.eof

    def peek(self) -> str:
        """The next character after whitespace; "" at end of file."""
        while True:
            self.pos = _SPACE.match(self.text, self.pos).end()
            if self.pos < len(self.text) or not self.more():
                return self.text[self.pos:self.pos + 1]

    def take(self, chars: str, what: str) -> str:
        char = self.peek()
        if not char or char not in chars:
            raise self.invalid(f"Expecting {what}", self.pos)
        self.pos += 1
        return char

    def items(self, close: str):
        """Yield before each element of the array or object just opened."""
        if self.peek() == close:
            self.pos += 1
            return
        yield
        while self.take("," + close, "',' delimiter") == ",":
            yield

    def value(self, follow: str = ",]}"):
        """Decode the next value.  Text cut inside a value can still decode
        (``1.`` of ``1.5``), so the value counts only once one of
        ``follow`` or the end of file comes after it."""
        self.peek()
        while True:
            try:
                obj, end = _DECODE(self.text, self.pos)
            except (ValueError, RecursionError) as exc:
                if self.more():
                    continue
                raise self.invalid(getattr(exc, "msg", str(exc)),
                                   getattr(exc, "pos", self.pos)) from exc
            after = _SPACE.match(self.text, end).end()
            if after < len(self.text) and self.text[after] in follow or not self.more():
                self.pos = end
                return obj


def _read_object(path, stream_key: str | None = None, convert=None) -> dict:
    """The top-level object of a JSON file.  An array under ``stream_key``
    becomes the list of ``convert(i, element)``, each called as soon as
    its element is decoded."""
    doc = {}
    with open(path, encoding="utf-8", newline="") as fh:
        js = _JsonChunks(fh)
        if js.peek() != "{":
            js.value()
            raise SchemaError("top level must be an object")
        js.pos += 1
        for _ in js.items("}"):
            if js.peek() != '"':
                raise js.invalid("Expecting property name enclosed in double quotes", js.pos)
            key = js.value(":")
            js.take(":", "':' delimiter")
            if key == stream_key and js.peek() == "[":
                js.pos += 1
                doc[key] = [convert(i, js.value()) for i, _ in enumerate(js.items("]"))]
            else:
                doc[key] = js.value()
        if js.peek():
            raise js.invalid("Extra data", js.pos)
    return doc


def _require(doc: dict, field: str, kind=None):
    if field not in doc:
        raise SchemaError("missing required field", field=field)
    value = doc[field]
    # bool is a subclass of int, but true is not a dimension
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise SchemaError(f"expected {kind.__name__}, got {type(value).__name__}", field=field)
    return value


def _real_array(value, field: str, shape: tuple) -> np.ndarray:
    """``value`` as a finite float array of ``shape``; a "*" matches any length."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"non-numeric data: {exc}", field=field) from exc
    if arr.ndim != len(shape) or any(w != g for w, g in zip(shape, arr.shape) if w != "*"):
        want = ", ".join(map(str, shape))
        raise SchemaError(f"expected shape ({want}), got {arr.shape}", field=field)
    if not np.isfinite(arr).all():
        raise SchemaError("values must be finite", field=field)
    return arr


def _time_grid(value) -> np.ndarray:
    grid = _real_array(value, "time_grid", ("*",))
    if grid.size < 2:
        raise SchemaError("time_grid must be a flat list of at least 2 reals", field="time_grid")
    return grid


def save_trajectory_file(sample: ObjectSample, path) -> None:
    doc = {"space": sample.space.tag, "dim": sample.space.dim,
           "time_grid": sample.time_grid, "trajectories": sample.stacked_values}
    write_json(doc, path)


def load_trajectory_file(path, project_on_load: bool = False) -> ObjectSample:
    """Parse and validate a trajectory JSON file.

    With ``project_on_load`` each stored object is first metrically
    projected onto its space's constraint set, repairing invalid input
    instead of rejecting it.
    """
    doc = _read_object(path, "trajectories",
                       lambda i, raw: _real_array(raw, f"trajectories[{i}]", ("*", "*")))
    tag = _require(doc, "space", str)
    if tag not in SPACE_TAGS:
        raise SchemaError(f"unknown space {tag!r}", field="space")
    dim = _require(doc, "dim", int)
    space = SpaceKind(tag, dim)

    grid = _time_grid(_require(doc, "time_grid"))
    trajs = _require(doc, "trajectories", list)
    if not trajs:
        raise SchemaError("trajectories must be non-empty", field="trajectories")
    shape = (grid.size, space.data_len)
    values = np.stack([_real_array(raw, f"trajectories[{i}]", shape)
                       for i, raw in enumerate(trajs)])
    del doc, trajs  # free the per-trajectory arrays before validation allocates
    if project_on_load:
        values = project_coordinates(space, values)
    try:
        return ObjectSample._from_values(space, grid, values)
    except InvalidObject as exc:
        raise SchemaError(str(exc), field=_rejected_field(space, values)) from exc


def _rejected_field(space: SpaceKind, values: np.ndarray) -> str:
    """The field that the block validation of a loaded sample rejected:
    the first trajectory whose objects are invalid, else the time grid."""
    for i, traj in enumerate(values):
        try:
            validate_block(space, traj)
        except InvalidObject:
            return f"trajectories[{i}]"
    return "time_grid"


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
        doc["object_fpcs"] = doc["object_fpc_column_means"] = None
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
    try:
        return [explained_fraction(es, j) for j in range(1, es.num_retained + 1)]
    except DegenerateSpectrum:
        return [0.0] * es.num_retained


def load_fit_artifact(path) -> dict:
    """A fit artifact whose plotted fields are read as float arrays:
    time_grid (T,), surface (T, T), eigenfunctions (K, T), scores (n, K)."""
    doc = _read_object(path)
    for field in ("time_grid", "eigenvalues", "eigenfunctions", "scores", "surface"):
        _require(doc, field)
    grid = doc["time_grid"] = _time_grid(doc["time_grid"])
    doc["surface"] = _real_array(doc["surface"], "surface", (grid.size, grid.size))
    funs = doc["eigenfunctions"] = _real_array(doc["eigenfunctions"], "eigenfunctions",
                                               ("*", grid.size))
    doc["scores"] = _real_array(doc["scores"], "scores", ("*", funs.shape[0]))
    return doc


def write_csv(path, header: list[str], table) -> None:
    """``header``, then one line per row of the 2-d numeric ``table``."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in np.asarray(table, dtype=float):
            fh.write(_numbers(row, ",") + "\n")


def write_surface_csv(path, time_grid, values) -> None:
    grid = np.asarray(time_grid, dtype=float)
    T = grid.size
    table = np.column_stack([np.repeat(grid, T), np.tile(grid, T), np.ravel(values)])
    write_csv(path, ["s", "t", "value"], table)


def write_eigenfunctions_csv(path, time_grid, eigenfunctions) -> None:
    funs = np.asarray(eigenfunctions, dtype=float)
    header = ["t"] + [f"phi{j + 1}" for j in range(funs.shape[0])]
    write_csv(path, header, np.column_stack([time_grid, funs.T]))


def write_scores_csv(path, scores) -> None:
    scores = np.asarray(scores, dtype=float)
    header = ["i"] + [f"beta{j + 1}" for j in range(scores.shape[1])]
    write_csv(path, header, np.column_stack([np.arange(scores.shape[0]), scores]))


def write_mise_csv(path, rows: list[dict], n_components: int = 3) -> None:
    header = ["n", "C"] + [f"{name}{j + 1}" for name in ("phi", "lambda")
                           for j in range(n_components)]
    keys = ("n", "mise_c", "mise_phi", "mise_lambda")
    write_csv(path, header, np.column_stack([[row[key] for row in rows] for key in keys]))
