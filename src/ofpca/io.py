"""File formats: trajectory JSON, fit-artifact JSON, and plot CSVs.

One rule formats every number written: `_numbers` renders an array of
reals with 17 significant digits, so each float round-trips exactly and
each integer below 2**53 prints as an integer; NaN or inf raises
InvalidObject.  The writers are deterministic byte for byte for a fixed
input.  Trajectory files are read as UTF-8 text in 1 MiB chunks, never
whole, and each element of a file's `trajectories` is copied into one
(n, T, L) float array as soon as it is decoded, so neither the parsed
document nor a list of per-trajectory arrays is ever held whole:
a load peaks at the sample plus that array's growth as it fills.  Text
that is not UTF-8, not JSON or nested too deep is a SchemaError that
gives the offset of the fault in the file.  The filled array is
validated once as a block.  The fit artifact is written, never read:
its plot CSVs are written with it.
"""

from __future__ import annotations

import json
import re
from typing import Any

import numpy as np

from .errors import InvalidObject, SchemaError, TooFewTrajectories
from .kernel import ObjectSample, _check_time_grid
from .spaces import SPACE_TAGS, SpaceKind, project_coordinates, validate_block

_NUMBER = (int, float, np.integer, np.floating)


def _numbers(values, sep: str) -> str:
    """The reals of the flat ``values`` with 17 significant digits, joined by ``sep``."""
    arr = np.asarray(values, dtype=float)
    finite = np.isfinite(arr)
    if not finite.all():
        raise InvalidObject(f"cannot serialize non-finite float {float(arr[~finite][0])!r}")
    return sep.join(["%.17g"] * arr.size) % tuple(arr.tolist())


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
    if isinstance(obj, _NUMBER):
        return _numbers([obj], "")
    if isinstance(obj, str):
        return json.dumps(obj)
    raise InvalidObject(f"cannot serialize {type(obj).__name__}")


def dumps(obj: Any) -> str:
    parts: list[str] = []
    _emit(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def write_json(obj: Any, path) -> None:
    text = dumps(obj)  # a non-finite value raises before the file is opened
    with open(path, "w") as fh:
        fh.write(text)


#: Characters read from a JSON file at a time.
_CHUNK = 1 << 20
_SPACE = re.compile(r"[ \t\n\r]*")
_DECODE = json.JSONDecoder().raw_decode


class _JsonChunks:
    """A JSON file read ``_CHUNK`` characters at a time; only the text from
    the cursor on is held.  Errors give their offset in the file.  ``last``
    is the length of the last decoded value."""

    def __init__(self, fh):
        self.fh, self.text, self.pos, self.base, self.eof, self.last = fh, "", 0, 0, False, 0

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
        ``follow`` or the end of file comes after it.  Text no longer than
        the last value is read on first, as the next value (an element
        like the last) is likely cut in it and would be decoded twice."""
        self.peek()
        while len(self.text) - self.pos <= self.last and self.more():
            pass
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
                self.pos, self.last = end, end - self.pos
                return obj


def _read_object(path) -> dict:
    """The top-level object of a trajectory file, with its ``trajectories``
    array, if it is one, as the ``_fill_trajectories`` of its elements,
    each yielded as soon as it is decoded."""
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
            if key == "trajectories" and js.peek() == "[":
                js.pos += 1
                doc[key] = _fill_trajectories(js.value() for _ in js.items("]"))
            else:
                doc[key] = js.value()
        if js.peek():
            raise js.invalid("Extra data", js.pos)
    return doc


def _require(doc: dict, field: str, kind=None):
    if field not in doc:
        raise SchemaError("missing required field", field=field)
    value = doc[field]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"expected {kind.__name__}, got {type(value).__name__}", field=field)
    return value


def _real_array(value, field: str, shape: tuple) -> np.ndarray:
    """``value`` as a finite float array of ``shape``; a "*" matches any length."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"non-numeric data: {exc}", field=field) from exc
    _check_shape(arr.shape, field, shape)
    if not np.isfinite(arr).all():
        raise SchemaError("values must be finite", field=field)
    return arr


def _check_shape(got: tuple, field: str, shape: tuple) -> None:
    if len(got) != len(shape) or any(w != g for w, g in zip(shape, got) if w != "*"):
        want = ", ".join(map(str, shape))
        raise SchemaError(f"expected shape ({want}), got {got}", field=field)


def save_trajectory_file(sample: ObjectSample, path) -> None:
    doc = {"space": sample.space.tag, "dim": sample.space.dim,
           "time_grid": sample.time_grid, "trajectories": sample.stacked_values}
    write_json(doc, path)


def _fill_trajectories(elements) -> tuple[np.ndarray | None, tuple[int, tuple] | None]:
    """A streamed ``trajectories`` array as ``(values, misfit)``.  Each
    element is a finite 2-d float array, copied as it is decoded into
    ``values`` (n, T, L), which holds the elements up to the first whose
    shape is not element 0's; ``misfit`` is that element's index and
    shape, or None.  Elements from the misfit on are still checked, but
    not kept.  ``values`` is None when the array is empty.  JSON decodes
    to no tuple, so the tuple tells a streamed array from a raw value."""
    arrays = (_real_array(raw, f"trajectories[{i}]", ("*", "*"))
              for i, raw in enumerate(elements))
    first = next(arrays, None)
    if first is None:
        return None, None
    misfit = None

    def fitting():
        nonlocal misfit
        yield first
        for i, arr in enumerate(arrays, 1):
            if misfit is None and arr.shape != first.shape:
                misfit = i, arr.shape
            if misfit is None:
                yield arr

    # a first element with no values gives fromiter no item size, and it
    # never has the (T >= 2, L >= 1) shape that a sample needs
    values = (np.fromiter(fitting(), np.dtype((float, first.shape))) if first.size
              else np.array(list(fitting())))
    return values, misfit


def load_trajectory_file(path, project_on_load: bool = False) -> ObjectSample:
    """Parse and validate a trajectory JSON file.

    With ``project_on_load`` each stored object is first metrically
    projected onto its space's constraint set, repairing invalid input
    instead of rejecting it.
    """
    doc = _read_object(path)
    tag = _require(doc, "space", str)
    if tag not in SPACE_TAGS:
        raise SchemaError(f"unknown space {tag!r}", field="space")
    try:
        space = SpaceKind(tag, _require(doc, "dim"))
    except InvalidObject as exc:
        raise SchemaError(str(exc), field="dim") from exc

    grid = _real_array(_require(doc, "time_grid"), "time_grid", ("*",))
    try:
        grid = _check_time_grid(grid)
    except InvalidObject as exc:
        raise SchemaError(str(exc), field="time_grid") from exc
    trajs = doc.get("trajectories")
    if not isinstance(trajs, tuple):
        _require(doc, "trajectories", list)  # missing, or not an array: raises
    values, misfit = trajs
    if values is None:
        raise SchemaError("trajectories must be non-empty", field="trajectories")
    del doc, trajs  # ``values`` alone holds the sample, so a repair frees it
    shape = (grid.size, space.data_len)
    _check_shape(values.shape[1:], "trajectories[0]", shape)
    if misfit is not None:
        _check_shape(misfit[1], f"trajectories[{misfit[0]}]", shape)
    if project_on_load:
        values = project_coordinates(space, values)
    grid.flags.writeable = values.flags.writeable = False
    try:
        return ObjectSample(space, grid, values)
    except (InvalidObject, TooFewTrajectories) as exc:
        # the block check reports one fault of the whole sample; name the
        # first invalid trajectory with the fault of its own check
        for i, traj in enumerate(values):
            try:
                validate_block(space, traj)
            except InvalidObject as own:
                raise SchemaError(str(own), field=f"trajectories[{i}]") from exc
        raise SchemaError(str(exc), field="trajectories") from exc


def fit_to_dict(fit, warnings_list=()) -> dict:
    """The fit artifact; its status is "partial" when an object component was skipped."""
    es, space = fit.eigen, fit.mean.space
    doc = {
        "status": "partial" if fit.skipped_components else "ok",
        "warnings": list(warnings_list),
        "space": space.tag,
        "dim": space.dim,
        "time_grid": fit.surface.time_grid,
        "quad_weights": fit.surface.quad_weights,
        "surface": fit.surface.values,
        "eigenvalues": es.eigenvalues,
        "eigenfunctions": es.eigenfunctions,
        "explained_fractions": es.explained_fractions,
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
        # column of objects, an average that stays in the convex space;
        # derived output, not an estimation target
        doc["object_fpc_column_means"] = [
            None if comps is None else comps.mean(axis=0) for comps in components
        ]
        doc["object_fpc_column_means_note"] = "derived display summary"
    return doc


def write_csv(path, header: list[str], table) -> None:
    """``header``, then one line per row of the 2-d numeric ``table``; a
    value that cannot be written raises before the file is opened."""
    lines = [",".join(header)]
    lines.extend(_numbers(row, ",") for row in np.asarray(table, dtype=float))
    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


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


def write_mise_csv(path, rows: list[dict]) -> None:
    header = ["n", "C"] + [f"{name}{j + 1}" for name in ("phi", "lambda")
                           for j in range(len(rows[0]["mise_phi"]))]
    keys = ("n", "mise_c", "mise_phi", "mise_lambda")
    write_csv(path, header, np.column_stack([[row[key] for row in rows] for key in keys]))
