"""Serialization: float round-trips, schemas, file round-trips."""

import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ofpca import (
    ObjectSample,
    SchemaError,
    SpaceKind,
)
from ofpca import io as ofio

from oracles import traced_peak


class TestFloats:
    def test_seventeen_digit_round_trip(self):
        tricky = [0.1, 1.0 / 3.0, 1e-300, 1e300, -2.5e-17, np.pi, 12.0,
                  np.nextafter(1.0, 2.0), 5e-324]
        for x in tricky:
            assert float(ofio._numbers([x], "")) == x

    def test_rejects_non_finite(self):
        from ofpca import InvalidObject
        with pytest.raises(InvalidObject):
            ofio._numbers([float("nan")], "")

    def test_json_output_parses(self):
        doc = {"a": [1.5, 2, None], "b": {"c": "x"}, "flag": True, "empty": []}
        parsed = json.loads(ofio.dumps(doc))
        assert parsed == {"a": [1.5, 2, None], "b": {"c": "x"}, "flag": True, "empty": []}


def small_sample():
    grid = np.linspace(0.0, 1.0, 4)
    space = SpaceKind("quantile", 3)
    rng = np.random.default_rng(0)
    vals = np.sort(rng.normal(size=(3, 4, 3)), axis=2)
    return ObjectSample(space, grid, vals)


class TestTrajectoryFile:
    def test_round_trip_is_lossless(self, tmp_path):
        sample = small_sample()
        path = tmp_path / "sample.json"
        ofio.save_trajectory_file(sample, path)
        loaded = ofio.load_trajectory_file(path)
        assert loaded.space == sample.space
        assert np.array_equal(loaded.time_grid, sample.time_grid)
        assert np.array_equal(loaded.stacked_values, sample.stacked_values)

    def test_sympsd_round_trip_is_bit_equal(self, tmp_path):
        # rank-2 4x4 matrices: round-off negative eigenvalues are admitted
        rng = np.random.default_rng(2)
        a = rng.normal(size=(20, 11, 4, 2))
        values = (a @ np.swapaxes(a, -1, -2)).reshape(20, 11, 16)
        sample = ObjectSample(SpaceKind("sympsd", 4), np.linspace(0, 1, 11), values)
        path = tmp_path / "psd.json"
        ofio.save_trajectory_file(sample, path)
        loaded = ofio.load_trajectory_file(path)
        assert loaded.stacked_values.tobytes() == sample.stacked_values.tobytes()

    def test_write_is_deterministic(self, tmp_path):
        sample = small_sample()
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ofio.save_trajectory_file(sample, a)
        ofio.save_trajectory_file(sample, b)
        assert a.read_bytes() == b.read_bytes()

    def test_missing_field_diagnostic(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"space": "scalar", "dim": 1}')
        with pytest.raises(SchemaError, match="time_grid"):
            ofio.load_trajectory_file(path)

    @pytest.mark.parametrize("dim", ["0", "-2", "true", "2.5", "2.0", '"2"', "null", "[2]",
                                     "NaN", "Infinity"])
    def test_bad_dim_is_named(self, tmp_path, dim):
        # the header's dim goes through SpaceKind's count rule; its fault
        # names the field, as every other header fault does
        path = tmp_path / "bad.json"
        path.write_text('{"space": "quantile", "dim": %s, "time_grid": [0, 1], '
                        '"trajectories": [[[0, 1], [0, 1]], [[0, 1], [0, 2]]]}' % dim)
        with pytest.raises(SchemaError, match="^dim: dim must be an integer >= 1") as exc:
            ofio.load_trajectory_file(path)
        assert exc.value.field == "dim"

    def test_ragged_trajectory_diagnostic(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"space": "scalar", "dim": 1, "time_grid": [0.0, 1.0],
               "trajectories": [[[0.0], [1.0, 2.0]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"trajectories\[0\]"):
            ofio.load_trajectory_file(path)

    def test_invalid_object_diagnostic(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"space": "quantile", "dim": 2, "time_grid": [0.0, 1.0],
               "trajectories": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"trajectories\[0\]: .*non-decreasing"):
            ofio.load_trajectory_file(path)

    def test_later_invalid_object_is_named(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"space": "quantile", "dim": 2, "time_grid": [0.0, 1.0],
               "trajectories": [[[0.0, 1.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]],
                                [[0.0, 1.0], [1.0, 0.0]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match=r"trajectories\[2\]: .*non-decreasing"):
            ofio.load_trajectory_file(path)

    @pytest.mark.parametrize("first, message", [
        ("diagonal", "adjacency diagonal not zero (max 0.5)"),
        ("asymmetric", "matrix not symmetric (max asymmetry 0.5)"),
    ], ids=["diagonal-first", "asymmetric-first"])
    def test_named_trajectory_reports_its_own_fault(self, tmp_path, first, message):
        # the whole-sample check meets the asymmetry before any diagonal,
        # so its message may belong to a later trajectory than the named one
        valid, diagonal, asymmetric = np.zeros((3, 3, 3))
        diagonal[1, 1] = 0.5
        asymmetric[0, 1] = 0.5
        bad = [diagonal, asymmetric] if first == "diagonal" else [asymmetric, diagonal]
        doc = {"space": "adjacency", "dim": 3, "time_grid": [0.0, 0.5, 1.0],
               "trajectories": [[mat.ravel().tolist()] * 3 for mat in [valid, *bad]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as exc:
            ofio.load_trajectory_file(path)
        assert str(exc.value) == f"trajectories[1]: {message}"

    def test_bad_time_grid_is_named(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"space": "scalar", "dim": 1, "time_grid": [0.0, 0.6, 0.5],
               "trajectories": [[[0.0], [1.0], [2.0]], [[1.0], [1.0], [0.0]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="time_grid: .*increasing"):
            ofio.load_trajectory_file(path)
        doc["time_grid"] = ["a", "b", "c"]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="time_grid: non-numeric"):
            ofio.load_trajectory_file(path)

    def test_later_misshapen_trajectory_is_named_after_the_time_grid(self, tmp_path):
        # the shape of a trajectory is checked against the time grid, so a
        # bad grid is reported first; then the first misshapen one is named
        path = tmp_path / "bad.json"
        ok, wide = [[0.0, 1.0]] * 3, [[0.0, 1.0, 2.0]] * 3
        doc = {"space": "quantile", "dim": 2, "time_grid": [0.0, 0.5, 0.4],
               "trajectories": [ok, ok, wide, ok, [[0.0, 1.0]] * 2]}
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="time_grid: .*increasing"):
            ofio.load_trajectory_file(path)
        doc["time_grid"] = [0.0, 0.5, 1.0]
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError) as exc:
            ofio.load_trajectory_file(path)
        assert str(exc.value) == "trajectories[2]: expected shape (3, 2), got (3, 3)"

    def test_bad_time_grid_is_named_before_an_invalid_object(self, tmp_path):
        path = tmp_path / "bad.json"
        ok = [[0.0, 1.0]] * 3
        doc = {"space": "quantile", "dim": 2, "time_grid": [0.0, 0.5, 0.4],
               "trajectories": [ok, ok, [[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]]]}
        path.write_text(json.dumps(doc))
        with pytest.raises(SchemaError, match="time_grid: .*increasing") as exc:
            ofio.load_trajectory_file(path)
        assert exc.value.field == "time_grid"

    def test_project_on_load_repairs(self, tmp_path):
        path = tmp_path / "bad.json"
        doc = {"space": "quantile", "dim": 2, "time_grid": [0.0, 1.0],
               "trajectories": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [0.0, 1.0]]]}
        path.write_text(json.dumps(doc))
        sample = ofio.load_trajectory_file(path, project_on_load=True)
        assert np.allclose(sample.trajectories[0].values[0], [0.5, 0.5])

    def test_bad_space_tag(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"space": "torus", "dim": 2, "time_grid": [0, 1], "trajectories": []}')
        with pytest.raises(SchemaError, match="space"):
            ofio.load_trajectory_file(path)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(SchemaError, match="JSON"):
            ofio.load_trajectory_file(path)

    def test_integer_beyond_float_range_is_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"space": "scalar", "dim": 1, "time_grid": [0, 1], '
                        '"trajectories": [[[0], [1]], [[1%s], [0]]]}' % ("0" * 400))
        with pytest.raises(SchemaError, match=r"trajectories\[1\]: non-numeric data"):
            ofio.load_trajectory_file(path)

    def test_not_utf8_names_its_byte(self, tmp_path):
        # two-byte characters ahead of the bad byte, across several reads
        raw = '{"space": "scalar", "note": "'.encode() + "é".encode() * 20000 + b"\xff\"}"
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        at = raw.index(b"\xff")
        with pytest.raises(SchemaError, match=f"not UTF-8 .* at byte {at}$"):
            ofio.load_trajectory_file(path)

    @pytest.mark.parametrize("n", [200, 257])
    def test_load_fills_one_array(self, tmp_path, n):
        # neither the file's text, its parsed document nor a list of the
        # element arrays is held whole: the one (n, T, L) array, grown as
        # it fills, is the peak
        quantiles = np.sort(np.random.default_rng(4).normal(size=(51, 100)), axis=1)
        path = tmp_path / "sample.json"
        trajectories = ", ".join([ofio.dumps(quantiles)] * n)
        path.write_text('{"space": "quantile", "dim": 100, "time_grid": %s, "trajectories": [%s]}'
                        % (ofio.dumps(np.linspace(0, 1, 51)), trajectories))
        sample, peak = traced_peak(ofio.load_trajectory_file, path)
        assert sample.stacked_values.shape == (n, 51, 100)
        assert peak <= 1.8 * sample.stacked_values.nbytes


# Small trajectory files for the chunked reader, each with one trait a
# chunk boundary can cut.
CHUNKED_TEXTS = {
    "keys reordered": '{"trajectories": [[[0.5], [-1]], [[2], [3.25]]], "time_grid": [0, 1], '
                      '"dim": 1, "space": "scalar"}',
    "split numbers": '{"space": "quantile", "dim": 2, "scale": -1.5e-3, "time_grid": [1.5e-3, '
                     '2.5E-1], "trajectories": [[[-1.25e-3, 6.02e23], [1e-300, 0.1]], '
                     '[[0, 1E2], [2, 3e+0]]]}',
    "escaped strings": '{"sp\\u0061ce": "s\\u0063alar", '
                       '"note": "a \\"q\\" \\\\ \\n é \\ud83d\\ude00", "dim": 1, '
                       '"time\\u005fgrid": [0, 1], "trajectories": [[[7], [8]], [[9], [8]]]}',
    "whitespace": '\n { "space" :"scalar" ,\r\n\t"dim": 1 , "time_grid" : [ 0 , 1 ] ,'
                  '"trajectories":[ [ [ 0.5 ] , [1.5]] ,[[2],[ 3 ] ] ] } \n\n',
}


class TestChunkedReader:
    @pytest.mark.parametrize("name", list(CHUNKED_TEXTS))
    def test_agrees_with_json_loads(self, tmp_path, monkeypatch, name):
        text = CHUNKED_TEXTS[name]
        paths = []
        for cut in range(len(text) + 1):
            paths.append(tmp_path / f"{cut}.json")
            paths[-1].write_bytes(text[:cut].encode())
        for chunk in range(1, 65):
            monkeypatch.setattr(ofio, "_CHUNK", chunk)
            for cut, path in enumerate(paths):
                try:
                    want = json.loads(text[:cut])
                except ValueError:
                    with pytest.raises(SchemaError):
                        ofio.load_trajectory_file(path)
                    continue
                got = ofio.load_trajectory_file(path)
                assert (got.space.tag, got.space.dim) == (want["space"], want["dim"])
                assert got.time_grid.tobytes() == np.asarray(want["time_grid"], float).tobytes()
                assert got.stacked_values.tobytes() == np.asarray(
                    want["trajectories"], float).tobytes()

    def test_equal_elements_decode_once(self, tmp_path, monkeypatch):
        # a chunk of about three elements cuts most of them; the reader
        # reads on before decoding one no longer than the last, so a cut
        # element is not decoded, failed and decoded again
        row = np.sort(np.random.default_rng(0).normal(size=(11, 5)), axis=1)
        values = np.broadcast_to(row, (200, 11, 5))
        path = tmp_path / "equal.json"
        ofio.save_trajectory_file(ObjectSample(SpaceKind("quantile", 5), np.linspace(0, 1, 11),
                                               values), path)
        failed = []

        def decode(text, pos, _decode=ofio._DECODE):
            try:
                return _decode(text, pos)
            except ValueError:
                failed.append(pos)
                raise

        monkeypatch.setattr(ofio, "_DECODE", decode)
        monkeypatch.setattr(ofio, "_CHUNK", 3 * path.stat().st_size // 200)
        got = ofio.load_trajectory_file(path)
        assert got.stacked_values.tobytes() == values.tobytes()
        assert len(failed) <= 1


class TestFitArtifact:
    def test_fit_dict_round_trips(self, tmp_path):
        from ofpca import fit_fpca

        sample = small_sample()
        fit = fit_fpca(sample, n_components=2)
        doc = ofio.fit_to_dict(fit)
        path = tmp_path / "fit.json"
        ofio.write_json(doc, path)
        # every number is written as a float that reads back bit for bit
        loaded = json.loads(path.read_text(), parse_int=float)
        for field, want in (("surface", fit.surface.values), ("eigenvalues", fit.eigen.eigenvalues),
                            ("eigenfunctions", fit.eigen.eigenfunctions), ("scores", fit.scores),
                            ("mean", fit.mean.values)):
            assert np.asarray(loaded[field]).tobytes() == want.tobytes(), field
        assert loaded["status"] == "ok"
        round2 = tmp_path / "fit2.json"
        ofio.write_json(loaded, round2)
        # identical bytes after a save/load/save cycle
        assert path.read_bytes() == round2.read_bytes()

    @pytest.mark.parametrize("curves, fpc_objects, status", [
        ("antisymmetric", True, "partial"),
        ("antisymmetric", False, "ok"),
        ("quantile", True, "ok"),
    ])
    def test_status_and_space_come_from_the_fit(self, curves, fpc_objects, status):
        from ofpca import fit_fpca

        if curves == "quantile":
            sample = small_sample()
        else:  # its one eigenfunction, sqrt(2) cos(2 pi t), integrates to zero
            grid = np.linspace(0.0, 1.0, 41)
            phi = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
            sample = ObjectSample(
                SpaceKind("scalar", 1), grid, np.outer([-1.5, -0.5, 0.5, 1.5], phi)[..., None])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_fpca(sample, n_components=1, fpc_objects=fpc_objects)
        assert bool(caught) == (status == "partial")
        doc = ofio.fit_to_dict(fit)
        assert doc["status"] == status
        assert doc["skipped_components"] == ([1] if status == "partial" else [])
        assert (doc["space"], doc["dim"]) == (sample.space.tag, sample.space.dim)
        with pytest.raises(TypeError):
            replace(fit, skipped_components=())


class TestCsv:
    def test_surface_long_format(self, tmp_path):
        grid = np.array([0.0, 1.0])
        vals = np.array([[1.0, 2.0], [2.0, 4.0]])
        path = tmp_path / "surface.csv"
        ofio.write_surface_csv(path, grid, vals)
        lines = path.read_text().splitlines()
        assert lines[0] == "s,t,value"
        assert len(lines) == 5
        assert lines[1].startswith("0,0,")

    def test_scores_header(self, tmp_path):
        path = tmp_path / "scores.csv"
        ofio.write_scores_csv(path, np.zeros((2, 3)))
        assert path.read_text().splitlines()[0] == "i,beta1,beta2,beta3"


class TestFailedWrites:
    @pytest.mark.parametrize("write", [
        lambda path: ofio.write_json({"a": [1.0, float("inf")]}, path),
        lambda path: ofio.write_csv(path, ["a"], [[1.0], [float("nan")]]),
    ], ids=["write_json", "write_csv"])
    def test_non_finite_value_leaves_file_unchanged(self, tmp_path, write):
        # the value raises before the path is opened
        from ofpca import InvalidObject
        path = tmp_path / "out"
        path.write_text("old\n")
        with pytest.raises(InvalidObject):
            write(path)
        assert path.read_bytes() == b"old\n"


# Values at the edges of the 17-significant-digit rule.
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, 12.0, -3.0,
               2.0**52, 2.0**53, np.nextafter(1.0, 2.0), 0.1, 1.0 / 3.0, 1.7976931348623157e308]
EDGE_INTS = [0, 1, -7, 2**31, 2**53 - 1, 2**53, -(2**53)]


def random_doubles(n, seed=0):
    """Finite doubles drawn uniformly over bit patterns, so every exponent
    and subnormals occur."""
    bits = np.random.default_rng(seed).integers(0, 2**64, size=4 * n, dtype=np.uint64)
    x = bits.view(np.float64)
    return x[np.isfinite(x)][:n]


class TestWriterMatchesReference:
    """The vectorised writer against the per-scalar formatter it replaced
    (`oracles.reference_*`), byte for byte."""

    JSON_CASES = {
        "float list": EDGE_FLOATS,
        "float array": np.array(EDGE_FLOATS),
        "float32 array": np.array(EDGE_FLOATS[:4] + [0.1, 3.0], dtype=np.float32),
        "int list": EDGE_INTS,
        "int array": np.array(EDGE_INTS),
        "mixed numbers": EDGE_FLOATS + EDGE_INTS,
        "numpy scalars": [np.float64(0.1), np.int64(2**53), np.float32(0.5), np.int32(-4)],
        "tuple": (1.5, 2, -0.0),
        "bools": [True, False],
        "bools with numbers": [True, 1.5, 2],
        "with None": [1.5, 2, None],
        "empty list": [],
        "empty array": np.empty(0),
        "(2, 0) array": np.empty((2, 0)),
        "(0, 3) array": np.empty((0, 3)),
        "strings": ["a", "b\"c", "é"],
        "scalars": {"neg_zero": -0.0, "tiny": 5e-324, "int": 2**53, "flag": True,
                    "none": None, "np": np.float64(1e-300), "np_int": np.int64(7),
                    "text": "x", "empty": {}},
        "3-d array": random_doubles(60).reshape(3, 4, 5),
        "random doubles": random_doubles(2000, seed=1),
        "object_fpcs": {
            "object_fpcs": [[None, np.array([0.5, -0.0])], [np.array([1e300, 2.0]), None]],
            "object_fpc_column_means": [None, np.array([1.0, 5e-324])],
            "skipped_components": [1],
            "explained_fractions": [0.75, 0.25],
            "warnings": ["component 1: eigenfunction integral ~ 0"],
        },
    }

    @pytest.mark.parametrize("name", list(JSON_CASES))
    def test_dumps(self, name):
        from oracles import reference_dumps

        obj = self.JSON_CASES[name]
        assert ofio.dumps(obj) == reference_dumps(obj)

    def test_fit_dict(self):
        from ofpca import fit_fpca
        from oracles import reference_dumps

        sample = small_sample()
        doc = ofio.fit_to_dict(fit_fpca(sample, n_components=2))
        assert ofio.dumps(doc) == reference_dumps(doc)

    @staticmethod
    def _written(tmp_path, write, *args):
        path = tmp_path / "out.csv"
        write(path, *args)
        return path.read_text()

    def test_surface_csv(self, tmp_path):
        from oracles import reference_surface_csv

        grid = np.array([0.0, 1e-300, 0.5, 1.0])
        values = random_doubles(16, seed=2).reshape(4, 4)
        values[0, :3] = [-0.0, 5e-324, 12.0]
        want = reference_surface_csv(grid, values)
        assert self._written(tmp_path, ofio.write_surface_csv, grid, values) == want
        # as read back from fit.json: lists, with integers where a value prints as one
        loaded = json.loads(ofio.dumps({"g": grid, "v": values}))
        want = reference_surface_csv(loaded["g"], loaded["v"])
        assert self._written(tmp_path, ofio.write_surface_csv, loaded["g"], loaded["v"]) == want

    def test_eigenfunctions_csv(self, tmp_path):
        from oracles import reference_eigenfunctions_csv

        grid = np.linspace(0.0, 1.0, 5)
        funs = random_doubles(15, seed=3).reshape(3, 5)
        funs[1] = [-0.0, 2.0**53, 1e-300, -1e300, np.nextafter(1.0, 2.0)]
        want = reference_eigenfunctions_csv(grid, funs)
        assert self._written(tmp_path, ofio.write_eigenfunctions_csv, grid, funs) == want

    @pytest.mark.parametrize("shape", [(4, 3), (1, 1), (3, 0)])
    def test_scores_csv(self, tmp_path, shape):
        from oracles import reference_scores_csv

        scores = random_doubles(int(np.prod(shape)), seed=4).reshape(shape)
        want = reference_scores_csv(scores)
        assert self._written(tmp_path, ofio.write_scores_csv, scores) == want

    def test_mise_csv(self, tmp_path):
        from oracles import reference_mise_csv

        rows = [
            {"n": 25, "runs": 3, "mise_c": 1e-300, "mise_phi": np.array([0.5, -0.0, 5e-324]),
             "mise_lambda": np.array([12.0, 2.0**53, np.nextafter(1.0, 2.0)])},
            {"n": 2**53, "runs": 3, "mise_c": 0.1, "mise_phi": random_doubles(3, seed=5),
             "mise_lambda": np.zeros(3)},
        ]
        want = reference_mise_csv(rows, n_components=3)
        assert self._written(tmp_path, ofio.write_mise_csv, rows) == want

    @pytest.mark.parametrize("obj, name", [({1, 2}, "set"), ({"a": [0.5, b"x"]}, "bytes")],
                             ids=["set", "nested bytes"])
    def test_unknown_type_is_named(self, obj, name):
        from ofpca import InvalidObject

        with pytest.raises(InvalidObject, match=f"^cannot serialize {name}$"):
            ofio.dumps(obj)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_raises(self, tmp_path, bad):
        from ofpca import InvalidObject

        row = np.array([1.0, 2.0, 3.0, bad])
        for obj in (row, row.tolist(), {"a": [0.5, {"b": row[::-1].reshape(2, 2)}]}, bad):
            with pytest.raises(InvalidObject, match="non-finite"):
                ofio.dumps(obj)
        grid = np.array([0.0, 0.5, 1.0, 1.0])
        writers = [
            (ofio.write_surface_csv, grid[:2], row.reshape(2, 2)),
            (ofio.write_surface_csv, np.array([0.0, bad]), np.eye(2)),
            (ofio.write_eigenfunctions_csv, grid, row[None, ::-1]),
            (ofio.write_scores_csv, row.reshape(2, 2)),
            (ofio.write_mise_csv, [{"n": 5, "mise_c": 1.0, "mise_phi": row[:1],
                                    "mise_lambda": row[3:]}]),
        ]
        for write, *args in writers:
            with pytest.raises(InvalidObject, match="non-finite"):
                write(tmp_path / "out.csv", *args)
