"""Command-line interface: determinism, exit codes, golden regression."""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import weakref
from unittest.mock import Mock

import numpy as np
import pytest

import ofpca
import ofpca.cli
from ofpca.cli import build_parser, main
from ofpca.io import save_trajectory_file
from ofpca.kernel import _BLOCK_FLOATS

DATA = pathlib.Path(__file__).parent / "data"


def run(args):
    return main([str(a) for a in args])


class TestCommandLineSurface:
    """The options each command accepts, the defaults that change results,
    and the exit code of each error class."""

    OPTIONS = {
        "simulate": ["--design", "--n", "--T", "--m", "--seed", "--out"],
        "fit": ["input", "--space", "--components", "--explained-fraction", "--fpc-objects",
                "--no-fpc-objects", "--project-on-load", "--out"],
        "mise": ["--design", "--n", "--runs", "--T", "--m", "--seed", "--components",
                 "--truth-debug", "--out"],
    }
    # (argv with only the required arguments, defaults it must parse to)
    DEFAULTS = [
        (["simulate", "--design", "dist", "--n", "5"], dict(n_times=51, m=100, seed=0)),
        (["fit", "in.json"], dict(components=4, fpc_objects=True, explained_fraction=None,
                                  space=None, project_on_load=False)),
        (["mise", "--design", "net"], dict(n="25,50,100", runs=100, n_times=51, m=100,
                                           seed=0, components=3, truth_debug=False)),
    ]
    # the error classes that exit 2, with OSError; every other library
    # error, and a failed linear-algebra routine, exit 3
    INPUT_FAULTS = {"InputError", "SchemaError", "InvalidObject", "SpaceMismatch",
                    "TooFewTrajectories", "BadRank", "BadWeights"}
    NUMERIC_FAULTS = {"OfpcaError", "DegenerateVariance", "InvalidSurface",
                      "NonIntegrableEigenfunction"}

    def test_options_and_defaults(self):
        parser = build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert list(commands) == list(self.OPTIONS)
        for name, sub in commands.items():
            got = [flag for action in sub._actions if not isinstance(action, argparse._HelpAction)
                   for flag in action.option_strings or [action.dest]]
            assert got == self.OPTIONS[name], name
        for argv, defaults in self.DEFAULTS:
            args = vars(parser.parse_args(argv + ["--out", "out"]))
            assert {key: args[key] for key in defaults} == defaults, argv[0]

    @pytest.mark.parametrize("command", ["scores", "export-plots"])
    def test_removed_command_exits_2(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run([command, "in.json", "--out", "out"])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_exit_code_of_each_error(self, tmp_path, monkeypatch, capsys):
        errors = [obj for obj in vars(ofpca).values()
                  if isinstance(obj, type) and issubclass(obj, ofpca.OfpcaError)]
        assert {cls.__name__ for cls in errors} >= (self.INPUT_FAULTS - {"InputError"}
                                                    | self.NUMERIC_FAULTS)
        for cls in [*errors, np.linalg.LinAlgError, OSError]:
            monkeypatch.setattr(ofpca.cli, "fit_fpca", Mock(side_effect=cls("boom")))
            code = run(["fit", DATA / "scalar_fixture.json", "--out", tmp_path / "fit"])
            err = capsys.readouterr().err
            if cls.__name__ in self.INPUT_FAULTS or cls is OSError:
                assert (code, err) == (2, "error: boom\n"), cls
            else:
                assert (code, err) == (3, "numeric error: boom\n"), cls
        assert not (tmp_path / "fit").exists()


class TestSimulateCommand:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["simulate", "--design", "dist", "--n", "3", "--T", "5",
                    "--m", "7", "--seed", "7", "--out", a]) == 0
        assert run(["simulate", "--design", "dist", "--n", "3", "--T", "5",
                    "--m", "7", "--seed", "7", "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_network_file_matrices_valid(self, tmp_path):
        out = tmp_path / "net.json"
        assert run(["simulate", "--design", "net", "--n", "3", "--T", "4",
                    "--seed", "1", "--out", out]) == 0
        doc = json.loads(out.read_text())
        assert doc["space"] == "adjacency" and doc["dim"] == 10
        for traj in doc["trajectories"]:
            for flat in traj:
                mat = np.asarray(flat).reshape(10, 10)
                assert np.array_equal(mat, mat.T)
                assert np.abs(np.diag(mat)).max() == 0.0
                assert mat.min() >= 0.0 and mat.max() <= 1.0

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert run(["simulate", "--design", "net", "--n", "3", "--seed", "-1",
                    "--out", out]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_output_directory_missing_exits_2(self, tmp_path, capsys):
        assert run(["simulate", "--design", "net", "--n", "3",
                    "--out", tmp_path / "nodir" / "x.json"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestUnindexableSample:
    # each sample has more float64 bytes than numpy can index
    @pytest.mark.parametrize("argv", [
        ["mise", "--design", "net", "--n", "100000000000000000000", "--runs", "1"],
        ["simulate", "--design", "net", "--n", "100000000000000000000"],
        ["simulate", "--design", "dist", "--n", "3", "--m", "10000000000000000000"],
        ["simulate", "--design", "net", "--n", "3", "--T", "10000000000000000000"],
    ], ids=["mise-n", "simulate-n", "simulate-m", "simulate-T"])
    def test_exits_2_without_output(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert run(argv + ["--out", out]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestFitCommand:
    def test_golden_scores_regression(self, tmp_path):
        out = tmp_path / "fit"
        code = run(["fit", DATA / "scalar_fixture.json", "--components", "3",
                    "--out", out])
        assert code == 0
        got = np.loadtxt(out / "scores.csv", delimiter=",", skiprows=1)[:, 1:]
        golden = np.loadtxt(DATA / "golden_scores.csv", delimiter=",", skiprows=1)[:, 1:]
        assert np.abs(got - golden).max() <= 1e-9

    def test_golden_files_regenerate(self, tmp_path):
        # the committed fixture and scores are what make_golden.py writes
        from make_golden import main as make_golden

        make_golden(tmp_path)
        for name in ("scalar_fixture.json", "golden_scores.csv"):
            assert (tmp_path / name).read_bytes() == (DATA / name).read_bytes()

    def test_single_trajectory_exits_2(self, tmp_path, capsys):
        doc = {"space": "scalar", "dim": 1, "time_grid": [0.0, 0.5, 1.0],
               "trajectories": [[[0.0], [1.0], [2.0]]]}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        assert run(["fit", path, "--out", tmp_path / "fit"]) == 2
        assert capsys.readouterr().err == (
            "error: trajectories: a sample needs at least two trajectories\n")

    def test_identical_trajectories_zero_surface_and_scores(self, tmp_path):
        row = [[0.0], [1.0], [2.0]]
        doc = {"space": "scalar", "dim": 1, "time_grid": [0.0, 0.5, 1.0],
               "trajectories": [row, row, row]}
        path = tmp_path / "same.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "fit"
        assert run(["fit", path, "--components", "2", "--out", out]) == 0
        artifact = json.loads((out / "fit.json").read_text())
        assert np.abs(np.asarray(artifact["surface"])).max() == 0.0
        assert np.abs(np.asarray(artifact["scores"])).max() == 0.0

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert run(["fit", tmp_path / "missing.json", "--out", tmp_path / "fit"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "fit").exists()

    def test_schema_error_exits_2(self, tmp_path, capsys):
        head = '{"space": "scalar", "dim": 1, "time_grid": [0.0, 1.0], "trajectories": '
        extra = head + '[[[0.0], [1.0]], [[1.0], [0.0]]]} {}'
        zero = "[0, 0, 0, 0]"
        cases = [
            ('{"space": "scalar"}', "dim: missing required field"),
            ('{"space": 5}', "space: expected str, got int"),
            ('{"space": "scalar", "dim": 1, "time_grid": [0.0, 1.0]}',
             "trajectories: missing required field"),
            (head + "5}", "trajectories: expected list, got int"),
            (head + "{}}", "trajectories: expected list, got dict"),
            (head + "[[[NaN], [1.0]], [[0.0], [1.0]]]}", "trajectories[0]: values must be finite"),
            (head + "[]}", "trajectories: trajectories must be non-empty"),
            # a first element with no values is filled without np.fromiter
            (head + "[[[]], [[0.0], [1.0]]]}", "trajectories[0]: expected shape (2, 1), got (1, 0)"),
            (extra, f"not valid JSON: Extra data at char {len(extra) - 2}"),
            ('{"space": "adjacency", "dim": 2, "time_grid": [0.0, 1.0], "trajectories": '
             f"[[[0, 1.5, 1.5, 0], {zero}], [{zero}, {zero}]]}}",
             "trajectories[0]: adjacency entries outside [0, 1]"),
        ]
        path = tmp_path / "bad.json"
        for text, message in cases:
            path.write_text(text)
            assert run(["fit", path, "--out", tmp_path / "fit"]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "fit").exists()

    def test_non_object_top_level_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert run(["fit", bad, "--out", tmp_path / "fit"]) == 2
        assert capsys.readouterr().err == "error: top level must be an object\n"
        assert not (tmp_path / "fit").exists()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("cells", [[(0, 1)], [(0, 1), (1, 0)], [(1, 1)]],
                             ids=["entry", "pair", "diagonal"])
    def test_nonfinite_adjacency_exits_2(self, tmp_path, capsys, bad, cells):
        # the file reader names the value before admission sees it
        values = np.array([[[0.0, 0.5], [0.5, 0.0]]] * 6).reshape(3, 2, 2, 2)
        for i, j in cells:
            values[1, 0, i, j] = bad
        doc = {"space": "adjacency", "dim": 2, "time_grid": [0.0, 1.0],
               "trajectories": values.reshape(3, 2, 4).tolist()}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["fit", path, "--components", "1", "--out", tmp_path / "fit"]) == 2
        assert capsys.readouterr().err == "error: trajectories[1]: values must be finite\n"
        assert not (tmp_path / "fit").exists()

    def test_components_exceeding_grid_exits_2(self, tmp_path):
        doc = {"space": "scalar", "dim": 1, "time_grid": [0.0, 1.0],
               "trajectories": [[[0.0], [1.0]], [[1.0], [0.0]]]}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        for k in ("5", "0"):
            assert run(["fit", path, "--components", k, "--out", tmp_path / "fit"]) == 2

    def test_space_flag_guard(self, tmp_path):
        assert run(["fit", DATA / "scalar_fixture.json", "--space", "quantile",
                    "--out", tmp_path / "fit"]) == 2

    def test_project_on_load_flag(self, tmp_path):
        doc = {"space": "quantile", "dim": 2, "time_grid": [0.0, 1.0],
               "trajectories": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.5], [0.0, 1.0]]]}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert run(["fit", path, "--components", "1", "--out", tmp_path / "f"]) == 2
        assert run(["fit", path, "--components", "1", "--project-on-load",
                    "--out", tmp_path / "f2"]) == 0

    def test_retained_eigenvalues_are_positive(self, tmp_path):
        # at K = T the rank cut drops every round-off eigenvalue, so no
        # retained one is negative and there is nothing left to clip
        dist = tmp_path / "dist.json"
        assert run(["simulate", "--design", "dist", "--n", "60", "--seed", "3",
                    "--out", dist]) == 0
        for path, T in ((DATA / "scalar_fixture.json", 12), (dist, 51)):
            out = tmp_path / path.stem
            assert run(["fit", path, "--components", str(T), "--out", out]) == 0
            artifact = json.loads((out / "fit.json").read_text())
            assert len(artifact["time_grid"]) == T
            assert all(v > 0.0 for v in artifact["eigenvalues"])
            assert "n_negative_eigenvalues" not in artifact
            assert "clipped" not in artifact
        with pytest.raises(SystemExit) as exc:
            run(["fit", DATA / "scalar_fixture.json", "--clip-negative-eigenvalues",
                 "--out", tmp_path / "flag"])
        assert exc.value.code == 2

    def test_overflowing_surface_exits_3_without_output(self, tmp_path, capsys):
        doc = {"space": "scalar", "dim": 1, "time_grid": [0.0, 0.5, 1.0],
               "trajectories": [[[1e200], [1.0], [2.0]], [[-1e200], [1.0], [3.0]]]}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "fit"
        assert run(["fit", path, "--components", "2", "--out", out]) == 3
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_explained_fraction_trims(self, tmp_path):
        out = tmp_path / "trimmed"
        assert run(["fit", DATA / "scalar_fixture.json", "--components", "3",
                    "--explained-fraction", "0.5", "--out", out]) == 0
        artifact = json.loads((out / "fit.json").read_text())
        assert len(artifact["eigenvalues"]) < 3

    @pytest.mark.parametrize("fraction", ["2", "1.0000001", "0", "-0.5", "nan"])
    def test_explained_fraction_outside_unit_interval_exits_2(self, tmp_path, fraction):
        out = tmp_path / "fit"
        assert run(["fit", DATA / "scalar_fixture.json", "--explained-fraction", fraction,
                    "--out", out]) == 2
        assert not out.exists()

    def test_explained_fraction_one_keeps_all(self, tmp_path):
        out = tmp_path / "fit"
        assert run(["fit", DATA / "scalar_fixture.json", "--components", "3",
                    "--explained-fraction", "1", "--out", out]) == 0
        assert len(json.loads((out / "fit.json").read_text())["eigenvalues"]) == 3

    def test_explained_fraction_k_independent_of_components(self, tmp_path):
        # fractions divide by the whole spectrum, so the chosen K and the
        # reported fractions do not depend on how many components were
        # computed, once that is at least K
        docs = []
        for k in (2, 3, 5, 8):
            out = tmp_path / f"k{k}"
            assert run(["fit", DATA / "scalar_fixture.json", "--components", str(k),
                        "--explained-fraction", "0.9", "--out", out]) == 0
            docs.append(json.loads((out / "fit.json").read_text()))
        assert [len(d["eigenvalues"]) for d in docs] == [2] * 4
        assert all(d["explained_fractions"] == docs[0]["explained_fractions"] for d in docs)
        assert sum(docs[0]["explained_fractions"]) < 0.9999

    def test_bool_dim_exits_2(self, tmp_path, capsys):
        doc = {"space": "quantile", "dim": True, "time_grid": [0.0, 1.0],
               "trajectories": [[[0.0], [1.0]], [[1.0], [0.0]]]}
        path = tmp_path / "booldim.json"
        path.write_text(json.dumps(doc))
        assert run(["fit", path, "--components", "1", "--out", tmp_path / "fit"]) == 2
        assert "dim" in capsys.readouterr().err

    def test_huge_dim_exits_2_before_allocating(self, tmp_path, capsys):
        doc = {"space": "adjacency", "dim": 1_000_000_000, "time_grid": [0.0, 1.0],
               "trajectories": [[[0.0], [0.0]]]}
        path = tmp_path / "hugedim.json"
        path.write_text(json.dumps(doc))
        assert run(["fit", path, "--out", tmp_path / "fit"]) == 2
        assert "trajectories[0]" in capsys.readouterr().err

    def test_partial_status_on_zero_integral_eigenfunction(self, tmp_path):
        grid = np.linspace(0, 1, 41)
        phi = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
        doc = {"space": "scalar", "dim": 1,
               "time_grid": list(grid),
               "trajectories": [[[v] for v in a * phi] for a in (-1.5, -0.5, 0.5, 1.5)]}
        path = tmp_path / "anti.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "fit"
        assert run(["fit", path, "--components", "2", "--out", out]) == 0
        artifact = json.loads((out / "fit.json").read_text())
        assert artifact["status"] == "partial"
        assert 1 in artifact["skipped_components"]
        assert artifact["object_fpcs"][0][0] is None

    def test_explained_fraction_trims_before_object_components(self, tmp_path):
        # component 2 (sqrt(2) cos 2 pi t) integrates to zero; once the
        # trim drops it, no warning may name it
        grid = np.linspace(0, 1, 41)
        phi = np.sqrt(2.0) * np.cos(2 * np.pi * grid)
        curves = [a + b * phi for a, b in zip((-3, -1, 1, 3), (1, -1, -1, 1))]
        doc = {"space": "scalar", "dim": 1, "time_grid": list(grid),
               "trajectories": [[[v] for v in c] for c in curves]}
        path = tmp_path / "two.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "fit"
        assert run(["fit", path, "--components", "2", "--explained-fraction", "0.5",
                    "--out", out]) == 0
        artifact = json.loads((out / "fit.json").read_text())
        assert len(artifact["eigenvalues"]) == 1
        assert artifact["status"] == "ok"
        assert artifact["skipped_components"] == []
        assert artifact["warnings"] == []

    def test_scores_csv_without_object_components(self, tmp_path):
        # the scores do not depend on whether object components are computed
        scores = {}
        for flag in ("--fpc-objects", "--no-fpc-objects"):
            out = tmp_path / flag.lstrip("-")
            assert run(["fit", DATA / "scalar_fixture.json", "--components", "2", flag,
                        "--out", out]) == 0
            scores[flag] = (out / "scores.csv").read_bytes()
        lines = scores["--no-fpc-objects"].decode().splitlines()
        assert lines[0] == "i,beta1,beta2"
        assert len(lines) == 9
        assert scores["--no-fpc-objects"] == scores["--fpc-objects"]

    def test_sample_freed_before_outputs_are_written(self, tmp_path, monkeypatch):
        # a fit does not hold its sample, so the peak of writing the
        # artifact does not add to the sample's memory
        samples, load, write_json = [], ofpca.io.load_trajectory_file, ofpca.io.write_json

        def load_and_watch(*args, **kwargs):
            sample = load(*args, **kwargs)
            samples.append(weakref.ref(sample))
            return sample

        def write_after_free(*args):
            assert samples[0]() is None
            write_json(*args)

        monkeypatch.setattr(ofpca.io, "load_trajectory_file", load_and_watch)
        monkeypatch.setattr(ofpca.io, "write_json", write_after_free)
        assert run(["fit", DATA / "scalar_fixture.json", "--out", tmp_path / "fit"]) == 0

    def test_readme_plot_snippet_matches_fit_csvs(self, tmp_path, monkeypatch):
        # README's replacement for the removed export-plots command writes
        # the plot CSVs of a fit.json with the bytes that fit wrote
        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        snippet = readme.split("### Commands removed", 1)[1].split("```python\n", 1)[1]
        snippet = snippet.split("```", 1)[0]
        monkeypatch.chdir(tmp_path)
        assert run(["fit", DATA / "scalar_fixture.json", "--components", "2",
                    "--out", "fitdir"]) == 0
        pathlib.Path("plots").mkdir()
        exec(snippet, {})
        for name in ("surface.csv", "eigenfunctions.csv", "scores.csv"):
            assert (tmp_path / "plots" / name).read_bytes() == (
                tmp_path / "fitdir" / name).read_bytes(), name


class TestSimulateFitPipeline:
    def test_simulated_distribution_recovers_top_eigenvalue(self, tmp_path):
        data = tmp_path / "dist.json"
        assert run(["simulate", "--design", "dist", "--n", "100", "--T", "51",
                    "--m", "100", "--seed", "42", "--out", data]) == 0
        out = tmp_path / "fit"
        assert run(["fit", data, "--components", "3", "--no-fpc-objects",
                    "--out", out]) == 0
        artifact = json.loads((out / "fit.json").read_text())
        top = artifact["eigenvalues"][0]
        assert abs(top - 12.0) <= 0.25 * 12.0


class TestMiseCommand:
    def test_truth_debug_zero_row(self, tmp_path):
        out = tmp_path / "mise.csv"
        assert run(["mise", "--design", "dist", "--n", "6", "--runs", "1",
                    "--T", "11", "--m", "8", "--truth-debug", "--out", out]) == 0
        row = np.loadtxt(out, delimiter=",", skiprows=1)
        assert row[0] == 6
        assert np.abs(row[1:]).max() <= 1e-8

    @pytest.mark.parametrize("design", ["dist", "net"])
    def test_truth_debug_errors_are_exactly_zero(self, tmp_path, design):
        # the population surface itself goes through the eigen step
        out = tmp_path / "mise.csv"
        assert run(["mise", "--design", design, "--n", "6,9", "--runs", "2", "--T", "11",
                    "--m", "8", "--truth-debug", "--out", out]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=1)
        assert rows[:, 0].tolist() == [6, 9]
        assert not rows[:, 1:].any()

    def test_small_table_shape(self, tmp_path):
        out = tmp_path / "mise.csv"
        assert run(["mise", "--design", "net", "--n", "4,6", "--runs", "2",
                    "--T", "9", "--seed", "3", "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,C,phi1,phi2,phi3,lambda1,lambda2,lambda3"
        assert len(lines) == 3

    def test_bad_n_list_exits_2(self, tmp_path, capsys):
        # a sample-size list or a run count that selects no run
        out = tmp_path / "x.csv"
        for flags, message in (
            (["--n", "a,b", "--runs", "1"], "--n must be comma-separated integers, got 'a,b'"),
            (["--n", ",", "--runs", "1"], "--n selected no sample sizes"),
            (["--n", "6", "--runs", "0"], "runs must be an integer >= 1, got 0"),
        ):
            assert run(["mise", "--design", "dist", *flags, "--out", out]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_components_beyond_design_rank_exits_2(self, tmp_path, capsys):
        out = tmp_path / "mise.csv"
        assert run(["mise", "--design", "net", "--n", "6", "--runs", "1", "--T", "9",
                    "--components", "4", "--out", out]) == 2
        assert "rank" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "mise.csv"
        assert run(["mise", "--design", "dist", "--n", "6", "--runs", "1", "--T", "9",
                    "--m", "8", "--seed", "-2", "--out", out]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("n_times", ["3", "4"])
    def test_network_grid_too_coarse_for_truth_exits_2(self, tmp_path, capsys, n_times):
        # the network directions vanish at both ends, so on three or four
        # grid points the truth has rank 1 or 2, below the 3 components asked
        out = tmp_path / "mise.csv"
        assert run(["mise", "--design", "net", "--n", "6", "--runs", "1", "--T", n_times,
                    "--out", out]) == 2
        assert "rank" in capsys.readouterr().err
        assert not out.exists()


class TestUndecodableInput:
    """Text that json cannot decode is an input error that names its
    offset in the file, both inside the streamed trajectories and in a
    value decoded whole."""

    # (bad value, start of the message, offset of the fault in the value)
    BAD = {
        "not UTF-8": (b'[["\xff"]]', "not UTF-8 (invalid start byte) at byte", 3),
        "nested too deep": (b"[" * 100000, "maximum recursion depth exceeded", 0),
        "5000-digit integer": (b"1" * 5000, "Exceeds the limit (4300 digits)", 0),
    }
    HEADS = {
        "fit": b'{"space": "scalar", "dim": 1, "time_grid": [0, 1], "trajectories": [[[0], [1]], ',
        "fit-time_grid": b'{"space": "scalar", "dim": 1, "time_grid": ',
    }

    @pytest.mark.parametrize("head", list(HEADS))
    @pytest.mark.parametrize("case", list(BAD))
    def test_exits_2_naming_the_offset(self, tmp_path, capsys, head, case):
        bad, message, shift = self.BAD[case]
        head = self.HEADS[head]
        path = tmp_path / "bad.json"
        path.write_bytes(head + bad + b"]}")
        assert run(["fit", path, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: not valid JSON: " + message)
        assert err.endswith(f" {len(head) + shift}")
        assert not (tmp_path / "out").exists()


class TestBlasThreads:
    """Outputs must not depend on the BLAS thread count."""

    @staticmethod
    def digests(args, out, blas_threads):
        env = dict(os.environ)
        src = str(pathlib.Path(ofpca.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = str(blas_threads)
        out.parent.mkdir(exist_ok=True)
        subprocess.run([sys.executable, "-m", "ofpca.cli", *map(str, args), "--out", str(out)],
                       env=env, check=True, capture_output=True)
        files = sorted(out.iterdir()) if out.is_dir() else [out]
        return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}

    def test_mise_and_fit_bytes(self, tmp_path):
        for design in ("dist", "net"):
            data = tmp_path / f"{design}.json"
            assert run(["simulate", "--design", design, "--n", "40", "--seed", "2",
                        "--out", data]) == 0
            for args, name in (
                (["mise", "--design", design, "--n", "100", "--runs", "10", "--seed", "1"],
                 "mise.csv"),
                (["fit", data, "--components", "3"], "fit"),
            ):
                one, two = (
                    self.digests(args, tmp_path / f"blas{k}" / f"{design}-{name}", k)
                    for k in (1, 2)
                )
                assert one == two, (design, name)
        # no design simulates sympsd curves, whose surface keeps the
        # triangle with its diagonal: fit a file three blocks long
        space, T = ofpca.SpaceKind("sympsd", 4), 21
        n = 2 * (_BLOCK_FLOATS // (T * 10)) + 1
        a = np.random.default_rng(3).normal(size=(n, T, 4, 4))
        values = (a @ np.swapaxes(a, -1, -2)).reshape(n, T, 16)
        data = tmp_path / "sympsd.json"
        sample = ofpca.ObjectSample(space, np.linspace(0.0, 1.0, T), values)
        save_trajectory_file(sample, data)
        one, two = (self.digests(["fit", data, "--components", "3"],
                                 tmp_path / f"blas{k}" / "sympsd-fit", k) for k in (1, 2))
        assert one == two
