"""Command-line interface: determinism, exit codes, golden regression."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ofpca
from ofpca.cli import main
from ofpca.io import save_trajectory_file
from ofpca.kernel import _BLOCK_FLOATS

DATA = pathlib.Path(__file__).parent / "data"


def run(args):
    return main([str(a) for a in args])


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


class TestFitCommand:
    def test_golden_scores_regression(self, tmp_path):
        out = tmp_path / "fit"
        code = run(["fit", DATA / "scalar_fixture.json", "--components", "3",
                    "--out", out])
        assert code == 0
        got = np.loadtxt(out / "scores.csv", delimiter=",", skiprows=1)[:, 1:]
        golden = np.loadtxt(DATA / "golden_scores.csv", delimiter=",", skiprows=1)[:, 1:]
        assert np.abs(got - golden).max() <= 1e-9

    def test_single_trajectory_exits_2(self, tmp_path):
        doc = {"space": "scalar", "dim": 1, "time_grid": [0.0, 0.5, 1.0],
               "trajectories": [[[0.0], [1.0], [2.0]]]}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(doc))
        assert run(["fit", path, "--out", tmp_path / "fit"]) == 2

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

    def test_schema_error_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"space": "scalar"}')
        assert run(["fit", path, "--out", tmp_path / "fit"]) == 2

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

    def test_byte_identical_across_threads(self, tmp_path):
        out1, out4 = tmp_path / "t1", tmp_path / "t4"
        assert run(["fit", DATA / "scalar_fixture.json", "--components", "3",
                    "--threads", "1", "--out", out1]) == 0
        assert run(["fit", DATA / "scalar_fixture.json", "--components", "3",
                    "--threads", "4", "--out", out4]) == 0
        for name in ("fit.json", "surface.csv", "eigenfunctions.csv", "scores.csv"):
            assert (out1 / name).read_bytes() == (out4 / name).read_bytes()

    def test_project_on_load_flag(self, tmp_path):
        doc = {"space": "quantile", "dim": 2, "time_grid": [0.0, 1.0],
               "trajectories": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 0.5], [0.0, 1.0]]]}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert run(["fit", path, "--components", "1", "--out", tmp_path / "f"]) == 2
        assert run(["fit", path, "--components", "1", "--project-on-load",
                    "--out", tmp_path / "f2"]) == 0

    def test_clip_negative_eigenvalues_flag(self, tmp_path):
        out = tmp_path / "clipped"
        assert run(["fit", DATA / "scalar_fixture.json", "--components", "8",
                    "--clip-negative-eigenvalues", "--out", out]) == 0
        artifact = json.loads((out / "fit.json").read_text())
        assert artifact["clipped"] is True
        assert min(artifact["eigenvalues"]) >= 0.0

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


class TestScoresCommand:
    def test_writes_only_scores(self, tmp_path):
        out = tmp_path / "scores.csv"
        assert run(["scores", DATA / "scalar_fixture.json", "--components", "2",
                    "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "i,beta1,beta2"
        assert len(lines) == 9


class TestMiseCommand:
    def test_truth_debug_zero_row(self, tmp_path):
        out = tmp_path / "mise.csv"
        assert run(["mise", "--design", "dist", "--n", "6", "--runs", "1",
                    "--T", "11", "--m", "8", "--truth-debug", "--out", out]) == 0
        row = np.loadtxt(out, delimiter=",", skiprows=1)
        assert row[0] == 6
        assert np.abs(row[1:]).max() <= 1e-8

    def test_small_table_shape(self, tmp_path):
        out = tmp_path / "mise.csv"
        assert run(["mise", "--design", "net", "--n", "4,6", "--runs", "2",
                    "--T", "9", "--seed", "3", "--out", out]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "n,C,phi1,phi2,phi3,lambda1,lambda2,lambda3"
        assert len(lines) == 3

    def test_bad_n_list_exits_2(self, tmp_path):
        assert run(["mise", "--design", "dist", "--n", "a,b", "--runs", "1",
                    "--out", tmp_path / "x.csv"]) == 2

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
        # the network directions vanish at both ends, so three or four
        # grid points cannot hold three orthonormal directions
        out = tmp_path / "mise.csv"
        assert run(["mise", "--design", "net", "--n", "6", "--runs", "1", "--T", n_times,
                    "--out", out]) == 2
        assert "orthonormal" in capsys.readouterr().err
        assert not out.exists()


class TestExportPlots:
    def test_re_emits_csvs(self, tmp_path):
        fit_dir = tmp_path / "fit"
        assert run(["fit", DATA / "scalar_fixture.json", "--components", "2",
                    "--out", fit_dir]) == 0
        export_dir = tmp_path / "plots"
        assert run(["export-plots", fit_dir / "fit.json", "--out", export_dir]) == 0
        for name in ("surface.csv", "eigenfunctions.csv", "scores.csv"):
            assert (fit_dir / name).read_bytes() == (export_dir / name).read_bytes()

    @pytest.mark.parametrize("field, value", [
        ("scores", [1.0, 2.0]),
        ("surface", [[1.0, 2.0], [2.0, 4.0]]),
        ("time_grid", "abc"),
    ])
    def test_malformed_artifact_exits_2(self, tmp_path, capsys, field, value):
        fit_dir = tmp_path / "fit"
        assert run(["fit", DATA / "scalar_fixture.json", "--components", "2",
                    "--out", fit_dir]) == 0
        doc = json.loads((fit_dir / "fit.json").read_text())
        doc[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        export_dir = tmp_path / "plots"
        assert run(["export-plots", bad, "--out", export_dir]) == 2
        assert f"{field}:" in capsys.readouterr().err
        assert not export_dir.exists()

    def test_non_object_artifact_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        assert run(["export-plots", bad, "--out", tmp_path / "plots"]) == 2
        assert not (tmp_path / "plots").exists()


class TestUndecodableInput:
    """Text that json cannot decode is an input error that names its
    offset in the file, for both readers."""

    # (bad value, start of the message, offset of the fault in the value)
    BAD = {
        "not UTF-8": (b'[["\xff"]]', "not UTF-8 (invalid start byte) at byte", 3),
        "nested too deep": (b"[" * 100000, "maximum recursion depth exceeded", 0),
        "5000-digit integer": (b"1" * 5000, "Exceeds the limit (4300 digits)", 0),
    }
    HEADS = {
        "fit": b'{"space": "scalar", "dim": 1, "time_grid": [0, 1], "trajectories": [[[0], [1]], ',
        "export-plots": b'{"time_grid": [0, 1], "scores": ',
    }

    @pytest.mark.parametrize("command", list(HEADS))
    @pytest.mark.parametrize("case", list(BAD))
    def test_exits_2_naming_the_offset(self, tmp_path, capsys, command, case):
        bad, message, shift = self.BAD[case]
        head = self.HEADS[command]
        path = tmp_path / "bad.json"
        path.write_bytes(head + bad + b"]}")
        assert run([command, path, "--out", tmp_path / "out"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: not valid JSON: " + message)
        assert err.endswith(f" {len(head) + shift}")
        assert not (tmp_path / "out").exists()


class TestThreadEnv:
    def test_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OFPCA_THREADS", "2")
        out = tmp_path / "fit"
        assert run(["fit", DATA / "scalar_fixture.json", "--components", "2",
                    "--out", out]) == 0


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
        space, T = ofpca.sympsd_space(4), 21
        n = 2 * (_BLOCK_FLOATS // (T * 10)) + 1
        a = np.random.default_rng(3).normal(size=(n, T, 4, 4))
        values = (a @ np.swapaxes(a, -1, -2)).reshape(n, T, 16)
        data = tmp_path / "sympsd.json"
        sample = ofpca.ObjectSample._from_values(space, np.linspace(0.0, 1.0, T), values)
        save_trajectory_file(sample, data)
        one, two = (self.digests(["fit", data, "--components", "3"],
                                 tmp_path / f"blas{k}" / "sympsd-fit", k) for k in (1, 2))
        assert one == two
