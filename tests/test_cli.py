import json
import math
import warnings

import numpy as np
import pytest

from radialcal import calibration
from radialcal.calibration import (
    OptimizerOptions,
    SingularConfiguration,
    _build_result,
    project,
)
from radialcal.cli import build_parser, main
from radialcal.distortion import DistortionSpec, Model, distort_array
from radialcal.fileio import (
    read_calibration,
    read_points,
    read_scene_truth,
    write_calibration,
    write_correspondences,
    write_points,
    write_pose,
)
from radialcal.geometry import IntrinsicMatrix, ViewExtrinsics, WorldPoint, to_normalized, to_pixel_array

from conftest import View, make_scene, split_views, stack_views
from oracles import rot_x, rot_z


@pytest.fixture
def synth_spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps(
            {
                "seed": 11,
                "grid": {"nx": 8, "ny": 8, "spacing": 0.15},
                "views": 3,
                "noise_sigma": 0.0,
                "intrinsics": {"alpha": 800, "beta": 800, "gamma": 0.2, "u0": 320, "v0": 240},
                "distortion": {"model": "model3", "k1": -0.12, "k2": -0.14},
            }
        )
    )
    return path


def write_exact_calibration(path, intrinsics, spec, corr=None, truth=None):
    """Calibration file holding exact (generator) parameters."""
    if corr is None:
        corr, truth = make_scene(3, model=spec.model, k1=spec.k1, k2=spec.k2, intrinsics=intrinsics)
    result = _build_result(corr, intrinsics, spec, truth.extrinsics)
    write_calibration(path, result)
    return corr


class TestParser:
    def test_one_parser_serves_every_call(self, tmp_path, synth_spec_file, capsys):
        # The parser is built once per process. Each call parses its own
        # subcommand and flags: one call's flags never reach the next.
        assert build_parser() is build_parser()
        corr_path, calib_path = tmp_path / "corr.csv", tmp_path / "calib.json"
        assert main(["synth", "--spec", str(synth_spec_file), "--output", str(corr_path)]) == 0
        calibrate = ["calibrate", "--input", str(corr_path), "--model", "2", "--output", str(calib_path)]
        assert main([*calibrate, "--tol-x", "1e-3", "--max-iter", "50"]) == 0
        assert read_calibration(calib_path).options == OptimizerOptions(tol_x=1e-3, max_iter=50)
        capsys.readouterr()
        assert main(["compare", "--input", str(corr_path), "--json"]) == 0
        assert set(json.loads(capsys.readouterr().out)) >= {"model1", "model2", "model3"}
        assert main(calibrate) == 0
        fit = read_calibration(calib_path)
        assert fit.options == OptimizerOptions() and fit.distortion.model is Model.MODEL2


class TestSynth:
    def test_row_count_and_determinism(self, tmp_path, synth_spec_file, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["synth", "--spec", str(synth_spec_file), "--output", str(out1)]) == 0
        assert main(["synth", "--spec", str(synth_spec_file), "--output", str(out2)]) == 0
        assert "192 correspondences" in capsys.readouterr().out
        assert out1.read_bytes() == out2.read_bytes()
        truth1 = (tmp_path / "a.truth.json").read_bytes()
        truth2 = (tmp_path / "b.truth.json").read_bytes()
        assert truth1 == truth2
        assert len(out1.read_text().splitlines()) == 1 + 192

    def test_pose_behind_camera_exits_3(self, tmp_path, capsys):
        # The default 1.05-wide grid tilted by 30 degrees at depth 0.1 reaches
        # behind the camera.
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps(
                {
                    "seed": 11,
                    "intrinsics": {"alpha": 800, "beta": 800, "gamma": 0, "u0": 320, "v0": 240},
                    "distortion": {"model": "model3", "k1": -0.12, "k2": -0.14},
                    "pose": {"distance": [0.1, 0.1], "tilt_deg": [30, 30]},
                }
            )
        )
        assert main(["synth", "--spec", str(spec), "--output", str(tmp_path / "c.csv")]) == 3
        assert "widen the distance range" in capsys.readouterr().err

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "spec.json"
        bad.write_text("{")
        assert main(["synth", "--spec", str(bad), "--output", str(tmp_path / "o.csv")]) == 2

    def test_non_integral_seed_exits_2(self, tmp_path, synth_spec_file, capsys):
        # int() would truncate the seed to 11 and generate that scene.
        spec = json.loads(synth_spec_file.read_text())
        synth_spec_file.write_text(json.dumps({**spec, "seed": 11.5}))
        out = tmp_path / "o.csv"
        assert main(["synth", "--spec", str(synth_spec_file), "--output", str(out)]) == 2
        assert "seed must be an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_noise_sigma_exits_2(self, tmp_path, synth_spec_file, capsys):
        # NaN passes a plain "< 0" check and would write noiseless data.
        spec = json.loads(synth_spec_file.read_text())
        synth_spec_file.write_text(json.dumps({**spec, "noise_sigma": math.nan}))
        out = tmp_path / "o.csv"
        assert main(["synth", "--spec", str(synth_spec_file), "--output", str(out)]) == 2
        assert "noise sigma must be finite" in capsys.readouterr().err
        assert not out.exists()


class TestCalibrate:
    def test_noiseless_end_to_end(self, tmp_path, synth_spec_file, capsys):
        corr_path = tmp_path / "corr.csv"
        calib_path = tmp_path / "calib.json"
        main(["synth", "--spec", str(synth_spec_file), "--output", str(corr_path)])
        code = main(
            ["calibrate", "--input", str(corr_path), "--model", "3", "--output", str(calib_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "J_init=" in out and "J_final=" in out and "iterations=" in out
        j_final = float(next(l for l in out.splitlines() if l.startswith("J_final=")).split("=")[1])
        assert j_final <= 1e-6

        # recovered parameters match the sidecar ground truth
        truth = read_scene_truth(tmp_path / "corr.truth.json")
        calib = read_calibration(calib_path)
        assert abs(calib.intrinsics.alpha - truth.intrinsics.alpha) <= 1e-3 * truth.intrinsics.alpha
        assert abs(calib.distortion.k1 - truth.distortion.k1) <= 1e-3

    def test_two_views_exit_3(self, tmp_path, capsys):
        corr, _ = make_scene(13, n_views=2)
        corr_path = tmp_path / "corr.csv"
        write_correspondences(corr_path, corr)
        code = main(
            ["calibrate", "--input", str(corr_path), "--model", "1", "--output", str(tmp_path / "c.json")]
        )
        assert code == 3
        assert "3" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["calibrate", "compare"])
    def test_view_with_collinear_pixels_is_dropped(self, tmp_path, capsys, command):
        # View 3's points span the target, but its pixels lie on one line:
        # the session gives what views 0-2 alone give, with a warning.
        corr, _ = make_scene(3, grid_nx=6, grid_ny=6, n_views=4)
        views = split_views(corr)
        u = views[3].pixels[:, 0]
        flat = View(3, views[3].world_xy, np.column_stack([u, 100.0 + 0.5 * u]))
        outputs, messages = [], []
        for name, session in (("four", views[:3] + (flat,)), ("three", views[:3])):
            corr_path, out_path = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
            write_correspondences(corr_path, stack_views(session))
            argv = [command, "--input", str(corr_path)]
            argv += ["--model", "3", "--output", str(out_path)] if command == "calibrate" else ["--json"]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(argv) == 0
            messages.append([str(w.message) for w in caught])
            out = capsys.readouterr().out
            outputs.append(json.loads(out_path.read_text() if command == "calibrate" else out))
        assert messages == [["dropping view 3: homography is singular (collinear pixels?)"], []]
        assert outputs[0] == outputs[1]

    def test_malformed_csv_exit_2(self, tmp_path, capsys):
        corr_path = tmp_path / "corr.csv"
        corr_path.write_text("view_id,Xw,Yw,ud,vd\n0,1,2,3,4\n0,1,2,3\n")
        code = main(
            ["calibrate", "--input", str(corr_path), "--model", "1", "--output", str(tmp_path / "c.json")]
        )
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_input_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        corr_path = tmp_path / "corr.csv"
        corr_path.write_bytes(b"\xff\xfev\x00i\x00e\x00w\x00")
        argv = ["calibrate", "--input", str(corr_path), "--model", "3", "--output", str(tmp_path / "c.json")]
        assert main(argv) == 2
        assert "corr.csv: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["calibrate", "compare"])
    @pytest.mark.parametrize(
        "flag,value,message",
        [
            ("--tol-x", "nan", "tolerances must be finite and positive"),
            ("--tol-fun", "inf", "tolerances must be finite and positive"),
            ("--max-iter", "0", "the iteration cap must be positive"),
        ],
    )
    def test_bad_optimizer_flag_exits_2(self, tmp_path, capsys, command, flag, value, message):
        corr, _ = make_scene(14)
        corr_path = tmp_path / "corr.csv"
        calib_path = tmp_path / "calib.json"
        write_correspondences(corr_path, corr)
        argv = [command, "--input", str(corr_path), flag, value]
        if command == "calibrate":
            argv += ["--model", "3", "--output", str(calib_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not calib_path.exists()

    @pytest.mark.parametrize("command", ["calibrate", "compare"])
    def test_removed_evaluation_cap_flag_exits_2(self, tmp_path, capsys, command):
        # The LM has no evaluation cap: its damping stop bounds the
        # evaluations per iteration, and --max-iter the iterations.
        corr, _ = make_scene(14)
        corr_path = tmp_path / "corr.csv"
        calib_path = tmp_path / "calib.json"
        write_correspondences(corr_path, corr)
        argv = [command, "--input", str(corr_path), "--max-fun-evals", "8000"]
        if command == "calibrate":
            argv += ["--model", "3", "--output", str(calib_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-fun-evals" in capsys.readouterr().err
        assert not calib_path.exists()

    def test_not_converged_exit_4_still_writes(self, tmp_path, capsys):
        corr, _ = make_scene(14, noise_sigma=0.5)
        corr_path = tmp_path / "corr.csv"
        calib_path = tmp_path / "calib.json"
        write_correspondences(corr_path, corr)
        code = main(
            [
                "calibrate", "--input", str(corr_path), "--model", "3",
                "--output", str(calib_path), "--tol-x", "1e-14", "--tol-fun", "1e-14",
                "--max-iter", "2",
            ]
        )
        assert code == 4
        assert calib_path.exists()


class TestCompare:
    @staticmethod
    def session(tmp_path, n_views=3):
        corr, _ = make_scene(15, model=Model.MODEL1, k1=-0.3435, k2=0.1232, noise_sigma=0.3, n_views=n_views)
        corr_path = tmp_path / "corr.csv"
        write_correspondences(corr_path, corr)
        return str(corr_path)

    @staticmethod
    def refuse(monkeypatch, models):
        """Make refine raise a library error for each of models."""
        refine = calibration.refine

        def refusing(corr, init, opts):
            if init.distortion.model in models:
                raise SingularConfiguration("refused")
            return refine(corr, init, opts)

        monkeypatch.setattr(calibration, "refine", refusing)

    def test_table_schema_and_json_agree(self, tmp_path, capsys):
        corr_path = self.session(tmp_path)

        assert main(["compare", "--input", corr_path]) == 0
        table = capsys.readouterr().out.splitlines()
        assert "model1" in table[0] and "model2" in table[0] and "model3" in table[0]
        labels = [line.split()[0] for line in table[1:9]]
        assert labels == ["J", "alpha", "gamma", "u0", "beta", "v0", "k1", "k2"]

        assert main(["compare", "--input", corr_path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        # field-for-field agreement between the table and the json numbers
        for i, model in enumerate(("model1", "model2", "model3")):
            for row_idx, label in enumerate(labels):
                cell = float(table[1 + row_idx].split()[1 + i])
                assert math.isclose(data[model][label], cell, rel_tol=1e-5, abs_tol=1e-5)

        j1, j2, j3 = (data[m]["J"] for m in ("model1", "model2", "model3"))
        assert j1 <= j3 <= j2

    def test_parse_error_exit_2(self, tmp_path):
        missing = tmp_path / "nope.csv"
        assert main(["compare", "--input", str(missing)]) == 2

    def test_max_iter_1_exits_4(self, tmp_path, capsys):
        assert main(["compare", "--input", self.session(tmp_path), "--max-iter", "1", "--json"]) == 4
        data = json.loads(capsys.readouterr().out)
        assert [data[m]["converged"] for m in ("model1", "model2", "model3")] == [False] * 3

    def test_failed_model_is_an_error_cell(self, tmp_path, capsys, monkeypatch):
        self.refuse(monkeypatch, {Model.MODEL2})
        corr_path = self.session(tmp_path)
        assert main(["compare", "--input", corr_path]) == 0
        captured = capsys.readouterr()
        rows = [line.split() for line in captured.out.splitlines()[1:9]]
        assert [row[2] for row in rows] == ["error"] * 8
        assert all(math.isfinite(float(row[1])) and math.isfinite(float(row[3])) for row in rows)
        assert captured.err == "model2: SingularConfiguration: refused\n"

        assert main(["compare", "--input", corr_path, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["model2"] == {"error": "SingularConfiguration: refused"}
        assert data["model1"]["converged"] and data["model3"]["converged"]

    def test_every_model_failing_exits_3(self, tmp_path, capsys, monkeypatch):
        self.refuse(monkeypatch, set(Model))
        assert main(["compare", "--input", self.session(tmp_path)]) == 3
        captured = capsys.readouterr()
        assert all(line.split()[1:] == ["error"] * 3 for line in captured.out.splitlines()[1:9])
        assert captured.err.count("SingularConfiguration: refused") == 3

    def test_fewer_than_3_usable_views_exits_3(self, tmp_path, capsys):
        assert main(["compare", "--input", self.session(tmp_path, n_views=2)]) == 3
        captured = capsys.readouterr()
        assert "at least 3 usable views, got 2" in captured.err and captured.out == ""


class TestUndistort:
    def test_forward_then_inverse_round_trip(self, tmp_path):
        A = IntrinsicMatrix(800.0, 800.0, 0.2, 320.0, 240.0)
        spec = DistortionSpec(Model.MODEL3, -0.12, -0.14)
        calib_path = tmp_path / "calib.json"
        write_exact_calibration(calib_path, A, spec)

        rng = np.random.default_rng(16)
        pts = np.column_stack([rng.uniform(100, 540, 25), rng.uniform(60, 420, 25)])
        write_points(tmp_path / "pts.csv", pts)

        assert main(
            ["undistort", "--calib", str(calib_path), "--points", str(tmp_path / "pts.csv"),
             "--output", str(tmp_path / "fwd.csv"), "--direction", "forward"]
        ) == 0
        assert main(
            ["undistort", "--calib", str(calib_path), "--points", str(tmp_path / "fwd.csv"),
             "--output", str(tmp_path / "back.csv")]
        ) == 0
        back = read_points(tmp_path / "back.csv")
        assert np.max(np.abs(back - pts)) <= 1e-6

    def test_principal_point_fixed_both_directions(self, tmp_path):
        A = IntrinsicMatrix(800.0, 800.0, 0.2, 320.0, 240.0)
        spec = DistortionSpec(Model.MODEL3, -0.12, -0.14)
        calib_path = tmp_path / "calib.json"
        write_exact_calibration(calib_path, A, spec)
        write_points(tmp_path / "pts.csv", np.array([[320.0, 240.0]]))
        for direction in ("forward", "inverse"):
            main(
                ["undistort", "--calib", str(calib_path), "--points", str(tmp_path / "pts.csv"),
                 "--output", str(tmp_path / "out.csv"), "--direction", direction]
            )
            assert np.allclose(read_points(tmp_path / "out.csv"), [[320.0, 240.0]], atol=1e-12)

    def test_forward_keeps_principal_point_exactly(self, tmp_path):
        A = IntrinsicMatrix(832.5, 830.7, 0.2, 303.96, 206.59)
        spec = DistortionSpec(Model.MODEL3, -0.1, -0.05)
        calib_path = tmp_path / "calib.json"
        write_exact_calibration(calib_path, A, spec)
        write_points(tmp_path / "pts.csv", np.array([[303.96, 206.59]]))
        assert main(
            ["undistort", "--calib", str(calib_path), "--points", str(tmp_path / "pts.csv"),
             "--output", str(tmp_path / "out.csv"), "--direction", "forward"]
        ) == 0
        assert read_points(tmp_path / "out.csv").tolist() == [[303.96, 206.59]]

    def test_empty_points_file(self, tmp_path):
        A = IntrinsicMatrix(800.0, 800.0, 0.0, 320.0, 240.0)
        spec = DistortionSpec(Model.MODEL2, -0.2)
        calib_path = tmp_path / "calib.json"
        write_exact_calibration(calib_path, A, spec)
        write_points(tmp_path / "pts.csv", np.empty((0, 2)))
        assert main(
            ["undistort", "--calib", str(calib_path), "--points", str(tmp_path / "pts.csv"),
             "--output", str(tmp_path / "out.csv")]
        ) == 0
        assert read_points(tmp_path / "out.csv").shape == (0, 2)

    @pytest.mark.parametrize("text", ["", "\n100,200\n"])
    def test_points_file_without_header_exits_2(self, tmp_path, capsys, text):
        A = IntrinsicMatrix(800.0, 800.0, 0.0, 320.0, 240.0)
        write_exact_calibration(tmp_path / "calib.json", A, DistortionSpec(Model.MODEL2, -0.2))
        (tmp_path / "pts.csv").write_text(text)
        code = main(
            ["undistort", "--calib", str(tmp_path / "calib.json"), "--points",
             str(tmp_path / "pts.csv"), "--output", str(tmp_path / "out.csv")]
        )
        assert code == 2
        assert "line 1: expected header 'u,v'" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_tiny_positive_k1_inverts(self, tmp_path):
        # k1 ** -1 overflows in the radius solve's constants, which used to
        # end in an OverflowError traceback.
        A = IntrinsicMatrix(800.0, 800.0, 0.2, 320.0, 240.0)
        calib_path = tmp_path / "calib.json"
        write_exact_calibration(calib_path, A, DistortionSpec(Model.MODEL3, 1e-310, -0.14))
        write_points(tmp_path / "pts.csv", np.array([[100.0, 60.0], [320.0, 240.0], [540.0, 420.0]]))
        assert main(
            ["undistort", "--calib", str(calib_path), "--points", str(tmp_path / "pts.csv"),
             "--output", str(tmp_path / "out.csv")]
        ) == 0
        assert np.isfinite(read_points(tmp_path / "out.csv")).all()

    def test_unreachable_point_gives_nan_row_and_exit_5(self, tmp_path, capsys):
        # Strong single-coefficient barrel: the forward warp tops out at
        # radius F(r*) = (2/3) r*; beyond it no preimage exists.
        A = IntrinsicMatrix(100.0, 100.0, 0.0, 0.0, 0.0)
        spec = DistortionSpec(Model.MODEL1, -0.5, 0.0)
        calib_path = tmp_path / "calib.json"
        write_exact_calibration(calib_path, A, spec)
        fold = 1.0 / math.sqrt(3 * 0.5)
        reachable = fold * (1 + spec.k1 * fold * fold) * 100
        write_points(tmp_path / "pts.csv", np.array([[10.0, 0.0], [reachable * 1.3, 0.0]]))
        code = main(
            ["undistort", "--calib", str(calib_path), "--points", str(tmp_path / "pts.csv"),
             "--output", str(tmp_path / "out.csv")]
        )
        assert code == 5
        assert "1 of 2" in capsys.readouterr().out
        out = read_points(tmp_path / "out.csv")
        assert math.isfinite(out[0, 0])
        assert math.isnan(out[1, 0]) and math.isnan(out[1, 1])


    def test_single_term_model_past_fold_gives_nan_row_and_exit_5(self, tmp_path, capsys):
        # F(r) = r - 0.15 r^3 peaks at F = 0.994; the pixel (200, 0) lies at
        # normalized radius 2, which has no preimage.
        A = IntrinsicMatrix(100.0, 100.0, 0.0, 0.0, 0.0)
        write_exact_calibration(tmp_path / "calib.json", A, DistortionSpec(Model.MODEL2, -0.15))
        write_points(tmp_path / "pts.csv", np.array([[50.0, 0.0], [200.0, 0.0]]))
        code = main(
            ["undistort", "--calib", str(tmp_path / "calib.json"), "--points",
             str(tmp_path / "pts.csv"), "--output", str(tmp_path / "out.csv")]
        )
        assert code == 5
        assert "1 of 2" in capsys.readouterr().out
        out = read_points(tmp_path / "out.csv")
        assert np.isfinite(out[0]).all() and np.isnan(out[1]).all()

    def test_huge_point_gives_nan_row_and_exit_5(self, tmp_path, capsys):
        # At u = 1e203 the normalized radius is about 1e200, far above
        # F(fold) = 0.6 of this model1 warp, which folds at r = 1: the
        # inverse reports no solution.
        A = IntrinsicMatrix(800.0, 800.0, 0.2, 320.0, 240.0)
        write_exact_calibration(tmp_path / "calib.json", A, DistortionSpec(Model.MODEL1, -0.5, 0.1))
        write_points(tmp_path / "pts.csv", np.array([[100.0, 200.0], [1e203, 0.0]]))
        code = main(
            ["undistort", "--calib", str(tmp_path / "calib.json"), "--points",
             str(tmp_path / "pts.csv"), "--output", str(tmp_path / "out.csv")]
        )
        assert code == 5
        assert "1 of 2" in capsys.readouterr().out
        out = read_points(tmp_path / "out.csv")
        assert np.isfinite(out[0]).all() and np.isnan(out[1]).all()

    def test_points_that_are_not_utf8_exit_2(self, tmp_path, capsys):
        A = IntrinsicMatrix(800.0, 800.0, 0.2, 320.0, 240.0)
        write_exact_calibration(tmp_path / "calib.json", A, DistortionSpec(Model.MODEL3, -0.12, -0.14))
        (tmp_path / "pts.csv").write_bytes(b"\xff\xfeu\x00,\x00v\x00\n\x00")
        argv = ["undistort", "--calib", str(tmp_path / "calib.json"), "--points", str(tmp_path / "pts.csv")]
        assert main(argv + ["--output", str(tmp_path / "out.csv")]) == 2
        assert "pts.csv: " in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_non_finite_row_gives_nan_row_and_exit_5(self, tmp_path, capsys, direction):
        A = IntrinsicMatrix(800.0, 800.0, 0.2, 320.0, 240.0)
        write_exact_calibration(tmp_path / "calib.json", A, DistortionSpec(Model.MODEL3, -0.12, -0.14))
        (tmp_path / "pts.csv").write_text("u,v\n100,200\nnan,3\n5,inf\nnan,nan\n")
        argv = ["undistort", "--calib", str(tmp_path / "calib.json"), "--direction", direction]
        code = main(argv + ["--points", str(tmp_path / "pts.csv"), "--output", str(tmp_path / "a.csv")])
        assert code == 5
        assert "3 of 4" in capsys.readouterr().out
        out = read_points(tmp_path / "a.csv")
        assert np.isfinite(out[0]).all() and np.isnan(out[1:]).all()
        # The tool's own output, failed rows included, is valid input again.
        code = main(argv + ["--points", str(tmp_path / "a.csv"), "--output", str(tmp_path / "b.csv")])
        assert code == 5
        assert np.isnan(read_points(tmp_path / "b.csv")[1:]).all()


class TestLocalize:
    def _setup(self, tmp_path, delta_theta=0.0, dt=(0.0, 0.0)):
        A = IntrinsicMatrix(800.0, 800.0, 0.0, 320.0, 240.0)
        spec = DistortionSpec(Model.MODEL3, -0.1, -0.05)
        calib_path = tmp_path / "calib.json"
        write_exact_calibration(calib_path, A, spec)

        R1 = rot_z(0.2) @ rot_x(math.pi - 0.5)
        pose1 = ViewExtrinsics.from_rotation(R1, np.array([0.1, 0.3, 1.0]))
        pa, pb = WorldPoint(-0.3, -0.4, 0.0), WorldPoint(0.4, -0.55, 0.0)
        obs = []
        for P in (pa, pb):
            n = to_normalized(project(P, pose1, A), A)
            obs += to_pixel_array(distort_array(spec, np.array([[n.x, n.y]])), A)[0].tolist()
        pose2 = ViewExtrinsics.from_rotation(
            rot_z(delta_theta) @ pose1.rotation, pose1.t + np.array([*dt, 0.0])
        )
        write_pose(tmp_path / "pose.json", pose2)
        argv = [
            "localize", "--calib", str(calib_path), "--pose", str(tmp_path / "pose.json"),
            f"--line-map={pa.x},{pa.y},{pb.x},{pb.y}",
            "--observed=" + ",".join(repr(v) for v in obs),
            "--json",
        ]
        return argv, pose1

    def test_no_deviation(self, tmp_path, capsys):
        argv, pose1 = self._setup(tmp_path)
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["delta_theta_rad"]) <= 1e-9
        assert np.allclose(data["t1"], pose1.t, atol=1e-9)

    def test_synthesized_deviation(self, tmp_path, capsys):
        argv, pose1 = self._setup(tmp_path, delta_theta=0.25, dt=(0.3, -0.1))
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert abs(data["delta_theta_rad"] - 0.25) <= 1e-6
        assert np.allclose(data["t1"], pose1.t, atol=1e-6)
        assert math.isclose(
            data["delta_theta_deg"], math.degrees(data["delta_theta_rad"]), rel_tol=1e-12
        )

    def test_degenerate_line_map_exit_6(self, tmp_path, capsys):
        argv, _ = self._setup(tmp_path)
        argv[argv.index(next(a for a in argv if a.startswith("--line-map=")))] = (
            "--line-map=0.5,0.5,0.5,0.5"
        )
        assert main(argv) == 6
        assert "DegenerateLine" in capsys.readouterr().err

    def test_huge_observed_pixel_exits_6(self, tmp_path, capsys):
        # A model1 calibration that folds at r = 1, where F = 0.6, cannot
        # invert the radius of u = 1e203: NoRealSolution, not a traceback.
        argv, _ = self._setup(tmp_path)
        A = IntrinsicMatrix(800.0, 800.0, 0.0, 320.0, 240.0)
        write_exact_calibration(tmp_path / "calib.json", A, DistortionSpec(Model.MODEL1, -0.5, 0.1))
        i = next(i for i, a in enumerate(argv) if a.startswith("--observed="))
        argv[i] = "--observed=1e203," + argv[i].split(",", 1)[1]
        assert main(argv) == 6
        assert "NoRealSolution" in capsys.readouterr().err

    def test_tiny_positive_k1_fixes(self, tmp_path, capsys):
        # As the undistort case: an OverflowError traceback, now a fix.
        argv, _ = self._setup(tmp_path)
        A = IntrinsicMatrix(800.0, 800.0, 0.0, 320.0, 240.0)
        write_exact_calibration(tmp_path / "calib.json", A, DistortionSpec(Model.MODEL3, 1e-310, -0.05))
        assert main(argv) == 0
        assert math.isfinite(json.loads(capsys.readouterr().out)["delta_theta_rad"])

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--line-map", "--observed"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, flag, value):
        argv, _ = self._setup(tmp_path)
        i = next(i for i, a in enumerate(argv) if a.startswith(flag + "="))
        argv[i] = f"{flag}={value}," + argv[i].split(",", 1)[1]
        assert main(argv) == 2
        assert f"{flag} contains a non-finite value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "arg,message",
        [
            ("--line-map=1,2,3", "--line-map needs 4 comma-separated numbers, got 3"),
            ("--observed=a,b,c,d", "--observed contains a non-numeric value: 'a,b,c,d'"),
        ],
    )
    def test_malformed_numbers_exit_2(self, tmp_path, capsys, arg, message):
        argv, _ = self._setup(tmp_path)
        flag = arg.split("=")[0]
        argv[next(i for i, a in enumerate(argv) if a.startswith(flag + "="))] = arg
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    def test_text_output(self, tmp_path, capsys):
        argv, _ = self._setup(tmp_path)
        argv.remove("--json")
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "delta_theta_rad=" in out and "t1=" in out and "length_discrepancy=" in out
