import json
import math
import os
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radialcal.calibration import CalibrationResult, CorrespondenceSet, OptimizerOptions, calibrate, objective
from radialcal.distortion import DistortionSpec, Model
from radialcal.fileio import (
    ParseError,
    fmt,
    read_calibration,
    read_correspondences,
    read_points,
    read_pose,
    read_scene_truth,
    read_synth_spec,
    write_calibration,
    write_correspondences,
    write_points,
    write_pose,
    write_scene_truth,
)
from radialcal.geometry import IntrinsicMatrix, ViewExtrinsics
from radialcal.synth import PoseRanges, SynthSpec

import oracles
from conftest import make_scene, split_views

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)


class TestFloatFormatting:
    @given(finite_floats)
    def test_seventeen_digit_round_trip_is_lossless(self, x):
        assert float(fmt(x)) == x


class TestCorrespondenceCsv:
    def test_round_trip(self, tmp_path):
        corr, _ = make_scene(1, noise_sigma=0.3)
        path = tmp_path / "corr.csv"
        write_correspondences(path, corr)
        back = read_correspondences(path)
        assert back.n_views == corr.n_views
        for v0, v1 in zip(split_views(corr), split_views(back)):
            assert v0.view_id == v1.view_id
            assert np.array_equal(v0.world_xy, v1.world_xy)
            assert np.array_equal(v0.pixels, v1.pixels)

    @pytest.mark.parametrize(
        "view_ids",
        [(-3, -1, -2), (40, 7, 2), (2**70 + 1, -(2**64), 5)],
        ids=["negative", "unsorted", "beyond-64-bits"],
    )
    def test_write_read_write_is_byte_identical(self, tmp_path, view_ids):
        xy = np.random.default_rng(8).normal(0.0, 100.0, (9, 4))
        corr = CorrespondenceSet(view_ids, xy[:, :2], xy[:, 2:], [0, 4, 5, 9])
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_correspondences(first, corr)
        back = read_correspondences(first)
        write_correspondences(second, back)
        assert second.read_bytes() == first.read_bytes()
        assert back.view_ids == view_ids
        assert back.offsets.tolist() == [0, 4, 5, 9]
        assert _bits(back.world) == _bits(corr.world) and _bits(back.pixels) == _bits(corr.pixels)

    def test_accepts_crlf(self, tmp_path):
        path = tmp_path / "corr.csv"
        rows = ["view_id,Xw,Yw,ud,vd", "0,0.5,1.5,100.25,200.5", "0,1,2,3,4"]
        path.write_bytes(("\r\n".join(rows) + "\r\n").encode())
        (view,) = split_views(read_correspondences(path))
        assert view.n_points == 2
        assert view.world_xy[0, 1] == 1.5

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "corr.csv"
        path.write_text("view_id,Xw,Yw,ud,vd\n0,1,2,3,4\n0,oops,2,3,4\n")
        with pytest.raises(ParseError, match="line 3"):
            read_correspondences(path)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = tmp_path / "corr.csv"
        path.write_text("view_id,Xw,Yw,ud,vd\n0,1,2,3\n")
        with pytest.raises(ParseError, match="line 2"):
            read_correspondences(path)

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "corr.csv"
        path.write_text("0,1,2,3,4\n")
        with pytest.raises(ParseError, match="header"):
            read_correspondences(path)

    def test_empty_data_rejected(self, tmp_path):
        path = tmp_path / "corr.csv"
        path.write_text("view_id,Xw,Yw,ud,vd\n")
        with pytest.raises(ParseError):
            read_correspondences(path)

    @pytest.mark.parametrize("view_id", ["1.5", "x", "1e3", ""])
    def test_non_integer_view_id_names_line(self, tmp_path, view_id):
        path = tmp_path / "corr.csv"
        path.write_text(f"view_id,Xw,Yw,ud,vd\n0,1,2,3,4\n\n{view_id},1,2,3,4\n0,1,2,3,4\n")
        with pytest.raises(ParseError, match="^line 4: "):
            read_correspondences(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_coordinate_names_line(self, tmp_path, value):
        path = tmp_path / "corr.csv"
        path.write_text(f"view_id,Xw,Yw,ud,vd\n0,1,2,3,4\n0,1,2,{value},4\n")
        with pytest.raises(ParseError, match="^line 3: non-finite coordinate"):
            read_correspondences(path)

    def test_interleaved_views_grouped_in_first_appearance_order(self, tmp_path):
        path = tmp_path / "corr.csv"
        rows = ["7,0,0,1,1", "2,0,1,2,2", "7,1,0,3,3", "-4,1,1,4,4", "2,2,2,5,5", "7,3,3,6,6"]
        path.write_text("view_id,Xw,Yw,ud,vd\n" + "\n".join(rows) + "\n")
        views = split_views(read_correspondences(path))
        assert [v.view_id for v in views] == [7, 2, -4]
        assert views[0].pixels[:, 0].tolist() == [1.0, 3.0, 6.0]
        assert views[0].world_xy.tolist() == [[0.0, 0.0], [1.0, 0.0], [3.0, 3.0]]
        assert views[1].pixels[:, 1].tolist() == [2.0, 5.0]
        assert views[2].world_xy.tolist() == [[1.0, 1.0]]

    def test_huge_view_id_kept_exactly(self, tmp_path):
        path = tmp_path / "corr.csv"
        big = 2**70 + 1
        path.write_text(f"view_id,Xw,Yw,ud,vd\n{big},1,2,3,4\n")
        assert read_correspondences(path).view_ids == (big,)

    @pytest.mark.parametrize("field", ["1.5", "1e3", "1.0", str(2**70 + 1), str(-(2**63) - 1)])
    def test_view_id_exact_or_refused_with_warnings_ignored(self, tmp_path, field):
        # Warnings are ignored outside the tests; a view id must still read
        # as int reads it, or be refused.
        path = tmp_path / "corr.csv"
        path.write_text(f"view_id,Xw,Yw,ud,vd\n{field},1,2,3,4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            if "." in field or "e" in field:
                with pytest.raises(ParseError, match="line 2: view_id .* is not an integer"):
                    read_correspondences(path)
            else:
                assert read_correspondences(path).view_ids == (int(field),)

    def test_id_that_loadtxt_casts_via_float_is_refused(self, tmp_path, monkeypatch):
        # From numpy 1.23, while the deprecation lasts, loadtxt reads "1.5"
        # in an int64 field as the float's cast, 1, and only warns.
        def casting_loadtxt(body, dtype, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return np.array([(1, (1.0, 2.0, 3.0, 4.0))], dtype=dtype)

        monkeypatch.setattr(np, "loadtxt", casting_loadtxt)
        path = tmp_path / "corr.csv"
        path.write_text("view_id,Xw,Yw,ud,vd\n1.5,1,2,3,4\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ParseError, match="line 2: view_id '1.5' is not an integer"):
                read_correspondences(path)

    def test_blank_lines_and_padded_fields_accepted(self, tmp_path):
        path = tmp_path / "corr.csv"
        path.write_text("view_id,Xw,Yw,ud,vd\n\n 3 , 0.5,1.5 ,\t2,4\n   \n3,1,2,3,4\n\n")
        (view,) = split_views(read_correspondences(path))
        assert view.view_id == 3
        assert view.world_xy.tolist() == [[0.5, 1.5], [1.0, 2.0]]
        assert view.pixels.tolist() == [[2.0, 4.0], [3.0, 4.0]]

    def test_bytes_match_per_row_fmt(self, tmp_path):
        corr, _ = make_scene(4, noise_sigma=0.3)
        path = tmp_path / "corr.csv"
        write_correspondences(path, corr)
        rows = ["view_id,Xw,Yw,ud,vd"] + [
            f"{view.view_id},{fmt(xw)},{fmt(yw)},{fmt(ud)},{fmt(vd)}"
            for view in split_views(corr)
            for (xw, yw), (ud, vd) in zip(view.world_xy, view.pixels)
        ]
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


class TestPointsCsv:
    def test_round_trip(self, tmp_path):
        pts = np.array([[1.25, -3.5], [math.pi, 1e-17]])
        path = tmp_path / "pts.csv"
        write_points(path, pts)
        assert np.array_equal(read_points(path), pts)

    def test_empty(self, tmp_path):
        path = tmp_path / "pts.csv"
        write_points(path, np.empty((0, 2)))
        out = read_points(path)
        assert out.shape == (0, 2)

    @pytest.mark.parametrize("text", ["", "\n1,2\n", "1,2\n3,4\n", "x,y\n1,2\n"])
    def test_header_required(self, tmp_path, text):
        path = tmp_path / "pts.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match="^line 1: expected header 'u,v'"):
            read_points(path)

    def test_bad_field_deep_in_file_names_line(self, tmp_path):
        rows = [f"{i},{i + 0.5}" for i in range(1500)]
        rows[999] = "999,oops"
        path = tmp_path / "pts.csv"
        path.write_text("u,v\n" + "\n".join(rows) + "\n")
        with pytest.raises(ParseError, match="^line 1001: non-numeric point in '999,oops'$"):
            read_points(path)

    # "1,2,3" then "4" holds 2 rows' worth of fields: only a per-line count sees it.
    @pytest.mark.parametrize("row", ["1,2,3", "1", "1;2", "1,2,", "1,2,3\n4"])
    def test_wrong_field_count_names_line(self, tmp_path, row):
        path = tmp_path / "pts.csv"
        path.write_text(f"u,v\n1,2\n{row}\n")
        with pytest.raises(ParseError, match="^line 3: "):
            read_points(path)

    def test_first_faulty_line_is_named(self, tmp_path):
        # Two faults of different kinds: the earlier line is the one named.
        path = tmp_path / "pts.csv"
        path.write_text("u,v\n1,2\n1,x\n1,2,3\n")
        with pytest.raises(ParseError, match="^line 3: non-numeric"):
            read_points(path)
        path.write_text("u,v\n1,2\n1,2,3\n1,x\n")
        with pytest.raises(ParseError, match="^line 3: expected 2 comma-separated fields, got 3"):
            read_points(path)

    def test_blank_lines_and_padded_fields_accepted(self, tmp_path):
        path = tmp_path / "pts.csv"
        path.write_bytes(b"u,v\r\n\r\n 1.5 ,\t-2\r\n  \r\nnan,inf\r\n\r\n")
        out = read_points(path)
        assert out[0].tolist() == [1.5, -2.0]
        assert math.isnan(out[1, 0]) and out[1, 1] == math.inf
        assert out.shape == (2, 2)

    def test_bytes_match_per_row_fmt(self, tmp_path):
        # The one-shot writer must render exactly what fmt renders per value.
        rng = np.random.default_rng(21)
        cases = [
            rng.normal(size=(500, 2)) * 10.0 ** rng.integers(-30, 30, (500, 2)),
            np.array([[-0.0, 0.0], [math.nan, math.nan], [1e-17, -5e300], [math.pi, 2.5]]),
            np.empty((0, 2)),
        ]
        path = tmp_path / "pts.csv"
        for pts in cases:
            write_points(path, pts)
            rows = ["u,v"] + [f"{fmt(u)},{fmt(v)}" for u, v in pts]
            assert path.read_bytes() == ("\n".join(rows) + "\n").encode()


# Field texts for the reader parity test, by kind: "plain" texts parse by
# np.loadtxt (lossless 17-digit doubles, subnormals among them, padded
# values); "odd" ones parse by float() and int() but not by np.loadtxt
# (underscores, non-ASCII digits, ids beyond 64 bits); "bad" ones by neither.
_NUMBER_TEXTS = {
    "plain": st.one_of(
        st.floats(allow_nan=False, allow_infinity=False, width=64).map(fmt),
        st.floats(min_value=-2.3e-308, max_value=2.3e-308).map(fmt),
        st.sampled_from(["-0", "0", " 1.5 ", "\t-2", "+.5", "5.", "1E3", "4.9e-324"]),
    ),
    "special": st.sampled_from(["nan", "-nan", "NaN", "inf", "-inf", "Infinity", "-Infinity", "+inf", "1e400"]),
    "odd": st.sampled_from(["1_000", "\u0661\u0662", "\uff13.5", "\u00a02"]),
    "bad": st.sampled_from(["x", "", "1e", "1.5.2", "0x10", "1 2"]),
}
_ID_TEXTS = {
    "plain": st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["+3", " 3 ", "007", "-0", str(2**63 - 1)])),
    "special": _NUMBER_TEXTS["special"],
    "odd": st.sampled_from([str(2**70 + 1), str(-(2**63) - 1), "1_000", "\u0663"]),
    "bad": st.sampled_from(["1.0", "1.5", "1e3", "x", ""]),
}


@st.composite
def csv_bodies(draw, header: str) -> str:
    """``header``, then up to six rows of plain fields, up to two of which
    are replaced by fields of one other kind; blank, whitespace-only or short
    lines go among them, and the lines end in LF or CRLF."""
    width = header.count(",") + 1
    texts = [_ID_TEXTS if header.startswith("view_id") and j == 0 else _NUMBER_TEXTS for j in range(width)]
    rows = [[draw(texts[j]["plain"]) for j in range(width)] for _ in range(draw(st.integers(0, 6)))]
    kind = draw(st.sampled_from(["plain", "special", "odd", "bad"]))
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
        rows[i][j] = draw(texts[j][kind])
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        extra = draw(st.sampled_from(["", "", "  ", "\t", "1,2,3", "1"]))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join([header, *lines]) + draw(st.sampled_from(["", eol]))


def _outcome(reader, path):
    """What reader makes of path: its value, or its ParseError's message and line."""
    try:
        return reader(path)
    except ParseError as exc:
        return ("ParseError", str(exc), exc.line)


def _bits(a: np.ndarray) -> list:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64).tolist()


class TestReaderParity:
    """The one-pass readers against a per-line reference parse: the same
    files accepted, the same float64 bits and view grouping, and the same
    ParseError, line included, for a refused file."""

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(csv_bodies("view_id,Xw,Yw,ud,vd"))
    def test_correspondences(self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "parity_corr.csv"
        path.write_bytes(body.encode())
        got, want = _outcome(read_correspondences, path), _outcome(oracles.read_correspondences, path)
        if isinstance(want, tuple):
            assert isinstance(got, tuple) and got == want
            return
        got = split_views(got)
        assert [v.view_id for v in got] == [v.view_id for v in want]
        for a, b in zip(got, want):
            assert _bits(a.world_xy) == _bits(b.world_xy)
            assert _bits(a.pixels) == _bits(b.pixels)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(csv_bodies("u,v"))
    def test_points(self, tmp_path_factory, body):
        path = tmp_path_factory.getbasetemp() / "parity_pts.csv"
        path.write_bytes(body.encode())
        got, want = _outcome(read_points, path), _outcome(oracles.read_points, path)
        if isinstance(want, tuple):
            assert isinstance(got, tuple) and got == want
            return
        assert got.shape == want.shape
        assert _bits(got) == _bits(want)


@pytest.mark.parametrize("reader", [read_points, read_correspondences])
@pytest.mark.parametrize("content", [b"\xff\xfeu\x00,\x00v\x00", b"u,v\n1,2\n\xe9,3\n"])
def test_csv_bytes_that_are_not_utf8_are_parse_error(tmp_path, reader, content):
    path = tmp_path / "table.csv"
    path.write_bytes(content)
    with pytest.raises(ParseError, match="table.csv: .*can't decode"):
        reader(path)


class TestCalibrationJson:
    def test_round_trip_and_objective_recompute(self, tmp_path):
        corr, _ = make_scene(7, noise_sigma=0.25)
        opts = OptimizerOptions()
        result = calibrate(corr, Model.MODEL3, opts)
        path = tmp_path / "calib.json"
        write_calibration(path, result)

        calib = read_calibration(path)
        assert calib.distortion == result.distortion
        assert calib.intrinsics == result.intrinsics
        assert calib.view_ids == result.view_ids
        assert calib.options == opts
        for e0, e1 in zip(result.extrinsics, calib.extrinsics):
            assert np.array_equal(e0.axis_angle, e1.axis_angle)
            assert np.array_equal(e0.t, e1.t)

        J = objective(corr, calib.intrinsics, calib.distortion, calib.extrinsics)
        assert abs(J - calib.j_final) <= 1e-9 * max(1.0, calib.j_final)

    def test_read_back_record_equals_the_fit(self, tmp_path):
        # Every field but the residuals, which the file does not store;
        # the poses to the bit, and the options the fit ran with.
        corr, _ = make_scene(7, noise_sigma=0.25)
        opts = OptimizerOptions(tol_x=1e-7, tol_fun=1e-8, max_iter=60)
        fit = calibrate(corr, Model.MODEL3, opts)
        path = tmp_path / "calib.json"
        write_calibration(path, fit)
        calib = read_calibration(path)
        assert type(calib) is CalibrationResult
        assert calib.per_point_residuals is None
        assert calib.options == fit.options == opts
        assert calib.poses.shape == (corr.n_views, 6) and not calib.poses.flags.writeable
        assert calib.poses.tobytes() == fit.poses.tobytes()
        for field in fields(CalibrationResult):
            if field.name not in ("poses", "per_point_residuals"):
                assert getattr(calib, field.name) == getattr(fit, field.name), field.name

    def test_file_without_views_options_or_outcome_reads(self, tmp_path):
        # The shape of the repository benchmark's calibration files.
        data = {
            "model": "model3", "k1": -0.1, "k2": -0.05,
            "intrinsics": {"alpha": 520.0, "beta": 515.0, "gamma": 0.4, "u0": 321.5, "v0": 239.0},
            "views": [], "J_final": 0.0, "rms_px": 0.0,
        }
        path = tmp_path / "calib.json"
        path.write_text(json.dumps(data))
        calib = read_calibration(path)
        assert calib.poses.shape == (0, 6)
        assert calib.view_ids == calib.extrinsics == ()
        assert calib.options == OptimizerOptions()
        assert (calib.converged, calib.stop_reason, calib.n_iterations, calib.j_init) == (None,) * 4

    def test_schema_field_names(self, tmp_path):
        corr, _ = make_scene(8)
        opts = OptimizerOptions()
        result = calibrate(corr, Model.MODEL2, opts)
        path = tmp_path / "calib.json"
        write_calibration(path, result)
        data = json.loads(path.read_text())
        assert set(data) == {
            "model", "k1", "k2", "intrinsics", "views", "J_init", "J_final", "rms_px",
            "converged", "stop_reason", "n_iterations", "options",
        }
        assert data["model"] == "model2"
        assert data["k2"] == 0.0
        assert set(data["intrinsics"]) == {"alpha", "beta", "gamma", "u0", "v0"}
        assert set(data["views"][0]) == {"view_id", "axis_angle", "t"}
        assert set(data["options"]) == {"tol_x", "tol_fun", "max_iter"}

    def test_former_evaluation_cap_is_ignored(self, tmp_path):
        # Files written while the LM had an evaluation cap hold it among
        # the options; they read, with every other option as written.
        corr, _ = make_scene(8, noise_sigma=0.5)
        opts = OptimizerOptions(tol_x=2e-6, tol_fun=3e-6, max_iter=7)
        result = calibrate(corr, Model.MODEL2, opts)
        path = tmp_path / "calib.json"
        write_calibration(path, result)
        data = json.loads(path.read_text())
        data["options"]["max_fun_evals"] = 8000
        path.write_text(json.dumps(data))
        back = read_calibration(path)
        assert back.options == opts
        assert (back.j_final, back.n_iterations, back.stop_reason) == (
            result.j_final, result.n_iterations, result.stop_reason
        )

    def test_records_how_the_refinement_ended(self, tmp_path):
        # An iteration cap stops the fit unconverged; the file says so, and
        # writing the same result again gives the same bytes.
        corr, _ = make_scene(8, noise_sigma=0.5)
        opts = OptimizerOptions(max_iter=2, tol_x=1e-14, tol_fun=1e-14)
        result = calibrate(corr, Model.MODEL3, opts)
        paths = tmp_path / "a.json", tmp_path / "b.json"
        for path in paths:
            write_calibration(path, result)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        calib = read_calibration(paths[0])
        assert (calib.converged, calib.stop_reason, calib.n_iterations) == (
            False, "iteration limit reached", 2,
        )
        assert calib.j_init == result.j_init > calib.j_final

    def test_file_without_the_refinement_outcome_still_reads(self, tmp_path):
        corr, _ = make_scene(8)
        opts = OptimizerOptions()
        path = tmp_path / "calib.json"
        write_calibration(path, calibrate(corr, Model.MODEL2, opts))
        data = json.loads(path.read_text())
        for key in ("J_init", "converged", "stop_reason", "n_iterations"):
            del data[key]
        path.write_text(json.dumps(data))
        calib = read_calibration(path)
        assert (calib.converged, calib.stop_reason, calib.n_iterations, calib.j_init) == (None,) * 4
        assert calib.j_final == data["J_final"]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("converged", "yes", "converged must be true or false"),
            ("stop_reason", 3, "stop_reason must be a string"),
            ("n_iterations", 2.5, "n_iterations must be an integer"),
        ],
    )
    def test_mistyped_refinement_outcome_is_parse_error(self, tmp_path, key, value, message):
        corr, _ = make_scene(8)
        opts = OptimizerOptions()
        path = tmp_path / "calib.json"
        write_calibration(path, calibrate(corr, Model.MODEL2, opts))
        data = json.loads(path.read_text())
        data[key] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=message):
            read_calibration(path)

    @pytest.mark.parametrize("key", ["tol_x", "tol_fun"])
    def test_non_finite_tolerance_is_parse_error(self, tmp_path, key):
        corr, _ = make_scene(8)
        opts = OptimizerOptions()
        path = tmp_path / "calib.json"
        write_calibration(path, calibrate(corr, Model.MODEL2, opts))
        data = json.loads(path.read_text())
        data["options"][key] = math.nan
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="tolerances must be finite and positive"):
            read_calibration(path)

    def test_invalid_json_is_parse_error(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            read_calibration(path)

    def test_missing_field_is_parse_error(self, tmp_path):
        path = tmp_path / "calib.json"
        path.write_text(json.dumps({"model": "model3"}))
        with pytest.raises(ParseError):
            read_calibration(path)

    @pytest.mark.parametrize(
        "reader", [read_calibration, read_pose, read_synth_spec, read_scene_truth]
    )
    @pytest.mark.parametrize("content", [b"[]", b"3", b'"x"', b"null", b"\xff{}"])
    def test_json_that_is_not_an_object_is_parse_error(self, tmp_path, reader, content):
        path = tmp_path / "file.json"
        path.write_bytes(content)
        with pytest.raises(ParseError, match="file.json: "):
            reader(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("axis_angle", [0.1, 0.0]),
            ("axis_angle", [[0.1], [0.0], [0.0]]),
            ("axis_angle", 0.1),
            ("axis_angle", "abc"),
            ("axis_angle", None),
            ("t", [0.0, math.nan, -1.0]),
            ("t", [0.0, 0.0, math.inf]),
            ("t", {"x": 0.0}),
        ],
    )
    def test_malformed_pose_is_parse_error(self, tmp_path, key, value):
        # Refused as a ViewExtrinsics built from the view would refuse it.
        views = [
            {"view_id": 3, "axis_angle": [0.1, 0.0, 0.0], "t": [0.0, 0.0, -1.0]},
            {"view_id": 4, "axis_angle": [0.2, 0.0, 0.0], "t": [0.0, 0.5, -1.0]},
        ]
        data = {
            "model": "model2", "k1": -0.2, "k2": 0.0,
            "intrinsics": {"alpha": 800, "beta": 800, "gamma": 0, "u0": 320, "v0": 240},
            "views": views, "J_final": 1.0, "rms_px": 0.1,
        }
        path = tmp_path / "calib.json"
        path.write_text(json.dumps(data))
        assert read_calibration(path).poses.tolist() == [[*v["axis_angle"], *v["t"]] for v in views]
        views[1][key] = value
        with pytest.raises((TypeError, ValueError)):
            ViewExtrinsics(np.asarray(views[1]["axis_angle"], dtype=float), np.asarray(views[1]["t"], dtype=float))
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="invalid calibration file"):
            read_calibration(path)

    @pytest.mark.parametrize(
        "where, key, value",
        [
            ("view", "view_id", 1.5),
            ("options", "max_iter", 120.5),
        ],
    )
    def test_non_integral_integer_field_is_parse_error(self, tmp_path, where, key, value):
        data = {
            "model": "model2",
            "k1": -0.2,
            "k2": 0.0,
            "intrinsics": {"alpha": 800, "beta": 800, "gamma": 0, "u0": 320, "v0": 240},
            "views": [{"view_id": 3, "axis_angle": [0.1, 0.0, 0.0], "t": [0.0, 0.0, -1.0]}],
            "J_final": 1.0,
            "rms_px": 0.1,
            "options": {"tol_x": 1e-5, "tol_fun": 1e-5, "max_iter": 120.0},
        }
        path = tmp_path / "calib.json"
        path.write_text(json.dumps(data))
        assert read_calibration(path).options.max_iter == 120
        (data["views"][0] if where == "view" else data["options"])[key] = value
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match=f"{key} must be an integer, got {value!r}"):
            read_calibration(path)


class TestPoseAndSpecJson:
    MINIMAL_SPEC = {
        "seed": 5,
        "intrinsics": {"alpha": 800, "beta": 800, "gamma": 0, "u0": 320, "v0": 240},
        "distortion": {"model": "model2", "k1": -0.2},
    }

    def test_pose_round_trip(self, tmp_path):
        pose = ViewExtrinsics(np.array([0.1, -0.2, 0.3]), np.array([1.0, 2.0, 3.0]))
        path = tmp_path / "pose.json"
        write_pose(path, pose)
        back = read_pose(path)
        assert np.array_equal(back.axis_angle, pose.axis_angle)
        assert np.array_equal(back.t, pose.t)

    def test_synth_spec_defaults(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "seed": 5,
                    "intrinsics": {"alpha": 800, "beta": 800, "gamma": 0, "u0": 320, "v0": 240},
                    "distortion": {"model": "model2", "k1": -0.2},
                }
            )
        )
        spec = read_synth_spec(path)
        assert spec.seed == 5
        assert spec.grid_nx == 8 and spec.grid_ny == 8
        assert spec.n_views == 3
        assert spec.noise_sigma == 0.0
        assert spec.distortion.k2 == 0.0
        assert spec.pose == PoseRanges()

    def test_synth_spec_defaults_are_the_dataclass_defaults(self, tmp_path):
        A = IntrinsicMatrix(800.0, 790.0, 0.5, 320.0, 240.0)
        D = DistortionSpec(Model.MODEL3, -0.2, 0.05)
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "seed": 9,
                    "intrinsics": {"alpha": 800, "beta": 790, "gamma": 0.5, "u0": 320, "v0": 240},
                    "distortion": {"model": "model3", "k1": -0.2, "k2": 0.05},
                }
            )
        )
        assert read_synth_spec(path) == SynthSpec(9, A, D)

    def test_synth_spec_full(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "seed": 1,
                    "grid": {"nx": 5, "ny": 6, "spacing": 0.1},
                    "views": 4,
                    "noise_sigma": 0.25,
                    "intrinsics": {"alpha": 700, "beta": 710, "gamma": 0.1, "u0": 300, "v0": 220},
                    "distortion": {"model": "model1", "k1": -0.3, "k2": 0.1},
                    "pose": {"distance": [1.0, 1.2], "tilt_deg": [5, 20], "offset": [-0.05, 0.05]},
                }
            )
        )
        spec = read_synth_spec(path)
        assert (spec.grid_nx, spec.grid_ny, spec.spacing) == (5, 6, 0.1)
        assert spec.n_views == 4
        assert spec.pose.distance == (1.0, 1.2)

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 5.9},
            {"seed": math.inf},
            {"seed": math.nan},
            {"views": 3.5},
            {"grid": {"nx": 5.5}},
            {"grid": {"ny": 6.000001}},
        ],
    )
    def test_synth_spec_non_integral_integer_field_is_parse_error(self, tmp_path, change):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**self.MINIMAL_SPEC, **change}))
        with pytest.raises(ParseError, match="must be an integer"):
            read_synth_spec(path)

    @pytest.mark.parametrize("change", [{"grid": [8, 8]}, {"pose": []}, {"distortion": "model2"}])
    def test_synth_spec_part_that_is_not_an_object_is_parse_error(self, tmp_path, change):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**self.MINIMAL_SPEC, **change}))
        with pytest.raises(ParseError, match="invalid synth spec"):
            read_synth_spec(path)

    def test_synth_spec_integral_float_accepted(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps(
                {
                    "seed": 5.0,
                    "views": 4.0,
                    "intrinsics": {"alpha": 800, "beta": 800, "gamma": 0, "u0": 320, "v0": 240},
                    "distortion": {"model": "model2", "k1": -0.2},
                }
            )
        )
        spec = read_synth_spec(path)
        assert (spec.seed, spec.n_views) == (5, 4)
        assert type(spec.seed) is int and type(spec.n_views) is int

    def test_scene_truth_non_integral_seed_is_parse_error(self, tmp_path):
        _, truth = make_scene(9)
        path = tmp_path / "truth.json"
        write_scene_truth(path, truth)
        data = json.loads(path.read_text())
        data["seed"] = 9.5
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError, match="seed must be an integer"):
            read_scene_truth(path)

    def test_scene_truth_round_trip(self, tmp_path):
        _, truth = make_scene(9, noise_sigma=0.1)
        path = tmp_path / "truth.json"
        write_scene_truth(path, truth)
        back = read_scene_truth(path)
        assert back.intrinsics == truth.intrinsics
        assert back.distortion == truth.distortion
        assert back.noise_sigma == truth.noise_sigma
        assert back.seed == truth.seed
        for e0, e1 in zip(truth.extrinsics, back.extrinsics):
            assert np.array_equal(e0.axis_angle, e1.axis_angle)


class TestAtomicity:
    def test_no_temp_files_left_behind(self, tmp_path):
        corr, _ = make_scene(10)
        write_correspondences(tmp_path / "corr.csv", corr)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o002])
    def test_written_file_takes_the_umask_mode(self, tmp_path, umask):
        path = tmp_path / "pts.csv"
        old = os.umask(umask)
        try:
            write_points(path, np.array([[1.0, 2.0]]))
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask
            # Overwriting keeps that mode, whatever the old file had.
            path.chmod(0o600)
            write_points(path, np.array([[3.0, 4.0]]))
            assert path.stat().st_mode & 0o777 == 0o666 & ~umask
            (tmp_path / "touched").touch()
            assert (tmp_path / "touched").stat().st_mode & 0o777 == 0o666 & ~umask
        finally:
            os.umask(old)

    def test_overwrite_replaces_whole_file(self, tmp_path):
        path = tmp_path / "pts.csv"
        write_points(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
        write_points(path, np.array([[9.0, 9.0]]))
        assert read_points(path).shape == (1, 2)
