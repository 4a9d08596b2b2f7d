"""Dataset loading, serialization round trips, geodetic helper, batching."""

import csv
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

import seqloc
from seqloc.geometry import CameraIntrinsics, Pose, Quaternion
from seqloc.ingest import (
    DatasetError,
    Frame,
    InvariantError,
    MalformedRecordError,
    MissingFileError,
    QuerySequence,
    Rig,
    batch,
    geodetic_to_local,
    load_dataset,
    match_file_path,
    read_match_file,
    save_dataset,
    write_match_file,
)

from helpers import pose_allclose, random_pose

K = CameraIntrinsics(fx=500, fy=500, cx=320, cy=240, width=640, height=480)


def make_frame(rng, frame_id, n_kp=5, with_desc=True, pose=None) -> Frame:
    kps = np.column_stack(
        [rng.uniform(0, K.width - 1, n_kp), rng.uniform(0, K.height - 1, n_kp)]
    )
    desc = None
    if with_desc:
        desc = rng.normal(size=(n_kp, 8))
        desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    return Frame(
        frame_id=frame_id,
        camera_id="cam0",
        intrinsics=K,
        pose=pose if pose is not None else random_pose(rng),
        keypoints=kps,
        descriptors=desc,
    )


def make_dataset(rng, n_queries=4, n_refs=3):
    rigs = []
    for i in range(n_queries):
        f = make_frame(rng, f"q{i:04d}")
        rigs.append(
            Rig(rig_id=f.frame_id, cameras=[("cam0", Pose.identity())],
                frames={"cam0": f}, pose=f.pose)
        )
    refs = [make_frame(rng, f"r{i:04d}") for i in range(n_refs)]
    return QuerySequence(rigs=rigs), refs


def single_camera_sequence(rng, frame_ids):
    rigs = []
    for frame_id in frame_ids:
        f = make_frame(rng, frame_id)
        rigs.append(
            Rig(rig_id=frame_id, cameras=[("cam0", Pose.identity())], frames={"cam0": f}, pose=f.pose)
        )
    return QuerySequence(rigs=rigs)


def exact_unit_vector(rng, dim=16):
    """Four entries of +-0.5: the norm is exactly 1, so loading keeps every bit."""
    g = np.zeros(dim)
    g[rng.choice(dim, 4, replace=False)] = rng.choice([-0.5, 0.5], 4)
    return g


def save_with_point_ids(rng, root):
    """A saved dataset whose frames carry every optional per-frame file; returns it."""
    seq, refs = make_dataset(rng)
    for f in refs + [r.frames["cam0"] for r in seq.rigs]:
        f.point_ids = rng.integers(0, 2**63 - 1, len(f.keypoints))
        f.global_descriptor = exact_unit_vector(rng)
    save_dataset(root, seq, refs)
    return seq, refs


def make_rig_dataset(rng, n_rigs=3, n_refs=3):
    """Two-camera rigs, cam1 moved and turned from cam0; returns (sequence, refs, rig_defs)."""
    cams = [("cam0", Pose.identity()), ("cam1", random_pose(rng, t_scale=0.2))]
    rigs = []
    for i in range(n_rigs):
        rig_pose = random_pose(rng)
        frames = {}
        for cid, extr in cams:
            f = make_frame(rng, f"q{i:04d}/{cid}", pose=rig_pose.compose(extr))
            f.camera_id = cid
            f.global_descriptor = exact_unit_vector(rng)
            frames[cid] = f
        rigs.append(Rig(rig_id=f"q{i:04d}", cameras=cams, frames=frames, pose=rig_pose))
    refs = [make_frame(rng, f"r{i:04d}") for i in range(n_refs)]
    return QuerySequence(rigs=rigs), refs, [("stereo", cams)]


def edit_cell(path, row, col, text):
    """Replace one cell of a CSV file (text may be a function of the rows); returns the old cell."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    old = rows[row][col]
    rows[row][col] = text(rows) if callable(text) else text
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return old


class TestRoundTrip:
    def test_poses_bit_exact(self, rng, tmp_path):
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        loaded_seqs, loaded_refs = load_dataset(tmp_path)
        assert len(loaded_seqs) == 1
        loaded = loaded_seqs[0]
        assert len(loaded) == len(seq)
        for orig, got in zip(seq.rigs, loaded.rigs):
            fo, fg = orig.frames["cam0"], got.frames["cam0"]
            assert fo.frame_id == fg.frame_id
            # bit-exact: every float identical
            assert (fo.pose.as_array7() == fg.pose.as_array7()).all()
            assert (fo.keypoints == fg.keypoints).all()
            # descriptors are stored as float32, the precision the matcher computes in
            np.testing.assert_allclose(fo.descriptors.astype(np.float32), fg.descriptors, rtol=0, atol=0)
        for fo, fg in zip(refs, loaded_refs):
            assert (fo.pose.as_array7() == fg.pose.as_array7()).all()

    def test_instance_numbers_order_as_integers(self, rng, tmp_path):
        save_dataset(tmp_path, single_camera_sequence(rng, ["q8", "q9", "q10"]), [make_frame(rng, "r0")])
        loaded, _ = load_dataset(tmp_path)
        assert [r.rig_id for r in loaded[0].rigs] == ["q8", "q9", "q10"]

    def test_covariance_round_trip(self, rng, tmp_path):
        seq, refs = make_dataset(rng)
        seq.covariance = np.diag([0.1, 0.2, 0.3, 0.01, 0.02, 0.03])
        save_dataset(tmp_path, seq, refs)
        loaded, _ = load_dataset(tmp_path)
        np.testing.assert_allclose(loaded[0].covariance, seq.covariance)

    def test_point_ids_and_global_descriptors_bit_exact(self, rng, tmp_path):
        seq, refs = save_with_point_ids(rng, tmp_path)
        loaded_seqs, loaded_refs = load_dataset(tmp_path)
        originals = refs + [r.frames["cam0"] for r in seq.rigs]
        loaded = loaded_refs + [r.frames["cam0"] for r in loaded_seqs[0].rigs]
        for fo, fg in zip(originals, loaded, strict=True):
            assert fg.point_ids.dtype == np.int64
            assert (fo.point_ids == fg.point_ids).all()
            assert (fo.global_descriptor == fg.global_descriptor).all()

    def test_match_file_bit_exact(self, tmp_path):
        rows = [(0, 3, 1.0), (2, 5, 0.1 + 0.2), (7, 1, 5e-324)]
        path = match_file_path(tmp_path, "q0001/cam1", "r0000")
        write_match_file(path, rows)
        idx_a, idx_b, scores = read_match_file(path)
        assert path.name == "q0001+cam1__r0000.csv"
        assert list(zip(idx_a.tolist(), idx_b.tolist(), scores.tolist())) == rows

    def test_header_only_match_file_warns_nothing(self, tmp_path):
        path = match_file_path(tmp_path, "qa", "rb")
        write_match_file(path, [])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            idx_a, idx_b, scores = read_match_file(path)
        assert caught == []
        assert (idx_a.shape, idx_a.dtype) == ((0,), np.int64)
        assert (scores.shape, scores.dtype) == ((0,), np.float64)


SAVE_AND_LOAD = """
import sys
import numpy as np
from seqloc.geometry import CameraIntrinsics, Pose
from seqloc.ingest import *
K = CameraIntrinsics(fx=500, fy=500, cx=320, cy=240, width=640, height=480)
frame = lambda i: Frame(f"f{i}", "cam0", K, Pose.identity(), np.full((2, 2), 9.5), np.eye(2), None, np.arange(2))
rigs = [Rig(f"f{i}", [("cam0", Pose.identity())], {"cam0": frame(i)}, Pose.identity()) for i in range(2)]
save_dataset(sys.argv[1], QuerySequence(rigs), [frame(9)])
load_dataset(sys.argv[1])
path = match_file_path(sys.argv[1], "f0", "f9")
write_match_file(path, [(0, 1, 0.5)])
read_match_file(path)
"""


def test_files_are_read_and_written_as_utf8(tmp_path):
    # Under warn_default_encoding, an open() that takes the locale's encoding warns.
    src = os.path.dirname(os.path.dirname(os.path.abspath(seqloc.__file__)))
    out = subprocess.run(
        [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
         "-c", SAVE_AND_LOAD, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr


class TestRigs:
    def test_two_camera_rig_round_trip(self, rng, tmp_path):
        seq, refs, rig_defs = make_rig_dataset(rng)
        save_dataset(tmp_path, seq, refs, rig_defs)
        loaded = load_dataset(tmp_path)[0][0]
        assert [r.rig_id for r in loaded.rigs] == [r.rig_id for r in seq.rigs]
        for orig, got in zip(seq.rigs, loaded.rigs):
            assert [c for c, _ in got.cameras] == ["cam0", "cam1"]
            for (_, eo), (_, eg) in zip(orig.cameras, got.cameras):
                assert (eo.as_array7() == eg.as_array7()).all()
            for cid, fo in orig.frames.items():
                assert (fo.pose.as_array7() == got.frames[cid].pose.as_array7()).all()
            assert pose_allclose(got.pose, orig.pose, atol=1e-12)

    def test_second_camera_off_its_rig_pose(self, rng, tmp_path):
        seq, refs, rig_defs = make_rig_dataset(rng)
        save_dataset(tmp_path, seq, refs, rig_defs)
        path = tmp_path / "queries" / "poses.csv"
        # Rows: header, then cam0 and cam1 of each instance; move q0001/cam1 by 1 cm in x.
        edit_cell(path, 4, 6, lambda rows: repr(float(rows[4][6]) + 0.01))
        with pytest.raises(InvariantError, match=r"'q0001/cam1' is 0\.01 m.*poses\.csv:5\]"):
            load_dataset(tmp_path)

    def test_rig_instance_faults_name_their_row(self, rng, tmp_path):
        save_dataset(tmp_path, *make_rig_dataset(rng))
        path = tmp_path / "queries" / "poses.csv"
        # Rows: header, then cam0 and cam1 of each instance; q0001/cam1 is row 4, line 5.
        edit_cell(path, 4, 1, "cam0")
        with pytest.raises(InvariantError, match=r"'q0001' repeats a camera.*poses\.csv:5\]"):
            load_dataset(tmp_path)
        for table in (path, tmp_path / "queries" / "global_descriptors.csv"):  # q0001 keeps cam0 alone
            lines = table.read_text().splitlines()
            table.write_text("\n".join(lines[:4] + lines[5:]) + "\n")
        with pytest.raises(InvariantError, match=r"no rig definition .* 'q0001'.*poses\.csv:4\]"):
            load_dataset(tmp_path)


    def test_repeated_rig_camera_row(self, rng, tmp_path):
        save_dataset(tmp_path, *make_rig_dataset(rng))
        path = tmp_path / "rig_extrinsics.csv"
        lines = path.read_text().splitlines()  # header, stereo/cam0, stereo/cam1
        path.write_text("\n".join(lines + ["stereo,cam1,1,0,0,0,0,0,5.0"]) + "\n")
        with pytest.raises(InvariantError, match=r"'cam1' of rig 'stereo' repeats.*rig_extrinsics\.csv:4\]"):
            load_dataset(tmp_path)


class TestLoadErrors:
    def test_empty_reference_dir(self, rng, tmp_path):
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        for p in (tmp_path / "references").rglob("*"):
            if p.is_file():
                p.unlink()
        with pytest.raises(InvariantError, match="no reference frames"):
            load_dataset(tmp_path)

    def test_instances_out_of_order(self, rng, tmp_path):
        save_dataset(tmp_path, single_camera_sequence(rng, ["q10", "q9"]), [make_frame(rng, "r0")])
        with pytest.raises(InvariantError, match=r"not in increasing order.*poses\.csv:3\]"):
            load_dataset(tmp_path)

    def test_missing_queries(self, rng, tmp_path):
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        (tmp_path / "queries" / "poses.csv").unlink()
        with pytest.raises(MissingFileError):
            load_dataset(tmp_path)

    def test_query_without_odometry_pose(self, rng, tmp_path):
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        path = tmp_path / "queries" / "poses.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[2][2:] = [""] * 7  # blank out frame q0001's pose
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        with pytest.raises(MalformedRecordError, match=r"queries/poses\.csv:3\]"):
            load_dataset(tmp_path)

    def test_reference_without_pose(self, rng, tmp_path):
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        path = tmp_path / "references" / "poses.csv"
        for col in range(2, 9):  # blank out frame r0001's pose
            edit_cell(path, 2, col, "")
        with pytest.raises(MalformedRecordError, match=r"field 'qw' = ''.*references/poses\.csv:3\]"):
            load_dataset(tmp_path)

    def test_missing_keypoints_file(self, rng, tmp_path):
        # Descriptors and point ids are optional; the keypoints file is not.
        save_with_point_ids(rng, tmp_path)
        for kind in ("descriptors", "point_ids"):
            (tmp_path / "queries" / kind / "q0002.npy").unlink()
        frame = load_dataset(tmp_path)[0][0].rigs[2].frames["cam0"]
        assert frame.descriptors is None and frame.point_ids is None and len(frame.keypoints) == 5
        (tmp_path / "queries" / "keypoints" / "q0002.npy").unlink()
        with pytest.raises(MissingFileError, match=r"keypoints/q0002\.npy\]"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("scale", [5.0, 0.99, 1e200])
    def test_descriptor_rows_must_be_unit(self, rng, tmp_path, scale):
        # 1 +- 1e-3 is the global descriptors' rule. A row within it loads as
        # written; scaled off it, the row raises at its row. In float32 the
        # largest scale is inf, whose norm is off too.
        save_with_point_ids(rng, tmp_path)
        path = tmp_path / "queries" / "descriptors" / "q0001.npy"
        saved = np.load(path)

        def write(factor):
            rows = saved.astype(np.float64)
            rows[2] *= factor  # keypoint 2's row
            with np.errstate(over="ignore"):
                rows = rows.astype(np.float32)
            np.save(path, rows)
            return rows

        want = write(1.0009)
        assert load_dataset(tmp_path)[0][0].rigs[1].frames["cam0"].descriptors.tobytes() == want.tobytes()
        write(scale)
        with pytest.raises(InvariantError, match=r"descriptor of q0001 has norm.*descriptors/q0001\.npy:2\]"):
            load_dataset(tmp_path)

    def test_keypoint_out_of_bounds(self, rng, tmp_path):
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        path = tmp_path / "queries" / "keypoints" / "q0000.npy"
        keypoints = np.load(path)
        keypoints[0, 0] = 100000.0
        np.save(path, keypoints)
        with pytest.raises(InvariantError, match="outside image bounds") as info:
            load_dataset(tmp_path)
        assert info.value.record == 0

    def test_malformed_pose_row(self, rng, tmp_path):
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        path = tmp_path / "references" / "poses.csv"
        cells = ((2, "not-a-number"), (3, "nan"), (6, "inf"), (8, "-inf"), (2, "1e300"))
        for col, cell in cells:
            original = edit_cell(path, 1, col, cell)
            with pytest.raises(MalformedRecordError, match=r"poses\.csv:2\]"):
                load_dataset(tmp_path)
            edit_cell(path, 1, col, original)
        load_dataset(tmp_path)

    def test_nan_translation(self, rng, tmp_path):
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        for col in (6, 7, 8):  # tx, ty, tz of frame q0002
            original = edit_cell(tmp_path / "queries" / "poses.csv", 3, col, "nan")
            with pytest.raises(DatasetError, match=r"queries/poses\.csv:4\]"):
                load_dataset(tmp_path)
            edit_cell(tmp_path / "queries" / "poses.csv", 3, col, original)

    def test_malformed_intrinsics_row(self, rng, tmp_path):
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        path = tmp_path / "queries" / "intrinsics.csv"
        for col, cell in ((1, "x"), (5, "inf"), (6, "1e400"), (5, "640.9"), (6, "1e300")):
            original = edit_cell(path, 1, col, cell)
            with pytest.raises(MalformedRecordError, match=r"intrinsics\.csv:2\]"):
                load_dataset(tmp_path)
            edit_cell(path, 1, col, original)
        load_dataset(tmp_path)

    def test_repeated_intrinsics_camera_row(self, rng, tmp_path):
        save_dataset(tmp_path, *make_dataset(rng))
        path = tmp_path / "queries" / "intrinsics.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + ["cam0,400,400,320,240,640,480"]) + "\n")
        with pytest.raises(InvariantError, match=rf"'cam0' repeats.*intrinsics\.csv:{len(lines) + 1}\]"):
            load_dataset(tmp_path)

    def test_bad_covariance(self, rng, tmp_path):
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        path = tmp_path / "queries" / "odometry_covariance.csv"
        for cell, error, match in (
            (None, InvariantError, "positive definite"),
            ("abc", MalformedRecordError, "bad covariance value"),
            ("nan", MalformedRecordError, "not finite"),
            ("inf", MalformedRecordError, "not finite"),
        ):
            np.savetxt(path, -np.eye(6), delimiter=",")
            if cell is not None:
                edit_cell(path, 2, 3, cell)  # row 2 of a file without a header: line 3
            with pytest.raises(error, match=match) as info:
                load_dataset(tmp_path)
            assert info.value.record == (None if cell is None else 3)

    @pytest.mark.parametrize("cell", ["1_5", "\u0661"])
    def test_number_only_python_reads_in_poses(self, rng, tmp_path, cell):
        # float() reads these as 15.0 and 1.0; the numeric files' grammar does not.
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        edit_cell(tmp_path / "queries" / "poses.csv", 1, 6, cell)  # tx of the first row
        with pytest.raises(MalformedRecordError, match=r"field 'tx' = .*queries/poses\.csv:2\]") as info:
            load_dataset(tmp_path)
        assert info.value.record == 2

    @pytest.mark.parametrize("cell", ["1_5", "\u0661"])
    def test_number_only_python_reads_in_covariance(self, rng, tmp_path, cell):
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        path = tmp_path / "queries" / "odometry_covariance.csv"
        np.savetxt(path, np.eye(6), delimiter=",")
        edit_cell(path, 2, 2, cell)  # the diagonal of row 2, on line 3
        with pytest.raises(MalformedRecordError, match="bad covariance value") as info:
            load_dataset(tmp_path)
        assert info.value.record == 3

    @pytest.mark.parametrize("junk", [b"\xff\xfe", b"x" * 200_000, b"x" * 300])
    def test_unreadable_table(self, rng, tmp_path, junk):
        # Bytes that are not UTF-8, and frame ids too long for a file name.
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        path = tmp_path / "references" / "poses.csv"
        path.write_bytes(path.read_bytes().replace(b"r0001", junk))
        with pytest.raises(MalformedRecordError, match=r"references/poses\.csv:3\]"):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "table, row, col",
        [
            ("queries/global_descriptors.csv", 1, 1),
            ("queries/poses.csv", 1, 6),
            ("queries/poses.csv", 2, 6),
            ("rig_extrinsics.csv", 2, 6),
        ],
    )
    def test_huge_finite_cell(self, rng, tmp_path, table, row, col):
        # Squares overflow: the check must fail without a numpy warning.
        save_dataset(tmp_path, *make_rig_dataset(rng))
        edit_cell(tmp_path / table, row, col, "1e200")
        with pytest.raises(InvariantError):
            load_dataset(tmp_path)

    def test_non_finite_global_descriptor(self, rng, tmp_path):
        save_with_point_ids(rng, tmp_path)
        edit_cell(tmp_path / "queries" / "global_descriptors.csv", 2, 3, "nan")
        with pytest.raises(MalformedRecordError, match=r"global_descriptors\.csv:3\]"):
            load_dataset(tmp_path)

    def test_global_descriptor_of_unknown_frame(self, rng, tmp_path):
        save_with_point_ids(rng, tmp_path)
        edit_cell(tmp_path / "queries" / "global_descriptors.csv", 2, 0, "q9999")
        with pytest.raises(InvariantError, match=r"'q9999'.*global_descriptors\.csv:3\]"):
            load_dataset(tmp_path)

    def test_repeated_global_descriptor(self, rng, tmp_path):
        save_with_point_ids(rng, tmp_path)
        path = tmp_path / "references" / "global_descriptors.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[1]]) + "\n")
        locus = rf"global_descriptors\.csv:{len(lines) + 1}\]"
        with pytest.raises(InvariantError, match="'r0000'.*" + locus):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("col, cell", [(2, "nan"), (0, "1.5"), (0, "x"), (1, "")])
    def test_malformed_match_row(self, tmp_path, col, cell):
        path = match_file_path(tmp_path, "qa", "rb")
        write_match_file(path, [(0, 3, 1.0), (2, 5, 0.9)])
        edit_cell(path, 2, col, cell)
        with pytest.raises(MalformedRecordError, match=r"matches/qa__rb\.csv:3\]"):
            read_match_file(path)

    def test_errors_are_dataset_errors(self):
        with pytest.raises(DatasetError):
            load_dataset("/nonexistent/nowhere")


def npy_bytes(array, allow_pickle=False, version=None) -> bytes:
    """The bytes np.save writes for array, or np.lib.format in the given format version."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.asanyarray(array), version, allow_pickle)
    return buf.getvalue()


def edit_header(data, old, new):
    """The bytes of a .npy file with old replaced by new in its header."""
    start = 10 + int.from_bytes(data[8:10], "little")
    header = data[10:start].replace(old, new)
    return data[:8] + len(header).to_bytes(2, "little") + header + data[start:]


def with_cell(array, value, row=2):
    """array with its first cell of row set to value."""
    out = array.copy()
    out.reshape(len(out), -1)[row, 0] = value
    return out


# How a fault rewrites a saved per-keypoint file, from its array and bytes: the
# new bytes, the DatasetError it raises and the record (row) that it names.
NPY_FAULTS = {
    "non_numeric_value": (lambda a, _: npy_bytes(a.astype(str)), MalformedRecordError, None),
    "non_finite_value": (  # a float array of point ids is the wrong dtype
        lambda a, _: npy_bytes(with_cell(a if a.dtype.kind == "f" else a.astype(float), np.nan)),
        MalformedRecordError,
        None,
    ),
    "wrong_dtype": (
        lambda a, _: npy_bytes(a.astype(np.int32 if a.dtype.kind == "f" else np.float64)),
        MalformedRecordError,
        None,
    ),
    "big_endian": (lambda a, _: npy_bytes(a.astype(a.dtype.newbyteorder(">"))), MalformedRecordError, None),
    "fortran_order": (lambda _, b: edit_header(b, b"False", b"True"), MalformedRecordError, None),
    "row_count_of_5000_digits": (
        lambda _, b: edit_header(b, b"(5", b"(" + b"9" * 5000), MalformedRecordError, None
    ),
    "extra_dimension": (lambda a, _: npy_bytes(a[None]), MalformedRecordError, None),
    # Row i is keypoint i: the header's row count (5) stands where the idx column did.
    "non_numeric_idx": (lambda _, b: edit_header(b, b"(5", b"('5'"), MalformedRecordError, None),
    "negative_idx": (lambda _, b: edit_header(b, b"(5", b"(-5"), MalformedRecordError, None),
    "idx_out_of_range": (lambda _, b: edit_header(b, b"(5", b"(6"), MalformedRecordError, None),
    "repeated_column_name": (  # np.load takes the last of a repeated key
        lambda _, b: edit_header(b, b"'fortran_order': False, ", b"'fortran_order': False, " * 2),
        MalformedRecordError,
        None,
    ),
    "object_array": (lambda a, _: npy_bytes(a.astype(object), allow_pickle=True), MalformedRecordError, None),
    "truncated": (lambda _, b: b[:-1], MalformedRecordError, None),
    "trailing_bytes": (lambda _, b: b + bytes(8), MalformedRecordError, None),
    "format_2": (lambda a, _: npy_bytes(a, version=(2, 0)), MalformedRecordError, None),
    "format_1_1": (lambda _, b: b[:7] + b"\x01" + b[8:], MalformedRecordError, None),
    "tab_in_header_padding": (lambda _, b: b.replace(b" \n", b"\t\n"), MalformedRecordError, None),
    "extra_column": (lambda a, _: npy_bytes(np.hstack([a, a[:, :1]])), MalformedRecordError, None),
    "one_row_short": (lambda a, _: npy_bytes(a[:-1]), InvariantError, 4),
    "one_row_over": (lambda a, _: npy_bytes(np.concatenate([a, a[:1]])), InvariantError, 5),
    "off_unit_norm": (lambda a, _: npy_bytes(with_cell(a, a[2, 0] + np.float32(0.1))), InvariantError, 2),
    "outside_image": (lambda a, _: npy_bytes(with_cell(a, float(K.width))), InvariantError, 2),
}

ALL_KINDS = ("descriptors", "keypoints", "point_ids")
NPY_FAULT_KINDS = {
    "extra_column": ("keypoints",),  # descriptors may have any width, point ids are one column
    "one_row_short": ("descriptors", "point_ids"),  # the keypoints set the row count
    "one_row_over": ("descriptors", "point_ids"),
    "off_unit_norm": ("descriptors",),
    "outside_image": ("keypoints",),
}
NPY_FAULT_CASES = [
    (kind, fault) for fault in sorted(NPY_FAULTS) for kind in NPY_FAULT_KINDS.get(fault, ALL_KINDS)
]


@pytest.mark.parametrize("kind, fault", NPY_FAULT_CASES)
def test_per_keypoint_fault_names_file_and_line(rng, tmp_path, kind, fault):
    # The "line" of a .npy fault is the first bad row, counted from 0, when there is one.
    save_with_point_ids(rng, tmp_path)
    path = tmp_path / "queries" / kind / "q0000.npy"
    rewrite, error, record = NPY_FAULTS[fault]
    if fault == "non_finite_value" and kind != "point_ids":
        error, record = InvariantError, 2  # NaN is neither a unit norm nor inside the image
    path.write_bytes(rewrite(np.load(path), path.read_bytes()))
    with pytest.raises(error, match=re.escape(f"{kind}/q0000.npy") + r"(:\d+)?\]$") as info:
        load_dataset(tmp_path)
    assert (info.value.path, info.value.record) == (path, record)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_per_keypoint_csv_is_no_longer_read(rng, tmp_path, kind):
    # Without this, a descriptors or point ids .csv would be skipped as an absent optional file.
    save_with_point_ids(rng, tmp_path)
    path = tmp_path / "queries" / kind / "q0001.npy"
    path.unlink()
    path.with_suffix(".csv").write_text("idx\n")
    with pytest.raises(MissingFileError, match=rf"\.csv files are no longer read.*{kind}/q0001\.npy\]"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("value", [1e39, -1e39, np.nan, np.inf])
def test_descriptor_float32_cannot_hold_is_not_saved(rng, tmp_path, value):
    seq, refs = make_dataset(rng)
    refs[1].descriptors[3, 4] = value
    with pytest.raises(ValueError, match="r0001"):
        save_dataset(tmp_path, seq, refs)


def test_fractional_point_ids_are_not_saved(rng, tmp_path):
    seq, refs = make_dataset(rng)
    refs[1].point_ids = np.arange(5) + 0.5
    with pytest.raises(TypeError, match="same_kind"):
        save_dataset(tmp_path, seq, refs)


def loads_or_names(path, root):
    """The frame of path's stem loaded from root, or the DatasetError, which must name path."""
    try:
        _, refs = load_dataset(root)
    except DatasetError as e:
        assert e.path == path, e
        return None
    return next(f for f in refs if f.frame_id == path.stem)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    row=st.integers(0, 4),
    col=st.integers(0, 7),
    value=st.one_of(st.floats(), st.integers(-(2**63), 2**63 - 1)),
)
def test_fuzzed_per_keypoint_cell_loads_or_raises_dataset_error(kind, row, col, value):
    # One cell of a reference's file set to a value of the file's dtype: it
    # loads as written, or raises naming the file.
    with tempfile.TemporaryDirectory() as d:
        save_with_point_ids(np.random.default_rng(0), d)
        path = Path(d) / "references" / kind / "r0001.npy"
        array = np.load(path)
        with warnings.catch_warnings():  # a value beyond the dtype's range wraps or turns inf
            warnings.simplefilter("ignore")
            array.reshape(len(array), -1)[row, col % array.reshape(len(array), -1).shape[1]] = (
                np.asarray(value).astype(array.dtype)
            )
        np.save(path, array)
        frame = loads_or_names(path, d)
        if frame is not None:
            assert getattr(frame, kind).tobytes() == array.tobytes()


HEADERS = st.builds(
    lambda dtype, shape: npy_bytes(np.zeros(shape, dtype)),
    st.sampled_from(["<f8", "<f4", ">f8", "<i8", "<i4", "|u1"]),
    st.lists(st.integers(0, 6), min_size=1, max_size=3).map(tuple),
)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(ALL_KINDS),
    how=st.sampled_from(["truncate", "flip", "reheader"]),
    at=st.integers(0, 10**6),
    bits=st.integers(1, 255),
    header=HEADERS,
)
def test_corrupted_npy_loads_saved_arrays_or_raises_dataset_error(kind, how, at, bits, header):
    # A file cut short, with one byte flipped, or behind another array's header.
    with tempfile.TemporaryDirectory() as d:
        save_with_point_ids(np.random.default_rng(0), d)
        path = Path(d) / "references" / kind / "r0001.npy"
        data = path.read_bytes()
        saved = np.load(path)
        start = len(data) - saved.nbytes
        if how == "truncate":
            data = data[: at % len(data)]
        elif how == "flip":
            at %= len(data)
            data = data[:at] + bytes([data[at] ^ bits]) + data[at + 1 :]
        else:
            data = header[: 10 + int.from_bytes(header[8:10], "little")] + data[start:]
        path.write_bytes(data)
        frame = loads_or_names(path, d)
        if frame is not None:  # a flipped data byte loads as what the file now holds
            got = getattr(frame, kind)
            assert (got.dtype, got.shape) == (saved.dtype, saved.shape)
            assert got.tobytes() == data[len(data) - saved.nbytes :]
            assert how == "flip" and at >= start or got.tobytes() == saved.tobytes()


class Fault(NamedTuple):
    """Where a numeric file raises: its line, and the column of the cell at
    fault, or None for a fault of the whole line."""

    line: int
    column: str | None = None


H = "idxA,idxB,score\n"
ROWS = "0,3,1.0\n2,5,0.5\n"
LOADED = ([0, 2], [3, 5], [1.0, 0.5])
# The grammar of the all-numeric files, on a match file: its text, and the
# (idxA, idxB, score) it loads as, or the Fault its MalformedRecordError names.
NUMERIC_GRAMMAR = {
    "plain": (H + ROWS, LOADED),
    "crlf": (H.replace("\n", "\r\n") + ROWS.replace("\n", "\r\n"), LOADED),
    "carriage returns before a newline": (H + "0,3,1.0\r\r\n\r\n2,5,0.5\r", LOADED),
    "empty lines, no final newline": (H + "\n0,3,1.0\n\n2,5,0.5", LOADED),
    "padded cells": (H + " 0 ,+3, 1e0\t\n2,5,.5\n", LOADED),
    "header only": (H, ([], [], [])),
    "largest int64": (H + "9223372036854775807,0,5e-324\n", ([2**63 - 1], [0], [5e-324])),
    "bom": ("\ufeff" + H + ROWS, Fault(1)),
    "quoted number": (H + '0,3,"1.0"\n', Fault(2, "score")),
    "comment sign": (H + "0,3,1.0#\n", Fault(2, "score")),
    "underscore": (H + ROWS + "1_5,0,1.0\n", Fault(4, "idxA")),
    "arabic-indic digit": (H + "0,\u0661,1.0\n", Fault(2, "idxB")),
    "nul": (H + "0,3,1.0\x00\n", Fault(2, "score")),
    "no-break space": (H + "0,3,\u00a01.0\n", Fault(2, "score")),
    "carriage return inside a line": (H + "0,3,1.0\r2,5,0.5\n", Fault(2)),
    "whitespace-only line": (H + "0,3,1.0\n  \n2,5,0.5\n", Fault(3)),
    "comma-only line": (H + "0,3,1.0\n,,\n2,5,0.5\n", Fault(3, "idxA")),
    "float in int column": (H + "0,3,1.0\n2.0,5,0.5\n", Fault(3, "idxA")),
    "int64 overflow": (H + "9223372036854775808,3,1.0\n", Fault(2, "idxA")),
    "infinity after an empty line": (H + "0,3,1.0\n\n2,5,Infinity\n", Fault(4, "score")),
    "nan": (H + "0,3,nan\n", Fault(2, "score")),
    "nan in int column": (H + "nan,3,1.0\n", Fault(2, "idxA")),
    "extra field": (H + ROWS + "7,1,0.5,0\n", Fault(4)),
    "missing field": (H + "0,3\n", Fault(2)),
    "bad header before a bad line": ("idxA,idxB\n0,3,1_5\n", Fault(1)),
}


G = "frame_id,g0,g1\n"
# The grammar of the tables that hold text, on references/global_descriptors.csv
# of a dataset whose references are r0, r1 and r\u00f8: its bytes, and the
# descriptors it loads as, or the Fault its DatasetError names.
TEXT_GRAMMAR = {
    "plain": (G + "r0,1,0\nr1,0,1\n", {"r0": [1, 0], "r1": [0, 1]}),
    "crlf and empty lines": (G.replace("\n", "\r\n") + "\r\nr0,1,0\r\n\n", {"r0": [1, 0]}),
    "padded id and cells": (G + " r1\t, 0 ,-1.0\n", {"r1": [0, -1]}),
    "non-ascii id": (G + "r\u00f8,0,1\n", {"r\u00f8": [0, 1]}),
    "header only": (G, {}),
    "comma-only line": (G + "r0,1,0\n,,\nr1,0,1\n", Fault(3)),
    "whitespace-only line": (G + "r0,1,0\n  \nr1,0,1\n", Fault(3)),
    "quoted id": (G + '"r0",1,0\n', Fault(2)),
    "id containing a comma": (G + 'r0,1,0\n"r0,r1",1,0\n', Fault(3)),
    "empty id": (G + " ,1,0\n", Fault(2)),
    "byte that is not utf-8": (G.encode() + b"r0,1,0\nr\xff,0,1\n", Fault(3)),
    "quoted number": (G + 'r0,"1",0\n', Fault(2)),
    "number only python reads": (G + "r0,1_0,0\n", Fault(2)),
    "non-ascii digit": (G + "r0,\u0661,0\n", Fault(2)),
    "missing field": (G + "r0,1\n", Fault(2)),
    "bom": ("\ufeff" + G + "r0,1,0\n", Fault(1)),
}


@pytest.mark.parametrize("case", sorted(TEXT_GRAMMAR))
def test_text_table_grammar(rng, tmp_path, case):
    text, outcome = TEXT_GRAMMAR[case]
    seq, _ = make_dataset(rng)
    save_dataset(tmp_path, seq, [make_frame(rng, fid) for fid in ("r0", "r1", "r\u00f8")])
    path = tmp_path / "references" / "global_descriptors.csv"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    if isinstance(outcome, Fault):
        with pytest.raises(DatasetError, match=re.escape(f"global_descriptors.csv:{outcome.line}]")):
            load_dataset(tmp_path)
        return
    _, refs = load_dataset(tmp_path)
    got = {f.frame_id: f.global_descriptor.tolist() for f in refs if f.global_descriptor is not None}
    assert got == outcome


@settings(max_examples=120, derandomize=True, deadline=None)
@given(
    frame_id=st.text(
        st.one_of(st.sampled_from(", \t\r\n\""), st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00")),
        max_size=10,
    )
)
@example(frame_id="r\u00f8\u00e9")
@example(frame_id='"r0"')
@example(frame_id="r 0")
@example(frame_id="r0,1")
@example(frame_id="r0\r")
@example(frame_id="\u3000r0")
@example(frame_id="")
def test_text_cells_round_trip_or_raise(frame_id):
    # An id as a reference's frame and camera id, and in its global descriptor's row.
    rng = np.random.default_rng(0)
    seq, refs = make_dataset(rng, n_refs=1)
    ref = refs[0]
    ref.frame_id = ref.camera_id = frame_id
    ref.global_descriptor = exact_unit_vector(rng)
    holds = bool(frame_id) and frame_id == frame_id.strip() and not set(",\r\n") & set(frame_id)
    with tempfile.TemporaryDirectory() as d:
        if not holds:
            with pytest.raises(ValueError):
                save_dataset(d, seq, refs)
            return
        save_dataset(d, seq, refs)
        (got,) = load_dataset(d)[1]
    assert (got.frame_id, got.camera_id) == (frame_id, frame_id)
    assert got.pose.as_array7().tobytes() == ref.pose.as_array7().tobytes()
    assert got.keypoints.tobytes() == ref.keypoints.tobytes()
    assert got.global_descriptor.tobytes() == ref.global_descriptor.tobytes()


@pytest.mark.parametrize("case", sorted(NUMERIC_GRAMMAR))
def test_numeric_file_grammar(tmp_path, case):
    text, outcome = NUMERIC_GRAMMAR[case]
    path = tmp_path / "matches" / "qa__rb.csv"
    path.parent.mkdir()
    path.write_bytes(text.encode())
    if isinstance(outcome, Fault):
        with pytest.raises(MalformedRecordError, match=re.escape(f"qa__rb.csv:{outcome.line}]")) as info:
            read_match_file(path)
        # The locus is the only line number: no row of a re-parse.
        assert "row" not in str(info.value)
        if outcome.column is None:
            assert "field '" not in str(info.value)
        else:
            assert str(info.value).startswith(f"field {outcome.column!r} = ")
        return
    expected = [np.array(c, dtype=t) for c, t in zip(outcome, (np.int64, np.int64, np.float64))]
    assert [a.tobytes() for a in read_match_file(path)] == [e.tobytes() for e in expected]


def test_over_long_numeric_field_loads(rng, tmp_path):
    # Longer than the csv module's field limit; loadtxt reads it as the number it is.
    # The cell keeps its value behind leading zeros, so its row stays unit.
    seq, _ = save_with_point_ids(rng, tmp_path)
    pad = lambda rows: re.sub(r"^([+-]?)", r"\g<1>" + "0" * 131072, rows[2][3])
    edit_cell(tmp_path / "queries" / "global_descriptors.csv", 2, 3, pad)  # q0001's g2
    loaded, _ = load_dataset(tmp_path)
    got = loaded[0].rigs[1].frames["cam0"].global_descriptor
    assert got.tobytes() == seq.rigs[1].frames["cam0"].global_descriptor.tobytes()


@pytest.mark.parametrize(
    "second, message",
    [("ra+x", "'ra\\+x' shares its file names with 'ra/x'"), ("ra/x", "'ra/x' repeats")],
)
def test_frame_ids_sharing_a_file_name(rng, tmp_path, second, message):
    # "ra/x" and "ra+x" both save their keypoints to keypoints/ra+x.npy, as a repeated id does.
    seq, _ = make_dataset(rng)
    save_dataset(tmp_path, seq, [make_frame(rng, "ra/x"), make_frame(rng, second)])
    with pytest.raises(InvariantError, match=message + r".*references/poses\.csv:3\]"):
        load_dataset(tmp_path)


# Files of the two-camera rig dataset that the row fuzz edits.
FUZZED_TABLES = (
    "queries/poses.csv",
    "queries/intrinsics.csv",
    "queries/global_descriptors.csv",
    "references/poses.csv",
    "rig_extrinsics.csv",
)


@settings(max_examples=80, derandomize=True, deadline=None)
@given(
    table=st.sampled_from(FUZZED_TABLES),
    row=st.integers(0, 6),
    col=st.one_of(st.none(), st.integers(0, 16)),  # None: the whole line
    text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=24),
)
def test_fuzzed_table_row_or_cell_loads_or_raises_dataset_error(table, row, col, text):
    with tempfile.TemporaryDirectory() as d:
        save_dataset(d, *make_rig_dataset(np.random.default_rng(0)))
        path = Path(d) / table
        if col is None:
            lines = path.read_text().splitlines()
            lines[row % len(lines)] = text
            path.write_text("\n".join(lines) + "\n")
        else:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            edit_cell(path, row % len(rows), col % len(rows[0]), text)
        try:
            load_dataset(d)
        except DatasetError:
            pass


class TestGeoReferences:
    def test_geo_poses(self, rng, tmp_path):
        seq, refs = make_dataset(rng, n_refs=1)
        save_dataset(tmp_path, seq, refs)
        (tmp_path / "references" / "poses.csv").unlink()
        with open(tmp_path / "references" / "geo.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["frame_id", "lat", "lon", "alt", "heading_deg"])
            w.writerow(["r0000", "47.0", "8.0", "400.0", "0.0"])
        _, loaded_refs = load_dataset(tmp_path)
        ref = loaded_refs[0]
        np.testing.assert_allclose(ref.pose.translation, [0, 0, 0], atol=1e-9)
        # heading 0: camera +z looks north (+y in ENU), +y points down (-z)
        R = ref.pose.rotation.matrix
        np.testing.assert_allclose(R @ [0, 0, 1], [0, 1, 0], atol=1e-12)
        np.testing.assert_allclose(R @ [0, 1, 0], [0, 0, -1], atol=1e-12)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12

    def test_latitude_out_of_range(self, rng, tmp_path):
        seq, refs = make_dataset(rng, n_refs=1)
        save_dataset(tmp_path, seq, refs)
        (tmp_path / "references" / "poses.csv").unlink()
        with open(tmp_path / "references" / "geo.csv", "w", newline="") as fh:
            csv.writer(fh).writerows(
                [["frame_id", "lat", "lon", "alt", "heading_deg"], ["r0000", "91.0", "8.0", "0", "0"]]
            )
        with pytest.raises(MalformedRecordError, match=r"geo\.csv:2\]"):
            load_dataset(tmp_path)


class TestGeodetic:
    def test_origin_maps_to_zero(self):
        for origin in [(0.0, 0.0, 0.0), (47.4, 8.5, 408.0), (-33.9, 151.2, 20.0)]:
            np.testing.assert_allclose(geodetic_to_local(*origin, origin), np.zeros(3))

    def test_one_degree_north_meridian_arc(self):
        # Oracle: quadrature of the WGS-84 meridian radius of curvature over
        # [0, 1 deg] gives 110574.3885578 m.
        a, f = 6378137.0, 1 / 298.257223563
        e2 = f * (2 - f)
        arc, _ = scipy.integrate.quad(
            lambda p: a * (1 - e2) / (1 - e2 * math.sin(p) ** 2) ** 1.5,
            0.0,
            math.radians(1.0),
        )
        assert abs(arc - 110574.3885578) < 1e-4
        enu = geodetic_to_local(1.0, 0.0, 0.0, (0.0, 0.0, 0.0))
        assert abs(enu[1] - arc) < 1.0
        assert abs(enu[0]) < 1e-9 and abs(enu[2]) < 1e-9

    def test_altitude_only(self):
        np.testing.assert_allclose(
            geodetic_to_local(0.0, 0.0, 10.0, (0.0, 0.0, 0.0)), [0, 0, 10], atol=1e-6
        )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            geodetic_to_local(91.0, 0.0, 0.0, (0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            geodetic_to_local(0.0, 181.0, 0.0, (0.0, 0.0, 0.0))


class TestBatch:
    def _seq(self, rng, n):
        seq, _ = make_dataset(rng, n_queries=n)
        return seq

    def test_25_splits_10_10_5(self, rng):
        out = batch(self._seq(rng, 25), 10)
        assert [len(b) for b in out] == [10, 10, 5]

    def test_exact_fit(self, rng):
        out = batch(self._seq(rng, 10), 10)
        assert [len(b) for b in out] == [10]

    def test_trailing_singleton_dropped(self, rng, caplog):
        with caplog.at_level("WARNING"):
            out = batch(self._seq(rng, 11), 10)
        assert [len(b) for b in out] == [10]
        assert any("singleton" in r.message for r in caplog.records)

    def test_batches_are_consecutive(self, rng):
        seq = self._seq(rng, 25)
        out = batch(seq, 10)
        flat = [r.rig_id for b in out for r in b.rigs]
        assert flat == [r.rig_id for r in seq.rigs][: len(flat)]

    def test_n_below_two_rejected(self, rng):
        with pytest.raises(ValueError):
            batch(self._seq(rng, 5), 1)
