"""Dataset loading, serialization round trips, geodetic helper, batching."""

import csv
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import random_pose

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
            np.testing.assert_allclose(fo.descriptors, fg.descriptors, rtol=0, atol=0)
        for fo, fg in zip(refs, loaded_refs):
            assert (fo.pose.as_array7() == fg.pose.as_array7()).all()

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
            assert got.pose.allclose(orig.pose, atol=1e-12)

    def test_second_camera_off_its_rig_pose(self, rng, tmp_path):
        seq, refs, rig_defs = make_rig_dataset(rng)
        save_dataset(tmp_path, seq, refs, rig_defs)
        path = tmp_path / "queries" / "poses.csv"
        # Rows: header, then cam0 and cam1 of each instance; move q0001/cam1 by 1 cm in x.
        edit_cell(path, 4, 6, lambda rows: repr(float(rows[4][6]) + 0.01))
        with pytest.raises(InvariantError, match=r"'q0001/cam1' is 0\.01 m.*poses\.csv\]"):
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
        with pytest.raises(InvariantError, match="q0001"):
            load_dataset(tmp_path)

    def test_keypoint_out_of_bounds(self, rng, tmp_path):
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        edit_cell(tmp_path / "queries" / "keypoints" / "q0000.csv", 1, 1, "100000.0")
        with pytest.raises(InvariantError, match="outside image bounds"):
            load_dataset(tmp_path)

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

    def test_malformed_intrinsics_row(self, rng, tmp_path):
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        path = tmp_path / "queries" / "intrinsics.csv"
        for col, cell in ((1, "x"), (5, "inf"), (6, "1e400")):
            original = edit_cell(path, 1, col, cell)
            with pytest.raises(MalformedRecordError, match=r"intrinsics\.csv:2\]"):
                load_dataset(tmp_path)
            edit_cell(path, 1, col, original)
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
                edit_cell(path, 2, 3, cell)
            with pytest.raises(error, match=match):
                load_dataset(tmp_path)

    @pytest.mark.parametrize("junk", [b"\xff\xfe", b"x" * 200_000])
    def test_unreadable_table(self, rng, tmp_path, junk):
        # Bytes that are not UTF-8, and a field over the csv module's size limit.
        seq, refs = make_dataset(rng)
        save_dataset(tmp_path, seq, refs)
        path = tmp_path / "references" / "poses.csv"
        path.write_bytes(path.read_bytes().replace(b"r0001", junk))
        with pytest.raises(MalformedRecordError, match=r"references/poses\.csv\]"):
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


PER_KEYPOINT_COLUMNS = {"keypoints": 3, "descriptors": 9, "point_ids": 2}

PER_KEYPOINT_FAULTS = {
    # (line, column, new cell text)
    "non_numeric_idx": (3, 0, "x"),
    "non_numeric_value": (3, 1, "x"),
    "non_finite_value": (3, 1, "nan"),
    "repeated_idx": (3, 0, lambda rows: rows[1][0]),
    "idx_out_of_range": (3, 0, "9"),
    "negative_idx": (3, 0, "-1"),
    "repeated_column_name": (1, 1, lambda rows: rows[0][0]),
}


@pytest.mark.parametrize("fault", sorted(PER_KEYPOINT_FAULTS))
@pytest.mark.parametrize("kind", sorted(PER_KEYPOINT_COLUMNS))
def test_per_keypoint_fault_names_file_and_line(rng, tmp_path, kind, fault):
    save_with_point_ids(rng, tmp_path)
    line, col, text = PER_KEYPOINT_FAULTS[fault]
    edit_cell(tmp_path / "queries" / kind / "q0000.csv", line - 1, col, text)
    with pytest.raises(MalformedRecordError, match=re.escape(f"{kind}/q0000.csv:{line}]")):
        load_dataset(tmp_path)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(
    kind=st.sampled_from(sorted(PER_KEYPOINT_COLUMNS)),
    row=st.integers(0, 5),  # header and the five keypoints
    col=st.integers(0, 8),
    text=st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)
def test_fuzzed_per_keypoint_cell_loads_or_raises_dataset_error(kind, row, col, text):
    with tempfile.TemporaryDirectory() as d:
        save_with_point_ids(np.random.default_rng(0), d)
        path = Path(d) / "queries" / kind / "q0001.csv"
        edit_cell(path, row, col % PER_KEYPOINT_COLUMNS[kind], text)
        try:
            load_dataset(d)
        except DatasetError:
            pass


# Files of the two-camera rig dataset that the row fuzz edits.
FUZZED_TABLES = (
    "queries/poses.csv",
    "queries/intrinsics.csv",
    "queries/global_descriptors.csv",
    "queries/keypoints/q0001+cam1.csv",
    "queries/descriptors/q0001+cam1.csv",
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
