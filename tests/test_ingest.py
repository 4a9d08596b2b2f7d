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
    save_dataset,
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


def save_with_point_ids(rng, root):
    """A saved dataset whose frames carry all three per-keypoint files."""
    seq, refs = make_dataset(rng)
    for f in refs + [r.frames["cam0"] for r in seq.rigs]:
        f.point_ids = 100 + np.arange(len(f.keypoints))
    save_dataset(root, seq, refs)


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
        rows = list(csv.reader(open(path)))
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
