"""Matcher seam: mutual-NN, precomputed files, synthetic oracle with outliers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seqloc.geometry import CameraIntrinsics
from seqloc.ingest import Frame, MissingFileError, write_match_file, match_file_path
from seqloc.matching import (
    MatcherKind,
    MatchingError,
    match,
    mutual_nn_match,
    synthetic_oracle_match,
)

K = CameraIntrinsics(fx=500, fy=500, cx=320, cy=240, width=640, height=480)


def frame_with(rng, frame_id, n, desc=None, point_ids=None):
    kps = np.column_stack([rng.uniform(0, 639, n), rng.uniform(0, 479, n)])
    return Frame(
        frame_id=frame_id,
        camera_id="cam0",
        intrinsics=K,
        keypoints=kps,
        descriptors=desc,
        point_ids=point_ids,
    )


def random_unit_descs(rng, n, dim=16):
    d = rng.normal(size=(n, dim))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def loop_mutual_nn(da, db, ratio=0.9, min_score=0.7, dtype=np.float32):
    """Oracle: mutual nearest neighbors and the two-way ratio test, one row at a time,
    on the dtype product of the descriptors upcast to float64."""

    def ratio_ok(sim_row, best_idx):
        if len(sim_row) < 2:
            return True
        second = np.partition(np.delete(sim_row, best_idx), -1)[-1]
        d1 = math.sqrt(max(0.0, 2.0 - 2.0 * sim_row[best_idx]))
        d2 = math.sqrt(max(0.0, 2.0 - 2.0 * second))
        if d2 < 1e-12:
            return False
        return d1 / d2 <= ratio

    sims = (da.astype(dtype) @ db.astype(dtype).T).astype(float)
    best_b = np.argmax(sims, axis=1)
    best_a = np.argmax(sims, axis=0)
    ia, ib, sc = [], [], []
    for i in range(len(da)):
        j = best_b[i]
        if best_a[j] != i or sims[i, j] < min_score:
            continue
        if ratio_ok(sims[i, :], j) and ratio_ok(sims[:, j], i):
            ia.append(i)
            ib.append(int(j))
            sc.append(float(np.clip(sims[i, j], 0.0, 1.0)))
    return np.array(ia, dtype=int), np.array(ib, dtype=int), np.array(sc)


class TestMutualNN:
    def test_ratio_test_matches_loop_oracle(self, rng):
        def unit(x):
            return x / np.linalg.norm(x, axis=-1, keepdims=True)

        cases = []
        for n_a, n_b in [(40, 60), (60, 40), (1, 30), (30, 1), (1, 1), (2, 2)]:
            da, db = random_unit_descs(rng, n_a), random_unit_descs(rng, n_b)
            # Planted near-duplicate pairs; the first half get a rival in b
            # (the row's ratio test), the second half a rival in a (the column's),
            # at distances that let the test both pass and fail.
            k = min(n_a, n_b) // 4
            m = max(2 * k, 1)
            db[:m] = unit(da[:m] + rng.normal(scale=0.02, size=(m, 16)))
            sigma = rng.choice([0.015, 0.02, 0.025, 0.05], size=(k, 1))
            db[2 * k : 3 * k] = unit(da[:k] + rng.normal(size=(k, 16)) * sigma)
            da[2 * k : 3 * k] = unit(db[k : 2 * k] + rng.normal(size=(k, 16)) * sigma)
            cases.append((da, db))
        # An exact duplicate as the second best, in a row and in a column.
        da, db = random_unit_descs(rng, 20), random_unit_descs(rng, 20)
        db[:5] = da[:5]
        db[5] = db[0]
        da[6] = da[1]
        cases.append((da, db))
        matched = rejected = 0
        for da, db in cases:
            ms = mutual_nn_match(
                frame_with(rng, "a", len(da), desc=da), frame_with(rng, "b", len(db), desc=db)
            )
            ia, ib, sc = loop_mutual_nn(da, db)
            for got, want in ((ms.idx_a, ia), (ms.idx_b, ib), (ms.scores, sc)):
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)
            matched += len(ia)
            rejected += len(loop_mutual_nn(da, db, ratio=math.inf)[0]) - len(ia)
        assert matched > 20 and rejected > 10

    def test_min_score_inclusive(self, rng):
        da, db = np.zeros((2, 16)), np.zeros((2, 16))
        da[0, 0] = da[1, 2] = db[1, 3] = 1.0
        # similarity exactly 0.75 with da[0], in float32 as in float64
        db[0, :2] = 0.75, math.sqrt(0.4375)
        a, b = frame_with(rng, "a", 2, desc=da), frame_with(rng, "b", 2, desc=db)
        ms = mutual_nn_match(a, b, min_score=0.75)
        assert list(zip(ms.idx_a, ms.idx_b, ms.scores)) == [(0, 0, 0.75)]

    def test_float32_product_keeps_float64_matches(self, rng):
        """A pair like perfbench's cluttered frames: 15 shared descriptors, each
        observed with noise of norm 0.3, among 1500 unit clutter rows per frame."""
        n, dim = 1515, 64
        base = random_unit_descs(rng, 15, dim)
        da, db = random_unit_descs(rng, n, dim), random_unit_descs(rng, n, dim)
        rows_a, rows_b = rng.permutation(n)[:15], rng.permutation(n)[:15]
        for d, rows in ((da, rows_a), (db, rows_b)):
            noisy = base + rng.normal(scale=0.3 / math.sqrt(dim), size=base.shape)
            d[rows] = noisy / np.linalg.norm(noisy, axis=1, keepdims=True)
        ms = mutual_nn_match(frame_with(rng, "a", n, desc=da), frame_with(rng, "b", n, desc=db))
        ia, ib, sc = loop_mutual_nn(da, db)
        for got, want in ((ms.idx_a, ia), (ms.idx_b, ib), (ms.scores, sc)):
            np.testing.assert_array_equal(got, want)
        ia64, ib64, sc64 = loop_mutual_nn(da, db, dtype=np.float64)
        assert sorted(zip(ia64, ib64)) == sorted(zip(rows_a.tolist(), rows_b.tolist()))
        np.testing.assert_array_equal(ms.idx_a, ia64)
        np.testing.assert_array_equal(ms.idx_b, ib64)
        np.testing.assert_allclose(ms.scores, sc64, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("value", [1e39, -1e39, math.nan, math.inf])
    def test_descriptor_beyond_float32_raises(self, rng, value):
        da, db = random_unit_descs(rng, 5), random_unit_descs(rng, 6)
        db[3, 7] = value
        a, b = frame_with(rng, "a", 5, desc=da), frame_with(rng, "b", 6, desc=db)
        with pytest.raises(MatchingError, match="descriptors of b"):
            mutual_nn_match(a, b)
        with pytest.raises(MatchingError, match="descriptors of b"):
            mutual_nn_match(b, a)

    def test_duplicate_second_best_rejected(self, rng):
        da, db = random_unit_descs(rng, 10), random_unit_descs(rng, 10)
        db[0] = da[0]
        db[1] = da[0]  # row 0 of a has two identical best matches
        ms = mutual_nn_match(frame_with(rng, "a", 10, desc=da), frame_with(rng, "b", 10, desc=db))
        assert 0 not in ms.idx_a


    def test_empty_frame(self, rng):
        a = frame_with(rng, "a", 0, desc=np.zeros((0, 16)))
        b = frame_with(rng, "b", 5, desc=random_unit_descs(rng, 5))
        assert len(match(a, b, MatcherKind.DESCRIPTOR_MNN)) == 0

    def test_identical_frames_identity_match(self, rng):
        d = random_unit_descs(rng, 20)
        a = frame_with(rng, "a", 20, desc=d)
        b = frame_with(rng, "b", 20, desc=d.copy())
        ms = match(a, b, MatcherKind.DESCRIPTOR_MNN)
        assert len(ms) == 20
        np.testing.assert_array_equal(ms.idx_a, ms.idx_b)
        assert (ms.scores >= 0.999999).all()

    def test_symmetry(self, rng):
        da = random_unit_descs(rng, 30)
        db = random_unit_descs(rng, 25)
        db[:10] = da[5:15] + rng.normal(scale=0.05, size=(10, 16))
        db /= np.linalg.norm(db, axis=1, keepdims=True)
        a = frame_with(rng, "a", 30, desc=da)
        b = frame_with(rng, "b", 25, desc=db)
        fwd = match(a, b, MatcherKind.DESCRIPTOR_MNN)
        bwd = match(b, a, MatcherKind.DESCRIPTOR_MNN)
        assert sorted(zip(fwd.idx_a, fwd.idx_b)) == sorted(zip(bwd.idx_b, bwd.idx_a))

    def test_one_to_one(self, rng):
        da = random_unit_descs(rng, 40)
        db = np.vstack([da[:20], random_unit_descs(rng, 15)])
        a = frame_with(rng, "a", 40, desc=da)
        b = frame_with(rng, "b", 35, desc=db)
        ms = match(a, b, MatcherKind.DESCRIPTOR_MNN)
        assert len(set(ms.idx_a)) == len(ms)
        assert len(set(ms.idx_b)) == len(ms)

    def test_min_score_filters(self, rng):
        da = random_unit_descs(rng, 10)
        b = frame_with(rng, "b", 10, desc=-da)  # cosine -1 everywhere relevant
        a = frame_with(rng, "a", 10, desc=da)
        assert len(match(a, b, MatcherKind.DESCRIPTOR_MNN)) == 0

    def test_missing_descriptors(self, rng):
        a = frame_with(rng, "a", 5)
        b = frame_with(rng, "b", 5, desc=random_unit_descs(rng, 5))
        with pytest.raises(MatchingError):
            match(a, b, MatcherKind.DESCRIPTOR_MNN)

    def test_descriptor_widths_differ(self, rng):
        a = frame_with(rng, "a", 5, desc=random_unit_descs(rng, 5, dim=16))
        b = frame_with(rng, "b", 5, desc=random_unit_descs(rng, 5, dim=8))
        with pytest.raises(MatchingError, match="16 on a, 8 on b"):
            match(a, b, MatcherKind.DESCRIPTOR_MNN)


@st.composite
def descriptor_pairs(draw):
    """Small-integer descriptors of any norm, so that rows and columns tie exactly."""
    n_a, n_b, dim = draw(st.integers(1, 30)), draw(st.integers(1, 30)), draw(st.integers(1, 4))
    ints = st.integers(-2, 2)
    return (
        draw(arrays(np.int64, (n_a, dim), elements=ints)).astype(float),
        draw(arrays(np.int64, (n_b, dim), elements=ints)).astype(float),
    )


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    descs=descriptor_pairs(),
    min_score=st.one_of(st.integers(-4, 8).map(float), st.floats(-4.0, 8.0)),
    ratio=st.one_of(st.sampled_from([0.0, 0.5, 1.0, math.inf]), st.floats(0.0, 2.0)),
)
def test_mutual_nn_matches_loop_oracle_property(descs, min_score, ratio):
    da, db = descs
    rng = np.random.default_rng(0)
    ms = mutual_nn_match(
        frame_with(rng, "a", len(da), desc=da),
        frame_with(rng, "b", len(db), desc=db),
        ratio=ratio,
        min_score=min_score,
    )
    for got, want in zip((ms.idx_a, ms.idx_b, ms.scores), loop_mutual_nn(da, db, ratio, min_score)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestPrecomputed:
    def test_reads_forward_and_swapped(self, rng, tmp_path):
        a = frame_with(rng, "qa", 6)
        b = frame_with(rng, "rb", 6)
        write_match_file(match_file_path(tmp_path, "qa", "rb"), [(0, 3, 1.0), (2, 5, 0.9)])
        fwd = match(a, b, MatcherKind.PRECOMPUTED_FILE, dataset_root=tmp_path)
        assert list(zip(fwd.idx_a, fwd.idx_b)) == [(0, 3), (2, 5)]
        bwd = match(b, a, MatcherKind.PRECOMPUTED_FILE, dataset_root=tmp_path)
        assert list(zip(bwd.idx_a, bwd.idx_b)) == [(3, 0), (5, 2)]

    def test_missing_file(self, rng, tmp_path):
        a = frame_with(rng, "qa", 3)
        b = frame_with(rng, "rb", 3)
        with pytest.raises(MissingFileError):
            match(a, b, MatcherKind.PRECOMPUTED_FILE, dataset_root=tmp_path)


class TestOracle:
    def test_matches_shared_scene_points(self, rng):
        ids_a = np.arange(50)
        perm = rng.permutation(50)
        a = frame_with(rng, "a", 50, point_ids=ids_a)
        b = frame_with(rng, "b", 50, point_ids=perm)
        ms, inlier = synthetic_oracle_match(a, b)
        assert len(ms) == 50
        assert inlier.all()
        # visibility-table oracle: ids agree row by row
        np.testing.assert_array_equal(
            a.point_ids[ms.idx_a], b.point_ids[ms.idx_b]
        )

    def test_partial_overlap(self, rng):
        a = frame_with(rng, "a", 30, point_ids=np.arange(30))
        b = frame_with(rng, "b", 30, point_ids=np.arange(20, 50))
        ms, _ = synthetic_oracle_match(a, b)
        assert len(ms) == 10
        assert set(a.point_ids[ms.idx_a]) == set(range(20, 30))

    def test_outlier_injection_mask(self, rng):
        a = frame_with(rng, "a", 80, point_ids=np.arange(80))
        b = frame_with(rng, "b", 120, point_ids=np.arange(40, 160))
        ms, inlier = synthetic_oracle_match(a, b, outlier_rate=0.3, seed=7)
        ms.validate(80, 120)
        assert 0 < (~inlier).sum() < len(ms)
        agree = a.point_ids[ms.idx_a] == b.point_ids[ms.idx_b]
        np.testing.assert_array_equal(agree, inlier)

    def test_outlier_rewiring_deterministic(self, rng):
        a = frame_with(rng, "a", 60, point_ids=np.arange(60))
        b = frame_with(rng, "b", 90, point_ids=np.arange(30, 120))
        m1, in1 = synthetic_oracle_match(a, b, outlier_rate=0.25, seed=3)
        m2, in2 = synthetic_oracle_match(a, b, outlier_rate=0.25, seed=3)
        np.testing.assert_array_equal(m1.idx_b, m2.idx_b)
        np.testing.assert_array_equal(in1, in2)

    def test_requires_point_ids(self, rng):
        a = frame_with(rng, "a", 5)
        b = frame_with(rng, "b", 5, point_ids=np.arange(5))
        with pytest.raises(MatchingError):
            match(a, b, MatcherKind.SYNTHETIC_ORACLE)

    def test_repeated_point_id(self, rng):
        a = frame_with(rng, "a", 5, point_ids=np.arange(5))
        b = frame_with(rng, "b", 5, point_ids=np.array([4, 3, 9, 3, 0]))
        with pytest.raises(MatchingError, match="point id 3 repeats in b"):
            synthetic_oracle_match(a, b)
        with pytest.raises(MatchingError, match="point id 3 repeats in b"):
            synthetic_oracle_match(b, a)

    def test_one_to_one_under_outliers(self, rng):
        for seed in range(10):
            a = frame_with(rng, "a", 40, point_ids=np.arange(40))
            b = frame_with(rng, "b", 45, point_ids=np.arange(5, 50))
            ms, _ = synthetic_oracle_match(a, b, outlier_rate=0.5, seed=seed)
            ms.validate(40, 45)
