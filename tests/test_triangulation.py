"""Neighbor selection traces, two-view triangulation vs forward projection and vs the
per-pair oracle, assembly."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from se3_oracle import apply, apply_many, project
from seqloc.geometry import CameraIntrinsics, Pose, Quaternion
from seqloc.ingest import Frame
from seqloc.matching import MatchSet
from seqloc.triangulation import (
    LiftedPoints,
    Reject,
    TriangulationResult,
    assemble_3d2d,
    select_neighbors,
    triangulate_matches,
    triangulate_pair,
)

from helpers import in_image, random_pose

K = CameraIntrinsics(fx=500, fy=500, cx=320, cy=240, width=640, height=480)
DEG = math.pi / 180.0


def pose_at(x=0.0, y=0.0, z=0.0, axis=None, angle=0.0) -> Pose:
    q = Quaternion.identity() if axis is None else Quaternion.from_axis_angle(axis, angle)
    return Pose(q, [x, y, z])


def scalar_triangulate(T_a, T_b, K_a, K_b, pix_a, pix_b, max_reproj_px=3.0, min_angle_deg=1.0):
    """Oracle: DLT and one Gauss-Newton step, one pixel pair at a time.

    Returns the TriangulationResult and the smallest distance between a value
    it compared and that comparison's threshold.
    """
    pix_a = np.asarray(pix_a, dtype=float)
    pix_b = np.asarray(pix_b, dtype=float)
    cam_a, cam_b = T_a.inverse(), T_b.inverse()
    center_a, center_b = T_a.translation, T_b.translation
    # The kernel computes the baseline from the same numbers: it needs no margin.
    if np.linalg.norm(center_a - center_b) < 1e-9:
        return TriangulationResult(None, reject=Reject.DEGENERATE_RAYS), math.inf
    P_a = K_a.K @ cam_a.matrix[:3, :]
    P_b = K_b.K @ cam_b.matrix[:3, :]
    A = np.vstack(
        [
            pix_a[0] * P_a[2] - P_a[0],
            pix_a[1] * P_a[2] - P_a[1],
            pix_b[0] * P_b[2] - P_b[0],
            pix_b[1] * P_b[2] - P_b[1],
        ]
    )
    Xh = np.linalg.svd(A)[2][-1]
    margins = [abs(abs(Xh[3]) - 1e-12)]
    if abs(Xh[3]) < 1e-12:
        return TriangulationResult(None, reject=Reject.DEGENERATE_RAYS), min(margins)
    X = scalar_gauss_newton_step(Xh[:3] / Xh[3], [(cam_a, K_a, pix_a), (cam_b, K_b, pix_b)], margins)

    za, zb = apply(cam_a, X)[2], apply(cam_b, X)[2]
    margins += [abs(za - 1e-9), abs(zb - 1e-9)]
    if za <= 1e-9 or zb <= 1e-9:
        return TriangulationResult(None, reject=Reject.BEHIND_CAMERA), min(margins)
    ra = float(np.linalg.norm(project(K_a, cam_a, X) - pix_a))
    rb = float(np.linalg.norm(project(K_b, cam_b, X) - pix_b))
    margins += [abs(ra - max_reproj_px), abs(rb - max_reproj_px)]
    if ra > max_reproj_px or rb > max_reproj_px:
        return TriangulationResult(None, ra, rb, Reject.REPROJ_TOO_LARGE), min(margins)
    da, db = X - center_a, X - center_b
    cosang = np.dot(da, db) / (np.linalg.norm(da) * np.linalg.norm(db))
    angle = math.degrees(math.acos(np.clip(cosang, -1.0, 1.0)))
    margins.append(abs(angle - min_angle_deg))
    if angle < min_angle_deg:
        return TriangulationResult(None, ra, rb, Reject.ANGLE_TOO_SMALL), min(margins)
    return TriangulationResult(X, ra, rb), min(margins)


def scalar_gauss_newton_step(X, views, margins):
    """Oracle: the reprojection step with the point Jacobian J_pi R written out."""
    J = np.zeros((2 * len(views), 3))
    r = np.zeros(2 * len(views))
    for v, (cam, K_v, pix) in enumerate(views):
        pc = apply(cam, X)
        margins.append(abs(pc[2] - 1e-9))
        if pc[2] <= 1e-9:
            return X
        r[2 * v : 2 * v + 2] = (K_v.fx * pc[0] / pc[2] + K_v.cx - pix[0],
                                K_v.fy * pc[1] / pc[2] + K_v.cy - pix[1])
        J_pi = np.array(
            [
                [K_v.fx / pc[2], 0.0, -K_v.fx * pc[0] / pc[2] ** 2],
                [0.0, K_v.fy / pc[2], -K_v.fy * pc[1] / pc[2] ** 2],
            ]
        )
        J[2 * v : 2 * v + 2] = J_pi @ cam.rotation.matrix
    try:
        delta = np.linalg.solve(J.T @ J, -J.T @ r)
    except np.linalg.LinAlgError:
        return X
    return X + delta if np.all(np.isfinite(delta)) else X


def pixels(K_v, T_cam_from_world, X):
    """Pinhole pixels of (N,3) points, also for points behind the camera."""
    pc = apply_many(T_cam_from_world, X)
    return pc[:, :2] / pc[:, 2:] * [K_v.fx, K_v.fy] + [K_v.cx, K_v.cy]


def two_view_matches(rng, T_a, T_b, X, noise_px=0.0, rewire=0.0):
    """Noisy pixels of X in both views, a share of the b pixels shuffled, as a MatchSet.

    Returns (ms, kps_a, kps_b, pa, pb): match k pairs pa[k] with pb[k].
    """
    n = len(X)
    pa = pixels(K, T_a.inverse(), X) + rng.normal(scale=noise_px, size=(n, 2))
    pb = pixels(K, T_b.inverse(), X) + rng.normal(scale=noise_px, size=(n, 2))
    moved = np.flatnonzero(rng.random(n) < rewire)
    pb[moved] = pb[rng.permutation(moved)]
    idx_a, idx_b = rng.permutation(n), rng.permutation(n)
    kps_a, kps_b = np.empty((n, 2)), np.empty((n, 2))
    kps_a[idx_a], kps_b[idx_b] = pa, pb
    ms = MatchSet("a", "b", idx_a=idx_a, idx_b=idx_b, scores=np.ones(n))
    return ms, kps_a, kps_b, pa, pb


def assert_matches_oracle(T_a, T_b, ms, kps_a, kps_b, pa, pb):
    """triangulate_matches and triangulate_pair against scalar_triangulate, row by row.

    Rows where the oracle compared a value within 1e-9 of its threshold are
    skipped. Returns the oracle's reject reasons.
    """
    oracle = [scalar_triangulate(T_a, T_b, K, K, a, b) for a, b in zip(pa, pb)]
    lifted = triangulate_matches(ms, T_a, T_b, K, K, kps_a, kps_b)
    near = {int(i) for i, (_, margin) in zip(ms.idx_a, oracle) if margin < 1e-9}
    expected = [(int(i), res) for i, (res, _) in zip(ms.idx_a, oracle) if res.ok]
    kp_idx = lifted.kp_idx.tolist()
    assert [i for i, _ in expected if i not in near] == [i for i in kp_idx if i not in near]
    row = {i: k for k, i in enumerate(kp_idx)}
    for i, res in expected:
        if i not in near:
            np.testing.assert_allclose(lifted.points[row[i]], res.point, rtol=0, atol=1e-9)
            np.testing.assert_allclose(lifted.reproj[row[i]], [res.reproj_a, res.reproj_b], rtol=0, atol=1e-9)
    for a, b, (res, margin) in zip(pa, pb, oracle):
        if margin < 1e-9:
            continue
        got = triangulate_pair(T_a, T_b, K, K, a, b)
        assert got.reject is res.reject
        assert got.reproj_a == pytest.approx(res.reproj_a, abs=1e-9)
        assert got.reproj_b == pytest.approx(res.reproj_b, abs=1e-9)
        if res.ok:
            np.testing.assert_allclose(got.point, res.point, rtol=0, atol=1e-9)
    return [res.reject for res, margin in oracle if margin >= 1e-9]


class TestSelectNeighbors:
    def test_identical_poses_no_neighbor(self):
        poses = [Pose.identity(), Pose.identity()]
        assert select_neighbors(poses, 0.3, 10 * DEG) == [None, None]

    def test_translation_trace(self):
        # hand-evaluated: x = 0, 0.1, 0.4; first j with displacement >= 0.3
        poses = [pose_at(0.0), pose_at(0.1), pose_at(0.4)]
        assert select_neighbors(poses, 0.3, 10 * DEG) == [2, 2, None]

    def test_rotation_half_angle_trace(self):
        # 25 deg relative rotation: half-angle 12.5 >= 10 -> neighbor found
        poses = [pose_at(0.0), pose_at(0.0, axis=[0, 1, 0], angle=25 * DEG)]
        assert select_neighbors(poses, 0.3, 10 * DEG) == [1, None]
        # 18 deg: half-angle 9 < 10 -> none
        poses = [pose_at(0.0), pose_at(0.0, axis=[0, 1, 0], angle=18 * DEG)]
        assert select_neighbors(poses, 0.3, 10 * DEG) == [None, None]

    def test_first_qualifying_not_best(self):
        poses = [pose_at(0.0), pose_at(0.35), pose_at(5.0)]
        assert select_neighbors(poses, 0.3, 10 * DEG)[0] == 1

    def test_invariant_under_rigid_transform(self, rng):
        for _ in range(20):
            poses = [random_pose(rng, t_scale=0.4) for _ in range(6)]
            base = select_neighbors(poses, 0.3, 10 * DEG)
            G = random_pose(rng, t_scale=3.0)
            moved = [G.compose(p) for p in poses]
            assert select_neighbors(moved, 0.3, 10 * DEG) == base


class TestTriangulatePair:
    def test_forward_projection_roundtrip(self):
        T_a = pose_at(0.0)
        T_b = pose_at(1.0)
        X = np.array([0.5, 0.0, 5.0])
        pa = project(K, T_a.inverse(), X)
        pb = project(K, T_b.inverse(), X)
        res = triangulate_pair(T_a, T_b, K, K, pa, pb)
        assert res.ok
        np.testing.assert_allclose(res.point, X, atol=1e-6)
        assert res.reproj_a < 1e-6 and res.reproj_b < 1e-6

    def test_random_posed_cameras(self, rng):
        for _ in range(50):
            T_a = random_pose(rng, t_scale=0.3)
            T_b = T_a.compose(pose_at(rng.uniform(0.5, 1.0), rng.uniform(-0.2, 0.2)))
            X_cam = np.array([rng.uniform(-1, 1), rng.uniform(-0.7, 0.7), rng.uniform(3, 8)])
            X = apply(T_a, X_cam)
            pa = project(K, T_a.inverse(), X)
            pb = project(K, T_b.inverse(), X)
            if pa is None or pb is None or not (in_image(K, pa) and in_image(K, pb)):
                continue
            res = triangulate_pair(T_a, T_b, K, K, pa, pb)
            assert res.ok
            np.testing.assert_allclose(res.point, X, atol=1e-6)

    def test_zero_baseline_rejected(self):
        T_a = pose_at(0.0)
        T_b = pose_at(0.0, axis=[0, 1, 0], angle=30 * DEG)
        res = triangulate_pair(T_a, T_b, K, K, [320, 240], [320, 240])
        assert res.reject in (Reject.DEGENERATE_RAYS, Reject.ANGLE_TOO_SMALL)

    def test_noisy_short_baseline_rejected(self, rng):
        # 5 px noise on a 2 cm baseline: reprojection bound must fire
        T_a = pose_at(0.0)
        T_b = pose_at(0.02)
        X = np.array([0.2, -0.1, 6.0])
        pa = project(K, T_a.inverse(), X) + rng.normal(scale=5.0, size=2)
        pb = project(K, T_b.inverse(), X) + rng.normal(scale=5.0, size=2)
        res = triangulate_pair(T_a, T_b, K, K, pa, pb)
        assert not res.ok
        assert res.reject in (Reject.REPROJ_TOO_LARGE, Reject.ANGLE_TOO_SMALL,
                              Reject.BEHIND_CAMERA)

    def test_behind_camera_rejected(self):
        T_a = pose_at(0.0)
        T_b = pose_at(1.0)
        # diverging rays meet behind both cameras
        res = triangulate_pair(T_a, T_b, K, K, [220, 240], [420, 240])
        assert res.reject in (Reject.BEHIND_CAMERA, Reject.REPROJ_TOO_LARGE)

    def test_small_angle_rejected(self):
        T_a = pose_at(0.0)
        T_b = pose_at(0.05)
        X = np.array([0.0, 0.0, 30.0])  # angle ~ 0.0955 deg < 1 deg
        pa = project(K, T_a.inverse(), X)
        pb = project(K, T_b.inverse(), X)
        res = triangulate_pair(T_a, T_b, K, K, pa, pb, min_angle_deg=1.0)
        assert res.reject is Reject.ANGLE_TOO_SMALL


class TestTriangulateMatches:
    def test_scenes_agree_with_scalar_oracle(self, rng):
        seen = set()
        # baseline, pixel noise, rewired share; 0 and 1e-10 m are zero baselines
        for baseline, noise_px, rewire in [
            (0.0, 0.5, 0.0), (1e-10, 0.5, 0.0), (1e-4, 0.5, 0.2), (0.02, 2.0, 0.3),
            (0.3, 0.5, 0.3), (1.0, 0.0, 0.0), (1.0, 1.0, 0.4),
        ]:
            for _ in range(4):
                T_a = random_pose(rng, t_scale=0.5)
                axis = rng.normal(size=3)
                step = Pose(Quaternion.from_axis_angle(axis, rng.uniform(0, 10 * DEG)),
                            baseline * axis / np.linalg.norm(axis))
                T_b = T_a.compose(step)
                X_cam = np.column_stack(
                    [rng.uniform(-2, 2, 40), rng.uniform(-1.5, 1.5, 40), rng.uniform(2, 12, 40)]
                )
                X_cam[:5, 2] *= -1  # behind camera a
                X = apply_many(T_a, X_cam)
                matches = two_view_matches(rng, T_a, T_b, X, noise_px, rewire)
                seen.update(assert_matches_oracle(T_a, T_b, *matches))
        assert seen == {None, *Reject}

    def test_parallel_rays_degenerate(self):
        # Same pixel in two views that differ by a translation: the rays meet at infinity.
        T_a, T_b = pose_at(0.0), pose_at(0.5, 0.2)
        pix = np.array([[320.0, 240.0], [100.0, 50.0], [600.0, 400.0]])
        ms = MatchSet("a", "b", idx_a=np.arange(3), idx_b=np.arange(3), scores=np.ones(3))
        assert len(triangulate_matches(ms, T_a, T_b, K, K, pix, pix)) == 0
        for p in pix:
            res = triangulate_pair(T_a, T_b, K, K, p, p)
            assert res.reject is Reject.DEGENERATE_RAYS
            assert res.reproj_a == res.reproj_b == math.inf

    def test_empty_match_set(self):
        ms = MatchSet("a", "b")
        empty = np.zeros((0, 2))
        assert len(triangulate_matches(ms, pose_at(0.0), pose_at(1.0), K, K, empty, empty)) == 0
        assert len(triangulate_matches(ms, pose_at(0.0), pose_at(0.0), K, K, empty, empty)) == 0

    def test_reject_counts_are_the_pairs_rejects(self, rng):
        seen = Counter()
        for baseline, noise_px, rewire in [(0.0, 0.5, 0.0), (0.02, 2.0, 0.3), (0.3, 0.5, 0.3), (1.0, 1.0, 0.4)]:
            for _ in range(3):
                T_a = random_pose(rng, t_scale=0.5)
                T_b = T_a.compose(pose_at(baseline, axis=rng.normal(size=3), angle=rng.uniform(0, 10 * DEG)))
                X_cam = np.column_stack(
                    [rng.uniform(-2, 2, 40), rng.uniform(-1.5, 1.5, 40), rng.uniform(2, 40, 40)]
                )
                X_cam[:5, 2] *= -1  # behind camera a
                ms, kps_a, kps_b, pa, pb = two_view_matches(rng, T_a, T_b, apply_many(T_a, X_cam), noise_px, rewire)
                lifted = triangulate_matches(ms, T_a, T_b, K, K, kps_a, kps_b)
                assert lifted.reject_counts.keys() == set(Reject)
                assert sum(lifted.reject_counts.values()) == len(ms) - len(lifted)
                pairs = Counter(triangulate_pair(T_a, T_b, K, K, a, b).reject for a, b in zip(pa, pb))
                assert lifted.reject_counts == {r: pairs[r] for r in Reject}
                seen.update(lifted.reject_counts)
        assert all(seen[r] for r in Reject)


# No shrinking: on a failure it runs for minutes; the unshrunk example is reported at once.
@settings(
    max_examples=60, derandomize=True, deadline=None,
    phases=[p for p in Phase if p is not Phase.shrink],
)
@given(
    rot_a=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
    t_a=st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
    rot_ab=st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3),
    t_ab=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3),
    baseline_scale=st.sampled_from([1.0, 0.03, 1e-3]),
    points=st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
                  st.floats(0.5, 12.0) | st.floats(-12.0, -0.5)),
        min_size=1, max_size=12,
    ),
    noise_px=st.sampled_from([0.0, 0.5, 4.0]),
    seed=st.integers(0, 2**16),
)
def test_kernel_matches_scalar_oracle(
    rot_a, t_a, rot_ab, t_ab, baseline_scale, points, noise_px, seed
):
    T_a = Pose(Quaternion.from_rotvec(rot_a), t_a)
    T_b = T_a.compose(Pose(Quaternion.from_rotvec(rot_ab), np.multiply(t_ab, baseline_scale)))
    X = apply_many(T_a, np.array(points))
    assume(np.all(np.abs(apply_many(T_b.inverse(), X)[:, 2]) > 1e-3))  # a pixel in view b
    matches = two_view_matches(np.random.default_rng(seed), T_a, T_b, X, noise_px, rewire=0.3)
    assert_matches_oracle(T_a, T_b, *matches)


class TestAccpetedPointsProperties:
    def test_noise_free_exactness_many(self, rng):
        # every accepted triangulation reproduces the generating point to 1e-6
        T_a = pose_at(0.0)
        T_b = pose_at(0.8, 0.1)
        pts = np.column_stack(
            [rng.uniform(-1.5, 1.5, 100), rng.uniform(-1, 1, 100), rng.uniform(3, 9, 100)]
        )
        for X in pts:
            pa = project(K, T_a.inverse(), X)
            pb = project(K, T_b.inverse(), X)
            if pa is None or pb is None or not (in_image(K, pa) and in_image(K, pb)):
                continue
            res = triangulate_pair(T_a, T_b, K, K, pa, pb)
            if res.ok:
                np.testing.assert_allclose(res.point, X, atol=1e-6)
                assert res.reproj_a <= 3.0 and res.reproj_b <= 3.0


def lifted_points(idxs) -> LiftedPoints:
    """Keypoints idxs lifted to (i, 0, 1), in the order given."""
    idxs = np.array(list(idxs), dtype=np.intp)
    points = np.column_stack([idxs, np.zeros(len(idxs)), np.ones(len(idxs))])
    return LiftedPoints(idxs, points, np.zeros((len(idxs), 2)), dict.fromkeys(Reject, 0))


def dict_join(lifted, candidate_matches):
    """Oracle: assemble_3d2d as a dict from keypoint to lifted point and a loop over
    every candidate's matches; rows are (point, ref_frame_id, ref_pixel, query_kp_idx, ref_kp_idx)."""
    by_idx = {lp.kp_idx: lp for lp in lifted}
    rows = []
    for ms, ref in candidate_matches:
        for ia, ib in zip(ms.idx_a, ms.idx_b):
            lp = by_idx.get(int(ia))
            if lp is not None:
                rows.append((lp.point, ref.frame_id, np.asarray(ref.keypoints[int(ib)], dtype=float), int(ia), int(ib)))
    return rows


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    lifted_idx=st.lists(st.integers(0, 24), max_size=20),
    candidates=st.lists(
        st.tuples(st.lists(st.integers(0, 24), unique=True, max_size=25), st.integers(0, 2**16)), max_size=4
    ),
)
def test_assemble_matches_dict_join(lifted_idx, candidates):
    # Query keypoints repeat across candidates, and some are not lifted. Repeated
    # lifted keypoints: the dict keeps the last, and so must the lookup.
    lifted = lifted_points(lifted_idx)
    lifted.points[:] += np.arange(len(lifted_idx))[:, None]  # rows of one keypoint differ
    candidate_matches = []
    for c, (idx_a, seed) in enumerate(candidates):
        rng = np.random.default_rng(seed)
        ref = TestAssemble()._ref(rng, f"r{c}", n=30)
        idx_b = rng.permutation(30)[: len(idx_a)]
        candidate_matches.append((TestAssemble()._ms("q0", ref.frame_id, list(zip(idx_a, idx_b))), ref))
    got = assemble_3d2d(lifted, candidate_matches)
    want = dict_join(lifted, candidate_matches)
    assert len(got) == len(want)
    assert got.ref_ids == tuple(ref.frame_id for _, ref in candidate_matches)
    np.testing.assert_array_equal(got.points, np.array([w[0] for w in want]).reshape(-1, 3))
    assert [got.ref_ids[c] for c in got.cam_idx] == [w[1] for w in want]
    np.testing.assert_array_equal(got.ref_pixels, np.array([w[2] for w in want]).reshape(-1, 2))
    assert got.query_kp_idx.tolist() == [w[3] for w in want]
    assert got.ref_kp_idx.tolist() == [w[4] for w in want]
    for row, w in zip(got, want):
        np.testing.assert_array_equal(row.point, w[0])
        assert row.ref_frame_id == w[1]
        np.testing.assert_array_equal(row.ref_pixel, w[2])
        assert (row.query_kp_idx, row.ref_kp_idx) == w[3:]


class TestAssemble:
    def _lifted(self, idxs):
        return lifted_points(idxs)

    def _ref(self, rng, frame_id, n=20):
        kps = np.column_stack([rng.uniform(0, 639, n), rng.uniform(0, 479, n)])
        return Frame(frame_id=frame_id, camera_id="cam0", intrinsics=K, keypoints=kps)

    def _ms(self, query_id, ref_id, pairs):
        return MatchSet(
            frame_a=query_id,
            frame_b=ref_id,
            idx_a=np.array([p[0] for p in pairs], dtype=int),
            idx_b=np.array([p[1] for p in pairs], dtype=int),
            scores=np.ones(len(pairs)),
        )

    def test_no_overlap_empty(self, rng):
        ref = self._ref(rng, "r0")
        ms = self._ms("q0", "r0", [(11, 0), (12, 1)])
        assert len(assemble_3d2d(self._lifted([0, 1, 2]), [(ms, ref)])) == 0

    def test_union_over_candidates(self, rng):
        # 10 lifted; 6 matched to candidate 1, 4 to candidate 2 (2 shared kps)
        lifted = self._lifted(range(10))
        r1, r2 = self._ref(rng, "r1"), self._ref(rng, "r2")
        ms1 = self._ms("q0", "r1", [(i, i) for i in range(6)])
        ms2 = self._ms("q0", "r2", [(i, i + 3) for i in (4, 5, 6, 7)])
        rows = assemble_3d2d(lifted, [(ms1, r1), (ms2, r2)])
        assert len(rows) == 10  # set-intersection oracle: 6 + 4, duplicates kept
        assert sum(r.ref_frame_id == "r1" for r in rows) == 6
        kp_pairs = {(r.query_kp_idx, r.ref_frame_id) for r in rows}
        assert ("q-shared", "never") not in kp_pairs  # structure sanity

    def test_k1_full_coverage(self, rng):
        lifted = self._lifted(range(7))
        ref = self._ref(rng, "r1")
        ms = self._ms("q0", "r1", [(i, i) for i in range(7)])
        rows = assemble_3d2d(lifted, [(ms, ref)])
        assert len(rows) == len(lifted)
        for row, lp in zip(rows, lifted):
            np.testing.assert_array_equal(row.point, lp.point)
            np.testing.assert_array_equal(row.ref_pixel, ref.keypoints[row.ref_kp_idx])
