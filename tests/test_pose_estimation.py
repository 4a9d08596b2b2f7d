"""P3P oracle round trips, LO-RANSAC behavior with outliers, LM refinement."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import in_image, pose_allclose
import p3p_oracle
import seqloc.pose_estimation as pe
from se3_oracle import apply_many, project, project_points, project_with_jacobian
from seqloc.geometry import CameraIntrinsics, Pose, Quaternion, boxplus
from seqloc.pose_estimation import (
    CameraView,
    PoseStatus,
    lo_ransac_pnp,
    p3p,
    refine_pose,
    reprojection_errors,
)

K = CameraIntrinsics(fx=500, fy=500, cx=320, cy=240, width=640, height=480)


def random_camera(rng) -> Pose:
    q = Quaternion.from_rotvec(rng.normal(scale=0.3, size=3))
    return Pose(q, rng.normal(scale=0.5, size=3))


def scene_in_front(rng, T_cam_from_world: Pose, n: int) -> np.ndarray:
    cam_pts = np.column_stack(
        [rng.uniform(-1, 1, n), rng.uniform(-0.7, 0.7, n), rng.uniform(2, 6, n)]
    )
    return apply_many(T_cam_from_world.inverse(), cam_pts)


def project_all(T, X):
    return np.array([project(K, T, x) for x in X])


def solutions(result, sample: int) -> list[Pose]:
    """The poses p3p returned for one sample of its block."""
    q, t, idx = result
    return [Pose(Quaternion(*q[k]), t[k]) for k in np.flatnonzero(idx == sample)]


def no_solutions():
    return np.empty((0, 4)), np.empty((0, 3)), np.empty(0, dtype=int)


class TestP3P:
    def test_recovers_known_pose(self, rng):
        Ts = [random_camera(rng) for _ in range(100)]
        X = np.array([scene_in_front(rng, T, 3) for T in Ts])
        pix = np.array([project_all(T, x) for T, x in zip(Ts, X)])
        result = p3p(X, pix, K)
        for s, T in enumerate(Ts):
            assert any(pose_allclose(sol, T, atol=1e-9) for sol in solutions(result, s))

    def test_collinear_rejected(self):
        X = np.array([[0, 0, 4.0], [0.1, 0, 4.0], [0.2, 0, 4.0]])
        pix = np.array([[320, 240.0], [332.5, 240.0], [345, 240.0]])
        for q in p3p(X, pix, K):
            assert len(q) == 0

    def test_all_solutions_reproject_exactly(self, rng):
        # points on a unit-sphere sector in front of an identity camera
        X = []
        for _ in range(50):
            dirs = rng.normal(size=(3, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            dirs[:, 2] = np.abs(dirs[:, 2]) + 0.5
            X.append(dirs / np.linalg.norm(dirs, axis=1, keepdims=True))
        X = np.array(X)
        pix = np.array([project_all(Pose.identity(), x) for x in X])
        result = p3p(X, pix, K)
        assert len(result[0]) >= 50
        for s in range(len(X)):
            for sol in solutions(result, s):
                for i in range(3):
                    assert np.linalg.norm(project(K, sol, X[s, i]) - pix[s, i]) < 1e-6

    def test_matches_grunert_oracle(self, rng):
        # 200 triples, 10 of them near-collinear, then 105 degenerate ones. On
        # near-collinear triples the pose from Lambda Twist's depths alone is
        # off by up to 1e-6; the polish brings it within 1e-10 of the oracle.
        X, pix = [], []
        while len(X) < 200:
            T = random_camera(rng)
            cam = np.column_stack([rng.uniform(-1, 1, 3), rng.uniform(-0.7, 0.7, 3), rng.uniform(2, 6, 3)])
            if len(X) < 10:
                d = cam[1] - cam[0]
                cam[2] = cam[0] + 1.7 * d + rng.normal(size=3) * 5e-3 * np.linalg.norm(d)
            x = apply_many(T.inverse(), cam)
            p, depth = project_points(K, T, x)
            if (depth > 0.1).all():
                X.append(x)
                pix.append(p)
        line = np.array([[0, 0, 4.0], [0.1, 0, 4.0], [0.3, 0, 4.0]])
        slanted = np.array([0.1, -0.2, 4.0]) + np.outer([0.0, 0.37, 1.1], [0.3, 0.2, 0.9])
        X += [line, line[[0, 0, 1]], line[[2, 2, 2]], line[[0, 1, 1]] + [0, 0.1, 0], slanted]
        for _ in range(100):  # collinear to 1e-12 of their span: degenerate as well
            along = np.outer(rng.uniform(-1, 1, 3), rng.normal(size=3))
            X.append(slanted[0] + along + rng.normal(size=(3, 3)) * 1e-12)
        pix += [project_all(Pose.identity(), x) for x in X[200:]]
        result = p3p(np.array(X), np.array(pix), K)
        found = 0
        for s in range(200):
            mine = [sol.as_array7() for sol in solutions(result, s)]
            for ref in p3p_oracle.p3p(X[s], pix[s], K):
                assert min(np.abs(m - ref.as_array7()).max() for m in mine) < 1e-9
                found += 1
        assert found >= 200
        assert (result[2] < 200).all()

    def test_polish_non_finite_step_returns_none(self, rng, monkeypatch):
        T = random_camera(rng)
        X = scene_in_front(rng, T, 3)
        pix = project_all(T, X)
        assert any(pose_allclose(sol, T, atol=1e-9) for sol in solutions(p3p(X, pix, K), 0))
        monkeypatch.setattr(np.linalg, "solve", lambda A, b: np.full(b.shape, np.nan))
        assert len(p3p(X, pix, K)[0]) == 0

    def test_singular_polish_keeps_block_unpolished(self, rng, monkeypatch):
        T = random_camera(rng)
        X = scene_in_front(rng, T, 3)
        pix = project_all(T, X)

        def singular(A, b):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        assert any(pose_allclose(sol, T, atol=1e-6) for sol in solutions(p3p(X, pix, K), 0))


def scalar_refine(T0, points, pixels, cam_idx, views, huber_px=2.0, max_iters=50, tol=1e-12):
    """Oracle: refine_pose with the normal equations summed point by point."""

    def cost(T):
        e = reprojection_errors(T, points, pixels, cam_idx, views)
        if np.isinf(e).any():
            return math.inf
        return float(np.where(e <= huber_px, e**2, 2.0 * huber_px * e - huber_px**2).sum())

    T, c, lam = T0, cost(T0), 1e-4
    for _ in range(max_iters):
        H, g = np.zeros((6, 6)), np.zeros(6)
        for i in range(len(points)):
            view = views[int(cam_idx[i])]
            p, J = project_with_jacobian(view.K, view.T_cam_from_global.compose(T), points[i])
            if p is None:
                continue
            r = p - pixels[i]
            e = np.linalg.norm(r)
            w = 1.0 if e <= huber_px else huber_px / e
            H += w * J.T @ J
            g += w * J.T @ r
        stepped = converged = False
        for _ in range(8):
            delta = np.linalg.solve(H + lam * np.diag(np.diag(H)) + 1e-15 * np.eye(6), -g)
            T_new = boxplus(T, delta)
            c_new = cost(T_new)
            if c_new < c:
                rel = (c - c_new) / max(c, 1e-300)
                T, c, lam = T_new, c_new, max(lam * 0.1, 1e-12)
                stepped = True
                converged = rel < tol or c == 0.0
                break
            lam *= 10.0
        if not stepped or converged:
            break
    return T


class TestRefine:
    def _problem(self, rng, n=100, noise=0.0):
        T = random_camera(rng)
        X = scene_in_front(rng, T, n)
        pix = project_all(T, X)
        if noise:
            pix = pix + rng.normal(scale=noise, size=pix.shape)
        return T, X, pix, np.zeros(n, dtype=int), [CameraView(K)]

    def test_already_optimal_unchanged(self, rng):
        T, X, pix, ci, views = self._problem(rng)
        out = refine_pose(T, X, pix, ci, views)
        assert pose_allclose(out, T, atol=1e-10)

    def test_recovers_from_perturbation(self, rng):
        T, X, pix, ci, views = self._problem(rng)
        T0 = boxplus(T, [0.05, 0, 0, 0, math.radians(2.0), 0])
        out = refine_pose(T0, X, pix, ci, views)
        assert pose_allclose(out, T, atol=1e-8)

    def test_noisy_cost_decreases(self, rng):
        T, X, pix, ci, views = self._problem(rng, noise=1.0)
        T0 = boxplus(T, [0.05, -0.02, 0.01, 0, math.radians(2.0), 0])
        out = refine_pose(T0, X, pix, ci, views)
        e0 = reprojection_errors(T0, X, pix, ci, views)
        e1 = reprojection_errors(out, X, pix, ci, views)
        assert (e1**2).sum() < (e0**2).sum()
        # closer than the perturbed start, but not exact under noise
        err = np.linalg.norm(out.translation - T.translation)
        assert 0 < err < 0.05

    def _rig_problem(self, rng):
        """Three-view rig: view 2 sees nothing, a few view-1 points start behind it."""
        T_true = random_camera(rng)  # T(global<-solve)
        cam_a = random_camera(rng)
        cam_b = cam_a.compose(Pose(Quaternion.from_axis_angle([0, 1, 0], 0.3), [1.0, 0, 0]))
        views = [CameraView(K, cam_a), CameraView(K, cam_b), CameraView(K, random_camera(rng))]
        T0 = boxplus(T_true, [0.05, -0.03, 0.2, 0.01, math.radians(2.0), 0])
        pts, ci = [], []
        for c in (0, 1):
            pts.append(scene_in_front(rng, views[c].T_cam_from_global.compose(T_true), 30))
            ci += [c] * 30
        # Points 0.3 m in front of view 1 at the truth and 0.1 m behind it at T0.
        W_true = views[1].T_cam_from_global.compose(T_true)
        W0 = views[1].T_cam_from_global.compose(T0)
        A = np.array([W_true.rotation.matrix[2], W0.rotation.matrix[2]])
        b = np.array([0.3 - W_true.translation[2], -0.1 - W0.translation[2]])
        base = np.linalg.lstsq(A, b, rcond=None)[0]
        along = np.cross(A[0], A[1])
        pts.append(base + np.outer([-0.4, 0.0, 0.4], along / np.linalg.norm(along)))
        ci += [1] * 3
        pts, ci = np.vstack(pts), np.array(ci)
        pix = np.array(
            [project(K, views[c].T_cam_from_global.compose(T_true), x) for c, x in zip(ci, pts)]
        )
        pix += rng.normal(scale=1.0, size=pix.shape)
        pix[:4] += 40.0  # a few in the Huber tail
        return T0, pts, pix, ci, views

    def test_rig_matches_scalar_normal_equations(self, rng):
        T0, X, pix, ci, views = self._rig_problem(rng)
        assert np.isinf(reprojection_errors(T0, X, pix, ci, views)[-3:]).all()
        for max_iters in (1, 3, 50):
            got = refine_pose(T0, X, pix, ci, views, max_iters=max_iters, tol=1e-12)
            want = scalar_refine(T0, X, pix, ci, views, max_iters=max_iters, tol=1e-12)
            assert not pose_allclose(got, T0, atol=1e-6)
            np.testing.assert_allclose(got.as_array7(), want.as_array7(), rtol=0, atol=1e-9)
        assert np.isfinite(reprojection_errors(got, X, pix, ci, views)).all()

    def test_default_tol_near_strict(self):
        # The default stops at the noise floor; the pose stays within a few
        # micrometres of the run to a relative decrease of 1e-12.
        for seed in range(30):
            T0, X, pix, ci, views = self._rig_problem(np.random.default_rng(seed))
            got = refine_pose(T0, X, pix, ci, views)
            want = refine_pose(T0, X, pix, ci, views, tol=1e-12)
            assert np.abs(got.translation - want.translation).max() <= 1e-5
            assert np.abs(got.rotation.wxyz - want.rotation.wxyz).max() <= 1e-6

    def test_step_behind_camera_rejected(self, rng, monkeypatch):
        # One far outlier sits 1 m in front of the camera at T0 and 0.3 m behind
        # it at the truth, towards which the other 40 points pull. Trials that put
        # it behind cost inf and are rejected.
        T, X, pix, ci, views = self._problem(rng, n=40)
        T0 = boxplus(T, [0.1, -0.05, 0.3, 0.02, 0.0, math.radians(3.0)])
        A = np.array([T0.rotation.matrix[2], T.rotation.matrix[2]])
        b = np.array([1.0 - T0.translation[2], -0.3 - T.translation[2]])
        Xb = np.linalg.lstsq(A, b, rcond=None)[0]
        X, pix, ci = np.vstack([X, Xb]), np.vstack([pix, project(K, T0, Xb) + 1e5]), np.append(ci, 0)
        project_many, in_front = pe.project_many_with_jacobian, []

        def spy(*args):
            out = project_many(*args)
            in_front.append(bool(out[2].all()))
            return out

        monkeypatch.setattr(pe, "project_many_with_jacobian", spy)
        out = refine_pose(T0, X, pix, ci, views)
        assert in_front[0] and not all(in_front)
        assert not pose_allclose(out, T0, atol=1e-3)
        assert np.isfinite(reprojection_errors(out, X, pix, ci, views)).all()


class TestLoRansac:
    def _clean(self, rng, n=20):
        T = random_camera(rng)
        X = scene_in_front(rng, T, n)
        pix = project_all(T, X)
        return T, X, pix

    def test_noise_free_all_inliers(self, rng):
        T, X, pix = self._clean(rng)
        est = lo_ransac_pnp("f", X, pix, np.zeros(len(X), dtype=int), [CameraView(K)], seed=0)
        assert est.status is PoseStatus.LOCALIZED
        assert est.inlier_count == len(X)
        assert np.linalg.norm(est.pose.translation - T.translation) < 1e-6
        assert (est.pose.rotation.conjugate() * T.rotation).angle < 1e-6

    def test_outliers_mask_matches_oracle(self, rng):
        for seed in range(5):
            T, X, pix = self._clean(rng, n=40)
            out = rng.random(len(X)) < 0.3
            corrupted = pix.copy()
            for i in np.flatnonzero(out):
                corrupted[i] += rng.uniform(25, 150, 2) * rng.choice([-1, 1], 2)
            est = lo_ransac_pnp(
                "f", X, corrupted, np.zeros(len(X), dtype=int), [CameraView(K)], seed=seed
            )
            np.testing.assert_array_equal(est.inlier_mask, ~out)
            assert np.linalg.norm(est.pose.translation - T.translation) < 1e-6

    def test_below_minimal_set(self, rng):
        T, X, pix = self._clean(rng, n=2)
        est = lo_ransac_pnp("f", X, pix, np.zeros(2, dtype=int), [CameraView(K)])
        assert est.status is PoseStatus.SKIPPED_NO_MATCHES
        assert est.pose is None

    def test_gate_rejects_few_inliers(self, rng):
        T, X, pix = self._clean(rng, n=6)
        est = lo_ransac_pnp(
            "f", X, pix, np.zeros(6, dtype=int), [CameraView(K)], min_inliers=10
        )
        assert est.status is PoseStatus.REJECTED_FEW_INLIERS
        assert est.inlier_count == 6  # found them all, still gated

    def test_deterministic(self, rng):
        T, X, pix = self._clean(rng, n=30)
        pix[rng.random(30) < 0.3] += 60.0
        a = lo_ransac_pnp("f", X, pix, np.zeros(30, dtype=int), [CameraView(K)], seed=9)
        b = lo_ransac_pnp("f", X, pix, np.zeros(30, dtype=int), [CameraView(K)], seed=9)
        assert a.pose.as_array7().tobytes() == b.pose.as_array7().tobytes()
        np.testing.assert_array_equal(a.inlier_mask, b.inlier_mask)
        assert a.iterations == b.iterations
        assert a.inlier_history == b.inlier_history and len(a.inlier_history) > 1

    def test_best_count_monotone(self, rng):
        T, X, pix = self._clean(rng, n=40)
        out = rng.random(40) < 0.25
        for i in np.flatnonzero(out):
            pix[i] += 80.0
        est = lo_ransac_pnp("f", X, pix, np.zeros(40, dtype=int), [CameraView(K)], seed=1)
        h = est.inlier_history
        assert all(a <= b for a, b in zip(h, h[1:]))

    def test_generalized_two_views(self, rng):
        # points in a local frame observed by two known global cameras
        T_true = random_camera(rng)  # T(global<-local)
        cam_a = random_camera(rng)
        cam_b = cam_a.compose(Pose(Quaternion.from_axis_angle([0, 1, 0], 0.3), [1.0, 0, 0]))
        views = [CameraView(K, cam_a), CameraView(K, cam_b)]
        pts_local, pixels, cam_idx = [], [], []
        for c, view in enumerate(views):
            W = view.T_cam_from_global.compose(T_true)
            X_local = scene_in_front(rng, W, 15)
            for x in X_local:
                p = project(K, W, x)
                if p is not None and in_image(K, p):
                    pts_local.append(x)
                    pixels.append(p)
                    cam_idx.append(c)
        est = lo_ransac_pnp(
            "f", np.array(pts_local), np.array(pixels), np.array(cam_idx), views, seed=0
        )
        assert est.status is PoseStatus.LOCALIZED
        assert pose_allclose(est.pose, T_true, atol=1e-6)

    def test_no_p3p_solutions_rejects_without_a_pose(self, rng, monkeypatch):
        _, X, pix = self._clean(rng, n=15)
        monkeypatch.setattr(pe, "p3p", lambda *a, **k: no_solutions())
        est = lo_ransac_pnp(
            "f", X, pix, np.zeros(15, dtype=int), [CameraView(K)], seed=0, max_iters=50
        )
        assert est.status is PoseStatus.REJECTED_FEW_INLIERS
        assert est.pose is None and est.inlier_count == 0 and not est.inlier_mask.any()
        assert est.iterations == 50


def line_points(jitter: float, rng) -> np.ndarray:
    """30 points on x = 1.5s, y = 0.4s + 0.1, z = 5 + 0.8s for s in [-1, 1], 4-6 m in
    front of an identity camera, each moved by normal noise of sigma jitter (m)."""
    s = np.linspace(-1.0, 1.0, 30)
    X = np.column_stack([1.5 * s, 0.4 * s + 0.1, 5.0 + 0.8 * s])
    return X + rng.normal(scale=jitter, size=X.shape) if jitter else X


@pytest.mark.parametrize(
    "jitter, pixel_noise", [(0.0, 0.0), (1e-12, 0.0), (1e-10, 0.0), (0.0, 0.5)],
    ids=["exact", "jitter_1e-12", "jitter_1e-10", "pixel_noise_0.5px"],
)
def test_collinear_support_rejected_before_sampling(jitter, pixel_noise):
    # Exact pixels carry the jitter, so a minimal solver can fit a jittered line
    # exactly: only the support test keeps it from LOCALIZED at 30/30.
    rng = np.random.default_rng(1)
    X = line_points(jitter, rng)
    pix = project_all(Pose.identity(), X) + rng.normal(scale=pixel_noise, size=(len(X), 2))
    views, ci = [CameraView(K)], np.zeros(len(X), dtype=int)
    seconds = []
    for _ in range(3):
        t0 = time.perf_counter()
        est = lo_ransac_pnp("f", X, pix, ci, views, seed=1)
        seconds.append(time.perf_counter() - t0)
    assert est.status is PoseStatus.REJECTED_DEGENERATE
    assert est.pose is None and est.iterations == 0
    assert est.inlier_count == 0 and est.inlier_mask.shape == (30,) and not est.inlier_mask.any()
    assert min(seconds) < 0.01


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    n=st.integers(3, 30),
    length=st.floats(1e-2, 1e2),
    rel_jitter=st.floats(0.0, 1e-10),
    seed=st.integers(0, 2**32 - 1),
)
def test_lines_reject_and_scenes_do_not(n, length, rel_jitter, seed):
    # Points spanning length along any direction, each moved by at most
    # rel_jitter * length: the second singular value of the centred points is at
    # most sqrt(2n) * rel_jitter of the first, under COLLINEAR_TOL for n <= 30.
    rng = np.random.default_rng(seed)
    d = rng.normal(size=3)
    s = np.concatenate([[0.0, 1.0], rng.uniform(0.0, 1.0, n - 2)])
    off = rng.normal(size=(n, 3))
    off *= rel_jitter * length * rng.uniform(0.0, 1.0, (n, 1)) / np.linalg.norm(off, axis=1, keepdims=True)
    X = rng.uniform(-10, 10, 3) + np.outer(s * length, d / np.linalg.norm(d)) + off
    pix = rng.uniform(0, 640, (n, 2))
    views, ci = [CameraView(K)], np.zeros(n, dtype=int)
    est = lo_ransac_pnp("f", X, pix, ci, views, seed=seed)
    assert est.status is PoseStatus.REJECTED_DEGENERATE and est.pose is None
    T = random_camera(rng)
    X = scene_in_front(rng, T, n)
    est = lo_ransac_pnp("f", X, project_all(T, X), ci, views, seed=seed)
    assert est.status is not PoseStatus.REJECTED_DEGENERATE and est.pose is not None


def loop_errors(q, t, points, pixels, cam_idx, views):
    """Oracle: the batched scorer's (H,N) errors, hypothesis by hypothesis, view by view."""
    out = np.full((len(q), len(points)), np.inf)
    for h in range(len(q)):
        T = Pose(Quaternion(*q[h]), t[h])
        for c, view in enumerate(views):
            W = view.T_cam_from_global.compose(T)
            for i in np.flatnonzero(cam_idx == c):
                p = project(view.K, W, points[i])
                if p is not None:
                    out[h, i] = np.linalg.norm(p - pixels[i])
    return out


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    n_views=st.integers(1, 4),
    n_poses=st.integers(1, 6),
    n_points=st.integers(0, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_scorer_matches_loop(n_views, n_poses, n_points, seed):
    rng = np.random.default_rng(seed)
    views = [CameraView(K, random_camera(rng)) for _ in range(n_views)]
    poses = [random_camera(rng) for _ in range(n_poses)]
    q = np.array([T.rotation.wxyz for T in poses])
    t = np.array([T.translation for T in poses])
    # Every view may be left empty; points spread on both sides of the cameras.
    cam_idx = rng.integers(0, n_views, n_points)
    points = rng.normal(scale=3.0, size=(n_points, 3))
    pixels = rng.uniform(0, 640, size=(n_points, 2))
    got = pe._errors(q, t, pe._observations(points, pixels, cam_idx, views))
    want = loop_errors(q, t, points, pixels, cam_idx, views)
    np.testing.assert_array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-9, atol=1e-9)
    for h, T in enumerate(poses):
        np.testing.assert_array_equal(reprojection_errors(T, points, pixels, cam_idx, views), got[h])


def seeded_scene(seed: int):
    """One or two views of 20-40 correspondences each, 0-40% of them outliers."""
    rng = np.random.default_rng(seed)
    T_true = random_camera(rng)
    views = [CameraView(K, random_camera(rng)) for _ in range(1 + seed % 2)]
    pts, pix, ci = [], [], []
    for c, view in enumerate(views):
        W = view.T_cam_from_global.compose(T_true)
        X = scene_in_front(rng, W, int(rng.integers(20, 40)))
        pts.append(X)
        pix.append(np.array([project(K, W, x) for x in X]) + rng.normal(scale=0.5, size=(len(X), 2)))
        ci += [c] * len(X)
    pts, pix, ci = np.vstack(pts), np.vstack(pix), np.array(ci)
    out = rng.permutation(len(pts))[: int(0.1 * (seed % 5) * len(pts))]
    pix[out] += rng.uniform(20, 150, (len(out), 2)) * rng.choice([-1, 1], (len(out), 2))
    return pts, pix, ci, views


def test_lo_ransac_bit_identical_across_calls():
    for seed in range(25):
        pts, pix, ci, views = seeded_scene(seed)
        a, b = (lo_ransac_pnp("f", pts, pix, ci, views, seed=seed) for _ in range(2))
        assert a.status is PoseStatus.LOCALIZED
        assert a.pose.as_array7().tobytes() == b.pose.as_array7().tobytes()
        np.testing.assert_array_equal(a.inlier_mask, b.inlier_mask)
        assert a.iterations == b.iterations
        assert a.inlier_history == b.inlier_history
        assert all(x <= y for x, y in zip(a.inlier_history, a.inlier_history[1:]))


class TestBlocks:
    def _count_refines(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(len(args[1]))
            return refine_pose(*args, **kwargs)

        monkeypatch.setattr(pe, "refine_pose", counted)
        return calls

    def test_lo_only_when_count_rises(self, rng, monkeypatch):
        # The first block finds every inlier. The LO round cannot raise the
        # count; its lower RMS makes it the model, but no second round runs.
        # The final refinement is the only other call.
        calls = self._count_refines(monkeypatch)
        T, X, pix = TestLoRansac()._clean(rng, n=30)
        pix += rng.normal(scale=0.3, size=pix.shape)
        est = lo_ransac_pnp("f", X, pix, np.zeros(30, dtype=int), [CameraView(K)], seed=0)
        assert est.inlier_history[:2] == [30, 30]
        assert calls == [30, 30]
        assert est.iterations == pe.BLOCK

    def test_final_refinement_skipped_after_a_rejected_one(self, rng, monkeypatch):
        # A refinement that returns its start is never adopted. The final one
        # would start from the same model and inliers and repeat it, so it does
        # not run.
        calls = []

        def stays(T0, points, *args, **kwargs):
            calls.append(len(points))
            return T0

        monkeypatch.setattr(pe, "refine_pose", stays)
        T, X, pix = TestLoRansac()._clean(rng, n=30)
        pix += rng.normal(scale=0.3, size=pix.shape)
        est = lo_ransac_pnp("f", X, pix, np.zeros(30, dtype=int), [CameraView(K)], seed=0)
        assert est.inlier_history == [30]
        assert calls == [30]
        assert est.iterations == pe.BLOCK

    @pytest.mark.parametrize("max_iters", [1, 5, 8, 13])
    def test_iterations_whole_blocks_up_to_max_iters(self, rng, max_iters):
        T, X, pix = TestLoRansac()._clean(rng, n=40)
        pix[:24] += rng.uniform(20, 150, (24, 2))  # 60% outliers: the stop never comes
        est = lo_ransac_pnp(
            "f", X, pix, np.zeros(40, dtype=int), [CameraView(K)], seed=3, max_iters=max_iters,
        )
        assert est.iterations == max_iters
