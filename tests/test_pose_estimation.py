"""P3P oracle round trips, LO-RANSAC behavior with outliers, LM refinement."""

import math

import numpy as np
import pytest

import seqloc.pose_estimation as pe
from seqloc.geometry import (
    CameraIntrinsics,
    Pose,
    Quaternion,
    boxplus,
    project,
    project_with_jacobian,
)
from seqloc.pose_estimation import (
    CameraView,
    PoseStatus,
    dlt_pnp,
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
    return T_cam_from_world.inverse().apply_many(cam_pts)


def project_all(T, X):
    return np.array([project(K, T, x) for x in X])


class TestP3P:
    def test_recovers_known_pose(self, rng):
        for _ in range(100):
            T = random_camera(rng)
            X = scene_in_front(rng, T, 3)
            pix = project_all(T, X)
            sols = p3p(X, pix, K)
            assert any(s.allclose(T, atol=1e-9) for s in sols)

    def test_collinear_rejected(self):
        X = np.array([[0, 0, 4.0], [0.1, 0, 4.0], [0.2, 0, 4.0]])
        pix = np.array([[320, 240.0], [332.5, 240.0], [345, 240.0]])
        assert p3p(X, pix, K) == []

    def test_all_solutions_reproject_exactly(self, rng):
        # points on a unit-sphere sector in front of an identity camera
        for _ in range(50):
            dirs = rng.normal(size=(3, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            dirs[:, 2] = np.abs(dirs[:, 2]) + 0.5
            X = dirs / np.linalg.norm(dirs, axis=1, keepdims=True)
            pix = project_all(Pose.identity(), X)
            if np.isnan(pix).any():
                continue
            for s in p3p(X, pix, K):
                for i in range(3):
                    assert np.linalg.norm(project(K, s, X[i]) - pix[i]) < 1e-6

    def test_polish_non_finite_step_returns_none(self, rng, monkeypatch):
        T = random_camera(rng)
        X = scene_in_front(rng, T, 3)
        pix = project_all(T, X)
        T0 = boxplus(T, [0.01, 0, 0, 0, 0.01, 0])
        assert pe._polish_minimal(T0, X, pix, K) is not None
        monkeypatch.setattr(np.linalg, "solve", lambda A, b: np.full(6, np.nan))
        assert pe._polish_minimal(T0, X, pix, K) is None


class TestDLT:
    def test_matches_truth(self, rng):
        for _ in range(20):
            T = random_camera(rng)
            X = scene_in_front(rng, T, 12)
            pix = project_all(T, X)
            Td = dlt_pnp(X, pix, K)
            assert Td.allclose(T, atol=1e-9)

    def test_too_few_points(self, rng):
        T = random_camera(rng)
        X = scene_in_front(rng, T, 5)
        assert dlt_pnp(X, project_all(T, X), K) is None


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
        assert out.allclose(T, atol=1e-10)

    def test_recovers_from_perturbation(self, rng):
        T, X, pix, ci, views = self._problem(rng)
        T0 = boxplus(T, [0.05, 0, 0, 0, math.radians(2.0), 0])
        out = refine_pose(T0, X, pix, ci, views)
        assert out.allclose(T, atol=1e-8)

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
            got = refine_pose(T0, X, pix, ci, views, max_iters=max_iters)
            want = scalar_refine(T0, X, pix, ci, views, max_iters=max_iters)
            assert not got.allclose(T0, atol=1e-6)
            np.testing.assert_allclose(got.as_array7(), want.as_array7(), rtol=0, atol=1e-9)
        assert np.isfinite(reprojection_errors(got, X, pix, ci, views)).all()


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
                if p is not None and K.contains(p):
                    pts_local.append(x)
                    pixels.append(p)
                    cam_idx.append(c)
        est = lo_ransac_pnp(
            "f", np.array(pts_local), np.array(pixels), np.array(cam_idx), views, seed=0
        )
        assert est.status is PoseStatus.LOCALIZED
        assert est.pose.allclose(T_true, atol=1e-6)

    def test_dlt_fallback_when_p3p_degenerates(self, rng, monkeypatch):
        T, X, pix = self._clean(rng, n=15)
        monkeypatch.setattr(pe, "p3p", lambda *a, **k: [])
        est = lo_ransac_pnp(
            "f", X, pix, np.zeros(15, dtype=int), [CameraView(K)], seed=0, max_iters=50
        )
        assert est.status is PoseStatus.LOCALIZED
        assert est.pose.allclose(T, atol=1e-6)
