"""Geometry oracle tests: homogeneous-matrix and matrix-log cross-checks."""

import math

import numpy as np
import pytest
import scipy.linalg

from seqloc.geometry import (
    CameraIntrinsics,
    Pose,
    Quaternion,
    RotationSingularity,
    boxminus,
    boxplus,
    project,
    project_points,
    project_points_with_jacobian,
    project_with_jacobian,
    rotation_half_angle,
    se3_exp,
    se3_log,
)

from conftest import random_pose, random_quaternion


def matrix_log_tangent(T: Pose) -> np.ndarray:
    """Independent oracle: numeric matrix logarithm of the 4x4 homogeneous form."""
    L = scipy.linalg.logm(T.matrix)
    L = np.real(L)
    phi = np.array([L[2, 1], L[0, 2], L[1, 0]])
    return np.concatenate([L[:3, 3], phi])


class TestCompose:
    def test_identity(self, rng):
        T = random_pose(rng)
        assert T.compose(Pose.identity()).allclose(T)
        assert Pose.identity().compose(T).allclose(T)

    def test_inverse_gives_identity(self, rng):
        T = random_pose(rng)
        assert T.compose(T.inverse()).allclose(Pose.identity(), atol=1e-9)

    def test_rotation_then_translation(self):
        # Rz(90deg) with t=(1,0,0) composed with a pure +y translation.
        T1 = Pose(Quaternion.from_axis_angle([0, 0, 1], math.pi / 2), [1, 0, 0])
        T2 = Pose(Quaternion.identity(), [0, 1, 0])
        expected = (T1.matrix @ T2.matrix)[:3, 3]
        got = T1.compose(T2).translation
        np.testing.assert_allclose(got, expected, atol=1e-12)
        np.testing.assert_allclose(got, [0, 0, 0], atol=1e-12)

    def test_matches_matrix_product(self, rng):
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            np.testing.assert_allclose(
                a.compose(b).matrix, a.matrix @ b.matrix, atol=1e-12
            )

    def test_associative(self, rng):
        for _ in range(100):
            a, b, c = (random_pose(rng) for _ in range(3))
            lhs = a.compose(b).compose(c)
            rhs = a.compose(b.compose(c))
            assert lhs.allclose(rhs, atol=1e-12)


class TestInverse:
    def test_identity(self):
        assert Pose.identity().inverse().allclose(Pose.identity())

    def test_pure_translation(self):
        T = Pose(Quaternion.identity(), [1.0, -2.0, 3.0])
        np.testing.assert_allclose(T.inverse().translation, [-1.0, 2.0, -3.0])

    def test_matches_matrix_inverse(self, rng):
        for _ in range(200):
            T = random_pose(rng)
            np.testing.assert_allclose(
                T.inverse().matrix, np.linalg.inv(T.matrix), atol=1e-11
            )


class TestBoxOps:
    def test_boxminus_self_is_zero(self, rng):
        T = random_pose(rng)
        np.testing.assert_allclose(boxminus(T, T), np.zeros(6), atol=1e-12)

    def test_pure_translation_log(self):
        a = Pose(Quaternion.identity(), [1.0, 2.0, 3.0])
        d = boxminus(a, Pose.identity())
        np.testing.assert_allclose(d, [1, 2, 3, 0, 0, 0], atol=1e-12)

    def test_rot90_matches_matrix_log(self):
        a = Pose(Quaternion.from_axis_angle([0, 0, 1], math.pi / 2), [0.3, -0.1, 0.2])
        d = boxminus(a, Pose.identity())
        np.testing.assert_allclose(d[3:], [0, 0, math.pi / 2], atol=1e-12)
        np.testing.assert_allclose(d, matrix_log_tangent(a), atol=1e-9)

    def test_random_matches_matrix_log(self, rng):
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            rel = b.inverse().compose(a)
            if rel.rotation.angle > math.pi - 1e-3:
                continue
            np.testing.assert_allclose(boxminus(a, b), matrix_log_tangent(rel), atol=1e-8)

    def test_boxplus_zero(self, rng):
        T = random_pose(rng)
        assert boxplus(T, np.zeros(6)).allclose(T)

    def test_boxplus_pure_translation(self):
        got = boxplus(Pose.identity(), [0.5, -1.0, 2.0, 0, 0, 0])
        np.testing.assert_allclose(got.translation, [0.5, -1.0, 2.0])
        assert got.rotation.allclose(Quaternion.identity())

    def test_roundtrip(self, rng):
        for _ in range(200):
            T = random_pose(rng)
            d = rng.uniform(-0.5, 0.5, size=6)
            np.testing.assert_allclose(boxminus(boxplus(T, d), T), d, atol=1e-9)

    def test_boxplus_boxminus_reproduces(self, rng):
        for _ in range(200):
            a, b = random_pose(rng), random_pose(rng)
            if b.inverse().compose(a).rotation.angle > math.pi - 1e-3:
                continue
            assert boxplus(b, boxminus(a, b)).allclose(a, atol=1e-9)

    def test_near_pi_rejected(self):
        a = Pose(Quaternion.from_axis_angle([1, 0, 0], math.pi - 1e-9), [0, 0, 0])
        with pytest.raises(RotationSingularity):
            boxminus(a, Pose.identity())

    def test_exp_log_roundtrip_large_angles(self, rng):
        for _ in range(500):
            phi = rng.normal(size=3)
            phi *= rng.uniform(0, 3.0) / np.linalg.norm(phi)
            d = np.concatenate([rng.normal(size=3), phi])
            np.testing.assert_allclose(se3_log(se3_exp(d)), d, atol=1e-9)


class TestHalfAngle:
    def test_identity(self):
        assert rotation_half_angle(Quaternion.identity()) == 0.0

    def test_90deg(self, rng):
        for _ in range(20):
            axis = rng.normal(size=3)
            q = Quaternion.from_axis_angle(axis, math.pi / 2)
            assert abs(rotation_half_angle(q) - math.pi / 4) < 1e-12

    def test_180deg(self):
        q = Quaternion.from_axis_angle([0, 1, 0], math.pi)
        assert abs(rotation_half_angle(q) - math.pi / 2) < 1e-12

    def test_is_half_geodesic(self, rng):
        for _ in range(500):
            q = random_quaternion(rng)
            if q.angle >= math.pi:
                continue
            assert abs(rotation_half_angle(q) - 0.5 * q.angle) < 1e-12


class TestProject:
    K = CameraIntrinsics(fx=100, fy=100, cx=50, cy=50, width=100, height=100)

    def test_on_axis(self):
        np.testing.assert_allclose(
            project(self.K, Pose.identity(), [0, 0, 1.0]), [50, 50]
        )

    def test_off_axis(self):
        np.testing.assert_allclose(
            project(self.K, Pose.identity(), [1.0, 0, 2.0]), [100, 50]
        )

    def test_behind_camera(self):
        assert project(self.K, Pose.identity(), [0, 0, -1.0]) is None
        assert project(self.K, Pose.identity(), [0, 0, 0.0]) is None

    def test_posed_camera_matches_projection_matrix(self, rng):
        for _ in range(100):
            T = random_pose(rng, t_scale=0.5)
            X = rng.normal(size=3) + np.array([0, 0, 4.0])
            P = self.K.K @ T.matrix[:3, :]  # 3x4 projection-matrix oracle
            h = P @ np.append(X, 1.0)
            pix = project(self.K, T, X)
            if h[2] <= 1e-9:
                assert pix is None
            else:
                np.testing.assert_allclose(pix, h[:2] / h[2], atol=1e-9)

    def test_vectorized_matches_scalar(self, rng):
        T = random_pose(rng, t_scale=0.2)
        pts = rng.normal(size=(50, 3)) + np.array([0, 0, 5.0])
        pix, depth = project_points(self.K, T, pts)
        for i in range(len(pts)):
            single = project(self.K, T, pts[i])
            if depth[i] > 1e-9:
                np.testing.assert_allclose(pix[i], single, atol=1e-12)
            else:
                assert single is None

    def test_jacobian_matches_finite_differences(self, rng):
        eps = 1e-6
        for _ in range(100):
            T = random_pose(rng, t_scale=0.3)
            X = rng.normal(size=3) * 2.0
            if T.apply(X)[2] < 0.5:
                continue
            pix, J = project_with_jacobian(self.K, T, X)
            J_fd = np.zeros((2, 6))
            for k in range(6):
                e = np.zeros(6)
                e[k] = eps
                J_fd[:, k] = (
                    project(self.K, boxplus(T, e), X) - project(self.K, boxplus(T, -e), X)
                ) / (2 * eps)
            denom = max(1.0, np.abs(J_fd).max())
            assert np.abs(J - J_fd).max() / denom < 1e-4

    def test_batched_jacobian_matches_scalar(self, rng):
        T = random_pose(rng, t_scale=0.5)
        cam = np.column_stack(
            [rng.uniform(-2, 2, 50), rng.uniform(-2, 2, 50), rng.uniform(-2, 6, 50)]
        )
        cam[:5, 2] = 0.0  # on the camera plane
        pts = T.inverse().apply_many(cam)
        pix, J, valid = project_points_with_jacobian(self.K, T, pts)
        assert pix.shape == (50, 2) and J.shape == (50, 2, 6) and valid.shape == (50,)
        assert 0 < valid.sum() < 40
        for i in range(len(pts)):
            p, Ji = project_with_jacobian(self.K, T, pts[i])
            assert valid[i] == (p is not None)
            if p is None:
                continue
            assert np.abs(pix[i] - p).max() <= 1e-12 * max(1.0, np.abs(p).max())
            assert np.abs(J[i] - Ji).max() <= 1e-12 * max(1.0, np.abs(Ji).max())


class TestQuaternion:
    def test_unit_norm_after_construction(self, rng):
        for _ in range(200):
            q = random_quaternion(rng)
            assert abs(np.linalg.norm(q.wxyz) - 1.0) <= 1e-9
            assert q.w >= 0.0

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            Quaternion(0, 0, 0, 0)

    def test_overflowing_norm_rejected(self):
        for big in (1e300, np.float64(1e300), math.inf):
            with pytest.raises(ValueError, match="too large"), np.errstate(over="ignore"):
                Quaternion(big, 1e300, 0, 0)

    def test_matrix_roundtrip(self, rng):
        for _ in range(200):
            q = random_quaternion(rng)
            assert Quaternion.from_matrix(q.matrix).allclose(q, atol=1e-12)

    def test_rotate_matches_matrix(self, rng):
        q = random_quaternion(rng)
        v = rng.normal(size=3)
        np.testing.assert_allclose(q.rotate(v), q.matrix @ v, atol=1e-12)
