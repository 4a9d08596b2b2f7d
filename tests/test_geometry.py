"""Geometry oracle tests: homogeneous-matrix and matrix-log cross-checks."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from seqloc.geometry import (
    CameraIntrinsics,
    Pose,
    Quaternion,
    RotationSingularity,
    adjoint_many,
    boxminus,
    boxplus,
    compose_many,
    inverse_many,
    project,
    project_points,
    project_points_with_jacobian,
    project_with_jacobian,
    rotation_half_angle,
    se3_exp,
    se3_exp_many,
    se3_log,
    se3_log_many,
    se3_right_jacobian_inv_many,
)
from seqloc.geometry import _matrix_quat, _q_coefficients, _quat_matrix

import se3_oracle
from conftest import random_pose, random_quaternion


def vectors(n: int, bound: float):
    return st.lists(st.floats(-bound, bound), min_size=n, max_size=n).map(np.array)


# Rotation angles up to 1.7 sqrt(3) < 2.95 rad, clear of the log map's singularity at pi.
tangents = st.tuples(vectors(3, 5.0), vectors(3, 1.7)).map(np.concatenate)
poses = st.tuples(vectors(4, 1.0), vectors(3, 5.0)).filter(
    lambda qt: np.linalg.norm(qt[0]) > 0.1
).map(lambda qt: Pose(Quaternion(*qt[0]), qt[1]))


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


@settings(max_examples=200, derandomize=True, deadline=None)
@given(d=tangents)
def test_exp_log_round_trip_property(d):
    np.testing.assert_allclose(se3_log(se3_exp(d)), d, atol=1e-9)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(T=poses, d=tangents)
def test_boxminus_undoes_boxplus_property(T, d):
    np.testing.assert_allclose(boxminus(boxplus(T, d), T), d, atol=1e-9)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(a=poses, b=poses)
def test_boxplus_undoes_boxminus_property(a, b):
    assume(b.inverse().compose(a).rotation.angle < 3.0)
    assert boxplus(b, boxminus(a, b)).allclose(a, atol=1e-9)


# --- batched kernels against the scalar maps -------------------------------------

# Rotation angles (times a factor in [0.5, 1]) in every branch of the kernels:
# the first-order quaternion below 1e-12, the series below 1e-9, 1e-6 and 1e-4,
# and the closed forms up to 2.65e-6 rad short of pi.
BRANCH_ANGLES = [0.0, 1e-13, 1e-12, 1e-9, 2e-9, 5e-7, 1e-6, 3e-5, 1e-4, 2e-4, 0.01, 0.5, 2.0, 3.1, 3.14159]
unit_axes = vectors(3, 1.0).filter(lambda v: np.linalg.norm(v) > 0.1).map(lambda v: v / np.linalg.norm(v))
branch_rotvecs = st.tuples(unit_axes, st.sampled_from(BRANCH_ANGLES), st.floats(0.5, 1.0)).map(
    lambda a: a[0] * a[1] * a[2]
)
branch_tangents = st.tuples(vectors(3, 5.0), branch_rotvecs).map(np.concatenate)
tangent_batches = st.lists(branch_tangents, min_size=1, max_size=6).map(np.array)

# No shrinking: on a failure it runs for minutes; the unshrunk example is reported at once.
kernel_property = settings(
    max_examples=150, derandomize=True, deadline=None,
    phases=[p for p in Phase if p is not Phase.shrink],
)


def assert_close(got, want, tol=1e-12):
    """Agreement to tol, relative to the larger of 1 and the reference's magnitude."""
    want = np.asarray(want)
    assert np.abs(got - want).max() <= tol * max(1.0, np.abs(want).max())


def assert_quaternion_close(got, want: Quaternion):
    assert got[0] >= 0.0  # canonical, as Quaternion is
    if want.w < 1e-9:  # q and -q both canonical to rounding
        got = min(got, -got, key=lambda q: np.abs(q - want.wxyz).max())
    assert_close(got, want.wxyz)


def pose_arrays(poses) -> tuple[np.ndarray, np.ndarray]:
    return np.array([T.rotation.wxyz for T in poses]), np.array([T.translation for T in poses])


@kernel_property
@given(taus=tangent_batches)
def test_exp_and_log_kernels_match_scalar(taus):
    q, t = se3_exp_many(taus)
    poses = [se3_exp(tau) for tau in taus]
    for k, T in enumerate(poses):
        assert_quaternion_close(q[k], T.rotation)
        assert_close(t[k], T.translation)
    logs = se3_log_many(*pose_arrays(poses))
    for k, T in enumerate(poses):
        assert_close(logs[k], se3_log(T))


@kernel_property
@given(pairs=st.lists(st.tuples(branch_tangents, branch_tangents), min_size=1, max_size=6))
def test_compose_and_inverse_kernels_match_scalar(pairs):
    a = [se3_exp(x) for x, _ in pairs]
    b = [se3_exp(y) for _, y in pairs]
    q, t = compose_many(*pose_arrays(a), *pose_arrays(b))
    qi, ti = inverse_many(*pose_arrays(a))
    for k in range(len(pairs)):
        want = a[k].compose(b[k])
        assert_quaternion_close(q[k], want.rotation)
        assert_close(t[k], want.translation)
        inv = a[k].inverse()
        assert_quaternion_close(qi[k], inv.rotation)
        assert_close(ti[k], inv.translation)


@kernel_property
@given(taus=tangent_batches)
def test_jacobian_kernels_match_scalar(taus):
    J = se3_right_jacobian_inv_many(taus)
    poses = [se3_exp(tau) for tau in taus]
    A = adjoint_many(*pose_arrays(poses))
    for k, T in enumerate(poses):
        assert_close(J[k], se3_oracle.se3_right_jacobian_inv(taus[k]))
        assert_close(A[k], se3_oracle.adjoint(T))


def stored_quaternion(v: np.ndarray, kind: str, eps: float) -> Quaternion:
    """A Quaternion of one of three kinds: canonical (normalized, w >= 0), unit
    to 1e-13 and so left unnormalized, or with w = 0 (a half-turn)."""
    if kind == "w0":
        v = np.array([0.0, *v[1:]])
    assume(np.linalg.norm(v) > 1e-6)
    q = Quaternion(*v)
    if kind == "near_unit":
        scaled = q.wxyz * (1.0 + eps)
        q = Quaternion(*scaled)
        assert np.array_equal(q.wxyz, scaled)  # kept as given
    return q


@kernel_property
@given(
    draws=st.lists(
        st.tuples(vectors(4, 1.0), st.sampled_from(["canonical", "near_unit", "w0"]), st.floats(-9e-14, 9e-14)),
        min_size=1, max_size=8,
    )
)
def test_quat_matrix_kernel_equals_scalar(draws):
    qs = [stored_quaternion(*d) for d in draws]
    R = _quat_matrix(np.array([q.wxyz for q in qs]))
    for k, q in enumerate(qs):
        assert (R[k] == q.matrix).all()


# Both sides of the Q series' former switch at 1e-4, of the new one at 1.0, and
# the range in between where the closed forms cancel.
Q_ANGLES = [0.0, 1e-6, 5e-5, 1.0001e-4, 2e-4, 5e-3, 2e-2, 0.3, 0.999, 1.0, 1.001, 2.0, 3.1]


def test_q_coefficients_match_high_precision():
    got = np.array(_q_coefficients(np.array(Q_ANGLES)))
    for k, theta in enumerate(Q_ANGLES):
        want = np.array(se3_oracle.q_coefficients(theta))
        np.testing.assert_allclose(got[:, k], want, rtol=1e-12, atol=0)
    assert se3_oracle.q_coefficients(5e-5)[1] < -0.0416  # c2 tends to -1/24


@kernel_property
@given(
    taus=tangent_batches,
    axis=unit_axes,
    short_of_pi=st.floats(1e-8, 9.9e-7),
    t=vectors(3, 5.0),
    at=st.integers(0, 6),
)
def test_log_kernel_raises_next_to_pi(taus, axis, short_of_pi, t, at):
    poses = [se3_exp(tau) for tau in taus]
    near_pi = Pose(Quaternion.from_rotvec(axis * (math.pi - short_of_pi)), t)
    poses.insert(at % (len(poses) + 1), near_pi)
    with pytest.raises(RotationSingularity):
        boxminus(near_pi, Pose.identity())
    with pytest.raises(RotationSingularity):
        se3_log_many(*pose_arrays(poses))


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


class TestPose:
    def test_non_finite_translation_rejected(self):
        for t in ([math.nan, 0, 0], [0, math.inf, 0], [0, 0, -math.inf]):
            with pytest.raises(ValueError, match="not finite"):
                Pose(Quaternion.identity(), t)
            with pytest.raises(ValueError, match="not finite"):
                Pose.from_array7([1, 0, 0, 0, *t])

    def test_batched_matrix_to_quaternion_matches_scalar(self, rng):
        # Random rotations, then one per branch: trace, x, y and z largest.
        qs = [random_quaternion(rng) for _ in range(200)]
        qs += [Quaternion(1, 0.1, 0, 0), Quaternion(0, 1, 0.2, 0), Quaternion(0, 0.2, 1, 0), Quaternion(0, 0, 0.2, 1)]
        got = _matrix_quat(np.array([q.matrix for q in qs]))
        for k, q in enumerate(qs):
            assert_quaternion_close(got[k], Quaternion.from_matrix(q.matrix))


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

    def test_nan_rejected(self):
        for q in [(math.nan, 0, 0, 0), (1.0, 0, math.nan, 0), (math.nan,) * 4]:
            with pytest.raises(ValueError, match="not finite"):
                Quaternion(*q)

    def test_matrix_roundtrip(self, rng):
        for _ in range(200):
            q = random_quaternion(rng)
            assert Quaternion.from_matrix(q.matrix).allclose(q, atol=1e-12)

    def test_rotate_matches_matrix(self, rng):
        q = random_quaternion(rng)
        v = rng.normal(size=3)
        np.testing.assert_allclose(q.rotate(v), q.matrix @ v, atol=1e-12)
