"""Geometry oracle tests: the batched kernels against homogeneous matrices, the
matrix log and the scalar maps of se3_oracle, and the scalar twins against
their kernels."""

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
    boxplus,
    compose_many,
    inverse_many,
    project_many_with_jacobian,
    se3_exp,
    se3_exp_many,
    se3_log_many,
    se3_right_jacobian_inv_many,
)
from seqloc.geometry import _matrix_quat, _quat_matrix, _quat_multiply
from seqloc.geometry import _skew, _skew_many, _so3_V, _so3_V_many

import se3_oracle
from helpers import pose_allclose, quat_allclose, random_pose, random_quaternion
from se3_oracle import apply, apply_many, boxminus, project, project_with_jacobian, se3_log


def vectors(n: int, bound: float):
    return st.lists(st.floats(-bound, bound), min_size=n, max_size=n).map(np.array)


# Rotation angles up to 1.7 sqrt(3) < 2.95 rad, clear of the log map's singularity at pi.
tangents = st.tuples(vectors(3, 5.0), vectors(3, 1.7)).map(np.concatenate)
poses = st.tuples(vectors(4, 1.0), vectors(3, 5.0)).filter(
    lambda qt: np.linalg.norm(qt[0]) > 0.1
).map(lambda qt: Pose(Quaternion(*qt[0]), qt[1]))


def pose_arrays(poses) -> tuple[np.ndarray, np.ndarray]:
    return np.array([T.rotation.wxyz for T in poses]), np.array([T.translation for T in poses])


def log_between(a: list[Pose], b: list[Pose]) -> np.ndarray:
    """Log(b^-1 a) row by row on the kernels, as pgo evaluates its residuals."""
    return se3_log_many(*compose_many(*inverse_many(*pose_arrays(b)), *pose_arrays(a)))


def retract(T: list[Pose], d: np.ndarray) -> list[Pose]:
    """T Exp(d) row by row on the kernels, as pgo retracts its nodes."""
    q, t = compose_many(*pose_arrays(T), *se3_exp_many(np.reshape(d, (-1, 6))))
    return [Pose(Quaternion(*qk), tk) for qk, tk in zip(q, t)]


def matrix_log_tangent(T: Pose) -> np.ndarray:
    """Independent oracle: numeric matrix logarithm of the 4x4 homogeneous form."""
    L = scipy.linalg.logm(T.matrix)
    L = np.real(L)
    phi = np.array([L[2, 1], L[0, 2], L[1, 0]])
    return np.concatenate([L[:3, 3], phi])


class TestCompose:
    def test_identity(self, rng):
        T = random_pose(rng)
        assert pose_allclose(T.compose(Pose.identity()), T)
        assert pose_allclose(Pose.identity().compose(T), T)

    def test_inverse_gives_identity(self, rng):
        T = random_pose(rng)
        assert pose_allclose(T.compose(T.inverse()), Pose.identity(), atol=1e-9)

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
            assert pose_allclose(lhs, rhs, atol=1e-12)


class TestInverse:
    def test_identity(self):
        assert pose_allclose(Pose.identity().inverse(), Pose.identity())

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
        np.testing.assert_allclose(log_between([T], [T])[0], np.zeros(6), atol=1e-12)

    def test_pure_translation_log(self):
        a = Pose(Quaternion.identity(), [1.0, 2.0, 3.0])
        d = se3_log_many(*pose_arrays([a]))[0]
        np.testing.assert_allclose(d, [1, 2, 3, 0, 0, 0], atol=1e-12)

    def test_rot90_matches_matrix_log(self):
        a = Pose(Quaternion.from_axis_angle([0, 0, 1], math.pi / 2), [0.3, -0.1, 0.2])
        d = se3_log_many(*pose_arrays([a]))[0]
        np.testing.assert_allclose(d[3:], [0, 0, math.pi / 2], atol=1e-12)
        np.testing.assert_allclose(d, matrix_log_tangent(a), atol=1e-9)

    def test_random_matches_matrix_log(self, rng):
        pairs = [(random_pose(rng), random_pose(rng)) for _ in range(50)]
        pairs = [(a, b) for a, b in pairs if b.inverse().compose(a).rotation.angle <= math.pi - 1e-3]
        logs = log_between([a for a, _ in pairs], [b for _, b in pairs])
        for (a, b), d in zip(pairs, logs):
            np.testing.assert_allclose(d, matrix_log_tangent(b.inverse().compose(a)), atol=1e-8)

    def test_boxplus_zero(self, rng):
        T = random_pose(rng)
        assert pose_allclose(boxplus(T, np.zeros(6)), T)

    def test_boxplus_pure_translation(self):
        got = boxplus(Pose.identity(), [0.5, -1.0, 2.0, 0, 0, 0])
        np.testing.assert_allclose(got.translation, [0.5, -1.0, 2.0])
        assert quat_allclose(got.rotation, Quaternion.identity())

    def test_roundtrip(self, rng):
        T = [random_pose(rng) for _ in range(200)]
        d = rng.uniform(-0.5, 0.5, size=(200, 6))
        np.testing.assert_allclose(log_between(retract(T, d), T), d, atol=1e-9)

    def test_boxplus_boxminus_reproduces(self, rng):
        pairs = [(random_pose(rng), random_pose(rng)) for _ in range(200)]
        pairs = [(a, b) for a, b in pairs if b.inverse().compose(a).rotation.angle <= math.pi - 1e-3]
        a, b = [a for a, _ in pairs], [b for _, b in pairs]
        for got, want in zip(retract(b, log_between(a, b)), a):
            assert pose_allclose(got, want, atol=1e-9)

    def test_near_pi_rejected(self):
        a = Pose(Quaternion.from_axis_angle([1, 0, 0], math.pi - 1e-9), [0, 0, 0])
        with pytest.raises(RotationSingularity):
            se3_log_many(*pose_arrays([a]))

    def test_exp_log_roundtrip_large_angles(self, rng):
        phi = rng.normal(size=(500, 3))
        phi *= rng.uniform(0, 3.0, size=(500, 1)) / np.linalg.norm(phi, axis=1, keepdims=True)
        d = np.hstack([rng.normal(size=(500, 3)), phi])
        np.testing.assert_allclose(se3_log_many(*se3_exp_many(d)), d, atol=1e-9)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(d=tangents)
def test_exp_log_round_trip_property(d):
    np.testing.assert_allclose(se3_log_many(*se3_exp_many(d[None]))[0], d, atol=1e-9)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(T=poses, d=tangents)
def test_boxminus_undoes_boxplus_property(T, d):
    np.testing.assert_allclose(log_between(retract([T], d), [T])[0], d, atol=1e-9)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(a=poses, b=poses)
def test_boxplus_undoes_boxminus_property(a, b):
    assume(b.inverse().compose(a).rotation.angle < 3.0)
    assert pose_allclose(retract([b], log_between([a], [b]))[0], a, atol=1e-9)


# --- batched kernels against the scalar maps -------------------------------------

# Rotation angles (times a factor in [0.5, 1]) in every branch of the kernels:
# the first-order quaternion below 1e-12, the series below 1e-9 and 1e-6, and
# the closed forms up to 2.65e-6 rad short of pi.
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
@given(pairs=st.lists(st.tuples(poses, branch_tangents), min_size=1, max_size=6))
def test_scalar_twins_match_kernels(pairs):
    """The scalar maps kept for the N = 1 path: equal to their kernels where the
    arithmetic is the same, within 1e-14 where the order of operations differs."""
    T = [T for T, _ in pairs]
    taus = np.array([tau for _, tau in pairs])
    phi = taus[:, 3:]
    q, t = se3_exp_many(taus)
    qb, tb = compose_many(*pose_arrays(T), q, t)
    qc, tc = compose_many(*pose_arrays(T), *pose_arrays(T[::-1]))
    qi, ti = inverse_many(*pose_arrays(T))
    mul = _quat_multiply(pose_arrays(T)[0], pose_arrays(T[::-1])[0])
    V, S = _so3_V_many(phi), _skew_many(phi)
    for k, (Tk, tau) in enumerate(pairs):
        assert (_skew(phi[k]) == S[k]).all()
        assert_close(_so3_V(phi[k]), V[k], tol=1e-14)
        assert_close(Quaternion.from_rotvec(phi[k]).wxyz, q[k], tol=1e-14)
        E = se3_exp(tau)
        assert_close(E.rotation.wxyz, q[k], tol=1e-14)
        assert_close(E.translation, t[k], tol=1e-14)
        B = boxplus(Tk, tau)
        assert_close(B.rotation.wxyz, qb[k], tol=1e-14)
        assert_close(B.translation, tb[k], tol=1e-14)
        C = Tk.compose(T[::-1][k])
        assert (C.rotation.wxyz == qc[k]).all() and (C.rotation.wxyz == mul[k]).all()
        assert_close(C.translation, tc[k], tol=1e-14)
        inv = Tk.inverse()
        assert (inv.rotation.wxyz == qi[k]).all()
        assert_close(inv.translation, ti[k], tol=1e-14)


@kernel_property
@given(taus=tangent_batches)
def test_jacobian_kernels_match_scalar(taus):
    J = se3_right_jacobian_inv_many(taus)
    poses = [se3_exp(tau) for tau in taus]
    A = adjoint_many(*pose_arrays(poses))
    for k, T in enumerate(poses):
        assert (J[k] == se3_oracle.se3_right_jacobian_inv_first_order(taus[k])).all()
        assert_close(A[k], se3_oracle.adjoint(T))


@kernel_property
@given(
    rho=vectors(3, 5.0),
    axis=unit_axes,
    angle=st.floats(0.0, 1.0),
    scale=st.sampled_from([1e-6, 1e-3, 0.1, 1.0]),
)
def test_jacobian_kernel_is_exact_to_first_order(rho, axis, angle, scale):
    # I + ad/2 leaves out ad^2/12 and higher terms: O(|tau|^2) for angles up to 1 rad.
    tau = scale * np.concatenate([rho, angle * axis])
    err = np.abs(se3_right_jacobian_inv_many(tau[None])[0] - se3_oracle.se3_right_jacobian_inv(tau)).max()
    assert err <= 0.1 * (tau @ tau) + 1e-15


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
    """Quaternion.angle / 2, the half-angle that select_neighbors tests."""

    def test_identity(self):
        assert Quaternion.identity().angle == 0.0

    def test_90deg(self, rng):
        for _ in range(20):
            axis = rng.normal(size=3)
            q = Quaternion.from_axis_angle(axis, math.pi / 2)
            assert abs(0.5 * q.angle - math.pi / 4) < 1e-12

    def test_180deg(self):
        q = Quaternion.from_axis_angle([0, 1, 0], math.pi)
        assert abs(0.5 * q.angle - math.pi / 2) < 1e-12

    def test_is_half_geodesic(self, rng):
        # Geodesic angle of R from sin and cos: ||vee(R - R^T)|| / 2 and (tr R - 1) / 2.
        for _ in range(500):
            q = random_quaternion(rng)
            R = q.matrix
            sin = 0.5 * np.linalg.norm([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
            assert abs(0.5 * q.angle - 0.5 * math.atan2(sin, 0.5 * (np.trace(R) - 1.0))) < 1e-12


def kernel_project(K: CameraIntrinsics, T: Pose, points):
    """project_many_with_jacobian over (N,3) world points seen by one camera T(cam<-world)."""
    X = np.reshape(np.asarray(points, dtype=float), (-1, 3))
    R = T.rotation.matrix
    f, c = np.array([K.fx, K.fy]), np.array([K.cx, K.cy])
    return project_many_with_jacobian(R, X @ R.T + T.translation, X, f, c)


class TestProject:
    K = CameraIntrinsics(fx=100, fy=100, cx=50, cy=50, width=100, height=100)

    def test_on_axis(self):
        pix, _, valid = kernel_project(self.K, Pose.identity(), [0, 0, 1.0])
        assert valid[0]
        np.testing.assert_allclose(pix[0], [50, 50])

    def test_off_axis(self):
        pix, _, valid = kernel_project(self.K, Pose.identity(), [1.0, 0, 2.0])
        assert valid[0]
        np.testing.assert_allclose(pix[0], [100, 50])

    def test_behind_camera(self):
        _, _, valid = kernel_project(self.K, Pose.identity(), [[0, 0, -1.0], [0, 0, 0.0], [0, 0, 1e-9]])
        assert not valid.any()

    def test_posed_camera_matches_projection_matrix(self, rng):
        for _ in range(100):
            T = random_pose(rng, t_scale=0.5)
            X = rng.normal(size=3) + np.array([0, 0, 4.0])
            P = self.K.K @ T.matrix[:3, :]  # 3x4 projection-matrix oracle
            h = P @ np.append(X, 1.0)
            pix, _, valid = kernel_project(self.K, T, X)
            assert valid[0] == (h[2] > 1e-9)
            if valid[0]:
                np.testing.assert_allclose(pix[0], h[:2] / h[2], atol=1e-9)

    def test_vectorized_matches_scalar(self, rng):
        T = random_pose(rng, t_scale=0.2)
        pts = rng.normal(size=(50, 3)) + np.array([0, 0, 5.0])
        pix, _, valid = kernel_project(self.K, T, pts)
        for i in range(len(pts)):
            single = project(self.K, T, pts[i])
            assert valid[i] == (single is not None)
            if valid[i]:
                np.testing.assert_allclose(pix[i], single, atol=1e-12)

    def test_jacobian_matches_finite_differences(self, rng):
        eps = 1e-6
        for _ in range(100):
            T = random_pose(rng, t_scale=0.3)
            X = rng.normal(size=3) * 2.0
            if apply(T, X)[2] < 0.5:
                continue
            J = kernel_project(self.K, T, X)[1][0]
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
        pts = apply_many(T.inverse(), cam)
        pix, J, valid = kernel_project(self.K, T, pts)
        assert pix.shape == (50, 2) and J.shape == (50, 2, 6) and valid.shape == (50,)
        assert 0 < valid.sum() < 40
        for i in range(len(pts)):
            p, Ji = project_with_jacobian(self.K, T, pts[i])
            assert valid[i] == (p is not None)
            if p is None:
                continue
            assert np.abs(pix[i] - p).max() <= 1e-12 * max(1.0, np.abs(p).max())
            assert np.abs(J[i] - Ji).max() <= 1e-12 * max(1.0, np.abs(Ji).max())


class TestCameraIntrinsics:
    def test_non_finite_or_fractional_values_rejected(self):
        good = dict(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
        CameraIntrinsics(**good)
        CameraIntrinsics(**{**good, "width": np.int64(640), "height": 480.0})
        bad = [("fx", math.inf), ("fy", math.inf), ("fx", math.nan), ("cx", math.inf), ("cy", math.nan),
               ("width", 640.5), ("width", math.inf), ("height", math.nan), ("height", -math.inf)]
        for name, value in bad:
            with pytest.raises(ValueError):
                CameraIntrinsics(**{**good, name: value})


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
            assert (got[k] == se3_oracle.shepperd_quaternion(q.matrix).wxyz).all()

    def test_non_finite_rotation_rejected(self):
        for value in (math.nan, math.inf, -math.inf):
            off_diagonal = np.where(np.eye(3) > 0, 1.0, value)
            for R in (np.full((3, 3), value), off_diagonal, np.diag([1.0, 1.0, value])):
                with pytest.raises(ValueError, match="not finite"):
                    Quaternion.from_matrix(R)
                with pytest.raises(ValueError, match="not finite"):
                    Pose.from_rt(R, np.zeros(3))


# Components drawn from a few exact values as well as at random, and one
# copied onto another, so that the matrices include exact ties between
# Shepperd's branches; some are perturbed off the rotation group, as a fitted
# rotation can be.
shepperd_components = st.one_of(st.sampled_from([0.0, 0.5, -0.5, 1.0, 0.25]), st.floats(-1.0, 1.0))


@kernel_property
@given(
    v=st.lists(shepperd_components, min_size=4, max_size=4),
    tie=st.sampled_from([None, (0, 1), (1, 2), (1, 3), (2, 3)]),
    noise=st.one_of(st.just(0.0), st.floats(1e-12, 1e-6)),
    seed=st.integers(0, 2**16),
)
def test_from_matrix_equals_scalar_shepperd(v, tie, noise, seed):
    if tie is not None:
        v[tie[1]] = v[tie[0]]
    assume(np.linalg.norm(v) > 1e-3)
    R = Quaternion(*v).matrix + noise * np.random.default_rng(seed).uniform(-1, 1, size=(3, 3))
    assert (Quaternion.from_matrix(R).wxyz == se3_oracle.shepperd_quaternion(R).wxyz).all()


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
            assert quat_allclose(Quaternion.from_matrix(q.matrix), q, atol=1e-12)

    def test_rotate_matches_matrix(self, rng):
        q = random_quaternion(rng)
        v = rng.normal(size=3)
        np.testing.assert_allclose(q.rotate(v), q.matrix @ v, atol=1e-12)
