"""SE(3)/SO(3) primitives: unit quaternions, rigid poses, tangent-space maps.

Conventions used everywhere in this package:
  - Hamilton quaternions stored as (w, x, y, z), canonicalized to w >= 0.
  - Pose(i<-j) maps coordinates of a point expressed in frame j into frame i.
  - Tangent vectors are 6-vectors [rho (m), phi (rad)], translation first.
  - Manifold updates are right-multiplicative: T * Exp(delta).
  - Camera frame: +z forward, +x right, +y down (pinhole, undistorted).

One implementation per map: Exp and Log, V and V^-1, compose and inverse,
matrix <-> quaternion, the adjoint, the inverse right Jacobian (to first order,
all that pgo's steps need) and projection with its Jacobian are batched
kernels over (N, ...) arrays; Pose and Quaternion are the value types at the
boundary. The exceptions are the scalar twins of the per-frame N = 1 path,
where a numpy call per row costs more than the arithmetic (timings on one Xeon
core). Tests pin each twin to its kernel.
  - boxplus, se3_exp, _so3_V, _skew, Quaternion.from_rotvec: refine_pose
    retracts one pose per Levenberg-Marquardt trial, about 10 per frame; a
    one-row compose_many(*se3_exp_many(.)) takes 184 us to boxplus's 39.
  - Quaternion.matrix: 7.6 us as a one-row _quat_matrix against 4.7 us.
  - Pose.compose, Pose.inverse and Quaternion.__mul__.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_EPS = 1e-12


class RotationSingularity(ValueError):
    """Relative rotation too close to pi for a unique log map."""


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


@dataclass(frozen=True)
class Quaternion:
    """Unit Hamilton quaternion; normalized and sign-canonicalized on construction."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        try:
            n = math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)
        except OverflowError:
            n = math.inf
        if n < 1e-12:
            raise ValueError("cannot normalize a near-zero quaternion")
        if not n < math.inf:  # NaN fails this too
            raise ValueError("quaternion components not finite or too large to normalize")
        w, x, y, z = self.w, self.x, self.y, self.z
        # Skip division when already unit to the last bit: keeps serialization
        # round trips bit-exact.
        if abs(n - 1.0) > 1e-13:
            w, x, y, z = w / n, x / n, y / n, z / n
        if w < 0.0:
            w, x, y, z = -w, -x, -y, -z
        object.__setattr__(self, "w", float(w))
        object.__setattr__(self, "x", float(x))
        object.__setattr__(self, "y", float(y))
        object.__setattr__(self, "z", float(z))

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)

    @staticmethod
    def from_axis_angle(axis, angle_rad: float) -> "Quaternion":
        axis = np.asarray(axis, dtype=float)
        n = np.linalg.norm(axis)
        if n < _EPS:
            raise ValueError("rotation axis must be non-zero")
        axis = axis / n
        half = 0.5 * angle_rad
        s = math.sin(half)
        return Quaternion(math.cos(half), axis[0] * s, axis[1] * s, axis[2] * s)

    @staticmethod
    def from_rotvec(phi) -> "Quaternion":
        phi = np.asarray(phi, dtype=float)
        angle = float(np.linalg.norm(phi))
        if angle < 1e-12:
            # First-order expansion, exact enough at this scale.
            return Quaternion(1.0, 0.5 * phi[0], 0.5 * phi[1], 0.5 * phi[2])
        return Quaternion.from_axis_angle(phi / angle, angle)

    @staticmethod
    def from_matrix(R) -> "Quaternion":
        """Shepperd's method, max-trace branch for stability (_matrix_quat)."""
        R = np.asarray(R, dtype=float).reshape(1, 3, 3)
        if not np.isfinite(R).all():
            raise ValueError("rotation matrix not finite")
        return Quaternion(*_matrix_quat(R)[0])

    @property
    def wxyz(self) -> np.ndarray:
        return np.array([self.w, self.x, self.y, self.z])

    @cached_property
    def matrix(self) -> np.ndarray:
        w, x, y, z = self.w, self.x, self.y, self.z
        R = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
        R.setflags(write=False)
        return R

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = other.w, other.x, other.y, other.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def rotate(self, v) -> np.ndarray:
        return self.matrix @ np.asarray(v, dtype=float)

    @property
    def angle(self) -> float:
        """Geodesic rotation angle in [0, pi]."""
        s = math.sqrt(self.x**2 + self.y**2 + self.z**2)
        return 2.0 * math.atan2(s, abs(self.w))


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixels."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not all(math.isfinite(v) and v == int(v) for v in (self.width, self.height)):
            raise ValueError("image width and height must be finite integers")
        if not (0 < self.fx < math.inf and 0 < self.fy < math.inf):
            raise ValueError("focal lengths must be positive and finite")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    @property
    def K(self) -> np.ndarray:
        return np.array([[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]])


@dataclass(frozen=True)
class Pose:
    """Rigid transform: Pose(i<-j) maps points from frame j into frame i."""

    rotation: Quaternion = field(default_factory=Quaternion.identity)
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        t = np.array(self.translation, dtype=float).reshape(3)
        if not np.isfinite(t).all():
            raise ValueError("pose translation not finite")
        t.setflags(write=False)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "Pose":
        return Pose()

    @staticmethod
    def from_rt(R, t) -> "Pose":
        return Pose(Quaternion.from_matrix(R), np.asarray(t, dtype=float))

    @staticmethod
    def from_array7(a) -> "Pose":
        """qw,qx,qy,qz,tx,ty,tz — the package's serialization order."""
        # Python floats, so an overflowing component raises in Quaternion
        # rather than warning as numpy scalar arithmetic would.
        qw, qx, qy, qz, *t = np.asarray(a, dtype=float).reshape(7).tolist()
        return Pose(Quaternion(qw, qx, qy, qz), t)

    def as_array7(self) -> np.ndarray:
        q = self.rotation
        return np.array([q.w, q.x, q.y, q.z, *self.translation])

    @cached_property
    def matrix(self) -> np.ndarray:
        """4x4 homogeneous matrix."""
        M = np.eye(4)
        M[:3, :3] = self.rotation.matrix
        M[:3, 3] = self.translation
        M.setflags(write=False)
        return M

    def compose(self, other: "Pose") -> "Pose":
        """Pose(i<-j).compose(Pose(j<-k)) -> Pose(i<-k)."""
        return Pose(
            self.rotation * other.rotation,
            self.translation + self.rotation.rotate(other.translation),
        )

    def inverse(self) -> "Pose":
        q_inv = self.rotation.conjugate()
        return Pose(q_inv, -q_inv.rotate(self.translation))


# --- SO(3)/SE(3) tangent maps ------------------------------------------------


def _so3_V(phi: np.ndarray) -> np.ndarray:
    """V(phi) with Exp([rho,phi]) translation = V(phi) rho; equals the SO(3) left Jacobian."""
    theta = float(np.linalg.norm(phi))
    S = _skew(phi)
    if theta < 1e-6:
        return np.eye(3) + 0.5 * S + (S @ S) / 6.0
    a = (1.0 - math.cos(theta)) / theta**2
    b = (theta - math.sin(theta)) / theta**3
    return np.eye(3) + a * S + b * (S @ S)


def se3_exp(tau) -> Pose:
    """Exp: 6-vector [rho, phi] -> Pose."""
    tau = np.asarray(tau, dtype=float).reshape(6)
    rho, phi = tau[:3], tau[3:]
    q = Quaternion.from_rotvec(phi)
    return Pose(q, _so3_V(phi) @ rho)


def boxplus(T: Pose, delta) -> Pose:
    """Right-multiplicative retraction T * Exp(delta)."""
    return T.compose(se3_exp(delta))


# --- Batched SE(3) kernels -------------------------------------------------------
#
# Array in, array out over N poses: (N,4) quaternions (w, x, y, z), (N,3)
# translations and (N,6) tangents [rho, phi]. A kernel with a scalar twin above
# shares its small-angle branches, and a quaternion result is normalized and
# sign-canonicalized by Quaternion's own rule.

_I3 = np.eye(3)


def _skew_many(v: np.ndarray) -> np.ndarray:
    """(N,3) -> (N,3,3) cross-product matrices."""
    S = np.zeros((len(v), 3, 3))
    S[:, 0, 1], S[:, 0, 2], S[:, 1, 2] = -v[:, 2], v[:, 1], -v[:, 0]
    S[:, 1, 0], S[:, 2, 0], S[:, 2, 1] = v[:, 2], -v[:, 1], v[:, 0]
    return S


def _canonical(q: np.ndarray) -> np.ndarray:
    """Quaternion's construction rule: divide by the norm unless unit to 1e-13, then w >= 0."""
    n = np.sqrt(q[:, 0] ** 2 + q[:, 1] ** 2 + q[:, 2] ** 2 + q[:, 3] ** 2)[:, None]
    q = np.where(np.abs(n - 1.0) > 1e-13, q / n, q)
    return np.where(q[:, :1] < 0.0, -q, q)


def _quat_multiply(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    w1, x1, y1, z1 = p.T
    w2, x2, y2, z2 = q.T
    return _canonical(
        np.column_stack(
            [
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
            ]
        )
    )


def _quat_coefficients() -> np.ndarray:
    """(16,9) C with Quaternion.matrix = (q q^T) C + I: row 4a+b holds q_a q_b's coefficients."""
    entries = ("-yy -zz", "+xy -wz", "+xz +wy", "+xy +wz", "-xx -zz", "+yz -wx", "+xz -wy", "+yz +wx", "-xx -yy")
    C = np.zeros((16, 9))
    for k, terms in enumerate(entries):
        for sign, a, b in terms.split():
            C[4 * "wxyz".index(a) + "wxyz".index(b), k] = 2.0 if sign == "+" else -2.0
    return C


_QUAT_COEFFICIENTS, _EYE9 = _quat_coefficients(), np.eye(3).reshape(9)


def _quat_matrix(q: np.ndarray) -> np.ndarray:
    """(N,4) -> (N,3,3) rotation matrices, (q q^T) C + I: each entry adds two exact
    doubled products, so it equals Quaternion.matrix bit for bit."""
    qq = (q[:, :, None] * q[:, None, :]).reshape(len(q), 16)
    return (qq @ _QUAT_COEFFICIENTS + _EYE9).reshape(len(q), 3, 3)


def _matrix_quat(R: np.ndarray) -> np.ndarray:
    """(N,3,3) rotation matrices -> (N,4) canonical quaternions by Shepperd's
    method: the branch of the largest of 4 q_k^2, the trace's when it is positive."""
    n = np.arange(len(R))
    t = np.trace(R, axis1=1, axis2=2)
    d = np.diagonal(R, axis1=1, axis2=2)
    k = np.where(t > 0.0, 0, 1 + np.argmax(d, axis=1))
    # s = 4 q_k: 2 sqrt(1 + t), or 2 sqrt(1 + R_ii - R_jj - R_kk) on branch i.
    s = 2.0 * np.sqrt(np.column_stack([t + 1.0, 1.0 + d - d[:, [1, 0, 0]] - d[:, [2, 2, 1]]])[n, k])
    a = R[:, [2, 0, 1], [1, 2, 0]] - R[:, [1, 2, 0], [2, 0, 1]]  # 4 w (x, y, z)
    b = R[:, [0, 0, 1], [1, 2, 2]] + R[:, [1, 2, 2], [0, 0, 1]]  # 4 (xy, xz, yz)
    # Off the diagonal, row k of M is 4 q_k q; q = M[k] / s with q_k = s / 4.
    M = np.zeros((len(R), 4, 4))
    M[:, 0, 1:], M[:, 1:, 0] = a, a
    M[:, 1, 2], M[:, 1, 3], M[:, 2, 3] = b.T
    M[:, 2, 1], M[:, 3, 1], M[:, 3, 2] = b.T
    q = M[n, k] / s[:, None]
    q[n, k] = 0.25 * s
    return _canonical(q)


def _rotate_many(R: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.einsum("nij,nj->ni", R, v)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products over the last axis."""
    return np.einsum("...i,...i->...", a, b)


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.cross over the last axis, without its axis bookkeeping."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    return np.stack([a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0], axis=-1)


def _norm_rows(v: np.ndarray) -> np.ndarray:
    return np.sqrt(np.einsum("ni,ni->n", v, v))


def _so3_V_many(phi: np.ndarray) -> np.ndarray:
    """(N,3) -> (N,3,3) V(phi), the SO(3) left Jacobian: Exp([rho, phi]) translates by V rho."""
    theta = _norm_rows(phi)
    small = theta < 1e-6
    th = np.where(small, 1.0, theta)
    a = np.where(small, 0.5, (1.0 - np.cos(th)) / th**2)[:, None, None]
    b = np.where(small, 1.0 / 6.0, (th - np.sin(th)) / th**3)[:, None, None]
    S = _skew_many(phi)
    return _I3 + a * S + b * (S @ S)


def _so3_V_inv_many(phi: np.ndarray) -> np.ndarray:
    """(N,3) rotation vectors -> (N,3,3) V(phi)^-1."""
    theta = _norm_rows(phi)
    small = theta < 1e-6
    th = np.where(small, 1.0, theta)
    # c = (1 - theta/(2 tan(theta/2))) / theta^2, stable over (0, pi).
    c = np.where(small, 1.0 / 12.0, (1.0 - th / (2.0 * np.tan(0.5 * th))) / th**2)
    S = _skew_many(phi)
    return _I3 - 0.5 * S + c[:, None, None] * (S @ S)


def compose_many(q1, t1, q2, t2) -> tuple[np.ndarray, np.ndarray]:
    """Pose.compose row by row: (q1, t1) * (q2, t2)."""
    return _quat_multiply(q1, q2), t1 + _rotate_many(_quat_matrix(q1), t2)


def inverse_many(q, t) -> tuple[np.ndarray, np.ndarray]:
    """Pose.inverse row by row."""
    q_inv = q * np.array([1.0, -1.0, -1.0, -1.0])
    return q_inv, -_rotate_many(_quat_matrix(q_inv), t)


def se3_exp_many(tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """se3_exp row by row: (N,6) tangents -> (N,4) quaternions, (N,3) translations."""
    rho, phi = tau[:, :3], tau[:, 3:]
    angle = _norm_rows(phi)
    small = angle < 1e-12  # Quaternion.from_rotvec's first-order branch
    ang = np.where(small, 1.0, angle)
    s = np.where(small, 0.5, np.sin(0.5 * ang) / ang)
    q = _canonical(np.column_stack([np.where(small, 1.0, np.cos(0.5 * ang)), s[:, None] * phi]))
    return q, _rotate_many(_so3_V_many(phi), rho)


def se3_log_many(q, t) -> np.ndarray:
    """Log: (N,4) quaternions, (N,3) translations -> (N,6) tangents [rho, phi].

    Raises RotationSingularity when any rotation angle is above pi - 1e-6,
    where the log map is no longer unique to working precision.
    """
    xyz = q[:, 1:]
    s = _norm_rows(xyz)
    w = np.abs(q[:, 0])
    angle = 2.0 * np.arctan2(s, w)
    if (angle > math.pi - 1e-6).any():
        raise RotationSingularity(f"relative rotation {angle.max():.6f} rad too close to pi")
    small = s < 1e-9
    ss = np.where(small, 1.0, s)
    # theta/s -> 2/w for small s; second-order term keeps 1e-12 accuracy.
    k = np.where(small, 2.0 / w * (1.0 - (s * s) / (3.0 * w * w)), angle / ss)
    phi = k[:, None] * xyz
    return np.hstack([_rotate_many(_so3_V_inv_many(phi), t), phi])


def adjoint_many(q, t) -> np.ndarray:
    """(N,6,6) Ad(T) with Exp(Ad(T) tau) = T Exp(tau) T^-1, [rho, phi] ordering."""
    R = _quat_matrix(q)
    A = np.zeros((len(q), 6, 6))
    A[:, :3, :3] = R
    A[:, :3, 3:] = _skew_many(t) @ R
    A[:, 3:, 3:] = R
    return A


def se3_right_jacobian_inv_many(tau: np.ndarray) -> np.ndarray:
    """(N,6) -> (N,6,6) inverse right Jacobians to first order, I + ad(tau)/2
    with ad([rho, phi]) = [[phi^, rho^], [0, phi^]] (Barfoot, 2017): d/d eps
    Log(Exp(tau) Exp(eps)) at eps=0 is their inverse to O(|tau|^2). That is
    enough for pgo, whose residuals are about 1e-2 or smaller: the Jacobian
    steers its steps but not its cost, so the optimum moves by O(|tau|^3).
    """
    ad = np.zeros((len(tau), 6, 6))
    ad[:, :3, :3] = ad[:, 3:, 3:] = _skew_many(tau[:, 3:])
    ad[:, :3, 3:] = _skew_many(tau[:, :3])
    return np.eye(6) + 0.5 * ad


# --- Pinhole projection -------------------------------------------------------

BEHIND_CAMERA_DEPTH = 1e-9


def project_many_with_jacobian(
    R: np.ndarray, pc: np.ndarray, X: np.ndarray, f: np.ndarray, c: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pixels (...,2), their (...,2,6) Jacobians w.r.t. a right perturbation
    T*Exp(delta) and the (...) mask of depth > BEHIND_CAMERA_DEPTH (rows
    outside it are finite but meaningless), for points X (...,3) with
    camera-frame coordinates pc = R X + t (...,3), T(cam<-world) rotations R
    (...,3,3), focal lengths f and principal points c (...,2), broadcasting.
    """
    valid = pc[..., 2] > BEHIND_CAMERA_DEPTH
    inv_z = 1.0 / np.where(valid, pc[..., 2], 1.0)
    uv = pc[..., :2] * inv_z[..., None]  # normalized image coordinates
    pix = uv * f + c
    # Rows of J_pi R: (f / z) (R_row - uv R_2), one (2,3) block per point.
    a = (f * inv_z[..., None])[..., None] * (R[..., :2, :] - uv[..., None] * R[..., 2:3, :])
    # -J_pi R [X]x, row by row, is the cross product X x a.
    return pix, np.concatenate([a, _cross(X[..., None, :], a)], axis=-1), valid
