"""SE(3)/SO(3) primitives: unit quaternions, rigid poses, tangent-space maps.

Conventions used everywhere in this package:
  - Hamilton quaternions stored as (w, x, y, z), canonicalized to w >= 0.
  - Pose(i<-j) maps coordinates of a point expressed in frame j into frame i.
  - Tangent vectors are 6-vectors [rho (m), phi (rad)], translation first.
  - Manifold updates are right-multiplicative: T * Exp(delta).
  - Camera frame: +z forward, +x right, +y down (pinhole, undistorted).
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
        if n == math.inf:
            raise ValueError("quaternion components too large to normalize")
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
        """Shepperd's method, max-trace branch for stability."""
        R = np.asarray(R, dtype=float)
        t = np.trace(R)
        if t > 0.0:
            s = math.sqrt(t + 1.0) * 2.0
            w = 0.25 * s
            x = (R[2, 1] - R[1, 2]) / s
            y = (R[0, 2] - R[2, 0]) / s
            z = (R[1, 0] - R[0, 1]) / s
        elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
            s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
            w = (R[2, 1] - R[1, 2]) / s
            x = 0.25 * s
            y = (R[0, 1] + R[1, 0]) / s
            z = (R[0, 2] + R[2, 0]) / s
        elif R[1, 1] >= R[2, 2]:
            s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
            w = (R[0, 2] - R[2, 0]) / s
            x = (R[0, 1] + R[1, 0]) / s
            y = 0.25 * s
            z = (R[1, 2] + R[2, 1]) / s
        else:
            s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
            w = (R[1, 0] - R[0, 1]) / s
            x = (R[0, 2] + R[2, 0]) / s
            y = (R[1, 2] + R[2, 1]) / s
            z = 0.25 * s
        return Quaternion(w, x, y, z)

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

    def rotvec(self) -> np.ndarray:
        xyz = np.array([self.x, self.y, self.z])
        s = float(np.linalg.norm(xyz))
        w = abs(self.w)
        if s < 1e-9:
            # theta/s -> 2/w for small s; second-order term keeps 1e-12 accuracy.
            k = 2.0 / w * (1.0 - (s * s) / (3.0 * w * w))
        else:
            k = 2.0 * math.atan2(s, w) / s
        return k * xyz

    def allclose(self, other: "Quaternion", atol: float = 1e-9) -> bool:
        return bool(
            np.allclose(self.wxyz, other.wxyz, atol=atol)
            or np.allclose(self.wxyz, -other.wxyz, atol=atol)
        )


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
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError("principal point must lie inside the image")

    @property
    def K(self) -> np.ndarray:
        return np.array([[self.fx, 0.0, self.cx], [0.0, self.fy, self.cy], [0.0, 0.0, 1.0]])

    def contains(self, pix) -> bool:
        u, v = float(pix[0]), float(pix[1])
        return 0.0 <= u < self.width and 0.0 <= v < self.height


@dataclass(frozen=True)
class Pose:
    """Rigid transform: Pose(i<-j) maps points from frame j into frame i."""

    rotation: Quaternion = field(default_factory=Quaternion.identity)
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        t = np.array(self.translation, dtype=float).reshape(3)
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

    def apply(self, point) -> np.ndarray:
        return self.rotation.rotate(point) + self.translation

    def apply_many(self, points: np.ndarray) -> np.ndarray:
        """(N,3) points in frame j -> (N,3) points in frame i."""
        return points @ self.rotation.matrix.T + self.translation

    def allclose(self, other: "Pose", atol: float = 1e-9) -> bool:
        return self.rotation.allclose(other.rotation, atol=atol) and bool(
            np.allclose(self.translation, other.translation, atol=atol)
        )


def rotation_half_angle(q: Quaternion) -> float:
    """atan2(||(x,y,z)||, |w|): half the geodesic angle, in [0, pi/2]."""
    return math.atan2(math.sqrt(q.x**2 + q.y**2 + q.z**2), abs(q.w))


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


def _so3_V_inv(phi: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(phi))
    S = _skew(phi)
    if theta < 1e-6:
        return np.eye(3) - 0.5 * S + (S @ S) / 12.0
    # c = (1 - theta/(2 tan(theta/2))) / theta^2, stable over (0, pi).
    c = (1.0 - theta / (2.0 * math.tan(0.5 * theta))) / theta**2
    return np.eye(3) - 0.5 * S + c * (S @ S)


def se3_exp(tau) -> Pose:
    """Exp: 6-vector [rho, phi] -> Pose."""
    tau = np.asarray(tau, dtype=float).reshape(6)
    rho, phi = tau[:3], tau[3:]
    q = Quaternion.from_rotvec(phi)
    return Pose(q, _so3_V(phi) @ rho)


def se3_log(T: Pose) -> np.ndarray:
    """Log: Pose -> 6-vector [rho, phi]; requires rotation angle < pi."""
    phi = T.rotation.rotvec()
    rho = _so3_V_inv(phi) @ T.translation
    return np.concatenate([rho, phi])


def boxplus(T: Pose, delta) -> Pose:
    """Right-multiplicative retraction T * Exp(delta)."""
    return T.compose(se3_exp(delta))


def boxminus(a: Pose, b: Pose) -> np.ndarray:
    """Local difference Log(b^-1 * a); boxplus(b, boxminus(a, b)) == a."""
    rel = b.inverse().compose(a)
    if rel.rotation.angle > math.pi - 1e-6:
        raise RotationSingularity(
            f"relative rotation {rel.rotation.angle:.6f} rad too close to pi"
        )
    return se3_log(rel)


def adjoint(T: Pose) -> np.ndarray:
    """6x6 Ad(T) with Exp(Ad(T) tau) = T Exp(tau) T^-1, [rho, phi] ordering."""
    R = T.rotation.matrix
    A = np.zeros((6, 6))
    A[:3, :3] = R
    A[:3, 3:] = _skew(T.translation) @ R
    A[3:, 3:] = R
    return A


def _se3_Q(rho: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Q block of the SE(3) left Jacobian (Barfoot's closed form)."""
    theta = float(np.linalg.norm(phi))
    rx = _skew(rho)
    px = _skew(phi)
    if theta < 1e-4:
        c1 = 1.0 / 6.0 - theta**2 / 120.0
        c2 = 1.0 / 24.0 - theta**2 / 720.0
        c3 = -1.0 / 120.0 + theta**2 / 5040.0
    else:
        c1 = (theta - math.sin(theta)) / theta**3
        c2 = (1.0 - 0.5 * theta**2 - math.cos(theta)) / theta**4
        c3 = (theta - math.sin(theta) - theta**3 / 6.0) / theta**5
    Q = 0.5 * rx
    Q += c1 * (px @ rx + rx @ px + px @ rx @ px)
    Q -= c2 * (px @ px @ rx + rx @ px @ px - 3.0 * px @ rx @ px)
    Q -= 0.5 * (c2 - 3.0 * c3) * (px @ rx @ px @ px + px @ px @ rx @ px)
    return Q


def se3_left_jacobian_inv(tau) -> np.ndarray:
    tau = np.asarray(tau, dtype=float).reshape(6)
    rho, phi = tau[:3], tau[3:]
    Jinv = _so3_V_inv(phi)
    Q = _se3_Q(rho, phi)
    out = np.zeros((6, 6))
    out[:3, :3] = Jinv
    out[3:, 3:] = Jinv
    out[:3, 3:] = -Jinv @ Q @ Jinv
    return out


def se3_right_jacobian_inv(tau) -> np.ndarray:
    """Inverse right Jacobian: d/d eps Log(Exp(tau) Exp(eps)) at eps=0 is its inverse."""
    return se3_left_jacobian_inv(-np.asarray(tau, dtype=float))


# --- Pinhole projection -------------------------------------------------------

BEHIND_CAMERA_DEPTH = 1e-9


def project(K: CameraIntrinsics, T_cam_from_world: Pose, point) -> np.ndarray | None:
    """Project a world point; None when at or behind the camera plane."""
    pc = T_cam_from_world.apply(point)
    if pc[2] <= BEHIND_CAMERA_DEPTH:
        return None
    return np.array([K.fx * pc[0] / pc[2] + K.cx, K.fy * pc[1] / pc[2] + K.cy])


def project_points(
    K: CameraIntrinsics, T_cam_from_world: Pose, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of (N,3) points -> ((N,2) pixels, (N,) depths).

    Pixels of non-positive-depth points are filled with nan; check depths.
    """
    pc = T_cam_from_world.apply_many(np.asarray(points, dtype=float))
    z = pc[:, 2]
    valid = z > BEHIND_CAMERA_DEPTH
    pix = np.full((len(pc), 2), np.nan)
    zs = np.where(valid, z, 1.0)
    pix[:, 0] = np.where(valid, K.fx * pc[:, 0] / zs + K.cx, np.nan)
    pix[:, 1] = np.where(valid, K.fy * pc[:, 1] / zs + K.cy, np.nan)
    return pix, z


def project_with_jacobian(
    K: CameraIntrinsics, T_cam_from_world: Pose, point
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Pixel and its 2x6 Jacobian w.r.t. a right perturbation T*Exp(delta).

    Columns 0..2 are the translational tangent, 3..5 rotational.
    """
    X = np.asarray(point, dtype=float)
    R = T_cam_from_world.rotation.matrix
    pc = R @ X + T_cam_from_world.translation
    z = pc[2]
    if z <= BEHIND_CAMERA_DEPTH:
        return None, None
    pix = np.array([K.fx * pc[0] / z + K.cx, K.fy * pc[1] / z + K.cy])
    J_pi = np.array(
        [
            [K.fx / z, 0.0, -K.fx * pc[0] / z**2],
            [0.0, K.fy / z, -K.fy * pc[1] / z**2],
        ]
    )
    J = np.hstack([J_pi @ R, -J_pi @ R @ _skew(X)])
    return pix, J


def project_points_with_jacobian(
    K: CameraIntrinsics, T_cam_from_world: Pose, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized project_with_jacobian over (N,3) points.

    Returns (N,2) pixels, (N,2,6) Jacobians w.r.t. a right perturbation
    T*Exp(delta) and the (N,) mask of points in front of the camera
    (depth > BEHIND_CAMERA_DEPTH). Rows outside the mask are finite but
    meaningless.
    """
    X = np.asarray(points, dtype=float).reshape(-1, 3)
    R = T_cam_from_world.rotation.matrix
    pc = X @ R.T + T_cam_from_world.translation
    z = pc[:, 2]
    valid = z > BEHIND_CAMERA_DEPTH
    inv_z = 1.0 / np.where(valid, z, 1.0)
    uv = pc[:, :2] * inv_z[:, None]  # normalized image coordinates
    f = np.array([K.fx, K.fy])
    pix = uv * f + np.array([K.cx, K.cy])
    # Rows of J_pi R: (f / z) (R_row - uv R_2), one (2,3) block per point.
    a = (f * inv_z[:, None])[:, :, None] * (R[:2] - uv[:, :, None] * R[2])
    J = np.empty((len(X), 2, 6))
    J[:, :, :3] = a
    # -J_pi R [X]x, row by row, is the cross product X x a.
    x0, x1, x2 = (X[:, k, None] for k in range(3))
    J[:, :, 3] = x1 * a[:, :, 2] - x2 * a[:, :, 1]
    J[:, :, 4] = x2 * a[:, :, 0] - x0 * a[:, :, 2]
    J[:, :, 5] = x0 * a[:, :, 1] - x1 * a[:, :, 0]
    return pix, J, valid
