"""Grunert's three-point solver, one sample at a time.

seqloc.pose_estimation.p3p (Lambda Twist over a block of samples) replaced
this code; the tests keep it as the reference for the block kernel.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as npoly

from helpers import pose_allclose
from seqloc.geometry import CameraIntrinsics, Pose, boxplus, project_many_with_jacobian


def _bearings(pixels: np.ndarray, K: CameraIntrinsics) -> np.ndarray:
    rays = np.column_stack(
        [(pixels[:, 0] - K.cx) / K.fx, (pixels[:, 1] - K.cy) / K.fy, np.ones(len(pixels))]
    )
    return rays / np.linalg.norm(rays, axis=1, keepdims=True)


def _kabsch(src: np.ndarray, dst: np.ndarray) -> Pose:
    """Rigid transform with dst = R src + t."""
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    H = (src - cs).T @ (dst - cd)
    U, _, Vt = np.linalg.svd(H)
    d = np.sign(np.linalg.det(Vt.T @ U.T))
    R = Vt.T @ np.diag([1.0, 1.0, d]) @ U.T
    return Pose.from_rt(R, cd - R @ cs)


def p3p(points3d, pixels, K: CameraIntrinsics) -> list[Pose]:
    """Grunert's three-point solver; returns up to 4 poses T(cam<-world).

    Each returned pose is polished with Gauss-Newton on the three reprojection
    constraints and reprojects all three points to < 1e-6 px; degenerate
    (collinear or coincident) triples yield an empty list.
    """
    pts = np.asarray(points3d, dtype=float).reshape(3, 3)
    pix = np.asarray(pixels, dtype=float).reshape(3, 2)

    cross = np.cross(pts[1] - pts[0], pts[2] - pts[0])
    scale = max(np.linalg.norm(pts[1] - pts[0]), np.linalg.norm(pts[2] - pts[0]), 1e-12)
    if np.linalg.norm(cross) < 1e-9 * scale**2:
        return []

    f = _bearings(pix, K)
    a2 = float(np.sum((pts[1] - pts[2]) ** 2))
    b2 = float(np.sum((pts[0] - pts[2]) ** 2))
    c2 = float(np.sum((pts[0] - pts[1]) ** 2))
    if min(a2, b2, c2) < 1e-16:
        return []
    cos_a = float(np.dot(f[1], f[2]))
    cos_b = float(np.dot(f[0], f[2]))
    cos_g = float(np.dot(f[0], f[1]))

    # Grunert's system with s2 = u s1, s3 = v s1 reduces to a quartic in v.
    # Build it by exact polynomial arithmetic instead of hand-expanded
    # coefficients:  u = N(v)/D(v), then  N^2 - 2 cos_g N D + D^2 (1 - B S) = 0
    # with S(v) = 1 + v^2 - 2 v cos_b, A = a2/b2, B = c2/b2.
    A, B = a2 / b2, c2 / b2
    S = np.array([1.0, -2.0 * cos_b, 1.0])  # ascending powers of v
    N = npoly.polyadd((A - B) * S, np.array([1.0, 0.0, -1.0]))
    D = np.array([2.0 * cos_g, -2.0 * cos_a])
    quartic = npoly.polyadd(
        npoly.polymul(N, N),
        npoly.polyadd(
            npoly.polymul(-2.0 * cos_g * N, D),
            npoly.polymul(npoly.polymul(D, D), npoly.polyadd(np.array([1.0]), -B * S)),
        ),
    )
    roots = npoly.polyroots(quartic)

    poses: list[Pose] = []
    for v in roots:
        if abs(v.imag) > 1e-6 or v.real <= 0:
            continue
        v = float(v.real)
        denom = float(npoly.polyval(v, D))
        s_v = float(npoly.polyval(v, S))
        if abs(denom) < 1e-12 or s_v <= 1e-16:
            continue
        u = float(npoly.polyval(v, N)) / denom
        s1 = math.sqrt(b2 / s_v)
        s2, s3 = u * s1, v * s1
        if s1 <= 0 or s2 <= 0 or s3 <= 0:
            continue
        cam_pts = np.array([s1 * f[0], s2 * f[1], s3 * f[2]])
        T = polish_minimal(_kabsch(pts, cam_pts), pts, pix, K)
        if T is None:
            continue
        if any(pose_allclose(T, p, atol=1e-7) for p in poses):
            continue
        poses.append(T)
    return poses


def polish_minimal(T: Pose, pts, pix, K, iters: int = 10) -> Pose | None:
    """Gauss-Newton to machine precision on the exactly-determined 3-point system."""
    f, c = np.array([K.fx, K.fy]), np.array([K.cx, K.cy])
    # The projection after the last step doubles as the closing error check.
    for step in range(iters + 1):
        R = T.rotation.matrix
        p, J, ok = project_many_with_jacobian(R, pts @ R.T + T.translation, pts, f, c)
        if not ok.all():
            return None
        r = p - pix
        if np.abs(r).max() < 1e-11 or step == iters:
            break
        try:
            T = boxplus(T, np.linalg.solve(J.reshape(6, 6), -r.reshape(6)))
        except ValueError:  # a singular system, or a non-finite step
            return None
    return T if np.linalg.norm(r, axis=1).max() < 1e-6 else None
