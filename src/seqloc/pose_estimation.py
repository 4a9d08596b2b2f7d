"""Absolute pose from 3D-2D correspondences: P3P, LO-RANSAC, robust refinement.

The estimator is phrased generally: correspondences may be observed by several
known cameras (views), each with intrinsics and a known pose T(cam<-global).
The unknown is the transform T(global<-solve) mapping the 3D points' frame
into the global frame. With a single view at the identity this reduces to the
classic PnP problem and the estimate is T(cam<-world).
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as npoly

from .geometry import CameraIntrinsics, Pose, boxplus, project_points, project_points_with_jacobian
from .solver import huber, levenberg_marquardt

log = logging.getLogger(__name__)


@dataclass
class CameraView:
    """A known observing camera: intrinsics plus T(cam<-global)."""

    K: CameraIntrinsics
    T_cam_from_global: Pose = field(default_factory=Pose.identity)


class PoseStatus(str, enum.Enum):
    LOCALIZED = "localized"
    REJECTED_FEW_INLIERS = "rejected_few_inliers"
    SKIPPED_NO_NEIGHBOR = "skipped_no_neighbor"
    SKIPPED_NO_MATCHES = "skipped_no_matches"


@dataclass
class PoseEstimate:
    frame_id: str
    pose: Pose | None
    inlier_count: int
    inlier_mask: np.ndarray
    status: PoseStatus
    iterations: int = 0
    inlier_history: list[int] = field(default_factory=list, repr=False)


# --- minimal solvers ------------------------------------------------------------


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
        T = _kabsch(pts, cam_pts)
        T = _polish_minimal(T, pts, pix, K)
        if T is None:
            continue
        if any(T.allclose(p, atol=1e-7) for p in poses):
            continue
        poses.append(T)
    return poses


def _polish_minimal(T: Pose, pts, pix, K, iters: int = 10) -> Pose | None:
    """Gauss-Newton to machine precision on the exactly-determined 3-point system."""
    # The projection after the last step doubles as the closing error check.
    for step in range(iters + 1):
        p, J, ok = project_points_with_jacobian(K, T, pts)
        if not ok.all():
            return None
        r = p - pix
        if np.abs(r).max() < 1e-9 or step == iters:
            break
        try:
            T = boxplus(T, np.linalg.solve(J.reshape(6, 6), -r.reshape(6)))
        except ValueError:  # a singular system, or a non-finite step
            return None
    return T if np.linalg.norm(r, axis=1).max() < 1e-6 else None


def dlt_pnp(points3d, pixels, K: CameraIntrinsics) -> Pose | None:
    """>= 6-point linear PnP fallback: homogeneous DLT, SO(3) projection."""
    pts = np.asarray(points3d, dtype=float)
    pix = np.asarray(pixels, dtype=float)
    n = len(pts)
    if n < 6:
        return None
    xn = np.column_stack([(pix[:, 0] - K.cx) / K.fx, (pix[:, 1] - K.cy) / K.fy])
    X = np.column_stack([pts, np.ones(n)])
    A = np.zeros((2 * n, 12))
    A[0::2, 0:4] = X
    A[0::2, 8:12] = -xn[:, :1] * X
    A[1::2, 4:8] = X
    A[1::2, 8:12] = -xn[:, 1:] * X
    _, _, vt = np.linalg.svd(A)
    P = vt[-1].reshape(3, 4)
    # fix sign by cheirality of the centroid
    if (P @ np.append(pts.mean(axis=0), 1.0))[2] < 0:
        P = -P
    U, S, Vt = np.linalg.svd(P[:, :3])
    if S.min() < 1e-12:
        return None
    R = U @ Vt
    if np.linalg.det(R) < 0:
        R = U @ np.diag([1.0, 1.0, -1.0]) @ Vt
    t = P[:, 3] / S.mean()
    return Pose.from_rt(R, t)


# --- residuals and robust refinement -------------------------------------------


def reprojection_errors(
    T_global_from_solve: Pose,
    points: np.ndarray,
    pixels: np.ndarray,
    cam_idx: np.ndarray,
    views: list[CameraView],
) -> np.ndarray:
    """Pixel error per correspondence; inf for points behind their camera."""
    errs = np.full(len(points), np.inf)
    for c, view in enumerate(views):
        sel = np.flatnonzero(cam_idx == c)
        if not len(sel):
            continue
        W = view.T_cam_from_global.compose(T_global_from_solve)
        pix, depth = project_points(view.K, W, points[sel])
        ok = depth > 1e-9
        d = np.linalg.norm(pix - pixels[sel], axis=1)
        errs[sel[ok]] = d[ok]
    return errs


def refine_pose(
    T0: Pose,
    points: np.ndarray,
    pixels: np.ndarray,
    cam_idx: np.ndarray,
    views: list[CameraView],
    huber_px: float = 2.0,
    max_iters: int = 50,
    tol: float = 1e-12,
) -> Pose:
    """Robust Levenberg-Marquardt (seqloc.solver) on reprojection residuals,
    with the Huber kernel at huber_px on each residual's norm.

    The cost comes from reprojection_errors and is infinite while a point is
    behind its camera. The normal equations are built view by view: one
    batched projection with Jacobians over the view's points, points behind
    their camera left out, Huber-weighted sums by einsum. Returns the best
    iterate; warns instead of raising when the iteration budget runs out
    before convergence.
    """
    points = np.asarray(points, dtype=float)
    pixels = np.asarray(pixels, dtype=float)
    cam_idx = np.asarray(cam_idx)
    per_view = []
    for k, view in enumerate(views):
        sel = cam_idx == k
        if sel.any():
            per_view.append((view, points[sel], pixels[sel]))
    threshold = huber_px**2

    def evaluate(T: Pose) -> tuple[float, None]:
        e = reprojection_errors(T, points, pixels, cam_idx, views)
        return float(huber(e**2, threshold)[0].sum()), None

    def normal_equations(T: Pose, _) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        H = np.zeros((6, 6))
        g = np.zeros(6)
        for view, X, x in per_view:
            W = view.T_cam_from_global.compose(T)
            p, J, ok = project_points_with_jacobian(view.K, W, X)
            r = p[ok] - x[ok]
            J = J[ok]
            w = huber((r * r).sum(axis=1), threshold)[1]
            H += np.einsum("n,nij,nik->jk", w, J, J)
            g += np.einsum("n,nij,ni->j", w, J, r)
        return H[None], np.empty((0, 6, 6)), g[None]  # one block

    T, _, report = levenberg_marquardt(T0, evaluate, normal_equations, boxplus, max_iters, tol)
    if not report.converged:
        log.warning("pose refinement hit the iteration budget before converging")
    return T


# --- LO-RANSAC -------------------------------------------------------------------


def lo_ransac_pnp(
    frame_id: str,
    points: np.ndarray,
    pixels: np.ndarray,
    cam_idx: np.ndarray,
    views: list[CameraView],
    *,
    thresh_px: float = 3.0,
    confidence: float = 0.9999,
    max_iters: int = 10000,
    min_inliers: int = 10,
    huber_px: float = 2.0,
    seed: int = 0,
) -> PoseEstimate:
    """LO-RANSAC over P3P hypotheses with nonlinear local optimization.

    Deterministic for a given seed. The best model is ranked by inlier count,
    ties by lower inlier RMS; every new best triggers refinement on its inlier
    set. Estimates with fewer than min_inliers are rejected.
    """
    points = np.asarray(points, dtype=float)
    pixels = np.asarray(pixels, dtype=float)
    cam_idx = np.asarray(cam_idx, dtype=int)
    n = len(points)
    if n < 3:
        return PoseEstimate(
            frame_id, None, 0, np.zeros(n, dtype=bool), PoseStatus.SKIPPED_NO_MATCHES
        )

    counts = np.bincount(cam_idx, minlength=len(views))
    main_cam = int(np.argmax(counts))
    main_sel = np.flatnonzero(cam_idx == main_cam)
    if len(main_sel) < 3:
        return PoseEstimate(
            frame_id, None, 0, np.zeros(n, dtype=bool), PoseStatus.SKIPPED_NO_MATCHES
        )
    K_main = views[main_cam].K
    T_global_from_cam = views[main_cam].T_cam_from_global.inverse()

    rng = np.random.default_rng(seed)
    best_pose: Pose | None = None
    best_mask = np.zeros(n, dtype=bool)
    best_count = 0
    best_rms = math.inf
    history: list[int] = []

    def score(T: Pose):
        errs = reprojection_errors(T, points, pixels, cam_idx, views)
        mask = errs <= thresh_px
        count = int(mask.sum())
        rms = float(np.sqrt(np.mean(errs[mask] ** 2))) if count else math.inf
        return mask, count, rms

    def consider(T: Pose) -> bool:
        nonlocal best_pose, best_mask, best_count, best_rms
        mask, count, rms = score(T)
        if count > best_count or (count == best_count and rms < best_rms):
            best_pose, best_mask, best_count, best_rms = T, mask, count, rms
            history.append(count)
            return True
        return False

    def local_optimize() -> None:
        # refine on the current inlier set while it keeps improving
        for _ in range(3):
            if best_mask.sum() < 3:
                return
            refined = refine_pose(
                best_pose, points[best_mask], pixels[best_mask], cam_idx[best_mask],
                views, huber_px=huber_px,
            )
            if not consider(refined):
                return

    needed = max_iters
    it = 0
    while it < min(needed, max_iters):
        it += 1
        sample = rng.choice(main_sel, size=3, replace=False)
        for S in p3p(points[sample], pixels[sample], K_main):
            T = T_global_from_cam.compose(S)
            if consider(T):
                local_optimize()
        if best_count >= 3:
            w = best_count / n
            if w >= 1.0:
                needed = it
            else:
                needed = min(
                    max_iters,
                    math.ceil(math.log(max(1e-12, 1.0 - confidence)) / math.log(1.0 - w**3)),
                )

    if best_pose is None:
        # every sampled triple was degenerate: linear fallback on the main camera
        T_lin = dlt_pnp(points[main_sel], pixels[main_sel], K_main)
        if T_lin is not None:
            consider(T_global_from_cam.compose(T_lin))

    if best_pose is None:
        return PoseEstimate(
            frame_id, None, 0, np.zeros(n, dtype=bool), PoseStatus.REJECTED_FEW_INLIERS,
            iterations=it, inlier_history=history,
        )

    if best_count >= 3:
        refined = refine_pose(
            best_pose, points[best_mask], pixels[best_mask], cam_idx[best_mask],
            views, huber_px=huber_px,
        )
        consider(refined)

    status = PoseStatus.LOCALIZED if best_count >= min_inliers else PoseStatus.REJECTED_FEW_INLIERS
    return PoseEstimate(
        frame_id,
        best_pose,
        best_count,
        best_mask,
        status,
        iterations=it,
        inlier_history=history,
    )
