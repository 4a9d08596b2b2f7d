"""Intra-sequence lifting of query keypoints to 3D.

For each query frame, a forward neighbor with enough relative displacement is
selected from the same sequence; shared keypoints are triangulated in the
query odometry frame and joined with query-to-reference matches into 3D-2D
correspondences. Triangulation is one batched kernel over all matches of a
frame pair: a stacked 4x4 DLT, one Gauss-Newton reprojection step on the
point Jacobian of geometry.project_many_with_jacobian, and the accept checks
as whole-array masks (Hartley & Zisserman, Multiple View Geometry, 12.2).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .geometry import CameraIntrinsics, Pose, project_many_with_jacobian
from .ingest import Frame
from .matching import MatchSet


def select_neighbors(poses: list[Pose], t_min: float, theta_min_rad: float) -> list[int | None]:
    """First j > i whose relative displacement passes the threshold test.

    The rotation test compares theta_min against the quaternion half-angle of
    the relative rotation, half its geodesic angle. Frames with no
    qualifying forward neighbor map to None and are skipped downstream.
    """
    n = len(poses)
    out: list[int | None] = [None] * n
    for i in range(n):
        inv_i = poses[i].inverse()
        for j in range(i + 1, n):
            rel = inv_i.compose(poses[j])
            if (
                np.linalg.norm(rel.translation) >= t_min
                or rel.rotation.angle >= 2.0 * theta_min_rad
            ):
                out[i] = j
                break
    return out


class Reject(str, enum.Enum):
    BEHIND_CAMERA = "behind_camera"
    REPROJ_TOO_LARGE = "reproj_too_large"
    ANGLE_TOO_SMALL = "angle_too_small"
    DEGENERATE_RAYS = "degenerate_rays"


@dataclass
class TriangulationResult:
    point: np.ndarray | None
    reproj_a: float = math.inf
    reproj_b: float = math.inf
    reject: Reject | None = None

    @property
    def ok(self) -> bool:
        return self.reject is None


@dataclass
class LiftedPoint:
    """A query keypoint lifted to the query odometry frame."""

    kp_idx: int
    point: np.ndarray  # 3-vector in frame q
    reproj_a: float
    reproj_b: float


@dataclass
class Corr3D2D:
    """Triangulated query point paired with a reference observation."""

    point: np.ndarray  # in the query odometry frame q
    ref_frame_id: str
    ref_pixel: np.ndarray
    query_kp_idx: int
    ref_kp_idx: int


# The kernel's checks in the order they run; reject code k > 0 is _REJECTS[k].
_REJECTS = (None, Reject.DEGENERATE_RAYS, Reject.BEHIND_CAMERA,
            Reject.REPROJ_TOO_LARGE, Reject.ANGLE_TOO_SMALL)


def _reproject(cams, pix, X):
    """(N,2,2) residuals and (N,4,3) point Jacobians J_pi R per view; in front of both."""
    R = np.stack([cam.rotation.matrix for cam, _ in cams])
    pc = np.stack([X @ cam.rotation.matrix.T + cam.translation for cam, _ in cams], axis=1)
    f, c = np.array([[K.fx, K.fy] for _, K in cams]), np.array([[K.cx, K.cy] for _, K in cams])
    proj, J, front = project_many_with_jacobian(R, pc, X[:, None], f, c)
    return proj - pix, J[..., :3].reshape(-1, 4, 3), front.all(axis=1)


def _triangulate(T_a, T_b, K_a, K_b, pix_a, pix_b, max_reproj_px, min_angle_deg):
    """DLT plus one Gauss-Newton reprojection step over (N,2) pixel pairs.

    Poses are T(q<-cam). Returns (N,3) points, (N,2) reprojection errors per
    view (inf where the row is rejected before they are measured) and (N,)
    reject codes. A row keeps its DLT point when it is behind either camera,
    its normal matrix is singular or its step is not finite.
    """
    cams = [(T_a.inverse(), K_a), (T_b.inverse(), K_b)]
    pix = np.stack([np.reshape(pix_a, (-1, 2)), np.reshape(pix_b, (-1, 2))], axis=1).astype(float)
    # Two DLT rows per view: u P[2] - P[0] and v P[2] - P[1].
    P = np.stack([K.K @ cam.matrix[:3] for cam, K in cams])
    Xh = np.linalg.svd((pix[..., None] * P[:, 2, None] - P[:, :2]).reshape(-1, 4, 4))[2][:, -1]
    baseline = np.linalg.norm(T_a.translation - T_b.translation)
    degenerate = (np.abs(Xh[:, 3]) < 1e-12) | (baseline < 1e-9)
    X = Xh[:, :3] / np.where(degenerate, 1.0, Xh[:, 3])[:, None]

    r, J, front = _reproject(cams, pix, X)
    H = np.einsum("nki,nkj->nij", J, J)
    # solve raises for the whole stack on one singular H; det uses the same LU.
    step = ~degenerate & front & (np.linalg.det(H) != 0)
    g = np.einsum("nki,nk->ni", J, r.reshape(-1, 4))
    delta = np.linalg.solve(H[step], -g[step, :, None])[:, :, 0]
    finite = np.isfinite(delta).all(axis=1)
    X[np.flatnonzero(step)[finite]] += delta[finite]

    r, _, front = _reproject(cams, pix, X)
    err = np.linalg.norm(r, axis=2)
    d_a = X - T_a.translation
    d_b = X - T_b.translation
    norms = np.linalg.norm(d_a, axis=1) * np.linalg.norm(d_b, axis=1)
    cosang = np.einsum("ni,ni->n", d_a, d_b) / np.where(norms > 0, norms, 1.0)
    angle = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    checks = [degenerate, ~front, (err > max_reproj_px).any(axis=1), angle < min_angle_deg]
    code = np.select(checks, range(1, len(_REJECTS)), 0)  # the first failure wins
    return X, np.where((checks[0] | checks[1])[:, None], math.inf, err), code


def triangulate_pair(
    T_a: Pose, T_b: Pose, K_a: CameraIntrinsics, K_b: CameraIntrinsics, pix_a, pix_b,
    max_reproj_px: float = 3.0, min_angle_deg: float = 1.0,
) -> TriangulationResult:
    """One pixel pair through the triangulation kernel; poses are T(q<-cam).

    Accepts only points with positive depth in both views, both reprojection
    errors within max_reproj_px and a triangulation angle of at least
    min_angle_deg.
    """
    X, err, code = _triangulate(T_a, T_b, K_a, K_b, pix_a, pix_b, max_reproj_px, min_angle_deg)
    reject = _REJECTS[code[0]]
    return TriangulationResult(None if reject else X[0], float(err[0, 0]), float(err[0, 1]), reject)


def triangulate_matches(
    ms: MatchSet, T_a: Pose, T_b: Pose, K_a: CameraIntrinsics, K_b: CameraIntrinsics,
    kps_a: np.ndarray, kps_b: np.ndarray, max_reproj_px: float = 3.0, min_angle_deg: float = 1.0,
) -> list[LiftedPoint]:
    """Triangulate every match of a frame pair in one kernel call; poses are T(q<-cam).

    Returns the accepted matches in match order.
    """
    X, err, code = _triangulate(
        T_a, T_b, K_a, K_b, kps_a[ms.idx_a], kps_b[ms.idx_b], max_reproj_px, min_angle_deg
    )
    return [
        LiftedPoint(int(ms.idx_a[k]), X[k], float(err[k, 0]), float(err[k, 1]))
        for k in np.flatnonzero(code == 0)
    ]


def assemble_3d2d(
    lifted: list[LiftedPoint],
    candidate_matches: list[tuple[MatchSet, Frame]],
) -> list[Corr3D2D]:
    """Join lifted query keypoints with query-to-reference matches.

    candidate_matches pair each MatchSet (frame a = the query frame) with its
    reference Frame; the union over all candidates is returned, duplicates
    across candidates retained.
    """
    by_idx = {lp.kp_idx: lp for lp in lifted}
    rows: list[Corr3D2D] = []
    for ms, ref in candidate_matches:
        for ia, ib in zip(ms.idx_a, ms.idx_b):
            lp = by_idx.get(int(ia))
            if lp is None:
                continue
            rows.append(
                Corr3D2D(
                    point=lp.point,
                    ref_frame_id=ref.frame_id,
                    ref_pixel=np.asarray(ref.keypoints[int(ib)], dtype=float),
                    query_kp_idx=int(ia),
                    ref_kp_idx=int(ib),
                )
            )
    return rows
