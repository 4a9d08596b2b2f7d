"""Intra-sequence lifting of query keypoints to 3D.

For each query frame, a forward neighbor with enough relative displacement is
selected from the same sequence; shared keypoints are triangulated in the
query odometry frame and joined with query-to-reference matches into 3D-2D
correspondences. Triangulation is one batched kernel over all matches of a
frame pair: a stacked 4x4 DLT, one Gauss-Newton reprojection step on the
point Jacobian of geometry.project_many_with_point_jacobian, and the accept
checks as whole-array masks (Hartley & Zisserman, Multiple View Geometry, 12.2).

Results are arrays with no Python object per row. triangulate_matches returns
LiftedPoints: the accepted matches' keypoint indices, points and reprojection
errors, sliced from the kernel's output in match order, with every Reject
counted. assemble_3d2d returns Correspondences: points, reference pixels,
candidate slots and keypoint indices, joined by one lookup over all candidates'
matches. Both still iterate as rows (LiftedPoint, Corr3D2D, built on the fly
and never stored), because the benchmark chain reads them that way; the rows
go once the chain lives in the library and reads the arrays.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .geometry import CameraIntrinsics, Pose, project_many_with_point_jacobian
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


class LiftedPoint(NamedTuple):
    """One row of LiftedPoints: a query keypoint lifted to the query odometry frame."""

    kp_idx: int
    point: np.ndarray  # 3-vector in frame q
    reproj_a: float
    reproj_b: float


class Corr3D2D(NamedTuple):
    """One row of Correspondences: a lifted point paired with a reference observation."""

    point: np.ndarray  # in the query odometry frame q
    ref_frame_id: str
    ref_pixel: np.ndarray
    query_kp_idx: int
    ref_kp_idx: int


# Rows from tuples in C, without NamedTuple._make's Python frame per row.
_new_lifted, _new_corr = partial(tuple.__new__, LiftedPoint), partial(tuple.__new__, Corr3D2D)


@dataclass(frozen=True, eq=False, slots=True)
class LiftedPoints:
    """The accepted matches of one frame pair, in match order.

    reject_counts holds every Reject, zeros included; its values sum to the
    matches that were not lifted.
    """

    kp_idx: np.ndarray  # (M,) query keypoint indices
    points: np.ndarray  # (M,3) in the query odometry frame q
    reproj: np.ndarray  # (M,2) pixel errors in views a and b
    reject_counts: dict[Reject, int]

    def __len__(self) -> int:
        return len(self.kp_idx)

    def __iter__(self) -> Iterator[LiftedPoint]:
        return map(_new_lifted, zip(self.kp_idx.tolist(), self.points, *self.reproj.T.tolist()))


@dataclass(frozen=True, eq=False, slots=True)
class Correspondences:
    """3D-2D correspondences: row k pairs points[k] with ref_pixels[k] in
    reference ref_ids[cam_idx[k]]."""

    points: np.ndarray  # (N,3) in the query odometry frame q
    ref_pixels: np.ndarray  # (N,2)
    cam_idx: np.ndarray  # (N,) candidate slot, an index into ref_ids
    query_kp_idx: np.ndarray  # (N,)
    ref_kp_idx: np.ndarray  # (N,)
    ref_ids: tuple[str, ...]  # the K candidates' frame ids, in candidate order

    def __len__(self) -> int:
        return len(self.cam_idx)

    def __iter__(self) -> Iterator[Corr3D2D]:
        ref_ids = map(self.ref_ids.__getitem__, self.cam_idx.tolist())
        return map(_new_corr, zip(
            self.points, ref_ids, self.ref_pixels, self.query_kp_idx.tolist(), self.ref_kp_idx.tolist()
        ))


# The kernel's checks in the order they run; reject code k > 0 is _REJECTS[k].
_REJECTS = (None, Reject.DEGENERATE_RAYS, Reject.BEHIND_CAMERA,
            Reject.REPROJ_TOO_LARGE, Reject.ANGLE_TOO_SMALL)


def _reproject(R, t, f, c, pix, X):
    """(N,2,2) residuals and (N,4,3) point Jacobians J_pi R per view; in front of both.

    R (2,3,3) and t (2,3) are the views' T(cam<-q), f and c (2,2) their intrinsics.
    """
    pc = np.stack([X @ R[0].T + t[0], X @ R[1].T + t[1]], axis=1)
    proj, J, front = project_many_with_point_jacobian(R, pc, f, c)
    return proj - pix, J.reshape(-1, 4, 3), front.all(axis=1)


def _triangulate(T_a, T_b, K_a, K_b, pix_a, pix_b, max_reproj_px, min_angle_deg):
    """DLT plus one Gauss-Newton reprojection step over (N,2) pixel pairs.

    Poses are T(q<-cam). Returns (N,3) points, (N,2) reprojection errors per
    view (inf where the row is rejected before they are measured) and (N,)
    reject codes. A row keeps its DLT point when it is behind either camera,
    its normal matrix is singular or its step is not finite.
    """
    cams = [(T_a.inverse(), K_a), (T_b.inverse(), K_b)]
    views = (
        np.stack([cam.rotation.matrix for cam, _ in cams]), np.stack([cam.translation for cam, _ in cams]),
        np.array([[K.fx, K.fy] for _, K in cams]), np.array([[K.cx, K.cy] for _, K in cams]),
    )
    pix = np.stack([np.reshape(pix_a, (-1, 2)), np.reshape(pix_b, (-1, 2))], axis=1).astype(float)
    # Two DLT rows per view: u P[2] - P[0] and v P[2] - P[1].
    P = np.stack([K.K @ cam.matrix[:3] for cam, K in cams])
    Xh = np.linalg.svd((pix[..., None] * P[:, 2, None] - P[:, :2]).reshape(-1, 4, 4))[2][:, -1]
    baseline = np.linalg.norm(T_a.translation - T_b.translation)
    degenerate = (np.abs(Xh[:, 3]) < 1e-12) | (baseline < 1e-9)
    X = Xh[:, :3] / np.where(degenerate, 1.0, Xh[:, 3])[:, None]

    r, J, front = _reproject(*views, pix, X)
    H = np.einsum("nki,nkj->nij", J, J)
    # solve raises for the whole stack on one singular H; det uses the same LU.
    step = ~degenerate & front & (np.linalg.det(H) != 0)
    g = np.einsum("nki,nk->ni", J, r.reshape(-1, 4))
    delta = np.linalg.solve(H[step], -g[step, :, None])[:, :, 0]
    finite = np.isfinite(delta).all(axis=1)
    X[np.flatnonzero(step)[finite]] += delta[finite]

    r, _, front = _reproject(*views, pix, X)
    err = np.linalg.norm(r, axis=2)
    d_a = X - T_a.translation
    d_b = X - T_b.translation
    norms = np.linalg.norm(d_a, axis=1) * np.linalg.norm(d_b, axis=1)
    cosang = np.einsum("ni,ni->n", d_a, d_b) / np.where(norms > 0, norms, 1.0)
    angle = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    checks = [degenerate, ~front, (err > max_reproj_px).any(axis=1), angle < min_angle_deg]
    code = np.zeros(len(X), dtype=np.intp)
    for k in range(len(checks), 0, -1):  # the first failure wins
        code[checks[k - 1]] = k
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
) -> LiftedPoints:
    """Triangulate every match of a frame pair in one kernel call; poses are T(q<-cam).

    Returns the accepted matches in match order, with the rejected ones counted by reason.
    """
    X, err, code = _triangulate(
        T_a, T_b, K_a, K_b, kps_a[ms.idx_a], kps_b[ms.idx_b], max_reproj_px, min_angle_deg
    )
    ok = code == 0
    counts = np.bincount(code, minlength=len(_REJECTS)).tolist()
    return LiftedPoints(
        np.asarray(ms.idx_a, dtype=np.intp)[ok], X[ok], err[ok], dict(zip(_REJECTS[1:], counts[1:]))
    )


def assemble_3d2d(lifted: LiftedPoints, candidate_matches: list[tuple[MatchSet, Frame]]) -> Correspondences:
    """Join lifted query keypoints with query-to-reference matches.

    candidate_matches pair each MatchSet (frame a = the query frame) with its
    reference Frame. The rows are the matches whose query keypoint was lifted,
    candidates in order and each candidate's matches in match order, so
    duplicates across candidates are kept. One lookup over all candidates'
    stacked idx_a finds each match's lifted row (the last, should a keypoint
    repeat).
    """
    idx_a = np.concatenate([np.zeros(0, np.intp), *(ms.idx_a for ms, _ in candidate_matches)])
    idx_b = np.concatenate([np.zeros(0, np.intp), *(ms.idx_b for ms, _ in candidate_matches)])
    pixels = np.concatenate(
        [np.zeros((0, 2)), *(ref.keypoints[ms.idx_b] for ms, ref in candidate_matches)], dtype=float
    )
    slot = np.repeat(np.arange(len(candidate_matches)), [len(ms) for ms, _ in candidate_matches])
    order = np.argsort(lifted.kp_idx, kind="stable")
    at = np.searchsorted(lifted.kp_idx, idx_a, side="right", sorter=order) - 1
    hit = np.flatnonzero(at >= 0)
    rows = order[at[hit]]
    keep = lifted.kp_idx[rows] == idx_a[hit]
    hit, rows = hit[keep], rows[keep]
    return Correspondences(
        points=lifted.points[rows],
        ref_pixels=pixels[hit],
        cam_idx=slot[hit],
        query_kp_idx=idx_a[hit],
        ref_kp_idx=idx_b[hit],
        ref_ids=tuple(ref.frame_id for _, ref in candidate_matches),
    )
