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
from typing import NamedTuple

import numpy as np

from .geometry import BEHIND_CAMERA_DEPTH, CameraIntrinsics, Pose, Quaternion, _cross, _dot, _matrix_quat
from .geometry import _quat_matrix, boxplus, compose_many, project_many_with_jacobian, se3_exp_many
from .solver import huber, levenberg_marquardt

log = logging.getLogger(__name__)


@dataclass
class CameraView:
    """A known observing camera: intrinsics plus T(cam<-global)."""

    K: CameraIntrinsics
    T_cam_from_global: Pose = field(default_factory=Pose.identity)


class PoseStatus(str, enum.Enum):
    """How a frame's pose estimation ended; only LOCALIZED carries a trusted pose.

    REJECTED_FEW_INLIERS: the best model has fewer than min_inliers inliers.
    REJECTED_DEGENERATE: the main camera's points are collinear (COLLINEAR_TOL),
    so no pose is fixed by them; no sample was drawn.
    SKIPPED_NO_NEIGHBOR, SKIPPED_NO_MATCHES: too little input to try.
    """

    LOCALIZED = "localized"
    REJECTED_FEW_INLIERS = "rejected_few_inliers"
    REJECTED_DEGENERATE = "rejected_degenerate"
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


def _cubic_root(e2: np.ndarray, e1: np.ndarray, e0: np.ndarray) -> np.ndarray:
    """A real root of t^3 + e2 t^2 + e1 t + e0 (Cardano; the largest of three
    real roots), polished by Newton's method."""
    p = e1 - e2**2 / 3.0
    q = 2.0 * e2**3 / 27.0 - e2 * e1 / 3.0 + e0
    disc = q**2 / 4.0 + p**3 / 27.0
    root = np.sqrt(np.maximum(disc, 0.0))
    one = np.cbrt(-0.5 * q + root) + np.cbrt(-0.5 * q - root)
    pn = np.minimum(p, -1e-300)  # p < 0 wherever disc < 0
    three = 2.0 * np.sqrt(-pn / 3.0) * np.cos(np.arccos(np.clip(1.5 * q / pn * np.sqrt(-3.0 / pn), -1, 1)) / 3)
    t = np.where(disc > 0.0, one, three) - e2 / 3.0
    for _ in range(2):
        f, df = ((t + e2) * t + e1) * t + e0, (3.0 * t + 2.0 * e2) * t + e1
        t = np.where(df != 0.0, t - f / np.where(df != 0.0, df, 1.0), t)
    return t


# Points are collinear when their second extent is at most this share of the
# first: |cross| against the longest squared pair of a P3P sample, s2 against s1
# (singular values of the centred points) of lo_ransac_pnp's support.
COLLINEAR_TOL = 1e-9
POLISH_STEPS = 1  # Gauss-Newton steps of each P3P pose on its own sample
_PAIRS = np.array([[0, 1], [0, 2], [1, 2]]).T  # the sample's point pairs, one constraint each
_LONGEST_LAST = np.array([[2, 0, 1], [1, 0, 2], [0, 1, 2]])  # reorderings, by longest pair


def p3p(points3d, pixels, K: CameraIntrinsics) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lambda Twist P3P (Persson & Nordberg, ECCV 2018) over a block of samples.

    points3d (B,3,3) and pixels (B,3,2) hold B minimal samples. The depths l
    along the unit rays y solve l^T M_ij l = |X_i - X_j|^2, where
    l^T M_ij l = l_i^2 + l_j^2 - 2 (y_i.y_j) l_i l_j. A singular member of the
    pencil of two homogeneous differences is a pair of planes through the
    origin; each plane meets the pencil in two rays, scaled by the longest
    pair's constraint. Each pose is then polished by Gauss-Newton on its
    sample's pixels. Returns the solutions T(cam<-world) as (S,4) quaternions
    and (S,3) translations, with the (S,) index of the sample each solves.
    Each reprojects its sample to < 1e-6 px; degenerate (collinear or
    coincident) samples yield none.
    """
    X = np.asarray(points3d, dtype=float).reshape(-1, 3, 3)
    x = np.asarray(pixels, dtype=float).reshape(-1, 3, 2)
    i, j = _PAIRS
    rows = np.arange(len(X))[:, None]
    order = _LONGEST_LAST[np.argmax(_dot(X[:, i] - X[:, j], X[:, i] - X[:, j]), axis=1)]
    X, x = X[rows, order], x[rows, order]  # pair (1, 2), the reference, is the longest
    f, c = np.array([K.fx, K.fy]), np.array([K.cx, K.cy])
    y = np.concatenate([(x - c) / f, np.ones(x.shape[:2] + (1,))], axis=2)
    y /= np.linalg.norm(y, axis=2, keepdims=True)
    a, (b01, b02, b12) = _dot(X[:, i] - X[:, j], X[:, i] - X[:, j]), _dot(y[:, i], y[:, j]).T
    span2 = np.maximum(np.maximum(a[:, 0], a[:, 1]), 1e-24)
    good = np.linalg.norm(_cross(X[:, 1] - X[:, 0], X[:, 2] - X[:, 0]), axis=1) >= COLLINEAR_TOL * span2

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        r1, r2 = a[:, 0] / a[:, 2], a[:, 1] / a[:, 2]
        z, one = np.zeros_like(r1), np.ones_like(r1)  # l^T D l = 0 for D = M_0j - r_j M_12:
        D1 = np.stack([one, -b01, z, -b01, 1 - r1, r1 * b12, z, r1 * b12, -r1], axis=1).reshape(-1, 3, 3)
        D2 = np.stack([one, z, -b02, z, -r2, r2 * b12, -b02, r2 * b12, 1 - r2], axis=1).reshape(-1, 3, 3)
        # det(mu D1 + nu D2) = sum_n coef[n] mu^(3-n) nu^n; solve in the ratio
        # whose leading coefficient is the larger.
        m01, m02, m12, k = 1 - b01**2, 1 - b02**2, 1 - b12**2, 2 * (b01 * b02 * b12 - 1)
        coef = (
            r1 * r1 * m12 - r1 * m01,
            m01 * (1 - r2) + r1 * r1 * m12 + r1 * k + 2 * r1 * r2 * m12,
            m02 * (1 - r1) + r2 * r2 * m12 + r2 * k + 2 * r1 * r2 * m12,
            r2 * r2 * m12 - r2 * m02,
        )
        in_nu = np.abs(coef[3]) >= np.abs(coef[0])
        lead = np.where(in_nu, coef[3], coef[0])
        g = _cubic_root(*(np.where(in_nu, coef[3 - n], coef[n]) / lead for n in (1, 2, 3)))
        mu, nu = np.where(in_nu, 1.0, g)[:, None, None], np.where(in_nu, g, 1.0)[:, None, None]
        D0 = mu * D1 + nu * D2
        Dm = np.where(np.abs(mu) <= np.abs(nu), D1, D2)  # the one that weighs less in D0
        good &= np.isfinite(D0).all(axis=(1, 2))
        w, E = np.linalg.eigh(np.where(good[:, None, None], D0, np.eye(3)))
        good &= (w[:, 0] < 0.0) & (w[:, 2] > 0.0)  # a real pair of planes
        # Both planes hold the null vector u; v spans the rest of each.
        u = E[:, None, :, 1]
        v = np.sqrt(-w[:, 2] / w[:, 0])[:, None, None] * E[:, None, :, 0]
        v = v + np.array([[1.0], [-1.0]]) * E[:, None, :, 2]
        Du = np.einsum("bij,bkj->bki", Dm, u)
        A, B, C = _dot(u, Du), _dot(v, Du), _dot(v, np.einsum("bij,bkj->bki", Dm, v))
        disc = B**2 - A * C  # (alpha u + beta v)^T Dm (alpha u + beta v) = 0 in each plane
        s = -(B + np.where(B >= 0.0, 1.0, -1.0) * np.sqrt(disc))
        rays = np.concatenate([s[..., None] * u + A[..., None] * v, C[..., None] * u + s[..., None] * v], axis=1)
        hit = np.nonzero(good[:, None] & (disc >= 0.0)[:, [0, 1, 0, 1]])
        d, sample = rays[hit], hit[0]
        # Scale by the reference constraint, l_1^2 + l_2^2 - 2 b12 l_1 l_2 = a12.
        scale = np.sqrt(a[sample, 2] / (d[:, 1] ** 2 + d[:, 2] ** 2 - 2 * b12[sample] * d[:, 1] * d[:, 2]))
        Y = (d * (np.sign(d.sum(axis=1)) * scale)[:, None])[:, :, None] * y[sample]
        # R maps the two differences and their cross product onto the camera's.
        Xs = X[sample]
        dX, dY = Xs[:, 1:] - Xs[:, :1], Y[:, 1:] - Y[:, :1]
        nX = _cross(dX[:, 0], dX[:, 1])
        Xinv = np.stack([_cross(dX[:, 1], nX), _cross(nX, dX[:, 0]), nX], axis=1) / _dot(nX, nX)[:, None, None]
        R = np.stack([dY[:, 0], dY[:, 1], _cross(dY[:, 0], dY[:, 1])], axis=2) @ Xinv
        keep = (Y[..., 2] > 0.0).all(axis=1) & np.isfinite(R).all(axis=(1, 2))  # positive depths
        sample, Xs, Y, xs = sample[keep], Xs[keep], Y[keep], x[sample[keep]]
        q = _matrix_quat(R[keep])
        t = Y[:, 0] - np.einsum("sij,sj->si", _quat_matrix(q), Xs[:, 0])
        for step in range(POLISH_STEPS + 1):  # Gauss-Newton on the six pixel equations
            R = _quat_matrix(q)
            pc = np.einsum("sij,snj->sni", R, Xs) + t[:, None]
            pix, J, front = project_many_with_jacobian(R[:, None], pc, Xs, f, c)
            r = pix - xs
            if step == POLISH_STEPS:
                break
            try:
                delta = np.linalg.solve(J.reshape(-1, 6, 6), -r.reshape(-1, 6, 1))[..., 0]
            except np.linalg.LinAlgError:  # an exactly singular system: keep the block unpolished
                break
            q, t = compose_many(q, t, *se3_exp_many(delta))
        exact = front.all(axis=1) & (np.linalg.norm(r, axis=2) < 1e-6).all(axis=1)
    return q[exact], t[exact], sample[exact]


# --- residuals and robust refinement -------------------------------------------


class _Observations(NamedTuple):
    """Correspondences with their view's pose and intrinsics gathered per point."""

    X: np.ndarray  # (n,3) points in the solve frame
    x: np.ndarray  # (n,2) observed pixels
    R: np.ndarray  # (n,3,3) and
    t: np.ndarray  # (n,3): T(cam<-global) of the observing view
    f: np.ndarray  # (n,2) focal lengths
    c: np.ndarray  # (n,2) principal points


def _observations(points, pixels, cam_idx, views: list[CameraView]) -> _Observations:
    cam_idx = np.asarray(cam_idx, dtype=int)
    poses = [v.T_cam_from_global for v in views]
    return _Observations(
        np.asarray(points, dtype=float).reshape(-1, 3),
        np.asarray(pixels, dtype=float).reshape(-1, 2),
        np.array([T.rotation.matrix for T in poses]).reshape(-1, 3, 3)[cam_idx],
        np.array([T.translation for T in poses]).reshape(-1, 3)[cam_idx],
        np.array([[v.K.fx, v.K.fy] for v in views]).reshape(-1, 2)[cam_idx],
        np.array([[v.K.cx, v.K.cy] for v in views]).reshape(-1, 2)[cam_idx],
    )


def _transform(R: np.ndarray, t: np.ndarray, P) -> list[np.ndarray]:
    """R P + t as three components, from P's three components; R (...,3,3) and t (...,3)
    broadcast against them. Elementwise, so that each entry is the same sum whatever the shapes."""
    return [R[..., k, 0] * P[0] + R[..., k, 1] * P[1] + R[..., k, 2] * P[2] + t[..., k] for k in range(3)]


def _errors(q: np.ndarray, t: np.ndarray, obs: _Observations) -> np.ndarray:
    """(H,n) pixel errors of H poses T(global<-solve), given as (H,4)
    quaternions and (H,3) translations; inf for points behind their camera."""
    pc = _transform(obs.R, obs.t, _transform(_quat_matrix(q)[:, None], t[:, None], obs.X.T))
    front = pc[2] > BEHIND_CAMERA_DEPTH
    z = np.where(front, pc[2], 1.0)
    du, dv = ((obs.f[:, k] * pc[k] / z + obs.c[:, k] - obs.x[:, k]) for k in (0, 1))
    return np.where(front, np.hypot(du, dv), np.inf)


def _arrays(T: Pose) -> tuple[np.ndarray, np.ndarray]:
    return T.rotation.wxyz[None], T.translation[None]


def reprojection_errors(
    T_global_from_solve: Pose, points: np.ndarray, pixels: np.ndarray, cam_idx: np.ndarray, views: list[CameraView]
) -> np.ndarray:
    """Pixel error per correspondence; inf for points behind their camera."""
    return _errors(*_arrays(T_global_from_solve), _observations(points, pixels, cam_idx, views))[0]


def refine_pose(
    T0: Pose, points: np.ndarray, pixels: np.ndarray, cam_idx: np.ndarray, views: list[CameraView],
    huber_px: float = 2.0, max_iters: int = 50, tol: float = 1e-6,
) -> Pose:
    """Robust Levenberg-Marquardt (seqloc.solver) on reprojection residuals,
    with the Huber kernel at huber_px on each residual's norm.

    Each trial projects all points once, with Jacobians, each through its own
    view: the cost (inf while a point is behind its camera) and the in-front
    rows' residuals, Jacobians and weights, which the normal equations sum.
    It stops at a relative decrease below tol, the noise floor: the median
    decrease of accepted steps 1 to 6 on seed-1 oracle_outliers (643 calls)
    was 4.6e-2, 7.3e-4, 3.2e-6, 2.6e-8, 5e-10 and 1.7e-11, so past step 3 the
    steps only polish rounding. The one rule serves LO, which only has to show
    whether the inlier count rises (Lebeda, Matas & Chum, BMVC 2012), and the
    final refinement. The normal equations keep the IRLS weights w J^T J:
    with the Huber kernel's second-order term, which pose-graph refinement
    adds, the cost evaluations of one seed-1 pass of perfbench's
    oracle_outliers, cluttered_mnn and long_sequence_pgo fell by only 2.4%,
    2.2% and 1.7%, against another step sequence and so other estimates.
    Returns the best iterate; warns when the iteration budget runs out
    before convergence.
    """
    obs = _observations(points, pixels, cam_idx, views)

    def evaluate(T: Pose) -> tuple[float, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        R = obs.R @ T.rotation.matrix  # R(cam<-solve) through each point's view
        pc = np.einsum("nij,nj->ni", R, obs.X) + obs.R @ T.translation + obs.t
        p, J, ok = project_many_with_jacobian(R, pc, obs.X, obs.f, obs.c)
        r = p[ok] - obs.x[ok]
        rho, w, _ = huber((r * r).sum(axis=1), huber_px**2)
        return (float(rho.sum()) if ok.all() else math.inf), (r, J[ok], w)

    def normal_equations(T: Pose, state) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        r, J, w = state
        H = np.einsum("n,nij,nik->jk", w, J, J)
        g = np.einsum("n,nij,ni->j", w, J, r)
        return H[None], np.empty((0, 6, 6)), g[None]  # one block

    T, _, report = levenberg_marquardt(T0, evaluate, normal_equations, boxplus, max_iters, tol)
    if not report.converged:
        log.warning("pose refinement hit the iteration budget before converging")
    return T


# --- LO-RANSAC -------------------------------------------------------------------

BLOCK = 8  # minimal samples in a block; the stop is checked per block
MAX_AHEAD = 32  # blocks solved and scored in one call at most, which bounds its (poses, points) errors
LO_ROUNDS = 3  # local optimizations in a row, each only after the inlier count rose


def _draw_triples(rng: np.random.Generator, pool: np.ndarray, size: int) -> np.ndarray:
    """(size,3) uniform draws of three distinct elements of pool."""
    i0, i1, i2 = rng.integers(0, [len(pool), len(pool) - 1, len(pool) - 2], size=(size, 3)).T
    i1 = i1 + (i1 >= i0)
    lo, hi = np.minimum(i0, i1), np.maximum(i0, i1)
    i2 = i2 + (i2 >= lo)
    i2 = i2 + (i2 >= hi)
    return pool[np.column_stack([i0, i1, i2])]


def lo_ransac_pnp(
    frame_id: str, points: np.ndarray, pixels: np.ndarray, cam_idx: np.ndarray, views: list[CameraView], *,
    thresh_px: float = 3.0, confidence: float = 0.9999, max_iters: int = 10000, min_inliers: int = 10,
    huber_px: float = 2.0, seed: int = 0,
) -> PoseEstimate:
    """LO-RANSAC over blocks of BLOCK P3P samples with nonlinear local optimization.

    Hypotheses come from the main camera, the view with the most
    correspondences. Fewer than 3 there end SKIPPED_NO_MATCHES; collinear ones
    (second singular value of the centred points at most COLLINEAR_TOL times the
    first) end REJECTED_DEGENERATE before any sample is drawn, since a line does
    not fix a pose. Either way the estimate has no pose and 0 iterations.
    Deterministic for a given seed. Models rank by inlier count, ties by lower
    inlier RMS, then by order in the block. Local optimization (refinement on
    the inlier set, after Lebeda, Matas & Chum, BMVC 2012) runs only when a
    block raises the best inlier count, and again while each round raises it,
    up to LO_ROUNDS rounds. The adaptive stop is checked after each block, so
    iterations round up to a whole block, but never past max_iters.
    Until a model bounds the search below max_iters, one block is drawn at a
    time; after that, every block the bound still asks for (up to MAX_AHEAD)
    is drawn, solved and scored in one call and then taken block by block.
    The Generator draws the same triples in one call as in several, and P3P
    (which returns its solutions in sample order) and the scorer work sample
    by sample, so the result is the same as with one call per block; only the
    draws past the stop are wasted. The one exception is an exactly singular
    polish system, which leaves p3p's whole call unpolished.
    Estimates with fewer than min_inliers are rejected.
    """
    obs = _observations(points, pixels, cam_idx, views)
    points, pixels, cam_idx, n = obs.X, obs.x, np.asarray(cam_idx, dtype=int), len(obs.X)
    counts = np.bincount(cam_idx, minlength=len(views))
    main_cam = int(np.argmax(counts)) if n else 0
    main_sel = np.flatnonzero(cam_idx == main_cam)
    if len(main_sel) < 3:
        return PoseEstimate(frame_id, None, 0, np.zeros(n, dtype=bool), PoseStatus.SKIPPED_NO_MATCHES)
    s = np.linalg.svd(points[main_sel] - points[main_sel].mean(axis=0), compute_uv=False)
    if s[1] <= COLLINEAR_TOL * s[0]:
        return PoseEstimate(frame_id, None, 0, np.zeros(n, dtype=bool), PoseStatus.REJECTED_DEGENERATE)
    K_main = views[main_cam].K
    q_gc, t_gc = _arrays(views[main_cam].T_cam_from_global.inverse())

    rng = np.random.default_rng(seed)
    best_pose, best_mask, best_count, best_rms = None, np.zeros(n, dtype=bool), 0, math.inf
    history, refined_from = [], None  # the counts adopted; the model the last refinement started from

    def consider(q: np.ndarray, t: np.ndarray, errs: np.ndarray) -> bool:
        """Adopt the best of the poses, with errors errs, if it beats the model; True if the count rose."""
        nonlocal best_pose, best_mask, best_count, best_rms
        mask = errs <= thresh_px
        count = mask.sum(axis=1)
        rms = np.sqrt((np.where(mask, errs, 0.0) ** 2).sum(axis=1) / np.maximum(count, 1))
        rms[count == 0] = math.inf
        k = np.lexsort((rms, -count))[0]  # stable: the first of equals
        if count[k] < best_count or (count[k] == best_count and not rms[k] < best_rms):
            return False
        rose = count[k] > best_count
        best_pose = Pose(Quaternion(*q[k].tolist()), t[k])
        best_mask, best_count, best_rms = mask[k], int(count[k]), float(rms[k])
        history.append(best_count)
        return rose

    def consider_refined() -> bool:
        nonlocal refined_from
        m, refined_from = best_mask, best_pose
        q, t = _arrays(refine_pose(best_pose, points[m], pixels[m], cam_idx[m], views, huber_px=huber_px))
        return consider(q, t, _errors(q, t, obs))

    def solve_blocks(size: int) -> list[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
        """Draw size samples; (samples, q, t, errors) of each block of BLOCK samples in turn."""
        triples = _draw_triples(rng, main_sel, size)
        q, t, sample = p3p(points[triples], pixels[triples], K_main)
        q, t = compose_many(np.repeat(q_gc, len(q), 0), np.repeat(t_gc, len(q), 0), q, t)
        starts = np.arange(0, size, BLOCK)
        cuts = np.searchsorted(sample, starts[1:])
        parts = (np.split(a, cuts) for a in (q, t, _errors(q, t, obs)))
        return list(zip(np.diff([*starts, size]).tolist(), *parts))

    needed, it, blocks = max_iters, 0, []
    while it < min(needed, max_iters):
        if not blocks:  # one block until a model bounds the search, then every block it still needs
            ahead = 1 if needed >= max_iters else min(math.ceil((needed - it) / BLOCK), MAX_AHEAD)
            blocks = solve_blocks(min(ahead * BLOCK, max_iters - it))
        size, q, t, errs = blocks.pop(0)
        it += size
        if len(q) and consider(q, t, errs):
            for _ in range(LO_ROUNDS):
                if best_count < 3 or not consider_refined():
                    break
        if best_count >= 3:
            w3 = (best_count / n) ** 3
            log_miss = math.log(max(1e-12, 1.0 - confidence))
            needed = it if w3 >= 1.0 else min(max_iters, math.ceil(log_miss / math.log(1.0 - w3)))

    if best_count >= 3 and best_pose is not refined_from:  # else it would repeat a rejected refinement
        consider_refined()

    status = PoseStatus.LOCALIZED if best_count >= min_inliers else PoseStatus.REJECTED_FEW_INLIERS
    return PoseEstimate(
        frame_id, best_pose, best_count, best_mask, status, iterations=it, inlier_history=history
    )
