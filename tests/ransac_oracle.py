"""LO-RANSAC with one P3P call per block of samples.

seqloc.pose_estimation.lo_ransac_pnp solves and scores every block the
adaptive stop still asks for in one call; the tests keep this block-by-block
loop as the reference it must reproduce bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from seqloc.geometry import Pose, Quaternion, compose_many
from seqloc.pose_estimation import (
    BLOCK,
    COLLINEAR_TOL,
    LO_ROUNDS,
    PoseEstimate,
    PoseStatus,
    _arrays,
    _draw_triples,
    _errors,
    _observations,
    p3p,
    refine_pose,
)


def lo_ransac_by_block(
    frame_id, points, pixels, cam_idx, views, *, thresh_px=3.0, confidence=0.9999, max_iters=10000,
    min_inliers=10, huber_px=2.0, seed=0,
) -> PoseEstimate:
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
    history, refined_from = [], None

    def consider(q, t) -> bool:
        nonlocal best_pose, best_mask, best_count, best_rms
        errs = _errors(q, t, obs)
        mask = errs <= thresh_px
        count = mask.sum(axis=1)
        rms = np.sqrt((np.where(mask, errs, 0.0) ** 2).sum(axis=1) / np.maximum(count, 1))
        rms[count == 0] = math.inf
        k = np.lexsort((rms, -count))[0]
        if count[k] < best_count or (count[k] == best_count and not rms[k] < best_rms):
            return False
        rose = count[k] > best_count
        best_pose = Pose(Quaternion(*q[k].tolist()), t[k])
        best_mask, best_count, best_rms = mask[k], int(count[k]), float(rms[k])
        history.append(best_count)
        return rose

    def refine_on_inliers() -> Pose:
        nonlocal refined_from
        m, refined_from = best_mask, best_pose
        return refine_pose(best_pose, points[m], pixels[m], cam_idx[m], views, huber_px=huber_px)

    needed, it = max_iters, 0
    while it < min(needed, max_iters):
        size = min(BLOCK, max_iters - it)
        it += size
        sample = _draw_triples(rng, main_sel, size)
        q, t, _ = p3p(points[sample], pixels[sample], K_main)
        if len(q) and consider(*compose_many(np.repeat(q_gc, len(q), 0), np.repeat(t_gc, len(q), 0), q, t)):
            for _ in range(LO_ROUNDS):
                if best_count < 3 or not consider(*_arrays(refine_on_inliers())):
                    break
        if best_count >= 3:
            w3 = (best_count / n) ** 3
            log_miss = math.log(max(1e-12, 1.0 - confidence))
            needed = it if w3 >= 1.0 else min(max_iters, math.ceil(log_miss / math.log(1.0 - w3)))

    if best_count >= 3 and best_pose is not refined_from:
        consider(*_arrays(refine_on_inliers()))

    status = PoseStatus.LOCALIZED if best_count >= min_inliers else PoseStatus.REJECTED_FEW_INLIERS
    return PoseEstimate(frame_id, best_pose, best_count, best_mask, status, iterations=it, inlier_history=history)
