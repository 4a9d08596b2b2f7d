"""Checks of one pass's outputs against the generator's truth and the method's properties.

Nothing here compares against a saved copy of earlier output: every expectation
comes from truth.npz or from a property the method guarantees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from chain import Context, PassResult, Workload
from scene import CLUTTER, INTRINSICS, ODO_SIGMA_R_DEG, ODO_SIGMA_T_M, PIXEL_SIGMA, Truth
from seqloc.matching import MatcherKind
from seqloc.pose_estimation import PoseStatus

# A frame fails when it ends with no pose or outside the coarse bin of the
# usual (0.25 m, 2 deg) / (0.5 m, 5 deg) / (5 m, 10 deg) recall thresholds.
GATE_T_M = 0.5
GATE_R_DEG = 5.0
# The oracle matcher moves a rewired match at least this far from its true pixel.
REWIRE_MIN_PX = 12.0
# A reference is covisible with a query frame when they share this many points.
COVISIBLE_MIN_POINTS = 6
# A correctly matched lifted point must lie within LIFT_TOL_SIGMA expected
# errors (`lift_sigma`) of the true point, and the median of the signed depth
# errors, each over its expected error, must stay within LIFT_BIAS_SIGMA of 0.
LIFT_TOL_SIGMA = 6.0
LIFT_BIAS_SIGMA = 0.5
MNN_PRECISION_FLOOR = 0.95


def lift_sigma(depth: float, baseline: float, steps: int) -> float:
    """Expected error (1 sigma, m) of a point triangulated from two query frames.

    Two-view depth error grows as depth^2 / baseline times the bearing error:
    the keypoint noise of both views and the odometry's rotation drift over the
    `steps` between them. The odometry's translation drift scales the baseline,
    so it adds depth / baseline times that drift. Drift counts all three axes.
    """
    drift = math.sqrt(3.0 * steps)
    bearing = math.hypot(math.sqrt(2.0) * PIXEL_SIGMA / INTRINSICS.fx, math.radians(ODO_SIGMA_R_DEG) * drift)
    return math.hypot(depth * depth * bearing, depth * ODO_SIGMA_T_M * drift) / baseline


def pose_error(T_est: np.ndarray, T_true: np.ndarray) -> tuple[float, float]:
    """(translation error in cm, rotation error in deg) between two 4x4 poses."""
    t = float(np.linalg.norm(T_est[:3, 3] - T_true[:3, 3])) * 100.0
    c = (np.trace(T_est[:3, :3].T @ T_true[:3, :3]) - 1.0) / 2.0
    return t, math.degrees(math.acos(min(1.0, max(-1.0, c))))


@dataclass
class Audit:
    problems: list[str] = field(default_factory=list)
    failed: int = 0  # query frames with no pose or outside the gate
    final_err: list[tuple[float, float]] = field(default_factory=list)
    pnp_err: list[tuple[float, float]] = field(default_factory=list)
    pairs: int = 0
    matches: int = 0
    true_matches: int = 0
    retrieval_hits: int = 0
    point_err_cm: list[float] = field(default_factory=list)
    lift_bias: list[float] = field(default_factory=list)  # signed depth error / lift_sigma


def _true_pair_mask(truth: Truth, ms) -> np.ndarray:
    ia = truth.ids[ms.frame_a][ms.idx_a]
    return (ia != CLUTTER) & (ia == truth.ids[ms.frame_b][ms.idx_b])


def audit(truth: Truth, ctx: Context, res: PassResult, a: Audit) -> None:
    """Check one pass over one scene, adding its counts and problems to `a`."""
    order = {fid: k for k, fid in enumerate(truth.query_poses)}
    for fid, T_true in truth.query_poses.items():
        pose = res.final_poses.get(fid)
        if pose is None:
            a.failed += 1
            continue
        t, r = pose_error(pose.matrix, T_true)
        a.final_err.append((t, r))
        if t > GATE_T_M * 100.0 or r > GATE_R_DEG:
            a.failed += 1

    for rec in res.frames:
        q_ids = truth.ids[rec.frame_id]
        real = set(q_ids[q_ids != CLUTTER].tolist())
        if any(len(real.intersection(truth.ids[c].tolist())) >= COVISIBLE_MIN_POINTS for c in rec.candidates):
            a.retrieval_hits += 1
        est = rec.estimate
        if est.status is PoseStatus.LOCALIZED:
            a.pnp_err.append(pose_error(est.pose.matrix, truth.query_poses[rec.frame_id]))
        if rec.nb_matches is None:
            continue
        for ms in [rec.nb_matches, *rec.ref_matches]:
            a.pairs += 1
            a.matches += len(ms)
            a.true_matches += int(_true_pair_mask(truth, ms).sum())

        # Lifted points against the true points mapped into the odometry frame.
        nb_true = dict(zip(rec.nb_matches.idx_a.tolist(), _true_pair_mask(truth, rec.nb_matches).tolist()))
        T_ow = truth.odo_from_world(rec.frame_id)
        center = truth.odometry_poses[rec.frame_id][:3, 3]
        nb = rec.nb_matches.frame_b
        baseline = float(np.linalg.norm(truth.query_poses[nb][:3, 3] - truth.query_poses[rec.frame_id][:3, 3]))
        steps = abs(order[nb] - order[rec.frame_id])
        true_lifted = set()
        for lp in rec.lifted:
            if not nb_true[lp.kp_idx]:
                continue
            true_lifted.add(lp.kp_idx)
            X = T_ow[:3, :3] @ truth.world_points[q_ids[lp.kp_idx]] + T_ow[:3, 3]
            depth = float(np.linalg.norm(X - center))
            sigma = lift_sigma(depth, baseline, steps)
            err = float(np.linalg.norm(lp.point - X))
            a.point_err_cm.append(err * 100.0)
            a.lift_bias.append(float((lp.point - X) @ (X - center)) / depth / sigma)
            if err > LIFT_TOL_SIGMA * sigma:
                a.problems.append(
                    f"{rec.frame_id}: lifted point of keypoint {lp.kp_idx} is {err:.3f} m off, {err / sigma:.1f} sigma"
                )

        # No reference pixel rewired away from a correctly lifted point may be a RANSAC inlier.
        for k, c in enumerate(rec.corrs):
            if not est.inlier_mask[k] or c.query_kp_idx not in true_lifted:
                continue
            r_ids = truth.ids[c.ref_frame_id]
            at = np.flatnonzero(r_ids == q_ids[c.query_kp_idx])
            ref = ctx.ref_by_id[c.ref_frame_id].keypoints
            miss = math.inf if not len(at) else float(np.linalg.norm(c.ref_pixel - ref[at[0]]))
            if miss >= REWIRE_MIN_PX:
                a.problems.append(
                    f"{rec.frame_id}: inlier pixel in {c.ref_frame_id} is {miss:.1f} px from its true pixel"
                )

    for g in res.graphs:
        if g.report is None:
            continue
        if not g.report.final_cost <= g.report.initial_cost:
            a.problems.append(f"pgo over {g.frame_ids[0]}..: cost rose {g.report.initial_cost} -> {g.report.final_cost}")
        if not np.array_equal(g.nodes[g.fixed].as_array7(), g.initial_fixed):
            a.problems.append(f"pgo over {g.frame_ids[0]}..: fixed node {g.frame_ids[g.fixed]} moved")


def check_totals(w: Workload, a: Audit) -> None:
    """Checks over all scenes of a round, once every pass has been audited."""
    bias = float(np.median(a.lift_bias)) if a.lift_bias else 0.0
    if abs(bias) > LIFT_BIAS_SIGMA:
        a.problems.append(f"lifted points are biased in depth: median {bias:+.2f} sigma")
    if w.matcher is MatcherKind.DESCRIPTOR_MNN and a.true_matches < MNN_PRECISION_FLOOR * a.matches:
        a.problems.append(f"MNN precision {a.true_matches}/{a.matches} below {MNN_PRECISION_FLOOR}")


def same_poses(first: dict, other: dict) -> bool:
    """Bit-identical final poses (frame id -> Pose) in two passes over the same inputs."""
    return first.keys() == other.keys() and all(
        np.array_equal(p.as_array7(), other[k].as_array7()) for k, p in first.items()
    )


def same_estimates(records, others) -> bool:
    """Bit-identical pose estimates and inlier sets for the same frames."""

    def key(rec):
        est = rec.estimate
        return rec.frame_id, None if est.pose is None else est.pose.as_array7().tobytes(), est.inlier_mask.tobytes()

    return [key(r) for r in records] == [key(r) for r in others[: len(records)]]
