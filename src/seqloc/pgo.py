"""Pose-graph refinement of a batch of localization estimates.

Nodes are the global poses T(r<-i) of all frames in the batch; consecutive
frames are linked by relative odometry constraints weighted by the sequence
covariance. Every factor carries a Huber kernel on its squared Mahalanobis
norm, quadratic up to HUBER_THRESHOLD and linear in the norm beyond it. The
node with the most PnP inliers is fixed to remove the gauge freedom.

Two modes ship. paper_literal uses only the relative chain: with a single
fixed node the exactly-determined optimum is dead reckoning from the anchor.
prior_augmented (default) additionally anchors every localized node to its
PnP estimate with an inlier-weighted prior of covariance
PRIOR_SIGMA_SCALE^2 * Sigma / inlier_count, so all localization evidence
shapes the result.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import Pose, adjoint, boxminus, boxplus, se3_right_jacobian_inv
from .pose_estimation import PoseEstimate, PoseStatus

# Huber transition point on the squared Mahalanobis norm: chi^2-style gate
# scaled to 6 DoF.
HUBER_THRESHOLD = 12.59

# A PnP prior's standard deviation, in odometry sigmas, at one inlier.
PRIOR_SIGMA_SCALE = 10.0

COST_FLOOR = 1e-24


class PgoMode(str, enum.Enum):
    PAPER_LITERAL = "paper_literal"
    PRIOR_AUGMENTED = "prior_augmented"


class GraphBuildError(ValueError):
    pass


@dataclass
class OdometryEdge:
    """Relative constraint between node i and node i+1."""

    i: int
    measurement: Pose  # (Tq_{i+1})^-1 * Tq_i
    information: np.ndarray  # 6x6


@dataclass
class PriorFactor:
    node: int
    target: Pose
    information: np.ndarray


@dataclass
class PoseGraph:
    nodes: list[Pose]
    frame_ids: list[str]
    fixed: int
    edges: list[OdometryEdge]
    priors: list[PriorFactor]


@dataclass
class PgoReport:
    iterations: int
    initial_cost: float
    final_cost: float
    converged: bool
    edge_weights: list[float] = field(default_factory=list)
    prior_weights: list[float] = field(default_factory=list)


def residual(measurement: Pose, T_a: Pose, T_b: Pose) -> np.ndarray:
    """e = (T_b^-1 T_a) boxminus measurement, for the edge between a=i, b=i+1."""
    return boxminus(T_b.inverse().compose(T_a), measurement)


def residual_with_jacobians(measurement: Pose, T_a: Pose, T_b: Pose):
    """Residual plus its 6x6 Jacobians w.r.t. right perturbations of both nodes."""
    X = T_b.inverse().compose(T_a)
    e = boxminus(X, measurement)
    Jinv = se3_right_jacobian_inv(e)
    J_a = Jinv
    J_b = -Jinv @ adjoint(X.inverse())
    return e, J_a, J_b


def build_graph(
    estimates: list[PoseEstimate],
    odometry: list[Pose],
    covariance: np.ndarray,
    mode: PgoMode | str = PgoMode.PRIOR_AUGMENTED,
) -> PoseGraph:
    """Nodes for all N frames, odometry edges for every consecutive pair.

    Localized nodes start at their PnP estimate; the rest are propagated from
    the nearest localized node along odometry. The max-inlier node is fixed
    (ties: lowest index). prior_augmented adds one prior per localized node
    with covariance PRIOR_SIGMA_SCALE^2 * Sigma / inlier_count. Every factor
    gets the Huber kernel at HUBER_THRESHOLD; the mode is the only setting.
    """
    mode = PgoMode(mode)
    n = len(estimates)
    if n != len(odometry):
        raise GraphBuildError(f"{n} estimates vs {len(odometry)} odometry poses")
    localized = [i for i, e in enumerate(estimates) if e.status is PoseStatus.LOCALIZED]
    if not localized:
        raise GraphBuildError("no localized frames in batch")

    nodes: list[Pose] = []
    for i, est in enumerate(estimates):
        if est.status is PoseStatus.LOCALIZED:
            nodes.append(est.pose)
        else:
            near = min(localized, key=lambda l: (abs(l - i), l))
            anchor = estimates[near].pose
            nodes.append(anchor.compose(odometry[near].inverse().compose(odometry[i])))

    counts = np.array([e.inlier_count for e in estimates])
    fixed = int(np.argmax(counts))

    info = np.linalg.inv(covariance)
    info = 0.5 * (info + info.T)
    edges = [
        OdometryEdge(
            i=i,
            measurement=odometry[i + 1].inverse().compose(odometry[i]),
            information=info,
        )
        for i in range(n - 1)
    ]

    priors: list[PriorFactor] = []
    if mode is PgoMode.PRIOR_AUGMENTED:
        for i in localized:
            prior_info = info * (estimates[i].inlier_count / PRIOR_SIGMA_SCALE**2)
            priors.append(
                PriorFactor(node=i, target=estimates[i].pose, information=prior_info)
            )

    return PoseGraph(
        nodes=nodes,
        frame_ids=[e.frame_id for e in estimates],
        fixed=fixed,
        edges=edges,
        priors=priors,
    )


def _rho_and_weight(s: float) -> tuple[float, float]:
    """Huber cost and IRLS weight for one factor's squared Mahalanobis norm."""
    if s <= HUBER_THRESHOLD:
        return s, 1.0
    d = math.sqrt(HUBER_THRESHOLD)
    return 2.0 * d * math.sqrt(s) - HUBER_THRESHOLD, d / math.sqrt(s)


class _Factor(NamedTuple):
    """One factor linearized at the current nodes."""

    nodes: tuple[int, ...]  # (i, i + 1) for an odometry edge, (node,) for a prior
    e: np.ndarray
    J: tuple[np.ndarray, ...]  # one 6x6 block per node
    info: np.ndarray
    w: float  # Huber IRLS weight


def _evaluate(graph: PoseGraph, nodes: list[Pose]) -> tuple[float, list[_Factor]]:
    """Total robust cost and every factor at nodes: the edges, then the priors.

    Raises RotationSingularity (a ValueError) when a residual is undefined.
    """
    cost = 0.0
    factors = []
    for edge in graph.edges:
        a, b = edge.i, edge.i + 1
        e, Ja, Jb = residual_with_jacobians(edge.measurement, nodes[a], nodes[b])
        rho, w = _rho_and_weight(float(e @ edge.information @ e))
        cost += rho
        factors.append(_Factor((a, b), e, (Ja, Jb), edge.information, w))
    for prior in graph.priors:
        e = boxminus(nodes[prior.node], prior.target)
        rho, w = _rho_and_weight(float(e @ prior.information @ e))
        cost += rho
        factors.append(
            _Factor((prior.node,), e, (se3_right_jacobian_inv(e),), prior.information, w)
        )
    return cost, factors


def _normal_equations(
    factors: list[_Factor], slot: dict[int, int], dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted Gauss-Newton H and g over the free nodes' state slots."""
    H = np.zeros((dim, dim))
    g = np.zeros(dim)
    for f in factors:
        for node, J in zip(f.nodes, f.J):
            if node in slot:
                k = slot[node] * 6
                H[k : k + 6, k : k + 6] += f.w * J.T @ f.info @ J
                g[k : k + 6] += f.w * J.T @ f.info @ f.e
        if len(f.nodes) == 2 and all(node in slot for node in f.nodes):
            ka, kb = (slot[node] * 6 for node in f.nodes)
            blk = f.w * f.J[0].T @ f.info @ f.J[1]
            H[ka : ka + 6, kb : kb + 6] += blk
            H[kb : kb + 6, ka : ka + 6] += blk.T
    return H, g


def optimize(
    graph: PoseGraph, max_iters: int = 100, tol: float = 1e-9
) -> tuple[list[Pose], PgoReport]:
    """Levenberg-Marquardt over the free nodes' right perturbations.

    The fixed node is excluded from the state and returned bit-identical to
    its initialization. Accepted steps strictly decrease the robust cost.
    Each trial evaluates every factor once; the evaluation of an accepted
    step gives the next normal equations and, at the end, the weights.
    """
    nodes = list(graph.nodes)
    free = [i for i in range(len(nodes)) if i != graph.fixed]
    slot = {node: k for k, node in enumerate(free)}
    dim = 6 * len(free)

    cost, factors = _evaluate(graph, nodes)
    initial_cost = cost
    lam = 1e-4
    converged = False
    iterations = 0

    for _ in range(max_iters):
        if not free or cost < COST_FLOOR:
            converged = True
            break
        H, g = _normal_equations(factors, slot, dim)

        stepped = False
        for _ in range(12):
            try:
                delta = np.linalg.solve(
                    H + lam * np.diag(np.diag(H)) + 1e-15 * np.eye(dim), -g
                )
            except np.linalg.LinAlgError:
                lam *= 10.0
                if lam > 1e15:
                    break
                continue
            if not np.all(np.isfinite(delta)):
                lam *= 10.0
                continue
            candidate = list(nodes)
            for node_idx, k in slot.items():
                candidate[node_idx] = boxplus(nodes[node_idx], delta[6 * k : 6 * k + 6])
            try:
                new_cost, new_factors = _evaluate(graph, candidate)
            except ValueError:
                lam *= 10.0
                continue
            if new_cost < cost:
                rel = (cost - new_cost) / max(cost, 1e-300)
                nodes, cost, factors = candidate, new_cost, new_factors
                lam = max(lam * 0.1, 1e-12)
                stepped = True
                iterations += 1
                if rel < tol or cost < COST_FLOOR:
                    converged = True
                break
            lam *= 10.0
            if lam > 1e15:
                break
        if not stepped:
            # no descent step exists at machine precision: treat as converged
            converged = True
            break
        if converged:
            break

    n_edges = len(graph.edges)
    report = PgoReport(
        iterations=iterations,
        initial_cost=initial_cost,
        final_cost=cost,
        converged=converged,
        edge_weights=[f.w for f in factors[:n_edges]],
        prior_weights=[f.w for f in factors[n_edges:]],
    )
    return nodes, report
