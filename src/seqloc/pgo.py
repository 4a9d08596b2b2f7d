"""Pose-graph refinement of a batch of localization estimates.

Nodes are the global poses T(r<-i) of all frames in the batch; consecutive
frames are linked by relative odometry constraints weighted by the sequence
covariance. Every factor carries a Huber kernel on its squared Mahalanobis
norm, quadratic up to HUBER_THRESHOLD and linear in the norm beyond it. The
node with the most PnP inliers is fixed to remove the gauge freedom. The
kernel and the Levenberg-Marquardt loop are seqloc.solver's; this module
supplies the factors' linearization and the retraction of the free nodes.

Two modes ship. paper_literal uses only the relative chain: with a single
fixed node the exactly-determined optimum is dead reckoning from the anchor.
prior_augmented (default) additionally anchors every localized node to its
PnP estimate with an inlier-weighted prior of covariance
PRIOR_SIGMA_SCALE^2 * Sigma / inlier_count, so all localization evidence
shapes the result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import Pose, adjoint, boxminus, boxplus, se3_right_jacobian_inv
from .pose_estimation import PoseEstimate, PoseStatus
from .solver import huber, levenberg_marquardt

# Huber transition point on the squared Mahalanobis norm: chi^2-style gate
# scaled to 6 DoF.
HUBER_THRESHOLD = 12.59

# A PnP prior's standard deviation, in odometry sigmas, at one inlier.
PRIOR_SIGMA_SCALE = 10.0


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


class _Factor(NamedTuple):
    """One factor linearized at the current nodes."""

    nodes: tuple[int, ...]  # (i, i + 1) for an odometry edge, (node,) for a prior
    e: np.ndarray
    J: tuple[np.ndarray, ...]  # one 6x6 block per node
    info: np.ndarray


def _evaluate(
    graph: PoseGraph, nodes: list[Pose]
) -> tuple[float, tuple[list[_Factor], np.ndarray]]:
    """Total robust cost at nodes, and every factor (the edges, then the priors)
    with its Huber IRLS weight. Raises RotationSingularity (a ValueError) when
    a residual is undefined.
    """
    factors = []
    for edge in graph.edges:
        a, b = edge.i, edge.i + 1
        e, Ja, Jb = residual_with_jacobians(edge.measurement, nodes[a], nodes[b])
        factors.append(_Factor((a, b), e, (Ja, Jb), edge.information))
    for prior in graph.priors:
        e = boxminus(nodes[prior.node], prior.target)
        factors.append(
            _Factor((prior.node,), e, (se3_right_jacobian_inv(e),), prior.information)
        )
    rho, w = huber([float(f.e @ f.info @ f.e) for f in factors], HUBER_THRESHOLD)
    # Python's sum, unlike np.sum, adds in factor order.
    return float(sum(rho)), (factors, w)


def _normal_equations(
    factors: list[_Factor], weights: np.ndarray, slot: dict[int, int], dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted Gauss-Newton H and g over the free nodes' state slots."""
    H = np.zeros((dim, dim))
    g = np.zeros(dim)
    for f, w in zip(factors, weights):
        for node, J in zip(f.nodes, f.J):
            if node in slot:
                k = slot[node] * 6
                H[k : k + 6, k : k + 6] += w * J.T @ f.info @ J
                g[k : k + 6] += w * J.T @ f.info @ f.e
        if len(f.nodes) == 2 and all(node in slot for node in f.nodes):
            ka, kb = (slot[node] * 6 for node in f.nodes)
            blk = w * f.J[0].T @ f.info @ f.J[1]
            H[ka : ka + 6, kb : kb + 6] += blk
            H[kb : kb + 6, ka : ka + 6] += blk.T
    return H, g


def optimize(
    graph: PoseGraph, max_iters: int = 100, tol: float = 1e-9
) -> tuple[list[Pose], PgoReport]:
    """seqloc.solver's robust Levenberg-Marquardt over the free nodes' right
    perturbations, with its trial count and stopping rules.

    The fixed node is excluded from the state and returned bit-identical to
    its initialization. Accepted steps strictly decrease the robust cost.
    Each trial evaluates every factor once; the evaluation of an accepted
    step gives the next normal equations and, at the end, the weights.
    """
    free = [i for i in range(len(graph.nodes)) if i != graph.fixed]
    slot = {node: k for k, node in enumerate(free)}

    def retract(nodes: list[Pose], delta: np.ndarray) -> list[Pose]:
        out = list(nodes)
        for node, k in slot.items():
            out[node] = boxplus(nodes[node], delta[6 * k : 6 * k + 6])
        return out

    nodes, (_, w), rep = levenberg_marquardt(
        list(graph.nodes), lambda nodes: _evaluate(graph, nodes),
        lambda _, state: _normal_equations(*state, slot, 6 * len(free)), retract, max_iters, tol,
    )
    n_edges = len(graph.edges)
    return nodes, PgoReport(*rep, w[:n_edges].tolist(), w[n_edges:].tolist())
