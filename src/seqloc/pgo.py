"""Pose-graph refinement of a batch of localization estimates.

Nodes are the global poses T(r<-i) of all frames in the batch; consecutive
frames are linked by relative odometry constraints weighted by the sequence
covariance. Every factor carries a Huber kernel on its squared Mahalanobis
norm, quadratic up to HUBER_THRESHOLD and linear in the norm beyond it. The
node with the most PnP inliers is fixed to remove the gauge freedom. The
kernel, the Levenberg-Marquardt loop and its linear solve are
seqloc.solver's; this module supplies the factors' linearization and the
retraction of the free nodes.

Two modes ship. paper_literal uses only the relative chain: with a single
fixed node the exactly-determined optimum is dead reckoning from the anchor.
prior_augmented (default) additionally anchors every localized node to its
PnP estimate with an inlier-weighted prior of covariance
PRIOR_SIGMA_SCALE^2 * Sigma / inlier_count, so all localization evidence
shapes the result.

Array layout. A PoseGraph is the arrays that optimize reads; Pose objects
appear only at the boundary: the n nodes, and the fixed one, which comes back
as the very object it was given. The M factors, the odometry edges first,
then the priors, are node indices a and b, their measurements inverted as
(M,4) quaternions and (M,3) translations (z_inv), and (M,6,6) information
matrices. Inside optimize the nodes are (n+1,4) quaternions and (n+1,3)
translations whose last row is the identity. Factor k's residual is
e_k = Log(z_k^-1 T_b^-1 T_a), with a = i, b = i + 1 for edge i and b = n,
the identity, for a prior, whose residual is thus Log(target^-1 T_node). One
pass of seqloc.geometry's batched kernels gives the (M,6) residuals and their
(M,6,6) Jacobian blocks.

First order. J_a = I + ad(e_k)/2, the inverse right Jacobian of e_k to
O(|e|^2), and J_b = -J_a Ad((T_b^-1 T_a)^-1). They steer the steps while the
cost stays exact, so at residuals of about 1e-2 the optimum moves by O(|e|^3)
and the iteration counts are those of the exact Jacobian.

Newton weighting. With s_k = e_k^T info_k e_k, half the Hessian of rho(s_k)
in e_k is W_k = w_k info_k + 2 rho''(s_k) (info_k e_k)(info_k e_k)^T (Triggs
et al., "Bundle Adjustment - A Modern Synthesis", 2000, 4.3), and W_k takes
the place of info_k in the normal equations; the gradient keeps w_k info_k.
Below HUBER_THRESHOLD rho'' = 0 and W_k = info_k. Above it rho'' = -w_k / (2 s_k),
so W_k = w_k (info_k - info_k e_k e_k^T info_k / s_k), positive semidefinite
with no curvature along the residual, where the kernel is linear in the
norm. The IRLS weighting w_k info_k alone overstates that curvature, and
graphs whose priors lie deep in the Huber region crawl under it: over seeds
1-10 of perfbench's oracle_outliers, 200 ten-node graphs took 11847 LM
iterations and 32 stopped at the budget of 100; with W_k they took 2586 and
all converged, none at a higher cost.

O(N) solve. Node i meets only nodes i - 1 and i + 1, through its odometry
edges; a prior touches its node alone. The normal equations over the free
nodes are therefore block tridiagonal: (n-1,6,6) diagonal blocks and
(n-2,6,6) coupling blocks, with a zero block between the two free
neighbours of the fixed node. seqloc.solver solves the damped system by
odd-even cyclic reduction, O(n) work in about log2(n) levels of batched
6x6 solves, instead of one dense (6n-6)^2 solve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .geometry import (
    Pose,
    Quaternion,
    adjoint_many,
    compose_many,
    inverse_many,
    se3_exp_many,
    se3_log_many,
    se3_right_jacobian_inv_many,
)
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
class PoseGraph:
    """The nodes, and every factor as arrays: the odometry edges, then the priors."""

    nodes: list[Pose]
    frame_ids: list[str]
    fixed: int
    a: np.ndarray  # (M,) node indices
    b: np.ndarray  # (M,) i + 1 for edge i; n, the identity row, for a prior
    z_inv: tuple[np.ndarray, np.ndarray]  # (M,4), (M,3): measurements (targets for priors), inverted
    info: np.ndarray  # (M,6,6)
    n_edges: int


@dataclass
class PgoReport:
    iterations: int
    initial_cost: float
    final_cost: float
    converged: bool
    edge_weights: list[float] = field(default_factory=list)
    prior_weights: list[float] = field(default_factory=list)


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
    Raises GraphBuildError when the covariance is not a finite, invertible 6x6.
    """
    mode = PgoMode(mode)
    n = len(estimates)
    if n != len(odometry):
        raise GraphBuildError(f"{n} estimates vs {len(odometry)} odometry poses")
    localized = [i for i, e in enumerate(estimates) if e.status is PoseStatus.LOCALIZED]
    if not localized:
        raise GraphBuildError("no localized frames in batch")
    covariance = np.asarray(covariance, dtype=float)
    if covariance.shape != (6, 6) or not np.isfinite(covariance).all():
        raise GraphBuildError(f"odometry covariance of shape {covariance.shape} is not a finite 6x6")
    try:
        info = np.linalg.inv(covariance)
    except np.linalg.LinAlgError as exc:
        raise GraphBuildError(f"odometry covariance cannot be inverted: {exc}") from None
    if not np.isfinite(info).all():
        raise GraphBuildError("odometry covariance cannot be inverted: its inverse is not finite")
    info = 0.5 * (info + info.T)

    nodes: list[Pose] = []
    for i, est in enumerate(estimates):
        if est.status is PoseStatus.LOCALIZED:
            nodes.append(est.pose)
        else:
            near = min(localized, key=lambda l: (abs(l - i), l))
            anchor = estimates[near].pose
            nodes.append(anchor.compose(odometry[near].inverse().compose(odometry[i])))

    counts = np.array([e.inlier_count for e in estimates])
    priors = localized if mode is PgoMode.PRIOR_AUGMENTED else []
    z = [odometry[i + 1].inverse().compose(odometry[i]) for i in range(n - 1)]
    z += [estimates[i].pose for i in priors]
    prior_info = info * (counts[priors] / PRIOR_SIGMA_SCALE**2)[:, None, None]
    return PoseGraph(
        nodes=nodes,
        frame_ids=[e.frame_id for e in estimates],
        fixed=int(np.argmax(counts)),
        a=np.concatenate([np.arange(n - 1), priors]).astype(int),
        b=np.concatenate([np.arange(1, n), np.full(len(priors), n)]).astype(int),
        z_inv=inverse_many(*_pose_arrays(z)),
        info=np.concatenate([np.broadcast_to(info, (n - 1, 6, 6)), prior_info]),
        n_edges=n - 1,
    )


def _pose_arrays(poses: list[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """(N,4) quaternions and (N,3) translations of poses."""
    a = np.array([p.as_array7() for p in poses]).reshape(-1, 7)
    return a[:, :4], a[:, 4:]


def _node_arrays(nodes: list[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """The nodes' arrays plus the identity row that priors use as their node b."""
    return _pose_arrays([*nodes, Pose.identity()])


class _Linearization(NamedTuple):
    e: np.ndarray  # (M,6) residuals
    J_a: np.ndarray  # (M,6,6) w.r.t. a right perturbation of node a
    J_b: np.ndarray  # (n_edges,6,6) w.r.t. node b, odometry edges only
    w: np.ndarray  # (M,) Huber IRLS weights rho'
    w2: np.ndarray  # (M,) the kernel's second derivatives rho''


def _evaluate(graph: PoseGraph, q: np.ndarray, t: np.ndarray) -> tuple[float, _Linearization]:
    """Total robust cost at the node arrays, and every factor linearized there.
    Raises RotationSingularity (a ValueError) when a residual is undefined.
    """
    a, b, m = graph.a, graph.b, graph.n_edges
    X = compose_many(*inverse_many(q[b], t[b]), q[a], t[a])  # T_b^-1 T_a
    e = se3_log_many(*compose_many(*graph.z_inv, *X))
    J_a = se3_right_jacobian_inv_many(e)
    # A prior's node b is the identity row, which never moves: J_b for the edges only.
    J_b = -J_a[:m] @ adjoint_many(*inverse_many(X[0][:m], X[1][:m]))
    rho, w, w2 = huber(np.einsum("mi,mij,mj->m", e, graph.info, e), HUBER_THRESHOLD)
    return float(rho.sum()), _Linearization(e, J_a, J_b, w, w2)


def _normal_equations(
    graph: PoseGraph, lin: _Linearization, free: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Newton-weighted system over the free nodes, in the blocks of
    seqloc.solver.solve_block_tridiagonal: diagonal, coupling and gradient.
    Factor k enters with W = w info + 2 rho'' (info e)(info e)^T in place of
    its information, the gradient with w info."""
    n, m = len(graph.nodes), graph.n_edges
    v = np.einsum("mij,mj->mi", graph.info, lin.e)  # info e
    W = lin.w[:, None, None] * graph.info + 2.0 * lin.w2[:, None, None] * v[:, :, None] * v[:, None, :]
    JaW = lin.J_a.transpose(0, 2, 1) @ W
    JbW = lin.J_b.transpose(0, 2, 1) @ W[:m]
    wv = lin.w[:, None] * v
    D = np.zeros((n, 6, 6))
    g = np.zeros((n, 6))
    np.add.at(D, graph.a, JaW @ lin.J_a)
    np.add.at(D, graph.b[:m], JbW @ lin.J_b)
    np.add.at(g, graph.a, np.einsum("mji,mj->mi", lin.J_a, wv))
    np.add.at(g, graph.b[:m], np.einsum("mji,mj->mi", lin.J_b, wv[:m]))
    C = JaW[:m] @ lin.J_b  # edge i couples i and i + 1
    # Free neighbours in the chain keep their coupling; the two either side of
    # the fixed node have none.
    C = np.where((np.diff(free) == 1)[:, None, None], C[free[:-1]], 0.0)
    return D[free], C, g[free]


def optimize(
    graph: PoseGraph, max_iters: int = 100, tol: float = 1e-9
) -> tuple[list[Pose], PgoReport]:
    """seqloc.solver's robust Levenberg-Marquardt over the free nodes' right
    perturbations, with its trial count and stopping rules.

    The fixed node is excluded from the state and returned as the very Pose
    of the graph. Accepted steps strictly decrease the robust cost. Each
    trial evaluates every factor once; the evaluation of an accepted step
    gives the next normal equations and, at the end, the weights.
    """
    n = len(graph.nodes)
    free = np.delete(np.arange(n), graph.fixed)

    def retract(x, delta: np.ndarray):
        q, t = x[0].copy(), x[1].copy()
        q[free], t[free] = compose_many(q[free], t[free], *se3_exp_many(delta))
        return q, t

    (q, t), lin, rep = levenberg_marquardt(
        _node_arrays(graph.nodes), lambda x: _evaluate(graph, *x),
        lambda _, lin: _normal_equations(graph, lin, free), retract, max_iters, tol,
    )
    nodes = [Pose(Quaternion(*qi), ti) for qi, ti in zip(q[:n].tolist(), t[:n])]
    nodes[graph.fixed] = graph.nodes[graph.fixed]
    m = graph.n_edges
    return nodes, PgoReport(*rep, lin.w[:m].tolist(), lin.w[m:].tolist())
