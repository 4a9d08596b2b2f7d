"""Scalar SE(3) Jacobians and pose-graph factors, one Pose at a time.

The batched kernels of seqloc.geometry and the array evaluation of
seqloc.pgo replaced this code; the tests keep it as their reference. optimize
here is pgo.optimize as it was: per-factor Pose arithmetic and one dense
normal-equation solve, run by the same Levenberg-Marquardt loop with the
whole Hessian as a single block.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath
import numpy as np

from seqloc.geometry import Pose, _skew, _so3_V_inv, boxminus, boxplus
from seqloc.pgo import HUBER_THRESHOLD, PgoReport, PoseGraph
from seqloc.solver import huber, levenberg_marquardt


def adjoint(T: Pose) -> np.ndarray:
    """6x6 Ad(T) with Exp(Ad(T) tau) = T Exp(tau) T^-1, [rho, phi] ordering."""
    R = T.rotation.matrix
    A = np.zeros((6, 6))
    A[:3, :3] = R
    A[:3, 3:] = _skew(T.translation) @ R
    A[3:, 3:] = R
    return A


def q_coefficients(theta: float) -> tuple[float, float, float]:
    """c1 = (theta - sin)/theta^3, c2 = (1 - theta^2/2 - cos)/theta^4 and
    c3 = (theta - sin - theta^3/6)/theta^5: the closed forms (their limits at
    0) in mpmath, rounded to floats. c3 cancels to theta^4 relative, so the
    30 working digits grow by 5 per decade of theta below 1."""
    if theta == 0.0:
        return 1.0 / 6.0, -1.0 / 24.0, -1.0 / 120.0
    with mpmath.workdps(30 + max(0, int(-5 * math.log10(theta)))):
        t = mpmath.mpf(theta)
        s, c = mpmath.sin(t), mpmath.cos(t)
        return (
            float((t - s) / t**3),
            float((1 - t**2 / 2 - c) / t**4),
            float((t - s - t**3 / 6) / t**5),
        )


def se3_Q(rho: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Q block of the SE(3) left Jacobian (Barfoot's closed form)."""
    c1, c2, c3 = q_coefficients(float(np.linalg.norm(phi)))
    rx = _skew(rho)
    px = _skew(phi)
    Q = 0.5 * rx
    Q += c1 * (px @ rx + rx @ px + px @ rx @ px)
    Q -= c2 * (px @ px @ rx + rx @ px @ px - 3.0 * px @ rx @ px)
    Q -= 0.5 * (c2 - 3.0 * c3) * (px @ rx @ px @ px + px @ px @ rx @ px)
    return Q


def se3_right_jacobian_inv(tau) -> np.ndarray:
    """Inverse right Jacobian: d/d eps Log(Exp(tau) Exp(eps)) at eps=0 is its inverse.

    Built as the inverse left Jacobian at -tau (Barfoot's closed form).
    """
    tau = -np.asarray(tau, dtype=float).reshape(6)
    rho, phi = tau[:3], tau[3:]
    Jinv = _so3_V_inv(phi)
    Q = se3_Q(rho, phi)
    out = np.zeros((6, 6))
    out[:3, :3] = Jinv
    out[3:, 3:] = Jinv
    out[:3, 3:] = -Jinv @ Q @ Jinv
    return out


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


class Factor(NamedTuple):
    """One factor linearized at the current nodes."""

    nodes: tuple[int, ...]  # (i, i + 1) for an odometry edge, (node,) for a prior
    e: np.ndarray
    J: tuple[np.ndarray, ...]  # one 6x6 block per node
    info: np.ndarray


def evaluate(graph: PoseGraph, nodes: list[Pose]) -> tuple[float, tuple[list[Factor], np.ndarray]]:
    """Total robust cost at nodes, and every factor (the edges, then the priors)
    with its Huber IRLS weight. Raises RotationSingularity (a ValueError) when
    a residual is undefined.
    """
    factors = []
    for edge in graph.edges:
        a, b = edge.i, edge.i + 1
        e, Ja, Jb = residual_with_jacobians(edge.measurement, nodes[a], nodes[b])
        factors.append(Factor((a, b), e, (Ja, Jb), edge.information))
    for prior in graph.priors:
        e = boxminus(nodes[prior.node], prior.target)
        factors.append(Factor((prior.node,), e, (se3_right_jacobian_inv(e),), prior.information))
    rho, w = huber([float(f.e @ f.info @ f.e) for f in factors], HUBER_THRESHOLD)
    # Python's sum, unlike np.sum, adds in factor order.
    return float(sum(rho)), (factors, w)


def normal_equations(
    factors: list[Factor], weights: np.ndarray, slot: dict[int, int], dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense weighted Gauss-Newton H and g over the free nodes' state slots."""
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


def free_slots(graph: PoseGraph) -> dict[int, int]:
    """Free node -> its 6-row slot in the state, in node order."""
    free = [i for i in range(len(graph.nodes)) if i != graph.fixed]
    return {node: k for k, node in enumerate(free)}


def optimize(graph: PoseGraph, max_iters: int = 100, tol: float = 1e-9) -> tuple[list[Pose], PgoReport]:
    slot = free_slots(graph)
    dim = 6 * len(slot)

    def dense_blocks(_, state):
        H, g = normal_equations(*state, slot, dim)
        return H[None], np.empty((0, dim, dim)), g[None]

    def retract(nodes: list[Pose], delta: np.ndarray) -> list[Pose]:
        delta = delta.reshape(-1)
        out = list(nodes)
        for node, k in slot.items():
            out[node] = boxplus(nodes[node], delta[6 * k : 6 * k + 6])
        return out

    nodes, (_, w), rep = levenberg_marquardt(
        list(graph.nodes), lambda nodes: evaluate(graph, nodes), dense_blocks, retract, max_iters, tol
    )
    n_edges = len(graph.edges)
    return nodes, PgoReport(*rep, w[:n_edges].tolist(), w[n_edges:].tolist())
