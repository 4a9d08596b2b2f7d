"""Scalar SE(3) maps, projections and pose-graph factors, one Pose at a time.

The batched kernels of seqloc.geometry and the array evaluation of
seqloc.pgo replaced this code; the tests keep it as their reference: the
scalar Log (rotvec, so3_V_inv, se3_log, boxminus), Shepperd's
matrix-to-quaternion conversion, a pose applied to points, pinhole projection
with its Jacobian and the SE(3) Jacobians: the exact inverse right Jacobian
(Barfoot's closed form, its Q block's coefficients in mpmath) and the first
order I + ad/2 that pgo linearizes with. optimize here is pgo.optimize as it
was: per-factor Pose arithmetic, the Jacobian it is given (the exact one by
default) and one dense normal-equation solve, run by the same
Levenberg-Marquardt loop with the whole Hessian as a single block. It reads
the factors of the array graph that pgo.build_graph makes, one row at a time,
each inverted measurement turned back into a Pose.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import mpmath
import numpy as np

from seqloc.geometry import BEHIND_CAMERA_DEPTH, CameraIntrinsics, Pose, Quaternion, RotationSingularity
from seqloc.geometry import _skew, boxplus
from seqloc.pgo import HUBER_THRESHOLD, PgoReport, PoseGraph
from seqloc.solver import huber, levenberg_marquardt


def shepperd_quaternion(R) -> Quaternion:
    """Shepperd's method, max-trace branch for stability."""
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0.0:
        s = math.sqrt(t + 1.0) * 2.0
        w = 0.25 * s
        x = (R[2, 1] - R[1, 2]) / s
        y = (R[0, 2] - R[2, 0]) / s
        z = (R[1, 0] - R[0, 1]) / s
    elif R[0, 0] >= R[1, 1] and R[0, 0] >= R[2, 2]:
        s = math.sqrt(1.0 + R[0, 0] - R[1, 1] - R[2, 2]) * 2.0
        w = (R[2, 1] - R[1, 2]) / s
        x = 0.25 * s
        y = (R[0, 1] + R[1, 0]) / s
        z = (R[0, 2] + R[2, 0]) / s
    elif R[1, 1] >= R[2, 2]:
        s = math.sqrt(1.0 + R[1, 1] - R[0, 0] - R[2, 2]) * 2.0
        w = (R[0, 2] - R[2, 0]) / s
        x = (R[0, 1] + R[1, 0]) / s
        y = 0.25 * s
        z = (R[1, 2] + R[2, 1]) / s
    else:
        s = math.sqrt(1.0 + R[2, 2] - R[0, 0] - R[1, 1]) * 2.0
        w = (R[1, 0] - R[0, 1]) / s
        x = (R[0, 2] + R[2, 0]) / s
        y = (R[1, 2] + R[2, 1]) / s
        z = 0.25 * s
    return Quaternion(w, x, y, z)


def rotvec(q: Quaternion) -> np.ndarray:
    xyz = np.array([q.x, q.y, q.z])
    s = float(np.linalg.norm(xyz))
    w = abs(q.w)
    if s < 1e-9:
        # theta/s -> 2/w for small s; second-order term keeps 1e-12 accuracy.
        k = 2.0 / w * (1.0 - (s * s) / (3.0 * w * w))
    else:
        k = 2.0 * math.atan2(s, w) / s
    return k * xyz


def so3_V_inv(phi: np.ndarray) -> np.ndarray:
    theta = float(np.linalg.norm(phi))
    S = _skew(phi)
    if theta < 1e-6:
        return np.eye(3) - 0.5 * S + (S @ S) / 12.0
    # c = (1 - theta/(2 tan(theta/2))) / theta^2, stable over (0, pi).
    c = (1.0 - theta / (2.0 * math.tan(0.5 * theta))) / theta**2
    return np.eye(3) - 0.5 * S + c * (S @ S)


def se3_log(T: Pose) -> np.ndarray:
    """Log: Pose -> 6-vector [rho, phi]; requires rotation angle < pi."""
    phi = rotvec(T.rotation)
    rho = so3_V_inv(phi) @ T.translation
    return np.concatenate([rho, phi])


def boxminus(a: Pose, b: Pose) -> np.ndarray:
    """Local difference Log(b^-1 * a); boxplus(b, boxminus(a, b)) == a."""
    rel = b.inverse().compose(a)
    if rel.rotation.angle > math.pi - 1e-6:
        raise RotationSingularity(
            f"relative rotation {rel.rotation.angle:.6f} rad too close to pi"
        )
    return se3_log(rel)


def apply(T: Pose, point) -> np.ndarray:
    """A point in frame j -> the point in frame i, for T = Pose(i<-j)."""
    return T.rotation.rotate(point) + T.translation


def apply_many(T: Pose, points: np.ndarray) -> np.ndarray:
    """(N,3) points in frame j -> (N,3) points in frame i."""
    return points @ T.rotation.matrix.T + T.translation


def project(K: CameraIntrinsics, T_cam_from_world: Pose, point) -> np.ndarray | None:
    """Project a world point; None when at or behind the camera plane."""
    pc = apply(T_cam_from_world, point)
    if pc[2] <= BEHIND_CAMERA_DEPTH:
        return None
    return np.array([K.fx * pc[0] / pc[2] + K.cx, K.fy * pc[1] / pc[2] + K.cy])


def project_points(
    K: CameraIntrinsics, T_cam_from_world: Pose, points: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized projection of (N,3) points -> ((N,2) pixels, (N,) depths).

    Pixels of non-positive-depth points are filled with nan; check depths.
    """
    pc = apply_many(T_cam_from_world, np.asarray(points, dtype=float))
    z = pc[:, 2]
    valid = z > BEHIND_CAMERA_DEPTH
    pix = np.full((len(pc), 2), np.nan)
    zs = np.where(valid, z, 1.0)
    pix[:, 0] = np.where(valid, K.fx * pc[:, 0] / zs + K.cx, np.nan)
    pix[:, 1] = np.where(valid, K.fy * pc[:, 1] / zs + K.cy, np.nan)
    return pix, z


def project_with_jacobian(
    K: CameraIntrinsics, T_cam_from_world: Pose, point
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Pixel and its 2x6 Jacobian w.r.t. a right perturbation T*Exp(delta).

    Columns 0..2 are the translational tangent, 3..5 rotational.
    """
    X = np.asarray(point, dtype=float)
    R = T_cam_from_world.rotation.matrix
    pc = R @ X + T_cam_from_world.translation
    z = pc[2]
    if z <= BEHIND_CAMERA_DEPTH:
        return None, None
    pix = np.array([K.fx * pc[0] / z + K.cx, K.fy * pc[1] / z + K.cy])
    J_pi = np.array(
        [
            [K.fx / z, 0.0, -K.fx * pc[0] / z**2],
            [0.0, K.fy / z, -K.fy * pc[1] / z**2],
        ]
    )
    J = np.hstack([J_pi @ R, -J_pi @ R @ _skew(X)])
    return pix, J


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
    Jinv = so3_V_inv(phi)
    Q = se3_Q(rho, phi)
    out = np.zeros((6, 6))
    out[:3, :3] = Jinv
    out[3:, 3:] = Jinv
    out[:3, 3:] = -Jinv @ Q @ Jinv
    return out


def se3_right_jacobian_inv_first_order(tau) -> np.ndarray:
    """The inverse right Jacobian to first order, I + ad(tau)/2, with
    ad([rho, phi]) = [[phi^, rho^], [0, phi^]]."""
    tau = np.asarray(tau, dtype=float).reshape(6)
    ad = np.zeros((6, 6))
    ad[:3, :3] = ad[3:, 3:] = _skew(tau[3:])
    ad[:3, 3:] = _skew(tau[:3])
    return np.eye(6) + 0.5 * ad


def residual(measurement: Pose, T_a: Pose, T_b: Pose) -> np.ndarray:
    """e = (T_b^-1 T_a) boxminus measurement, for the edge between a=i, b=i+1."""
    return boxminus(T_b.inverse().compose(T_a), measurement)


def residual_with_jacobians(measurement: Pose, T_a: Pose, T_b: Pose, jr_inv=se3_right_jacobian_inv):
    """Residual plus its 6x6 Jacobians w.r.t. right perturbations of both
    nodes, with jr_inv as the inverse right Jacobian."""
    X = T_b.inverse().compose(T_a)
    e = boxminus(X, measurement)
    Jinv = jr_inv(e)
    J_a = Jinv
    J_b = -Jinv @ adjoint(X.inverse())
    return e, J_a, J_b


class Factor(NamedTuple):
    """One factor linearized at the current nodes."""

    nodes: tuple[int, ...]  # (i, i + 1) for an odometry edge, (node,) for a prior
    e: np.ndarray
    J: tuple[np.ndarray, ...]  # one 6x6 block per node
    info: np.ndarray


def evaluate(
    graph: PoseGraph, nodes: list[Pose], jr_inv=se3_right_jacobian_inv
) -> tuple[float, tuple[list[Factor], np.ndarray]]:
    """Total robust cost at nodes, and every factor (the edges, then the priors)
    with its Huber IRLS weight, linearized with jr_inv as the inverse right
    Jacobian. Raises RotationSingularity (a ValueError) when a residual is
    undefined.
    """
    factors = []
    zq, zt = graph.z_inv
    for k, (a, b) in enumerate(zip(graph.a.tolist(), graph.b.tolist())):
        z = Pose(Quaternion(*zq[k].tolist()), zt[k]).inverse()
        if k < graph.n_edges:
            e, Ja, Jb = residual_with_jacobians(z, nodes[a], nodes[b], jr_inv)
            factors.append(Factor((a, b), e, (Ja, Jb), graph.info[k]))
        else:
            e = boxminus(nodes[a], z)
            factors.append(Factor((a,), e, (jr_inv(e),), graph.info[k]))
    rho, w, _ = huber([float(f.e @ f.info @ f.e) for f in factors], HUBER_THRESHOLD)
    # Python's sum, unlike np.sum, adds in factor order.
    return float(sum(rho)), (factors, w)


def normal_equations(
    factors: list[Factor], weights: np.ndarray, slot: dict[int, int], dim: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dense Newton-weighted Gauss-Newton H and g over the free nodes' state
    slots. Each factor's information enters H as w info, plus, above the Huber
    threshold, the kernel's second-order term -w (info e)(info e)^T / s with
    s = e^T info e: half the Hessian of rho(s) in e is rho'(s) info +
    2 rho''(s) (info e)(info e)^T, and rho'' = -rho' / (2 s) there."""
    H = np.zeros((dim, dim))
    g = np.zeros(dim)
    for f, w in zip(factors, weights):
        v = f.info @ f.e
        s = float(f.e @ v)
        W = w * f.info
        if s > HUBER_THRESHOLD:
            W = W - w / s * np.outer(v, v)
        for node, J in zip(f.nodes, f.J):
            if node in slot:
                k = slot[node] * 6
                H[k : k + 6, k : k + 6] += J.T @ W @ J
                g[k : k + 6] += w * J.T @ f.info @ f.e
        if len(f.nodes) == 2 and all(node in slot for node in f.nodes):
            ka, kb = (slot[node] * 6 for node in f.nodes)
            blk = f.J[0].T @ W @ f.J[1]
            H[ka : ka + 6, kb : kb + 6] += blk
            H[kb : kb + 6, ka : ka + 6] += blk.T
    return H, g


def free_slots(graph: PoseGraph) -> dict[int, int]:
    """Free node -> its 6-row slot in the state, in node order."""
    free = [i for i in range(len(graph.nodes)) if i != graph.fixed]
    return {node: k for k, node in enumerate(free)}


def optimize(
    graph: PoseGraph, max_iters: int = 100, tol: float = 1e-9, jr_inv=se3_right_jacobian_inv
) -> tuple[list[Pose], PgoReport]:
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
        list(graph.nodes), lambda nodes: evaluate(graph, nodes, jr_inv), dense_blocks, retract, max_iters, tol
    )
    m = graph.n_edges
    return nodes, PgoReport(*rep, w[:m].tolist(), w[m:].tolist())
