"""Robust least squares: one Huber kernel, one Levenberg-Marquardt loop and its one
block-tridiagonal linear solve for all problems."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

COST_FLOOR = 1e-24  # a cost below this is solved
MAX_TRIALS = 8  # damping increases per iteration before no descent is declared


class LMReport(NamedTuple):
    iterations: int  # accepted steps
    initial_cost: float
    final_cost: float
    converged: bool


def huber(s, threshold: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Huber cost rho of squared norms s and its first two derivatives in s:
    rho = s up to threshold, then 2 sqrt(threshold s) - threshold; the IRLS
    weight rho' = sqrt(threshold / s) (1 below the threshold); and
    rho'' = -rho' / (2 s) above the threshold, 0 below it.

    A factor with residual e and information L has s = e^T L e; half the
    Hessian of rho(s) in e is rho' L + 2 rho'' (L e)(L e)^T, the Newton
    weighting of Triggs et al., "Bundle Adjustment - A Modern Synthesis", 4.3.
    """
    s = np.asarray(s, dtype=float)
    d = np.sqrt(threshold)
    root = np.sqrt(np.maximum(s, threshold))
    w = d / root
    rho = np.where(s <= threshold, s, 2.0 * d * root - threshold)
    return rho, w, np.where(s <= threshold, 0.0, -0.5 * w / np.maximum(s, threshold))


def solve_block_tridiagonal(D: np.ndarray, C: np.ndarray, r: np.ndarray) -> np.ndarray:
    """x with A x = r for the symmetric block-tridiagonal A whose diagonal blocks
    are D (n,b,b) and whose blocks above the diagonal are C (n-1,b,b):
    A[k, k+1] = C[k] and A[k+1, k] = C[k]^T. r and x are (n,b).

    Odd-even block cyclic reduction (Heller, SIAM J. Numer. Anal. 1976): each
    level eliminates the odd-indexed unknowns with one batched solve of their
    diagonal blocks, which leaves a block-tridiagonal system over the even
    ones, half as long. O(n b^3) work as in block elimination, but in about
    log2(n) levels of batched numpy calls instead of a Python loop over the
    blocks; a single block is one np.linalg.solve. Raises ValueError on a
    non-finite input, np.linalg.LinAlgError (a ValueError) on a singular
    pivot block.
    """
    if not np.isfinite(np.concatenate([D.ravel(), C.ravel(), r.ravel()])).all():
        raise ValueError("non-finite block")
    n, b = r.shape
    if n == 0:
        return np.empty_like(r)
    if n == 1:  # refine_pose's one 6x6 block
        return np.linalg.solve(D[0], r[0])[None]
    # Uncoupled identity blocks with zero right-hand sides, I x = 0, up to a
    # power of two of blocks, and a zero coupling after the last.
    pad = (1 << (n - 1).bit_length()) - n
    D = np.concatenate([D, np.broadcast_to(np.eye(b), (pad, b, b))])
    C = np.concatenate([C, np.zeros((pad + 1, b, b))])
    r = np.concatenate([r, np.zeros((pad, b))])
    return _cyclic_reduction(D, C, r)[:n]


def _cyclic_reduction(D: np.ndarray, C: np.ndarray, r: np.ndarray) -> np.ndarray:
    """solve_block_tridiagonal for a power of two of blocks, with C (n,b,b) and C[n-1] = 0."""
    b = D.shape[1]
    if len(D) == 1:
        return np.linalg.solve(D[0], r[0])[None]
    C_in, C_out = C[0::2], C[1::2]  # C[j - 1] and C[j] of odd j
    # Odd row j: x[j] = u[j] - L[j] x[j-1] - R[j] x[j+1], with
    # Z[j] = [L | R | u][j] = D[j]^-1 [C[j-1]^T | C[j] | r[j]].
    Z = np.linalg.solve(D[1::2], np.concatenate([C_in.transpose(0, 2, 1), C_out, r[1::2, :, None]], axis=2))
    # Even row i takes in x[i+1] through C[i] and, for i > 0, x[i-1] through
    # C[i-1]^T; rows i and i + 2 then couple through -C[i] R[i+1], the last
    # such coupling 0, as R[-1] is.
    ahead = C_in @ Z
    behind = C_out[:-1].transpose(0, 2, 1) @ Z[:-1, :, b:]
    D_even = D[0::2] - ahead[..., :b]
    D_even[1:] -= behind[..., :b]
    r_even = r[0::2] - ahead[..., 2 * b]
    r_even[1:] -= behind[..., b]
    x = np.zeros((len(D) + 1, b))  # x[n] = 0 stands for the unknown past the last
    x[0:-1:2] = _cyclic_reduction(D_even, -ahead[..., b : 2 * b], r_even)
    x[1::2] = Z[..., 2 * b] - (Z[..., : 2 * b] @ np.concatenate([x[0:-1:2], x[2::2]], axis=1)[..., None])[..., 0]
    return x[:-1]


def levenberg_marquardt(x, evaluate, normal_equations, retract, max_iters: int, tol: float):
    """Minimize evaluate(x) -> (cost, state); returns (x, state, LMReport).

    normal_equations(x, state) gives the Gauss-Newton system H delta = -g as
    the blocks (D, C, g) of solve_block_tridiagonal, one block for a dense H;
    retract(x, delta) gives the stepped x for the (n,b) step delta. The
    damping adds lam times each diagonal block's own diagonal, plus 1e-15.
    A step is accepted only if it lowers the cost; a non-finite step or a
    ValueError rejects it too. Each rejection grows the damping tenfold.
    Converged: relative decrease below tol, cost below COST_FLOOR, or no descent.
    """
    cost, state = evaluate(x)
    initial_cost, lam, iterations, converged = cost, 1e-4, 0, cost < COST_FLOOR
    while not converged and iterations < max_iters:  # each pass steps or converges
        D, C, g = normal_equations(x, state)
        eye = np.eye(D.shape[-1])
        diag = np.einsum("kii,ij->kij", D, eye)  # np.diag(np.diag(block)) per block
        for _ in range(MAX_TRIALS):
            try:  # np.linalg.LinAlgError is a ValueError
                delta = solve_block_tridiagonal(D + lam * diag + 1e-15 * eye, C, -g)
                if not np.isfinite(delta).all():
                    raise ValueError("non-finite step")
                new_x = retract(x, delta)
                new_cost, new_state = evaluate(new_x)
            except ValueError:
                lam *= 10.0
                continue
            if new_cost < cost:
                rel = (cost - new_cost) / max(cost, 1e-300)
                x, cost, state, lam = new_x, new_cost, new_state, max(lam * 0.1, 1e-12)
                iterations += 1
                converged = rel < tol or cost < COST_FLOOR
                break
            lam *= 10.0
        else:
            converged = True  # no descent step at machine precision: a local optimum
    return x, state, LMReport(iterations, initial_cost, cost, converged)
