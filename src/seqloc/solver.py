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


def huber(s, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Huber cost and IRLS weight of squared norms s: s up to threshold, then
    2 sqrt(threshold s) - threshold with weight sqrt(threshold / s)."""
    s = np.asarray(s, dtype=float)
    d = np.sqrt(threshold)
    root = np.sqrt(np.maximum(s, threshold))
    return np.where(s <= threshold, s, 2.0 * d * root - threshold), d / root


def solve_block_tridiagonal(D: np.ndarray, C: np.ndarray, r: np.ndarray) -> np.ndarray:
    """x with A x = r for the symmetric block-tridiagonal A whose diagonal blocks
    are D (n,b,b) and whose blocks above the diagonal are C (n-1,b,b):
    A[k, k+1] = C[k] and A[k+1, k] = C[k]^T. r and x are (n,b).

    Block LDL^T (Thomas) elimination: n solves of b x b blocks, O(n b^3)
    instead of a dense (n b)^3 solve; a single block is one np.linalg.solve.
    Raises ValueError on a non-finite input, np.linalg.LinAlgError (a
    ValueError) on a singular pivot block.
    """
    if not np.isfinite(np.concatenate([D.ravel(), C.ravel(), r.ravel()])).all():
        raise ValueError("non-finite block")
    G = np.empty_like(C)  # S[k]^-1 C[k], S the pivot blocks (Schur complements)
    x = np.empty_like(r)  # S[k]^-1 y[k] on the way down, the solution on the way up
    for k in range(len(D)):
        S, y = D[k], r[k]
        if k:
            S = S - C[k - 1].T @ G[k - 1]
            y = y - C[k - 1].T @ x[k - 1]
        if k < len(C):
            Z = np.linalg.solve(S, np.column_stack([C[k], y]))
            G[k], x[k] = Z[:, :-1], Z[:, -1]
        else:
            x[k] = np.linalg.solve(S, y)
    for k in range(len(C) - 1, -1, -1):
        x[k] -= G[k] @ x[k + 1]
    return x


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
