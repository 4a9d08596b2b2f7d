"""Robust least squares: one Huber kernel and one Levenberg-Marquardt loop for all problems."""

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


def levenberg_marquardt(x, evaluate, normal_equations, retract, max_iters: int, tol: float):
    """Minimize evaluate(x) -> (cost, state); returns (x, state, LMReport).

    normal_equations(x, state) gives H and g, retract(x, delta) the stepped x.
    A step is accepted only if it lowers the cost; a non-finite step or a
    ValueError rejects it too. Each rejection grows the damping tenfold.
    Converged: relative decrease below tol, cost below COST_FLOOR, or no descent.
    """
    cost, state = evaluate(x)
    initial_cost, lam, iterations, converged = cost, 1e-4, 0, cost < COST_FLOOR
    while not converged and iterations < max_iters:  # each pass steps or converges
        H, g = normal_equations(x, state)
        for _ in range(MAX_TRIALS):
            try:  # np.linalg.LinAlgError is a ValueError
                delta = np.linalg.solve(H + lam * np.diag(np.diag(H)) + 1e-15 * np.eye(len(g)), -g)
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
