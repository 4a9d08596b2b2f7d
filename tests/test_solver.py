"""The shared Huber kernel against the per-problem formulas it replaced, and the
Levenberg-Marquardt loop on tiny problems whose every trial can be watched."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqloc.pgo import HUBER_THRESHOLD
from seqloc.solver import COST_FLOOR, MAX_TRIALS, huber, levenberg_marquardt, solve_block_tridiagonal

from helpers import block_tridiagonal_dense


def _huber_cost(e: np.ndarray, delta: float) -> float:
    """refine_pose's former cost: Huber at delta on the residual norms e, summed."""
    quad = e <= delta
    out = np.where(quad, e**2, 2.0 * delta * e - delta**2)
    return float(out.sum())


def _inline_weight(r: np.ndarray, huber_px: float) -> np.ndarray:
    """refine_pose's former IRLS weight of (N,2) pixel residuals."""
    e = np.linalg.norm(r, axis=1)
    return huber_px / np.maximum(e, huber_px)


def _rho_and_weight(s: float) -> tuple[float, float]:
    """pgo's former Huber cost and IRLS weight of one squared Mahalanobis norm."""
    if s <= HUBER_THRESHOLD:
        return s, 1.0
    d = math.sqrt(HUBER_THRESHOLD)
    return 2.0 * d * math.sqrt(s) - HUBER_THRESHOLD, d / math.sqrt(s)


def around(x: float) -> list[float]:
    """x and its floating-point neighbours."""
    return [np.nextafter(x, 0.0), x, np.nextafter(x, math.inf)]


class TestHuber:
    @pytest.mark.parametrize("delta", [2.0, 0.7, 3.3])
    def test_cost_matches_refine_pose_formula(self, rng, delta):
        e = np.concatenate([[0.0, 1e-160], around(delta), rng.uniform(0, 4 * delta, 300)])
        rho, _, _ = huber(e**2, delta**2)
        assert min(e) < delta < max(e)
        assert rho.tolist() == [_huber_cost(np.array([x]), delta) for x in e]
        assert float(rho.sum()) == _huber_cost(e, delta)

    @pytest.mark.parametrize("delta", [2.0, 0.7, 3.3])
    def test_weight_matches_refine_pose_formula(self, rng, delta):
        angle = rng.uniform(0, 2 * math.pi, 300)
        norm = rng.uniform(0, 4 * delta, 300)
        r = np.column_stack([norm * np.cos(angle), norm * np.sin(angle)])
        r[0] = 0.0
        r[1:4] = np.column_stack([around(delta), np.zeros(3)])  # norms at and next to delta
        _, w, _ = huber((r * r).sum(axis=1), delta**2)
        assert (w == _inline_weight(r, delta)).all()
        assert w.min() < 1.0 == w.max()

    def test_matches_pgo_formula(self, rng):
        s = [0.0, *around(HUBER_THRESHOLD), *rng.uniform(0, 10 * HUBER_THRESHOLD, 300)]
        rho, w, _ = huber(s, HUBER_THRESHOLD)
        want = [_rho_and_weight(x) for x in s]
        assert rho.tolist() == [c for c, _ in want]
        assert w.tolist() == [x for _, x in want]

    def test_second_derivative_is_the_slope_of_the_weight(self, rng):
        # rho'' = d rho' / ds: 0 on the quadratic branch, -rho' / (2 s) beyond it
        s = np.concatenate([rng.uniform(0.01, 0.99, 50), rng.uniform(1.01, 10, 50)]) * HUBER_THRESHOLD
        h = 1e-6 * s
        _, w, w2 = huber(s, HUBER_THRESHOLD)
        slope = (huber(s + h, HUBER_THRESHOLD)[1] - huber(s - h, HUBER_THRESHOLD)[1]) / (2 * h)
        np.testing.assert_allclose(w2, slope, rtol=1e-6, atol=1e-12)
        assert (w2[:50] == 0.0).all() and (w2[50:] < 0.0).all()

    def test_infinite_norm(self):
        rho, w, w2 = huber([math.inf], 4.0)
        assert rho[0] == math.inf and w[0] == 0.0 == w2[0]


def rosenbrock():
    """Residuals (1 - x0, 10 (x1 - x0^2)): the cost r.r has its minimum 0 at (1, 1)."""
    seen = []  # cost at every x the normal equations are built for

    def evaluate(x):
        r = np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)])
        return float(r @ r), r

    def normal_equations(x, r):
        seen.append(float(r @ r))
        J = np.array([[-1.0, 0.0], [-20.0 * x[0], 10.0]])
        return (J.T @ J)[None], np.empty((0, 2, 2)), (J.T @ r)[None]  # one block

    return evaluate, normal_equations, seen


class Scripted:
    """A problem with fixed normal equations whose trials are scripted.

    x is a label: retract records each step and returns a fresh label, and
    evaluate returns (or raises) the next scripted outcome for it.
    """

    def __init__(self, H, g, initial_cost, outcomes):
        self.H, self.g = np.array(H, dtype=float), np.array(g, dtype=float)
        self.costs = {0: initial_cost}
        self.outcomes = iter(outcomes)
        self.labels = itertools.count(1)
        self.steps = []
        self.normal_calls = 0

    def evaluate(self, x):
        if x not in self.costs:
            outcome = next(self.outcomes)
            if isinstance(outcome, Exception):
                raise outcome
            self.costs[x] = outcome
        return self.costs[x], None

    def normal_equations(self, x, state):
        self.normal_calls += 1
        return self.H[None], np.empty((0,) + self.H.shape), self.g[None]

    def retract(self, x, delta):
        self.steps.append(delta[0].copy())
        return next(self.labels)

    def run(self, max_iters=50, tol=1e-12):
        return levenberg_marquardt(
            0, self.evaluate, self.normal_equations, self.retract, max_iters, tol
        )


def step_at(lam, h, g):
    """The 1-D damped step at damping lam."""
    return -g / (h + lam * h + 1e-15)


class TestLevenbergMarquardt:
    def test_accepted_steps_strictly_lower_the_cost(self):
        evaluate, normal_equations, seen = rosenbrock()
        x0 = np.array([-1.2, 1.0])
        x, r, rep = levenberg_marquardt(
            x0, evaluate, normal_equations, lambda x, d: x + d[0], 100, 1e-12
        )
        assert rep.converged
        assert rep.initial_cost == evaluate(x0)[0] == seen[0]
        assert rep.final_cost == evaluate(x)[0] == float(r @ r)
        assert rep.iterations in (len(seen) - 1, len(seen)) and len(seen) >= 5
        assert all(b < a for a, b in zip(seen, seen[1:]))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-6)

    def test_rejected_trials_grow_the_damping_tenfold(self):
        # trial 1 raises, trial 2 does not descend, trial 3 is accepted;
        # the next iteration starts one decade lower
        p = Scripted([[1.0]], [-1.0], 1.0, [ValueError("undefined"), 2.0, 0.5, 0.25])
        x, _, rep = p.run(max_iters=2)
        lams = [1e-4, 1e-3, 1e-2, 1e-3]
        assert [s[0] for s in p.steps] == pytest.approx(
            [step_at(lam, 1.0, -1.0) for lam in lams], rel=1e-12
        )
        assert rep == (2, 1.0, 0.25, False)  # budget spent before convergence
        assert x == 4

    def test_non_finite_step_is_a_rejected_trial(self):
        # The step overflows to inf until the damping reaches 1; retract never
        # sees an infinite step.
        h, g = 0.5, -1.7e308
        p = Scripted([[h]], [g], 1.0, [0.5])
        _, _, rep = p.run(max_iters=1)
        assert len(p.steps) == 1
        assert p.steps[0][0] == pytest.approx(step_at(1.0, h, g), rel=1e-12)
        assert rep.iterations == 1

    def test_nan_gradient_rejects_every_trial(self):
        p = Scripted([[1.0]], [math.nan], 1.0, [])
        x, _, rep = p.run()
        assert p.steps == [] and x == 0
        assert rep == (0, 1.0, 1.0, True)

    def test_no_descent_stops_converged_after_all_trials(self):
        p = Scripted([[1.0]], [-1.0], 1.0, [1.0] * MAX_TRIALS)
        x, _, rep = p.run()
        assert MAX_TRIALS == 8
        assert len(p.steps) == MAX_TRIALS and p.normal_calls == 1
        assert x == 0
        assert rep == (0, 1.0, 1.0, True)

    def test_solved_start_takes_no_step(self):
        p = Scripted([[1.0]], [-1.0], COST_FLOOR / 2, [])
        x, _, rep = p.run()
        assert p.normal_calls == 0 and x == 0
        assert rep == (0, COST_FLOOR / 2, COST_FLOOR / 2, True)

    def test_step_below_the_floor_converges(self):
        p = Scripted([[1.0]], [-1.0], 1.0, [COST_FLOOR / 2])
        _, _, rep = p.run()
        assert rep == (1, 1.0, COST_FLOOR / 2, True)
        assert p.normal_calls == 1

    def test_small_relative_decrease_converges(self):
        p = Scripted([[1.0]], [-1.0], 1.0, [0.5, 0.5 - 1e-9])
        _, _, rep = p.run(tol=1e-6)
        assert rep == (2, 1.0, 0.5 - 1e-9, True)


def random_chain_system(rng, n, b=6):
    """A symmetric positive-definite block-tridiagonal system built, as a pose
    chain's is, from one random factor per link and one per block."""
    D = np.zeros((n, b, b))
    C = np.zeros((max(n - 1, 0), b, b))
    for k in range(n):
        P = rng.normal(size=(b, b))
        D[k] += P.T @ P
    for k in range(n - 1):
        Ja, Jb = rng.normal(size=(2, b, b))
        D[k] += Ja.T @ Ja
        D[k + 1] += Jb.T @ Jb
        C[k] = Ja.T @ Jb
    return D, C, rng.normal(size=(n, b))


class TestBlockTridiagonal:
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 99])
    def test_matches_dense_solve(self, rng, n):
        D, C, r = random_chain_system(rng, n)
        x = solve_block_tridiagonal(D, C, r)
        want = np.linalg.solve(block_tridiagonal_dense(D, C), r.ravel())
        assert x.shape == r.shape
        np.testing.assert_allclose(x.ravel(), want, rtol=0, atol=1e-10 * np.abs(want).max())

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(
        n=st.integers(0, 40),
        b=st.sampled_from([1, 2, 6]),
        cut=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_dense_solve_with_zero_couplings(self, n, b, cut, seed):
        # A share cut of the couplings zeroed, as at the fixed node's gap in a
        # pose chain: the system stays positive definite, possibly in pieces.
        rng = np.random.default_rng(seed)
        D, C, r = random_chain_system(rng, n, b)
        C[rng.random(len(C)) < cut] = 0.0
        x = solve_block_tridiagonal(D, C, r)
        assert x.shape == (n, b)
        if n:
            A = block_tridiagonal_dense(D, C)
            want = np.linalg.solve(A, r.ravel())
            tol = 1e-13 * np.linalg.cond(A) * np.abs(want).max()
            np.testing.assert_allclose(x.ravel(), want, rtol=0, atol=tol)

    def test_no_blocks(self):
        x = solve_block_tridiagonal(np.zeros((0, 6, 6)), np.zeros((0, 6, 6)), np.zeros((0, 6)))
        assert x.shape == (0, 6)

    def test_one_block_steps_as_the_dense_damped_solve(self, rng):
        # refine_pose's 6x6 H is one block: every trial step of the loop is
        # bit for bit the former np.linalg.solve(H + lam diag(H) + 1e-15 I, -g)
        D, _, g = random_chain_system(rng, 1)
        H, g = D[0], g[0]
        p = Scripted(H, g, 1.0, [2.0] * 3 + [0.5, 2.0, 0.25])
        p.run(max_iters=2)
        lams = [1e-4, 1e-3, 1e-2, 1e-1, 1e-2, 1e-1]
        assert len(p.steps) == len(lams)
        for step, lam in zip(p.steps, lams):
            want = np.linalg.solve(H + lam * np.diag(np.diag(H)) + 1e-15 * np.eye(6), -g)
            assert (step == want).all()

    @pytest.mark.parametrize("k", [0, 4, 9])
    def test_singular_block_raises(self, rng, k):
        D, C, r = random_chain_system(rng, 10)
        D[k] = 0.0
        if k:
            C[k - 1] = 0.0
        if k < 9:
            C[k] = 0.0
        with pytest.raises(ValueError):
            solve_block_tridiagonal(D, C, r)

    @pytest.mark.parametrize("where", ["D", "C", "r"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_input_raises(self, rng, where, value):
        system = dict(zip("DCr", random_chain_system(rng, 5)))
        system[where][2, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            solve_block_tridiagonal(system["D"], system["C"], system["r"])

    def test_non_finite_hessian_rejects_every_trial(self):
        p = Scripted([[1.0, math.inf], [math.inf, 1.0]], [-1.0, 1.0], 1.0, [])
        x, _, rep = p.run()
        assert p.steps == [] and x == 0
        assert rep == (0, 1.0, 1.0, True)
