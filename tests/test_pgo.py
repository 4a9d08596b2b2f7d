"""Graph construction, residual Jacobians, literal-mode chain oracle, robust priors."""

import math

import numpy as np
import pytest

import se3_oracle
from seqloc import pgo
from seqloc.geometry import Pose, Quaternion, boxplus, se3_exp
from seqloc.pgo import HUBER_THRESHOLD, PRIOR_SIGMA_SCALE, GraphBuildError, PgoMode, build_graph, optimize
from seqloc.pose_estimation import PoseEstimate, PoseStatus
from seqloc.solver import huber, levenberg_marquardt, solve_block_tridiagonal

from helpers import block_tridiagonal_dense, pose_allclose, random_pose
from se3_oracle import boxminus, residual, residual_with_jacobians

COV = np.diag([0.005**2] * 3 + [math.radians(0.05) ** 2] * 3)


def estimate(i, pose, inliers=20, status=PoseStatus.LOCALIZED):
    return PoseEstimate(
        frame_id=f"q{i:04d}",
        pose=pose,
        inlier_count=inliers if status is PoseStatus.LOCALIZED else 0,
        inlier_mask=np.ones(max(inliers, 1), dtype=bool),
        status=status,
    )


def make_chain(rng, n=8, step_t=0.22, step_rot=0.03):
    """True odometry chain plus globally transformed truth poses."""
    odom = [Pose.identity()]
    for _ in range(n - 1):
        odom.append(
            odom[-1].compose(Pose(Quaternion.from_rotvec([0, step_rot, 0]), [step_t, 0, 0]))
        )
    G = random_pose(rng, t_scale=2.0)
    truth = [G.compose(t) for t in odom]
    return odom, truth


class TestBuildGraph:
    def test_all_localized_structure(self, rng):
        odom, truth = make_chain(rng, n=5)
        ests = [estimate(i, truth[i], inliers=10 + i) for i in range(5)]
        ests[2].inlier_count = 99
        g = build_graph(ests, odom, COV, mode=PgoMode.PAPER_LITERAL)
        assert len(g.nodes) == 5
        assert g.n_edges == 4
        assert len(g.a) == len(g.b) == len(g.info) == len(g.z_inv[0]) == 4  # no priors
        assert g.fixed == 2  # argmax inliers

    def test_fixed_tie_lowest_index(self, rng):
        odom, truth = make_chain(rng, n=3)
        ests = [estimate(i, truth[i], inliers=30) for i in range(3)]
        g = build_graph(ests, odom, COV)
        assert g.fixed == 0

    def test_propagation_of_unlocalized(self, rng):
        odom, truth = make_chain(rng, n=3)
        ests = [
            estimate(0, truth[0], inliers=30),
            estimate(1, None, status=PoseStatus.SKIPPED_NO_NEIGHBOR),
            estimate(2, truth[2], inliers=10),
        ]
        g = build_graph(ests, odom, COV)
        # hand composition: T(r<-0 est) * (Tq_0)^-1 * Tq_1
        expected = truth[0].compose(odom[0].inverse().compose(odom[1]))
        assert pose_allclose(g.nodes[1], expected, atol=1e-12)

    def test_prior_augmented_adds_priors(self, rng):
        odom, truth = make_chain(rng, n=4)
        ests = [estimate(i, truth[i], inliers=25) for i in range(4)]
        ests[1] = estimate(1, None, status=PoseStatus.REJECTED_FEW_INLIERS)
        g = build_graph(ests, odom, COV, mode=PgoMode.PRIOR_AUGMENTED)
        assert g.a[g.n_edges :].tolist() == [0, 2, 3]
        assert g.b[g.n_edges :].tolist() == [4, 4, 4]  # the identity row

    def test_zero_localized_fails(self, rng):
        odom, _ = make_chain(rng, n=3)
        ests = [estimate(i, None, status=PoseStatus.REJECTED_FEW_INLIERS) for i in range(3)]
        with pytest.raises(GraphBuildError):
            build_graph(ests, odom, COV)

    @pytest.mark.parametrize(
        "cov",
        [np.zeros((6, 6)), np.full((6, 6), np.nan), COV[:5, :5], np.diag([1e-320] * 6)],
        ids=["zero", "nan", "5x5", "denormal"],  # denormal: inv returns nan, raises nothing
    )
    def test_bad_covariance_fails(self, rng, cov):
        odom, truth = make_chain(rng, n=3)
        ests = [estimate(i, truth[i]) for i in range(3)]
        with pytest.raises(GraphBuildError, match="covariance"):
            build_graph(ests, odom, cov)

    @pytest.mark.parametrize("mode", list(PgoMode))
    def test_factors_built_by_hand(self, rng, mode):
        odom, truth = make_chain(rng, n=5)
        ests = [estimate(i, boxplus(truth[i], rng.normal(scale=0.05, size=6)), inliers=10 + 7 * i) for i in range(5)]
        ests[3] = estimate(3, None, status=PoseStatus.SKIPPED_NO_NEIGHBOR)
        A = rng.normal(size=(6, 12))
        corr = A @ A.T / np.outer(np.linalg.norm(A, axis=1), np.linalg.norm(A, axis=1))
        cov = np.sqrt(np.diag(COV))[:, None] * corr * np.sqrt(np.diag(COV))  # correlated axes
        g = build_graph(ests, odom, cov, mode=mode)
        priors = [0, 1, 2, 4] if mode is PgoMode.PRIOR_AUGMENTED else []
        assert g.n_edges == 4
        assert g.a.tolist() == [0, 1, 2, 3] + priors
        assert g.b.tolist() == [1, 2, 3, 4] + [5] * len(priors)
        want_z = [odom[i].inverse().compose(odom[i + 1]) for i in range(4)]
        want_z += [ests[i].pose.inverse() for i in priors]
        np.testing.assert_allclose(np.hstack(g.z_inv), [z.as_array7() for z in want_z], rtol=0, atol=1e-12)
        info = np.linalg.inv(cov)
        want_info = [info] * 4 + [info * ests[i].inlier_count / PRIOR_SIGMA_SCALE**2 for i in priors]
        np.testing.assert_allclose(g.info, want_info, rtol=0, atol=1e-9 * np.abs(info).max())


class TestResidual:
    def test_consistent_nodes_zero(self, rng):
        m = random_pose(rng)
        Tb = random_pose(rng)
        Ta = Tb.compose(m)
        np.testing.assert_allclose(residual(m, Ta, Tb), np.zeros(6), atol=1e-12)

    def test_translation_offset(self, rng):
        m = random_pose(rng)
        Tb = random_pose(rng)
        Ta = Tb.compose(m).compose(se3_exp([0.1, 0, 0, 0, 0, 0]))
        np.testing.assert_allclose(residual(m, Ta, Tb), [0.1, 0, 0, 0, 0, 0], atol=1e-9)

    def test_rotation_offset_magnitude(self, rng):
        m = random_pose(rng)
        Tb = random_pose(rng)
        ang = math.radians(10.0)
        Ta = Tb.compose(m).compose(se3_exp([0, 0, 0, 0, ang, 0]))
        e = residual(m, Ta, Tb)
        assert abs(np.linalg.norm(e[3:]) - ang) < 1e-9

    def test_jacobians_match_finite_differences(self, rng):
        eps = 1e-6
        for _ in range(50):
            m, Ta, Tb = (random_pose(rng) for _ in range(3))
            try:
                e, Ja, Jb = residual_with_jacobians(m, Ta, Tb)
            except ValueError:
                continue
            for J, side in ((Ja, "a"), (Jb, "b")):
                J_fd = np.zeros((6, 6))
                for k in range(6):
                    d = np.zeros(6)
                    d[k] = eps
                    if side == "a":
                        p = residual(m, boxplus(Ta, d), Tb)
                        q = residual(m, boxplus(Ta, -d), Tb)
                    else:
                        p = residual(m, Ta, boxplus(Tb, d))
                        q = residual(m, Ta, boxplus(Tb, -d))
                    J_fd[:, k] = (p - q) / (2 * eps)
                denom = max(1.0, np.abs(J_fd).max())
                assert np.abs(J - J_fd).max() / denom < 1e-4


class TestOptimize:
    def test_zero_residual_start_stays(self, rng):
        odom, truth = make_chain(rng, n=5)
        ests = [estimate(i, truth[i], inliers=20) for i in range(5)]
        # odometry exactly consistent with truth: initial cost is 0
        g = build_graph(ests, odom, COV, mode=PgoMode.PAPER_LITERAL)
        nodes, rep = optimize(g)
        assert rep.initial_cost < 1e-20
        assert rep.final_cost == rep.initial_cost or rep.final_cost < 1e-20
        assert rep.iterations == 0
        for got, want in zip(nodes, g.nodes):
            assert pose_allclose(got, want, atol=0)

    def test_literal_mode_chain_oracle(self, rng):
        for trial in range(10):
            odom, truth = make_chain(rng, n=7)
            ests = []
            for i in range(7):
                d = np.concatenate(
                    [rng.uniform(-0.5, 0.5, 3), rng.uniform(-1, 1, 3) * math.radians(20) / math.sqrt(3)]
                )
                ests.append(estimate(i, boxplus(truth[i], d), inliers=int(rng.integers(10, 60))))
            g = build_graph(ests, odom, COV, mode=PgoMode.PAPER_LITERAL)
            nodes, rep = optimize(g, max_iters=200)
            anchor = g.fixed
            for i in range(7):
                expected = g.nodes[anchor].compose(odom[anchor].inverse().compose(odom[i]))
                assert np.linalg.norm(nodes[i].translation - expected.translation) < 1e-8
                assert (nodes[i].rotation.conjugate() * expected.rotation).angle < 1e-8

    def test_fixed_node_bit_identical(self, rng):
        odom, truth = make_chain(rng, n=6)
        ests = [
            estimate(i, boxplus(truth[i], rng.normal(scale=0.05, size=6)), inliers=20 + i)
            for i in range(6)
        ]
        g = build_graph(ests, odom, COV)
        nodes, _ = optimize(g)
        assert (nodes[g.fixed].as_array7() == g.nodes[g.fixed].as_array7()).all()

    def test_cost_never_increases(self, rng):
        for mode in PgoMode:
            odom, truth = make_chain(rng, n=6)
            ests = [
                estimate(i, boxplus(truth[i], rng.normal(scale=0.1, size=6)), inliers=15)
                for i in range(6)
            ]
            g = build_graph(ests, odom, COV, mode=mode)
            _, rep = optimize(g)
            assert rep.final_cost <= rep.initial_cost
            assert rep.final_cost >= 0

    def test_prior_augmented_recovers_gross_outlier(self, rng):
        for seed in range(5):
            srng = np.random.default_rng(seed)
            odom_true, truth = make_chain(srng, n=10)
            odom = [odom_true[0]]
            for i in range(9):
                rel = odom_true[i].inverse().compose(odom_true[i + 1])
                noise = np.concatenate(
                    [srng.normal(scale=0.005, size=3), srng.normal(scale=math.radians(0.05), size=3)]
                )
                odom.append(odom[-1].compose(rel).compose(se3_exp(noise)))
            ests = []
            for i in range(10):
                d = np.concatenate(
                    [srng.normal(scale=0.004, size=3), srng.normal(scale=math.radians(0.1), size=3)]
                )
                ests.append(estimate(i, boxplus(truth[i], d), inliers=int(srng.integers(30, 60))))
            bad = 4
            ests[bad].inlier_count = 29  # not the anchor
            ests[bad].pose = boxplus(truth[bad], [1.0, 0.2, -0.3, 0.05, 0, 0])
            g = build_graph(ests, odom, COV, mode=PgoMode.PRIOR_AUGMENTED)
            assert g.fixed != bad
            nodes, rep = optimize(g)
            err = np.linalg.norm(nodes[bad].translation - truth[bad].translation)
            assert err < 0.03
            assert rep.prior_weights[bad] < 0.2  # robust kernel kicked in

    def test_equivariance_under_left_transform(self, rng):
        for mode in PgoMode:
            odom, truth = make_chain(rng, n=6)
            noises = [rng.normal(scale=0.08, size=6) for _ in range(6)]
            ests = [
                estimate(i, boxplus(truth[i], noises[i]), inliers=10 + 3 * i)
                for i in range(6)
            ]
            g1 = build_graph(ests, odom, COV, mode=mode)
            n1, _ = optimize(g1, tol=1e-14)
            G = random_pose(rng, t_scale=4.0)
            moved = [
                estimate(i, G.compose(ests[i].pose), inliers=ests[i].inlier_count)
                for i in range(6)
            ]
            g2 = build_graph(moved, odom, COV, mode=mode)
            n2, _ = optimize(g2, tol=1e-14)
            for a, b in zip(n1, n2):
                assert pose_allclose(G.compose(a), b, atol=1e-8)

    def test_report_matches_huber_at_returned_nodes(self, rng):
        def huber(s):
            if s <= HUBER_THRESHOLD:
                return s, 1.0
            d = math.sqrt(HUBER_THRESHOLD)
            return 2.0 * d * math.sqrt(s) - HUBER_THRESHOLD, d / math.sqrt(s)

        for mode in PgoMode:
            odom, truth = make_chain(rng, n=8)
            # two estimates far off, the rest near the truth: after one Newton
            # step the factors at the far ones are still deep in the Huber region
            ests = [
                estimate(i, boxplus(truth[i], rng.normal(scale=0.3 if i in (2, 5) else 0.001, size=6)), inliers=15 + i)
                for i in range(8)
            ]
            g = build_graph(ests, odom, COV, mode=mode)
            # stopped early, so that residuals on both sides of the threshold remain
            nodes, rep = optimize(g, max_iters=1)
            # the factors from odom and ests, not from the graph's arrays
            info = np.linalg.inv(COV)
            edges = [
                huber(float(e @ info @ e))
                for i in range(7)
                for e in [residual(odom[i + 1].inverse().compose(odom[i]), nodes[i], nodes[i + 1])]
            ]
            priors = [
                huber(float(e @ (info * est.inlier_count / PRIOR_SIGMA_SCALE**2) @ e))
                for i, est in enumerate(ests if mode is PgoMode.PRIOR_AUGMENTED else [])
                for e in [boxminus(nodes[i], est.pose)]
            ]
            weights = [w for _, w in edges + priors]
            assert min(weights) < 1.0 == max(weights)  # both Huber branches
            # the report is the batched evaluation at the returned nodes...
            cost, lin = pgo._evaluate(g, *pgo._node_arrays(nodes))
            assert rep.edge_weights == lin.w[: g.n_edges].tolist()
            assert rep.prior_weights == lin.w[g.n_edges :].tolist()
            assert rep.final_cost == cost
            # ...which is the scalar Huber of the scalar residuals to rounding
            np.testing.assert_allclose(weights, lin.w, rtol=1e-12, atol=0)
            np.testing.assert_allclose(
                rep.final_cost, sum(rho for rho, _ in edges + priors), rtol=1e-12, atol=0
            )


FIRST_ORDER = se3_oracle.se3_right_jacobian_inv_first_order


def noisy_chain_graph(rng, n, mode, outliers=(), t_sigma=0.002, r_sigma_deg=0.02):
    """Graph over an odometry chain with sigma-level noise, estimates t_sigma
    and r_sigma_deg from the truth but for the outliers, 1 m off; at the
    default sigmas, factors on both sides of HUBER_THRESHOLD."""
    odom_true, truth = make_chain(rng, n=n)
    odom = [odom_true[0]]
    for i in range(n - 1):
        rel = odom_true[i].inverse().compose(odom_true[i + 1])
        noise = np.concatenate([rng.normal(scale=0.005, size=3), rng.normal(scale=math.radians(0.05), size=3)])
        odom.append(odom[-1].compose(rel).compose(se3_exp(noise)))
    ests = []
    for i in range(n):
        d = np.concatenate([rng.normal(scale=t_sigma, size=3), rng.normal(scale=math.radians(r_sigma_deg), size=3)])
        if i in outliers:
            d[:3] += [1.0, -0.5, 0.2]
        ests.append(estimate(i, boxplus(truth[i], d), inliers=int(rng.integers(10, 60))))
    return build_graph(ests, odom, COV, mode=mode)


def perturbed_nodes(rng, g):
    return [boxplus(T, rng.normal(scale=[0.002] * 3 + [math.radians(0.02)] * 3)) for T in g.nodes]


def recording_lm(costs):
    """levenberg_marquardt that appends to costs the initial cost and the cost
    after each accepted step: a step is accepted exactly when its cost is below
    the last accepted one."""

    def lm(x, evaluate, *args):
        def recorded(x):
            cost, state = evaluate(x)
            if not costs or cost < costs[-1]:
                costs.append(cost)
            return cost, state

        return levenberg_marquardt(x, recorded, *args)

    return lm


def damped(D, lam):
    """The LM loop's damping of each diagonal block."""
    dims = np.arange(D.shape[-1])
    diag = np.zeros_like(D)
    diag[:, dims, dims] = D[:, dims, dims]
    return D + lam * diag + 1e-15 * np.eye(D.shape[-1])


class TestBatchedAgainstScalarOracle:
    """The array evaluation, block normal equations and solve against the
    per-factor Pose code and dense solve they replaced (tests/se3_oracle.py),
    linearized with the same first-order Jacobian; optimize step by step
    against the oracle's with that Jacobian, and to its optimum against the
    oracle's with the exact one."""

    def test_evaluate_matches_oracle(self, rng):
        for mode in PgoMode:
            g = noisy_chain_graph(rng, 12, mode, outliers=(3,))
            nodes = perturbed_nodes(rng, g)
            cost, lin = pgo._evaluate(g, *pgo._node_arrays(nodes))
            want_cost, (factors, w) = se3_oracle.evaluate(g, nodes, FIRST_ORDER)
            assert w.min() < 1.0 == w.max()
            np.testing.assert_allclose(cost, want_cost, rtol=1e-12, atol=0)
            np.testing.assert_allclose(lin.w, w, rtol=1e-12, atol=0)
            for k, f in enumerate(factors):
                np.testing.assert_allclose(lin.e[k], f.e, rtol=0, atol=1e-12)
                np.testing.assert_allclose(lin.J_a[k], f.J[0], rtol=0, atol=1e-12)
                if len(f.J) == 2:
                    np.testing.assert_allclose(lin.J_b[k], f.J[1], rtol=0, atol=1e-12)
            assert len(lin.J_b) == g.n_edges

    @pytest.mark.parametrize("n, fixed", [(9, 0), (9, 4), (9, 8), (2, 0), (2, 1)])
    def test_normal_equations_and_solve_match_dense(self, rng, n, fixed):
        # the fixed node first, in the middle and last; (2, *): one free node
        for mode in PgoMode:
            g = noisy_chain_graph(rng, n, mode, outliers=(1,))
            g.fixed = fixed
            nodes = perturbed_nodes(rng, g)
            _, lin = pgo._evaluate(g, *pgo._node_arrays(nodes))
            free = np.delete(np.arange(n), fixed)
            D, C, grad = pgo._normal_equations(g, lin, free)
            assert D.shape == (n - 1, 6, 6) and C.shape == (n - 2, 6, 6) and grad.shape == (n - 1, 6)
            _, (factors, w) = se3_oracle.evaluate(g, nodes, FIRST_ORDER)
            H, want_g = se3_oracle.normal_equations(factors, w, se3_oracle.free_slots(g), 6 * (n - 1))
            scale = np.abs(H).max()
            np.testing.assert_allclose(block_tridiagonal_dense(D, C), H, rtol=0, atol=1e-12 * scale)
            np.testing.assert_allclose(grad.ravel(), want_g, rtol=0, atol=1e-12 * np.abs(want_g).max())
            if 0 < fixed < n - 1:
                assert not C[fixed - 1].any()  # the fixed node's free neighbours
            for lam in (1e-4, 1.0):
                x = solve_block_tridiagonal(damped(D, lam), C, -grad)
                want = np.linalg.solve(H + lam * np.diag(np.diag(H)) + 1e-15 * np.eye(len(H)), -want_g)
                np.testing.assert_allclose(x.ravel(), want, rtol=0, atol=1e-9 * np.abs(want).max())

    @pytest.mark.parametrize("mode", list(PgoMode))
    def test_optimize_matches_oracle_on_100_nodes(self, mode, monkeypatch):
        rng = np.random.default_rng(100)
        g = noisy_chain_graph(rng, 100, mode, outliers=(17, 60))
        costs, first_order_costs = [], []
        monkeypatch.setattr(pgo, "levenberg_marquardt", recording_lm(costs))
        nodes, rep = optimize(g)
        monkeypatch.setattr(se3_oracle, "levenberg_marquardt", recording_lm(first_order_costs))
        first_order_nodes, first_order = se3_oracle.optimize(g, jr_inv=FIRST_ORDER)
        monkeypatch.undo()
        want_nodes, want = se3_oracle.optimize(g)
        weights = se3_oracle.evaluate(g, g.nodes)[1][1]
        assert weights.min() < 1.0 == weights.max()  # both Huber branches at the start
        assert rep.converged and first_order.converged and want.converged
        # The first-order oracle's steps: the weighted residual norm after each
        # accepted step agrees to 1e-9, or to 1e-10, some 30 times its rounding
        # on this graph. The paper-literal chain has an exact solution, and both
        # polish rounding there for a number of steps that rounding decides.
        assert len(costs) == rep.iterations + 1 and len(first_order_costs) == first_order.iterations + 1
        norms, ref_norms = np.sqrt(costs), np.sqrt(first_order_costs)
        if mode is PgoMode.PRIOR_AUGMENTED:
            assert rep.iterations == first_order.iterations > 5
        else:
            assert (norms > 1e-10).sum() == (ref_norms > 1e-10).sum() > 5
        m = min(len(norms), len(ref_norms))
        np.testing.assert_allclose(norms[:m], ref_norms[:m], rtol=1e-9, atol=1e-10)
        for got, ref in zip(nodes, first_order_nodes):
            assert pose_allclose(got, ref, atol=1e-9)
        # the exact Jacobian's optimum
        np.testing.assert_allclose(rep.final_cost, want.final_cost, rtol=1e-9, atol=1e-20)
        for got, ref in zip(nodes, want_nodes):
            assert pose_allclose(got, ref, atol=1e-9)
        assert nodes[g.fixed] is g.nodes[g.fixed]


def robust_cost(s):
    """Huber at HUBER_THRESHOLD on squared Mahalanobis norms s, summed."""
    return float(np.where(s <= HUBER_THRESHOLD, s, 2.0 * np.sqrt(HUBER_THRESHOLD * s) - HUBER_THRESHOLD).sum())


class TestNewtonWeighting:
    """The normal equations are the robust cost's own derivatives, the second-order
    term of the Huber kernel included, and they end the crawl of IRLS weights."""

    @pytest.mark.parametrize("mode", list(PgoMode))
    def test_normal_equations_are_the_halved_derivatives_of_the_cost(self, rng, mode):
        # f(delta) = sum_k rho(|e_k + J_k delta|^2_info) over the free nodes' steps
        # delta; D, C and g must be half its Hessian and gradient at delta = 0.
        n = 5
        g = noisy_chain_graph(rng, n, mode, outliers=(2,))
        _, lin = pgo._evaluate(g, *pgo._node_arrays(perturbed_nodes(rng, g)))
        assert lin.w.min() < 0.1 and lin.w.max() == 1.0  # both Huber branches
        free = np.delete(np.arange(n), g.fixed)
        D, C, grad = pgo._normal_equations(g, lin, free)
        slot = {int(node): 6 * k for k, node in enumerate(free)}
        J = np.zeros((len(g.a), 6, 6 * len(free)))  # each factor's rows of the full Jacobian
        for k, (a, b) in enumerate(zip(g.a.tolist(), g.b.tolist())):
            if a in slot:
                J[k, :, slot[a] : slot[a] + 6] = lin.J_a[k]
            if k < g.n_edges and b in slot:
                J[k, :, slot[b] : slot[b] + 6] = lin.J_b[k]

        def f(delta):
            r = lin.e + J @ delta
            return robust_cost(np.einsum("mi,mij,mj->m", r, g.info, r))

        h = 1e-6
        E = h * np.eye(J.shape[-1])
        half_gradient = [(f(d) - f(-d)) / (4 * h) for d in E]
        half_hessian = [[(f(d + c) - f(d - c) - f(c - d) + f(-d - c)) / (8 * h * h) for c in E] for d in E]
        np.testing.assert_allclose(grad.ravel(), half_gradient, rtol=0, atol=1e-5 * np.abs(grad).max())
        H = block_tridiagonal_dense(D, C)
        np.testing.assert_allclose(H, half_hessian, rtol=0, atol=1e-5 * np.abs(H).max())

    def test_deep_huber_graph_converges(self, monkeypatch):
        # PnP estimates 10 cm and 1 deg off against prior sigmas of 6-16 mm: the
        # priors lie deep in the Huber region. With the IRLS weights alone,
        # w J^T info J, the steps crawl and the iteration budget runs out.
        g = noisy_chain_graph(np.random.default_rng(8), 10, PgoMode.PRIOR_AUGMENTED, t_sigma=0.1, r_sigma_deg=1.0)
        _, rep = optimize(g)
        assert rep.converged and rep.iterations < 30
        monkeypatch.setattr(pgo, "huber", lambda s, threshold: (*huber(s, threshold)[:2], np.zeros(len(s))))
        _, irls = optimize(g)
        assert irls.iterations == 100 and not irls.converged
        assert rep.final_cost < irls.final_cost
