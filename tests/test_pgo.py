"""Graph construction, residual Jacobians, literal-mode chain oracle, robust priors."""

import math

import numpy as np
import pytest

from seqloc.geometry import Pose, Quaternion, boxminus, boxplus, se3_exp
from seqloc.pgo import (
    HUBER_THRESHOLD,
    GraphBuildError,
    PgoMode,
    build_graph,
    optimize,
    residual,
    residual_with_jacobians,
)
from seqloc.pose_estimation import PoseEstimate, PoseStatus

from conftest import random_pose

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
        assert len(g.edges) == 4
        assert g.priors == []
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
        assert g.nodes[1].allclose(expected, atol=1e-12)

    def test_prior_augmented_adds_priors(self, rng):
        odom, truth = make_chain(rng, n=4)
        ests = [estimate(i, truth[i], inliers=25) for i in range(4)]
        ests[1] = estimate(1, None, status=PoseStatus.REJECTED_FEW_INLIERS)
        g = build_graph(ests, odom, COV, mode=PgoMode.PRIOR_AUGMENTED)
        assert len(g.priors) == 3
        assert {p.node for p in g.priors} == {0, 2, 3}

    def test_zero_localized_fails(self, rng):
        odom, _ = make_chain(rng, n=3)
        ests = [estimate(i, None, status=PoseStatus.REJECTED_FEW_INLIERS) for i in range(3)]
        with pytest.raises(GraphBuildError):
            build_graph(ests, odom, COV)


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
            assert got.allclose(want, atol=0)

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
                assert G.compose(a).allclose(b, atol=1e-8)

    def test_report_matches_huber_at_returned_nodes(self, rng):
        def huber(s):
            if s <= HUBER_THRESHOLD:
                return s, 1.0
            d = math.sqrt(HUBER_THRESHOLD)
            return 2.0 * d * math.sqrt(s) - HUBER_THRESHOLD, d / math.sqrt(s)

        for mode in PgoMode:
            odom, truth = make_chain(rng, n=8)
            ests = [
                estimate(i, boxplus(truth[i], rng.normal(scale=0.3, size=6)), inliers=15 + i)
                for i in range(8)
            ]
            g = build_graph(ests, odom, COV, mode=mode)
            # stopped early, so that residuals on both sides of the threshold remain
            nodes, rep = optimize(g, max_iters=1)
            edges = [
                huber(float(e @ edge.information @ e))
                for edge in g.edges
                for e in [residual(edge.measurement, nodes[edge.i], nodes[edge.i + 1])]
            ]
            priors = [
                huber(float(e @ prior.information @ e))
                for prior in g.priors
                for e in [boxminus(nodes[prior.node], prior.target)]
            ]
            weights = [w for _, w in edges + priors]
            assert min(weights) < 1.0 == max(weights)  # both Huber branches
            assert rep.edge_weights == [w for _, w in edges]
            assert rep.prior_weights == [w for _, w in priors]
            assert rep.final_cost == sum(rho for rho, _ in edges + priors)
