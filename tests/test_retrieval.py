"""Retrieval: exhaustive top-k vs brute-force oracle, stand-in descriptor."""

import numpy as np
import pytest

from seqloc.geometry import CameraIntrinsics
from seqloc.ingest import Frame
from seqloc.retrieval import standin_global_descriptor, top_k


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


class TestTopK:
    def _refs(self, rng, n, dim=16):
        return [(f"r{i:04d}", unit(rng.normal(size=dim))) for i in range(n)]

    def test_exact_match_first(self, rng):
        refs = self._refs(rng, 10)
        out = top_k("q", refs[3][1], refs, k=3)
        assert out.candidates[0][0] == "r0003"
        assert abs(out.candidates[0][1] - 1.0) < 1e-12

    def test_k_larger_than_refs(self, rng):
        refs = self._refs(rng, 4)
        out = top_k("q", unit(rng.normal(size=16)), refs, k=10)
        assert len(out.candidates) == 4
        scores = [s for _, s in out.candidates]
        assert scores == sorted(scores, reverse=True)

    def test_matches_bruteforce_oracle(self, rng):
        refs = self._refs(rng, 100)
        for _ in range(20):
            q = unit(rng.normal(size=16))
            got = top_k("q", q, refs, k=7)
            oracle = sorted(
                ((fid, float(np.dot(q, v))) for fid, v in refs),
                key=lambda it: (-it[1], it[0]),
            )[:7]
            assert got.ids() == [fid for fid, _ in oracle]

    def test_permutation_invariant(self, rng):
        refs = self._refs(rng, 30)
        q = unit(rng.normal(size=16))
        base = top_k("q", q, refs, k=5)
        for _ in range(5):
            shuffled = list(refs)
            rng.shuffle(shuffled)
            assert top_k("q", q, shuffled, k=5).ids() == base.ids()

    def test_prefix_property(self, rng):
        refs = self._refs(rng, 30)
        q = unit(rng.normal(size=16))
        big = top_k("q", q, refs, k=10).ids()
        for k in range(1, 10):
            assert top_k("q", q, refs, k=k).ids() == big[:k]

    def test_exact_ties_rank_by_frame_id(self):
        # Normalized integer histograms whose cosines with the query are both
        # 3/sqrt(14), but whose float dot products differ in the last bit.
        q, a, b = unit([1, 1, 1, 1]), unit([0, 1, 2, 3]), unit([3, 2, 1, 0])
        assert np.dot(q, a) > np.dot(q, b)
        for refs in ([("r1", a), ("r0", b)], [("r0", b), ("r1", a)]):
            out = top_k("q", q, refs, k=2)
            assert out.ids() == ["r0", "r1"]
            assert out.candidates[0][1] == out.candidates[1][1]

    def test_dimension_mismatch(self, rng):
        refs = [("r0", unit(rng.normal(size=8)))]
        with pytest.raises(ValueError, match="dimension"):
            top_k("q", unit(rng.normal(size=16)), refs, k=1)


class TestStandin:
    K = CameraIntrinsics(fx=100, fy=100, cx=50, cy=40, width=100, height=80)

    def _frame(self, kps):
        return Frame(
            frame_id="f", camera_id="cam0", intrinsics=self.K,
            keypoints=np.asarray(kps, dtype=float).reshape(-1, 2),
        )

    def test_unit_norm_and_deterministic(self, rng):
        kps = np.column_stack([rng.uniform(0, 99, 40), rng.uniform(0, 79, 40)])
        d1 = standin_global_descriptor(self._frame(kps))
        d2 = standin_global_descriptor(self._frame(kps))
        assert abs(np.linalg.norm(d1) - 1.0) < 1e-12
        np.testing.assert_array_equal(d1, d2)

    def test_counts_land_in_cells(self):
        d = standin_global_descriptor(self._frame([[10, 10], [90, 70]]), grid=2)
        # one point per opposite corner cell
        np.testing.assert_allclose(d, unit([1, 0, 0, 1]))

    def test_empty_frame(self):
        d = standin_global_descriptor(self._frame(np.zeros((0, 2))))
        assert abs(np.linalg.norm(d) - 1.0) < 1e-9
