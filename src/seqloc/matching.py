"""2D-2D correspondence generation between image pairs.

Three matcher kinds behind one seam: a deterministic mutual-nearest-neighbor
matcher over descriptors, ingestion of precomputed match files, and a
ground-truth oracle for synthetic data keyed on scene-point ids (optionally
corrupted with index-rewired outliers for robustness tests).
"""

from __future__ import annotations

import enum
import math
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ingest import Frame, MissingFileError, match_file_path, read_match_file


class MatchingError(ValueError):
    pass


class MatcherKind(str, enum.Enum):
    DESCRIPTOR_MNN = "descriptor_mnn"
    PRECOMPUTED_FILE = "precomputed_file"
    SYNTHETIC_ORACLE = "synthetic_oracle"


@dataclass
class MatchSet:
    """One-to-one correspondences between keypoints of frames a and b."""

    frame_a: str
    frame_b: str
    idx_a: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    idx_b: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    scores: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __len__(self) -> int:
        return len(self.idx_a)

    def validate(self, n_a: int, n_b: int) -> None:
        if len(np.unique(self.idx_a)) != len(self.idx_a):
            raise MatchingError(f"idx_a repeats in {self.frame_a}<->{self.frame_b}")
        if len(np.unique(self.idx_b)) != len(self.idx_b):
            raise MatchingError(f"idx_b repeats in {self.frame_a}<->{self.frame_b}")
        if len(self.idx_a) and (
            self.idx_a.min() < 0
            or self.idx_a.max() >= n_a
            or self.idx_b.min() < 0
            or self.idx_b.max() >= n_b
        ):
            raise MatchingError("match index out of keypoint range")


def match(
    a: Frame,
    b: Frame,
    kind: MatcherKind | str = MatcherKind.DESCRIPTOR_MNN,
    *,
    ratio: float = 0.9,
    min_score: float = 0.7,
    outlier_rate: float = 0.0,
    seed: int = 0,
    dataset_root: Path | None = None,
) -> MatchSet:
    kind = MatcherKind(kind)
    if kind is MatcherKind.DESCRIPTOR_MNN:
        ms = mutual_nn_match(a, b, ratio=ratio, min_score=min_score)
    elif kind is MatcherKind.PRECOMPUTED_FILE:
        ms = load_precomputed_match(a, b, dataset_root)
    else:
        ms, _ = synthetic_oracle_match(a, b, outlier_rate=outlier_rate, seed=seed)
    ms.validate(len(a.keypoints), len(b.keypoints))
    return ms


def mutual_nn_match(a: Frame, b: Frame, ratio: float = 0.9, min_score: float = 0.7) -> MatchSet:
    """Mutual nearest neighbors with a Lowe ratio test applied both ways."""
    empty = MatchSet(frame_a=a.frame_id, frame_b=b.frame_id)
    if len(a.keypoints) == 0 or len(b.keypoints) == 0:
        return empty
    if a.descriptors is None or b.descriptors is None:
        raise MatchingError(
            f"descriptor matcher needs descriptors on both {a.frame_id} and {b.frame_id}"
        )
    sims = a.descriptors @ b.descriptors.T
    best_b = np.argmax(sims, axis=1)
    best_a = np.argmax(sims, axis=0)

    ia, ib, sc = [], [], []
    for i in range(len(a.keypoints)):
        j = best_b[i]
        if best_a[j] != i:
            continue
        s = sims[i, j]
        if s < min_score:
            continue
        if not (_ratio_ok(sims[i, :], j, ratio) and _ratio_ok(sims[:, j], i, ratio)):
            continue
        ia.append(i)
        ib.append(int(j))
        sc.append(float(np.clip(s, 0.0, 1.0)))
    return MatchSet(
        frame_a=a.frame_id,
        frame_b=b.frame_id,
        idx_a=np.array(ia, dtype=int),
        idx_b=np.array(ib, dtype=int),
        scores=np.array(sc),
    )


def _ratio_ok(sim_row: np.ndarray, best_idx: int, ratio: float) -> bool:
    """Lowe test on descriptor distances (unit vectors: d^2 = 2 - 2s)."""
    if len(sim_row) < 2:
        return True
    second = np.partition(np.delete(sim_row, best_idx), -1)[-1]
    d1 = math.sqrt(max(0.0, 2.0 - 2.0 * sim_row[best_idx]))
    d2 = math.sqrt(max(0.0, 2.0 - 2.0 * second))
    if d2 < 1e-12:
        return False  # a second identical descriptor: not distinctive
    return d1 / d2 <= ratio


def load_precomputed_match(a: Frame, b: Frame, dataset_root: Path | None) -> MatchSet:
    if dataset_root is None:
        raise MatchingError("precomputed matcher needs the dataset root")
    forward = match_file_path(dataset_root, a.frame_id, b.frame_id)
    backward = match_file_path(dataset_root, b.frame_id, a.frame_id)
    if forward.is_file():
        idx_a, idx_b, scores = read_match_file(forward)
    elif backward.is_file():
        idx_b, idx_a, scores = read_match_file(backward)
    else:
        raise MissingFileError("no precomputed match file for pair", path=forward)
    return MatchSet(
        frame_a=a.frame_id, frame_b=b.frame_id, idx_a=idx_a, idx_b=idx_b, scores=scores
    )


def pair_seed(seed: int, frame_a: str, frame_b: str) -> int:
    """Stable per-pair RNG seed (crc32, not the salted builtin hash)."""
    return zlib.crc32(f"{seed}|{frame_a}|{frame_b}".encode()) & 0xFFFFFFFF


def synthetic_oracle_match(
    a: Frame,
    b: Frame,
    outlier_rate: float = 0.0,
    seed: int = 0,
    rng: np.random.Generator | None = None,
) -> tuple[MatchSet, np.ndarray]:
    """Match keypoints sharing a scene-point id; optionally rewire outliers.

    Returns the match set and the ground-truth inlier mask (False exactly for
    the rewired rows). Rewiring keeps the set one-to-one by drawing targets
    from unmatched keypoints of b; a row with no safely-distant target left
    stays an inlier.
    """
    if a.point_ids is None or b.point_ids is None:
        raise MatchingError(
            f"oracle matcher needs point ids on both {a.frame_id} and {b.frame_id}"
        )
    if rng is None:
        rng = np.random.default_rng(pair_seed(seed, a.frame_id, b.frame_id))

    pos_b = {int(pid): j for j, pid in enumerate(b.point_ids)}
    ia, ib = [], []
    for i, pid in enumerate(a.point_ids):
        j = pos_b.get(int(pid))
        if j is not None:
            ia.append(i)
            ib.append(j)
    idx_a = np.array(ia, dtype=int)
    idx_b = np.array(ib, dtype=int)
    inlier = np.ones(len(idx_a), dtype=bool)

    if outlier_rate > 0.0 and len(idx_a):
        rewire = rng.random(len(idx_a)) < outlier_rate
        targets = np.flatnonzero(rewire)
        free = list(np.setdiff1d(np.arange(len(b.keypoints)), idx_b))
        rng.shuffle(free)
        # A rewired target must land well away from the true correspondence,
        # so a corrupted match can never be geometrically consistent.
        min_sep = 12.0
        for t in targets:
            true_kp = b.keypoints[idx_b[t]]
            pick = None
            for pos, j in enumerate(free):
                if np.linalg.norm(b.keypoints[j] - true_kp) >= min_sep:
                    pick = pos
                    break
            if pick is None:
                continue  # nowhere safe to rewire: row stays an inlier
            idx_b[t] = free.pop(pick)
            inlier[t] = False

    ms = MatchSet(
        frame_a=a.frame_id,
        frame_b=b.frame_id,
        idx_a=idx_a,
        idx_b=idx_b,
        scores=np.ones(len(idx_a)),
    )
    return ms, inlier
