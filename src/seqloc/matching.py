"""2D-2D correspondence generation between image pairs.

Three matcher kinds behind one seam: a deterministic mutual-nearest-neighbor
matcher over descriptors, ingestion of precomputed match files, and a
ground-truth oracle for synthetic data keyed on scene-point ids (optionally
corrupted with index-rewired outliers for robustness tests).
"""

from __future__ import annotations

import enum
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .ingest import _FLOAT32_MAX, Frame, MissingFileError, match_file_path, read_match_file


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
    """Mutual nearest neighbors with a Lowe ratio test applied both ways.

    The similarities are the descriptors' dot products, computed as one
    float32 product; the argmaxes and partitions run on it, and the values
    they pick are upcast to float64 (exactly), on which min_score, the
    distances and the ratio test run. Filters, in order: each row of a keeps
    its best column (the first on a tie); rows whose best score is below
    min_score leave; a row stays only if it is also its column's best (the
    first row on a tie); then the Lowe test below. The min_score filter and
    the mutual test commute, so only the surviving rows' columns are
    searched. When both frames have keypoints, raises MatchingError if either
    lacks descriptors, their widths differ, or a descriptor value is not
    finite or lies beyond float32 range.
    """
    empty = MatchSet(frame_a=a.frame_id, frame_b=b.frame_id)
    if len(a.keypoints) == 0 or len(b.keypoints) == 0:
        return empty
    if a.descriptors is None or b.descriptors is None:
        raise MatchingError(
            f"descriptor matcher needs descriptors on both {a.frame_id} and {b.frame_id}"
        )
    if a.descriptors.shape[1] != b.descriptors.shape[1]:
        raise MatchingError(
            f"descriptor widths differ: {a.descriptors.shape[1]} on {a.frame_id}, "
            f"{b.descriptors.shape[1]} on {b.frame_id}"
        )
    for f in (a, b):
        # NaN fails the comparison too; checked before the cast, which would warn
        if not np.abs(f.descriptors).max(initial=0.0) <= _FLOAT32_MAX:
            raise MatchingError(f"descriptors of {f.frame_id} are not finite float32 values")
    sims = a.descriptors.astype(np.float32, copy=False) @ b.descriptors.astype(np.float32, copy=False).T
    best_b = np.argmax(sims, axis=1)
    s = np.take_along_axis(sims, best_b[:, None], axis=1)[:, 0].astype(np.float64)
    ia = np.flatnonzero(s >= min_score)
    cols = sims[:, best_b[ia]]  # the candidates' columns, (n_a, m)
    mutual = np.argmax(cols, axis=0) == ia
    ia, cols = ia[mutual], cols[:, mutual]
    ib, s = best_b[ia], s[ia]
    # Lowe test on descriptor distances (unit vectors: d^2 = 2 - 2s) against the
    # second best of the row and of the column, ties counted; one keypoint passes.
    d1 = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * s))
    seconds = []
    if sims.shape[1] > 1:
        seconds.append(np.partition(sims[ia], -2, axis=1)[:, -2].astype(np.float64))
    if sims.shape[0] > 1:
        seconds.append(np.partition(cols, -2, axis=0)[-2].astype(np.float64))
    keep = np.ones(len(s), dtype=bool)
    for second in seconds:
        d2 = np.sqrt(np.maximum(0.0, 2.0 - 2.0 * second))
        # a second identical descriptor is not distinctive
        keep &= (d2 >= 1e-12) & (d1 / np.maximum(d2, 1e-12) <= ratio)
    return MatchSet(
        frame_a=a.frame_id,
        frame_b=b.frame_id,
        idx_a=ia[keep],
        idx_b=ib[keep],
        scores=np.clip(s[keep], 0.0, 1.0),
    )


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

    Returns the match set, in ascending idx_a, and the ground-truth inlier
    mask (False exactly for the rewired rows). Rewiring keeps the set
    one-to-one by drawing targets from unmatched keypoints of b; a row with no
    safely-distant target left stays an inlier. Raises MatchingError when a
    frame has no point ids or repeats one.
    """
    for f in (a, b):
        if f.point_ids is None:
            raise MatchingError(
                f"oracle matcher needs point ids on both {a.frame_id} and {b.frame_id}"
            )
        ids = np.sort(f.point_ids)
        repeats = ids[1:][ids[1:] == ids[:-1]]
        if len(repeats):
            raise MatchingError(f"point id {repeats[0]} repeats in {f.frame_id}")
    if rng is None:
        rng = np.random.default_rng(pair_seed(seed, a.frame_id, b.frame_id))

    _, idx_a, idx_b = np.intersect1d(a.point_ids, b.point_ids, assume_unique=True, return_indices=True)
    order = np.argsort(idx_a)
    idx_a, idx_b = idx_a[order], idx_b[order]
    inlier = np.ones(len(idx_a), dtype=bool)

    if outlier_rate > 0.0 and len(idx_a):
        targets = np.flatnonzero(rng.random(len(idx_a)) < outlier_rate)
        unmatched = np.ones(len(b.keypoints), dtype=bool)
        unmatched[idx_b] = False
        free = np.flatnonzero(unmatched)
        rng.shuffle(free)
        # A rewired target must land well away from the true correspondence,
        # so a corrupted match can never be geometrically consistent: each
        # row takes the first such free keypoint, in shuffled order.
        min_sep = 12.0
        true_kp = b.keypoints[idx_b[targets]]
        far = np.linalg.norm(b.keypoints[free] - true_kp[:, None], axis=2) >= min_sep
        taken = set()
        for t, far_t in zip(targets.tolist(), far.tolist()):
            pick = next((k for k, ok in enumerate(far_t) if ok and k not in taken), None)
            if pick is None:
                continue  # nowhere safe to rewire: row stays an inlier
            taken.add(pick)
            idx_b[t] = free[pick]
            inlier[t] = False

    ms = MatchSet(
        frame_a=a.frame_id,
        frame_b=b.frame_id,
        idx_a=idx_a,
        idx_b=idx_b,
        scores=np.ones(len(idx_a)),
    )
    return ms, inlier
