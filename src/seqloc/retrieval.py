"""Top-K reference candidate selection from global descriptors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ingest import Frame


@dataclass
class CandidateSet:
    """Ranked reference candidates for one query frame, scores non-increasing."""

    query_id: str
    candidates: list[tuple[str, float]]

    def ids(self) -> list[str]:
        return [fid for fid, _ in self.candidates]


# Scores are rounded to multiples of this before ranking, so that cosines equal in
# exact arithmetic, whose floats differ by a few ulps, tie and rank by frame_id.
SCORE_STEP = 2.0**-40


def top_k(
    query_id: str,
    query: np.ndarray,
    references: list[tuple[str, np.ndarray]],
    k: int,
) -> CandidateSet:
    """k highest cosine-similarity references, scores rounded to SCORE_STEP;
    ties broken by ascending frame_id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query = np.asarray(query, dtype=float).reshape(-1)
    ids = [fid for fid, _ in references]
    try:
        matrix = np.array([np.ravel(v) for _, v in references], dtype=float).reshape(len(ids), query.size)
    except ValueError:
        fid, vec = next((fid, v) for fid, v in references if np.size(v) != query.size)
        raise ValueError(
            f"descriptor dimension mismatch: query {query.size}, reference {fid} {np.size(vec)}"
        ) from None
    scores = np.rint(np.clip(matrix @ query, -1.0, 1.0) / SCORE_STEP) * SCORE_STEP
    order = np.lexsort((ids, -scores))[:k]
    return CandidateSet(query_id=query_id, candidates=[(ids[i], float(scores[i])) for i in order])


def standin_global_descriptor(frame: Frame, grid: int = 4) -> np.ndarray:
    """Model-free stand-in: L2-normalized grid histogram of keypoint density."""
    counts = np.zeros((grid, grid))
    size = (frame.intrinsics.width, frame.intrinsics.height)
    cols, rows = np.clip((frame.keypoints / size * grid).astype(int), 0, grid - 1).T
    np.add.at(counts, (rows, cols), 1.0)
    flat = counts.reshape(-1)
    n = np.linalg.norm(flat)
    if n < 1e-12:
        return np.full(grid * grid, 1.0 / grid)
    return flat / n


def frame_descriptor(frame: Frame, grid: int = 4) -> np.ndarray:
    """Global descriptor of a frame: stored vector if present, else the stand-in."""
    if frame.global_descriptor is not None:
        return frame.global_descriptor
    return standin_global_descriptor(frame, grid=grid)
