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


def top_k(
    query_id: str,
    query: np.ndarray,
    references: list[tuple[str, np.ndarray]],
    k: int,
) -> CandidateSet:
    """k highest cosine-similarity references; ties broken by ascending frame_id."""
    if k < 1:
        raise ValueError("k must be >= 1")
    query = np.asarray(query, dtype=float).reshape(-1)
    scored = []
    for fid, vec in references:
        vec = np.asarray(vec, dtype=float).reshape(-1)
        if vec.shape != query.shape:
            raise ValueError(
                f"descriptor dimension mismatch: query {query.shape[0]},"
                f" reference {fid} {vec.shape[0]}"
            )
        scored.append((fid, float(np.clip(np.dot(query, vec), -1.0, 1.0))))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return CandidateSet(query_id=query_id, candidates=scored[:k])


def standin_global_descriptor(frame: Frame, grid: int = 4) -> np.ndarray:
    """Model-free stand-in: L2-normalized grid histogram of keypoint density."""
    counts = np.zeros((grid, grid))
    if len(frame.keypoints):
        cols = np.clip(
            (frame.keypoints[:, 0] / frame.intrinsics.width * grid).astype(int),
            0,
            grid - 1,
        )
        rows = np.clip(
            (frame.keypoints[:, 1] / frame.intrinsics.height * grid).astype(int),
            0,
            grid - 1,
        )
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
