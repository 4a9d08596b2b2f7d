"""Test helpers: random poses, pose comparison, a dense block-tridiagonal
matrix and an image-bounds check."""

import numpy as np

from seqloc.geometry import Pose, Quaternion


def random_quaternion(rng: np.random.Generator) -> Quaternion:
    w, x, y, z = rng.normal(size=4)
    return Quaternion(w, x, y, z)


def random_pose(rng: np.random.Generator, t_scale: float = 1.0) -> Pose:
    return Pose(random_quaternion(rng), rng.normal(scale=t_scale, size=3))


def quat_allclose(p: Quaternion, q: Quaternion, atol: float = 1e-9) -> bool:
    """Whether p and q are the same rotation to atol: q and -q are equal."""
    return bool(np.allclose(p.wxyz, q.wxyz, atol=atol) or np.allclose(p.wxyz, -q.wxyz, atol=atol))


def pose_allclose(a: Pose, b: Pose, atol: float = 1e-9) -> bool:
    return quat_allclose(a.rotation, b.rotation, atol) and bool(
        np.allclose(a.translation, b.translation, atol=atol)
    )


def block_tridiagonal_dense(D: np.ndarray, C: np.ndarray) -> np.ndarray:
    """The full matrix with diagonal blocks D (n,b,b) and blocks C (n-1,b,b)
    above the diagonal, their transposes below it."""
    n, b = D.shape[:2]
    A = np.zeros((n * b, n * b))
    for k in range(n):
        A[k * b : (k + 1) * b, k * b : (k + 1) * b] = D[k]
    for k in range(n - 1):
        A[k * b : (k + 1) * b, (k + 1) * b : (k + 2) * b] = C[k]
        A[(k + 1) * b : (k + 2) * b, k * b : (k + 1) * b] = C[k].T
    return A


def in_image(K, pix) -> bool:
    """Whether a pixel lies inside K's width x height image."""
    return 0.0 <= pix[0] < K.width and 0.0 <= pix[1] < K.height
