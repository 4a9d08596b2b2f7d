import numpy as np
import pytest

from seqloc.geometry import Pose, Quaternion


def random_quaternion(rng: np.random.Generator) -> Quaternion:
    w, x, y, z = rng.normal(size=4)
    return Quaternion(w, x, y, z)


def random_pose(rng: np.random.Generator, t_scale: float = 1.0) -> Pose:
    return Pose(random_quaternion(rng), rng.normal(scale=t_scale, size=3))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


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
