"""Seeded synthetic scenes written in the `seqloc.ingest` directory layout.

A scene is a wall of random 3D points beside a straight path. The query camera
walks along the path looking at the wall; reference cameras stand on a parallel
line further back. The generator writes two things:

    <out>/dataset/   the ingest layout, the only thing the program reads
    <out>/truth.npz  world points, true camera poses, the odometry origin and,
                     per frame, the scene point behind each keypoint (-1 for
                     clutter). The program never reads it; the checks do.

World frame: x along the path, y down, z towards the wall (camera axes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from seqloc.geometry import CameraIntrinsics, Pose
from seqloc.ingest import Frame, QuerySequence, Rig, save_dataset

INTRINSICS = CameraIntrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)
CAMERA_ID = "cam0"
CLUTTER = -1
# Dataset point ids of clutter keypoints start here: unique, so the oracle
# matcher never pairs two of them.
CLUTTER_ID_BASE = 10_000_000
GLOBAL_DIM = 256
WALL_Y = (-2.5, 2.5)
WALL_Z = (4.0, 9.0)
MIN_DEPTH = 0.5
PIXEL_SIGMA = 0.5  # keypoint noise, px
STEP_M = 0.2  # query spacing along the path
ODO_SIGMA_T_M = 0.001  # odometry noise per step, per axis
ODO_SIGMA_R_DEG = 0.01
DESCRIPTOR_NOISE = 0.3  # norm of the per-observation descriptor noise


@dataclass(frozen=True)
class SceneSpec:
    """Make-up of one synthetic scene; every random draw comes from the seed."""

    n_frames: int  # query frames
    points_per_m: float  # wall points per metre of path
    ref_spacing_m: float  # reference spacing along the parallel line
    n_clutter: int = 0  # keypoints per frame with no scene point
    descriptor_dim: int = 0  # 0: write point ids (oracle), else local descriptors


def _rot_y(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_x(a: float) -> np.ndarray:
    c, s = math.cos(a), math.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def _rotvec_matrix(w: np.ndarray) -> np.ndarray:
    """Rodrigues' formula."""
    th = float(np.linalg.norm(w))
    if th < 1e-15:
        return np.eye(3)
    k = w / th
    Kx = np.array([[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]])
    return np.eye(3) + math.sin(th) * Kx + (1.0 - math.cos(th)) * Kx @ Kx


def _pose(R: np.ndarray, t) -> np.ndarray:
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = t
    return T


def _inv(T: np.ndarray) -> np.ndarray:
    R, t = T[:3, :3], T[:3, 3]
    return _pose(R.T, -R.T @ t)


def query_true_poses(spec: SceneSpec) -> np.ndarray:
    """(N,4,4) T(world<-cam) along the path, with gentle yaw, pitch and height."""
    out = []
    for i in range(spec.n_frames):
        R = _rot_y(math.radians(6.0) * math.sin(0.07 * i)) @ _rot_x(
            math.radians(2.0) * math.sin(0.11 * i)
        )
        out.append(_pose(R, [STEP_M * i, 0.1 * math.sin(0.2 * i), 0.0]))
    return np.array(out)


def reference_true_poses(spec: SceneSpec) -> np.ndarray:
    """(R,4,4) T(world<-cam) on a line 1 m behind the path, yaw alternating."""
    length = STEP_M * (spec.n_frames - 1)
    n = int(math.floor((length + 2.0) / spec.ref_spacing_m)) + 1
    out = []
    for k in range(n):
        R = _rot_y(math.radians(10.0) * math.sin(0.5 * k)) @ _rot_x(math.radians(-3.0))
        out.append(_pose(R, [-1.0 + spec.ref_spacing_m * k, -0.3, -1.0]))
    return np.array(out)


# Odometry frame of the query sequence: an arbitrary rigid offset from the
# world, so the chain has to recover a real transform.
T_ODO_FROM_WORLD = _pose(_rot_y(math.radians(40.0)) @ _rot_x(math.radians(5.0)), [2.0, 0.3, -1.0])


def _observe(rng, T_world_cam, points, n_clutter):
    """Keypoints (shuffled) and the truth id behind each; clutter is CLUTTER."""
    K = INTRINSICS
    R, c = T_world_cam[:3, :3], T_world_cam[:3, 3]
    pc = (points - c) @ R
    z = pc[:, 2]
    front = z > MIN_DEPTH
    zs = np.where(front, z, 1.0)
    uv = np.column_stack([K.fx * pc[:, 0] / zs + K.cx, K.fy * pc[:, 1] / zs + K.cy])
    uv = uv + rng.normal(scale=PIXEL_SIGMA, size=uv.shape)
    inside = front & (uv[:, 0] >= 0) & (uv[:, 0] < K.width) & (uv[:, 1] >= 0) & (uv[:, 1] < K.height)
    ids = np.flatnonzero(inside)
    clutter = rng.uniform([0.0, 0.0], [K.width, K.height], size=(n_clutter, 2))
    kps = np.vstack([uv[ids], clutter])
    truth = np.concatenate([ids, np.full(n_clutter, CLUTTER)])
    order = rng.permutation(len(kps))
    return kps[order], truth[order]


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def generate(spec: SceneSpec, seed, out: Path) -> Path:
    """Write the dataset and the truth under `out`; returns the dataset root.

    `seed` is anything `numpy.random.default_rng` takes, e.g. (run seed, scene index).
    """
    rng = np.random.default_rng(seed)
    out = Path(out)
    q_true = query_true_poses(spec)
    r_true = reference_true_poses(spec)

    x_lo, x_hi = -9.0, STEP_M * (spec.n_frames - 1) + 9.0
    # One point per slab of 1/points_per_m along the path (jittered), so every
    # frame sees about the same number of points whatever the seed.
    n_points = int(spec.points_per_m * (x_hi - x_lo))
    points = np.column_stack([
        x_lo + (np.arange(n_points) + rng.random(n_points)) / spec.points_per_m,
        rng.uniform(*WALL_Y, size=n_points),
        rng.uniform(*WALL_Z, size=n_points),
    ])
    bins = rng.integers(0, GLOBAL_DIM, size=n_points)
    base_desc = _unit_rows(rng.normal(size=(n_points, max(spec.descriptor_dim, 1))))

    # Odometry: the true relative motion perturbed each step, chained from the
    # odometry origin, so the error drifts as a random walk.
    odo = [T_ODO_FROM_WORLD @ q_true[0]]
    for i in range(1, spec.n_frames):
        rel = _inv(q_true[i - 1]) @ q_true[i]
        noise = _pose(
            _rotvec_matrix(rng.normal(scale=math.radians(ODO_SIGMA_R_DEG), size=3)),
            rng.normal(scale=ODO_SIGMA_T_M, size=3),
        )
        odo.append(odo[-1] @ rel @ noise)

    truth: dict[str, np.ndarray] = {}
    clutter_counter = [CLUTTER_ID_BASE]

    def make_frame(fid: str, T_world_cam: np.ndarray, pose: np.ndarray) -> Frame:
        kps, ids = _observe(rng, T_world_cam, points, spec.n_clutter)
        truth[f"ids_{fid}"] = ids
        real = ids != CLUTTER
        g = np.bincount(bins[ids[real]], minlength=GLOBAL_DIM).astype(float)
        frame = Frame(
            frame_id=fid,
            camera_id=CAMERA_ID,
            intrinsics=INTRINSICS,
            pose=Pose.from_rt(pose[:3, :3], pose[:3, 3]),
            keypoints=kps,
            global_descriptor=g / np.linalg.norm(g),
        )
        if spec.descriptor_dim:
            d = rng.normal(size=(len(ids), spec.descriptor_dim))
            noise = DESCRIPTOR_NOISE / math.sqrt(spec.descriptor_dim) * d
            frame.descriptors = _unit_rows(np.where(real[:, None], base_desc[np.maximum(ids, 0)] + noise, d))
        else:
            pids = ids.copy()
            n_clutter = int((~real).sum())
            pids[~real] = np.arange(clutter_counter[0], clutter_counter[0] + n_clutter)
            clutter_counter[0] += n_clutter
            frame.point_ids = pids
        return frame

    width = len(str(max(spec.n_frames, len(r_true)) - 1))
    rigs = []
    for i in range(spec.n_frames):
        fid = f"q{i:0{width}d}"
        f = make_frame(fid, q_true[i], odo[i])
        rigs.append(Rig(rig_id=fid, cameras=[(CAMERA_ID, Pose.identity())], frames={CAMERA_ID: f}, pose=f.pose))
    refs = [make_frame(f"r{k:0{width}d}", r_true[k], r_true[k]) for k in range(len(r_true))]

    sr = math.radians(ODO_SIGMA_R_DEG)
    cov = np.diag([ODO_SIGMA_T_M**2] * 3 + [sr**2] * 3)
    root = out / "dataset"
    save_dataset(root, QuerySequence(rigs=rigs, covariance=cov), refs)
    np.savez(
        out / "truth.npz",
        world_points=points,
        query_poses=q_true,
        ref_poses=r_true,
        odometry_poses=np.array(odo),
        **truth,
    )
    return root


@dataclass
class Truth:
    """Ground truth of a generated scene, read back from truth.npz."""

    world_points: np.ndarray  # (P,3)
    query_poses: dict[str, np.ndarray]  # frame id -> T(world<-cam)
    ref_poses: dict[str, np.ndarray]
    odometry_poses: dict[str, np.ndarray]  # frame id -> T(odo<-cam) as written
    ids: dict[str, np.ndarray]  # frame id -> truth id per keypoint

    def odo_from_world(self, fid: str) -> np.ndarray:
        """T(odo<-world) as seen at query frame `fid` (the drift makes it local)."""
        return self.odometry_poses[fid] @ _inv(self.query_poses[fid])


def load_truth(out: Path) -> Truth:
    with np.load(Path(out) / "truth.npz") as z:
        ids = {k[4:]: z[k] for k in z.files if k.startswith("ids_")}
        q_ids = sorted(k for k in ids if k.startswith("q"))
        r_ids = sorted(k for k in ids if k.startswith("r"))
        return Truth(
            world_points=z["world_points"],
            query_poses=dict(zip(q_ids, z["query_poses"])),
            ref_poses=dict(zip(r_ids, z["ref_poses"])),
            odometry_poses=dict(zip(q_ids, z["odometry_poses"])),
            ids=ids,
        )
