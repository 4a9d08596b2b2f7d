"""Tests of the scene generator: python3 -m pytest perfbench -q"""

import filecmp

import numpy as np
import pytest

from scene import CLUTTER, INTRINSICS, PIXEL_SIGMA, SceneSpec, generate, load_truth
from seqloc.ingest import load_dataset

SMALL = dict(n_frames=6, points_per_m=4.0, ref_spacing_m=1.0)
ORACLE = SceneSpec(**SMALL, n_clutter=5)
MNN = SceneSpec(**SMALL, n_clutter=50, descriptor_dim=16)


@pytest.fixture(params=[ORACLE, MNN], ids=["oracle", "mnn"])
def scene(request, tmp_path):
    root = generate(request.param, 7, tmp_path)
    sequences, refs = load_dataset(root)
    frames = [f for rig in sequences[0].rigs for f in rig.frames.values()] + refs
    return request.param, frames, load_truth(tmp_path)


def test_load_dataset_accepts_output(scene):
    spec, frames, truth = scene
    assert len(truth.query_poses) == spec.n_frames
    assert [f.frame_id for f in frames[: spec.n_frames]] == sorted(truth.query_poses)
    for f in frames:
        assert len(f.keypoints) == len(truth.ids[f.frame_id])
        assert (f.descriptors is not None) == bool(spec.descriptor_dim)
        assert (f.point_ids is not None) != bool(spec.descriptor_dim)
        assert f.global_descriptor is not None


def test_keypoints_inside_image(scene):
    _, frames, _ = scene
    for f in frames:
        u, v = f.keypoints.T
        assert np.all((u >= 0) & (u < INTRINSICS.width) & (v >= 0) & (v < INTRINSICS.height))


def test_point_ids_unique_and_match_truth(scene):
    spec, frames, truth = scene
    for f in frames:
        ids = truth.ids[f.frame_id]
        real = ids != CLUTTER
        assert (~real).sum() == spec.n_clutter
        assert len(np.unique(ids[real])) == real.sum()
        if f.point_ids is not None:
            assert len(np.unique(f.point_ids)) == len(f.point_ids)
            assert np.array_equal(f.point_ids[real], ids[real])


def test_real_keypoints_are_projections_of_world_points(scene):
    _, frames, truth = scene
    poses = {**truth.query_poses, **truth.ref_poses}
    for f in frames:
        ids = truth.ids[f.frame_id]
        real = ids != CLUTTER
        T = poses[f.frame_id]
        pc = (truth.world_points[ids[real]] - T[:3, 3]) @ T[:3, :3]
        uv = pc[:, :2] / pc[:, 2:] * INTRINSICS.fx + [INTRINSICS.cx, INTRINSICS.cy]
        assert np.abs(uv - f.keypoints[real]).max() < 6 * PIXEL_SIGMA


def test_same_seed_same_files(tmp_path):
    a = generate(ORACLE, 3, tmp_path / "a")
    b = generate(ORACLE, 3, tmp_path / "b")
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert all(filecmp.cmp(a / p, b / p, shallow=False) for p in files)
