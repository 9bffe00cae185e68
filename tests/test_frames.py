import io
import os

import numpy as np
import pytest

from pointpair.errors import EmptyViewError, FormatError
from pointpair.frames import (
    DepthFrame,
    SyntheticSceneSpec,
    backproject,
    camera_poses,
    read_frame,
    render_depth,
    scene_surface_points,
    synthesize_scene,
    write_frame,
)


def _frame(depth, fx=50.0, fy=50.0, cx=32.0, cy=24.0, pose=None):
    return DepthFrame(depth, fx, fy, cx, cy, np.eye(4) if pose is None else pose)


class TestBackproject:
    def test_principal_point_ray(self):
        depth = np.zeros((48, 64))
        depth[24, 32] = 2.5  # pixel (u=cx, v=cy)
        pc = backproject(_frame(depth))
        np.testing.assert_allclose(pc.points, [[0.0, 0.0, 2.5]])

    def test_unit_focal_offset(self):
        depth = np.zeros((60, 100))
        depth[30, 70] = 1.0  # u = cx + fx, v = cy
        pc = backproject(_frame(depth, fx=30.0, fy=30.0, cx=40.0, cy=30.0))
        np.testing.assert_allclose(pc.points, [[1.0, 0.0, 1.0]])

    def test_pure_translation_pose_shifts_points(self, rng):
        depth = rng.uniform(1.0, 3.0, (12, 16))
        pose = np.eye(4)
        pose[:3, 3] = [5.0, -2.0, 1.0]
        base = backproject(_frame(depth, fx=1.0, fy=1.0, cx=0.0, cy=0.0))
        moved = backproject(_frame(depth, fx=1.0, fy=1.0, cx=0.0, cy=0.0, pose=pose))
        np.testing.assert_allclose(moved.points, base.points + [5.0, -2.0, 1.0])

    def test_row_major_pixel_order(self):
        depth = np.zeros((4, 4))
        depth[1, 2] = 1.0
        depth[2, 0] = 1.0
        depth[1, 3] = 1.0
        pc = backproject(_frame(depth, fx=1.0, fy=1.0, cx=0.0, cy=0.0))
        # order: (v=1,u=2), (v=1,u=3), (v=2,u=0)
        np.testing.assert_allclose(pc.points[:, :2], [[2, 1], [3, 1], [0, 2]])

    def test_empty_frame_raises(self):
        with pytest.raises(EmptyViewError):
            backproject(_frame(np.zeros((8, 8))))

    def test_frame_validation(self):
        with pytest.raises(ValueError):
            DepthFrame(np.zeros((4, 4)), 0.0, 1.0, 0.0, 0.0, np.eye(4))
        bad_pose = np.eye(4)
        bad_pose[0, 0] = 2.0
        with pytest.raises(ValueError):
            DepthFrame(np.zeros((4, 4)), 1.0, 1.0, 0.0, 0.0, bad_pose)


class TestFrameFile:
    def test_roundtrip_is_exact(self, rng):
        depth = rng.uniform(0, 4, (10, 14)).astype(np.float32).astype(np.float64)
        pose = np.eye(4)
        pose[:3, 3] = [0.5, 0.25, -1.0]
        frame = DepthFrame(depth, 52.5, 48.25, 31.5, 23.5, pose)
        buf = io.BytesIO()
        write_frame(frame, buf)
        buf.seek(0)
        back = read_frame(buf)
        np.testing.assert_array_equal(back.depth, depth)
        np.testing.assert_array_equal(back.pose, pose)
        assert (back.fx, back.fy, back.cx, back.cy) == (52.5, 48.25, 31.5, 23.5)

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_frame(io.BytesIO(b"XXXX" + b"\0" * 100))

    def test_truncated_payload(self, rng):
        frame = DepthFrame(rng.uniform(1, 2, (6, 6)), 10, 10, 3, 3, np.eye(4))
        buf = io.BytesIO()
        write_frame(frame, buf)
        with pytest.raises(FormatError):
            read_frame(io.BytesIO(buf.getvalue()[:-9]))

    def test_interrupted_write_to_path_leaves_no_file(self, tmp_path, monkeypatch):
        frame = DepthFrame(np.ones((4, 5)), 10, 10, 2, 2, np.eye(4))

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        with pytest.raises(KeyboardInterrupt):
            write_frame(frame, str(tmp_path / "a.pcfd"))
        assert os.listdir(tmp_path) == []

    def test_every_truncation_raises_format_error(self):
        spec = SyntheticSceneSpec(seed=3, n_boxes=3, n_planes=0, n_cameras=1,
                                  image_width=12, image_height=9, focal=10.0)
        buf = io.BytesIO()
        write_frame(synthesize_scene(spec)[0], buf)
        blob = buf.getvalue()
        read_frame(io.BytesIO(blob))
        for size in range(len(blob)):
            with pytest.raises(FormatError):
                read_frame(io.BytesIO(blob[:size]))


class TestSyntheticScenes:
    def test_same_seed_bit_identical(self):
        spec = SyntheticSceneSpec(seed=42, n_boxes=3, n_planes=1, density=400.0, n_cameras=3)
        a = synthesize_scene(spec)
        b = synthesize_scene(spec)
        assert len(a) == len(b) == 3
        for fa, fb in zip(a, b):
            np.testing.assert_array_equal(fa.depth, fb.depth)
            np.testing.assert_array_equal(fa.pose, fb.pose)

    def test_frame_count_equals_camera_count(self):
        spec = SyntheticSceneSpec(seed=1, n_boxes=2, n_planes=0, density=300.0, n_cameras=5)
        assert len(synthesize_scene(spec)) == 5

    def test_zero_primitives_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSceneSpec(seed=0, n_boxes=0, n_planes=0)

    def test_fronto_parallel_plane_gives_constant_depth(self):
        # camera at origin looking straight down +x at the plane x = 3
        spec = SyntheticSceneSpec(seed=0, n_boxes=1, density=500.0)
        yy, zz = np.meshgrid(np.linspace(-1, 1, 60), np.linspace(-1, 1, 60))
        points = np.stack([np.full(yy.size, 3.0), yy.ravel(), zz.ravel()], axis=1)
        pose = np.eye(4)
        pose[:3, 0] = [0, -1, 0]  # right
        pose[:3, 1] = [0, 0, -1]  # down
        pose[:3, 2] = [1, 0, 0]  # forward
        depth = render_depth(points, pose, spec)
        vals = depth[depth > 0]
        assert vals.size > 50
        np.testing.assert_array_equal(vals, 3.0)

    def test_camera_facing_away_yields_empty_view(self):
        spec = SyntheticSceneSpec(seed=0, n_boxes=1, density=500.0)
        points = np.array([[3.0, 0.0, 1.0]])
        pose = np.eye(4)
        pose[:3, 0] = [0, 1, 0]
        pose[:3, 1] = [0, 0, -1]
        pose[:3, 2] = [-1, 0, 0]  # forward points away from the geometry
        depth = render_depth(points, pose, spec)
        frame = DepthFrame(depth, spec.focal, spec.focal, 10.0, 10.0, pose)
        with pytest.raises(EmptyViewError):
            backproject(frame)

    def test_scene_points_inside_room(self):
        spec = SyntheticSceneSpec(seed=3, n_boxes=4, n_planes=2, density=300.0)
        pts = scene_surface_points(spec)
        rx, ry, rz = spec.room_size
        assert np.all(np.abs(pts[:, 0]) <= rx / 2 + 1.3)
        assert np.all(pts[:, 2] <= rz + 1.3)
        assert len(camera_poses(spec)) == spec.n_cameras
