import io
import weakref

import numpy as np
import pytest

from pointpair import pairs as pairs_module
from pointpair.errors import FormatError
from pointpair.frames import DepthFrame, SyntheticSceneSpec, backproject, synthesize_scene
from pointpair.geometry import (
    NeighborIndex,
    PointCloud,
    RigidScaleTransform,
    apply_transform,
    rotation_about_axis,
)
from pointpair.pairs import (
    CorrespondenceMap,
    ScenePair,
    compute_correspondences,
    compute_overlap,
    generate_pairs,
    read_pair,
    revalidate_pair,
    subsample_view,
    write_pair,
)
from pointpair.verify import oracle_correspondences, oracle_overlap


def _grid_cloud(n, spacing):
    side = int(np.ceil(n ** (1 / 3)))
    ax = np.arange(side) * spacing
    g = np.stack(np.meshgrid(ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 3)
    return PointCloud(g[:n])


class TestOverlap:
    def test_identical_clouds(self, rng):
        pc = PointCloud(rng.uniform(0, 1, (100, 3)))
        assert compute_overlap(pc, pc, 0.01) == 1.0

    def test_far_separated_clouds(self, rng):
        a = PointCloud(rng.uniform(0, 1, (50, 3)))
        b = PointCloud(rng.uniform(0, 1, (50, 3)) + 100.0)
        assert compute_overlap(a, b, 0.5) == 0.0

    def test_half_overlap_is_exact(self):
        # x1 = 64-point grid; x2 = first half of x1 plus a far disjoint block
        x1 = _grid_cloud(64, spacing=1.0)
        far = x1.points[32:] + 500.0
        x2 = PointCloud(np.vstack([x1.points[:32], far]))
        assert compute_overlap(x1, x2, 0.05) == 0.5

    def test_symmetry(self, rng):
        for _ in range(10):
            a = PointCloud(rng.uniform(0, 1, (int(rng.integers(10, 200)), 3)))
            b = PointCloud(rng.uniform(0, 1, (int(rng.integers(10, 200)), 3)))
            r = float(rng.uniform(0.02, 0.3))
            assert compute_overlap(a, b, r) == compute_overlap(b, a, r)

    def test_agrees_with_exhaustive_oracle(self, rng):
        for _ in range(15):
            a = PointCloud(rng.uniform(0, 1, (int(rng.integers(5, 300)), 3)))
            b = PointCloud(rng.uniform(0, 1, (int(rng.integers(5, 300)), 3)))
            r = float(rng.uniform(0.02, 0.3))
            assert compute_overlap(a, b, r) == oracle_overlap(a, b, r)


class TestCorrespondences:
    def test_identity_when_clouds_equal(self, rng):
        pc = PointCloud(rng.uniform(0, 1, (80, 3)))
        m = compute_correspondences(pc, pc, 0.001)
        np.testing.assert_array_equal(m.matches, np.stack([np.arange(80)] * 2, axis=1))

    def test_zero_radius_with_jitter_is_empty(self, rng):
        pc = PointCloud(rng.uniform(0, 1, (50, 3)))
        moved = PointCloud(pc.points + rng.normal(0, 0.01, (50, 3)))
        with pytest.raises(ValueError):
            compute_overlap(pc, moved, 0.0)  # overlap demands positive radius
        m = compute_correspondences(pc, moved, 0.0)
        assert len(m) == 0

    def test_agrees_with_exhaustive_oracle(self, rng):
        for _ in range(15):
            n1 = int(rng.integers(5, 300))
            a = PointCloud(rng.uniform(0, 1, (n1, 3)))
            b = PointCloud(
                np.vstack([a.points[: n1 // 2] + rng.normal(0, 0.03, (n1 // 2, 3)),
                           rng.uniform(0, 1, (40, 3))])
            )
            r = float(rng.uniform(0.02, 0.25))
            got = compute_correspondences(a, b, r).matches
            np.testing.assert_array_equal(got, oracle_correspondences(a, b, r))

    def test_i_strictly_increasing(self, rng):
        a = PointCloud(rng.uniform(0, 1, (100, 3)))
        b = PointCloud(rng.uniform(0, 1, (100, 3)))
        m = compute_correspondences(a, b, 0.2).matches
        assert np.all(np.diff(m[:, 0]) > 0)

    def test_known_rigid_motion_recovers_identity_map(self, rng):
        x1 = PointCloud(rng.uniform(0, 1, (120, 3)))
        t = RigidScaleTransform(rotation_about_axis([1, 2, 3], 0.7), np.array([0.3, -0.2, 0.5]))
        x2 = apply_transform(x1, t)
        m = compute_correspondences(x1, apply_transform(x2, t.inverse()), 1e-6)
        np.testing.assert_array_equal(m.matches, np.stack([np.arange(120)] * 2, axis=1))

    def test_duplicate_match_pairs_rejected(self):
        with pytest.raises(ValueError):
            CorrespondenceMap(np.array([[0, 1], [0, 1]]))


class TestGeneratePairs:
    def _flat_frame(self, shift=0.0):
        depth = np.full((24, 32), 2.0)
        pose = np.eye(4)
        pose[:3, 3] = [shift, 0.0, 0.0]
        return DepthFrame(depth, 40.0, 40.0, 15.5, 11.5, pose)

    def test_identical_frames_give_one_full_overlap_pair(self):
        pairs = generate_pairs([self._flat_frame(), self._flat_frame()], stride=1,
                               overlap_threshold=0.3, radius=0.05, voxel_size=0.05)
        assert len(pairs) == 1
        assert pairs[0].overlap == 1.0
        assert pairs[0].frame_ids == (0, 1)

    def test_disjoint_frames_give_no_pairs(self):
        pairs = generate_pairs([self._flat_frame(), self._flat_frame(shift=500.0)], stride=1,
                               overlap_threshold=0.3, radius=0.05, voxel_size=0.05)
        assert pairs == []

    def test_below_threshold_candidate_runs_one_search(self, monkeypatch):
        # every candidate, kept or rejected, costs one search; every view but
        # the first is indexed once, and one index is alive at a time
        built, alive_at_search = [], []
        nearest_many = NeighborIndex.nearest_many

        class TrackedIndex(NeighborIndex):
            __slots__ = ("__weakref__",)

        def tracked_build(pc, radius):
            index = TrackedIndex(pc, radius)
            built.append(weakref.ref(index))
            return index

        def counting(index, queries, *args, **kwargs):
            alive_at_search.append(sum(ref() is not None for ref in built))
            return nearest_many(index, queries, *args, **kwargs)

        monkeypatch.setattr(pairs_module, "build_index", tracked_build)
        monkeypatch.setattr(NeighborIndex, "nearest_many", counting)
        kw = dict(stride=1, overlap_threshold=0.3, radius=0.05, voxel_size=0.05)
        assert generate_pairs([self._flat_frame(), self._flat_frame(shift=500.0)], **kw) == []
        assert (len(built), alive_at_search) == (1, [1])
        built.clear()
        alive_at_search.clear()
        frames = [self._flat_frame(), self._flat_frame(shift=500.0), self._flat_frame(), self._flat_frame()]
        pairs = generate_pairs(frames, **kw)
        assert [p.frame_ids for p in pairs] == [(0, 2), (0, 3), (2, 3)]
        assert (len(built), alive_at_search) == (3, [1] * 6)

    def test_stride_selects_frames(self):
        frames = [self._flat_frame(), self._flat_frame(500.0), self._flat_frame()]
        pairs = generate_pairs(frames, stride=2, overlap_threshold=0.3,
                               radius=0.05, voxel_size=0.05)
        assert len(pairs) == 1
        assert pairs[0].frame_ids == (0, 2)

    def test_pair_count_matches_oracle_enumeration(self):
        spec = SyntheticSceneSpec(seed=9, n_boxes=6, n_planes=1, density=1500.0,
                                  n_cameras=6, image_width=64, image_height=48, focal=60.0)
        frames = synthesize_scene(spec)
        pairs = generate_pairs(frames, stride=1, overlap_threshold=0.3,
                               radius=0.05, voxel_size=0.05)
        views = [subsample_view(backproject(f), 0.05) for f in frames]
        emitted = {p.frame_ids: p for p in pairs}
        assert [p.frame_ids for p in pairs] == sorted(emitted)
        for a in range(6):
            for b in range(a + 1, 6):
                overlap = oracle_overlap(views[a], views[b], 0.05)
                if (a, b) not in emitted:
                    assert overlap < 0.3
                    continue
                p = emitted[(a, b)]
                np.testing.assert_array_equal(p.x1.points, views[a].points)
                np.testing.assert_array_equal(p.x2.points, views[b].points)
                assert p.overlap == overlap
                np.testing.assert_array_equal(
                    p.correspondences.matches, oracle_correspondences(views[a], views[b], 0.05)
                )
        assert 0 < len(pairs) < 15

    def test_emitted_pairs_revalidate(self):
        spec = SyntheticSceneSpec(seed=4, n_boxes=5, n_planes=1, density=1500.0,
                                  n_cameras=4, image_width=64, image_height=48, focal=60.0)
        pairs = generate_pairs(synthesize_scene(spec), stride=1, overlap_threshold=0.30,
                               radius=0.05, voxel_size=0.05)
        assert pairs
        for p in pairs:
            assert p.overlap >= 0.30
            d = np.linalg.norm(
                p.x1.points[p.correspondences.matches[:, 0]]
                - p.x2.points[p.correspondences.matches[:, 1]],
                axis=1,
            )
            assert d.max() <= 0.05
            revalidate_pair(p, 0.05, 0.30)


class TestPairFile:
    def test_roundtrip(self, rng):
        x1 = PointCloud(rng.uniform(0, 1, (40, 3)).astype(np.float32).astype(np.float64))
        x2 = PointCloud(x1.points + 0.0)
        m = compute_correspondences(x1, x2, 0.01)
        pair = ScenePair(x1, x2, m, 1.0)
        buf = io.BytesIO()
        write_pair(pair, buf)
        buf.seek(0)
        back = read_pair(buf)
        np.testing.assert_array_equal(back.x1.points, pair.x1.points)
        np.testing.assert_array_equal(back.correspondences.matches, m.matches)
        assert back.overlap == 1.0
        revalidate_pair(back, 0.01, 0.99)

    def test_bad_magic(self):
        with pytest.raises(FormatError):
            read_pair(io.BytesIO(b"NOPE" + b"\0" * 50))

    def test_every_truncation_raises_format_error(self):
        spec = SyntheticSceneSpec(seed=4, n_boxes=4, n_planes=0, n_cameras=2,
                                  image_width=10, image_height=8, focal=9.0)
        pair = generate_pairs(synthesize_scene(spec), stride=1, overlap_threshold=0.1,
                              radius=0.2, voxel_size=0.05)[0]
        buf = io.BytesIO()
        write_pair(pair, buf)
        blob = buf.getvalue()
        read_pair(io.BytesIO(blob))
        for size in range(len(blob)):
            with pytest.raises(FormatError):
                read_pair(io.BytesIO(blob[:size]))

    def test_revalidation_catches_corrupt_overlap(self, rng):
        x1 = PointCloud(rng.uniform(0, 1, (30, 3)).astype(np.float32).astype(np.float64))
        far = PointCloud(x1.points + 50.0)
        m = CorrespondenceMap(np.array([[0, 0]]))
        pair = ScenePair(x1, far, m, 0.9)  # stored overlap is a lie
        with pytest.raises(FormatError):
            revalidate_pair(pair, 0.05, 0.5)

    def test_scene_pair_validation(self, rng):
        x = PointCloud(rng.uniform(0, 1, (10, 3)))
        with pytest.raises(ValueError):
            ScenePair(x, x, CorrespondenceMap(np.zeros((0, 2))), 1.0)
        with pytest.raises(ValueError):
            ScenePair(x, x, CorrespondenceMap(np.array([[0, 99]])), 1.0)
