import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pointpair.geometry import PointCloud, RigidScaleTransform, apply_transform
from pointpair.voxel import (
    SparseVoxelTensor,
    VoxelHashMap,
    collapse_matches_to_voxels,
    pack_coords,
    pack_shifted,
    quantize,
    unpack_coords,
)


class TestQuantize:
    def test_points_sharing_a_voxel(self):
        pc = PointCloud(np.array([[0.01, 0.01, 0.01], [0.04, 0.04, 0.04]]))
        t = quantize(pc, 0.05)
        assert len(t) == 1
        np.testing.assert_array_equal(t.coords, [[0, 0, 0]])

    def test_floor_semantics_for_negatives(self):
        t = quantize(PointCloud(np.array([[-0.01, 0.0, 0.0]])), 0.05)
        np.testing.assert_array_equal(t.coords, [[-1, 0, 0]])

    def test_unit_cube_collapses_to_one_voxel(self, rng):
        t = quantize(PointCloud(rng.uniform(0, 1, (1000, 3))), 1.0)
        assert len(t) == 1
        assert np.all(t.origin_map == 0)

    def test_collision_keeps_lowest_index_feature(self):
        pts = np.array([[0.01, 0.01, 0.01], [0.02, 0.02, 0.02], [0.9, 0.9, 0.9]])
        feats = np.array([[1.0], [2.0], [3.0]])
        t = quantize(PointCloud(pts, features=feats), 0.05)
        row_of_origin = t.origin_map[0]
        assert t.features[row_of_origin, 0] == 1.0

    def test_default_feature_is_occupancy_column(self, rng):
        t = quantize(PointCloud(rng.uniform(0, 1, (50, 3))), 0.1)
        assert t.feature_dim == 1
        assert np.all(t.features == 1.0)

    def test_voxel_count_bounded_by_points(self, rng):
        for _ in range(10):
            n = int(rng.integers(1, 400))
            pc = PointCloud(rng.uniform(0, 1, (n, 3)))
            t = quantize(pc, float(rng.uniform(0.02, 0.5)))
            assert len(t) <= n
            assert t.origin_map.shape == (n,)
            assert t.origin_map.min() >= 0 and t.origin_map.max() < len(t)

    def test_integer_shift_translation(self, rng):
        pc = PointCloud(rng.uniform(-1, 1, (300, 3)))
        v = 0.05
        k = np.array([3, -2, 7])
        moved = apply_transform(pc, RigidScaleTransform(np.eye(3), k * v, 1.0))
        a = quantize(pc, v)
        b = quantize(moved, v)
        np.testing.assert_array_equal(b.coords, a.coords + k)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300))
    def test_first_points_are_each_rows_lowest_point(self, seed, n):
        rng = np.random.default_rng(seed)
        # 64 cells for up to 300 shuffled points: most voxels hold several
        pts = rng.integers(-2, 2, (n, 3)) * 0.1 + rng.uniform(0.005, 0.095, (n, 3))
        pts = pts[rng.permutation(n)]
        t = quantize(PointCloud(pts), 0.1)
        cells = np.floor(pts / 0.1).astype(np.int64)
        want = [np.flatnonzero((cells == c).all(axis=1)).min() for c in t.coords]
        assert t.first_points.dtype == np.int64
        np.testing.assert_array_equal(t.first_points, want)

    def test_first_points_follow_the_origin_map(self, rng):
        t = quantize(PointCloud(rng.uniform(0, 1, (50, 3))), 0.3)
        assert t.replace_features(np.zeros((len(t), 2))).first_points is t.first_points
        with pytest.raises(ValueError):
            SparseVoxelTensor(t.coords, t.features, t.voxel_size, first_points=t.first_points)
        with pytest.raises(ValueError):
            SparseVoxelTensor(t.coords, t.features, t.voxel_size, origin_map=t.origin_map)

    def test_rejects_non_positive_voxel_size(self, rng):
        with pytest.raises(ValueError):
            quantize(PointCloud(rng.uniform(0, 1, (5, 3))), 0.0)


class TestDevoxelize:
    # per-point features read back through the origin map: t.features[t.origin_map]
    def test_identity_when_no_collisions(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        feats = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]])
        t = quantize(PointCloud(pts, features=feats), 0.5)
        np.testing.assert_array_equal(t.features[t.origin_map], feats)

    def test_collided_points_share_a_row(self):
        pts = np.array([[0.01, 0.0, 0.0], [0.02, 0.0, 0.0]])
        t = quantize(PointCloud(pts, features=np.array([[5.0], [9.0]])), 0.05)
        out = t.features[t.origin_map]
        np.testing.assert_array_equal(out[0], out[1])

    def test_matches_naive_lookup_loop(self, rng):
        pc = PointCloud(rng.uniform(0, 1, (200, 3)), features=rng.standard_normal((200, 3)))
        t = quantize(pc, 0.07)
        # each point's row found by scanning the coordinates for its voxel
        cells = np.floor(pc.points / 0.07).astype(np.int64)
        naive = np.stack([t.features[np.flatnonzero((t.coords == c).all(axis=1))[0]] for c in cells])
        np.testing.assert_array_equal(t.features[t.origin_map], naive)

    def test_constant_feature_is_lossless(self, rng):
        const = np.tile([[2.5, -1.0]], (100, 1))
        t = quantize(PointCloud(rng.uniform(0, 1, (100, 3)), features=const), 0.1)
        np.testing.assert_array_equal(t.features[t.origin_map], const)


class TestVoxelHash:
    def test_insert_then_lookup_roundtrips(self, rng):
        coords = unpack_coords(np.unique(pack_coords(rng.integers(-100, 100, (500, 3)))))
        h = VoxelHashMap(coords)
        np.testing.assert_array_equal(h.lookup(coords), np.arange(len(coords)))

    def test_absent_coordinates_return_minus_one(self, rng):
        coords = np.array([[0, 0, 0], [1, 2, 3]], dtype=np.int64)
        h = VoxelHashMap(coords)
        assert (h.lookup(np.array([[9, 9, 9], [-4, 0, 2]])) == -1).all()

    def test_duplicate_coordinates_rejected(self):
        with pytest.raises(ValueError):
            VoxelHashMap(np.array([[1, 1, 1], [1, 1, 1]], dtype=np.int64))

    def test_out_of_range_coordinates_rejected(self):
        with pytest.raises(ValueError):
            pack_coords(np.array([[1 << 20, 0, 0]], dtype=np.int64))

    def test_pack_unpack_roundtrip(self, rng):
        coords = rng.integers(-(1 << 19), 1 << 19, (1000, 3)).astype(np.int64)
        np.testing.assert_array_equal(unpack_coords(pack_coords(coords)), coords)


_LIMIT = 1 << 20  # packed coordinates lie in [-2^20, 2^20)
# small values and both ends of the packing range, so shifted queries cross it
_axis = st.one_of(
    st.integers(-3, 3), st.integers(-_LIMIT, -_LIMIT + 2), st.integers(_LIMIT - 3, _LIMIT - 1)
)
_coord = st.tuples(_axis, _axis, _axis)


def _in_range(c) -> bool:
    return all(-_LIMIT <= v < _LIMIT for v in c)


class TestSortedKeyLookup:
    @settings(max_examples=300, deadline=None)
    @given(
        stored=st.lists(_coord, max_size=40, unique=True),
        queries=st.lists(_coord, max_size=40),
        offsets=st.lists(st.tuples(*[st.integers(-2, 2)] * 3), max_size=6),
    )
    def test_matches_dict(self, stored, queries, offsets):
        table = {c: row for row, c in enumerate(stored)}  # stored order is unsorted
        h = VoxelHashMap(np.array(stored, dtype=np.int64).reshape(-1, 3))
        q = np.array(queries, dtype=np.int64).reshape(-1, 3)
        got = h.lookup(q)
        assert got.dtype == np.int64 and got.shape == (len(queries),)
        assert got.tolist() == [table.get(c, -1) for c in queries]

        shifted = [tuple(a + b for a, b in zip(c, o)) for o in offsets for c in queries]
        if all(_in_range(c) for c in shifted):
            got = h.lookup(q, np.array(offsets, dtype=np.int64).reshape(-1, 3))
            assert got.dtype == np.int64 and got.shape == (len(shifted),)
            assert got.tolist() == [table.get(c, -1) for c in shifted]
        else:
            with pytest.raises(ValueError):
                h.lookup(q, np.array(offsets, dtype=np.int64))

    def test_empty_map(self):
        h = VoxelHashMap(np.zeros((0, 3), dtype=np.int64))
        np.testing.assert_array_equal(h.lookup(np.array([[0, 0, 0], [1, 2, 3]])), [-1, -1])
        assert h.lookup(np.zeros((0, 3), dtype=np.int64)).shape == (0,)

    def test_largest_packed_key(self):
        top = np.array([[_LIMIT - 1] * 3], dtype=np.int64)  # packs to the largest int64
        assert VoxelHashMap(np.zeros((1, 3), dtype=np.int64)).lookup(top)[0] == -1
        h = VoxelHashMap(np.concatenate([top, np.zeros((1, 3), dtype=np.int64)]))
        np.testing.assert_array_equal(h.lookup(np.array([[0, 0, 0], [_LIMIT - 1] * 3])), [1, 0])

    def test_no_borrow_across_fields_at_the_limit(self):
        # z = 2^20 - 1 plus one would carry into y and hit the stored (0, 1, -2^20)
        coords = np.array([[0, 0, _LIMIT - 1], [0, 1, -_LIMIT]], dtype=np.int64)
        h = VoxelHashMap(coords)
        with pytest.raises(ValueError):
            h.lookup(coords[:1], np.array([[0, 0, 1]]))
        with pytest.raises(ValueError):
            pack_shifted(coords[1:], np.array([[0, 0, -1]]))
        np.testing.assert_array_equal(h.lookup(coords, np.array([[0, 0, 0]])), [0, 1])

    def test_pack_shifted_equals_packing_the_shifted_coordinates(self, rng):
        coords = rng.integers(-50, 50, (200, 3))
        offs = rng.integers(-3, 4, (7, 3))
        want = np.concatenate([pack_coords(coords + o) for o in offs])
        np.testing.assert_array_equal(pack_shifted(coords, offs), want)


class TestMatchCollapse:
    def test_first_point_indices(self):
        pts = np.array([[0.01, 0, 0], [0.02, 0, 0], [0.9, 0, 0]])
        t = quantize(PointCloud(pts), voxel_size=0.05)
        # voxel holding points 0 and 1 should report point 0
        assert t.first_points[t.origin_map[0]] == 0
        assert t.first_points[t.origin_map[2]] == 2

    def test_greedy_two_sided_dedup(self):
        om1 = np.array([0, 0, 1, 2])
        om2 = np.array([0, 1, 1, 2])
        matches = np.array([[0, 0], [1, 1], [2, 2], [3, 3]])
        rows = collapse_matches_to_voxels(matches, om1, om2)
        # (0,0) kept; (1,1) dropped (left voxel 0 reused); (2,1) dropped
        # (right voxel 1 still free? left voxel 1 free, right voxel 1 free -> kept)
        np.testing.assert_array_equal(rows, [[0, 0], [1, 1], [2, 2]])

    def test_duplicate_rows_never_emitted(self, rng):
        om1 = rng.integers(0, 20, 100).astype(np.int64)
        om2 = rng.integers(0, 15, 80).astype(np.int64)
        matches = np.stack(
            [rng.integers(0, 100, 60), rng.integers(0, 80, 60)], axis=1
        ).astype(np.int64)
        rows = collapse_matches_to_voxels(matches, om1, om2)
        assert len(np.unique(rows[:, 0])) == rows.shape[0]
        assert len(np.unique(rows[:, 1])) == rows.shape[0]
