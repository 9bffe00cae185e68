import io
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pointpair import geometry
from pointpair.errors import FormatError, InvalidTransformError
from pointpair.geometry import (
    NeighborIndex,
    PointCloud,
    RigidScaleTransform,
    apply_transform,
    brute_force_nearest,
    build_index,
    rotation_about_axis,
)
from pointpair.ply import read_ply, write_ply


class TestPointCloud:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((0, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PointCloud(np.array([[0.0, np.nan, 0.0]]))

    def test_rejects_feature_row_mismatch(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), features=np.zeros((2, 4)))

    def test_points_are_read_only(self):
        pc = PointCloud(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            pc.points[0, 0] = 1.0


class TestTransforms:
    def test_identity_is_noop(self, rng):
        pc = PointCloud(rng.uniform(-1, 1, (50, 3)), features=rng.standard_normal((50, 4)))
        out = apply_transform(pc, RigidScaleTransform.identity())
        np.testing.assert_array_equal(out.points, pc.points)
        np.testing.assert_array_equal(out.features, pc.features)

    def test_quarter_turn_about_z(self):
        t = RigidScaleTransform(rotation_about_axis([0, 0, 1], np.pi / 2), np.zeros(3))
        out = t.apply(np.array([[1.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_pure_scale(self):
        t = RigidScaleTransform(np.eye(3), np.zeros(3), 2.0)
        out = t.apply(np.array([[1.0, 2.0, 3.0]]))
        np.testing.assert_array_equal(out, [[2.0, 4.0, 6.0]])

    def test_rejects_improper_rotation(self):
        reflection = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            RigidScaleTransform(reflection, np.zeros(3))
        with pytest.raises(ValueError):
            RigidScaleTransform(np.eye(3) * 1.001, np.zeros(3))

    @pytest.mark.parametrize("rotation", [np.full((3, 3), np.nan), np.eye(3) * 1e200], ids=["nan", "huge"])
    def test_rejects_non_finite_and_huge_rotations_without_warning(self, rotation):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="orthonormal"):
                RigidScaleTransform(rotation, np.zeros(3))

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            RigidScaleTransform(np.eye(3), np.zeros(3), 0.0)

    def test_non_finite_result_raises(self):
        pc = PointCloud(np.array([[1e308, 0.0, 0.0]]))
        t = RigidScaleTransform(np.eye(3), np.zeros(3), 1e10)
        with np.errstate(over="ignore"), pytest.raises(InvalidTransformError):
            apply_transform(pc, t)

    def test_inverse_roundtrip(self, rng):
        for _ in range(20):
            t = RigidScaleTransform(
                rotation_about_axis(rng.standard_normal(3), rng.uniform(0, 2 * np.pi)),
                rng.standard_normal(3),
                float(rng.uniform(0.5, 2.0)),
            )
            pc = PointCloud(rng.uniform(-2, 2, (30, 3)))
            back = apply_transform(apply_transform(pc, t), t.inverse())
            np.testing.assert_allclose(back.points, pc.points, atol=1e-9)

    def test_distance_ratios_scale_exactly(self, rng):
        t = RigidScaleTransform(
            rotation_about_axis(rng.standard_normal(3), 1.2), rng.standard_normal(3), 1.7
        )
        p = rng.uniform(-1, 1, (40, 3))
        q = rng.uniform(-1, 1, (40, 3))
        before = np.linalg.norm(p - q, axis=1)
        after = np.linalg.norm(t.apply(p) - t.apply(q), axis=1)
        np.testing.assert_allclose(after, 1.7 * before, rtol=1e-9)


class TestNeighborIndex:
    # radius 20 exceeds every query distance here, so the bounded search
    # gives the unbounded nearest neighbour
    def test_single_point_cloud(self, rng):
        idx = build_index(PointCloud(np.array([[1.0, 2.0, 3.0]])), 20.0)
        found, _ = idx.nearest_many(rng.uniform(-5, 5, (5, 3)))
        np.testing.assert_array_equal(found, np.zeros(5))

    def test_self_queries_have_zero_distance(self, rng):
        pts = rng.uniform(-1, 1, (200, 3))
        idx = build_index(PointCloud(pts), 0.0)
        found, dist = idx.nearest_many(pts)
        np.testing.assert_array_equal(found, np.arange(200))
        assert dist.max() == 0.0

    def test_tie_breaks_to_lowest_index(self):
        pts = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
        idx = build_index(PointCloud(pts), 20.0)
        # query at x=... equidistant to rows 1 and 2; also equidistant duplicates
        found, _ = idx.nearest_many([0.0, 5.0, 0.0])
        assert found[0] == 0
        dup = np.array([[1.0, 1.0, 1.0]] * 4)
        idx2 = build_index(PointCloud(dup), 20.0)
        found, _ = idx2.nearest_many([9.0, 9.0, 9.0])
        assert found[0] == 0
        # equidistant points in different cells, the lower index in the higher cell
        for radius in (2.0, 2.5, 20.0):
            mirrored = build_index(PointCloud(np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])), radius)
            found, dist = mirrored.nearest_many([0.0, 0.0, 0.0])
            assert (found[0], dist[0]) == (0, 2.0)

    def test_matches_brute_force_exactly(self, rng):
        # radius above the largest query distance (sqrt(3) * 6.5): same index
        # and same distance bit pattern as the exhaustive oracle
        for _ in range(30):
            n = int(rng.integers(1, 2000))
            pc = PointCloud(rng.uniform(-3, 3, (n, 3)))
            idx = build_index(pc, 12.0)
            queries = rng.uniform(-3.5, 3.5, (30, 3))
            found, dist = idx.nearest_many(queries)
            assert list(zip(found.tolist(), dist.tolist())) == [brute_force_nearest(pc, q) for q in queries]

    def test_bytes_per_point_are_bounded(self, rng):
        # a surface at the radius's spacing, as voxel-subsampled views are
        ax = np.arange(60) * 0.025
        plane = np.stack(np.meshgrid(ax, ax, [0.0], indexing="ij"), axis=-1).reshape(-1, 3)
        assert build_index(PointCloud(plane), 0.025).nbytes <= 200 * len(plane)
        # scattered points, no two in one dilated cell: the documented bound
        scattered = rng.uniform(-1, 1, (2000, 3))
        assert build_index(PointCloud(scattered), 1e-4).nbytes <= 528 * len(scattered) + 4

    def test_build_is_pure(self, rng):
        pc = PointCloud(rng.uniform(-1, 1, (300, 3)))
        a, b = NeighborIndex(pc, 0.3), NeighborIndex(pc, 0.3)
        queries = rng.uniform(-1, 1, (50, 3))
        ia, da = a.nearest_many(queries)
        ib, db = b.nearest_many(queries)
        np.testing.assert_array_equal(ia, ib)
        np.testing.assert_array_equal(da, db)


def _bounded_oracle(pts, queries, radius):
    """`brute_force_nearest` per query, cut at `radius`."""
    pc = PointCloud(pts)
    out = [brute_force_nearest(pc, q) for q in queries]
    idx = np.array([i if d <= radius else -1 for i, d in out], dtype=np.int64)
    dist = np.array([d if d <= radius else np.inf for _, d in out])
    return idx, dist


def _reached_oracle(pts, queries, radius):
    """Per reference point: whether some query lies within `radius`, by
    `brute_force_nearest` over the queries."""
    qc = PointCloud(queries)
    return np.array([brute_force_nearest(qc, p)[1] <= radius for p in pts], dtype=bool)


def _assert_bounded_exact(pts, queries, radius):
    got_i, got_d = build_index(PointCloud(pts), radius).nearest_many(queries)
    want_i, want_d = _bounded_oracle(pts, queries, radius)
    np.testing.assert_array_equal(got_i, want_i)
    np.testing.assert_array_equal(got_d.view(np.int64), want_d.view(np.int64))


_lattice = st.lists(st.tuples(*[st.integers(-5, 5)] * 3), min_size=1, max_size=30)


class TestRadiusBoundedSearch:
    @settings(max_examples=300, deadline=None)
    @given(
        ref=_lattice,
        qry=_lattice,
        free=hnp.arrays(np.float64, st.tuples(st.integers(0, 8), st.just(3)),
                        elements=st.floats(-6.0, 6.0)),
        step=st.sampled_from([0.025, 0.05, 0.25, 1.0 / 3.0]),
        offset=st.sampled_from([0.0, 16.0, -16.0, 15.9875]),
        radius_steps=st.sampled_from([0.0, 0.5, 1.0, 2**0.5, 3**0.5, 2.0, 2.7]),
    )
    def test_matches_thresholded_brute_force(self, ref, qry, free, step, offset, radius_steps):
        # lattice points put many pairs at (or a rounding away from) exactly
        # the radius, along an axis or a diagonal, on both sides of cell edges
        # mirrored copies give exact ties in different cells
        pts = np.vstack([ref, np.negative(ref)]).astype(np.float64) * step + offset
        queries = np.vstack([np.array(qry, dtype=np.float64) * step, free * step]) + offset
        _assert_bounded_exact(pts, queries, radius_steps * step)

    @settings(max_examples=200, deadline=None)
    @given(
        ref=_lattice,
        first=_lattice,
        second=_lattice,
        step=st.sampled_from([0.025, 0.05, 0.25, 1.0 / 3.0]),
        offset=st.sampled_from([0.0, 16.0, -16.0, 15.9875]),
        radius_steps=st.sampled_from([0.0, 0.5, 1.0, 2**0.5, 3**0.5, 2.0, 2.7]),
        blocks=st.sampled_from([None, (1, 1), (3, 8), (7, 100)]),
    )
    def test_reached_matches_brute_force(self, ref, first, second, step, offset, radius_steps, blocks):
        # lattice distances of exactly the radius along an axis or a diagonal,
        # mirrored copies in different cells, and two calls ORing into one mask
        pts = np.vstack([ref, np.negative(ref)]).astype(np.float64) * step + offset
        q1, q2 = (np.array(q, dtype=np.float64) * step + offset for q in (first, second))
        radius = radius_steps * step
        reached = np.zeros(len(pts), dtype=bool)
        with pytest.MonkeyPatch.context() as mp:
            if blocks is not None:
                mp.setattr(geometry, "_QUERY_BLOCK", blocks[0])
                mp.setattr(geometry, "_MAX_CANDIDATES", blocks[1])
            index = build_index(PointCloud(pts), radius)
            index.nearest_many(q1, reached)
            want = _reached_oracle(pts, q1, radius)
            np.testing.assert_array_equal(reached, want)
            index.nearest_many(q2, reached)
        np.testing.assert_array_equal(reached, want | _reached_oracle(pts, q2, radius))

    def test_reached_must_fit_the_reference_points(self):
        index = build_index(PointCloud(np.zeros((3, 3))), 0.1)
        for bad in (np.zeros(2, dtype=bool), np.zeros(3), np.zeros((3, 1), dtype=bool)):
            with pytest.raises(ValueError):
                index.nearest_many(np.zeros((1, 3)), bad)

    @pytest.mark.parametrize("offset", [0.0, 16.0, -16.0])
    def test_exactly_radius_apart_is_included(self, offset):
        # a point on a cell edge and a query just below zero: the distance
        # rounds to exactly the radius, and the two sit two edges apart
        edge = PointCloud(np.array([[0.05, 0.0, 0.0]]))
        found, dist = build_index(edge, 0.05).nearest_many([-1e-18, 0.0, 0.0])
        assert (found[0], dist[0]) == (0, 0.05)
        base = np.array([[0.5, 0.25, -0.75]]) + offset
        for delta in ([0.25, 0.0, 0.0], [0.0, 0.0, -0.25], [0.3, 0.4, 0.0], [0.1, -0.2, 0.3]):
            q = base + np.array(delta)
            _, d = brute_force_nearest(PointCloud(base), q[0])
            found, dist = build_index(PointCloud(base), d).nearest_many(q)
            assert (found[0], dist[0]) == (0, d)
            found, dist = build_index(PointCloud(base), np.nextafter(d, 0.0)).nearest_many(q)
            assert (found[0], dist[0]) == (-1, np.inf)

    @pytest.mark.parametrize("offset", [0.0, 16.0, -16.0])
    def test_points_straddling_cell_edges(self, offset):
        radius = 0.05
        # the anchors fix max |p|, and so the cell edge, for the cloud below
        anchors = np.array([[offset - 1.0, 0.0, 0.0], [offset + 1.0, 0.0, 0.0]])
        cell = build_index(PointCloud(anchors), radius)._cell
        # one point near every other cell edge, so its only neighbour within
        # `radius` is the query made from it, one or more cells away
        edges = (np.floor((offset - 0.2) / cell) + 2 * np.arange(10)) * cell
        line = edges + np.resize([-1e-12, -1e-15, 0.0, 1e-15, 1e-12], 10)
        pts = np.vstack([anchors, np.stack([line, line - offset, line - offset], axis=1)])
        assert build_index(PointCloud(pts), radius)._cell == cell
        steps = radius * np.array(
            [[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [1.0, 1.0, 1.0] / np.sqrt(3), [-1.0, 1.0, -1.0] / np.sqrt(3)]
        )
        queries = (pts[:, None, :] + steps).reshape(-1, 3)
        _assert_bounded_exact(pts, queries, radius)

    def test_no_neighbour_gives_minus_one_and_inf(self, rng):
        idx = build_index(PointCloud(rng.uniform(0, 1, (50, 3))), 0.1)
        found, dist = idx.nearest_many(rng.uniform(0, 1, (20, 3)) + 5.0)
        np.testing.assert_array_equal(found, np.full(20, -1))
        assert np.isposinf(dist).all()
        found, dist = idx.nearest_many(np.empty((0, 3)))
        assert found.shape == dist.shape == (0,)

    def test_blocked_queries_match_unblocked(self, rng, monkeypatch):
        pts = rng.uniform(-1, 1, (300, 3))
        queries = rng.uniform(-1.2, 1.2, (200, 3))
        for radius in (0.15, 5.0):  # few candidates per query, then all of them
            want = build_index(PointCloud(pts), radius).nearest_many(queries)
            monkeypatch.setattr(geometry, "_QUERY_BLOCK", 7)
            monkeypatch.setattr(geometry, "_MAX_CANDIDATES", 100)
            got = build_index(PointCloud(pts), radius).nearest_many(queries)
            monkeypatch.undo()
            np.testing.assert_array_equal(got[0], want[0])
            np.testing.assert_array_equal(got[1], want[1])
            np.testing.assert_array_equal(got[0], _bounded_oracle(pts, queries, radius)[0])

    def test_rejects_negative_or_nan_radius(self):
        pc = PointCloud(np.zeros((1, 3)))
        for bad in (-0.1, float("nan")):
            with pytest.raises(ValueError):
                build_index(pc, bad)


class TestPly:
    @pytest.mark.parametrize("with_features", [True, False])
    def test_roundtrip(self, rng, with_features):
        feats = rng.standard_normal((20, 5)) if with_features else None
        pc = PointCloud(rng.uniform(-10, 10, (20, 3)), features=feats)
        buf = io.BytesIO()
        write_ply(pc, buf)
        buf.seek(0)
        back = read_ply(buf)
        # storage is float32
        np.testing.assert_allclose(back.points, pc.points, rtol=1e-6, atol=1e-5)
        if with_features:
            np.testing.assert_allclose(back.features, pc.features, rtol=1e-5, atol=1e-5)
        else:
            assert back.features is None

    def test_float32_values_roundtrip_exactly(self):
        pts = np.array([[0.5, -0.25, 1024.0], [3.0, 0.125, -2.5]])
        pc = PointCloud(pts)
        buf = io.BytesIO()
        write_ply(pc, buf)
        buf.seek(0)
        np.testing.assert_array_equal(read_ply(buf).points, pts)

    def test_rejects_bad_magic(self):
        with pytest.raises(FormatError):
            read_ply(io.BytesIO(b"not a ply\n"))

    def test_rejects_unknown_property_type(self):
        header = b"ply\nformat binary_little_endian 1.0\nelement vertex 1\nproperty double x\n"
        with pytest.raises(FormatError):
            read_ply(io.BytesIO(header + b"property float y\nproperty float z\nend_header\n" + bytes(12)))

    def test_rejects_truncated_binary(self):
        pc = PointCloud(np.zeros((4, 3)))
        buf = io.BytesIO()
        write_ply(pc, buf)
        data = buf.getvalue()[:-5]
        with pytest.raises(FormatError):
            read_ply(io.BytesIO(data))

    # each malformed header line once raised ValueError or IndexError; each
    # blob below fails on the line its id names, before the 12-byte payload
    _XYZ = b"property float x\nproperty float y\nproperty float z\nend_header\n" + bytes(12)
    _BLE = b"ply\nformat binary_little_endian 1.0\n"

    @pytest.mark.parametrize("blob, message", [
        (_BLE + b"element vertex many\n" + _XYZ, "is not an integer"),
        (_BLE + b"element vertex -3\n" + _XYZ, "negative PLY vertex count"),
        (b"ply\nformat\nelement vertex 1\n" + _XYZ, "too few fields"),
        (_BLE + b"element vertex\n" + _XYZ, "too few fields"),
        (_BLE + b"element vertex 1\nproperty float\n" + _XYZ, "too few fields"),
        (b"ply\nformat ascii 1.0\nelement vertex 1\n" + _XYZ, "unsupported PLY format 'ascii'"),
        (_BLE + b"comment \xff\nelement vertex 1\n" + _XYZ, "non-ASCII byte"),
    ], ids=["count-not-int", "negative-count-binary", "short-format", "short-element",
            "short-property", "ascii-format", "non-ascii-header"])
    def test_malformed_text_raises_format_error(self, blob, message):
        with pytest.raises(FormatError, match=message):
            read_ply(io.BytesIO(blob))


def _sq_dists_reference(a, b):
    """The unblocked expression `pairwise_sq_dists` must reproduce bit for bit."""
    sq = (a * a).sum(axis=1)[:, None] + (b * b).sum(axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.maximum(sq, 0.0)


class TestPairwiseSqDists:
    B = geometry._DIST_BLOCK_ROWS

    @pytest.mark.parametrize("rows", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_bitwise_equal_to_unblocked_expression(self, rng, rows):
        a = rng.standard_normal((rows, 32))
        b = rng.standard_normal((97, 32))
        b[5] = a[0] if rows else b[5]  # an exact zero distance, clamped the same way
        got = geometry.pairwise_sq_dists(a, b)
        want = _sq_dists_reference(a, b)
        assert got.shape == want.shape == (rows, 97)
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_one_buffer(self, rng):
        n, m = 1024, 2048
        a, b = rng.standard_normal((n, 16)), rng.standard_normal((m, 16))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = geometry.pairwise_sq_dists(a, b)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == (n, m)
        assert peak < 1.25 * n * m * 8


class TestNearestRows:
    @pytest.mark.parametrize("shape", [(1, 1), (200, 97), (1024, 1024), (534, 793)])
    def test_one_block_bitwise_equal_to_argmin(self, rng, shape):
        n, m = shape
        assert n * m <= geometry.BLOCK_ELEMENTS
        a, b = rng.standard_normal((n, 32)), rng.standard_normal((m, 32))
        b[m // 2] = b[0]  # an exact tie, resolved to the lower index
        a[0] = b[0]
        got = geometry.nearest_rows(a, b)
        np.testing.assert_array_equal(got, geometry.pairwise_sq_dists(a, b).argmin(axis=1))
        assert got[0] == 0

    @pytest.mark.parametrize("shape", [(1025, 1024), (2509, 3400), (3, geometry.BLOCK_ELEMENTS + 1)])
    def test_row_blocks_equal_argmin_without_near_ties(self, rng, shape):
        n, m = shape
        assert n * m > geometry.BLOCK_ELEMENTS
        # rows of b far apart relative to the noise on a: no near-ties
        b = rng.standard_normal((m, 3)) * 100.0
        a = b[rng.integers(0, m, n)] + rng.standard_normal((n, 3)) * 1e-3
        got = geometry.nearest_rows(a, b)
        np.testing.assert_array_equal(got, geometry.pairwise_sq_dists(a, b).argmin(axis=1))

    def test_peak_memory_is_row_blocks(self, rng):
        n, m = 4096, 8192  # a full distance matrix would be 256 MiB
        a, b = rng.standard_normal((n, 32)), rng.standard_normal((m, 32))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            got = geometry.nearest_rows(a, b)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert got.shape == (n,)
        assert peak < 32 * 2**20
