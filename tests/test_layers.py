import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from pointpair.errors import DegenerateBatchError
from pointpair.net.layers import (
    CoordContext,
    batch_norm_backward,
    batch_norm_forward,
    downsample_coords,
    kernel_offsets,
    conv_backward,
    conv_forward,
    relu_backward,
    relu_forward,
    sparse_conv_forward,
    stride2_maps,
    swap_maps,
    updated_running_stats,
)
from pointpair.verify import dense_conv_oracle, random_coords
from pointpair.voxel import SparseVoxelTensor


def _tensor(rng, n=30, cin=3, extent=8):
    coords = random_coords(rng, n, extent)
    return SparseVoxelTensor(coords, rng.standard_normal((n, cin)), 1.0)


class TestKernelOffsets:
    def test_shape_and_order(self):
        offs = kernel_offsets(3)
        assert offs.shape == (27, 3)
        np.testing.assert_array_equal(offs[0], [-1, -1, -1])
        np.testing.assert_array_equal(offs[13], [0, 0, 0])
        np.testing.assert_array_equal(offs[-1], [1, 1, 1])

    def test_rejects_even_kernel(self):
        with pytest.raises(ValueError):
            kernel_offsets(2)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_cached_read_only_and_equal_to_fresh_build(self, k):
        offs = kernel_offsets(k)
        assert kernel_offsets(k) is offs
        assert not offs.flags.writeable
        with pytest.raises(ValueError):
            offs[0, 0] = 7
        r = range(-(k // 2), k // 2 + 1)
        fresh = np.array(list(itertools.product(r, r, r)), dtype=np.int64)
        assert offs.dtype == fresh.dtype and np.array_equal(offs, fresh)


class TestSparseConv:
    def test_center_tap_identity_kernel(self, rng):
        t = _tensor(rng, cin=4)
        kernel = np.zeros((27, 4, 4))
        kernel[13] = np.eye(4)
        out, _ = sparse_conv_forward(t, kernel, 1)
        np.testing.assert_array_equal(out.features, t.features)
        np.testing.assert_array_equal(out.coords, t.coords)

    def test_isolated_point_sees_only_center_tap(self, rng):
        coords = np.array([[0, 0, 0]], dtype=np.int64)
        feats = rng.standard_normal((1, 3))
        kernel = rng.standard_normal((27, 3, 2))
        out, _ = sparse_conv_forward(SparseVoxelTensor(coords, feats, 1.0), kernel, 1)
        np.testing.assert_allclose(out.features, feats @ kernel[13])

    def test_matches_dense_grid_oracle(self, rng):
        for _ in range(10):
            n = int(rng.integers(4, 50))
            t = _tensor(rng, n=n, cin=int(rng.integers(1, 4)), extent=6)
            kernel = rng.standard_normal((27, t.feature_dim, 3))
            out, _ = sparse_conv_forward(t, kernel, 1)
            want = dense_conv_oracle(t.coords, t.features, kernel, 3)
            np.testing.assert_allclose(out.features, want, atol=1e-12)

    def test_stride2_output_coordinates(self, rng):
        t = _tensor(rng, n=40)
        kernel = rng.standard_normal((27, 3, 2))
        out, _ = sparse_conv_forward(t, kernel, 2)
        np.testing.assert_array_equal(out.coords, downsample_coords(t.coords))
        assert out.features.shape == (len(out.coords), 2)

    def test_floor_halving_for_negatives(self):
        coords = np.array([[-1, -2, 3]], dtype=np.int64)
        np.testing.assert_array_equal(downsample_coords(coords), [[-1, -1, 1]])

    def test_linearity(self, rng):
        t = _tensor(rng, cin=2)
        a = rng.standard_normal(t.features.shape)
        b = rng.standard_normal(t.features.shape)
        kernel = rng.standard_normal((27, 2, 3))
        out = lambda f: sparse_conv_forward(t.replace_features(f), kernel, 1)[0].features
        np.testing.assert_allclose(out(a + b), out(a) + out(b), atol=1e-9)
        np.testing.assert_allclose(out(2.5 * a), 2.5 * out(a), atol=1e-9)

    def test_zero_upstream_gives_zero_grads(self, rng):
        t = _tensor(rng)
        kernel = rng.standard_normal((27, 3, 2))
        out, tape = sparse_conv_forward(t, kernel, 1)
        d_in, d_k = conv_backward(tape, np.zeros_like(out.features))
        assert not d_in.any() and not d_k.any()

    def test_identity_kernel_backward_passes_gradient_through(self, rng):
        t = _tensor(rng, cin=4)
        kernel = np.zeros((27, 4, 4))
        kernel[13] = np.eye(4)
        out, tape = sparse_conv_forward(t, kernel, 1)
        upstream = rng.standard_normal(out.features.shape)
        d_in, _ = conv_backward(tape, upstream)
        np.testing.assert_array_equal(d_in, upstream)

    def test_tape_reuse_rejected(self, rng):
        t = _tensor(rng)
        kernel = rng.standard_normal((27, 3, 2))
        out, tape = sparse_conv_forward(t, kernel, 1)
        conv_backward(tape, np.zeros_like(out.features))
        with pytest.raises(RuntimeError):
            conv_backward(tape, np.zeros_like(out.features))

    def test_eight_tap_kernel_at_stride1_rejected(self, rng):
        with pytest.raises(ValueError):
            sparse_conv_forward(_tensor(rng), np.zeros((8, 3, 2)), 1)

    def test_eight_tap_kernel_at_stride2_gives_each_fine_row_one_tap(self, rng):
        t = _tensor(rng, cin=2)
        kernel = rng.standard_normal((8, 2, 3))
        out, _ = sparse_conv_forward(t, kernel, 2)
        np.testing.assert_array_equal(out.coords, downsample_coords(t.coords))
        parity = t.coords & 1
        taps = 4 * parity[:, 0] + 2 * parity[:, 1] + parity[:, 2]
        want = np.zeros_like(out.features)
        rows = {tuple(c): r for r, c in enumerate(out.coords.tolist())}
        for i, c in enumerate((t.coords >> 1).tolist()):
            want[rows[tuple(c)]] += t.features[i] @ kernel[taps[i]]
        np.testing.assert_allclose(out.features, want, rtol=1e-12, atol=1e-12)

    def test_channel_mismatch_rejected(self, rng):
        t = _tensor(rng, cin=3)
        with pytest.raises(ValueError):
            sparse_conv_forward(t, np.zeros((27, 4, 2)), 1)


def _upsample(coarse_coords, feats, kernel, fine_coords):
    """Transposed convolution: the swapped stride-2 map through the one entry point."""
    fine = CoordContext(fine_coords)
    maps = swap_maps(stride2_maps(fine, CoordContext(coarse_coords), 3))
    return conv_forward(maps, feats, kernel, fine.n)


class TestTransposeConv:
    def test_down_up_roundtrip_restores_coordinates(self, rng):
        t = _tensor(rng, n=1, cin=2)
        kernel_d = rng.standard_normal((27, 2, 3))
        down, _ = sparse_conv_forward(t, kernel_d, 2)
        kernel_u = rng.standard_normal((27, 3, 2))
        up, _ = _upsample(down.coords, down.features, kernel_u, t.coords)
        assert up.shape == t.features.shape
        # one fine site: only the tap at its offset from twice its coarse site reaches it
        tap = int(np.flatnonzero((kernel_offsets(3) == t.coords[0] - 2 * down.coords[0]).all(1))[0])
        np.testing.assert_allclose(up, down.features @ kernel_u[tap], atol=1e-12)

    def test_linearity(self, rng):
        fine = _tensor(rng, n=40, cin=1)
        coarse_coords = downsample_coords(fine.coords)
        kernel = rng.standard_normal((27, 2, 3))
        a = rng.standard_normal((len(coarse_coords), 2))
        b = rng.standard_normal((len(coarse_coords), 2))
        up = lambda f: _upsample(coarse_coords, f, kernel, fine.coords)[0]
        np.testing.assert_allclose(up(a + b), up(a) + up(b), atol=1e-9)

    def test_backward_is_exact_adjoint(self, rng):
        fine = _tensor(rng, n=35, cin=1)
        coarse_coords = downsample_coords(fine.coords)
        kernel = rng.standard_normal((27, 2, 4))
        x = rng.standard_normal((len(coarse_coords), 2))
        out, tape = _upsample(coarse_coords, x, kernel, fine.coords)
        y = rng.standard_normal(out.shape)
        d_in, _ = conv_backward(tape, y)
        # <y, A x> == <A^T y, x>
        np.testing.assert_allclose((y * out).sum(), (d_in * x).sum(), rtol=1e-12)


class TestBatchNorm:
    def test_constant_channel_maps_to_beta(self, rng):
        feats = np.full((20, 3), 7.0)
        gamma = np.ones(3)
        beta = np.array([0.5, -1.0, 2.0])
        out, _ = batch_norm_forward(feats, gamma, beta, np.zeros(3), np.ones(3), "train")
        np.testing.assert_allclose(out, np.tile(beta, (20, 1)), atol=1e-12)

    def test_standardized_input_nearly_unchanged(self, rng):
        x = rng.standard_normal((400, 2))
        x = (x - x.mean(0)) / x.std(0)
        out, _ = batch_norm_forward(x, np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), "train")
        np.testing.assert_allclose(out, x, atol=1e-4)

    def test_single_site_train_mode_rejected(self):
        with pytest.raises(DegenerateBatchError):
            batch_norm_forward(np.ones((1, 2)), np.ones(2), np.zeros(2),
                               np.zeros(2), np.ones(2), "train")

    def test_eval_mode_uses_running_stats(self, rng):
        feats = rng.standard_normal((10, 2)) + 5.0
        rm, rv = np.array([5.0, 5.0]), np.array([1.0, 1.0])
        out, _ = batch_norm_forward(feats, np.ones(2), np.zeros(2), rm, rv, "eval", eps=0.0)
        np.testing.assert_allclose(out, feats - 5.0, atol=1e-12)

    def test_running_stat_update_rule(self, rng):
        feats = rng.standard_normal((50, 3)) * 2 + 1
        _, tape = batch_norm_forward(feats, np.ones(3), np.zeros(3), np.zeros(3), np.ones(3), "train")
        new_mean, new_var = updated_running_stats(tape.stats, np.zeros(3), np.ones(3), 0.1)
        np.testing.assert_allclose(new_mean, 0.1 * feats.mean(0), atol=1e-12)
        np.testing.assert_allclose(new_var, 0.9 + 0.1 * feats.var(0, ddof=1), atol=1e-12)

    def test_train_mode_bitwise_equal_to_var_and_centring(self, rng):
        for _ in range(60):
            n, c = int(rng.integers(2, 3000)), int(rng.integers(1, 70))
            feats = rng.standard_normal((n, c)) * rng.uniform(0.01, 100.0) + rng.uniform(-50, 50)
            gamma, beta = rng.uniform(0.5, 1.5, c), rng.standard_normal(c)
            out, tape = batch_norm_forward(feats, gamma, beta, np.zeros(c), np.ones(c), "train")
            mean = feats.mean(axis=0)
            var = feats.var(axis=0)
            inv_std = 1.0 / np.sqrt(var + 1e-5)
            xhat = (feats - mean) * inv_std
            assert tape.inv_std.tobytes() == inv_std.tobytes()
            assert tape.xhat.tobytes() == xhat.tobytes()
            assert out.tobytes() == (gamma * xhat + beta).tobytes()
            assert tape.stats.mean.tobytes() == mean.tobytes()
            assert tape.stats.var_unbiased.tobytes() == (var * n / (n - 1)).tobytes()

    def test_backward_beta_gamma_sums(self, rng):
        feats = rng.standard_normal((30, 4))
        gamma = rng.uniform(0.5, 1.5, 4)
        out, tape = batch_norm_forward(feats, gamma, np.zeros(4), np.zeros(4), np.ones(4), "train")
        upstream = rng.standard_normal(out.shape)
        _, d_gamma, d_beta = batch_norm_backward(tape, upstream)
        np.testing.assert_allclose(d_beta, upstream.sum(0), atol=1e-12)
        np.testing.assert_allclose(d_gamma, (upstream * tape.xhat).sum(0), atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_backward_bitwise_equal_to_expression(self, rng, dtype, mode):
        n, c = 500, 7
        feats = (rng.standard_normal((n, c)) * 3 + 1).astype(dtype)
        gamma, beta = rng.uniform(0.5, 1.5, c).astype(dtype), rng.standard_normal(c).astype(dtype)
        rm, rv = rng.standard_normal(c).astype(dtype), rng.uniform(0.5, 2.0, c).astype(dtype)
        upstream = rng.standard_normal((n, 2 * c)).astype(dtype)
        upstream[:5, 0] = -0.0
        upstream[7, 1] = np.nan  # poisons channel 1 alike on both sides
        d_out = upstream[:, :c]  # a strided view, as the decoder hands a skip's share on
        _, tape = batch_norm_forward(feats, gamma, beta, rm, rv, mode)
        got, d_gamma, d_beta = batch_norm_backward(tape, d_out)
        d_xhat = d_out * gamma
        if mode == "train":
            want = tape.inv_std / n * (n * d_xhat - d_xhat.sum(axis=0)
                                       - tape.xhat * (d_xhat * tape.xhat).sum(axis=0))
        else:
            want = d_xhat * tape.inv_std
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert d_beta.tobytes() == d_out.sum(axis=0).tobytes()
        assert d_gamma.tobytes() == (d_out * tape.xhat).sum(axis=0).tobytes()


class TestRelu:
    def test_forward_clamps_negatives(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        out, mask = relu_forward(x)
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])
        np.testing.assert_array_equal(mask, [[False, False, True]])

    @settings(max_examples=200, deadline=None)
    @example(np.array([[np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308]]))
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                      elements=st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
                      | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan])))
    def test_forward_bitwise_equal_to_where(self, x):
        out, mask = relu_forward(x)
        want = np.where(x > 0, x, 0.0)
        assert out.dtype == want.dtype and out.tobytes() == want.tobytes()
        assert mask.dtype == bool and np.array_equal(mask, x > 0)

    def test_gradient_mask_equals_positivity(self, rng):
        x = rng.standard_normal((10, 5))
        _, mask = relu_forward(x)
        upstream = rng.standard_normal((10, 5))
        np.testing.assert_array_equal(relu_backward(mask, upstream), np.where(x > 0, upstream, 0.0))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_bitwise_equal_to_where(self, rng, dtype):
        specials = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -1.5]
        upstream = rng.standard_normal((300, 24)).astype(dtype)
        upstream[:, :8] = np.array(specials, dtype=dtype)
        mask = rng.random((300, 24)) > 0.5
        mask[:2, :8] = [[True] * 8, [False] * 8]  # every special both kept and masked
        for d_out, m in ((upstream, mask), (upstream[:, :12], mask[:, :12])):  # and a strided view
            got = relu_backward(m, d_out)
            want = np.where(m, d_out, 0.0)
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()


class TestCoordContext:
    def test_stride1_maps_cached_and_correct(self, rng):
        coords = random_coords(rng, 25, extent=5)
        ctx = CoordContext(coords)
        maps1 = ctx.stride1_maps(3)
        assert ctx.stride1_maps(3) is maps1
        dst, src = maps1[13]  # center offset
        np.testing.assert_array_equal(dst, np.arange(25))
        np.testing.assert_array_equal(src, np.arange(25))
        for k, (dst, src) in enumerate(maps1):
            if dst.size:
                np.testing.assert_array_equal(
                    coords[dst] + kernel_offsets(3)[k], coords[src]
                )


def _reference_maps(out_coords, in_coords, offs, scale=1):
    """Per offset, every (out row, in row) with in = scale * out + offset, by out row."""
    rows = {tuple(c): r for r, c in enumerate(in_coords.tolist())}
    maps = []
    for o in offs.tolist():
        pairs = [
            (i, rows[q])
            for i, c in enumerate(out_coords.tolist())
            if (q := tuple(scale * a + b for a, b in zip(c, o))) in rows
        ]
        maps.append(np.array(pairs, dtype=np.int64).reshape(-1, 2))
    return maps


def _assert_maps_equal(got, want):
    assert len(got) == len(want)
    for (dst, src), ref in zip(got, want):
        assert dst.dtype == np.int64 and src.dtype == np.int64
        np.testing.assert_array_equal(dst, ref[:, 0])
        np.testing.assert_array_equal(src, ref[:, 1])


def _coord_sets(rng):
    """Sorted (as every U-Net level) and shuffled coordinate sets, dense and sparse."""
    for n, extent in ((60, 5), (200, 7), (40, 12)):
        coords = random_coords(rng, n, extent) + rng.integers(-500, 500, 3)
        ordered = coords[np.lexsort(coords.T[::-1])]
        yield ordered
        yield ordered[rng.permutation(n)]


class TestMapsAgainstReference:
    @pytest.mark.parametrize("kernel_size", [1, 3, 5])
    def test_stride1(self, rng, kernel_size):
        for coords in _coord_sets(rng):
            got = CoordContext(coords).stride1_maps(kernel_size)
            _assert_maps_equal(got, _reference_maps(coords, coords, kernel_offsets(kernel_size)))

    @pytest.mark.parametrize("kernel_size", [1, 3])
    def test_stride2_and_transpose(self, rng, kernel_size):
        offs = kernel_offsets(kernel_size)
        for fine in _coord_sets(rng):
            coarse = downsample_coords(fine)
            for coarse_rows in (coarse, coarse[rng.permutation(len(coarse))]):
                want = _reference_maps(coarse_rows, fine, offs, scale=2)
                got = stride2_maps(CoordContext(fine), CoordContext(coarse_rows), kernel_size)
                _assert_maps_equal(got, want)
                _assert_maps_equal(swap_maps(got), [ref[:, ::-1] for ref in want])

    def test_stride2_kernel2_and_transpose(self, rng):
        offs = np.array(list(itertools.product((0, 1), repeat=3)), dtype=np.int64)
        for fine in _coord_sets(rng):
            coarse = downsample_coords(fine)
            for coarse_rows in (coarse, coarse[rng.permutation(len(coarse))]):
                want = _reference_maps(coarse_rows, fine, offs, scale=2)
                got = stride2_maps(CoordContext(fine), CoordContext(coarse_rows), 2)
                _assert_maps_equal(got, want)
                _assert_maps_equal(swap_maps(got), [ref[:, ::-1] for ref in want])

    def test_stride2_kernel2_puts_each_fine_row_in_its_parity_tap(self, rng):
        for fine in _coord_sets(rng):
            coarse = downsample_coords(fine)
            coarse_rows = coarse[rng.permutation(len(coarse))]
            parent_row = {tuple(c): r for r, c in enumerate(coarse_rows.tolist())}
            maps = stride2_maps(CoordContext(fine), CoordContext(coarse_rows), 2)
            tap_of = np.full(len(fine), -1)
            for k, (dst, src) in enumerate(maps):
                assert (tap_of[src] == -1).all()  # no fine row in two taps
                tap_of[src] = k
                want = [parent_row[tuple(c)] for c in (fine[src] >> 1).tolist()]
                np.testing.assert_array_equal(dst, want)
            parity = fine & 1
            np.testing.assert_array_equal(tap_of, 4 * parity[:, 0] + 2 * parity[:, 1] + parity[:, 2])

    def test_packing_limit(self):
        limit = 1 << 20
        # one step past +2^20 - 1 in z would borrow into y and find (0, 1, -2^20)
        at_limit = np.array([[0, 0, limit - 1], [0, 1, -limit]], dtype=np.int64)
        with pytest.raises(ValueError):
            CoordContext(at_limit).stride1_maps(3)
        inside = np.array(
            [[0, 0, limit - 2], [0, 1, -limit + 1], [0, 0, limit - 3], [1, 1, -limit + 1]],
            dtype=np.int64,
        )
        got = CoordContext(inside).stride1_maps(3)
        _assert_maps_equal(got, _reference_maps(inside, inside, kernel_offsets(3)))
