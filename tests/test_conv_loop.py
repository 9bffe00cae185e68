"""The gather-GEMM-scatter loop is bitwise equal to its plain fancy-indexing form.

`conv_apply` and `conv_grads` gather with `np.take`, accumulate a tap as
`y += out[dst]; out[dst] = y` and run the identity tap without any gather or
scatter.  Each of these must leave every output bit as the loop below, kept
here as the reference, produced it.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pointpair.net.layers import (
    CoordContext,
    conv_apply,
    conv_grads,
    downsample_coords,
    stride2_maps,
    swap_maps,
)
from pointpair.verify import random_coords


def _reference_apply(maps, feats_in, kernel, n_out):
    out = np.zeros((n_out, kernel.shape[2]))
    for k, (dst, src) in enumerate(maps):
        if dst.size:
            out[dst] += feats_in[src] @ kernel[k]
    return out


def _reference_grads(maps, feats_in, kernel, d_out, n_in):
    d_in = np.zeros((n_in, kernel.shape[1]))
    d_kernel = np.zeros_like(kernel)
    for k, (dst, src) in enumerate(maps):
        if dst.size:
            g = d_out[dst]
            d_in[src] += g @ kernel[k].T
            d_kernel[k] = feats_in[src].T @ g
    return d_in, d_kernel


def _maps(kind, rng, n, extent):
    """(maps, n_in, n_out) of one kind of convolution on random coordinates."""
    fine = CoordContext(random_coords(rng, min(n, extent**3), extent))
    coarse = CoordContext(downsample_coords(fine.coords))
    if kind == "stride1":
        return fine.stride1_maps(3), fine.n, fine.n
    if kind == "one_tap":
        return fine.stride1_maps(1), fine.n, fine.n
    if kind == "stride2":
        return stride2_maps(fine, coarse, 3), fine.n, coarse.n
    if kind == "transpose":
        return swap_maps(stride2_maps(fine, coarse, 3)), coarse.n, fine.n
    if kind == "stride2_k2":  # the U-Net's down and up maps
        return stride2_maps(fine, coarse, 2), fine.n, coarse.n
    if kind == "transpose_k2":
        return swap_maps(stride2_maps(fine, coarse, 2)), coarse.n, fine.n
    # a stride-1 map with some taps emptied, the identity among them kept
    maps = list(fine.stride1_maps(3))
    empty = np.zeros(0, dtype=np.int64)
    for k in rng.choice(len(maps), size=len(maps) // 2, replace=False):
        if k != len(maps) // 2:
            maps[k] = (empty, empty)
    return maps, fine.n, fine.n


def _features(rng, rows, cols, sliced):
    """Random features; `sliced` returns the left columns of a wider array,
    a view that is not C-contiguous (as `d_x[:, :c]` in the U-Net backward)."""
    if not sliced:
        return rng.standard_normal((rows, cols))
    return rng.standard_normal((rows, cols + 3))[:, :cols]


@settings(max_examples=84, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(
        ["stride1", "one_tap", "stride2", "transpose", "stride2_k2", "transpose_k2", "sparse_taps"]
    ),
    n=st.integers(1, 120),
    extent=st.integers(2, 9),
    cin=st.integers(1, 9),
    cout=st.integers(1, 9),
    sliced_in=st.booleans(),
    sliced_out=st.booleans(),
)
def test_loop_matches_reference_bitwise(seed, kind, n, extent, cin, cout, sliced_in, sliced_out):
    rng = np.random.default_rng(seed)
    maps, n_in, n_out = _maps(kind, rng, n, extent)
    kernel = rng.standard_normal((len(maps), cin, cout))
    feats = _features(rng, n_in, cin, sliced_in)
    d_out = _features(rng, n_out, cout, sliced_out)

    got = conv_apply(maps, feats, kernel, n_out)
    assert got.tobytes() == _reference_apply(maps, feats, kernel, n_out).tobytes()
    d_in, d_kernel = conv_grads(maps, feats, kernel, d_out, n_in)
    want_in, want_kernel = _reference_grads(maps, feats, kernel, d_out, n_in)
    assert d_in.tobytes() == want_in.tobytes()
    assert d_kernel.tobytes() == want_kernel.tobytes()


def test_all_taps_empty_gives_zeros():
    empty = np.zeros(0, dtype=np.int64)
    maps = [(empty, empty)] * 27
    kernel = np.ones((27, 2, 3))
    feats = np.ones((4, 2))
    assert not conv_apply(maps, feats, kernel, 5).any()
    d_in, d_kernel = conv_grads(maps, feats, kernel, np.ones((5, 3)), 4)
    assert not d_in.any() and not d_kernel.any()


def test_equal_but_distinct_index_arrays_take_the_gather_path():
    """Only the shared array marks the identity tap: a tap whose dst and src
    hold equal values in two arrays is gathered and scattered like any other,
    with the same result."""
    rng = np.random.default_rng(3)
    rows = np.arange(6, dtype=np.int64)
    feats = rng.standard_normal((6, 2))
    kernel = rng.standard_normal((1, 2, 4))
    shared = conv_apply([(rows, rows)], feats, kernel, 6)
    distinct = conv_apply([(rows, rows.copy())], feats, kernel, 6)
    assert shared.tobytes() == distinct.tobytes() == _reference_apply([(rows, rows)], feats, kernel, 6).tobytes()
