"""Sparse-tensor layer primitives with hand-written backward passes.

A convolution kernel has shape (K^3, Cin, Cout) with offsets enumerated
lexicographically over (dx, dy, dz).  The output feature at coordinate c is
sum_k W[k] . feat(c + offset_k); absent neighbors contribute nothing.  At
stride 1, K is odd and the offsets are centred, [-(K-1)/2, (K-1)/2]^3.
Stride-2 convolutions place outputs at the unique floor-halved input
coordinates, and the fine coordinate of coarse site c at tap k is
2c + offset_k.  For K = 2 the offsets are {0, 1}^3 (tap 4*dx + 2*dy + dz),
so every fine coordinate f sits in exactly one tap, the tap of its parities
f & 1, under its parent f >> 1; for odd K they are the centred offsets, and a
fine coordinate feeds up to K^3 coarse sites.  Transposed (upsampling)
convolutions scatter through the adjoint of that coordinate mapping onto the
finer coordinate set.

Every convolution runs through one entry point, `conv_forward(maps, feats,
kernel, n_out)`, and its adjoint `conv_backward(tape, d_out)`; the kernel map
alone says which convolution it is (`stride1_maps`, `stride2_maps`, or
`swap_maps` of a stride-2 map to upsample).  `sparse_conv_forward` is map
selection plus that call for a single voxel tensor.

The loop over a map's taps gathers rows with `ndarray.take`, runs one GEMM
per tap, and accumulates as `y += out[dst]; out[dst] = y`, which moves each
row once and equals `out[dst] += y` bit for bit (addition commutes).  The
identity tap (the centre of `stride1_maps`, and every 1-tap map) is the one
shared `all_rows` array as both dst and src; it runs as a plain GEMM on the
whole input, with no gather or scatter.  Every GEMM keeps the shape it has
in the plain loop `out[dst] += feats[src] @ W[k]`, whose results these are
bit for bit (OpenBLAS row results can change when GEMMs are stacked).

Conv, BN and ReLU compute in the dtype of their input features: `conv_apply`
and `conv_grads` allocate their outputs in it, and nothing here casts.  The
U-Net passes float32 features and float32 copies of its parameters; the
oracles and gradient checks pass float64 and stay exact.  Kernel and BN
parameters must come in the features' dtype, or numpy promotes silently.

Neighbor index maps depend only on coordinates, so they are built once per
coordinate set (`CoordContext`) and shared by every layer at that resolution.
Each map build is one batched sorted-key lookup over all its offsets.  Offset
K^3-1-k is the negation of offset k, so a stride-1 build looks up only the
offsets before the centre and takes each mirror map as the swapped pairs,
reordered by dst where the coordinates are not sorted by packed key.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import DegenerateBatchError
from ..voxel import SparseVoxelTensor, VoxelHashMap, pack_coords, unpack_coords


@functools.cache
def kernel_offsets(kernel_size: int) -> np.ndarray:
    """Centered lexicographic offsets, shape (kernel_size^3, 3).

    Built once per kernel size; every caller shares the one read-only array.
    """
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ValueError("kernel_size must be a positive odd integer")
    r = kernel_size // 2
    ax = np.arange(-r, r + 1, dtype=np.int64)
    grid = np.meshgrid(ax, ax, ax, indexing="ij")
    offs = np.stack([g.ravel() for g in grid], axis=1)
    offs.flags.writeable = False
    return offs


# One (dst, src) row-index pair per kernel offset.  dst indexes output rows,
# src input rows; both are duplicate-free within an offset, which makes
# fancy-indexed accumulation exact.
OffsetMaps = list[tuple[np.ndarray, np.ndarray]]


def _split_maps(src_rows: np.ndarray) -> OffsetMaps:
    """Per-offset (dst, src) maps from a (K, n_dst) table of source rows (-1: absent)."""
    maps = []
    for src in src_rows:
        dst = np.flatnonzero(src >= 0)
        maps.append((dst, src[dst]))
    return maps


def _mirror(dst: np.ndarray, src: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The map of offset -o from the map of offset o, ordered by ascending dst."""
    if src.size > 1 and (src[1:] < src[:-1]).any():
        order = np.argsort(src)
        return src[order], dst[order]
    return src, dst


class CoordContext:
    """Per-resolution coordinate bookkeeping shared by all layers at that level."""

    __slots__ = ("coords", "hash", "n", "_stride1_cache")

    def __init__(self, coords: np.ndarray):
        self.coords = np.ascontiguousarray(coords, dtype=np.int64)
        self.hash = VoxelHashMap(self.coords)  # duplicate check runs here
        self.n = self.coords.shape[0]
        self._stride1_cache: dict[int, OffsetMaps] = {}

    def stride1_maps(self, kernel_size: int) -> OffsetMaps:
        maps = self._stride1_cache.get(kernel_size)
        if maps is None:
            offs = kernel_offsets(kernel_size)
            half = offs.shape[0] // 2
            lower = _split_maps(self.hash.lookup(self.coords, offs[:half]).reshape(half, self.n))
            all_rows = np.arange(self.n, dtype=np.int64)
            maps = lower + [(all_rows, all_rows)] + [_mirror(*m) for m in reversed(lower)]
            self._stride1_cache[kernel_size] = maps
        return maps


def downsample_coords(coords: np.ndarray) -> np.ndarray:
    """Sorted unique floor-halved coordinates (stride-2 output sites)."""
    halved = coords >> 1  # arithmetic shift == floor division for int64
    return unpack_coords(np.unique(pack_coords(halved)))


def stride2_maps(fine: CoordContext, coarse: CoordContext, kernel_size: int) -> OffsetMaps:
    """(coarse row, fine row) pairs per offset: fine coord = 2*coarse + offset.

    Kernel 2 takes the offsets {0, 1}^3: each fine row's tap is its parity
    and its coarse row the lookup of its parent, one query per fine row.  Odd
    kernels take the centred offsets of `kernel_offsets`."""
    if kernel_size == 2:
        parity = fine.coords & 1
        taps = 4 * parity[:, 0] + 2 * parity[:, 1] + parity[:, 2]
        parents = coarse.hash.lookup(fine.coords >> 1)
        src_rows = np.full((8, coarse.n), -1, dtype=np.int64)
        rows = np.flatnonzero(parents >= 0)
        src_rows[taps[rows], parents[rows]] = rows
        return _split_maps(src_rows)
    offs = kernel_offsets(kernel_size)
    src_rows = fine.hash.lookup(coarse.coords << 1, offs)
    return _split_maps(src_rows.reshape(offs.shape[0], coarse.n))


def swap_maps(maps: OffsetMaps) -> OffsetMaps:
    return [(src, dst) for dst, src in maps]


def _is_identity(dst: np.ndarray, src: np.ndarray, n_in: int, n_out: int) -> bool:
    """Whether a tap maps every row onto itself: the shared `all_rows` array
    of `stride1_maps` (its centre tap, and every 1-tap map).  Decided by
    identity and row count, never by comparing index values."""
    return dst is src and dst.shape[0] == n_in == n_out


def conv_apply(maps: OffsetMaps, feats_in: np.ndarray, kernel: np.ndarray, n_out: int) -> np.ndarray:
    if kernel.shape[0] != len(maps) or kernel.shape[1] != feats_in.shape[1]:
        raise ValueError(
            f"kernel shape {kernel.shape} does not match {len(maps)} offsets "
            f"and {feats_in.shape[1]} input channels"
        )
    # C-contiguous like a gathered copy: a GEMM on a strided view can round differently
    feats_in = np.ascontiguousarray(feats_in)
    out = np.zeros((n_out, kernel.shape[2]), dtype=feats_in.dtype)
    for k, (dst, src) in enumerate(maps):
        if _is_identity(dst, src, feats_in.shape[0], n_out):
            out += feats_in @ kernel[k]
        elif dst.size:
            y = feats_in.take(src, axis=0) @ kernel[k]
            y += out.take(dst, axis=0)  # == out[dst] + y: addition commutes
            out[dst] = y
    return out


def conv_grads(
    maps: OffsetMaps, feats_in: np.ndarray, kernel: np.ndarray, d_out: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    feats_in = np.ascontiguousarray(feats_in)
    d_out = np.ascontiguousarray(d_out)
    d_in = np.zeros((feats_in.shape[0], kernel.shape[1]), dtype=feats_in.dtype)
    d_kernel = np.zeros_like(kernel)
    for k, (dst, src) in enumerate(maps):
        if _is_identity(dst, src, feats_in.shape[0], d_out.shape[0]):
            d_in += d_out @ kernel[k].T
            d_kernel[k] = feats_in.T @ d_out
        elif dst.size:
            g = d_out.take(dst, axis=0)
            y = g @ kernel[k].T
            y += d_in.take(src, axis=0)
            d_in[src] = y
            d_kernel[k] = feats_in.take(src, axis=0).T @ g
    return d_in, d_kernel


class SingleUse:
    """The guard every tape shares: one backward pass may consume it."""

    used = False

    def consume(self) -> None:
        if self.used:
            raise RuntimeError(f"{type(self).__name__} already consumed by a backward pass")
        self.used = True


@dataclass
class ConvTape(SingleUse):
    maps: OffsetMaps
    feats_in: np.ndarray
    kernel: np.ndarray


def conv_forward(
    maps: OffsetMaps, feats_in: np.ndarray, kernel: np.ndarray, n_out: int
) -> tuple[np.ndarray, ConvTape]:
    """The one convolution entry point: output features over `n_out` rows
    plus the tape its backward needs.  `maps` selects the convolution:
    `stride1_maps`, `stride2_maps`, or `swap_maps` of the latter to upsample."""
    out = conv_apply(maps, feats_in, kernel, n_out)
    return out, ConvTape(maps, feats_in, kernel)


def conv_backward(tape: ConvTape, d_out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact adjoint of conv_forward: (input grads, kernel grads)."""
    tape.consume()
    return conv_grads(tape.maps, tape.feats_in, tape.kernel, d_out)


def sparse_conv_forward(
    inp: SparseVoxelTensor, kernel: np.ndarray, stride: int = 1
) -> tuple[SparseVoxelTensor, ConvTape]:
    """Sparse convolution over a voxel tensor, building its maps for this call.

    Stride 1 preserves the coordinate set; stride 2 outputs the unique
    floor-halved coordinates.
    """
    if stride not in (1, 2):
        raise ValueError("stride must be 1 or 2")
    kernel_size = round(kernel.shape[0] ** (1 / 3))
    if kernel_size**3 != kernel.shape[0]:
        raise ValueError(f"kernel has {kernel.shape[0]} taps, not a perfect cube")
    ctx_in = CoordContext(inp.coords)
    if stride == 1:
        ctx_out = ctx_in
        maps = ctx_in.stride1_maps(kernel_size)
    else:
        ctx_out = CoordContext(downsample_coords(inp.coords))
        maps = stride2_maps(ctx_in, ctx_out, kernel_size)
    out, tape = conv_forward(maps, inp.features, kernel, ctx_out.n)
    return SparseVoxelTensor(ctx_out.coords, out, inp.voxel_size), tape


@dataclass(frozen=True)
class BnStats:
    """The batch statistics of one train-mode BN call: all that the running
    statistics need, kept apart so they outlive the tape."""

    mean: np.ndarray
    var_unbiased: np.ndarray


@dataclass
class BnTape(SingleUse):
    mode: str
    xhat: np.ndarray
    inv_std: np.ndarray
    gamma: np.ndarray
    stats: BnStats | None = None  # None in eval mode


def batch_norm_forward(
    feats: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    mode: str,
    eps: float = 1e-5,
) -> tuple[np.ndarray, BnTape]:
    """Per-channel normalization over active sites.

    Train mode normalizes with batch statistics and records them on the tape
    (callers fold them into the running statistics between steps; the
    parameter registry itself is never mutated here).  Eval mode normalizes
    with the running statistics.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got '{mode}'")
    if mode == "train":
        n = feats.shape[0]
        if n < 2:
            raise DegenerateBatchError("batch norm in train mode needs >= 2 active sites")
        mean = feats.mean(axis=0)
        d = feats - mean
        var = (d * d).sum(axis=0) / n  # == feats.var(axis=0), bit for bit
        inv_std = 1.0 / np.sqrt(var + eps)
        xhat = d * inv_std
        tape = BnTape("train", xhat, inv_std, gamma, BnStats(mean, var * n / (n - 1)))
    else:
        inv_std = 1.0 / np.sqrt(running_var + eps)
        xhat = (feats - running_mean) * inv_std
        tape = BnTape("eval", xhat, inv_std, gamma)
    return gamma * xhat + beta, tape


def batch_norm_backward(tape: BnTape, d_out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(input grads, gamma grads, beta grads)."""
    tape.consume()
    d_beta = d_out.sum(axis=0)
    d_gamma = (d_out * tape.xhat).sum(axis=0)
    d_xhat = d_out * tape.gamma
    if tape.mode == "train":
        # inv_std / n * (n * d_xhat - s1 - xhat * s2), bit for bit, in d_xhat's buffer
        n = d_out.shape[0]
        s1 = d_xhat.sum(axis=0)
        s2 = (d_xhat * tape.xhat).sum(axis=0)
        d_xhat *= n
        d_xhat -= s1
        d_xhat -= tape.xhat * s2
        d_xhat *= tape.inv_std / n
        return d_xhat, d_gamma, d_beta
    return d_xhat * tape.inv_std, d_gamma, d_beta


def relu_forward(feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """max(feats, 0) and the mask feats > 0.  The output is bitwise
    np.where(feats > 0, feats, 0.0): fmax maps NaN to 0, and adding 0.0
    turns -0.0 into +0.0."""
    out = np.fmax(feats, 0.0)
    out += 0.0
    return out, feats > 0


def relu_backward(mask: np.ndarray, d_out: np.ndarray) -> np.ndarray:
    """d_out where the mask holds, +0.0 elsewhere: bitwise
    np.where(mask, d_out, 0.0).  The float bits are multiplied as unsigned
    integers by the 0/1 mask, which avoids the branch mispredictions that
    np.where takes on a random mask."""
    uint = np.dtype(f"u{d_out.itemsize}")
    return np.multiply(d_out.view(uint), mask, dtype=uint).view(d_out.dtype)
