"""Sparse residual U-Net producing one feature vector per input voxel.

Encoder: a stem convolution, then per level a stack of residual basic blocks
followed by a stride-2 convolution down to the next level.  Decoder: per
level a transposed convolution back onto the stored finer coordinates,
concatenation with the encoder skip, and a residual block stack.  Every
convolution is followed by batch normalization and ReLU except the final
1-tap head that projects to the output feature width.  Convolutions carry no
bias (the normalization shift absorbs it).

The output coordinate set always equals the input coordinate set, row for
row.  Forward passes never mutate the parameter registry; batch-norm batch
statistics ride on the tape and are folded into the running statistics by
`commit_bn_stats` between optimizer steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import ConfigMixin
from ..voxel import SparseVoxelTensor
from .layers import (
    BnTape,
    CoordContext,
    OffsetMaps,
    batch_norm_backward,
    batch_norm_forward,
    conv_apply,
    conv_grads,
    downsample_coords,
    relu_backward,
    relu_forward,
    stride2_maps,
    swap_maps,
    updated_running_stats,
)
from .params import GradientSet, ParameterSet, is_trainable


@dataclass(frozen=True)
class UNetConfig(ConfigMixin):
    """Desk-scale topology knobs for the sparse residual U-Net."""

    levels: int = 3
    channels: tuple[int, ...] = (16, 32, 64)
    blocks_per_level: int = 1
    kernel_size: int = 3
    in_dim: int = 1
    out_dim: int = 32
    bn_epsilon: float = 1e-5
    bn_momentum: float = 0.1

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")
        if len(self.channels) != self.levels:
            raise ValueError("need one channel count per level")
        if any(c < 1 for c in self.channels):
            raise ValueError("all channel counts must be >= 1")
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError("kernel_size must be odd")
        if self.blocks_per_level < 1 or self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("blocks_per_level, in_dim and out_dim must be >= 1")


class _ConvBnRelu:
    """conv -> BN -> ReLU unit; `taps` is the kernel tap count."""

    def __init__(self, name: str, taps: int, cin: int, cout: int):
        self.kernel_key = f"{name}.kernel"
        self.gamma_key = f"{name}.bn.gamma"
        self.beta_key = f"{name}.bn.beta"
        self.mean_key = f"{name}.bn.running_mean"
        self.var_key = f"{name}.bn.running_var"
        self.taps = taps
        self.cin = cin
        self.cout = cout

    def param_specs(self):
        yield self.kernel_key, (self.taps, self.cin, self.cout)
        for key in (self.gamma_key, self.beta_key, self.mean_key, self.var_key):
            yield key, (self.cout,)

    def forward(self, maps, feats, n_out, params, mode, eps):
        pre = conv_apply(maps, feats, params[self.kernel_key], n_out)
        normed, bn_tape = batch_norm_forward(
            pre, params[self.gamma_key], params[self.beta_key],
            params[self.mean_key], params[self.var_key], mode, eps,
        )
        out, mask = relu_forward(normed)
        return out, (maps, feats, bn_tape, mask)

    def backward(self, cache, d_out, params, grads):
        maps, feats, bn_tape, mask = cache
        d_normed = relu_backward(mask, d_out)
        d_pre, d_gamma, d_beta = batch_norm_backward(bn_tape, d_normed)
        d_in, d_kernel = conv_grads(maps, feats, params[self.kernel_key], d_pre, feats.shape[0])
        grads.accumulate(self.kernel_key, d_kernel)
        grads.accumulate(self.gamma_key, d_gamma)
        grads.accumulate(self.beta_key, d_beta)
        return d_in

    def bn_entry(self, cache) -> tuple[str, str, BnTape]:
        return self.mean_key, self.var_key, cache[2]


class ResidualBlock:
    """ReLU( BN(conv(ReLU(BN(conv(x))))) + shortcut(x) ), shortcut = identity
    when channels match, otherwise a 1-tap convolution."""

    def __init__(self, name: str, taps: int, cin: int, cout: int):
        self.name = name
        self.taps = taps
        self.cin = cin
        self.cout = cout
        self.k1 = f"{name}.conv1.kernel"
        self.k2 = f"{name}.conv2.kernel"
        self.bn1 = _BnUnit(f"{name}.bn1", cout)
        self.bn2 = _BnUnit(f"{name}.bn2", cout)
        self.ks = f"{name}.shortcut.kernel" if cin != cout else None

    def param_specs(self):
        yield self.k1, (self.taps, self.cin, self.cout)
        yield from self.bn1.param_specs()
        yield self.k2, (self.taps, self.cout, self.cout)
        yield from self.bn2.param_specs()
        if self.ks:
            yield self.ks, (1, self.cin, self.cout)

    def forward(self, ctx: CoordContext, kernel_size, feats, params, mode, eps):
        maps = ctx.stride1_maps(kernel_size)
        pre1 = conv_apply(maps, feats, params[self.k1], ctx.n)
        n1, t1 = self.bn1.forward(pre1, params, mode, eps)
        r1, m1 = relu_forward(n1)
        pre2 = conv_apply(maps, r1, params[self.k2], ctx.n)
        n2, t2 = self.bn2.forward(pre2, params, mode, eps)
        if self.ks:
            center = ctx.stride1_maps(1)
            shortcut = conv_apply(center, feats, params[self.ks], ctx.n)
            cache_sc = center
        else:
            shortcut = feats
            cache_sc = None
        out, m_out = relu_forward(n2 + shortcut)
        return out, (maps, feats, t1, m1, r1, t2, cache_sc, m_out)

    def backward(self, cache, d_out, params, grads):
        maps, feats, t1, m1, r1, t2, cache_sc, m_out = cache
        d_sum = relu_backward(m_out, d_out)
        d_n2, d_g2, d_b2 = batch_norm_backward(t2, d_sum)
        grads.accumulate(self.bn2.gamma_key, d_g2)
        grads.accumulate(self.bn2.beta_key, d_b2)
        d_r1, d_k2 = conv_grads(maps, r1, params[self.k2], d_n2, r1.shape[0])
        grads.accumulate(self.k2, d_k2)
        d_n1 = relu_backward(m1, d_r1)
        d_pre1, d_g1, d_b1 = batch_norm_backward(t1, d_n1)
        grads.accumulate(self.bn1.gamma_key, d_g1)
        grads.accumulate(self.bn1.beta_key, d_b1)
        d_in, d_k1 = conv_grads(maps, feats, params[self.k1], d_pre1, feats.shape[0])
        grads.accumulate(self.k1, d_k1)
        if self.ks:
            d_sc_in, d_ks = conv_grads(cache_sc, feats, params[self.ks], d_sum, feats.shape[0])
            grads.accumulate(self.ks, d_ks)
            d_in += d_sc_in
        else:
            d_in += d_sum
        return d_in

    def bn_entries(self, cache):
        _, _, t1, _, _, t2, _, _ = cache
        yield self.bn1.mean_key, self.bn1.var_key, t1
        yield self.bn2.mean_key, self.bn2.var_key, t2


class _BnUnit:
    def __init__(self, name: str, c: int):
        self.gamma_key = f"{name}.gamma"
        self.beta_key = f"{name}.beta"
        self.mean_key = f"{name}.running_mean"
        self.var_key = f"{name}.running_var"
        self.c = c

    def param_specs(self):
        for key in (self.gamma_key, self.beta_key, self.mean_key, self.var_key):
            yield key, (self.c,)

    def forward(self, feats, params, mode, eps):
        return batch_norm_forward(
            feats, params[self.gamma_key], params[self.beta_key],
            params[self.mean_key], params[self.var_key], mode, eps,
        )


@dataclass
class UNetTape:
    """Everything the backward pass and the BN-stat commit need; single use."""

    ctxs: list[CoordContext]
    stem_cache: tuple
    enc_caches: list[list[tuple]]
    down_caches: list[tuple]
    up_caches: list[tuple]
    dec_caches: list[list[tuple]]
    head_cache: tuple
    bn_entries: list[tuple[str, str, BnTape]] = field(default_factory=list)
    used: bool = False

    def consume(self) -> None:
        if self.used:
            raise RuntimeError("network tape already consumed")
        self.used = True


class UNet:
    """Architecture object: builds the layer table and runs forward/backward."""

    def __init__(self, cfg: UNetConfig):
        self.cfg = cfg
        ch = cfg.channels
        taps = cfg.kernel_size**3
        self.stem = _ConvBnRelu("stem", taps, cfg.in_dim, ch[0])
        self.enc_blocks = [
            [ResidualBlock(f"enc{l}.block{b}", taps, ch[l], ch[l]) for b in range(cfg.blocks_per_level)]
            for l in range(cfg.levels)
        ]
        self.downs = [
            _ConvBnRelu(f"down{l}", taps, ch[l], ch[l + 1]) for l in range(cfg.levels - 1)
        ]
        self.ups = [
            _ConvBnRelu(f"up{l}", taps, ch[l + 1], ch[l]) for l in range(cfg.levels - 1)
        ]
        self.dec_blocks = [
            [
                ResidualBlock(f"dec{l}.block{b}", taps, 2 * ch[l] if b == 0 else ch[l], ch[l])
                for b in range(cfg.blocks_per_level)
            ]
            for l in range(cfg.levels - 1)
        ]
        self.head_key = "head.kernel"

    def param_specs(self):
        yield from self.stem.param_specs()
        for l in range(self.cfg.levels):
            for blk in self.enc_blocks[l]:
                yield from blk.param_specs()
            if l < self.cfg.levels - 1:
                yield from self.downs[l].param_specs()
        for l in reversed(range(self.cfg.levels - 1)):
            yield from self.ups[l].param_specs()
            for blk in self.dec_blocks[l]:
                yield from blk.param_specs()
        yield self.head_key, (1, self.cfg.channels[0], self.cfg.out_dim)

    def forward(self, inp: SparseVoxelTensor, params: ParameterSet, mode: str = "train"):
        cfg = self.cfg
        if inp.feature_dim != cfg.in_dim:
            raise ValueError(f"input width {inp.feature_dim} != configured in_dim {cfg.in_dim}")
        eps = cfg.bn_epsilon
        k = cfg.kernel_size
        ctxs = [CoordContext(inp.coords, inp.hash)]
        down_maps: list[OffsetMaps] = []
        for l in range(cfg.levels - 1):
            coarse = CoordContext(downsample_coords(ctxs[l].coords))
            down_maps.append(stride2_maps(ctxs[l], coarse, k))
            ctxs.append(coarse)

        bn_entries: list[tuple[str, str, BnTape]] = []
        x, stem_cache = self.stem.forward(
            ctxs[0].stride1_maps(k), inp.features, ctxs[0].n, params, mode, eps
        )
        bn_entries.append(self.stem.bn_entry(stem_cache))

        skips: list[np.ndarray] = []
        enc_caches: list[list[tuple]] = []
        down_caches: list[tuple] = []
        for l in range(cfg.levels):
            level_caches = []
            for blk in self.enc_blocks[l]:
                x, cache = blk.forward(ctxs[l], k, x, params, mode, eps)
                level_caches.append(cache)
                bn_entries.extend(blk.bn_entries(cache))
            enc_caches.append(level_caches)
            skips.append(x)
            if l < cfg.levels - 1:
                x, cache = self.downs[l].forward(down_maps[l], x, ctxs[l + 1].n, params, mode, eps)
                down_caches.append(cache)
                bn_entries.append(self.downs[l].bn_entry(cache))

        up_caches: list[tuple] = [None] * (cfg.levels - 1)
        dec_caches: list[list[tuple]] = [None] * (cfg.levels - 1)
        for l in reversed(range(cfg.levels - 1)):
            x, cache = self.ups[l].forward(swap_maps(down_maps[l]), x, ctxs[l].n, params, mode, eps)
            up_caches[l] = cache
            bn_entries.append(self.ups[l].bn_entry(cache))
            x = np.concatenate([x, skips[l]], axis=1)
            level_caches = []
            for blk in self.dec_blocks[l]:
                x, cache = blk.forward(ctxs[l], k, x, params, mode, eps)
                level_caches.append(cache)
                bn_entries.extend(blk.bn_entries(cache))
            dec_caches[l] = level_caches

        head_maps = ctxs[0].stride1_maps(1)
        out = conv_apply(head_maps, x, params[self.head_key], ctxs[0].n)
        head_cache = (head_maps, x)

        tape = UNetTape(
            ctxs, stem_cache, enc_caches, down_caches, up_caches, dec_caches, head_cache,
            bn_entries,
        )
        out_tensor = SparseVoxelTensor(inp.coords, out, inp.voxel_size, inp.origin_map, inp.hash)
        return out_tensor, tape

    def backward(self, tape: UNetTape, d_out: np.ndarray, params: ParameterSet):
        """Exact adjoint of forward: gradient registry plus input-feature grads."""
        tape.consume()
        cfg = self.cfg
        grads = GradientSet(
            {name: np.zeros(shape) for name, shape in self.param_specs() if is_trainable(name)}
        )

        head_maps, head_in = tape.head_cache
        d_x, d_head = conv_grads(head_maps, head_in, params[self.head_key], d_out, head_in.shape[0])
        grads.accumulate(self.head_key, d_head)

        pending_skip: dict[int, np.ndarray] = {}
        for l in range(cfg.levels - 1):
            for b in reversed(range(cfg.blocks_per_level)):
                d_x = self.dec_blocks[l][b].backward(tape.dec_caches[l][b], d_x, params, grads)
            c_up = cfg.channels[l]
            d_up_out = d_x[:, :c_up]
            pending_skip[l] = d_x[:, c_up:]
            d_x = self.ups[l].backward(tape.up_caches[l], d_up_out, params, grads)

        for l in reversed(range(cfg.levels)):
            if l < cfg.levels - 1:
                d_x = self.downs[l].backward(tape.down_caches[l], d_x, params, grads)
                d_x = d_x + pending_skip[l]
            for b in reversed(range(cfg.blocks_per_level)):
                d_x = self.enc_blocks[l][b].backward(tape.enc_caches[l][b], d_x, params, grads)

        d_in = self.stem.backward(tape.stem_cache, d_x, params, grads)
        return grads, d_in

    def init_params(self, seed: int) -> ParameterSet:
        """He-uniform convolution kernels (variance 2 / fan_in); BN scale 1,
        shift 0, running mean 0, running variance 1.  Deterministic in seed."""
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xC0DE))))
        params = ParameterSet()
        for name, shape in self.param_specs():
            if name.endswith(".kernel"):
                fan_in = shape[0] * shape[1]
                bound = np.sqrt(6.0 / fan_in)
                params.add(name, rng.uniform(-bound, bound, size=shape))
            elif name.endswith((".gamma", ".running_var")):
                params.add(name, np.ones(shape))
            else:
                params.add(name, np.zeros(shape))
        return params

    def param_count(self, trainable_only: bool = True) -> int:
        total = 0
        for name, shape in self.param_specs():
            if trainable_only and not is_trainable(name):
                continue
            total += int(np.prod(shape))
        return total


def relu_masks(tape: UNetTape) -> list[np.ndarray]:
    """Every ReLU activation mask recorded on the tape, in forward order.

    Finite-difference checks compare the masks of the two perturbed forward
    passes and skip elements whose perturbation crosses a ReLU kink, where
    the loss is not differentiable.
    """
    masks = [tape.stem_cache[3]]
    for level in tape.enc_caches:
        for cache in level:
            masks.extend((cache[3], cache[7]))
    masks.extend(cache[3] for cache in tape.down_caches)
    masks.extend(cache[3] for cache in tape.up_caches if cache is not None)
    for level in tape.dec_caches:
        if level:
            for cache in level:
                masks.extend((cache[3], cache[7]))
    return masks


def commit_bn_stats(params: ParameterSet, tape: UNetTape, momentum: float) -> None:
    """Fold the tape's batch statistics into the running statistics, in layer
    order.  Call once per consumed tape, between optimizer steps."""
    for mean_key, var_key, bn_tape in tape.bn_entries:
        if bn_tape.batch_mean is None:
            continue  # eval-mode tape: nothing to fold
        new_mean, new_var = updated_running_stats(
            bn_tape, params[mean_key], params[var_key], momentum
        )
        params[mean_key] = new_mean
        params[var_key] = new_var


def init_params(cfg: UNetConfig, seed: int) -> ParameterSet:
    return UNet(cfg).init_params(seed)


def unet_forward(inp: SparseVoxelTensor, params: ParameterSet, cfg: UNetConfig, mode: str = "train"):
    """Run the U-Net; returns (output tensor, tape).  Output coordinates equal
    input coordinates row for row, with feature width cfg.out_dim."""
    return UNet(cfg).forward(inp, params, mode)


def unet_backward(tape: UNetTape, d_out: np.ndarray, params: ParameterSet, cfg: UNetConfig):
    return UNet(cfg).backward(tape, d_out, params)
