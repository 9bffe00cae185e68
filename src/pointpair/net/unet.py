"""Sparse residual U-Net producing one feature vector per input voxel.

Encoder: a stem convolution, then per level a stack of residual basic blocks
followed by a stride-2 convolution down to the next level.  Decoder: per
level a transposed convolution back onto the stored finer coordinates,
concatenation with the encoder skip, and a residual block stack.  The stem,
the down and up convolutions and both halves of a residual block are one
unit, `ConvBn` (conv -> BN, then ReLU except in a block's second half, whose
ReLU follows the shortcut sum); only the 1-tap block shortcuts and the final
1-tap head that projects to the output feature width are bare convolutions.
Convolutions carry no bias (the normalization shift absorbs it).  Every
convolution goes through `layers.conv_forward`/`conv_backward` on the kernel
maps built once per forward pass, one `CoordContext` per level.

As in the source paper's SR-UNet (MinkowskiEngine's Res16UNet), each down
convolution has kernel 2 (8 taps, offsets {0, 1}^3) at stride 2 and each up
convolution is its transpose, so every fine voxel meets exactly one coarse
voxel, its parent.  `UNetConfig.kernel_size` sets the stride-1 convolutions
only.

Each unit returns a tape with named fields (`ConvBnTape`, `BlockTape`), and
in train mode `UNetTape.units` keeps them by unit name in forward order; the
backward pass and `relu_masks` read them by name.  An eval-mode forward keeps
no unit tape, so each activation is freed after its last use; its tape holds
only the per-level `CoordContext`s.

The network computes in float32 (`COMPUTE_DTYPE`); the parameter registry,
the gradients, the BN running statistics and the checkpoints stay float64
master copies.  `UNet.forward` casts the input features and every parameter
once per call and returns its output features in that dtype, so the losses
and the eval search downstream run in float32 too.  `UNet.backward`
casts the incoming gradient to the tape's dtype and accumulates the
parameter gradients into a float64 `GradientSet`; `commit_bn_stats` folds
the float32 batch statistics into the float64 running statistics.  A
forward with `dtype=np.float64` runs every layer, and so everything
downstream, in float64, which the gradient checks use.

The output coordinate set always equals the input coordinate set, row for
row.  Forward passes never mutate the parameter registry; batch-norm batch
statistics ride on the tape as `UNetTape.bn_stats`, small per-channel arrays
that hold no tape array, so a caller can keep them, free the tape after the
backward pass, and fold them into the running statistics with
`commit_bn_stats` between optimizer steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import ConfigMixin
from ..errors import FormatError
from ..voxel import SparseVoxelTensor
from .layers import (
    BnStats,
    BnTape,
    ConvTape,
    CoordContext,
    OffsetMaps,
    batch_norm_backward,
    batch_norm_forward,
    conv_backward,
    conv_forward,
    downsample_coords,
    relu_backward,
    relu_forward,
    stride2_maps,
    swap_maps,
    updated_running_stats,
)
from .params import GradientSet, ParameterSet, is_trainable

# The dtype of activations, conv, BN, ReLU and the output features; parameters stay float64.
COMPUTE_DTYPE = np.float32
# The kernel size of the stride-2 down convolutions and their transposes, the up convolutions.
STRIDE2_KERNEL = 2


@dataclass(frozen=True)
class UNetConfig(ConfigMixin):
    """Desk-scale topology knobs for the sparse residual U-Net."""

    levels: int = 3
    channels: tuple[int, ...] = (16, 32, 64)
    blocks_per_level: int = 1
    kernel_size: int = field(default=3, metadata={"note": "odd; the stride-1 convs only (down/up are kernel 2)"})
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
        if not self.bn_epsilon > 0:
            raise ValueError("bn_epsilon must be positive")
        if not 0 <= self.bn_momentum <= 1:
            raise ValueError("bn_momentum must lie in [0, 1]")


@dataclass
class ConvBnTape:
    """What one conv -> BN (-> ReLU) unit's backward needs."""

    conv: ConvTape
    bn: BnTape
    relu_mask: np.ndarray | None  # None when no ReLU follows the BN

    def relu_masks(self) -> list[np.ndarray]:
        return [] if self.relu_mask is None else [self.relu_mask]


@dataclass
class BlockTape:
    unit1: ConvBnTape
    unit2: ConvBnTape
    shortcut: ConvTape | None  # None for the identity shortcut
    relu_mask: np.ndarray

    def relu_masks(self) -> list[np.ndarray]:
        return self.unit1.relu_masks() + self.unit2.relu_masks() + [self.relu_mask]


class ConvBn:
    """conv -> BN (-> ReLU) unit with parameters `kernel_key` and
    `{bn_name}.gamma|beta|running_mean|running_var`."""

    def __init__(self, kernel_key: str, bn_name: str, shape: tuple, relu: bool = True):
        self.name = kernel_key.removesuffix(".kernel")
        self.kernel_key = kernel_key
        self.gamma_key = f"{bn_name}.gamma"
        self.beta_key = f"{bn_name}.beta"
        self.mean_key = f"{bn_name}.running_mean"
        self.var_key = f"{bn_name}.running_var"
        self.shape = shape  # (taps, cin, cout)
        self.relu = relu

    def param_specs(self):
        yield self.kernel_key, self.shape
        for key in (self.gamma_key, self.beta_key, self.mean_key, self.var_key):
            yield key, self.shape[2:]

    def forward(self, maps, feats, n_out, params, mode, eps):
        pre, conv = conv_forward(maps, feats, params[self.kernel_key], n_out)
        out, bn = batch_norm_forward(
            pre, params[self.gamma_key], params[self.beta_key],
            params[self.mean_key], params[self.var_key], mode, eps,
        )
        mask = None
        if self.relu:
            out, mask = relu_forward(out)
        return out, ConvBnTape(conv, bn, mask)

    def backward(self, tape: ConvBnTape, d_out, grads):
        if tape.relu_mask is not None:
            d_out = relu_backward(tape.relu_mask, d_out)
        d_pre, d_gamma, d_beta = batch_norm_backward(tape.bn, d_out)
        d_in, d_kernel = conv_backward(tape.conv, d_pre)
        grads.accumulate(self.kernel_key, d_kernel)
        grads.accumulate(self.gamma_key, d_gamma)
        grads.accumulate(self.beta_key, d_beta)
        return d_in

    def bn_stats(self, tape: ConvBnTape):
        if tape.bn.stats is not None:  # eval mode keeps none
            yield self.mean_key, self.var_key, tape.bn.stats


class ResidualBlock:
    """ReLU( BN(conv(ReLU(BN(conv(x))))) + shortcut(x) ), shortcut = identity
    when channels match, otherwise a 1-tap convolution."""

    def __init__(self, name: str, taps: int, cin: int, cout: int):
        self.name = name
        self.unit1 = ConvBn(f"{name}.conv1.kernel", f"{name}.bn1", (taps, cin, cout))
        self.unit2 = ConvBn(f"{name}.conv2.kernel", f"{name}.bn2", (taps, cout, cout), relu=False)
        self.shortcut_key = f"{name}.shortcut.kernel" if cin != cout else None
        self.shortcut_shape = (1, cin, cout)

    def param_specs(self):
        yield from self.unit1.param_specs()
        yield from self.unit2.param_specs()
        if self.shortcut_key:
            yield self.shortcut_key, self.shortcut_shape

    def forward(self, ctx: CoordContext, kernel_size, feats, params, mode, eps):
        maps = ctx.stride1_maps(kernel_size)
        r1, t1 = self.unit1.forward(maps, feats, ctx.n, params, mode, eps)
        n2, t2 = self.unit2.forward(maps, r1, ctx.n, params, mode, eps)
        shortcut, sc_tape = feats, None
        if self.shortcut_key:
            shortcut, sc_tape = conv_forward(ctx.stride1_maps(1), feats, params[self.shortcut_key], ctx.n)
        out, mask = relu_forward(n2 + shortcut)
        return out, BlockTape(t1, t2, sc_tape, mask)

    def backward(self, tape: BlockTape, d_out, grads):
        d_sum = relu_backward(tape.relu_mask, d_out)
        d_r1 = self.unit2.backward(tape.unit2, d_sum, grads)
        d_in = self.unit1.backward(tape.unit1, d_r1, grads)
        if tape.shortcut is None:
            return d_in + d_sum
        d_sc_in, d_ks = conv_backward(tape.shortcut, d_sum)
        grads.accumulate(self.shortcut_key, d_ks)
        return d_in + d_sc_in

    def bn_stats(self, tape: BlockTape):
        yield from self.unit1.bn_stats(tape.unit1)
        yield from self.unit2.bn_stats(tape.unit2)


@dataclass
class UNetTape:
    """Everything the backward pass and the BN-stat commit need; single use."""

    ctxs: list[CoordContext]
    units: dict[str, ConvBnTape | BlockTape]  # by unit name, in forward order; {} in eval mode
    head: ConvTape | None  # None in eval mode
    bn_stats: list[tuple[str, str, BnStats]]  # train mode only; no tape arrays
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
        unit = lambda name, cin, cout, taps=taps: ConvBn(f"{name}.kernel", f"{name}.bn", (taps, cin, cout))  # noqa: E731
        self.stem = unit("stem", cfg.in_dim, ch[0])
        self.enc_blocks = [
            [ResidualBlock(f"enc{l}.block{b}", taps, ch[l], ch[l]) for b in range(cfg.blocks_per_level)]
            for l in range(cfg.levels)
        ]
        self.downs = [unit(f"down{l}", ch[l], ch[l + 1], STRIDE2_KERNEL**3) for l in range(cfg.levels - 1)]
        self.ups = [unit(f"up{l}", ch[l + 1], ch[l], STRIDE2_KERNEL**3) for l in range(cfg.levels - 1)]
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

    def check_params(self, params: ParameterSet) -> None:
        """FormatError unless `params` holds exactly this network's tensors,
        each of the shape `param_specs` gives it: a checkpoint that does not
        fit the network its config describes."""
        specs = dict(self.param_specs())
        for name in sorted(specs.keys() | params.tensors.keys()):
            if name not in params.tensors:
                raise FormatError(f"checkpoint lacks the network's tensor '{name}'")
            if name not in specs:
                raise FormatError(f"checkpoint tensor '{name}' is not in the network")
            if params[name].shape != specs[name]:
                raise FormatError(
                    f"checkpoint tensor '{name}' has shape {params[name].shape}; "
                    f"the network needs {specs[name]}"
                )

    def forward(
        self, inp: SparseVoxelTensor, params: ParameterSet, mode: str = "train", *, dtype=COMPUTE_DTYPE
    ):
        """Run the network; returns (output tensor, tape).  Output coordinates
        equal input coordinates row for row, with feature width cfg.out_dim.

        Every layer computes in `dtype`: the input features and all of
        `params` are cast to it once here, the tape holds `dtype` arrays and
        the output tensor's features are `dtype`."""
        cfg = self.cfg
        if inp.feature_dim != cfg.in_dim:
            raise ValueError(f"input width {inp.feature_dim} != configured in_dim {cfg.in_dim}")
        params = {name: t.astype(dtype, copy=False) for name, t in params.tensors.items()}
        k = cfg.kernel_size
        ctxs = [CoordContext(inp.coords)]
        down_maps: list[OffsetMaps] = []
        for l in range(cfg.levels - 1):
            coarse = CoordContext(downsample_coords(ctxs[l].coords))
            down_maps.append(stride2_maps(ctxs[l], coarse, STRIDE2_KERNEL))
            ctxs.append(coarse)

        units: dict[str, ConvBnTape | BlockTape] = {}
        bn_stats: list[tuple[str, str, BnStats]] = []

        def run(unit, *args):
            out, unit_tape = unit.forward(*args, params, mode, cfg.bn_epsilon)
            if mode == "train":  # an eval tape keeps no activation past its last use
                units[unit.name] = unit_tape
                bn_stats.extend(unit.bn_stats(unit_tape))
            return out

        x = run(self.stem, ctxs[0].stride1_maps(k), inp.features.astype(dtype, copy=False), ctxs[0].n)
        skips: list[np.ndarray] = []
        for l in range(cfg.levels):
            for blk in self.enc_blocks[l]:
                x = run(blk, ctxs[l], k, x)
            skips.append(x)
            if l < cfg.levels - 1:
                x = run(self.downs[l], down_maps[l], x, ctxs[l + 1].n)
        for l in reversed(range(cfg.levels - 1)):
            x = run(self.ups[l], swap_maps(down_maps[l]), x, ctxs[l].n)
            x = np.concatenate([x, skips[l]], axis=1)
            for blk in self.dec_blocks[l]:
                x = run(blk, ctxs[l], k, x)
        out, head = conv_forward(ctxs[0].stride1_maps(1), x, params[self.head_key], ctxs[0].n)

        tape = UNetTape(ctxs, units, head if mode == "train" else None, bn_stats)
        return inp.replace_features(out), tape

    def backward(self, tape: UNetTape, d_out: np.ndarray):
        """Exact adjoint of forward: gradient registry plus input-feature grads.
        The kernels are read from the tape.  `d_out` is cast to the dtype the
        forward ran in, and the input-feature grads come back in it; the
        parameter gradients are float64."""
        if tape.head is None:
            raise ValueError("an eval-mode tape records no activations to run backward on")
        tape.consume()
        d_out = d_out.astype(tape.head.kernel.dtype, copy=False)
        cfg = self.cfg
        grads = GradientSet(
            {name: np.zeros(shape) for name, shape in self.param_specs() if is_trainable(name)}
        )
        back = lambda unit, d: unit.backward(tape.units[unit.name], d, grads)  # noqa: E731

        d_x, d_head = conv_backward(tape.head, d_out)
        grads.accumulate(self.head_key, d_head)
        pending_skip: dict[int, np.ndarray] = {}
        for l in range(cfg.levels - 1):
            for blk in reversed(self.dec_blocks[l]):
                d_x = back(blk, d_x)
            c_up = cfg.channels[l]
            pending_skip[l] = d_x[:, c_up:]
            d_x = back(self.ups[l], d_x[:, :c_up])
        for l in reversed(range(cfg.levels)):
            if l < cfg.levels - 1:
                d_x = back(self.downs[l], d_x) + pending_skip[l]
            for blk in reversed(self.enc_blocks[l]):
                d_x = back(blk, d_x)
        return grads, back(self.stem, d_x)

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

    def param_count(self) -> int:
        """Number of trainable scalars (BN running statistics excluded)."""
        total = 0
        for name, shape in self.param_specs():
            if is_trainable(name):
                total += int(np.prod(shape))
        return total


def relu_masks(tape: UNetTape) -> list[np.ndarray]:
    """Every ReLU activation mask recorded on the tape, in forward order.

    Finite-difference checks compare the masks of the two perturbed forward
    passes and skip elements whose perturbation crosses a ReLU kink, where
    the loss is not differentiable.
    """
    return [mask for unit_tape in tape.units.values() for mask in unit_tape.relu_masks()]


def commit_bn_stats(
    params: ParameterSet, bn_stats: list[tuple[str, str, BnStats]], momentum: float
) -> None:
    """Fold the batch statistics of a tape (`UNetTape.bn_stats`) into the
    running statistics, in layer order.  Call once per forward pass, between
    optimizer steps; the tape itself may be gone by then."""
    for mean_key, var_key, stats in bn_stats:
        new_mean, new_var = updated_running_stats(
            stats, params[mean_key], params[var_key], momentum
        )
        params[mean_key] = new_mean
        params[var_key] = new_var
