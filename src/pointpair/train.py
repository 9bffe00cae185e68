"""The pre-training loop: per-pair augmentation, dual forward passes through
one shared parameter registry, a contrastive loss on matched voxel features,
and SGD with momentum under polynomial learning-rate decay.

Determinism contract: (seed, corpus, config) fully determine the loss trace,
for one BLAS build and one BLAS thread count.  The pair schedule and every
per-step random draw derive from counted seed sequences, never from carried
generator state, so resuming from a checkpoint at iteration k reproduces the
uninterrupted run bit for bit.  The U-Net runs in float32 on float64 master
weights (`net.unet`).  Its output features, the loss computation and the
feature gradients stay float32; the loss values are summed in float64, and
the parameter gradients, the SGD step, the running statistics and the
checkpoints are float64.  Each `UNet.backward` writes every trainable
tensor's gradient once; `forward_backward` adds the second view's into the
first's, and `train()` sums a step's slots into a fresh zero registry.

Memory contract: a step holds the loss result only until its gradients are
scattered (info_nce itself holds one row block of logits at a time, never
the n x n matrix), and each view's U-Net tape only until that view's
backward pass; the gradients and the BN batch statistics are all that
outlive `forward_backward`, and `train()` drops them before the next slot.

Checkpoint layout (little-endian), written by `save_checkpoint` and read
by `load_checkpoint` only:
    magic "PCCK" | u32 config JSON length | config JSON (utf-8)
    | parameters as a tensor section (`net.params`)
    | magic "PCOS" | u64 iteration | momentum buffers as a tensor section
Training log: CSV with columns iter, lr, loss, collapse, millis.
Both are written through `errors.file_stream`: a save that fails part way
leaves the file it would have replaced as it was, and no .tmp file beside it.
"""

from __future__ import annotations

import json
import logging
import os
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from .augment import AugmentationConfig, dropout_points, jitter_points, sample_transform
from .config import ConfigMixin
from .errors import (
    ConfigError,
    DegenerateBatchError,
    FormatError,
    PointPairError,
    file_stream,
    invalid_content,
    read_exact,
    read_struct,
)
from .geometry import apply_transform
from .losses import (
    LossConfig,
    VARIANT_INFO_NCE,
    collapse_metric,
    hardest_contrastive,
    info_nce,
    l2_normalize_rows_with_grad,
    sample_negative_pool,
    subsample_matches,
)
from .net.params import GradientSet, ParameterSet, read_tensor_section, write_tensor_section
from .net.unet import UNet, UNetConfig, commit_bn_stats
from .pairs import ScenePair
from .voxel import collapse_matches_to_voxels, quantize

log = logging.getLogger(__name__)

_CKPT_MAGIC = b"PCCK"
_OPT_MAGIC = b"PCOS"


class SkipStep(PointPairError):
    """Raised when a pair degenerates under augmentation; logged, not fatal."""


@dataclass(frozen=True)
class TrainConfig(ConfigMixin):
    max_iters: int = 500
    base_lr: float = field(default=0.1, metadata={"note": "desk-scale setting; large-batch schedules use 0.8"})
    lr_power: float = field(default=0.9, metadata={"note": "polynomial decay exponent"})
    momentum: float = 0.9
    weight_decay: float = 1e-4
    voxel_size: float = field(default=0.025, metadata={"note": "meters"})
    seed: int = 0
    grad_accum: int = field(default=1, metadata={"note": "pairs accumulated per optimizer step"})
    checkpoint_every: int = field(default=0, metadata={"note": "0 = final checkpoint only"})
    loss: LossConfig = field(default_factory=LossConfig)
    augment: AugmentationConfig = field(default_factory=AugmentationConfig)
    unet: UNetConfig = field(default_factory=UNetConfig)

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.base_lr > 0:
            raise ValueError("base_lr must be positive")
        if not self.lr_power >= 0:
            raise ValueError("lr_power must be non-negative")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must lie in [0, 1)")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be non-negative")
        if not self.voxel_size > 0:
            raise ValueError("voxel_size must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.grad_accum < 1:
            raise ValueError("grad_accum must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")


@dataclass
class OptimizerState:
    buffers: dict[str, np.ndarray]
    iteration: int = 0

    @classmethod
    def zeros(cls, params: ParameterSet) -> "OptimizerState":
        return cls(GradientSet.zeros_like(params).tensors)


@dataclass(frozen=True)
class TrainLogRecord:
    iteration: int
    lr: float
    loss: float
    collapse: float
    millis: int

    def csv_row(self) -> str:
        # repr round-trips float64 exactly, keeping the log bitwise reproducible
        return f"{self.iteration},{self.lr!r},{self.loss!r},{self.collapse!r},{self.millis}"


LOG_HEADER = "iter,lr,loss,collapse,millis"


def poly_lr(iteration: int, cfg: TrainConfig) -> float:
    """base_lr * (1 - iteration / max_iters) ** lr_power, clamped at 0."""
    frac = 1.0 - iteration / cfg.max_iters
    if frac <= 0.0:
        return 0.0
    return cfg.base_lr * frac**cfg.lr_power


def sgd_step(
    params: ParameterSet,
    grads: GradientSet,
    state: OptimizerState,
    lr: float,
    momentum: float,
    weight_decay: float,
) -> None:
    """g <- grad + wd*param; buf <- momentum*buf + g; param <- param - lr*buf.

    Applies to convolution kernels and BN scale/shift only; running
    statistics are never touched by the optimizer.
    """
    for name in sorted(grads.tensors):
        g = grads[name] + weight_decay * params[name]
        buf = state.buffers[name]
        buf *= momentum
        buf += g
        params[name] -= lr * buf


def _step_rng(seed: int, slot: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x57E9, slot))))


def _pair_index(seed: int, slot: int, n_pairs: int) -> int:
    epoch, pos = divmod(slot, n_pairs)
    perm_rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x0DD5, epoch))))
    return int(perm_rng.permutation(n_pairs)[pos])


def _remap_after_dropout(matches: np.ndarray, keep1, n1, keep2, n2) -> np.ndarray:
    inv1 = np.full(n1, -1, dtype=np.int64)
    inv1[keep1] = np.arange(keep1.shape[0])
    inv2 = np.full(n2, -1, dtype=np.int64)
    inv2[keep2] = np.arange(keep2.shape[0])
    i = inv1[matches[:, 0]]
    j = inv2[matches[:, 1]]
    ok = (i >= 0) & (j >= 0)
    return np.stack([i[ok], j[ok]], axis=1)


@dataclass
class StepOutcome:
    loss: float
    collapse: float
    grads: GradientSet
    bn_stats: list  # both views' `UNetTape.bn_stats`, view 1 first; no tape arrays


def forward_backward(
    pair: ScenePair,
    params: ParameterSet,
    cfg: TrainConfig,
    unet: UNet,
    rng: np.random.Generator,
) -> StepOutcome:
    """One pair's augmented dual forward pass and gradient computation.

    Raises SkipStep when augmentation or voxelization leaves fewer than two
    usable voxel-level matches.
    """
    t1 = sample_transform(cfg.augment, rng)
    t2 = sample_transform(cfg.augment, rng)
    v1 = apply_transform(pair.x1, t1)
    v2 = apply_transform(pair.x2, t2)
    matches = pair.correspondences.matches
    if cfg.augment.jitter_sigma > 0:
        v1 = jitter_points(v1, cfg.augment.jitter_sigma, rng)
        v2 = jitter_points(v2, cfg.augment.jitter_sigma, rng)
    if cfg.augment.dropout_fraction > 0:
        v1, keep1 = dropout_points(v1, cfg.augment.dropout_fraction, rng)
        v2, keep2 = dropout_points(v2, cfg.augment.dropout_fraction, rng)
        matches = _remap_after_dropout(matches, keep1, len(pair.x1), keep2, len(pair.x2))
        if matches.shape[0] == 0:
            raise SkipStep("dropout removed every matched point")
    s1 = quantize(v1, cfg.voxel_size)
    s2 = quantize(v2, cfg.voxel_size)
    rows = collapse_matches_to_voxels(matches, s1.origin_map, s2.origin_map)
    if rows.shape[0] < 2:
        raise SkipStep("fewer than 2 voxel-level matches survive quantization")

    try:
        out1, tape1 = unet.forward(s1, params, "train")
        out2, tape2 = unet.forward(s2, params, "train")
    except DegenerateBatchError as exc:
        raise SkipStep(f"degenerate batch inside the network: {exc}") from exc

    loss_cfg = cfg.loss
    if loss_cfg.normalize_features:
        n1_full, vjp1 = l2_normalize_rows_with_grad(out1.features)
        n2_full, vjp2 = l2_normalize_rows_with_grad(out2.features)
    else:
        n1_full, vjp1 = out1.features, lambda d: d
        n2_full, vjp2 = out2.features, lambda d: d
    n_sub = loss_cfg.ns if loss_cfg.variant == VARIANT_INFO_NCE else loss_cfg.pos_sample
    batch = subsample_matches(rows, n1_full, n2_full, n_sub, rng)

    dn1 = np.zeros_like(n1_full)
    dn2 = np.zeros_like(n2_full)
    if loss_cfg.variant == VARIANT_INFO_NCE:
        res = info_nce(batch, loss_cfg.tau)
        dn1[batch.idx1] += res.grad_f1
        dn2[batch.idx2] += res.grad_f2
    else:
        pool1 = sample_negative_pool(n2_full, loss_cfg.hardest_neg_sample, rng)
        pool2 = sample_negative_pool(n1_full, loss_cfg.hardest_neg_sample, rng)
        pos1 = v1.points[s1.first_points]
        pos2 = v2.points[s2.first_points]
        res = hardest_contrastive(batch, pool1, pool2, loss_cfg, pos1, pos2)
        dn1[batch.idx1] += res.grad_f1
        dn2[batch.idx2] += res.grad_f2
        if res.grad_neg1 is not None:
            np.add.at(dn2, pool1.sources, res.grad_neg1)
        if res.grad_neg2 is not None:
            np.add.at(dn1, pool2.sources, res.grad_neg2)

    loss = res.loss
    del res  # the loss gradients are scattered; the backward needs only dn1, dn2
    collapse = collapse_metric(np.vstack([batch.f1, batch.f2]))
    bn_stats = tape1.bn_stats + tape2.bn_stats
    grads, _ = unet.backward(tape1, vjp1(dn1))
    del tape1
    grads2, _ = unet.backward(tape2, vjp2(dn2))
    del tape2
    grads.add_scaled(grads2)
    return StepOutcome(loss, collapse, grads, bn_stats)


@dataclass
class TrainResult:
    params: ParameterSet
    records: list[TrainLogRecord]
    state: OptimizerState
    skipped: int = 0


def save_checkpoint(path, params: ParameterSet, config_echo: dict, state: OptimizerState) -> None:
    """Write a checkpoint to `path`, a file name (atomically) or a file object."""
    blob = json.dumps(config_echo, sort_keys=True).encode("utf-8")
    with file_stream(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        write_tensor_section(fh, params.tensors)
        fh.write(_OPT_MAGIC)
        fh.write(struct.pack("<Q", state.iteration))
        write_tensor_section(fh, state.buffers)


def load_checkpoint(path) -> tuple[ParameterSet, dict, OptimizerState]:
    """(parameters, config echo, optimizer state) from `path`, a file name or
    a file object; FormatError for anything that does not follow the layout."""
    with file_stream(path, "rb") as fh:
        if fh.read(4) != _CKPT_MAGIC:
            raise FormatError("bad checkpoint magic; expected PCCK")
        (blob_len,) = read_struct(fh, "<I", "config length")
        try:
            echo = json.loads(read_exact(fh, blob_len, "config JSON"))
        except (ValueError, RecursionError) as exc:  # also JSONDecodeError, UnicodeDecodeError
            raise FormatError(f"config JSON is malformed: {exc}") from exc
        if not isinstance(echo, dict):
            raise FormatError(f"config JSON is not an object: {type(echo).__name__}")
        params = ParameterSet(read_tensor_section(fh))
        with invalid_content("checkpoint"):
            params.validate_finite()
        if fh.read(4) != _OPT_MAGIC:
            raise FormatError("checkpoint missing PCOS optimizer section")
        (iteration,) = read_struct(fh, "<Q", "optimizer iteration")
        buffers = read_tensor_section(fh)
    return params, echo, OptimizerState(buffers, iteration)


def checkpoint_config(echo: dict) -> TrainConfig:
    """The TrainConfig a checkpoint's config echo records; FormatError when
    the echo is not one (a key missing or unknown, a value of the wrong type
    or out of range)."""
    with invalid_content("checkpoint config"):
        return TrainConfig.from_dict(echo)


def load_resume(path, cfg: TrainConfig) -> tuple[ParameterSet, OptimizerState]:
    """The parameters and optimizer state of checkpoint `path`, checked to
    continue a run of `cfg`: FormatError unless its tensor names and shapes
    fit cfg's network and its config echo is a TrainConfig, then ConfigError
    unless that config equals cfg."""
    params, echo, state = load_checkpoint(path)
    UNet(cfg.unet).check_params(params)
    key = checkpoint_config(echo).first_difference(cfg)
    if key is not None:
        raise ConfigError(f"checkpoint config differs from the current config at '{key}'")
    return params, state


def write_log_csv(path, records: list[TrainLogRecord]) -> None:
    with file_stream(path, "w") as fh:
        fh.write(LOG_HEADER + "\n")
        for rec in records:
            fh.write(rec.csv_row() + "\n")


def train(
    corpus: list[ScenePair],
    cfg: TrainConfig,
    out_dir: str | None = None,
    resume: tuple[ParameterSet, OptimizerState] | None = None,
) -> TrainResult:
    """Run the training loop over a seeded shuffled pair schedule.

    Pairs cycle (reshuffled each epoch) until max_iters optimizer steps have
    run.  Checkpoints land in `out_dir` every `checkpoint_every` steps plus a
    final `checkpoint_final.ckpt`.  Pass `resume`, the state `load_resume`
    loaded and checked from a checkpoint, to continue a run: it reproduces
    the uninterrupted run's remaining records exactly (the training loop
    updates that state in place).
    """
    if not corpus:
        raise ValueError("training corpus is empty")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    unet = UNet(cfg.unet)
    if resume is not None:
        params, state = resume
    else:
        params = unet.init_params(cfg.seed)
        state = OptimizerState.zeros(params)
    echo = cfg.to_dict()
    records: list[TrainLogRecord] = []
    skipped = 0
    n = len(corpus)
    for it in range(state.iteration, cfg.max_iters):
        t0 = time.perf_counter()
        total = GradientSet.zeros_like(params)
        loss_sum = 0.0
        collapse_sum = 0.0
        produced = 0
        bn_stats = []
        for sub in range(cfg.grad_accum):
            slot = it * cfg.grad_accum + sub
            pair = corpus[_pair_index(cfg.seed, slot, n)]
            rng = _step_rng(cfg.seed, slot)
            try:
                outcome = forward_backward(pair, params, cfg, unet, rng)
            except SkipStep as exc:
                log.warning("iteration %d slot %d skipped: %s", it, slot, exc)
                skipped += 1
                continue
            total.add_scaled(outcome.grads, 1.0 / cfg.grad_accum)
            loss_sum += outcome.loss
            collapse_sum += outcome.collapse
            produced += 1
            bn_stats.extend(outcome.bn_stats)
            del outcome  # the next slot's forward_backward runs without it
        if 0 < produced < cfg.grad_accum:
            # skipped slots: the step's gradient is the mean over the produced ones
            for t in total.tensors.values():
                t *= cfg.grad_accum / produced
        if produced:
            commit_bn_stats(params, bn_stats, cfg.unet.bn_momentum)
            lr = poly_lr(it, cfg)
            sgd_step(params, total, state, lr, cfg.momentum, cfg.weight_decay)
            millis = int((time.perf_counter() - t0) * 1000)
            records.append(TrainLogRecord(it, lr, loss_sum / produced, collapse_sum / produced, millis))
        state.iteration = it + 1
        if out_dir and cfg.checkpoint_every and (it + 1) % cfg.checkpoint_every == 0:
            save_checkpoint(
                os.path.join(out_dir, f"checkpoint_{it + 1:07d}.ckpt"), params, echo, state
            )
    if out_dir:
        save_checkpoint(os.path.join(out_dir, "checkpoint_final.ckpt"), params, echo, state)
        write_log_csv(os.path.join(out_dir, "train_log.csv"), records)
    return TrainResult(params, records, state, skipped)
