"""Self-contained verification suites: finite-difference gradient checks and
independent brute-force oracles for the numerical core.

Every oracle here deliberately avoids the code path it checks: nearest
neighbors by exhaustive scan, sparse convolution by dense-grid convolution,
the softmax objective by direct per-row cross-entropy, schedules by their
closed forms.  The `verify` CLI subcommand runs these suites and reports one
pass/fail line per check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud, brute_force_nearest, build_index
from .losses import (
    LossConfig,
    MatchBatch,
    NegativePool,
    hardest_contrastive,
    info_nce,
    l2_normalize_rows,
)
from .net import layers
from .net.params import GradientSet, ParameterSet
from .net.unet import UNet, UNetConfig
from .voxel import SparseVoxelTensor
from .train import OptimizerState, TrainConfig, poly_lr, sgd_step

FD_STEP = 1e-4
TOL_PER_OP = 1e-4
TOL_END_TO_END = 1e-3
TOL_INFO_NCE = 1e-6
TOL_HARDEST = 1e-5


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}" + (f" ({self.detail})" if self.detail else "")


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Largest absolute deviation, normalized by the largest magnitude seen
    (floored at 1e-6 so near-zero gradients compare absolutely)."""
    a = np.asarray(analytic, dtype=np.float64).ravel()
    n = np.asarray(numeric, dtype=np.float64).ravel()
    scale = max(np.abs(a).max(initial=0.0), np.abs(n).max(initial=0.0), 1e-6)
    return float(np.abs(a - n).max(initial=0.0) / scale)


def sample_indices(rng: np.random.Generator, size: int, max_count: int) -> np.ndarray:
    if size <= max_count:
        return np.arange(size)
    return np.sort(rng.choice(size, size=max_count, replace=False))


def masked_central_difference(value_and_masks_fn, x: np.ndarray, flat_idx, h: float = FD_STEP):
    """Central finite differences of a scalar w.r.t. selected entries of x,
    perturbing x in place (restored afterwards), that skip kink crossings.

    `value_and_masks_fn()` returns (scalar, list of boolean activation masks);
    an element whose +h and -h evaluations disagree on any mask straddles a
    point of non-differentiability and is excluded from the comparison.
    Returns (numeric derivatives, keep mask).
    """
    flat = x.reshape(-1)
    out = np.empty(len(flat_idx))
    keep = np.empty(len(flat_idx), dtype=bool)
    for k, i in enumerate(flat_idx):
        orig = flat[i]
        flat[i] = orig + h
        fp, masks_p = value_and_masks_fn()
        flat[i] = orig - h
        fm, masks_m = value_and_masks_fn()
        flat[i] = orig
        out[k] = (fp - fm) / (2.0 * h)
        keep[k] = all(np.array_equal(a, b) for a, b in zip(masks_p, masks_m))
    return out, keep


def fd_compare_masked(value_and_masks_fn, x, analytic, rng, max_count=40, h=FD_STEP) -> float:
    idx = sample_indices(rng, x.size, max_count)
    numeric, keep = masked_central_difference(value_and_masks_fn, x, idx, h)
    if not keep.any():
        return 0.0
    return max_rel_error(analytic.reshape(-1)[idx][keep], numeric[keep])


def central_difference(value_fn, x: np.ndarray, flat_idx, h: float = FD_STEP) -> np.ndarray:
    """`masked_central_difference` of a function without kinks."""
    return masked_central_difference(lambda: (value_fn(), []), x, flat_idx, h)[0]


def fd_compare(value_fn, x, analytic, rng, max_count=40, h=FD_STEP) -> float:
    return fd_compare_masked(lambda: (value_fn(), []), x, analytic, rng, max_count, h)


def random_coords(rng: np.random.Generator, n: int, extent: int = 8) -> np.ndarray:
    """n distinct integer coordinates inside an extent^3 box."""
    cells = rng.choice(extent**3, size=n, replace=False)
    x, r = np.divmod(cells, extent * extent)
    y, z = np.divmod(r, extent)
    return np.stack([x, y, z], axis=1).astype(np.int64) - extent // 2


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def oracle_min_dists(x1: np.ndarray, x2: np.ndarray, block: int = 256):
    """Exhaustive per-row nearest neighbor of x1 in x2: (indices, distances).

    Squared distances accumulate as dx*dx + dy*dy + dz*dz, the same order as
    the radius-bounded grid search of `geometry.NeighborIndex`, and ties go to
    the lowest index, so wherever the nearest point lies within the search
    radius the two agree bit for bit.
    """
    n = x1.shape[0]
    idx = np.empty(n, dtype=np.int64)
    dist = np.empty(n)
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        diff = x1[lo:hi, None, :] - x2[None, :, :]
        sq = (diff * diff).sum(axis=2)
        arg = sq.argmin(axis=1)
        idx[lo:hi] = arg
        dist[lo:hi] = np.sqrt(sq[np.arange(hi - lo), arg])
    return idx, dist


def oracle_correspondences(x1: PointCloud, x2: PointCloud, radius: float) -> np.ndarray:
    j, d = oracle_min_dists(x1.points, x2.points)
    keep = d <= radius
    i = np.nonzero(keep)[0].astype(np.int64)
    return np.stack([i, j[keep]], axis=1)


def oracle_overlap(x1: PointCloud, x2: PointCloud, radius: float) -> float:
    _, d1 = oracle_min_dists(x1.points, x2.points)
    _, d2 = oracle_min_dists(x2.points, x1.points)
    f1 = float(np.count_nonzero(d1 <= radius)) / len(x1)
    f2 = float(np.count_nonzero(d2 <= radius)) / len(x2)
    return min(f1, f2)


def dense_conv_oracle(
    coords: np.ndarray, feats: np.ndarray, kernel: np.ndarray, kernel_size: int
) -> np.ndarray:
    """Stride-1 sparse convolution via a dense grid: embed, convolve with
    shifted dense slices, read back at the active sites."""
    r = kernel_size // 2
    mins = coords.min(axis=0)
    shape = coords.max(axis=0) - mins + 2 * r + 1
    cin, cout = kernel.shape[1], kernel.shape[2]
    grid = np.zeros((*shape, cin))
    at = coords - mins + r
    grid[at[:, 0], at[:, 1], at[:, 2]] = feats
    out_grid = np.zeros((*shape, cout))
    offsets = layers.kernel_offsets(kernel_size)
    for k, (dx, dy, dz) in enumerate(offsets):
        shifted = np.roll(grid, shift=(-dx, -dy, -dz), axis=(0, 1, 2))
        out_grid += shifted @ kernel[k]
    return out_grid[at[:, 0], at[:, 1], at[:, 2]]


def oracle_info_nce_loss(f1: np.ndarray, f2: np.ndarray, tau: float) -> float:
    """Direct softmax cross-entropy, one unstabilized row at a time."""
    n = f1.shape[0]
    total = 0.0
    for k in range(n):
        logits = f1[k] @ f2.T / tau
        total += -np.log(np.exp(logits[k]) / np.exp(logits).sum())
    return total / n


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------


def _conv_instance_error(rng: np.random.Generator, maps, feats, kernel, n_out: int) -> float:
    """Worst relative error of `layers.conv_backward` against central differences
    of `layers.conv_forward` on one fixed kernel map: sampled input entries and
    every kernel entry."""
    out0, tape = layers.conv_forward(maps, feats, kernel, n_out)
    weight = rng.standard_normal(out0.shape)

    def value():
        out, _ = layers.conv_forward(maps, feats, kernel, n_out)
        return float((out * weight).sum())

    d_feats, d_kernel = layers.conv_backward(tape, weight)
    worst = fd_compare(value, feats, d_feats, rng)
    numeric = central_difference(value, kernel, np.arange(kernel.size))
    return max(worst, max_rel_error(d_kernel.reshape(-1), numeric))


def _check_conv_gradients(rng: np.random.Generator, kind: str, instances: int) -> CheckResult:
    """`kind` is "stride1", "stride2" (fine to coarse) or "transpose" (coarse
    to fine, the stride-2 map swapped)."""
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(20, 60))
        cin = int(rng.integers(1, 5))
        cout = int(rng.integers(1, 5))
        fine = layers.CoordContext(random_coords(rng, n))
        if kind == "stride1":
            maps, n_in, n_out = fine.stride1_maps(3), n, n
        else:
            coarse = layers.CoordContext(layers.downsample_coords(fine.coords))
            maps, n_in, n_out = layers.stride2_maps(fine, coarse, 3), n, coarse.n
            if kind == "transpose":
                maps, n_in, n_out = layers.swap_maps(maps), coarse.n, n
        feats = rng.standard_normal((n_in, cin))
        kernel = rng.standard_normal((27, cin, cout)) * 0.5
        worst = max(worst, _conv_instance_error(rng, maps, feats, kernel, n_out))
    name = "gradcheck.transpose_conv" if kind == "transpose" else f"gradcheck.sparse_conv.{kind}"
    return CheckResult(name, worst < TOL_PER_OP, f"max rel err {worst:.3e}")


def _check_batch_norm_gradients(rng: np.random.Generator, instances: int) -> CheckResult:
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(4, 40))
        c = int(rng.integers(1, 8))
        feats = rng.standard_normal((n, c)) * 2.0
        gamma = rng.uniform(0.5, 1.5, c)
        beta = rng.standard_normal(c)
        rmean = np.zeros(c)
        rvar = np.ones(c)
        weight = rng.standard_normal((n, c))

        def value():
            out, _ = layers.batch_norm_forward(feats, gamma, beta, rmean, rvar, "train")
            return float((out * weight).sum())

        _, tape = layers.batch_norm_forward(feats, gamma, beta, rmean, rvar, "train")
        d_in, d_gamma, d_beta = layers.batch_norm_backward(tape, weight)
        worst = max(worst, fd_compare(value, feats, d_in, rng))
        worst = max(worst, max_rel_error(d_gamma, central_difference(value, gamma, np.arange(c))))
        worst = max(worst, max_rel_error(d_beta, central_difference(value, beta, np.arange(c))))
    passed = worst < TOL_PER_OP
    return CheckResult("gradcheck.batch_norm", passed, f"max rel err {worst:.3e}")


def _check_relu_gradients(rng: np.random.Generator, instances: int) -> CheckResult:
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(10, 80))
        c = int(rng.integers(1, 8))
        feats = rng.standard_normal((n, c))
        feats += np.sign(feats) * 2e-2  # keep inputs away from the kink
        weight = rng.standard_normal((n, c))

        def value():
            out, _ = layers.relu_forward(feats)
            return float((out * weight).sum())

        _, mask = layers.relu_forward(feats)
        d_in = layers.relu_backward(mask, weight)
        worst = max(worst, fd_compare(value, feats, d_in, rng, max_count=60))
    passed = worst < TOL_PER_OP
    return CheckResult("gradcheck.relu", passed, f"max rel err {worst:.3e}")


def _residual_block_setup(rng: np.random.Generator):
    from .net.unet import ResidualBlock

    n = int(rng.integers(16, 50))
    cin = int(rng.integers(1, 5))
    cout = int(rng.integers(1, 5))
    coords = random_coords(rng, n)
    ctx = layers.CoordContext(coords)
    block = ResidualBlock("blk", 27, cin, cout)
    params = ParameterSet()
    for name, shape in block.param_specs():
        if name.endswith(".kernel"):
            params.add(name, rng.standard_normal(shape) * 0.4)
        elif name.endswith((".gamma", ".running_var")):
            params.add(name, np.ones(shape))
        else:
            params.add(name, np.zeros(shape))
    feats = rng.standard_normal((n, cin))
    return block, ctx, params, feats


def _check_residual_block_gradients(rng: np.random.Generator, instances: int) -> CheckResult:
    worst = 0.0
    for _ in range(instances):
        block, ctx, params, feats = _residual_block_setup(rng)
        out0, cache = block.forward(ctx, 3, feats, params, "train", 1e-5)
        weight = rng.standard_normal(out0.shape)

        def value_and_masks():
            out, c = block.forward(ctx, 3, feats, params, "train", 1e-5)
            return float((out * weight).sum()), c.relu_masks()

        grads = GradientSet.zeros_like(params)
        d_in = block.backward(cache, weight, grads)
        worst = max(worst, fd_compare_masked(value_and_masks, feats, d_in, rng, max_count=30))
        for name in grads.names():
            worst = max(worst, fd_compare_masked(value_and_masks, params[name], grads[name], rng, max_count=30))
    passed = worst < TOL_PER_OP
    return CheckResult("gradcheck.residual_block", passed, f"max rel err {worst:.3e}")


def tiny_unet_config() -> UNetConfig:
    return UNetConfig(levels=2, channels=(3, 4), blocks_per_level=1, in_dim=2, out_dim=3)


def _check_unet_gradients(rng: np.random.Generator, instances: int) -> CheckResult:
    from .net.unet import relu_masks

    cfg = tiny_unet_config()
    unet = UNet(cfg)
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(20, 60))
        coords = random_coords(rng, n)
        feats = rng.standard_normal((n, cfg.in_dim))
        tensor = SparseVoxelTensor(coords, feats, 1.0)
        params = unet.init_params(int(rng.integers(1 << 30)))
        out0, tape = unet.forward(tensor, params, "train")
        weight = rng.standard_normal(out0.features.shape)

        def value_and_masks():
            out, t = unet.forward(tensor, params, "train")
            return float((out.features * weight).sum()), relu_masks(t)

        grads, d_in = unet.backward(tape, weight, params)
        worst = max(worst, fd_compare_masked(value_and_masks, feats, d_in, rng, max_count=12))
        for name in grads.names():
            worst = max(worst, fd_compare_masked(value_and_masks, params[name], grads[name], rng, max_count=8))
    passed = worst < TOL_END_TO_END
    return CheckResult("gradcheck.unet_end_to_end", passed, f"max rel err {worst:.3e}")


def _check_info_nce_gradients(rng: np.random.Generator, instances: int) -> CheckResult:
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(2, 7))
        tau = float(rng.uniform(0.07, 0.5))
        f1 = l2_normalize_rows(rng.standard_normal((n, d)))
        f2 = l2_normalize_rows(rng.standard_normal((n, d)))
        batch = MatchBatch.from_features(f1, f2)

        def value():
            return info_nce(batch, tau).loss

        res = info_nce(batch, tau)
        worst = max(worst, max_rel_error(res.grad_f1.reshape(-1), central_difference(value, f1, np.arange(f1.size))))
        worst = max(worst, max_rel_error(res.grad_f2.reshape(-1), central_difference(value, f2, np.arange(f2.size))))
    passed = worst < TOL_INFO_NCE
    return CheckResult("gradcheck.info_nce", passed, f"max rel err {worst:.3e}")


def _hardest_instance(rng: np.random.Generator, cfg: LossConfig, margin: float = 2e-2):
    """Random features kept away from hinge boundaries and argmin ties so the
    loss is differentiable at the sample."""
    for _ in range(200):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(2, 9))
        d = int(rng.integers(2, 6))
        f1 = l2_normalize_rows(rng.standard_normal((n, d)))
        f2 = l2_normalize_rows(rng.standard_normal((n, d)))
        batch = MatchBatch.from_features(f1, f2)
        neg1 = NegativePool(l2_normalize_rows(rng.standard_normal((p, d))), np.full(p, -2, np.int64))
        neg2 = NegativePool(l2_normalize_rows(rng.standard_normal((p, d))), np.full(p, -2, np.int64))
        ok = True
        d_pos = np.linalg.norm(f1 - f2, axis=1)
        if np.abs(d_pos - cfg.m_p).min() < margin or d_pos.min() < margin:
            ok = False
        for anchors, pool in ((f1, neg1), (f2, neg2)):
            dist = np.linalg.norm(anchors[:, None, :] - pool.features[None, :, :], axis=2)
            part = np.sort(dist, axis=1)
            if np.abs(part[:, 0] - cfg.m_n).min() < margin or (part[:, 1] - part[:, 0]).min() < margin:
                ok = False
        if ok:
            return batch, neg1, neg2
    raise RuntimeError("could not sample a boundary-free margin-loss instance")


def _check_hardest_gradients(rng: np.random.Generator, instances: int) -> CheckResult:
    cfg = LossConfig(variant="hardest_contrastive")
    worst = 0.0
    for _ in range(instances):
        batch, neg1, neg2 = _hardest_instance(rng, cfg)

        def value():
            return hardest_contrastive(batch, neg1, neg2, cfg).loss

        res = hardest_contrastive(batch, neg1, neg2, cfg)
        for arr, grad in (
            (batch.f1, res.grad_f1),
            (batch.f2, res.grad_f2),
            (neg1.features, res.grad_neg1),
            (neg2.features, res.grad_neg2),
        ):
            worst = max(worst, max_rel_error(grad.reshape(-1), central_difference(value, arr, np.arange(arr.size))))
    passed = worst < TOL_HARDEST
    return CheckResult("gradcheck.hardest_contrastive", passed, f"max rel err {worst:.3e}")


def run_gradcheck_suite(seed: int = 0, instances: int = 20) -> list[CheckResult]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x6AD0))))
    return [
        _check_conv_gradients(rng, "stride1", instances),
        _check_conv_gradients(rng, "stride2", instances),
        _check_conv_gradients(rng, "transpose", instances),
        _check_batch_norm_gradients(rng, instances),
        _check_relu_gradients(rng, instances),
        _check_residual_block_gradients(rng, instances),
        _check_unet_gradients(rng, max(4, instances // 2)),
        _check_info_nce_gradients(rng, instances),
        _check_hardest_gradients(rng, instances),
    ]


# ---------------------------------------------------------------------------
# oracle checks
# ---------------------------------------------------------------------------


def _check_nn_oracle(rng: np.random.Generator, clouds: int = 20, queries: int = 50) -> CheckResult:
    """The radius-bounded index against the exhaustive scan cut at the radius."""
    for _ in range(clouds):
        n = int(rng.integers(1, 800))
        pc = PointCloud(rng.uniform(-2, 2, (n, 3)))
        radius = float(rng.uniform(0.05, 1.0))
        qs = rng.uniform(-2.5, 2.5, (queries, 3))
        got_i, got_d = build_index(pc, radius).nearest_many(qs)
        for q, gi, gd in zip(qs, got_i, got_d):
            wi, wd = brute_force_nearest(pc, q)
            want = (wi, wd) if wd <= radius else (-1, float("inf"))
            if (int(gi), float(gd)) != want:
                return CheckResult("oracle.nearest_neighbor", False, f"{(gi, gd)} != {want}")
    return CheckResult("oracle.nearest_neighbor", True, f"{clouds} clouds x {queries} queries")


def _check_matching_oracles(rng: np.random.Generator, pairs: int = 20) -> CheckResult:
    from .pairs import compute_correspondences, compute_overlap

    for _ in range(pairs):
        n1 = int(rng.integers(50, 400))
        n_extra = int(rng.integers(10, 200))
        x1 = PointCloud(rng.uniform(0, 1.5, (n1, 3)))
        x2 = PointCloud(
            np.vstack(
                [
                    x1.points[: n1 // 2] + rng.normal(0, 0.02, (n1 // 2, 3)),
                    rng.uniform(0, 1.5, (n_extra, 3)),
                ]
            )
        )
        radius = float(rng.uniform(0.02, 0.2))
        got = compute_correspondences(x1, x2, radius).matches
        want = oracle_correspondences(x1, x2, radius)
        if got.shape != want.shape or not np.array_equal(got, want):
            return CheckResult("oracle.matching", False, "correspondence mismatch")
        if compute_overlap(x1, x2, radius) != oracle_overlap(x1, x2, radius):
            return CheckResult("oracle.matching", False, "overlap mismatch")
    return CheckResult("oracle.matching", True, f"{pairs} random pairs")


def _check_dense_conv_oracle(rng: np.random.Generator, instances: int = 50) -> CheckResult:
    worst = 0.0
    for _ in range(instances):
        n = int(rng.integers(5, 60))
        cin = int(rng.integers(1, 5))
        cout = int(rng.integers(1, 5))
        coords = random_coords(rng, n, extent=6)
        feats = rng.standard_normal((n, cin))
        kernel = rng.standard_normal((27, cin, cout))
        tensor = SparseVoxelTensor(coords, feats, 1.0)
        out, _ = layers.sparse_conv_forward(tensor, kernel, stride=1)
        want = dense_conv_oracle(coords, feats, kernel, 3)
        worst = max(worst, float(np.abs(out.features - want).max()))
    return CheckResult("oracle.dense_conv", worst < 1e-10, f"max abs dev {worst:.3e}")


def _check_info_nce_oracle(rng: np.random.Generator, batches: int = 100) -> CheckResult:
    worst = 0.0
    for _ in range(batches):
        n = int(rng.integers(1, 65))
        d = int(rng.integers(2, 16))
        tau = float(rng.uniform(0.07, 1.0))
        f1 = l2_normalize_rows(rng.standard_normal((n, d)))
        f2 = l2_normalize_rows(rng.standard_normal((n, d)))
        got = info_nce(MatchBatch.from_features(f1, f2), tau).loss
        worst = max(worst, abs(got - oracle_info_nce_loss(f1, f2, tau)))
    uniform = np.tile(l2_normalize_rows(rng.standard_normal((1, 8))), (256, 1))
    got = info_nce(MatchBatch.from_features(uniform, uniform.copy()), 0.07).loss
    worst_uniform = abs(got - np.log(256.0))
    ok = worst < 1e-9 and worst_uniform < 1e-9
    return CheckResult("oracle.info_nce", ok, f"max dev {max(worst, worst_uniform):.3e}")


def _check_hardest_closed_forms() -> CheckResult:
    cfg = LossConfig(variant="hardest_contrastive")
    # all positives coincide, all negatives at distance >= m_n: zero loss
    f = np.tile(np.array([[1.0, 0.0]]), (4, 1))
    far = np.tile(np.array([[-1.0, 0.0]]), (3, 1))  # distance 2 > m_n
    res = hardest_contrastive(
        MatchBatch.from_features(f, f.copy()),
        NegativePool(far, np.full(3, -2, np.int64)),
        NegativePool(far.copy(), np.full(3, -2, np.int64)),
        cfg,
    )
    if res.loss != 0.0:
        return CheckResult("oracle.hardest_closed_form", False, f"zero case gave {res.loss}")
    # one pair at distance 0.5, no negatives: (0.5 - 0.1)^2 / 1 = 0.16
    f1 = np.array([[1.0, 0.0]])
    f2 = np.array([[np.cos(a := 2 * np.arcsin(0.25)), np.sin(a)]])
    res = hardest_contrastive(MatchBatch.from_features(f1, f2), None, None, cfg)
    dev = abs(res.loss - 0.16)
    return CheckResult("oracle.hardest_closed_form", dev < 1e-12, f"single-pair dev {dev:.3e}")


def _check_schedule_closed_forms() -> CheckResult:
    cfg = TrainConfig(max_iters=1000, base_lr=0.8, lr_power=0.9)
    worst = 0.0
    for t in range(0, 1000, 7):
        want = 0.8 * (1.0 - t / 1000) ** 0.9
        worst = max(worst, abs(poly_lr(t, cfg) - want))
    # two SGD steps with constant gradient g: total displacement lr*g*(2+m)
    params = ParameterSet({"w": np.array([1.0, -2.0])})
    grads = GradientSet({"w": np.array([0.3, 0.1])})
    state = OptimizerState({"w": np.zeros(2)})
    lr, m = 0.05, 0.9
    sgd_step(params, grads, state, lr, m, 0.0)
    sgd_step(params, grads, state, lr, m, 0.0)
    want = np.array([1.0, -2.0]) - lr * np.array([0.3, 0.1]) * (2 + m)
    worst = max(worst, float(np.abs(params["w"] - want).max()))
    return CheckResult("oracle.schedules", worst < 1e-12, f"max dev {worst:.3e}")


def run_oracle_suite(seed: int = 0) -> list[CheckResult]:
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0x04AC))))
    return [
        _check_nn_oracle(rng),
        _check_matching_oracles(rng),
        _check_dense_conv_oracle(rng),
        _check_info_nce_oracle(rng),
        _check_hardest_closed_forms(),
        _check_schedule_closed_forms(),
    ]


def run_suite(name: str, seed: int = 0, instances: int = 20) -> list[CheckResult]:
    if name == "gradcheck":
        return run_gradcheck_suite(seed, instances)
    if name == "oracles":
        return run_oracle_suite(seed)
    if name == "all":
        return run_gradcheck_suite(seed, instances) + run_oracle_suite(seed)
    raise ValueError(f"unknown suite '{name}' (choose gradcheck, oracles, or all)")
