"""Feature quality metrics: per-pair hit ratio and feature-matching recall.

For every matched voxel of view 1 the evaluator looks up the nearest neighbor
of its feature among all of view 2's features; the match is a hit when that
neighbor's 3D point lies within the inlier distance of the ground-truth
counterpart (views are world-aligned, so no extra registration is needed).
A pair's hit ratio is hits / matches; feature-matching recall is the fraction
of pairs whose hit ratio exceeds the inlier-ratio threshold.

Evaluation is read-only: networks run in eval mode and the parameter registry
is never modified.  Consecutive pairs of one scene often share a view; the
network feature source runs each such view once (`model_feature_fn`).
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import ConfigMixin
from .errors import file_stream, write_json
from .geometry import PointCloud, nearest_rows
from .losses import l2_normalize_rows_with_grad
from .net.unet import UNet, UNetConfig
from .net.params import ParameterSet
from .pairs import ScenePair
from .voxel import SparseVoxelTensor, collapse_matches_to_voxels, quantize

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class FmrConfig(ConfigMixin):
    inlier_distance: float = 0.1  # meters (tau_1)
    inlier_ratio_threshold: float = 0.05  # tau_2

    def __post_init__(self):
        # an infinite distance counts every match as a hit
        if not 0 < self.inlier_distance < math.inf:
            raise ValueError("inlier_distance must be positive and finite")
        # a pair counts when its hit ratio, at most 1, exceeds the threshold
        if not 0 < self.inlier_ratio_threshold < 1:
            raise ValueError("inlier_ratio_threshold must lie in (0, 1)")


@dataclass
class VoxelizedPair:
    """A pair quantized for evaluation, with its voxel-row matches."""

    s1: SparseVoxelTensor
    s2: SparseVoxelTensor
    row_matches: np.ndarray


def voxelize_pair(pair: ScenePair, voxel_size: float) -> VoxelizedPair:
    s1 = quantize(pair.x1, voxel_size)
    s2 = quantize(pair.x2, voxel_size)
    rows = collapse_matches_to_voxels(pair.correspondences.matches, s1.origin_map, s2.origin_map)
    return VoxelizedPair(s1, s2, rows)


def hit_ratio(
    pair: ScenePair,
    f1: np.ndarray,
    f2: np.ndarray,
    inlier_distance: float,
    voxel_size: float,
) -> float:
    """Fraction of matched voxels whose feature-space nearest neighbor lies
    within `inlier_distance` of the true counterpart.

    f1 and f2 must be row-aligned with the pair's views quantized at
    `voxel_size` (as produced by `voxelize_pair` / the feature functions).
    The feature-space search is `geometry.nearest_rows`, in the features'
    dtype: it holds the distances of one row block of matches at a time,
    never the full matches x view-2 matrix.
    """
    vp = voxelize_pair(pair, voxel_size)
    if vp.row_matches.shape[0] == 0:
        raise ValueError("pair has no voxel-level matches to evaluate")
    if f1.shape[0] != len(vp.s1) or f2.shape[0] != len(vp.s2):
        raise ValueError("features are not row-aligned with the voxelized views")
    src = vp.row_matches[:, 0]
    gt = vp.row_matches[:, 1]
    j_hat = nearest_rows(f1[src], f2)  # ties: lowest row index
    rep2 = pair.x2.points[vp.s2.first_points]
    err = np.linalg.norm(rep2[j_hat] - rep2[gt], axis=1)
    return float(np.count_nonzero(err <= inlier_distance)) / src.shape[0]


def _view2_diagonal(pair: ScenePair, voxel_size: float) -> float:
    """Bounding-box diagonal of view 2's representative points, the points
    whose distances `hit_ratio` measures."""
    rep2 = pair.x2.points[quantize(pair.x2, voxel_size).first_points]
    return float(np.linalg.norm(rep2.max(axis=0) - rep2.min(axis=0)))


@dataclass
class FmrReport:
    fmr: float
    hit_ratios: list[float]
    inlier_flags: list[bool]
    pair_ids: list[str]

    @property
    def mean_hit_ratio(self) -> float:
        return float(np.mean(self.hit_ratios)) if self.hit_ratios else 0.0


def feature_match_recall(
    pairs: list[ScenePair],
    feature_fn,
    cfg: FmrConfig,
    voxel_size: float,
    pair_ids: list[str] | None = None,
) -> FmrReport:
    """Evaluate `feature_fn(pair) -> (f1, f2)` over pairs in canonical order.

    Logs one warning when `cfg.inlier_distance` is at least the
    bounding-box diagonal of some pair's view-2 representative points: no
    match of that pair can then miss, whatever the features.
    """
    if not pairs:
        raise ValueError("no pairs to evaluate")
    ids = pair_ids if pair_ids is not None else [f"pair{i:04d}" for i in range(len(pairs))]
    if len(ids) != len(pairs):
        raise ValueError(f"{len(ids)} pair ids for {len(pairs)} pairs")
    ratios = []
    flags = []
    vacuous = []  # ids of the pairs whose every match is a hit by the distance alone
    for pair, pid in zip(pairs, ids):
        f1, f2 = feature_fn(pair)
        r = hit_ratio(pair, f1, f2, cfg.inlier_distance, voxel_size)
        ratios.append(r)
        flags.append(r > cfg.inlier_ratio_threshold)
        # such a pair scores 1, so only those need the diagonal
        if r == 1.0 and cfg.inlier_distance >= _view2_diagonal(pair, voxel_size):
            vacuous.append(pid)
    if vacuous:
        log.warning(
            "inlier distance %g m reaches the bounding-box diagonal of view 2 in %d of %d pairs "
            "(first: %s): every match of those pairs is a hit, whatever the features",
            cfg.inlier_distance, len(vacuous), len(pairs), vacuous[0],
        )
    fmr = float(np.count_nonzero(flags)) / len(flags)
    return FmrReport(fmr, ratios, flags, list(ids))


def _same_view(kept_points, kept_feats, view: PointCloud) -> bool:
    if not np.array_equal(kept_points, view.points):
        return False
    if kept_feats is None or view.features is None:
        return kept_feats is None and view.features is None
    return np.array_equal(kept_feats, view.features)


def model_feature_fn(params: ParameterSet, cfg: UNetConfig, voxel_size: float, normalize: bool = True):
    """Feature source backed by a network in eval mode (parameters untouched).

    The returned `fn(pair) -> (f1, f2)` keeps the previous pair's two views: a
    copy of each view's points and point features, and its output features.
    A view of the next pair whose points and point features are equal to a
    kept view's reuses that view's features instead of quantizing it and
    running the network again; the features are bitwise those of a fresh
    forward.  They come in the network's compute dtype (float32,
    `net.unet.COMPUTE_DTYPE`).  The returned arrays are read-only, since one
    array may serve two pairs.  `params` must not change while `fn` is in
    use.
    """
    unet = UNet(cfg)
    kept: list[tuple[np.ndarray, np.ndarray | None, np.ndarray]] = []  # previous pair's views

    def features(view: PointCloud) -> np.ndarray:
        for points, feats, out in kept:
            if _same_view(points, feats, view):
                return out
        out, _ = unet.forward(quantize(view, voxel_size), params, "eval")
        f = out.features
        if normalize:
            f, _ = l2_normalize_rows_with_grad(f)
        f.flags.writeable = False
        return f

    def fn(pair: ScenePair):
        f1, f2 = features(pair.x1), features(pair.x2)
        kept[:] = [
            (view.points.copy(), None if view.features is None else view.features.copy(), f)
            for view, f in ((pair.x1, f1), (pair.x2, f2))
        ]
        return f1, f2

    return fn


def coordinate_feature_fn(voxel_size: float):
    """Baseline: each voxel's representative 3D point doubles as its feature."""

    def fn(pair: ScenePair):
        return tuple(view.points[quantize(view, voxel_size).first_points] for view in (pair.x1, pair.x2))

    return fn


def random_feature_fn(dim: int, seed: int, voxel_size: float):
    """Baseline: seeded Gaussian features (deterministic over call order)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, 0xFEA7))))

    def fn(pair: ScenePair):
        n1 = len(quantize(pair.x1, voxel_size))
        n2 = len(quantize(pair.x2, voxel_size))
        return rng.standard_normal((n1, dim)), rng.standard_normal((n2, dim))

    return fn


def write_report(out_dir: str, report: FmrReport, cfg: FmrConfig) -> None:
    """Per-pair CSV plus a JSON summary, both written atomically."""
    with file_stream(os.path.join(out_dir, "eval_pairs.csv"), "w") as fh:
        fh.write("pair_id,hit_ratio,inlier\n")
        for pid, r, flag in zip(report.pair_ids, report.hit_ratios, report.inlier_flags):
            fh.write(f"{pid},{r!r},{int(flag)}\n")
    write_json(
        os.path.join(out_dir, "eval_summary.json"),
        {"fmr": report.fmr, "mean_hit_ratio": report.mean_hit_ratio, "pairs": len(report.hit_ratios)}
        | cfg.to_dict(),
    )
