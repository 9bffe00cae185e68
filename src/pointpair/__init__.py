"""Self-supervised pre-training for sparse voxel networks: overlapping point
cloud view pairs, dense point-level contrastive objectives, and a sparse
residual U-Net with hand-written gradients."""

__version__ = "0.1.0"

from .geometry import (
    NeighborIndex,
    PointCloud,
    RigidScaleTransform,
    apply_transform,
    brute_force_nearest,
    build_index,
    rotation_about_axis,
)
from .voxel import SparseVoxelTensor, quantize
from .frames import DepthFrame, SyntheticSceneSpec, backproject, synthesize_scene
from .pairs import (
    CorrespondenceMap,
    PairConfig,
    ScenePair,
    compute_correspondences,
    compute_overlap,
    generate_pairs,
)
from .augment import AugmentationConfig, sample_transform
from .losses import (
    LossConfig,
    MatchBatch,
    collapse_metric,
    hardest_contrastive,
    info_nce,
    l2_normalize_rows,
    subsample_matches,
)
from .net import ParameterSet, GradientSet, UNet, UNetConfig
from .train import TrainConfig, OptimizerState, TrainLogRecord, poly_lr, sgd_step, train
from .evaluate import FmrConfig, feature_match_recall, hit_ratio

__all__ = [
    "__version__",
    "PointCloud",
    "RigidScaleTransform",
    "NeighborIndex",
    "apply_transform",
    "build_index",
    "brute_force_nearest",
    "rotation_about_axis",
    "SparseVoxelTensor",
    "quantize",
    "DepthFrame",
    "SyntheticSceneSpec",
    "backproject",
    "synthesize_scene",
    "CorrespondenceMap",
    "PairConfig",
    "ScenePair",
    "compute_overlap",
    "compute_correspondences",
    "generate_pairs",
    "AugmentationConfig",
    "sample_transform",
    "LossConfig",
    "MatchBatch",
    "subsample_matches",
    "l2_normalize_rows",
    "info_nce",
    "hardest_contrastive",
    "collapse_metric",
    "ParameterSet",
    "GradientSet",
    "UNet",
    "UNetConfig",
    "TrainConfig",
    "OptimizerState",
    "TrainLogRecord",
    "poly_lr",
    "sgd_step",
    "train",
    "FmrConfig",
    "hit_ratio",
    "feature_match_recall",
]
