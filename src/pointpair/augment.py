"""Random geometric augmentations applied independently to the two views.

A sampled transform rotates by a uniform angle in [0, 360) degrees about an
axis drawn uniformly on the unit sphere, and scales uniformly within a
configured range.  Translation is always zero: it adds nothing once views are
recentred by the network's translation-invariant convolutions, and optional
point jitter / dropout cover the remaining perturbation styles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ConfigMixin
from .geometry import PointCloud, RigidScaleTransform, rotation_about_axis


@dataclass(frozen=True)
class AugmentationConfig(ConfigMixin):
    rotation_enabled: bool = field(default=True, metadata={"note": "uniform angle about a uniform random axis"})
    scale_min: float = 0.8
    scale_max: float = 1.2
    jitter_sigma: float = field(default=0.0, metadata={"note": "meters; 0 disables"})
    dropout_fraction: float = field(default=0.0, metadata={"note": "fraction of points removed; 0 disables"})
    rng_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.scale_min <= self.scale_max:
            raise ValueError("require 0 < scale_min <= scale_max")
        if not 0.0 <= self.dropout_fraction < 1.0:
            raise ValueError("dropout_fraction must lie in [0, 1)")
        if self.jitter_sigma < 0.0:
            raise ValueError("jitter_sigma must be non-negative")


def sample_unit_axis(rng: np.random.Generator) -> np.ndarray:
    """Uniform direction on the unit sphere via a normalized Gaussian draw."""
    while True:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n > 1e-12:
            return v / n


def sample_transform(cfg: AugmentationConfig, rng: np.random.Generator) -> RigidScaleTransform:
    """Draw one random view transform; advances `rng` deterministically.

    Draw order is fixed (axis, angle, scale) so identical generator states
    always produce identical transform sequences.
    """
    if cfg.rotation_enabled:
        axis = sample_unit_axis(rng)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        rot = rotation_about_axis(axis, angle)
    else:
        rot = np.eye(3)
    scale = rng.uniform(cfg.scale_min, cfg.scale_max)
    return RigidScaleTransform(rot, np.zeros(3), scale)


def jitter_points(pc: PointCloud, sigma: float, rng: np.random.Generator) -> PointCloud:
    """Add isotropic Gaussian noise (std `sigma` meters) to every point."""
    if sigma <= 0.0:
        return pc
    return PointCloud(pc.points + rng.normal(0.0, sigma, pc.points.shape), pc.features)


def dropout_points(
    pc: PointCloud, fraction: float, rng: np.random.Generator
) -> tuple[PointCloud, np.ndarray]:
    """Remove a uniform random fraction of points, keeping at least one.

    Returns the reduced cloud and the sorted indices of the kept points so
    that callers can remap correspondence indices.
    """
    n = len(pc)
    if fraction <= 0.0:
        return pc, np.arange(n, dtype=np.int64)
    n_keep = max(1, n - int(round(fraction * n)))
    keep = np.sort(rng.choice(n, size=n_keep, replace=False)).astype(np.int64)
    feats = pc.features[keep] if pc.features is not None else None
    return PointCloud(pc.points[keep], feats), keep
