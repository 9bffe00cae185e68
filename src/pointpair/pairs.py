"""View pairs: overlap measurement, point correspondences, pair generation.

Overlap between two views is the symmetric minimum of the two directed
inlier fractions (fraction of one view's points with a neighbor in the other
view within a radius).  Correspondences take, for every point of the first
view, its single nearest neighbor in the second view within the radius.
Both come from one radius-bounded search of x1's points over an index of
x2 (`geometry.NeighborIndex`): a point is within range when its distance is
<= radius, and ties go to the lowest index.  That search yields the matches
and the x1 -> x2 inlier fraction, and its `reached` mask, the x2 points
within the radius of some x1 point, is exactly the x2 -> x1 inlier
fraction, so no second search runs.  `generate_pairs` takes the later view
of each candidate pair as the reference, indexes each view once when its
turn as reference comes, and holds one index at a time.

Pair file layout (little-endian):
    magic "PCPR" | PLY block (view 1) | PLY block (view 2)
    | u64 match count | matches as (u32 i, u32 j) | f64 overlap
"""

from __future__ import annotations

import logging
import math
import struct
from dataclasses import dataclass

import numpy as np

from .config import ConfigMixin
from .errors import EmptyViewError, FormatError, file_stream, invalid_content, read_exact, read_struct
from .frames import DepthFrame, backproject
from .geometry import NeighborIndex, PointCloud, build_index
from .ply import ply_bytes, read_ply
from .voxel import quantize

log = logging.getLogger(__name__)

_PAIR_MAGIC = b"PCPR"


@dataclass(frozen=True)
class PairConfig(ConfigMixin):
    """Pair-generation parameters: keep every `stride`-th frame, subsample its
    view at `voxel_size`, and keep a view pair whose overlap at the match
    `radius` (meters) reaches `overlap_threshold`."""

    stride: int = 25
    overlap_threshold: float = 0.30
    radius: float = 0.025
    voxel_size: float = 0.025

    def __post_init__(self):
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        if not 0.0 < self.overlap_threshold <= 1.0:
            raise ValueError("overlap_threshold must lie in (0, 1]")
        if not 0 < self.radius < math.inf:
            raise ValueError("radius must be positive and finite")
        if not 0 < self.voxel_size < math.inf:
            raise ValueError("voxel_size must be positive and finite")


@dataclass(frozen=True)
class CorrespondenceMap:
    """Index pairs (i, j) linking points of view 1 to points of view 2."""

    matches: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matches, dtype=np.int64).reshape(-1, 2)
        if m.size and m.min() < 0:
            raise ValueError("match indices must be non-negative")
        if m.shape[0] > 1:
            keys = m[:, 0] << 32 | m[:, 1]
            if np.unique(keys).shape[0] != m.shape[0]:
                raise ValueError("duplicate (i, j) match pair")
        object.__setattr__(self, "matches", m)

    def __len__(self) -> int:
        return self.matches.shape[0]


@dataclass(frozen=True)
class ScenePair:
    """Two partial views of one scene with their correspondence map."""

    x1: PointCloud
    x2: PointCloud
    correspondences: CorrespondenceMap
    overlap: float
    scene_id: str = ""
    frame_ids: tuple[int, int] = (0, 1)

    def __post_init__(self):
        if not 0.0 <= self.overlap <= 1.0:
            raise ValueError(f"overlap must lie in [0, 1], got {self.overlap}")
        m = self.correspondences.matches
        if m.shape[0] < 1:
            raise ValueError("a scene pair needs at least one correspondence")
        if m[:, 0].max() >= len(self.x1) or m[:, 1].max() >= len(self.x2):
            raise ValueError("correspondence indices out of range")


def compute_overlap(x1: PointCloud, x2: PointCloud, radius: float) -> float:
    """Symmetric overlap ratio: min of the two directed inlier fractions,
    from one index (over x2) and one search."""
    if not radius > 0:
        raise ValueError("radius must be positive")
    return _overlap_and_matches(build_index(x2, radius), x1)[0]


def compute_correspondences(x1: PointCloud, x2: PointCloud, radius: float) -> CorrespondenceMap:
    """Nearest neighbor in x2 within `radius` for every x1 point that has one.

    Output i values are strictly increasing; several i may share one j.
    """
    j12, _ = build_index(x2, radius).nearest_many(x1.points)
    return _matches(j12)


def _overlap_and_matches(index2: NeighborIndex, x1: PointCloud) -> tuple[float, np.ndarray]:
    """Overlap of x1 with the view `index2` was built over, and the neighbor
    index in it of every x1 point (-1: none in range), from one search."""
    reached = np.zeros(len(index2), dtype=bool)
    j12, _ = index2.nearest_many(x1.points, reached)
    inliers12 = float(np.count_nonzero(j12 >= 0)) / j12.shape[0]
    inliers21 = float(np.count_nonzero(reached)) / reached.shape[0]
    return min(inliers12, inliers21), j12


def _matches(j12: np.ndarray) -> CorrespondenceMap:
    i = np.flatnonzero(j12 >= 0)
    return CorrespondenceMap(np.stack([i, j12[i]], axis=1))


def subsample_view(pc: PointCloud, voxel_size: float) -> PointCloud:
    """One representative point per voxel at `voxel_size` (lowest-index wins)."""
    t = quantize(pc, voxel_size)
    return PointCloud(pc.points[t.first_points], t.features if pc.features is not None else None)


def generate_pairs(
    frames: list[DepthFrame],
    stride: int = PairConfig.stride,
    overlap_threshold: float = PairConfig.overlap_threshold,
    radius: float = PairConfig.radius,
    voxel_size: float = PairConfig.voxel_size,
    scene_id: str = "",
) -> list[ScenePair]:
    """Emit every view pair whose overlap reaches the threshold.

    Views are the back-projected frames at indices 0, stride, 2*stride, ...,
    voxel-subsampled at `voxel_size` before matching to bound cost.  Frames
    with no valid pixels are skipped with a warning.  Output order is
    canonical: ascending (frame index a, frame index b) with a < b.  The
    parameters are `PairConfig`'s fields, with its defaults and bounds.

    The reference view b is the outer loop: its index is built once, serves
    one search of every earlier view a's points, and is dropped before the
    next view's is built, so one index is alive at a time and each candidate
    pair costs one search.
    """
    PairConfig(stride, overlap_threshold, radius, voxel_size)  # raises ValueError when one is out of range
    views: list[tuple[int, PointCloud]] = []
    for fi in range(0, len(frames), stride):
        try:
            view = backproject(frames[fi])
        except EmptyViewError:
            log.warning("frame %d has no valid pixels; skipped", fi)
            continue
        views.append((fi, subsample_view(view, voxel_size)))
    pairs = []
    for b in range(1, len(views)):
        fb, vb = views[b]
        index = build_index(vb, radius)
        for fa, va in views[:b]:
            ov, j12 = _overlap_and_matches(index, va)
            if ov >= overlap_threshold:  # > 0, so x1 has at least one match
                pairs.append(
                    ScenePair(va, vb, _matches(j12), ov, scene_id=scene_id, frame_ids=(fa, fb))
                )
        del index  # before the next view's is built
    pairs.sort(key=lambda p: p.frame_ids)
    return pairs


def write_pair(pair: ScenePair, target) -> None:
    blob = bytearray()
    blob += _PAIR_MAGIC
    blob += ply_bytes(pair.x1)
    blob += ply_bytes(pair.x2)
    m = pair.correspondences.matches
    blob += struct.pack("<Q", m.shape[0])
    blob += m.astype("<u4").tobytes()
    blob += struct.pack("<d", pair.overlap)
    with file_stream(target, "wb") as fh:
        fh.write(bytes(blob))


def read_pair(source, scene_id: str = "", frame_ids: tuple[int, int] = (0, 1)) -> ScenePair:
    with file_stream(source, "rb") as fh:
        if fh.read(4) != _PAIR_MAGIC:
            raise FormatError("bad pair magic; expected PCPR")
        x1 = read_ply(fh)
        x2 = read_ply(fh)
        (count,) = read_struct(fh, "<Q", "match count")
        raw = read_exact(fh, 8 * count, "match payload")
        (overlap,) = read_struct(fh, "<d", "pair overlap")
    matches = np.frombuffer(raw, dtype="<u4").reshape(count, 2).astype(np.int64)
    with invalid_content("pair"):
        return ScenePair(x1, x2, CorrespondenceMap(matches), overlap, scene_id, frame_ids)


def revalidate_pair(pair: ScenePair, radius: float, overlap_threshold: float) -> None:
    """Recheck a pair loaded from elsewhere: overlap still reaches the
    threshold and every stored match is within `radius`.  Raises FormatError
    on violation.  `generate_pairs` output needs no recheck, so `pointpair
    pairgen` does not call this."""
    ov = compute_overlap(pair.x1, pair.x2, radius)
    if ov < overlap_threshold - 1e-6:  # slack for the float32 PLY round-trip
        raise FormatError(
            f"pair fails overlap recheck: {ov:.4f} < threshold {overlap_threshold:.4f}"
        )
    m = pair.correspondences.matches
    d = np.linalg.norm(pair.x1.points[m[:, 0]] - pair.x2.points[m[:, 1]], axis=1)
    if d.size and float(d.max()) > radius * (1.0 + 1e-6) + 1e-9:
        raise FormatError(f"pair match distance {d.max():.6f} exceeds radius {radius:.6f}")
