"""Sparse voxel tensors: quantization and sorted-key coordinate lookup.

Voxel coordinates are ``floor(p / voxel_size)`` componentwise.  When several
points share a voxel, the voxel keeps the feature row of the lowest-index
point, which keeps quantization deterministic and its gradient trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import PointCloud

# Coordinates are packed into one signed 64-bit key, 21 bits per axis.
_COORD_BITS = 21
_COORD_LIMIT = 1 << (_COORD_BITS - 1)  # coords must lie in [-2^20, 2^20)
_AXIS_MASK = (1 << _COORD_BITS) - 1


def pack_coords(coords: np.ndarray) -> np.ndarray:
    """Pack integer (N, 3) voxel coordinates into unique int64 keys."""
    c = np.asarray(coords, dtype=np.int64)
    if c.size and (c.min() < -_COORD_LIMIT or c.max() >= _COORD_LIMIT):
        raise ValueError(
            f"voxel coordinates must lie in [{-_COORD_LIMIT}, {_COORD_LIMIT}); "
            f"got range [{c.min()}, {c.max()}]"
        )
    s = c + _COORD_LIMIT
    return (s[:, 0] << (2 * _COORD_BITS)) | (s[:, 1] << _COORD_BITS) | s[:, 2]


def unpack_coords(keys: np.ndarray) -> np.ndarray:
    k = np.asarray(keys, dtype=np.int64)
    x = (k >> (2 * _COORD_BITS)) & _AXIS_MASK
    y = (k >> _COORD_BITS) & _AXIS_MASK
    z = k & _AXIS_MASK
    return np.stack([x, y, z], axis=1) - _COORD_LIMIT


def pack_shifted(coords: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Keys of ``coords + offset`` for every offset, offset-major, shape (K * N,).

    Packing is additive while every field stays in range, so each offset adds
    one key delta to the packed coordinates.  The bounding box of all shifted
    coordinates is packed first: a query outside the packing range raises
    ValueError, as ``pack_coords`` would, instead of borrowing across fields
    into another coordinate's key.
    """
    c = np.asarray(coords, dtype=np.int64)
    o = np.asarray(offsets, dtype=np.int64).reshape(-1, 3)
    if c.size and o.size:
        pack_coords(np.stack([c.min(axis=0) + o.min(axis=0), c.max(axis=0) + o.max(axis=0)]))
    deltas = (o[:, 0] << (2 * _COORD_BITS)) + (o[:, 1] << _COORD_BITS) + o[:, 2]
    return (deltas[:, None] + pack_coords(c)[None, :]).ravel()


class VoxelHashMap:
    """Sorted-key map from integer voxel coordinates to row indices.

    The packed keys are argsorted once, so any row order works; a lookup is
    one ``np.searchsorted`` over the sorted keys followed by an equality
    test.  Results depend only on the coordinate values.
    """

    __slots__ = ("_sorted", "_rows")

    def __init__(self, coords: np.ndarray):
        keys = pack_coords(coords)
        rows = np.argsort(keys, kind="stable")
        if (np.diff(keys[rows]) == 0).any():
            raise ValueError("duplicate voxel coordinates")
        # an end sentinel keeps every searchsorted position in bounds; its row is -1
        self._sorted = np.append(keys[rows], np.iinfo(np.int64).max)
        self._rows = np.append(rows, -1)

    def lookup(self, coords: np.ndarray, offsets: np.ndarray | None = None) -> np.ndarray:
        """Row index per query coordinate; -1 where absent.

        With `offsets` (K, 3), the queries are ``coords + offset`` for every
        offset, offset-major: entry ``k * len(coords) + i`` answers
        ``coords[i] + offsets[k]``.
        """
        keys = pack_coords(coords) if offsets is None else pack_shifted(coords, offsets)
        pos = np.searchsorted(self._sorted, keys)
        return np.where(self._sorted[pos] == keys, self._rows[pos], -1)


@dataclass(eq=False)
class SparseVoxelTensor:
    """Unique integer voxel coordinates with an aligned feature matrix.

    ``origin_map`` gives, for each point of the originating cloud, the row of
    its voxel, and ``first_points`` gives, for each row, the voxel's
    representative point: the lowest index of the points that fall in it.
    Both come from `quantize` and are None for tensors created inside the
    network.  Features are kept as given when float32 or float64 and cast
    to float64 otherwise.  Treat instances as immutable after construction.
    """

    coords: np.ndarray
    features: np.ndarray
    voxel_size: float
    origin_map: np.ndarray | None = None
    first_points: np.ndarray | None = None

    def __post_init__(self):
        coords = np.ascontiguousarray(self.coords, dtype=np.int64)
        # float64 is kept uncopied: finite-difference checks perturb it in place
        feats = np.asarray(self.features)
        if feats.dtype != np.float32:
            feats = feats.astype(np.float64, copy=False)
        if coords.ndim != 2 or coords.shape[1] != 3:
            raise ValueError(f"coords must have shape (M, 3), got {coords.shape}")
        if feats.ndim != 2 or feats.shape[0] != coords.shape[0]:
            raise ValueError(
                f"features must have one row per coordinate: {feats.shape} vs {coords.shape[0]}"
            )
        if (self.first_points is None) != (self.origin_map is None):
            raise ValueError("origin_map and first_points must be given together")
        if self.origin_map is not None:
            om = np.asarray(self.origin_map, dtype=np.int64)
            if om.size and (om.min() < 0 or om.max() >= coords.shape[0]):
                raise ValueError("origin_map entries must be valid row indices")
            object.__setattr__(self, "origin_map", om)
        self.coords = coords
        self.features = feats

    def __len__(self) -> int:
        return self.coords.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def replace_features(self, features: np.ndarray) -> "SparseVoxelTensor":
        """Same coordinates and bookkeeping, new feature matrix."""
        return SparseVoxelTensor(self.coords, features, self.voxel_size, self.origin_map, self.first_points)


def quantize(pc: PointCloud, voxel_size: float) -> SparseVoxelTensor:
    """Quantize a point cloud onto a voxel grid of edge `voxel_size` meters.

    Each voxel's feature row comes from the lowest-index point that falls in
    it (kept as the tensor's ``first_points``), or a constant 1.0 occupancy
    column when the cloud carries no features.  Voxel rows are ordered
    canonically (sorted by packed coordinate).
    """
    if not voxel_size > 0:
        raise ValueError("voxel_size must be positive")
    vcoords = np.floor(pc.points / voxel_size).astype(np.int64)
    keys = pack_coords(vcoords)
    _, first_idx, inverse = np.unique(keys, return_index=True, return_inverse=True)
    coords = vcoords[first_idx]
    if pc.features is not None:
        feats = pc.features[first_idx].copy()
    else:
        feats = np.ones((first_idx.shape[0], 1), dtype=np.float64)
    return SparseVoxelTensor(coords, feats, float(voxel_size), inverse.astype(np.int64), first_idx)


def collapse_matches_to_voxels(
    matches: np.ndarray, origin_map1: np.ndarray, origin_map2: np.ndarray
) -> np.ndarray:
    """Map point-level matches to voxel-row matches, greedily deduplicated.

    Walking matches in order, a match survives only if neither its left nor
    its right voxel row has been used yet, so the result pairs distinct rows
    on both sides (required by the softmax objective, where a repeated row
    would turn a negative into a hidden positive).
    """
    m = np.asarray(matches, dtype=np.int64)
    r1 = origin_map1[m[:, 0]]
    r2 = origin_map2[m[:, 1]]
    seen1 = np.zeros(int(origin_map1.max()) + 1, dtype=bool)
    seen2 = np.zeros(int(origin_map2.max()) + 1, dtype=bool)
    kept = []
    for a, b in zip(r1.tolist(), r2.tolist()):
        if not (seen1[a] or seen2[b]):
            seen1[a] = True
            seen2[b] = True
            kept.append((a, b))
    return np.asarray(kept, dtype=np.int64).reshape(-1, 2)
