"""Core 3D types: point clouds, rigid+scale transforms, exact nearest-neighbor search.

Distances are Euclidean throughout.  The neighbor index answers queries within
a radius fixed when it is built: each query gets its nearest reference point
at distance <= radius, or (-1, inf) when there is none.  Ties are broken by
the lowest reference index, and every candidate distance is summed as
dx*dx + dy*dy + dz*dz, the order of the brute-force scan, so wherever that
scan finds a point within the radius the two agree bit for bit.

Dense searches over feature rows (`nearest_rows`, and the info_nce loss) hold
at most `BLOCK_ELEMENTS` distances or logits at once: they walk the query rows
in blocks instead of building the full quadratic matrix.  They compute in the
dtype of the feature rows they are given: float32 for the network's
features, float64 for the baselines and the oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidTransformError

_ORTHO_TOL = 1e-9


def _as_points(points) -> np.ndarray:
    pts = np.array(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (N, 3), got {pts.shape}")
    if pts.shape[0] < 1:
        raise ValueError("a point cloud must contain at least one point")
    if not np.isfinite(pts).all():
        raise ValueError("points contain non-finite coordinates")
    return pts


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of 3D points (meters) with optional per-point features.

    Parameters
    ----------
    points : ndarray, shape (N, 3)
        Finite coordinates, N >= 1.
    features : ndarray, shape (N, D), optional
        One feature row per point.
    """

    points: np.ndarray
    features: np.ndarray | None = None

    def __post_init__(self):
        pts = _as_points(self.points)
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        if self.features is not None:
            feats = np.array(self.features, dtype=np.float64)
            if feats.ndim != 2 or feats.shape[0] != pts.shape[0]:
                raise ValueError(
                    f"features must have one row per point: {feats.shape} vs {pts.shape[0]} points"
                )
            if not np.isfinite(feats).all():
                raise ValueError("features contain non-finite values")
            feats.flags.writeable = False
            object.__setattr__(self, "features", feats)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def feature_dim(self) -> int | None:
        return None if self.features is None else self.features.shape[1]


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rotation matrix for `angle` radians about a 3D `axis` (Rodrigues form)."""
    ax = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(ax)
    if n == 0.0 or not np.isfinite(n):
        raise ValueError("rotation axis must be a nonzero finite vector")
    x, y, z = ax / n
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def check_rotation(rot: np.ndarray) -> None:
    """ValueError unless the 3x3 `rot` is finite and orthonormal with
    determinant +1, each to within 1e-9."""
    # an orthonormal matrix has every entry in [-1, 1]; bounding them first
    # keeps rot.T @ rot from overflowing, and NaN fails only the isfinite test
    if (
        not np.isfinite(rot).all()
        or np.abs(rot).max() > 1.0 + _ORTHO_TOL
        or np.abs(rot.T @ rot - np.eye(3)).max() > _ORTHO_TOL
        or abs(np.linalg.det(rot) - 1.0) > _ORTHO_TOL
    ):
        raise ValueError("rotation must be finite and orthonormal with det +1")


@dataclass(frozen=True)
class RigidScaleTransform:
    """Similarity transform p -> scale * (rotation @ p) + translation.

    The rotation must be orthonormal with determinant +1 (tolerance 1e-9) and
    the scale strictly positive.  Composition order is fixed: scale and rotate
    first, then translate, which makes the inverse well defined.
    """

    rotation: np.ndarray
    translation: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        rot = np.array(self.rotation, dtype=np.float64)
        if rot.shape != (3, 3):
            raise ValueError(f"rotation must be 3x3, got {rot.shape}")
        check_rotation(rot)
        tr = np.array(self.translation, dtype=np.float64).reshape(3)
        if not np.isfinite(tr).all():
            raise ValueError("translation contains non-finite values")
        if not (np.isfinite(self.scale) and self.scale > 0.0):
            raise ValueError("scale must be a positive finite scalar")
        rot.flags.writeable = False
        tr.flags.writeable = False
        object.__setattr__(self, "rotation", rot)
        object.__setattr__(self, "translation", tr)
        object.__setattr__(self, "scale", float(self.scale))

    @classmethod
    def identity(cls) -> "RigidScaleTransform":
        return cls(np.eye(3), np.zeros(3), 1.0)

    def apply(self, points: np.ndarray) -> np.ndarray:
        return self.scale * (points @ self.rotation.T) + self.translation

    def inverse(self) -> "RigidScaleTransform":
        inv_rot = self.rotation.T.copy()
        inv_scale = 1.0 / self.scale
        inv_tr = -inv_scale * (inv_rot @ self.translation)
        return RigidScaleTransform(inv_rot, inv_tr, inv_scale)


def apply_transform(pc: PointCloud, t: RigidScaleTransform) -> PointCloud:
    """Transform every point of `pc`; features and ordering are preserved.

    Raises
    ------
    InvalidTransformError
        If any transformed coordinate is non-finite.
    """
    out = t.apply(pc.points)
    if not np.isfinite(out).all():
        raise InvalidTransformError("transform produced non-finite coordinates")
    return PointCloud(out, pc.features)


def brute_force_nearest(pc: PointCloud, query) -> tuple[int, float]:
    """Exhaustive nearest-neighbor scan; ties resolve to the lowest index.

    Serves as the oracle for `NeighborIndex.nearest_many`; both compute
    squared distances as (dx*dx + dy*dy + dz*dz) so results match exactly.
    """
    q = np.asarray(query, dtype=np.float64).reshape(3)
    diff = pc.points - q
    sq = (diff * diff).sum(axis=1)
    idx = int(np.argmin(sq))
    return idx, float(np.sqrt(sq[idx]))


_DIST_BLOCK_ROWS = 64  # rows of temporaries held at once by pairwise_sq_dists

# Entries (4 MiB in float32, 8 MiB in float64) of the largest row block that
# `nearest_rows` and `losses.info_nce` hold at once: a count of entries, not
# bytes, so block boundaries do not depend on the dtype.  A GEMM over a row
# block can round differently from one over all rows, so results are bitwise
# those of the unblocked computation only where one block covers the call.
BLOCK_ELEMENTS = 1 << 20


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances between row vectors,
    via the Gram expansion and clamped at 0 against rounding, in the rows'
    dtype.

    Memory: one len(a) x len(b) buffer.  The Gram matrix is one GEMM (split
    GEMMs round differently) and is overwritten block by block with
    max((|a|^2 + |b|^2) - 2 G, 0), so every element takes the same operations
    in the same order as the unblocked expression.
    """
    an = (a * a).sum(axis=1)[:, None]
    bn = (b * b).sum(axis=1)[None, :]
    g = a @ b.T
    for start in range(0, g.shape[0], _DIST_BLOCK_ROWS):
        r = slice(start, start + _DIST_BLOCK_ROWS)
        np.maximum((an[r] + bn) - 2.0 * g[r], 0.0, out=g[r])
    return g


def nearest_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """For every row of `a`, the index of the row of `b` at the least
    squared distance (`pairwise_sq_dists`); ties go to the lowest index.

    Memory: the distances of one block of `a`'s rows at a time, at most
    `BLOCK_ELEMENTS` entries (one row when a single row of `b` exceeds it).
    When `len(a) * len(b) <= BLOCK_ELEMENTS` this is one call, bitwise
    `pairwise_sq_dists(a, b).argmin(axis=1)`.
    """
    rows = max(1, BLOCK_ELEMENTS // max(1, b.shape[0]))
    out = np.empty(a.shape[0], dtype=np.intp)
    for start in range(0, a.shape[0], rows):
        r = slice(start, start + rows)
        out[r] = pairwise_sq_dists(a[r], b).argmin(axis=1)
    return out


_QUERY_BLOCK = 4096  # queries whose cell runs are held at once
_MAX_CANDIDATES = 1 << 18  # (query, reference) distance rows held at once


class NeighborIndex:
    """Uniform grid over a point cloud for exact nearest neighbors within a radius.

    Cells are a little wider than `radius`, so every reference point within
    `radius` of a query lies in the 3x3x3 block of cells around the query's
    cell.  A *dilated cell* is any cell within one cell, on every axis, of a
    cell that holds a reference point.  The index enters each reference point
    under the 27 dilated cells around its own and sorts the entries once, so
    the candidates of each dilated cell form one run: the reference points of
    the 27 cells around it.  A query ranks its cell on each axis and finds
    its run with one binary search.  Cell coordinates are ranked per axis
    over the dilated values, so keys fit in int64 at any ratio of cloud
    extent to radius.

    Memory (`nbytes`): 27 run entries per reference point, one int64 key and
    one run start per dilated cell (entries and starts int32 below 2^31
    entries), the coordinates and the per-axis values.  That is about 200
    bytes per point on voxel-subsampled surface views (170 to 210 on the
    benchmark scenes), and at most 528 per point plus 4 when no two points
    share a dilated cell.  The build holds up to about 800 bytes per point
    while it sorts.

    The index is immutable after construction; concurrent read-only queries
    are safe.
    """

    __slots__ = ("radius", "_cell", "_axes", "_keys", "_starts", "_refs", "_xyz")

    def __init__(self, pc: PointCloud, radius: float):
        radius = float(radius)
        if not radius >= 0.0:
            raise ValueError(f"radius must be non-negative, got {radius}")
        self.radius = radius
        pts = pc.points
        # Cell edge: radius plus a margin above the rounding of p / cell and
        # of the distance itself, so a point exactly `radius` away can never
        # fall outside the 27 cells.  The margin grows with the coordinates'
        # magnitude (ulps of |p|) and is positive even for radius 0.
        scale = float(np.abs(pts).max()) + radius + 1.0
        self._cell = radius * (1.0 + 1e-6) + 8.0 * np.finfo(np.float64).eps * scale
        cells = np.floor(pts / self._cell)
        self._axes = []
        ranks = []
        for k in range(3):
            occupied = np.unique(cells[:, k])
            values = np.unique(np.concatenate([occupied - 1.0, occupied, occupied + 1.0]))
            self._axes.append(values)
            ranks.append(np.searchsorted(values, cells[:, k]))
        ny, nz = len(self._axes[1]), len(self._axes[2])
        if len(self._axes[0]) * ny * nz >= 2**63:
            raise ValueError("too many occupied cells for int64 cell keys")
        keys = (ranks[0] * ny + ranks[1]) * nz + ranks[2]
        # c - 1, c and c + 1 are adjacent dilated values on every axis, so the
        # 27 cells around a point's own lie at fixed key offsets from its key
        d = np.arange(-1, 2)
        offsets = ((d[:, None, None] * ny + d[None, :, None]) * nz + d).ravel()
        order = np.argsort(keys, kind="stable")
        # 27 sorted runs, one per offset, which the stable sort merges
        entries = (offsets[:, None] + keys[order]).ravel()
        perm = np.argsort(entries, kind="stable")
        entries = entries[perm]
        itype = np.int32 if entries.size < 2**31 else np.int64
        self._refs = order.astype(itype)[np.remainder(perm, len(order), out=perm)]
        first = np.flatnonzero(np.r_[True, entries[1:] != entries[:-1]])
        self._keys = entries[first]
        self._starts = np.append(first, entries.size).astype(itype)
        self._xyz = pts.T.copy()

    def __len__(self) -> int:
        """Number of reference points."""
        return self._xyz.shape[1]

    @property
    def nbytes(self) -> int:
        """Bytes held by the index's arrays."""
        return sum(a.nbytes for a in (*self._axes, self._keys, self._starts, self._refs, self._xyz))

    def nearest_many(
        self, queries: np.ndarray, reached: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Nearest reference point within `radius` of every row of `queries`.

        Returns (indices, distances).  Distance is sqrt(dx*dx + dy*dy + dz*dz),
        a point is within range when distance <= radius, and ties go to the
        lowest reference index.  A query with no point in range gets
        (-1, inf).  Results equal `brute_force_nearest` wherever it finds a
        point within `radius`, bit for bit.

        `reached`, a boolean array with one entry per reference point, is
        set True (never cleared) at every reference point within `radius` of
        some query, so calls may OR into one array.  The distance test is the
        same in both directions (a - b == -(b - a) exactly), so after a call
        `reached` holds exactly the reference points whose own search over
        `queries` would find a neighbour.
        """
        q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        if reached is not None and (reached.dtype != np.bool_ or reached.shape != (len(self),)):
            raise ValueError("reached must be a boolean array with one entry per reference point")
        idx = np.full(q.shape[0], -1, dtype=np.int64)
        dist = np.full(q.shape[0], np.inf)
        for s in range(0, q.shape[0], _QUERY_BLOCK):
            block = q[s : s + _QUERY_BLOCK]
            starts, counts = self._cell_runs(block)
            ends = np.cumsum(counts)
            a = 0
            while a < block.shape[0]:
                # as many queries as fit in _MAX_CANDIDATES, and at least one
                base = ends[a - 1] if a else 0
                e = max(a + 1, int(np.searchsorted(ends, base + _MAX_CANDIDATES, "right")))
                self._resolve(
                    block[a:e], starts[a:e], counts[a:e], idx[s + a : s + e], dist[s + a : s + e], reached
                )
                a = e
        return idx, dist

    def _cell_runs(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start and length of the run of candidates of every query's cell,
        two (b,) arrays; the length is 0 outside the dilated cells."""
        c = np.floor(q / self._cell)
        key = np.zeros(q.shape[0], dtype=np.int64)
        inside = np.ones(q.shape[0], dtype=bool)
        for k, values in enumerate(self._axes):
            r = np.minimum(np.searchsorted(values, c[:, k]), len(values) - 1)
            inside &= values[r] == c[:, k]
            key = key * len(values) + r
        u = np.minimum(np.searchsorted(self._keys, key), len(self._keys) - 1)
        inside &= self._keys[u] == key
        lo = self._starts[u]
        return lo, np.where(inside, self._starts[u + 1] - lo, 0)

    def _resolve(self, q, starts, counts, out_idx, out_dist, reached) -> None:
        """Exact winners for the queries `q` among their candidate runs."""
        total = int(counts.sum())
        if total == 0:
            return
        owner = np.repeat(np.arange(q.shape[0]), counts)
        pos = np.arange(total) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        ref = self._refs[pos]
        px, py, pz = self._xyz
        dx = px[ref] - q[owner, 0]
        dy = py[ref] - q[owner, 1]
        dz = pz[ref] - q[owner, 2]
        sq = dx * dx + dy * dy + dz * dz
        ok = np.flatnonzero(np.sqrt(sq) <= self.radius)
        if ok.size == 0:
            return
        owner, sq, ref = owner[ok], sq[ok], ref[ok]
        if reached is not None:
            reached[ref] = True
        # per query: least squared distance, then lowest reference index
        win = np.lexsort((ref, sq, owner))
        first = win[np.r_[True, owner[win[1:]] != owner[win[:-1]]]]
        out_idx[owner[first]] = ref[first]
        out_dist[owner[first]] = np.sqrt(sq[first])


def build_index(pc: PointCloud, radius: float) -> NeighborIndex:
    """Build a `NeighborIndex` over `pc` for queries within `radius` (pure:
    equal clouds and radii give equal answers)."""
    return NeighborIndex(pc, radius)
