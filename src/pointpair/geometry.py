"""Core 3D types: point clouds, rigid+scale transforms, exact nearest-neighbor search.

Distances are Euclidean throughout.  The neighbor index answers queries within
a radius fixed when it is built: each query gets its nearest reference point
at distance <= radius, or (-1, inf) when there is none.  Ties are broken by
the lowest reference index, and every candidate distance is summed as
dx*dx + dy*dy + dz*dz, the order of the brute-force scan, so wherever that
scan finds a point within the radius the two agree bit for bit.

Dense searches over feature rows (`nearest_rows`, and the info_nce loss) hold
at most `BLOCK_ELEMENTS` float64 distances or logits at once: they walk the
query rows in blocks instead of building the full quadratic matrix.
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

# Entries (float64: 8 MiB) of the largest row block that `nearest_rows` and
# `losses.info_nce` hold at once.  A GEMM over a row block can round
# differently from one over all rows, so results are bitwise those of the
# unblocked computation only where one block covers the call.
BLOCK_ELEMENTS = 1 << 20


def pairwise_sq_dists(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared Euclidean distances between row vectors,
    via the Gram expansion and clamped at 0 against rounding.

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


_OFFSETS = np.array([-1.0, 0.0, 1.0])
_QUERY_BLOCK = 4096  # queries whose cell ranges are held at once
_MAX_CANDIDATES = 1 << 18  # (query, reference) distance rows held at once


class NeighborIndex:
    """Uniform grid over a point cloud for exact nearest neighbors within a radius.

    Cells are a little wider than `radius`, so every reference point within
    `radius` of a query lies in the 3x3x3 block of cells around the query's
    cell.  Reference points are sorted by cell key, and a query gathers its
    candidates from the sorted runs of that block.  Cell coordinates are
    ranked per axis over the occupied values, so keys fit in int64 at any
    ratio of cloud extent to radius.

    The index is immutable after construction; concurrent read-only queries
    are safe.
    """

    __slots__ = ("radius", "_cell", "_axes", "_keys", "_order", "_xyz")

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
            values, rank = np.unique(cells[:, k], return_inverse=True)
            self._axes.append(values)
            ranks.append(rank)
        ny, nz = len(self._axes[1]), len(self._axes[2])
        if len(self._axes[0]) * ny * nz >= 2**63:
            raise ValueError("too many occupied cells for int64 cell keys")
        keys = (ranks[0] * ny + ranks[1]) * nz + ranks[2]
        self._order = np.argsort(keys, kind="stable")
        self._keys = keys[self._order]
        self._xyz = pts[self._order].T.copy()

    def nearest_many(self, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Nearest reference point within `radius` of every row of `queries`.

        Returns (indices, distances).  Distance is sqrt(dx*dx + dy*dy + dz*dz),
        a point is within range when distance <= radius, and ties go to the
        lowest reference index.  A query with no point in range gets
        (-1, inf).  Results equal `brute_force_nearest` wherever it finds a
        point within `radius`, bit for bit.
        """
        q = np.asarray(queries, dtype=np.float64).reshape(-1, 3)
        idx = np.full(q.shape[0], -1, dtype=np.int64)
        dist = np.full(q.shape[0], np.inf)
        for s in range(0, q.shape[0], _QUERY_BLOCK):
            block = q[s : s + _QUERY_BLOCK]
            starts, counts = self._cell_runs(block)
            ends = np.cumsum(counts.sum(axis=1))
            a = 0
            while a < block.shape[0]:
                # as many queries as fit in _MAX_CANDIDATES, and at least one
                base = ends[a - 1] if a else 0
                e = max(a + 1, int(np.searchsorted(ends, base + _MAX_CANDIDATES, "right")))
                self._resolve(block[a:e], starts[a:e], counts[a:e], idx[s + a : s + e], dist[s + a : s + e])
                a = e
        return idx, dist

    def _cell_runs(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Start and length of the runs of sorted reference points around
        every query: one run per neighbouring (x, y) cell column, spanning
        z cells c - 1 to c + 1 of the query's cell c.  Two (b, 9) arrays."""
        c = np.floor(q / self._cell)
        ax, ay, az = self._axes
        rx = _neighbour_ranks(ax, c[:, 0])
        ry = _neighbour_ranks(ay, c[:, 1])
        # z ranks of the occupied values in [c - 1, c + 1]: one contiguous key range
        zlo = np.searchsorted(az, c[:, 2] - 1.0, "left")
        zhi = np.searchsorted(az, c[:, 2] + 1.0, "right")
        column = (rx[:, :, None] * len(ay) + ry[:, None, :]).reshape(-1, 9) * len(az)
        lo = np.searchsorted(self._keys, column + zlo[:, None], "left")
        hi = np.searchsorted(self._keys, column + zhi[:, None], "left")
        occupied = ((rx >= 0)[:, :, None] & (ry >= 0)[:, None, :]).reshape(-1, 9)
        return lo, np.where(occupied, hi - lo, 0)

    def _resolve(self, q, starts, counts, out_idx, out_dist) -> None:
        """Exact winners for the queries `q` among their candidate runs."""
        counts = counts.reshape(-1)
        total = int(counts.sum())
        if total == 0:
            return
        owner = np.repeat(np.arange(q.shape[0]), counts.reshape(q.shape[0], -1).sum(axis=1))
        pos = np.arange(total) + np.repeat(starts.reshape(-1) - (np.cumsum(counts) - counts), counts)
        px, py, pz = self._xyz
        dx = px[pos] - q[owner, 0]
        dy = py[pos] - q[owner, 1]
        dz = pz[pos] - q[owner, 2]
        sq = dx * dx + dy * dy + dz * dz
        ok = np.flatnonzero(np.sqrt(sq) <= self.radius)
        if ok.size == 0:
            return
        owner, sq, ref = owner[ok], sq[ok], self._order[pos[ok]]
        # per query: least squared distance, then lowest reference index
        win = np.lexsort((ref, sq, owner))
        first = win[np.r_[True, owner[win[1:]] != owner[win[:-1]]]]
        out_idx[owner[first]] = ref[first]
        out_dist[owner[first]] = np.sqrt(sq[first])


def _neighbour_ranks(values: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Rank in `values` of c - 1, c and c + 1 for every c: shape (n, 3), -1 where absent."""
    want = c[:, None] + _OFFSETS
    r = np.searchsorted(values, want)
    hit = values[np.minimum(r, len(values) - 1)] == want
    return np.where(hit, r, -1)


def build_index(pc: PointCloud, radius: float) -> NeighborIndex:
    """Build a `NeighborIndex` over `pc` for queries within `radius` (pure:
    equal clouds and radii give equal answers)."""
    return NeighborIndex(pc, radius)
