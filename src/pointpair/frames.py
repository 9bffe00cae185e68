"""Depth frames: back-projection into world-frame point clouds, a synthetic
scene generator, and the binary frame file format.

Frame file layout (little-endian):
    magic "PCFD" | u32 H | u32 W | f64 fx, fy, cx, cy
    | f64[16] camera-to-world pose, row-major | f32[H*W] depth in meters

Depth value 0 marks an invalid pixel.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigMixin
from .errors import EmptyViewError, FormatError, file_stream, invalid_content, read_exact, read_struct
from .geometry import PointCloud, check_rotation

_FRAME_MAGIC = b"PCFD"
_NEAR_CLIP = 0.05  # meters: the renderer drops surface points closer to the camera


@dataclass(frozen=True)
class DepthFrame:
    """A depth image with pinhole intrinsics and a camera-to-world pose."""

    depth: np.ndarray
    fx: float
    fy: float
    cx: float
    cy: float
    pose: np.ndarray

    def __post_init__(self):
        depth = np.asarray(self.depth, dtype=np.float64)
        if depth.ndim != 2:
            raise ValueError(f"depth must be a 2D array, got shape {depth.shape}")
        if not np.isfinite([self.fx, self.fy, self.cx, self.cy]).all():
            raise ValueError("intrinsics must be finite")
        if not (self.fx > 0 and self.fy > 0):
            raise ValueError("focal lengths must be positive")
        pose = np.asarray(self.pose, dtype=np.float64)
        if pose.shape != (4, 4):
            raise ValueError(f"pose must be 4x4, got {pose.shape}")
        if not np.isfinite(pose).all():
            raise ValueError("pose must be finite")
        check_rotation(pose[:3, :3])
        object.__setattr__(self, "depth", depth)
        object.__setattr__(self, "pose", pose)

    @property
    def shape(self) -> tuple[int, int]:
        return self.depth.shape


def backproject(frame: DepthFrame) -> PointCloud:
    """Lift every valid pixel to a world-frame 3D point.

    Pixel (u, v) with depth d maps to the camera-frame point
    ((u - cx) d / fx, (v - cy) d / fy, d), then through the pose.  Points
    appear in row-major pixel order.

    Raises
    ------
    EmptyViewError
        If the frame has no valid (depth > 0) pixels.
    """
    v, u = np.nonzero(frame.depth > 0)  # row-major order
    if v.size == 0:
        raise EmptyViewError("depth frame has no valid pixels")
    d = frame.depth[v, u]
    cam = np.empty((v.size, 3), dtype=np.float64)
    cam[:, 0] = (u - frame.cx) * d / frame.fx
    cam[:, 1] = (v - frame.cy) * d / frame.fy
    cam[:, 2] = d
    rot = frame.pose[:3, :3]
    tr = frame.pose[:3, 3]
    return PointCloud(cam @ rot.T + tr)


def write_frame(frame: DepthFrame, target) -> None:
    h, w = frame.shape
    blob = bytearray()
    blob += _FRAME_MAGIC
    blob += struct.pack("<II", h, w)
    blob += struct.pack("<4d", frame.fx, frame.fy, frame.cx, frame.cy)
    blob += frame.pose.astype("<f8").tobytes()
    blob += frame.depth.astype("<f4").tobytes()
    with file_stream(target, "wb") as fh:
        fh.write(bytes(blob))


def read_frame(source) -> DepthFrame:
    with file_stream(source, "rb") as fh:
        if fh.read(4) != _FRAME_MAGIC:
            raise FormatError("bad frame magic; expected PCFD")
        h, w = read_struct(fh, "<II", "frame size")
        fx, fy, cx, cy = read_struct(fh, "<4d", "frame intrinsics")
        pose = np.frombuffer(read_exact(fh, 128, "frame pose"), dtype="<f8").reshape(4, 4).copy()
        raw = read_exact(fh, 4 * h * w, "frame depth payload")
    depth = np.frombuffer(raw, dtype="<f4").reshape(h, w).astype(np.float64)
    with invalid_content("frame"):
        return DepthFrame(depth, fx, fy, cx, cy, pose)


@dataclass(frozen=True)
class SyntheticSceneSpec(ConfigMixin):
    """Deterministic recipe for a synthetic room scene.

    Equal specs (including the seed) produce bit-identical frames.  Surfaces
    are sampled on randomly placed axis-aligned boxes and rectangles inside a
    room, and cameras on a ring around the room center render depth images
    with z-buffer occlusion.
    """

    seed: int = 0
    n_boxes: int = 5
    n_planes: int = 2
    room_size: tuple[float, float, float] = field(default=(4.0, 4.0, 2.4), metadata={"note": "meters"})
    box_extent: tuple[float, float] = field(default=(0.4, 1.2), metadata={"note": "min,max box edge in meters"})
    plane_extent: tuple[float, float] = field(default=(1.0, 2.5), metadata={"note": "min,max plane edge in meters"})
    density: float = field(default=800.0, metadata={"note": "surface samples per square meter"})
    n_cameras: int = 6
    image_width: int = 64
    image_height: int = 48
    focal: float = field(default=52.0, metadata={"note": "pixels"})
    camera_ring_radius: float = 1.5
    camera_height: float = 1.3
    max_depth: float = 12.0

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.n_boxes < 0 or self.n_planes < 0:
            raise ValueError("primitive counts must be non-negative")
        if self.n_boxes + self.n_planes == 0:
            raise ValueError("scene must contain at least one primitive")
        if not min(self.room_size) > 0:
            raise ValueError("room_size must be positive along every axis")
        for key in ("box_extent", "plane_extent"):
            lo, hi = getattr(self, key)
            if not 0 < lo <= hi:
                raise ValueError(f"{key} must satisfy 0 < min <= max")
        if self.box_extent[1] > min(self.room_size):
            raise ValueError("box_extent max must fit inside room_size along every axis")
        if self.density <= 0 or self.n_cameras < 1:
            raise ValueError("density must be positive and n_cameras >= 1")
        if self.image_width < 1 or self.image_height < 1:
            raise ValueError("image_width and image_height must be >= 1")
        if not self.focal > 0:
            raise ValueError("focal must be positive")
        if not self.max_depth > _NEAR_CLIP:
            raise ValueError(f"max_depth must exceed the {_NEAR_CLIP} m near clip")


def _sample_rect(rng, origin, e1, e2, density):
    """Uniform samples on the rectangle origin + s*e1 + t*e2, s,t in [0,1]."""
    area = np.linalg.norm(np.cross(e1, e2))
    n = max(1, int(round(area * density)))
    st = rng.random((n, 2))
    return origin + st[:, :1] * e1 + st[:, 1:] * e2


def _sample_box(rng, center, half, density):
    """Uniform samples over all six faces of an axis-aligned box."""
    pts = []
    for axis in range(3):
        for sign in (-1.0, 1.0):
            o = center.copy()
            o[axis] += sign * half[axis]
            u_ax, v_ax = [a for a in range(3) if a != axis]
            e1 = np.zeros(3)
            e2 = np.zeros(3)
            e1[u_ax] = 2 * half[u_ax]
            e2[v_ax] = 2 * half[v_ax]
            pts.append(_sample_rect(rng, o - e1 / 2 - e2 / 2, e1, e2, density))
    return np.vstack(pts)


def _look_at_pose(position: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Camera-to-world pose with x right, y down, z forward, world z up."""
    forward = target - position
    forward = forward / np.linalg.norm(forward)
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up)
    nr = np.linalg.norm(right)
    if nr < 1e-9:  # looking straight up/down: pick an arbitrary horizontal right
        right = np.array([1.0, 0.0, 0.0])
    else:
        right = right / nr
    down = np.cross(forward, right)
    pose = np.eye(4)
    pose[:3, 0] = right
    pose[:3, 1] = down
    pose[:3, 2] = forward
    pose[:3, 3] = position
    return pose


def scene_surface_points(spec: SyntheticSceneSpec) -> np.ndarray:
    """All sampled surface points of the scene, deterministic in the seed."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(spec.seed)))
    rx, ry, rz = spec.room_size
    lo, hi = spec.box_extent
    pts = []
    for _ in range(spec.n_boxes):
        half = rng.uniform(lo, hi, size=3) / 2
        center = np.array(
            [
                rng.uniform(-rx / 2 + half[0], rx / 2 - half[0]),
                rng.uniform(-ry / 2 + half[1], ry / 2 - half[1]),
                rng.uniform(half[2], rz - half[2]),
            ]
        )
        pts.append(_sample_box(rng, center, half, spec.density))
    for _ in range(spec.n_planes):
        normal_axis = int(rng.integers(3))
        u_ax, v_ax = [a for a in range(3) if a != normal_axis]
        extent = rng.uniform(*spec.plane_extent, size=2)
        origin = np.array(
            [rng.uniform(-rx / 2, rx / 2), rng.uniform(-ry / 2, ry / 2), rng.uniform(0.0, rz)]
        )
        e1 = np.zeros(3)
        e2 = np.zeros(3)
        e1[u_ax] = extent[0]
        e2[v_ax] = extent[1]
        pts.append(_sample_rect(rng, origin - e1 / 2 - e2 / 2, e1, e2, spec.density))
    return np.vstack(pts)


def camera_poses(spec: SyntheticSceneSpec) -> list[np.ndarray]:
    """Cameras on a ring around the room center, all aimed near the center."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((spec.seed, 1))))
    poses = []
    for i in range(spec.n_cameras):
        angle = 2 * np.pi * i / spec.n_cameras + rng.uniform(-0.1, 0.1)
        pos = np.array(
            [
                spec.camera_ring_radius * np.cos(angle),
                spec.camera_ring_radius * np.sin(angle),
                spec.camera_height + rng.uniform(-0.1, 0.1),
            ]
        )
        target = np.array([rng.uniform(-0.3, 0.3), rng.uniform(-0.3, 0.3), rng.uniform(0.6, 1.2)])
        poses.append(_look_at_pose(pos, target))
    return poses


def render_depth(points: np.ndarray, pose: np.ndarray, spec: SyntheticSceneSpec) -> np.ndarray:
    """Project points into the camera and keep the minimum depth per pixel."""
    h, w = spec.image_height, spec.image_width
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    rot = pose[:3, :3]
    tr = pose[:3, 3]
    cam = (points - tr) @ rot  # world -> camera (rot columns are camera axes)
    z = cam[:, 2]
    valid = (z > _NEAR_CLIP) & (z < spec.max_depth)
    cam = cam[valid]
    z = z[valid]
    u = np.rint(spec.focal * cam[:, 0] / z + cx).astype(np.int64)
    v = np.rint(spec.focal * cam[:, 1] / z + cy).astype(np.int64)
    inside = (u >= 0) & (u < w) & (v >= 0) & (v < h)
    depth = np.full((h, w), np.inf)
    np.minimum.at(depth, (v[inside], u[inside]), z[inside])
    depth[~np.isfinite(depth)] = 0.0
    return depth


def synthesize_scene(spec: SyntheticSceneSpec) -> list[DepthFrame]:
    """Render one DepthFrame per camera of a synthetic room scene."""
    points = scene_surface_points(spec)
    h, w = spec.image_height, spec.image_width
    cx, cy = (w - 1) / 2.0, (h - 1) / 2.0
    frames = []
    for pose in camera_poses(spec):
        depth = render_depth(points, pose, spec)
        frames.append(DepthFrame(depth, spec.focal, spec.focal, cx, cy, pose))
    return frames
