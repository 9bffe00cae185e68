"""PLY reader/writer for point clouds.

Binary little-endian PLY with a single ``vertex`` element; any other format
is rejected with FormatError.
Coordinates are stored as 32-bit floats under properties ``x``, ``y``, ``z``;
optional per-point features are stored as 32-bit floats under ``f0``..``f{D-1}``.
Writing round-trips through float32, so float64 inputs lose precision.
"""

from __future__ import annotations

import io

import numpy as np

from .errors import FormatError, file_stream, invalid_content, read_exact
from .geometry import PointCloud

_FLOAT_NAMES = {"float", "float32"}
_MIN_FIELDS = {"format": 2, "element": 3, "property": 3}  # header keyword -> fields read


def _header_lines(n_points: int, feature_dim: int) -> list[str]:
    lines = [
        "ply",
        "format binary_little_endian 1.0",
        f"element vertex {n_points}",
        "property float x",
        "property float y",
        "property float z",
    ]
    for d in range(feature_dim):
        lines.append(f"property float f{d}")
    lines.append("end_header")
    return lines


def write_ply(pc: PointCloud, target) -> None:
    """Write `pc` to `target` (a path or a binary file object)."""
    dim = pc.feature_dim or 0
    rows = pc.points.astype(np.float32)
    if dim:
        rows = np.hstack([rows, pc.features.astype(np.float32)])
    header = "\n".join(_header_lines(len(pc), dim)) + "\n"
    with file_stream(target, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(rows.astype("<f4").tobytes())


def read_ply(source) -> PointCloud:
    """Read a point cloud from `source` (a path or a binary file object).

    Only ``vertex`` elements with float32 properties x, y, z and optional
    f0..f{D-1} are accepted; anything else raises FormatError.
    """
    with file_stream(source, "rb") as fh:
        return _read_ply_stream(fh)


def _read_line(fh) -> str:
    buf = bytearray()
    while True:
        ch = fh.read(1)
        if not ch:
            raise FormatError("unexpected end of file inside PLY header")
        if ch == b"\n":
            break
        buf.extend(ch)
    try:
        return buf.decode("ascii").strip()
    except UnicodeDecodeError:
        raise FormatError("non-ASCII byte in PLY header") from None


def _read_ply_stream(fh) -> PointCloud:
    if _read_line(fh) != "ply":
        raise FormatError("missing 'ply' magic line")
    has_format = False
    n_points = None
    props: list[str] = []
    in_vertex = False
    while True:
        line = _read_line(fh)
        if line == "end_header":
            break
        parts = line.split()
        if not parts or parts[0] == "comment":
            continue
        if len(parts) < _MIN_FIELDS.get(parts[0], 1):
            raise FormatError(f"PLY header line '{line}' has too few fields")
        if parts[0] == "format":
            if parts[1] != "binary_little_endian":
                raise FormatError(f"unsupported PLY format '{parts[1]}'")
            has_format = True
        elif parts[0] == "element":
            if parts[1] == "vertex":
                try:
                    n_points = int(parts[2])
                except ValueError:
                    raise FormatError(f"PLY vertex count '{parts[2]}' is not an integer") from None
                if n_points < 0:
                    raise FormatError(f"negative PLY vertex count {n_points}")
                in_vertex = True
            else:
                raise FormatError(f"unsupported PLY element '{parts[1]}'")
        elif parts[0] == "property":
            if not in_vertex:
                raise FormatError("property outside vertex element")
            if parts[1] not in _FLOAT_NAMES:
                raise FormatError(f"unsupported property type '{parts[1]}'")
            props.append(parts[2])
    if not has_format or n_points is None:
        raise FormatError("PLY header missing format or vertex element")
    if props[:3] != ["x", "y", "z"]:
        raise FormatError(f"vertex properties must start with x, y, z; got {props[:3]}")
    expected = [f"f{d}" for d in range(len(props) - 3)]
    if props[3:] != expected:
        raise FormatError(f"feature properties must be f0..f{{D-1}}; got {props[3:]}")

    width = len(props)
    raw = read_exact(fh, 4 * width * n_points, "PLY payload")
    rows = np.frombuffer(raw, dtype="<f4").reshape(n_points, width)
    # a signaling NaN sets the invalid flag when widened; PointCloud rejects it as any NaN
    with np.errstate(invalid="ignore"):
        points = rows[:, :3].astype(np.float64)
        features = rows[:, 3:].astype(np.float64) if width > 3 else None
    with invalid_content("PLY point cloud"):
        return PointCloud(points, features)


def ply_bytes(pc: PointCloud) -> bytes:
    buf = io.BytesIO()
    write_ply(pc, buf)
    return buf.getvalue()
