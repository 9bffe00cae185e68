"""PLY reader/writer for point clouds.

Binary little-endian PLY with a single ``vertex`` element.  Coordinates are
stored as 32-bit floats under properties ``x``, ``y``, ``z``; optional
per-point features are stored as 32-bit floats under ``f0``..``f{D-1}``.
Writing round-trips through float32, so float64 inputs lose precision.

The reader accepts exactly the header `write_ply` writes, line for line: no
comments, no type aliases, no other element or property order.  Any other
header line is a FormatError that names it.
"""

from __future__ import annotations

import io

import numpy as np

from .errors import FormatError, file_stream, invalid_content, read_exact
from .geometry import PointCloud


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
    """Read a point cloud from `source` (a path or a binary file object)
    whose header is exactly one `write_ply` writes; FormatError otherwise."""
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
    head = [_read_line(fh) for _ in range(6)]
    count = head[2].removeprefix("element vertex ")
    # ASCII digits, no more than a u64 has; any other count fails the compare below
    n_points = int(count) if count.isdigit() and len(count) <= 20 else 0
    for number, (line, want) in enumerate(zip(head, _header_lines(n_points, 0)), 1):
        if line != want:
            raise FormatError(f"unexpected PLY header line {number}: '{line}'")
    width = 3
    while (line := _read_line(fh)) != "end_header":
        if line != f"property float f{width - 3}":
            raise FormatError(f"unexpected PLY header line {width + 4}: '{line}'")
        width += 1
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
