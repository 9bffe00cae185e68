"""Fuzzing the binary readers: any bytes either parse or raise FormatError.

Each of `read_frame`, `read_pair`, `read_ply` and `load_checkpoint` is fed arbitrary byte strings, and real files with bytes
overwritten, inserted or cut off.  A reader may accept what it is given; it
must never raise anything but `FormatError` (no `ValueError` from a
constructor, `MemoryError`, `IndexError` or `struct.error`).
"""

import io
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pointpair.errors import FormatError
from pointpair.frames import DepthFrame, read_frame, write_frame
from pointpair.geometry import PointCloud
from pointpair.net.params import ParameterSet
from pointpair.pairs import CorrespondenceMap, ScenePair, read_pair, write_pair
from pointpair.ply import ply_bytes, read_ply
from pointpair.train import OptimizerState, load_checkpoint, save_checkpoint


def _frame_bytes() -> bytes:
    depth = np.zeros((3, 4), dtype=np.float32)
    depth[1, 2] = 1.5
    buf = io.BytesIO()
    write_frame(DepthFrame(depth, 2.0, 2.0, 1.5, 1.0, np.eye(4)), buf)
    return buf.getvalue()


def _pair_bytes() -> bytes:
    x1 = PointCloud(np.arange(9.0).reshape(3, 3) / 8)
    x2 = PointCloud(np.arange(6.0).reshape(2, 3) / 8, np.ones((2, 1)))
    buf = io.BytesIO()
    write_pair(ScenePair(x1, x2, CorrespondenceMap(np.array([[0, 0], [2, 1]])), 0.5), buf)
    return buf.getvalue()


def _checkpoint_bytes() -> bytes:
    params = ParameterSet({"a.kernel": np.ones((1, 2, 2)), "a.bn.gamma": np.zeros(2)})
    buf = io.BytesIO()
    save_checkpoint(buf, params, {"seed": 1}, OptimizerState({"a.kernel": np.zeros((1, 2, 2))}, 3))
    return buf.getvalue()


READERS = {
    "frame": (lambda blob: read_frame(io.BytesIO(blob)), _frame_bytes()),
    "pair": (lambda blob: read_pair(io.BytesIO(blob)), _pair_bytes()),
    "ply": (lambda blob: read_ply(io.BytesIO(blob)), ply_bytes(PointCloud(np.eye(3)))),
    "ply_features": (lambda blob: read_ply(io.BytesIO(blob)), ply_bytes(PointCloud(np.eye(3), np.ones((3, 2))))),
    "checkpoint": (lambda blob: load_checkpoint(io.BytesIO(blob)), _checkpoint_bytes()),
}


def _parses_or_format_error(kind: str, blob: bytes) -> None:
    reader, _ = READERS[kind]
    try:
        reader(blob)
    except FormatError:
        pass


def _ply_header(n: int) -> bytes:
    return (
        f"ply\nformat binary_little_endian 1.0\nelement vertex {n}\n"
        "property float x\nproperty float y\nproperty float z\nend_header\n"
    ).encode("ascii")


def _params_blob(config: bytes, tensor: bytes) -> bytes:
    """A checkpoint whose parameter section holds one tensor, followed by an
    empty optimizer section at iteration 0."""
    header = b"PCCK" + struct.pack("<I", len(config)) + config
    return header + struct.pack("<I", 1) + tensor + b"PCOS" + struct.pack("<QI", 0, 0)


def _tensor(dims, payload: bytes = b"") -> bytes:
    return struct.pack(f"<H1sB{len(dims)}Q", 1, b"w", len(dims), *dims) + payload


_FRAME = _frame_bytes()
_PLY = ply_bytes(PointCloud(np.eye(3)))
_NAN_F4 = np.array([np.nan], dtype="<f4").tobytes()
_SNAN_F4 = struct.pack("<I", 0x7F800001)  # a signaling NaN: widening it sets the invalid flag

# Well-formed layouts whose values the types reject: each raised ValueError
# out of the reader before the reader wrapped it.
INVALID_CONTENT = {
    "frame_zero_focal": ("frame", _FRAME[:12] + struct.pack("<d", 0.0) + _FRAME[20:]),
    "frame_skewed_pose": ("frame", _FRAME[:44] + struct.pack("<d", 2.0) + _FRAME[52:]),
    "frame_huge_rotation_entry": ("frame", _FRAME[:44] + struct.pack("<d", 1e300) + _FRAME[52:]),
    "pair_match_out_of_range": ("pair", b"PCPR" + _PLY + _PLY + struct.pack("<Q2Id", 1, 7, 0, 0.5)),
    "pair_overlap_above_one": ("pair", b"PCPR" + _PLY + _PLY + struct.pack("<Q2Id", 1, 0, 0, 2.0)),
    "ply_no_vertices": ("ply", _ply_header(0)),
    "ply_nan_coordinate": ("ply", _ply_header(1) + _NAN_F4 + bytes(8)),
    "ply_signaling_nan_coordinate": ("ply", _ply_header(1) + _SNAN_F4 + bytes(8)),
    "params_zero_and_huge_dims": ("checkpoint", _params_blob(b"{}", _tensor((2**57, 2**57, 0)))),
    "params_nan_value": ("checkpoint", _params_blob(b"{}", _tensor((1,), struct.pack("<d", np.nan)))),
    "params_deeply_nested_json": ("checkpoint", _params_blob(b"[" * 100_000, b"")),
}


@pytest.mark.parametrize("case", sorted(INVALID_CONTENT))
def test_invalid_content_raises_format_error(case):
    kind, blob = INVALID_CONTENT[case]
    reader, _ = READERS[kind]
    with pytest.raises(FormatError):
        reader(blob)


def test_params_blob_parses_with_valid_content():
    """The `params_*` cases differ from this blob only in what they test."""
    params, echo, state = load_checkpoint(io.BytesIO(_params_blob(b"{}", _tensor((1,), struct.pack("<d", 1.5)))))
    assert echo == {} and state.iteration == 0 and not state.buffers
    np.testing.assert_array_equal(params.tensors["w"], [1.5])


def test_signaling_nan_depth_reads_as_a_pixel_without_depth():
    frame = read_frame(io.BytesIO(_FRAME[:-4] + _SNAN_F4))
    assert np.isnan(frame.depth[-1, -1])


@st.composite
def _mutated(draw, real: bytes) -> bytes:
    """`real` with a few bytes overwritten, inserted or deleted, then maybe cut short."""
    blob = bytearray(real)
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["set", "insert", "delete"]))
        pos = draw(st.integers(0, len(blob)))
        if op == "set" and pos < len(blob):
            blob[pos] = draw(st.integers(0, 255))
        elif op == "insert":
            blob[pos:pos] = draw(st.binary(min_size=1, max_size=8))
        elif pos < len(blob):
            del blob[pos : pos + draw(st.integers(1, 8))]
    cut = draw(st.integers(0, len(blob)))
    return bytes(blob[:cut] if draw(st.booleans()) else blob)


@pytest.mark.parametrize("kind", sorted(READERS))
def test_real_files_parse(kind):
    reader, real = READERS[kind]
    reader(real)


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_any_bytes(kind, data):
    _parses_or_format_error(kind, data.draw(st.binary(max_size=400)))


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_and_truncated_real_files(kind, data):
    _, real = READERS[kind]
    _parses_or_format_error(kind, data.draw(_mutated(real)))
