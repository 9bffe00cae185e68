"""Exception types shared across the package, and the file helpers: the one
writer every output file goes through, and the readers that turn a short
file into a FormatError."""

import contextlib
import json
import os
import struct


class PointPairError(Exception):
    """Base class for all package-specific errors."""


class InvalidTransformError(PointPairError):
    """A geometric transform produced or would produce non-finite coordinates."""


class EmptyViewError(PointPairError):
    """A depth frame contains no valid pixels, so no view can be constructed."""


class DegenerateBatchError(PointPairError):
    """An operation requires more active sites than were provided."""


class FormatError(PointPairError):
    """A binary or text artifact does not conform to its documented layout."""


class ConfigError(PointPairError):
    """A configuration file or value failed validation."""


# Largest single read: a size taken from a corrupt header is never allocated
# up front, only as far as the file actually goes (plus one chunk).
_READ_CHUNK = 1 << 24


def read_exact(fh, size: int, what: str) -> bytes:
    """Exactly `size` bytes from `fh`; FormatError if the file ends first."""
    if size < 0:
        raise FormatError(f"negative size for {what}: {size}")
    raw = fh.read(min(size, _READ_CHUNK))
    if len(raw) == size:
        return raw
    buf = bytearray(raw)
    while len(buf) < size and raw:
        raw = fh.read(min(size - len(buf), _READ_CHUNK))
        buf += raw
    if len(buf) != size:
        raise FormatError(f"truncated {what}: expected {size} bytes, got {len(buf)}")
    return bytes(buf)


def read_struct(fh, fmt: str, what: str) -> tuple:
    return struct.unpack(fmt, read_exact(fh, struct.calcsize(fmt), what))


@contextlib.contextmanager
def invalid_content(what: str):
    """Re-raise a ValueError met while decoding or validating what a file
    holds (a non-finite value, an index out of range, a shape numpy cannot
    make) as a FormatError naming `what`."""
    try:
        yield
    except ValueError as exc:
        raise FormatError(f"invalid {what}: {exc}") from exc


@contextlib.contextmanager
def file_stream(target, mode: str):
    """`target` itself if it is a file object, else the file it names opened
    in `mode`: "rb" reads it, "wb" writes bytes and "w" writes ASCII text.

    A write goes to `target`.tmp, which replaces `target` only once the block
    completes, so no reader ever sees a half-written file.  A block that
    raises (KeyboardInterrupt included) removes the .tmp file and leaves
    `target` as it was.
    """
    if hasattr(target, "read" if mode == "rb" else "write"):
        yield target
    elif mode == "rb":
        with open(target, mode) as fh:
            yield fh
    else:
        tmp = f"{target}.tmp"
        try:
            with open(tmp, mode, encoding=None if "b" in mode else "ascii") as fh:
                yield fh
            os.replace(tmp, target)
        except BaseException:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
            raise


def write_json(target, obj) -> None:
    """`obj` as JSON with sorted keys, indented by 2, plus a final newline."""
    with file_stream(target, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
