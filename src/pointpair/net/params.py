"""Flat named-tensor registries for network weights and gradients, plus the
binary parameter file format.

Parameter file layout (little-endian):
    magic "PCCK" | u32 config JSON length | config JSON (utf-8)
    | u32 tensor count | tensors sorted by name, each as
      u16 name length | name (utf-8) | u8 rank | u64 dims... | f64 data
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import FormatError, binary_stream, invalid_content, read_exact, read_struct

_PARAMS_MAGIC = b"PCCK"

# BatchNorm running statistics are state, not weights: the optimizer must
# never touch them.
_RUNNING_STAT_SUFFIXES = (".running_mean", ".running_var")


def is_trainable(name: str) -> bool:
    return not name.endswith(_RUNNING_STAT_SUFFIXES)


@dataclass
class ParameterSet:
    """Registry of uniquely named float64 tensors (weights plus BN state)."""

    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def add(self, name: str, value: np.ndarray) -> None:
        if name in self.tensors:
            raise ValueError(f"duplicate parameter name '{name}'")
        self.tensors[name] = np.asarray(value, dtype=np.float64)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        self.tensors[name] = np.asarray(value, dtype=np.float64)

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def copy(self) -> "ParameterSet":
        return ParameterSet({k: v.copy() for k, v in self.tensors.items()})

    def validate_finite(self) -> None:
        for name, t in self.tensors.items():
            if not np.isfinite(t).all():
                raise ValueError(f"parameter '{name}' contains non-finite values")

    def allclose(self, other: "ParameterSet", atol: float = 0.0) -> bool:
        if self.names() != other.names():
            return False
        return all(
            np.allclose(self.tensors[n], other.tensors[n], rtol=0.0, atol=atol)
            for n in self.names()
        )

    def digest(self) -> bytes:
        """Deterministic fingerprint of all tensor values (for mutation checks)."""
        import hashlib

        h = hashlib.sha256()
        for name in self.names():
            h.update(name.encode())
            h.update(self.tensors[name].tobytes())
        return h.digest()


class GradientSet(ParameterSet):
    """Gradient registry, shape-congruent with its ParameterSet."""

    @classmethod
    def zeros_like(cls, params: ParameterSet, trainable_only: bool = True) -> "GradientSet":
        g = cls()
        for name, t in params.tensors.items():
            if trainable_only and not is_trainable(name):
                continue
            g.add(name, np.zeros_like(t))
        return g

    def accumulate(self, name: str, value: np.ndarray) -> None:
        self.tensors[name] += value

    def add_scaled(self, other: "GradientSet", scale: float = 1.0) -> None:
        for name, t in other.tensors.items():
            self.tensors[name] += scale * t


def _write_tensor(fh, name: str, tensor: np.ndarray) -> None:
    raw = name.encode("utf-8")
    fh.write(struct.pack("<H", len(raw)))
    fh.write(raw)
    fh.write(struct.pack("<B", tensor.ndim))
    for d in tensor.shape:
        fh.write(struct.pack("<Q", d))
    fh.write(tensor.astype("<f8").tobytes())


def _read_tensor(fh) -> tuple[str, np.ndarray]:
    (name_len,) = read_struct(fh, "<H", "tensor name length")
    try:
        name = read_exact(fh, name_len, "tensor name").decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"tensor name is not UTF-8: {exc}") from exc
    (rank,) = read_struct(fh, "<B", f"rank of '{name}'")
    dims = read_struct(fh, f"<{rank}Q", f"shape of '{name}'")
    count = math.prod(dims)  # exact: np.prod would wrap a corrupt header's dims
    raw = read_exact(fh, 8 * count, f"tensor payload for '{name}'")
    with invalid_content(f"shape of '{name}'"):  # a zero dim beside one numpy cannot hold
        return name, np.frombuffer(raw, dtype="<f8").reshape(dims).copy()


def write_tensor_section(fh, tensors: dict[str, np.ndarray]) -> None:
    fh.write(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        _write_tensor(fh, name, tensors[name])


def read_tensor_section(fh) -> dict[str, np.ndarray]:
    (count,) = read_struct(fh, "<I", "tensor count")
    return dict(_read_tensor(fh) for _ in range(count))


def save_params(target, params: ParameterSet, config_echo: dict) -> None:
    """Write a PCCK parameter file (config echo as JSON, tensors by name)."""
    blob = json.dumps(config_echo, sort_keys=True).encode("utf-8")
    with binary_stream(target, "wb") as fh:
        fh.write(_PARAMS_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        write_tensor_section(fh, params.tensors)


def load_params(source) -> tuple[ParameterSet, dict]:
    with binary_stream(source, "rb") as fh:
        if fh.read(4) != _PARAMS_MAGIC:
            raise FormatError("bad parameter file magic; expected PCCK")
        (blob_len,) = read_struct(fh, "<I", "config length")
        try:
            config_echo = json.loads(read_exact(fh, blob_len, "config JSON"))
        except (ValueError, RecursionError) as exc:  # also JSONDecodeError, UnicodeDecodeError
            raise FormatError(f"config JSON is malformed: {exc}") from exc
        if not isinstance(config_echo, dict):
            raise FormatError(f"config JSON is not an object: {type(config_echo).__name__}")
        params = ParameterSet(read_tensor_section(fh))
    with invalid_content("parameter file"):
        params.validate_finite()
    return params, config_echo
