"""Flat named-tensor registries for network weights and gradients, plus the
tensor-section codec that `train.save_checkpoint`/`load_checkpoint` use for
every tensor of a checkpoint (the file layout is documented there).

Tensor section (little-endian):
    u32 tensor count | tensors sorted by name, each as
    u16 name length | name (utf-8) | u8 rank | u64 dims... | f64 data
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from ..errors import FormatError, invalid_content, read_exact, read_struct

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
            raise ValueError(f"duplicate tensor name '{name}'")
        self.tensors[name] = np.asarray(value, dtype=np.float64)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        self.tensors[name] = np.asarray(value, dtype=np.float64)

    def names(self) -> list[str]:
        return sorted(self.tensors)

    def validate_finite(self) -> None:
        for name, t in self.tensors.items():
            if not np.isfinite(t).all():
                raise ValueError(f"parameter '{name}' contains non-finite values")

    def digest(self) -> bytes:
        """Deterministic fingerprint of all tensor values (for mutation checks)."""
        import hashlib

        h = hashlib.sha256()
        for name in self.names():
            h.update(name.encode())
            h.update(self.tensors[name].tobytes())
        return h.digest()


class GradientSet(ParameterSet):
    """Gradient registry, shape-congruent with its ParameterSet.  A backward
    pass writes each trainable tensor's gradient once, with `add`: no weight
    is shared, so a second write of one name is a bug and raises."""

    @classmethod
    def zeros_like(cls, params: ParameterSet) -> "GradientSet":
        """Zero gradients for the trainable tensors of `params`."""
        g = cls()
        for name, t in params.tensors.items():
            if is_trainable(name):
                g.add(name, np.zeros_like(t))
        return g

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
