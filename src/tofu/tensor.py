"""Dense float32 tensor substrate and the neural primitives built on it.

Token tensors are plain numpy arrays of shape (B, N, C): B sequences of N
tokens with C channels each. Weight matrices are 2-D float32 arrays. All
public operations are pure, never broadcast silently across mismatched
shapes, and keep every entry finite. Reductions (means, variances, norms)
accumulate in float64 before casting back to float32.
"""

from __future__ import annotations

import math
import struct

import numpy as np

FLOAT = np.float32

# "TTF1" tensor file magic
TTF_MAGIC = b"\x54\x54\x46\x31"


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class FormatError(ValueError):
    """A binary file does not conform to its declared format."""


class TruncatedError(FormatError):
    """A binary file ends before its payload does."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


def as_float(x) -> np.ndarray:
    """Coerce to a contiguous float32 array without copying when possible."""
    return np.ascontiguousarray(x, dtype=FLOAT)


def check_finite(x: np.ndarray, what: str = "tensor") -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{what} contains non-finite entries")
    return x


def layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
              eps: float = 1e-6) -> np.ndarray:
    """Per-token normalization over the channel axis, then affine scale/shift.

    Statistics are computed in float64; each row comes out with mean 0 and
    unit variance (up to eps) before gamma/beta are applied.
    """
    x = np.asarray(x, dtype=FLOAT)
    gamma = np.asarray(gamma, dtype=FLOAT)
    beta = np.asarray(beta, dtype=FLOAT)
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"layernorm affine shapes {gamma.shape}/{beta.shape} do not match C={c}")
    if eps <= 0:
        raise ValueError("layernorm eps must be positive")
    x64 = x.astype(np.float64)
    mean = x64.mean(axis=-1, keepdims=True)
    var = x64.var(axis=-1, keepdims=True)
    normed = (x64 - mean) / np.sqrt(var + eps)
    return (normed * gamma.astype(np.float64) + beta.astype(np.float64)).astype(FLOAT)


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a 2-D array, stabilized by max subtraction."""
    x = np.asarray(x, dtype=FLOAT)
    if x.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D array, got {x.shape}")
    shifted = x.astype(np.float64) - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return (e / e.sum(axis=1, keepdims=True)).astype(FLOAT)


_GELU_K = math.sqrt(2.0 / math.pi)


def gelu(x: np.ndarray) -> np.ndarray:
    """Elementwise GELU, tanh approximation.

    0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3))). Kept as the
    tanh form so cross-implementation differences stay under 1e-3.
    """
    x = np.asarray(x, dtype=FLOAT)
    inner = FLOAT(_GELU_K) * (x + FLOAT(0.044715) * x * x * x)
    return FLOAT(0.5) * x * (FLOAT(1.0) + np.tanh(inner))


def row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of every token row; (B, N, C) -> (B, N)."""
    x = np.asarray(x, dtype=FLOAT)
    return np.sqrt(np.sum(x.astype(np.float64) ** 2, axis=-1)).astype(FLOAT)


def write_ttf(path: str, x: np.ndarray) -> None:
    """Write an array to the TTF1 binary format.

    Layout: magic "TTF1", u8 ndim, ndim little-endian u32 dims, then the
    row-major float32 payload, little-endian.
    """
    x = as_float(x)
    check_finite(x, "TTF1 payload")
    if x.ndim > 255:
        raise ShapeError("TTF1 supports at most 255 dimensions")
    with open(path, "wb") as fh:
        fh.write(TTF_MAGIC)
        fh.write(struct.pack("<B", x.ndim))
        for d in x.shape:
            fh.write(struct.pack("<I", d))
        fh.write(x.astype("<f4").tobytes())


def read_ttf(path: str) -> np.ndarray:
    """Read a TTF1 file. Rejects bad magic, truncation and trailing bytes."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != TTF_MAGIC:
        raise FormatError(f"bad TTF1 magic: {blob[:4]!r}")
    if len(blob) < 5:
        raise TruncatedError("TTF1 header cut short", len(blob))
    ndim = blob[4]
    off = 5
    dims = []
    for _ in range(ndim):
        if off + 4 > len(blob):
            raise TruncatedError("TTF1 dim list cut short", len(blob))
        dims.append(struct.unpack_from("<I", blob, off)[0])
        off += 4
    count = 1
    for d in dims:
        count *= d
    end = off + 4 * count
    if len(blob) < end:
        raise TruncatedError("TTF1 payload cut short", len(blob))
    if len(blob) > end:
        raise FormatError(
            f"TTF1 file has {len(blob) - end} trailing bytes after payload")
    x = np.frombuffer(blob, dtype="<f4", count=count, offset=off)
    x = x.reshape(tuple(dims)).astype(FLOAT)
    check_finite(x, "TTF1 payload")
    return x
