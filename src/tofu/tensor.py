"""Dense float32 tensor substrate and the neural primitives built on it.

Token tensors are plain numpy arrays of shape (B, N, C): B sequences of N
tokens with C channels each. Weight matrices are 2-D float32 arrays. All
public operations are pure, never broadcast silently across mismatched
shapes, and keep every entry finite. Elementwise arithmetic runs in
float32; every sum behind a reduction (means, variances, softmax
denominators) accumulates in float64 before the result is cast back to
float32.
"""

from __future__ import annotations

import math
import os
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


def check_finite(x: np.ndarray, what: str = "tensor") -> np.ndarray:
    # min and max carry a NaN through and show an infinity, without a mask
    # the size of x
    if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise ValueError(f"{what} contains non-finite entries")
    return x


def layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
              eps: float = 1e-6) -> np.ndarray:
    """Per-token normalization over the channel axis, then affine scale/shift.

    Each row comes out with mean 0 and unit variance (up to eps) before
    gamma/beta are applied. The row mean and the sum of squares accumulate
    in float64, the squares themselves are formed in float64 (a float32
    square overflows for an entry 1.8e19 from its mean), and the centring,
    scaling and affine run in float32 on one fresh array.
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
    mean = x.mean(axis=-1, keepdims=True, dtype=np.float64)
    mean32 = mean.astype(FLOAT)
    # centred at half scale, so that a row spanning the whole float32 range
    # cannot overflow; halving is exact, so the normalised rows do not change
    y = x * FLOAT(0.5)
    y -= mean32 * FLOAT(0.5)
    # what rounding the mean to float32 lost; it matters when a row's spread
    # is a few float32 steps of its mean, as for rows at a large offset
    y -= ((mean - mean32) * 0.5).astype(FLOAT)
    quarter_var = np.einsum("...c,...c->...", y, y, dtype=np.float64)[..., None] / c
    y *= (1.0 / np.sqrt(quarter_var + eps / 4)).astype(FLOAT)
    y *= gamma
    y += beta
    return y


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of an array of any rank >= 1, stabilized
    by max subtraction.

    Each row along the last axis is normalised as the rows of a 2-D array
    are, whatever the leading axes. The shift and the exponentials are
    float32 on one fresh array, the row sums accumulate in float64; a view
    whose last axis is strided, such as a transpose, may add those sums in
    another order, a few float64 steps apart before the float32 cast. A row
    spanning more than the float32 range shifts its smallest entries to
    -inf, whose exponential is the 0 that float64 gives too.
    """
    x = np.asarray(x, dtype=FLOAT)
    if x.ndim < 1:
        raise ShapeError(f"softmax_rows expects at least one axis, got {x.shape}")
    with np.errstate(over="ignore"):
        e = x - x.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True, dtype=np.float64).astype(FLOAT)
    return e


_GELU_K = math.sqrt(2.0 / math.pi)


def gelu(x: np.ndarray) -> np.ndarray:
    """Elementwise GELU, tanh approximation.

    0.5 * x * (1 + tanh(sqrt(2/pi) * (x + 0.044715 * x^3))). Kept as the
    tanh form so cross-implementation differences stay under 1e-3. Evaluated
    in that order on one fresh float32 array.
    """
    x = np.asarray(x, dtype=FLOAT)
    t = np.asarray(FLOAT(0.044715) * x)  # an array even for 0-d x
    t *= x
    t *= x
    t += x
    t *= FLOAT(_GELU_K)
    np.tanh(t, out=t)
    t += FLOAT(1.0)
    # halving t is exact, so this is (0.5 * x) * t rounded once; only a
    # subnormal x, whose half is not exact, can round differently
    t *= FLOAT(0.5)
    t *= x
    return t


def write_ttf(path: str, x: np.ndarray) -> None:
    """Write an array to the TTF1 binary format.

    Layout: magic "TTF1", u8 ndim, ndim little-endian u32 dims, then the
    row-major float32 payload, little-endian.
    """
    # the payload as written; no copy for contiguous little-endian float32
    x = np.ascontiguousarray(x, dtype="<f4")
    check_finite(x, "TTF1 payload")
    if x.ndim > 255:
        raise ShapeError("TTF1 supports at most 255 dimensions")
    with open(path, "wb") as fh:
        fh.write(TTF_MAGIC)
        fh.write(struct.pack("<B", x.ndim))
        for d in x.shape:
            fh.write(struct.pack("<I", d))
        fh.write(x.data)


def read_payload(fh, flat: np.ndarray, dims, what: str) -> np.ndarray:
    """Fill flat, a 1-D little-endian float32 array with one entry per
    element of dims, from an open binary file, and return it viewed as dims:
    a writable float32 array, with no copy on a little-endian host.

    More dims than numpy supports raise FormatError, a file that ends first
    TruncatedError, non-finite entries ValueError.
    """
    try:
        x = flat.reshape(dims)
    except ValueError as exc:  # more dims than numpy supports
        raise FormatError(f"{what} shape: {exc}") from exc
    if fh.readinto(flat) != flat.nbytes:
        raise TruncatedError(f"{what} cut short", fh.tell())
    return check_finite(x.astype(FLOAT, copy=False), what)


def read_ttf(path: str) -> np.ndarray:
    """Read a TTF1 file. Rejects bad magic, truncation, trailing bytes and
    more dims than numpy supports with FormatError, non-finite entries with
    ValueError."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(5)
        if head[:4] != TTF_MAGIC:
            raise FormatError(f"bad TTF1 magic: {head[:4]!r}")
        if len(head) < 5:
            raise TruncatedError("TTF1 header cut short", size)
        ndim = head[4]
        dim_bytes = fh.read(4 * ndim)
        if len(dim_bytes) < 4 * ndim:
            raise TruncatedError("TTF1 dim list cut short", size)
        dims = struct.unpack(f"<{ndim}I", dim_bytes)
        count = math.prod(dims)
        end = 5 + 4 * ndim + 4 * count
        if size < end:
            raise TruncatedError("TTF1 payload cut short", size)
        if size > end:
            raise FormatError(
                f"TTF1 file has {size - end} trailing bytes after payload")
        return read_payload(fh, np.empty(count, dtype="<f4"), dims, "TTF1 payload")
