"""Dense float32 tensor substrate and the neural primitives built on it.

Token tensors are plain numpy arrays of shape (B, N, C): B sequences of N
tokens with C channels each. Weight matrices are 2-D float32 arrays. All
public operations are pure, never broadcast silently across mismatched
shapes, and keep every entry finite. Elementwise arithmetic runs in
float32; every sum behind a reduction (means, variances, softmax
denominators) accumulates in float64 before the result is cast back to
float32.

A tensor record, the unit of TTF1 and TFW1 files, is a u8 ndim, ndim u32
dims, then the row-major float32 payload, all little-endian; only this
module writes (payload, write_record) and reads (RecordReader) one. Every
output file of the package, binary or JSON, is written through rewrite().
"""

from __future__ import annotations

import contextlib
import math
import os
import stat
import struct

import numpy as np

FLOAT = np.float32

# "TTF1" tensor file magic
TTF_MAGIC = b"\x54\x54\x46\x31"


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class FormatError(ValueError):
    """A binary file does not conform to its declared format."""


def check_count(value, name: str, least: int = 0) -> int:
    """value as an int under the package's one rule for a count: a bool or
    other non-integer raises TypeError (numpy integers pass), and a value
    below least raises ValueError naming name."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def check_finite(x: np.ndarray, what: str = "tensor") -> np.ndarray:
    # min and max carry a NaN through and show an infinity, without a mask
    # the size of x
    if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
        raise ValueError(f"{what} contains non-finite entries")
    return x


def layernorm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Per-token normalization over the channel axis, then affine scale/shift.

    Each row comes out with mean 0 and variance v / (v + 1e-6), v the row's
    own variance, before gamma/beta are applied. The row mean and the sum of
    squares accumulate in float64, the squares themselves are formed in
    float64 (a float32 square overflows for an entry 1.8e19 from its mean),
    and the centring, scaling and affine run in float32 on one fresh array.
    A 0-d or zero-width x, or gamma/beta not (C,), raises ShapeError.
    """
    x = np.asarray(x, dtype=FLOAT)
    gamma = np.asarray(gamma, dtype=FLOAT)
    beta = np.asarray(beta, dtype=FLOAT)
    if x.shape[-1:] in ((), (0,)):
        raise ShapeError(f"layernorm expects C >= 1 channels, got {x.shape}")
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"layernorm affine shapes {gamma.shape}/{beta.shape} do not match C={c}")
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
    # the 1e-6 under the root, quartered as the variance is
    y *= (1.0 / np.sqrt(quarter_var + 1e-6 / 4)).astype(FLOAT)
    y *= gamma
    y += beta
    return y


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of an array of any rank >= 1, stabilized
    by max subtraction; a 0-d x or an empty last axis raises ShapeError.

    Each row along the last axis is normalised as the rows of a 2-D array
    are, whatever the leading axes. The shift and the exponentials are
    float32 on one fresh array, the row sums accumulate in float64; a view
    whose last axis is strided, such as a transpose, may add those sums in
    another order, a few float64 steps apart before the float32 cast. A row
    spanning more than the float32 range shifts its smallest entries to
    -inf, whose exponential is the 0 that float64 gives too.
    """
    x = np.asarray(x, dtype=FLOAT)
    if x.shape[-1:] in ((), (0,)):
        raise ShapeError(f"softmax_rows expects a last axis of length >= 1, got {x.shape}")
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


def payload(x: np.ndarray, what: str) -> np.ndarray:
    """x as a record payload, contiguous "<f4" (no copy if it is one), or
    ValueError naming what; writers call it before they open their file."""
    return check_finite(np.ascontiguousarray(x, dtype="<f4"), what)


def write_record(fh, x: np.ndarray) -> None:
    """Write a payload() x to an open binary file as one tensor record."""
    fh.write(struct.pack(f"<B{x.ndim}I", x.ndim, *x.shape))
    fh.write(x.data)


class RecordReader:
    """Reads an open binary file of format fmt front to back, after checking
    its magic. Every read claims its bytes first, so a file that ends before
    them raises FormatError naming the file's size as the offset it was cut
    short at."""

    def __init__(self, fh, magic: bytes, fmt: str):
        self.fh, self.fmt = fh, fmt
        self.size = os.fstat(fh.fileno()).st_size
        head = fh.read(len(magic))
        if head != magic:
            raise FormatError(f"bad {fmt} magic: {head!r}")
        self.offset = len(magic)

    def claim(self, nbytes: int, what: str) -> int:
        """Advance past the next nbytes, or raise if the file ends first."""
        if self.offset + nbytes > self.size:
            raise FormatError(
                f"{self.fmt} {what} cut short (at byte offset {self.size})")
        self.offset += nbytes
        return nbytes

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.fh.read(self.claim(struct.calcsize(fmt), what)))

    def record(self, what: str, into: np.ndarray | None = None) -> np.ndarray:
        """The next tensor record as a writable float32 array, no copy on a
        little-endian host, its payload in the front of into (a 1-D "<f4"
        array with room for it) if given. More dims than numpy supports
        raise FormatError, non-finite entries ValueError."""
        (ndim,) = self.unpack("<B", f"{what} ndim")
        dims = self.unpack(f"<{ndim}I", f"{what} dims")
        count = math.prod(dims)
        self.claim(4 * count, what)
        flat = np.empty(count, dtype="<f4") if into is None else into[:count]
        try:
            x = flat.reshape(dims)
        except ValueError as exc:  # more dims than numpy supports
            raise FormatError(f"{self.fmt} {what} shape: {exc}") from exc
        if self.fh.readinto(flat) != flat.nbytes:  # the file shrank since fstat
            raise FormatError(
                f"{self.fmt} {what} cut short (at byte offset {self.fh.tell()})")
        return check_finite(x.astype(FLOAT, copy=False), f"{self.fmt} {what}")

    def finish(self) -> None:
        """Raise FormatError if the file holds bytes past the last claim."""
        if self.offset != self.size:
            raise FormatError(
                f"{self.fmt} file has {self.size - self.offset} trailing bytes")


@contextlib.contextmanager
def rewrite(path: str, magic: bytes = b""):
    """Open path to write it anew, in place: yields a binary file positioned
    after magic, and the file ends where the block's last write does.

    The target is opened without O_TRUNC and cut to the length written at
    the end, so it keeps its inode, links and mode, as with O_TRUNC. The
    reason is ext4's auto_da_alloc, which forces a file that was truncated
    to zero and written again to disk when it is closed; a file rewritten
    in place stays in the page cache like any other write. On a regular
    file, magic is written last, over zero bytes kept for it, so a rewrite
    killed part way leaves either the old file, if none of the new bytes
    reached it, or one whose magic does not match; an exception in the
    block cuts the file to zero length and re-raises. Any other
    target (a pipe, a character device, /dev/stdout) is written front to
    back, magic first, and never cut.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        if not stat.S_ISREG(os.fstat(fd).st_mode):
            fh.write(magic)
            yield fh
            return
        try:
            fh.write(bytes(len(magic)))
            yield fh
            fh.truncate()
            if magic:
                fh.seek(0)
                fh.write(magic)
        except BaseException:
            # flushed first, so that buffered bytes land before the cut
            with contextlib.suppress(OSError):
                fh.flush()
            os.ftruncate(fd, 0)
            raise


def write_ttf(path: str, x: np.ndarray) -> None:
    """Write an array to a TTF1 file: the magic, then one tensor record.

    The file is rewritten in place under rewrite()'s rules: a non-finite
    entry raises ValueError before it is opened, a failed write leaves it
    empty, and a write killed part way leaves the old file or one without
    its magic, so read_ttf raises FormatError rather than read a mix of old
    and new bytes.
    """
    x = payload(x, "TTF1 payload")
    with rewrite(path, TTF_MAGIC) as fh:
        write_record(fh, x)


def read_ttf(path: str) -> np.ndarray:
    """Read a TTF1 file: the magic, then exactly one tensor record, under the
    record rules of RecordReader; trailing bytes raise FormatError."""
    with open(path, "rb") as fh:
        reader = RecordReader(fh, TTF_MAGIC, "TTF1")
        x = reader.record("payload")
        reader.finish()
    return x
