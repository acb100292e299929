"""Minimal ViT block stack hosting the reduce op, plus the analytical cost model.

Blocks are pre-norm attention + MLP with residuals, computed in float32 on
plain numpy arrays. Images never enter here: token dumps are the input, so
a model is just per-block weights plus a config. Every weight GEMM (qkv,
proj, fc1, fc2) runs once over all B*N rows of a batch, and the MLP runs in
blocks of MLP_BLOCK_ROWS rows, so a batch item's output can differ from the
same item run alone by float32 rounding. The reduce op sits either
before the MLP (classification style: it matches on the head mean of the
attention keys, and sequences shrink layer by layer) or before the
attention (generation style: it matches on the raw features, and every
block unmerges back to full length).

FLOP accounting counts one multiply-accumulate as one FLOP, includes the
patch embedding, and ignores norms/softmax/head.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from . import tensor
from .fusion import MergeMethod, ReduceSpec, ReduceTrace, apply_reduce, layer_methods, unmerge
from .tensor import FLOAT, FormatError, ShapeError, check_count, layernorm

TFW_MAGIC = b"\x54\x46\x57\x31"


class WeightShapeError(ValueError):
    """Weight file tensors do not match the declared configuration."""


class ReducePlacement(Enum):
    BEFORE_MLP = "before_mlp"
    BEFORE_ATTN = "before_attn"


@dataclass(frozen=True)
class VitConfig:
    """A model's shape: depth, channels, heads, mlp_ratio and patch are
    integers >= 1 and image one >= patch (numpy ints pass, bools do not),
    heads divides channels, and cls_token is a bool; anything else raises
    TypeError or ValueError when built, and nothing is coerced."""

    depth: int
    channels: int
    heads: int
    mlp_ratio: int = 4
    patch: int = 16
    image: int = 224
    cls_token: bool = True

    def __post_init__(self):
        for name in ("depth", "channels", "heads", "mlp_ratio", "patch"):
            check_count(getattr(self, name), name, least=1)
        check_count(self.image, f"image, with patch {self.patch},", least=self.patch)
        if not isinstance(self.cls_token, bool):
            raise TypeError(f"cls_token must be a bool, got {self.cls_token!r}")
        if self.channels % self.heads != 0:
            raise ValueError(
                f"channels {self.channels} not divisible by heads {self.heads}")

    @property
    def n_patches(self) -> int:
        return (self.image // self.patch) ** 2

    @property
    def n_tokens(self) -> int:
        return self.n_patches + (1 if self.cls_token else 0)

    @property
    def hidden(self) -> int:
        return self.channels * self.mlp_ratio


# reference shapes from the classification experiments
ARCH_PRESETS = {
    "vit-tiny": VitConfig(depth=12, channels=192, heads=3),
    "vit-s16": VitConfig(depth=12, channels=384, heads=6),
    "vit-b16": VitConfig(depth=12, channels=768, heads=12),
    "vit-l16": VitConfig(depth=24, channels=1024, heads=16),
}


@dataclass
class BlockWeights:
    qkv_weight: np.ndarray   # (C, 3C)
    qkv_bias: np.ndarray     # (3C,)
    proj_weight: np.ndarray  # (C, C)
    proj_bias: np.ndarray    # (C,)
    norm1_gamma: np.ndarray
    norm1_beta: np.ndarray
    fc1_weight: np.ndarray   # (C, hidden)
    fc1_bias: np.ndarray
    fc2_weight: np.ndarray   # (hidden, C)
    fc2_bias: np.ndarray
    norm2_gamma: np.ndarray
    norm2_beta: np.ndarray


@dataclass
class HeadWeights:
    norm_gamma: np.ndarray
    norm_beta: np.ndarray
    weight: np.ndarray  # (C, classes)
    bias: np.ndarray


@dataclass
class VitModel:
    config: VitConfig
    blocks: list[BlockWeights]
    head: HeadWeights | None = None


def attention(x: np.ndarray, w: BlockWeights, n_heads: int
              ) -> tuple[np.ndarray, np.ndarray]:
    """Multi-head self-attention over (B, N, C) tokens.

    The qkv and output projections are each one GEMM over all B*N rows;
    only the scores and their weighted sum are per item and head.
    Returns the projected output and the per-head keys, (B, H, N, dh), a
    view of the qkv buffer: a caller that matches on them takes their
    head_mean, and one that does not drops them, which frees the buffer.
    """
    x = np.asarray(x, dtype=FLOAT)
    if x.ndim != 3:
        raise ShapeError(f"attention expects (B, N, C), got {x.shape}")
    b, n, c = x.shape
    if c % n_heads != 0:
        raise ShapeError(f"C={c} of {x.shape} not divisible by {n_heads} heads")
    if w.qkv_weight.shape != (c, 3 * c):
        raise ShapeError(
            f"qkv weight {w.qkv_weight.shape} incompatible with tokens {x.shape}")
    dh = c // n_heads

    qkv = x.reshape(b * n, c) @ w.qkv_weight  # (B*N, 3C)
    qkv += w.qkv_bias
    qkv = qkv.reshape(b, n, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    q, k, v = qkv[0], qkv[1], qkv[2]  # each (B, H, N, dh)

    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= FLOAT(1.0 / np.sqrt(dh))
    weights = tensor.softmax_rows(scores)

    # the weighted sum lands in place, already (B, N, H, dh)
    out = np.empty((b, n, n_heads, dh), dtype=FLOAT)
    np.matmul(weights, v, out=out.transpose(0, 2, 1, 3))
    out = out.reshape(b * n, c) @ w.proj_weight
    out += w.proj_bias
    return out.reshape(b, n, c), k


def head_mean(keys: np.ndarray) -> np.ndarray:
    """The (B, N, dh) float32 mean over heads of attention's (B, H, N, dh)
    keys, accumulated in float64: the metric that matching uses."""
    return keys.mean(axis=1, dtype=np.float64).astype(FLOAT)


# rows per MLP block: at vit-tiny's hidden 768 a block's (rows, hidden)
# activation is 768 KB, which stays in a 2 MB L2 cache while gelu makes its
# passes over it
MLP_BLOCK_ROWS = 256


def mlp_map(v: np.ndarray, w: BlockWeights) -> np.ndarray:
    """The block's MLP as a map over (..., C) rows: fc1 -> gelu -> fc2.

    All leading axes are flattened into one set of rows, which runs
    fc1 -> bias -> gelu -> fc2 -> bias in blocks of MLP_BLOCK_ROWS rows;
    up to that many rows are one block. Rows whose C is not fc1's input
    width raise ShapeError.
    """
    v = np.asarray(v, dtype=FLOAT)
    if v.ndim < 1 or v.shape[-1] != w.fc1_weight.shape[0]:
        raise ShapeError(f"mlp expects (..., {w.fc1_weight.shape[0]}) rows for fc1 "
                         f"{w.fc1_weight.shape}, got {v.shape}")
    rows = v.reshape(-1, v.shape[-1])
    out = np.empty((rows.shape[0], w.fc2_weight.shape[1]), dtype=FLOAT)
    for start in range(0, rows.shape[0], MLP_BLOCK_ROWS):
        h = rows[start:start + MLP_BLOCK_ROWS] @ w.fc1_weight
        h += w.fc1_bias
        block = out[start:start + MLP_BLOCK_ROWS]
        np.matmul(tensor.gelu(h), w.fc2_weight, out=block)
        block += w.fc2_bias
    return out.reshape(v.shape[:-1] + out.shape[-1:])


def check_batch(x: np.ndarray, what: str) -> np.ndarray:
    """x as a float32 (B >= 1, N, C) token batch, else ShapeError."""
    x = np.asarray(x, dtype=FLOAT)
    if x.ndim != 3 or x.shape[0] < 1:
        raise ShapeError(f"{what} expects (B >= 1, N, C) tokens, got {x.shape}")
    return x


def _effective_r(n: int, r: int) -> int:
    # cannot remove more sources than the odd rows provide
    return min(check_count(r, "r"), n // 2)


def token_schedule(n0: int, r: int, depth: int,
                   placement: ReducePlacement = ReducePlacement.BEFORE_MLP
                   ) -> list[tuple[int, int]]:
    """Per-layer (attention tokens, MLP tokens) under clamped linear decay;
    an unknown placement or r < 0 raises ValueError."""
    if not isinstance(placement, ReducePlacement):
        raise ValueError(f"unknown placement {placement!r}")
    out = []
    n = n0
    for _ in range(depth):
        r_eff = _effective_r(n, r)
        if placement is ReducePlacement.BEFORE_MLP:
            out.append((n, n - r_eff))
            n = n - r_eff
        else:
            out.append((n - r_eff, n - r_eff))  # unmerged back to n afterwards
    return out


def _reduce_items(x: np.ndarray, metric: np.ndarray, method: MergeMethod,
                  r: int) -> tuple[np.ndarray, list[ReduceTrace]]:
    """apply_reduce on each batch item: the stacked rows and the traces."""
    items = [apply_reduce(x[i], metric[i], method, r) for i in range(len(x))]
    return np.stack([rows for rows, _ in items]), [trace for _, trace in items]


def block_forward(x: np.ndarray, w: BlockWeights, n_heads: int,
                  method: MergeMethod, r: int, placement: ReducePlacement
                  ) -> tuple[np.ndarray, list[ReduceTrace] | None]:
    """One pre-norm transformer block with the reduce op at `placement`.

    BEFORE_MLP matches each item on the head mean of its attention keys and
    returns the shorter sequences; BEFORE_ATTN matches each item on its raw
    features and unmerges the block's output back to full length. With
    r = 0 (or a sequence too short to split) no reduce runs. Returns
    per-batch-item traces when a reduce ran, else None. Tokens that are not
    a (B >= 1, N, C) batch raise ShapeError, a bad placement or r < 0 ValueError.
    """
    x = check_batch(x, "block_forward")
    if not isinstance(placement, ReducePlacement):
        raise ValueError(f"unknown placement {placement!r}")
    r_eff = _effective_r(x.shape[1], r)
    before_attn = r_eff > 0 and placement is ReducePlacement.BEFORE_ATTN
    before_mlp = r_eff > 0 and placement is ReducePlacement.BEFORE_MLP
    traces = None
    if before_attn:
        x, traces = _reduce_items(x, x, method, r_eff)
    x_star, keys = attention(layernorm(x, w.norm1_gamma, w.norm1_beta), w, n_heads)
    x_star += x
    # the per-head keys hold the whole qkv buffer, so they go before the reduce
    keys = head_mean(keys) if before_mlp else None
    if before_mlp:
        x_star, traces = _reduce_items(x_star, keys, method, r_eff)
    y = mlp_map(layernorm(x_star, w.norm2_gamma, w.norm2_beta), w)
    y += x_star
    if before_attn:
        y = np.stack([unmerge(y[i], trace) for i, trace in enumerate(traces)])
    return y, traces


def forward(x: np.ndarray, model: VitModel, spec: ReduceSpec,
            placement: ReducePlacement = ReducePlacement.BEFORE_MLP
            ) -> tuple[np.ndarray, list[int]]:
    """Run the full stack; returns (tokens or logits, token count after each layer).

    Logits are produced when the model carries head weights: final norm,
    pooling, linear. A config with cls_token pools row 0, which after a
    reduce holds whichever token ended there, since no class token is
    protected; a config without one mean-pools every row. Tokens that are
    not a (B >= 1, N, C) batch raise ShapeError.
    """
    x = check_batch(x, "forward")
    cfg = model.config
    methods = layer_methods(spec, cfg.depth)
    counts = []
    for method, w in zip(methods, model.blocks):
        x, _ = block_forward(x, w, cfg.heads, method, spec.r, placement)
        counts.append(x.shape[1])
    if model.head is None:
        return x, counts
    h = model.head
    x = layernorm(x, h.norm_gamma, h.norm_beta)
    if cfg.cls_token:
        pooled = x[:, 0, :]
    else:
        pooled = x.mean(axis=1, dtype=np.float64).astype(FLOAT)
    return pooled @ h.weight + h.bias, counts


@dataclass(frozen=True)
class FlopLayer:
    attn_flops: int
    mlp_flops: int
    token_count: int  # tokens entering the attention


@dataclass(frozen=True)
class FlopReport:
    per_layer: list[FlopLayer]
    patch_embed_flops: int
    total: int


def flops_estimate(cfg: VitConfig, spec: ReduceSpec,
                   placement: ReducePlacement = ReducePlacement.BEFORE_MLP
                   ) -> FlopReport:
    """Analytical cost of one image through the stack, 1 MAC = 1 FLOP.

    Per layer with N tokens at the attention and M at the MLP:
    attention 4*N*C^2 + 2*N^2*C, MLP 2*ratio*M*C^2. The patch embedding
    contributes n_patches * C * 3 * patch^2; norms, softmax and the head
    are excluded. These conventions reproduce published GFLOP figures for
    the standard 12- and 24-layer configurations within 2%. Only spec.r is
    read: d and late_method choose how tokens fuse, not how many remain.
    """
    c = cfg.channels
    layers = []
    total = 0
    for (na, nm) in token_schedule(cfg.n_tokens, spec.r, cfg.depth, placement):
        attn = 4 * na * c * c + 2 * na * na * c
        mlp = 2 * cfg.mlp_ratio * nm * c * c
        layers.append(FlopLayer(attn_flops=attn, mlp_flops=mlp, token_count=na))
        total += attn + mlp
    patch_embed = cfg.n_patches * c * 3 * cfg.patch * cfg.patch
    total += patch_embed
    return FlopReport(per_layer=layers, patch_embed_flops=patch_embed, total=total)


def _layout(c: int, hid: int, classes: int) -> tuple[tuple, tuple]:
    """The TFW1 tensors of one block (named "blocks.{l}." + name in the file)
    and of the head, each in file order: (file name, field, shape)."""
    block = (
        ("attn.qkv.weight", "qkv_weight", (c, 3 * c)),
        ("attn.qkv.bias", "qkv_bias", (3 * c,)),
        ("attn.proj.weight", "proj_weight", (c, c)),
        ("attn.proj.bias", "proj_bias", (c,)),
        ("norm1.gamma", "norm1_gamma", (c,)),
        ("norm1.beta", "norm1_beta", (c,)),
        ("mlp.fc1.weight", "fc1_weight", (c, hid)),
        ("mlp.fc1.bias", "fc1_bias", (hid,)),
        ("mlp.fc2.weight", "fc2_weight", (hid, c)),
        ("mlp.fc2.bias", "fc2_bias", (c,)),
        ("norm2.gamma", "norm2_gamma", (c,)),
        ("norm2.beta", "norm2_beta", (c,)),
    )
    head = (
        ("norm.gamma", "norm_gamma", (c,)),
        ("norm.beta", "norm_beta", (c,)),
        ("head.weight", "weight", (c, classes)),
        ("head.bias", "bias", (classes,)),
    )
    return block, head


# doubles per chunk of draw_float32's draw buffer. Building ViT-B/16
# with a 1000-class head (median of 11 interleaved builds, 2-core Xeon, one
# BLAS thread) took 678 ms with a float64 temporary per tensor, and through
# the buffer 655 ms at 4K doubles, 568 at 16K, 513 at 64K, 515 at 256K and
# 511 at 1M. 64K is the shortest on that plateau; its 512 KB stay in a 2 MB
# L2 cache
DRAW_CHUNK = 1 << 16


def draw_float32(shape: tuple, fill) -> np.ndarray:
    """A float32 array of `shape` that fill(draw, part) writes in order, DRAW_CHUNK
    entries at a time: it draws float64 into draw and rounds that into part. The
    bits equal one whole-size draw cast to float32, without its float64 temporary."""
    out = np.empty(shape, dtype=FLOAT)
    flat = out.reshape(-1)
    buf = np.empty(min(DRAW_CHUNK, flat.size))
    for lo in range(0, flat.size, DRAW_CHUNK):
        part = flat[lo:lo + DRAW_CHUNK]
        fill(buf[:part.size], part)
    return out


def random_model(cfg: VitConfig, seed: int, n_classes: int | None = None
                 ) -> VitModel:
    """Seeded synthetic weights, norm affines at identity. The linear layers
    are, bit for bit, np.random.default_rng(seed).uniform(-b, b) cast to
    float32 with b = 1/sqrt(C), drawn in file order through draw_float32.
    seed and n_classes are counts (check_count); n_classes 0 or None: no head.
    """
    rng = np.random.default_rng(check_count(seed, "seed"))
    n_classes = 0 if n_classes is None else check_count(n_classes, "n_classes")
    bound = 1.0 / np.sqrt(cfg.channels)
    block, head = _layout(cfg.channels, cfg.hidden, n_classes)

    def uniform(draw, part):
        # uniform(low, high) is low + (high - low) * next_double, each
        # step rounded in float64, and the float32 cast rounds once more
        rng.random(out=draw)
        draw *= 2 * bound
        np.add(draw, -bound, out=part, casting="same_kind")

    def init(field: str, shape: tuple) -> np.ndarray:
        # the norm affines take no draw
        if field.endswith("gamma"):
            return np.ones(shape, dtype=FLOAT)
        if field.endswith("beta"):
            return np.zeros(shape, dtype=FLOAT)
        return draw_float32(shape, uniform)

    def build(cls, table):
        return cls(**{field: init(field, shape) for _, field, shape in table})

    blocks = [build(BlockWeights, block) for _ in range(cfg.depth)]
    return VitModel(config=cfg, blocks=blocks,
                    head=build(HeadWeights, head) if n_classes else None)


def save_weights(path: str, model: VitModel) -> None:
    """Write a model to the TFW1 format; save -> load round-trips bit-exactly.

    A non-finite entry raises ValueError before the file is opened. The file
    is rewritten in place under tofu.tensor.rewrite()'s rules: a failed write
    leaves it empty, and a write killed part way leaves the old file or one
    without its magic, so load_weights raises FormatError rather than read
    a mix of old and new bytes.
    """
    block, head = _layout(0, 0, 0)  # names and fields only
    owners = [(f"blocks.{l}.", blk, block) for l, blk in enumerate(model.blocks)]
    if model.head is not None:
        owners.append(("", model.head, head))
    entries = [(prefix + name, tensor.payload(getattr(owner, field), prefix + name))
               for prefix, owner, table in owners for name, field, _ in table]

    with tensor.rewrite(path, TFW_MAGIC) as fh:
        fh.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            tensor.write_record(fh, arr)
        blob = json.dumps(asdict(model.config), sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)


def load_weights(path: str) -> VitModel:
    """Read a TFW1 file back into a model.

    Per tensor, a u16 name length and the UTF-8 name frame one tensor record,
    read under tofu.tensor's rules. A name that is not UTF-8 and trailing
    bytes raise FormatError, tensor/config mismatches WeightShapeError; a
    config deeper than the file's blocks fails at the first missing tensor.
    """
    with open(path, "rb") as fh:
        reader = tensor.RecordReader(fh, TFW_MAGIC, "TFW1")
        (count,) = reader.unpack("<I", "tensor count")
        # every payload is read into its own slice of one buffer: one
        # allocation rather than one per tensor, and the payloads cannot
        # hold more floats than the file has bytes / 4
        pool = np.empty(reader.size // 4, dtype="<f4")
        used = 0
        tensors: dict[str, np.ndarray] = {}
        for _ in range(count):
            (name_len,) = reader.unpack("<H", "name length")
            try:
                name = reader.unpack(f"<{name_len}s", "tensor name")[0].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"TFW1 tensor name at byte offset "
                                  f"{reader.offset - name_len} is not UTF-8") from exc
            if name in tensors:
                raise FormatError(f"duplicate tensor name {name!r}")
            tensors[name] = arr = reader.record(f"tensor {name!r}", pool[used:])
            used += arr.size
        (json_len,) = reader.unpack("<I", "config length")
        (cfg_blob,) = reader.unpack(f"<{json_len}s", "config blob")
        reader.finish()

    try:
        # VitConfig's own checks refuse a missing or unknown key and a value
        # of the wrong JSON type, such as 12.9, "12" or "false"
        cfg = VitConfig(**json.loads(cfg_blob.decode("utf-8")))
    except (RecursionError, TypeError, ValueError) as exc:  # RecursionError: JSON too deep
        raise WeightShapeError(f"invalid TFW1 config blob: {exc}") from exc

    # the class count is whatever head.weight holds, so its check rests on C
    hw = tensors.get("head.weight")
    classes = hw.shape[-1] if hw is not None and hw.ndim else 0
    block, head = _layout(cfg.channels, cfg.hidden, classes)

    def take(prefix: str, table: tuple) -> dict:
        fields = {}
        for name, field, shape in table:
            full = prefix + name
            if full not in tensors:
                raise WeightShapeError(f"missing tensor {full!r}")
            fields[field] = arr = tensors.pop(full)
            if arr.shape != shape:
                raise WeightShapeError(f"{full!r} has shape {arr.shape}, expected {shape}")
        return fields

    has_head = any(name in tensors for name, _, _ in head)
    blocks = [BlockWeights(**take(f"blocks.{l}.", block)) for l in range(cfg.depth)]
    head_weights = HeadWeights(**take("", head)) if has_head else None
    if tensors:
        raise WeightShapeError(f"unrecognized tensors: {sorted(tensors)}")
    return VitModel(config=cfg, blocks=blocks, head=head_weights)
