"""Minimal ViT block stack hosting the reduce op, plus the analytical cost model.

Blocks are pre-norm attention + MLP with residuals, computed in float32 on
plain numpy arrays. Images never enter here: token dumps are the input, so
a model is just per-block weights plus a config. The reduce op sits either
before the MLP (classification style, keys drive the matching, sequences
shrink layer by layer) or before the attention (generation style, raw
features drive the matching and every block unmerges back to full length).

FLOP accounting counts one multiply-accumulate as one FLOP, includes the
patch embedding, and ignores norms/softmax/head.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import tensor
from .fusion import MergeMethod, ReduceSpec, ReduceTrace, apply_reduce, layer_methods, unmerge
from .tensor import FLOAT, FormatError, ShapeError, TruncatedError, check_finite, layernorm

TFW_MAGIC = b"\x54\x46\x57\x31"


class WeightShapeError(ValueError):
    """Weight file tensors do not match the declared configuration."""


class ReducePlacement(Enum):
    BEFORE_MLP = "before_mlp"
    BEFORE_ATTN = "before_attn"


@dataclass(frozen=True)
class VitConfig:
    depth: int
    channels: int
    heads: int
    mlp_ratio: int = 4
    patch: int = 16
    image: int = 224
    cls_token: bool = True

    def __post_init__(self):
        for name in ("depth", "channels", "heads", "mlp_ratio", "patch"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.image < self.patch:
            raise ValueError(f"image {self.image} is smaller than patch {self.patch}")
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

    def to_dict(self) -> dict:
        return {
            "depth": self.depth,
            "channels": self.channels,
            "heads": self.heads,
            "mlp_ratio": self.mlp_ratio,
            "patch": self.patch,
            "image": self.image,
            "cls_token": self.cls_token,
        }

    @staticmethod
    def from_dict(obj: dict) -> "VitConfig":
        return VitConfig(
            depth=int(obj["depth"]),
            channels=int(obj["channels"]),
            heads=int(obj["heads"]),
            mlp_ratio=int(obj.get("mlp_ratio", 4)),
            patch=int(obj.get("patch", 16)),
            image=int(obj.get("image", 224)),
            cls_token=bool(obj.get("cls_token", True)),
        )


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

    Returns the projected output and the per-token keys averaged over heads,
    which downstream matching uses as its similarity metric.
    """
    x = np.asarray(x, dtype=FLOAT)
    if x.ndim != 3:
        raise ShapeError(f"attention expects (B, N, C), got {x.shape}")
    b, n, c = x.shape
    if c % n_heads != 0:
        raise ShapeError(f"C={c} not divisible by {n_heads} heads")
    if w.qkv_weight.shape != (c, 3 * c):
        raise ShapeError(
            f"qkv weight {w.qkv_weight.shape} incompatible with C={c}")
    dh = c // n_heads

    qkv = x @ w.qkv_weight  # (B, N, 3C)
    qkv += w.qkv_bias
    qkv = qkv.reshape(b, n, 3, n_heads, dh).transpose(2, 0, 3, 1, 4)
    q, k, v = qkv[0], qkv[1], qkv[2]  # each (B, H, N, dh)

    scores = q @ k.transpose(0, 1, 3, 2)
    scores *= FLOAT(1.0 / np.sqrt(dh))
    weights = tensor.softmax_rows(scores.reshape(b * n_heads * n, n))
    weights = weights.reshape(b, n_heads, n, n)

    out = (weights @ v).transpose(0, 2, 1, 3).reshape(b, n, c)
    out = out @ w.proj_weight
    out += w.proj_bias
    keys = k.mean(axis=1, dtype=np.float64).astype(FLOAT)  # (B, N, dh)
    return out, keys


def mlp_map(v: np.ndarray, w: BlockWeights) -> np.ndarray:
    """The block's MLP as a map over (..., C) rows: fc1 -> gelu -> fc2."""
    v = np.asarray(v, dtype=FLOAT)
    h = v @ w.fc1_weight
    h += w.fc1_bias
    out = tensor.gelu(h) @ w.fc2_weight
    out += w.fc2_bias
    return out


def _effective_r(n: int, r: int) -> int:
    # cannot remove more sources than the partition provides
    return min(r, n // 2) if n >= 2 else 0


def token_schedule(n0: int, r: int, depth: int,
                   placement: ReducePlacement = ReducePlacement.BEFORE_MLP
                   ) -> list[tuple[int, int]]:
    """Per-layer (attention tokens, MLP tokens) under clamped linear decay."""
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


def block_forward(x: np.ndarray, w: BlockWeights, n_heads: int,
                  method: MergeMethod, r: int, placement: ReducePlacement
                  ) -> tuple[np.ndarray, list[ReduceTrace] | None]:
    """One transformer block with the reduce op at the configured position.

    With r = 0 (or a sequence too short to split) the reduce is skipped
    entirely and the block is a plain pre-norm transformer block.
    Returns per-batch-item traces when a reduce ran, else None.
    """
    x = np.asarray(x, dtype=FLOAT)
    b, n, _ = x.shape
    r_eff = _effective_r(n, r)

    if placement is ReducePlacement.BEFORE_MLP:
        x_star, keys = attention(layernorm(x, w.norm1_gamma, w.norm1_beta), w, n_heads)
        x_star += x
        traces = None
        if r_eff > 0:
            items = [apply_reduce(x_star[i], keys[i], method, r_eff)
                     for i in range(b)]
            x_star = np.stack([it[0] for it in items])
            traces = [it[1] for it in items]
        y = mlp_map(layernorm(x_star, w.norm2_gamma, w.norm2_beta), w)
        y += x_star
        return y, traces

    if placement is ReducePlacement.BEFORE_ATTN:
        traces = None
        x_red = x
        if r_eff > 0:
            # generation mode matches on the raw features, not on keys
            items = [apply_reduce(x[i], x[i], method, r_eff) for i in range(b)]
            x_red = np.stack([it[0] for it in items])
            traces = [it[1] for it in items]
        x_star, _ = attention(
            layernorm(x_red, w.norm1_gamma, w.norm1_beta), w, n_heads)
        x_star += x_red
        y = mlp_map(layernorm(x_star, w.norm2_gamma, w.norm2_beta), w)
        y += x_star
        if traces is not None:
            y = np.stack([unmerge(y[i], traces[i]) for i in range(b)])
        return y, traces

    raise ValueError(f"unknown placement {placement!r}")


def forward(x: np.ndarray, model: VitModel, spec: ReduceSpec,
            placement: ReducePlacement = ReducePlacement.BEFORE_MLP
            ) -> tuple[np.ndarray, list[int]]:
    """Run the full stack; returns (tokens or logits, token count after each layer).

    Logits are produced when the model carries head weights: final norm,
    pooling, linear. A config with cls_token pools row 0, which after a
    reduce holds whichever token ended there, since no class token is
    protected; a config without one mean-pools every row.
    """
    x = np.asarray(x, dtype=FLOAT)
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

    def to_dict(self) -> dict:
        return {
            "patch_embed_flops": self.patch_embed_flops,
            "total": self.total,
            "per_layer": [
                {
                    "attn_flops": pl.attn_flops,
                    "mlp_flops": pl.mlp_flops,
                    "token_count": pl.token_count,
                }
                for pl in self.per_layer
            ],
        }


def flops_estimate(cfg: VitConfig, spec: ReduceSpec,
                   placement: ReducePlacement = ReducePlacement.BEFORE_MLP
                   ) -> FlopReport:
    """Analytical cost of one image through the stack, 1 MAC = 1 FLOP.

    Per layer with N tokens at the attention and M at the MLP:
    attention 4*N*C^2 + 2*N^2*C, MLP 2*ratio*M*C^2. The patch embedding
    contributes n_patches * C * 3 * patch^2; norms, softmax and the head
    are excluded. These conventions reproduce published GFLOP figures for
    the standard 12- and 24-layer configurations within 2%.
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


def random_model(cfg: VitConfig, seed: int, n_classes: int | None = None
                 ) -> VitModel:
    """Seeded synthetic weights: linear layers uniform within +-1/sqrt(C),
    norm affines at identity. Same seed, same bits."""
    rng = np.random.default_rng(seed)
    c, hid = cfg.channels, cfg.hidden
    bound = 1.0 / np.sqrt(c)

    def u(*shape):
        return rng.uniform(-bound, bound, size=shape).astype(FLOAT)

    blocks = []
    for _ in range(cfg.depth):
        blocks.append(BlockWeights(
            qkv_weight=u(c, 3 * c), qkv_bias=u(3 * c),
            proj_weight=u(c, c), proj_bias=u(c),
            norm1_gamma=np.ones(c, dtype=FLOAT),
            norm1_beta=np.zeros(c, dtype=FLOAT),
            fc1_weight=u(c, hid), fc1_bias=u(hid),
            fc2_weight=u(hid, c), fc2_bias=u(c),
            norm2_gamma=np.ones(c, dtype=FLOAT),
            norm2_beta=np.zeros(c, dtype=FLOAT),
        ))
    head = None
    if n_classes:
        head = HeadWeights(
            norm_gamma=np.ones(c, dtype=FLOAT),
            norm_beta=np.zeros(c, dtype=FLOAT),
            weight=u(c, n_classes), bias=u(n_classes),
        )
    return VitModel(config=cfg, blocks=blocks, head=head)


# canonical per-block tensor names, in file order
_BLOCK_FIELDS = [
    ("attn.qkv.weight", "qkv_weight"),
    ("attn.qkv.bias", "qkv_bias"),
    ("attn.proj.weight", "proj_weight"),
    ("attn.proj.bias", "proj_bias"),
    ("norm1.gamma", "norm1_gamma"),
    ("norm1.beta", "norm1_beta"),
    ("mlp.fc1.weight", "fc1_weight"),
    ("mlp.fc1.bias", "fc1_bias"),
    ("mlp.fc2.weight", "fc2_weight"),
    ("mlp.fc2.bias", "fc2_bias"),
    ("norm2.gamma", "norm2_gamma"),
    ("norm2.beta", "norm2_beta"),
]

_HEAD_FIELDS = [
    ("norm.gamma", "norm_gamma"),
    ("norm.beta", "norm_beta"),
    ("head.weight", "weight"),
    ("head.bias", "bias"),
]


def _block_shapes(cfg: VitConfig) -> dict:
    c, hid = cfg.channels, cfg.hidden
    return {
        "attn.qkv.weight": (c, 3 * c), "attn.qkv.bias": (3 * c,),
        "attn.proj.weight": (c, c), "attn.proj.bias": (c,),
        "norm1.gamma": (c,), "norm1.beta": (c,),
        "mlp.fc1.weight": (c, hid), "mlp.fc1.bias": (hid,),
        "mlp.fc2.weight": (hid, c), "mlp.fc2.bias": (c,),
        "norm2.gamma": (c,), "norm2.beta": (c,),
    }


def save_weights(path: str, model: VitModel) -> None:
    """Write a model to the TFW1 format; save -> load round-trips bit-exactly."""
    entries: list[tuple[str, np.ndarray]] = []
    for l, blk in enumerate(model.blocks):
        for name, attr in _BLOCK_FIELDS:
            entries.append((f"blocks.{l}.{name}", getattr(blk, attr)))
    if model.head is not None:
        for name, attr in _HEAD_FIELDS:
            entries.append((name, getattr(model.head, attr)))

    with open(path, "wb") as fh:
        fh.write(TFW_MAGIC)
        fh.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            arr = np.ascontiguousarray(arr, dtype=FLOAT)
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
            fh.write(struct.pack("<B", arr.ndim))
            for d in arr.shape:
                fh.write(struct.pack("<I", d))
            fh.write(arr.astype("<f4").tobytes())
        blob = json.dumps(model.config.to_dict(), sort_keys=True).encode("utf-8")
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)


def load_weights(path: str) -> VitModel:
    """Read a TFW1 file back into a model.

    Bad magic, truncation (with the byte offset), other malformed structure
    (such as a tensor name that is not UTF-8) and tensor/config shape
    mismatches each raise their own error type; non-finite entries raise
    ValueError.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != TFW_MAGIC:
        raise FormatError(f"bad TFW1 magic: {blob[:4]!r}")

    off = 4

    def need(nbytes: int, what: str):
        nonlocal off
        if off + nbytes > len(blob):
            raise TruncatedError(f"TFW1 {what} cut short", len(blob))
        start = off
        off += nbytes
        return blob[start:off]

    (count,) = struct.unpack("<I", need(4, "tensor count"))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", need(2, "name length"))
        try:
            name = need(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(
                f"TFW1 tensor name at byte offset {off - name_len} is not UTF-8") from exc
        (ndim,) = struct.unpack("<B", need(1, "ndim"))
        dims = [struct.unpack("<I", need(4, "dims"))[0] for _ in range(ndim)]
        n_items = 1
        for d in dims:
            n_items *= d
        payload = need(4 * n_items, f"payload of {name}")
        if name in tensors:
            raise FormatError(f"duplicate tensor name {name!r}")
        try:
            arr = np.frombuffer(payload, dtype="<f4").reshape(dims)
        except ValueError as exc:  # more dims than numpy supports
            raise FormatError(f"TFW1 tensor {name!r}: {exc}") from exc
        tensors[name] = check_finite(arr.astype(FLOAT), f"TFW1 tensor {name!r}")
    (json_len,) = struct.unpack("<I", need(4, "config length"))
    cfg_blob = need(json_len, "config blob")
    if off != len(blob):
        raise FormatError(f"TFW1 file has {len(blob) - off} trailing bytes")

    try:
        cfg = VitConfig.from_dict(json.loads(cfg_blob.decode("utf-8")))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        # OverflowError: json reads Infinity, and int() cannot take it
        raise WeightShapeError(f"invalid TFW1 config blob: {exc}") from exc

    shapes = _block_shapes(cfg)
    blocks = []
    consumed = set()
    for l in range(cfg.depth):
        kwargs = {}
        for name, attr in _BLOCK_FIELDS:
            full = f"blocks.{l}.{name}"
            if full not in tensors:
                raise WeightShapeError(f"missing tensor {full!r}")
            arr = tensors[full]
            if arr.shape != shapes[name]:
                raise WeightShapeError(
                    f"{full!r} has shape {arr.shape}, expected {shapes[name]}")
            kwargs[attr] = arr
            consumed.add(full)
        blocks.append(BlockWeights(**kwargs))

    head = None
    head_names = [n for n, _ in _HEAD_FIELDS]
    if any(n in tensors for n in head_names):
        if not all(n in tensors for n in head_names):
            raise WeightShapeError("partial classification head in weight file")
        c = cfg.channels
        hw = tensors["head.weight"]
        if hw.ndim != 2 or hw.shape[0] != c:
            raise WeightShapeError(
                f"'head.weight' has shape {hw.shape}, expected ({c}, classes)")
        expected = {"norm.gamma": (c,), "norm.beta": (c,), "head.bias": (hw.shape[1],)}
        for name, shape in expected.items():
            if tensors[name].shape != shape:
                raise WeightShapeError(
                    f"{name!r} has shape {tensors[name].shape}, expected {shape}")
        head = HeadWeights(
            norm_gamma=tensors["norm.gamma"], norm_beta=tensors["norm.beta"],
            weight=hw, bias=tensors["head.bias"])
        consumed.update(head_names)

    unknown = set(tensors) - consumed
    if unknown:
        raise WeightShapeError(f"unrecognized tensors: {sorted(unknown)}")
    return VitModel(config=cfg, blocks=blocks, head=head)
