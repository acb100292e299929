"""Dual-path execution: compute on a reduced token set, distribute to full length.

The full-length path is never recomputed. Each block reduces the local
(already shrunk) token set a bit further, runs attention and the MLP there,
and scatters the results back to all original positions through a local
path index that composes every reduce seen so far. Positions fused together
receive identical copies; magnitude-based masking can suppress those copies
wherever the full path already carries large activations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fusion import MergeMethod, ReduceSpec, apply_reduce, layer_methods
from .tensor import FLOAT, ShapeError, layernorm
from .vit import BlockWeights, VitModel, attention, check_batch, mlp_map, _effective_r


@dataclass(frozen=True)
class MbmConfig:
    """Magnitude-based masking of distributed residuals at merged positions."""

    t: float = 1.0
    enabled: bool = False

    def __post_init__(self):
        if not self.t >= 0:  # NaN too: no magnitude compares above it
            raise ValueError(f"MBM threshold must be >= 0, got {self.t}")


def init_state(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x_full, x_local, index) before any block: both paths are x itself.

    index[b, i] is the local row that full position i currently resolves to;
    a position took part in a merge exactly when it shares that row. No block
    writes either path, so x is not copied. A batch not (B >= 1, N, C) raises
    ShapeError.
    """
    x = check_batch(x, "highway")
    b, n, _ = x.shape
    return x, x, np.tile(np.arange(n, dtype=np.int64), (b, 1))


def update_index(index: np.ndarray, maps: np.ndarray) -> np.ndarray:
    """Compose one more reduce into a batch of local path indices.

    index is (B, N) into local rows and maps is (B, n_in), each item's
    input-to-output map of the reduce; every entry is pushed through its
    item's map, so merged local rows collapse onto their destination's row.
    Other shapes raise ShapeError, entries beyond the maps IndexError.
    """
    index = np.asarray(index, dtype=np.int64)
    maps = np.asarray(maps, dtype=np.int64)
    if index.ndim != 2 or maps.ndim != 2 or len(index) != len(maps):
        raise ShapeError(f"update_index needs a (B, N) index and (B, n_in) maps, "
                         f"got {index.shape} and {maps.shape}")
    if index.size and (index.min() < 0 or index.max() >= maps.shape[1]):
        raise IndexError(f"index entries exceed the maps' {maps.shape[1]} input rows")
    return maps[np.arange(len(maps))[:, None], index]


def distribute(f_local: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Scatter local rows to full length: out[b, i] = f_local[b, index[b, i]].

    Takes (B, M, C) local rows and a (B, N) int index into them, else ShapeError.
    """
    f_local = np.asarray(f_local, dtype=FLOAT)
    index = np.asarray(index, dtype=np.int64)
    if f_local.ndim != 3 or index.ndim != 2 or index.shape[0] != f_local.shape[0]:
        raise ShapeError(
            f"distribute needs (B, M, C) rows and a (B, N) index, got "
            f"{f_local.shape} and {index.shape}")
    if index.size and (index.min() < 0 or index.max() >= f_local.shape[1]):
        raise IndexError(
            f"dangling local path index (local length {f_local.shape[1]})")
    # advanced indexing; np.take_along_axis is much slower at these sizes
    return f_local[np.arange(f_local.shape[0])[:, None], index]


def mbm_mask(x_full: np.ndarray, affected: np.ndarray, t: float) -> np.ndarray:
    """0/1 float mask for a distributed residual over (B, N, C) x_full.

    Zero exactly where the position took part in a merge (affected, (B, N))
    and the existing full-path activation magnitude is at or above t; an
    infinite t yields all ones. Other shapes raise ShapeError.
    """
    x_full = np.asarray(x_full)
    affected = np.asarray(affected, dtype=bool)
    if x_full.ndim != 3 or affected.shape != x_full.shape[:2]:
        raise ShapeError(f"mbm_mask needs a (B, N, C) x_full and a (B, N) affected, "
                         f"got {x_full.shape} and {affected.shape}")
    hit = affected[..., None] & (np.abs(x_full) >= t)
    return (~hit).astype(FLOAT)


def highway_block(x_full: np.ndarray, x_local: np.ndarray, index: np.ndarray,
                  w: BlockWeights, n_heads: int, method: MergeMethod, r: int,
                  mbm: MbmConfig = MbmConfig()
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One block on the local path, residuals distributed to the full path.

    Takes and returns (x_full, x_local, index): (B, N, C) full-length
    features, (B, M, C) local features and the (B, N) index into local rows.
    The local set shrinks by r (clamped) before the attention; matching runs
    on the raw local features. Attention and MLP outputs are each scattered
    through the composed index and residual-added to both paths.
    """
    b, n_local, _ = x_local.shape
    r_eff = _effective_r(n_local, r)

    if r_eff > 0:
        items = [apply_reduce(x_local[i], x_local[i], method, r_eff)
                 for i in range(b)]
        x_local = np.stack([x_red for x_red, _ in items])
        maps = np.stack([trace.output_index_of_input for _, trace in items])
        index = update_index(index, maps)
    merged = _merged_positions(index, x_local.shape[1]) if mbm.enabled else None

    f_attn = attention(
        layernorm(x_local, w.norm1_gamma, w.norm1_beta), w, n_heads)[0]
    x_full = _distribute_add(x_full, f_attn, index, merged, mbm)
    f_attn += x_local
    x_local = f_attn

    f_mlp = mlp_map(layernorm(x_local, w.norm2_gamma, w.norm2_beta), w)
    x_full = _distribute_add(x_full, f_mlp, index, merged, mbm)
    f_mlp += x_local
    return x_full, f_mlp, index


def _merged_positions(index: np.ndarray, m: int) -> np.ndarray:
    """(B, N) bool: the positions whose local row (of m) another one shares."""
    flat = index + m * np.arange(len(index))[:, None]
    return np.bincount(flat.ravel())[flat] > 1


def _distribute_add(x_full: np.ndarray, f_local: np.ndarray, index: np.ndarray,
                    merged: np.ndarray | None, mbm: MbmConfig) -> np.ndarray:
    d = distribute(f_local, index)  # a fresh gather, so safe to update in place
    if mbm.enabled:
        d *= mbm_mask(x_full, merged, mbm.t)
    d += x_full
    return d


def highway_forward(x: np.ndarray, model: VitModel, spec: ReduceSpec,
                    mbm: MbmConfig = MbmConfig()) -> tuple[np.ndarray, list[int]]:
    """Run the whole stack in highway mode.

    Returns the full-length output and the local token count after each
    layer. With r = 0 everywhere this is exactly the plain forward pass.
    Tokens that are not a (B >= 1, N, C) batch raise ShapeError.
    """
    x_full, x_local, index = init_state(x)
    cfg = model.config
    methods = layer_methods(spec, cfg.depth)
    counts = []
    for method, w in zip(methods, model.blocks):
        x_full, x_local, index = highway_block(
            x_full, x_local, index, w, cfg.heads, method, spec.r, mbm)
        counts.append(x_local.shape[1])
    return x_full, counts
