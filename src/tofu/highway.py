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

from .fusion import MergeMethod, ReduceSpec, ReduceTrace, apply_reduce, layer_methods
from .tensor import FLOAT, layernorm
from .vit import BlockWeights, VitModel, attention, mlp_map, _effective_r


@dataclass(frozen=True)
class MbmConfig:
    """Magnitude-based masking of distributed residuals at merged positions."""

    t: float = 1.0
    enabled: bool = False

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"MBM threshold must be >= 0, got {self.t}")


@dataclass
class HighwayState:
    """Full-length features, the reduced local features, and their linkage.

    index[b, i] is the local row that full position i currently resolves to;
    affected[b, i] marks positions that have taken part in any merge so far.
    last_traces holds the per-item reduce traces of the most recent block
    (None when that block did not reduce).
    """

    x_full: np.ndarray   # (B, N, C)
    x_local: np.ndarray  # (B, M, C)
    index: np.ndarray    # (B, N) int64 into local rows
    affected: np.ndarray  # (B, N) bool
    last_traces: list[ReduceTrace] | None = None


def init_state(x: np.ndarray) -> HighwayState:
    x = np.asarray(x, dtype=FLOAT)
    if x.ndim != 3:
        raise ValueError(f"highway input must be (B, N, C), got {x.shape}")
    b, n, _ = x.shape
    return HighwayState(
        x_full=x.copy(),
        x_local=x.copy(),
        index=np.tile(np.arange(n, dtype=np.int64), (b, 1)),
        affected=np.zeros((b, n), dtype=bool),
    )


def update_index(index: np.ndarray, trace: ReduceTrace) -> np.ndarray:
    """Compose one more reduce into a local path index.

    Every entry is pushed through the trace's input-to-output map, so merged
    local rows collapse onto their destination's new row.
    """
    index = np.asarray(index, dtype=np.int64)
    if index.size and (index.min() < 0 or index.max() >= trace.n_input):
        raise IndexError(
            f"index entries exceed the trace's {trace.n_input} input rows")
    return trace.output_index_of_input[index]


def distribute(f_local: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Scatter local rows to full length: out[b, i] = f_local[b, index[b, i]].

    Takes a batch: (B, M, C) local rows and a (B, N) int index into them.
    """
    f_local = np.asarray(f_local, dtype=FLOAT)
    index = np.asarray(index, dtype=np.int64)
    if f_local.ndim != 3 or index.ndim != 2 or index.shape[0] != f_local.shape[0]:
        raise ValueError(
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
    infinite t yields all ones.
    """
    hit = np.asarray(affected, dtype=bool)[..., None] & (np.abs(x_full) >= t)
    return (~hit).astype(FLOAT)


def highway_block(state: HighwayState, w: BlockWeights, n_heads: int,
                  method: MergeMethod, r: int, mbm: MbmConfig = MbmConfig()
                  ) -> HighwayState:
    """One block on the local path, residuals distributed to the full path.

    The local set shrinks by r (clamped) before the attention; matching runs
    on the raw local features. Attention and MLP outputs are each scattered
    through the composed index and residual-added to both paths.
    """
    b = state.x_full.shape[0]
    n_local = state.x_local.shape[1]
    r_eff = _effective_r(n_local, r)

    x_local = state.x_local
    index = state.index
    affected = state.affected
    traces = None
    if r_eff > 0:
        reduced, new_index, new_affected, traces = [], [], [], []
        for i in range(b):
            x_red, trace = apply_reduce(x_local[i], x_local[i], method, r_eff)
            touched_local = np.zeros(n_local, dtype=bool)
            touched_local[trace.match.idx_src] = True
            touched_local[trace.match.idx_dst] = True
            new_affected.append(affected[i] | touched_local[index[i]])
            new_index.append(update_index(index[i], trace))
            reduced.append(x_red)
            traces.append(trace)
        x_local = np.stack(reduced)
        index = np.stack(new_index)
        affected = np.stack(new_affected)

    x_full = state.x_full
    f_attn, _ = attention(
        layernorm(x_local, w.norm1_gamma, w.norm1_beta), w, n_heads)
    x_full = _distribute_add(x_full, f_attn, index, affected, mbm)
    f_attn += x_local
    x_local = f_attn

    f_mlp = mlp_map(layernorm(x_local, w.norm2_gamma, w.norm2_beta), w)
    x_full = _distribute_add(x_full, f_mlp, index, affected, mbm)
    f_mlp += x_local
    x_local = f_mlp

    return HighwayState(x_full=x_full, x_local=x_local, index=index,
                        affected=affected, last_traces=traces)


def _distribute_add(x_full: np.ndarray, f_local: np.ndarray, index: np.ndarray,
                    affected: np.ndarray, mbm: MbmConfig) -> np.ndarray:
    d = distribute(f_local, index)  # a fresh gather, so safe to update in place
    if mbm.enabled:
        d *= mbm_mask(x_full, affected, mbm.t)
    d += x_full
    return d


def highway_forward(x: np.ndarray, model: VitModel, spec: ReduceSpec,
                    mbm: MbmConfig = MbmConfig()) -> tuple[np.ndarray, list[int]]:
    """Run the whole stack in highway mode.

    Returns the full-length output and the local token count after each
    layer. With r = 0 everywhere this is exactly the plain forward pass.
    """
    state = init_state(x)
    cfg = model.config
    methods = layer_methods(spec, cfg.depth)
    counts = []
    for method, w in zip(methods, model.blocks):
        state = highway_block(state, w, cfg.heads, method, spec.r, mbm)
        counts.append(state.x_local.shape[1])
    return state.x_full, counts
