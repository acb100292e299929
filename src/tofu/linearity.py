"""Functional linearity: how close a map stays to linear along input paths.

Walk a straight line between two inputs, push every sample through the map
f, and compare the straight-line distance between the endpoint outputs with
the length of the sampled output path. A perfectly affine map scores 1; the
score can never exceed 1 (triangle inequality) and drops toward 0 as the
output path folds back on itself. profile_model scores every layer's MLP on
pairs of that layer's inputs, chosen by bipartite matching on its keys.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .matching import bipartite_soft_match, partition

UNDEFINED_PATH_EPS = 1e-12


@dataclass
class FlConfig:
    """Controls for a linearity sweep over a model's layers."""

    n_steps: int = 21
    pair_r: int = 5  # matched pairs probed per sequence and layer
    layer_selector: str = "mlp"  # "mlp" or "block_mlp" (residual included)

    def __post_init__(self):
        if self.n_steps < 3:
            raise ValueError(f"n_steps must be >= 3, got {self.n_steps}")
        if self.layer_selector not in ("mlp", "block_mlp"):
            raise ValueError(f"unknown layer selector {self.layer_selector!r}")


@dataclass(frozen=True)
class FlLayerStats:
    layer: int
    mean_fl: float | None
    std_fl: float | None
    count: int


@dataclass(frozen=True)
class FlReport:
    layers: list[FlLayerStats]

    def to_json(self) -> str:
        rows = [
            {
                "layer": s.layer,
                "mean_fl": s.mean_fl,
                "std_fl": s.std_fl,
                "count": s.count,
            }
            for s in self.layers
        ]
        return json.dumps(rows, indent=2, sort_keys=True)


def interpolate(x1: np.ndarray, x2: np.ndarray, t: float) -> np.ndarray:
    """Convex combination (1 - t) * x1 + t * x2."""
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.shape != x2.shape:
        raise ValueError(f"interpolation endpoints differ: {x1.shape} vs {x2.shape}")
    return (1.0 - t) * x1 + t * x2


def path_length(f: Callable[[np.ndarray], np.ndarray], x1: np.ndarray,
                x2: np.ndarray, n_steps: int = 21) -> float:
    """Length of f's output polyline over an even sampling of [x1, x2].

    Sums the n_steps - 1 finite differences ||f(X(t_i)) - f(X(t_{i-1}))||
    with t_i = i / (n_steps - 1). Compensated summation keeps the result
    independent of accumulation order.
    """
    if n_steps < 3:
        raise ValueError(f"n_steps must be >= 3, got {n_steps}")
    dt = 1.0 / (n_steps - 1)
    prev = np.asarray(f(interpolate(x1, x2, 0.0)), dtype=np.float64)
    deltas = []
    for i in range(1, n_steps):
        cur = np.asarray(f(interpolate(x1, x2, i * dt)), dtype=np.float64)
        if cur.shape != prev.shape:
            raise ValueError(
                f"f changed output shape along the path: {prev.shape} -> {cur.shape}")
        deltas.append(float(np.linalg.norm(cur - prev)))
        prev = cur
    return math.fsum(deltas)


def functional_linearity(f: Callable[[np.ndarray], np.ndarray], x1: np.ndarray,
                         x2: np.ndarray, n_steps: int = 21) -> float | None:
    """Chord length over path length of f between x1 and x2; None if undefined.

    Lies in [0, 1] whenever defined. A path shorter than UNDEFINED_PATH_EPS
    (coincident endpoints, constant map) has no meaningful ratio and is
    reported as None rather than NaN.
    """
    path = path_length(f, x1, x2, n_steps)
    if path < UNDEFINED_PATH_EPS:
        return None
    chord = float(np.linalg.norm(
        np.asarray(f(np.asarray(x1, dtype=np.float64)), dtype=np.float64)
        - np.asarray(f(np.asarray(x2, dtype=np.float64)), dtype=np.float64)))
    return chord / path


def _aggregate(layer: int, values: list[float]) -> FlLayerStats:
    if not values:
        return FlLayerStats(layer=layer, mean_fl=None, std_fl=None, count=0)
    arr = np.asarray(values, dtype=np.float64)
    return FlLayerStats(
        layer=layer,
        mean_fl=float(arr.mean()),
        std_fl=float(arr.std()),
        count=len(values),
    )


def profile_model(model, tokens: np.ndarray, cfg: FlConfig) -> FlReport:
    """Per-layer linearity of a block stack's MLP sub-maps.

    Runs the stack without reduction, and at each layer probes the MLP (or,
    with layer_selector "block_mlp", the MLP plus its residual) on pairs of
    its actual inputs: up to cfg.pair_r pairs per sequence, chosen by
    bipartite matching on that layer's attention keys. Undefined ratios are
    dropped from the aggregates; a layer with no usable pair reports count 0.
    """
    # local import; vit depends on fusion which depends on matching
    from . import vit
    from .tensor import layernorm

    x = np.asarray(tokens, dtype=np.float32)
    if x.ndim != 3:
        raise ValueError(f"tokens must be (B, N, C), got {x.shape}")
    stats = []
    for l, w in enumerate(model.blocks):
        attn_out, keys = vit.attention(
            layernorm(x, w.norm1_gamma, w.norm1_beta), w, model.config.heads)
        x_star = x + attn_out
        mlp_in = layernorm(x_star, w.norm2_gamma, w.norm2_beta)

        if cfg.layer_selector == "mlp":
            f = lambda v, w=w: vit.mlp_map(v, w)
        else:
            f = lambda v, w=w: np.asarray(v, dtype=np.float32) + vit.mlp_map(v, w)

        values: list[float] = []
        n = x.shape[1]
        if n >= 2 and cfg.pair_r > 0:
            p = partition(n)
            for b in range(x.shape[0]):
                m = bipartite_soft_match(keys[b], p, cfg.pair_r)
                for s, d in zip(m.idx_src, m.idx_dst):
                    fl = functional_linearity(f, mlp_in[b, s], mlp_in[b, d], cfg.n_steps)
                    if fl is not None:
                        values.append(fl)
        stats.append(_aggregate(l, values))

        x = x_star + vit.mlp_map(mlp_in, w)
    return FlReport(layers=stats)
