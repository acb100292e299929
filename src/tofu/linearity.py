"""Functional linearity: how close a map stays to linear along input paths.

Walk a straight line between two inputs, push the stacked samples through
the map f in one call (f maps rows, (..., C) -> (..., D)), and compare the
straight-line distance between the first and last output rows with the
length of the sampled output path. A perfectly affine map scores 1; the
score can never exceed 1 (triangle inequality) and drops toward 0 as the
output path folds back on itself. profile_model scores every layer's MLP on
pairs of that layer's inputs, chosen by bipartite matching on its keys, and
returns one FlLayerStats row per layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import tensor, vit
from .matching import bipartite_soft_match

UNDEFINED_PATH_EPS = 1e-12


@dataclass(frozen=True)
class FlLayerStats:
    layer: int
    mean_fl: float | None
    std_fl: float | None
    count: int


def interpolate(x1: np.ndarray, x2: np.ndarray,
                t: float | np.ndarray) -> np.ndarray:
    """Convex combinations (1 - t) * x1 + t * x2, one per entry of t.

    A scalar t gives one point shaped like x1; an array t gives t.shape +
    x1.shape, bitwise equal to the scalar calls. Unequal endpoints: ShapeError.
    """
    x1 = np.asarray(x1, dtype=np.float64)
    x2 = np.asarray(x2, dtype=np.float64)
    if x1.shape != x2.shape:
        raise tensor.ShapeError(f"interpolation endpoints differ: {x1.shape} vs {x2.shape}")
    t = np.asarray(t, dtype=np.float64)
    t = t.reshape(t.shape + (1,) * x1.ndim)
    return (1.0 - t) * x1 + t * x2


def path_length(y: np.ndarray) -> float:
    """Length of the polyline through the rows of an (n, D) y, else ShapeError.

    Sums the n - 1 finite differences ||y[i] - y[i-1]||. Compensated
    summation keeps the result independent of accumulation order.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise tensor.ShapeError(f"path_length needs (n, D) rows, got {y.shape}")
    return math.fsum(np.linalg.norm(np.diff(y, axis=0), axis=1).tolist())


def functional_linearity(f: Callable[[np.ndarray], np.ndarray], x1: np.ndarray,
                         x2: np.ndarray, n_steps: int) -> float | None:
    """Chord length over path length of f between x1 and x2; None if undefined.

    f maps rows, (..., C) -> (..., D), and is called once, on the n_steps
    evenly spaced points t_i = i / (n_steps - 1) of the segment stacked as
    (n_steps, C), and must return (n_steps, D) rows, else ShapeError; the
    chord joins the first and last rows. Lies in [0, 1] whenever defined. A
    path shorter than UNDEFINED_PATH_EPS (coincident endpoints, constant
    map) or not finite (f overflowed) has no meaningful ratio: None, not NaN.
    """
    tensor.check_count(n_steps, "n_steps", least=3)
    y = np.asarray(f(interpolate(x1, x2, np.linspace(0.0, 1.0, n_steps))),
                   dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != n_steps:
        raise tensor.ShapeError(
            f"f must map the {n_steps} path samples to ({n_steps}, D) rows, "
            f"got {y.shape}")
    path = path_length(y)
    if not UNDEFINED_PATH_EPS <= path < math.inf:  # NaN too
        return None
    return float(np.linalg.norm(y[-1] - y[0])) / path


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


def profile_model(model, tokens: np.ndarray, n_steps: int,
                  pair_r: int) -> list[FlLayerStats]:
    """Per-layer linearity of a block stack's MLP sub-maps, one row per layer.

    Runs the stack without reduction, and at each layer probes the MLP on
    pairs of its actual inputs: up to pair_r pairs per sequence, chosen by
    one batched bipartite matching on that layer's attention keys, each
    sampled at n_steps points. Undefined ratios are dropped from the
    aggregates; a layer with no usable pair reports count 0. n_steps < 3 or
    pair_r < 0 raise ValueError before any work, and tokens that are not a
    (B >= 1, N, C) batch raise ShapeError.
    """
    tensor.check_count(n_steps, "n_steps", least=3)
    tensor.check_count(pair_r, "pair_r")
    x = vit.check_batch(tokens, "profile_model")
    stats = []
    for l, w in enumerate(model.blocks):
        attn_out, keys = vit.attention(
            tensor.layernorm(x, w.norm1_gamma, w.norm1_beta), w, model.config.heads)
        x_star = x + attn_out
        mlp_in = tensor.layernorm(x_star, w.norm2_gamma, w.norm2_beta)
        f = lambda v, w=w: vit.mlp_map(v, w)

        values: list[float] = []
        if x.shape[1] >= 2 and pair_r > 0:
            m = bipartite_soft_match(vit.head_mean(keys), pair_r)
            for b, (srcs, dsts) in enumerate(zip(m.idx_src, m.idx_dst)):
                for s, d in zip(srcs, dsts):
                    fl = functional_linearity(f, mlp_in[b, s], mlp_in[b, d], n_steps)
                    if fl is not None:
                        values.append(fl)
        stats.append(_aggregate(l, values))

        x = x_star + vit.mlp_map(mlp_in, w)
    return stats
