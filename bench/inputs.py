"""Seeded inputs with the redundancy of images.

Neighbouring patches of a photograph look alike, so real token sequences
have many near-duplicate rows and matching finds groups among them. i.i.d.
noise has no such structure: every best edge scores about the same and
merge groups stay tiny. Here each image is a smooth random field over the
patch grid (a coarse and a medium scale, bilinearly upsampled) plus a
little per-patch noise; the class token is an independent row.

Every array comes from numpy's PCG64 seeded with [seed, stream], so the
same seed gives the same bits and the streams never overlap.
"""

from __future__ import annotations

import numpy as np

# amplitude of each component, per channel, before the final rescale
COARSE_CELLS, COARSE_AMP = 3, 1.0
MEDIUM_CELLS, MEDIUM_AMP = 7, 0.5
NOISE_AMP = 0.3


def _upsample_weights(cells: int, grid: int) -> np.ndarray:
    """(grid, cells + 1) bilinear weights from a coarse lattice to the grid."""
    pos = np.linspace(0.0, cells, grid)
    lo = np.minimum(np.floor(pos).astype(int), cells - 1)
    frac = pos - lo
    w = np.zeros((grid, cells + 1))
    w[np.arange(grid), lo] = 1.0 - frac
    w[np.arange(grid), lo + 1] = frac
    return w


def _smooth_field(rng: np.random.Generator, batch: int, grid: int,
                  channels: int, cells: int) -> np.ndarray:
    lattice = rng.standard_normal((batch, cells + 1, cells + 1, channels))
    w = _upsample_weights(cells, grid)
    return np.einsum("ia,jb,nabc->nijc", w, w, lattice)


def image_tokens(seed: int, stream: int, batch: int, grid: int,
                 channels: int, cls_token: bool = True) -> np.ndarray:
    """(batch, [1 +] grid*grid, channels) float32 tokens, unit RMS per entry."""
    rng = np.random.default_rng([seed, stream])
    field = (COARSE_AMP * _smooth_field(rng, batch, grid, channels, COARSE_CELLS)
             + MEDIUM_AMP * _smooth_field(rng, batch, grid, channels, MEDIUM_CELLS)
             + NOISE_AMP * rng.standard_normal((batch, grid, grid, channels)))
    tokens = field.reshape(batch, grid * grid, channels)
    if cls_token:
        cls = rng.standard_normal((batch, 1, channels))
        tokens = np.concatenate([cls, tokens], axis=1)
    tokens /= np.sqrt(np.mean(tokens ** 2))
    return tokens.astype(np.float32)


def key_projection(tokens: np.ndarray, seed: int, stream: int,
                   dims: int) -> np.ndarray:
    """Keys-like similarity metric: a fixed random projection of the tokens,
    so the metric carries the same neighbourhood structure."""
    rng = np.random.default_rng([seed, stream])
    c = tokens.shape[-1]
    proj = rng.standard_normal((c, dims)) / np.sqrt(c)
    return (tokens.astype(np.float64) @ proj).astype(np.float32)
