"""Bipartite soft matching over a token sequence.

Tokens are split into two disjoint sets by global index, read from the
metric's row count alone: destinations (DST) take the even positions 2k,
sources (SRC) the odd ones 2k+1, so both are strided views of the metric
and index >> 1 is a token's position in its set.
Matching keeps, for every SRC token, only its single most similar DST
partner, then selects the r SRC tokens whose best edge scores highest.
Nothing protects a class token. At position 0 it is a destination, but
reduced rows come out as [unmatched sources, destinations], so on a
sequence that stays reduced (before-MLP placement, the highway local path)
it is a destination only in the first reduce; later reduces find it at
another row and may match it as a source.

Scores are cosine similarities computed in float64 so that rankings are
deterministic; ties break toward the lower global SRC index, then the lower
global DST index.

similarity_matrix and bipartite_soft_match take one (N, C) sequence or a
(B, N, C) batch of them. A batch gives each item exactly the bits it gets
alone, with a leading batch axis on every result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError, check_count


# items per similarity block of a (B, N, C) batch, so that a block's float64
# metric copy stays cache-sized: 1.6 MB at the tools-offline shape
# (64, 197, 64), against a 2 MB L2 cache. There `tofu reduce` took 23-30 ms
# with blocks of 6 to 24 items, and 33-38 ms with one block of all 64
MATCH_BLOCK_ITEMS = 16


@dataclass(frozen=True)
class MatchResult:
    """The r selected cross-set pairs of every item, highest similarity first.

    idx_src, idx_dst and scores are (r,) for one sequence and (B, r) for a
    batch. An item's idx_src entries are distinct SRC members; its idx_dst
    entries are DST members and may repeat (several sources can share one
    destination). `clamped` is set when the requested r exceeded |SRC| and
    was reduced; |SRC| is the same for every item.
    """

    idx_src: np.ndarray
    idx_dst: np.ndarray
    scores: np.ndarray  # float64, non-increasing along the last axis
    clamped: bool = False


def _check_metric(metric: np.ndarray) -> None:
    if metric.ndim not in (2, 3) or metric.shape[-2] < 2 or metric.shape[0] < 1:
        raise ShapeError(
            f"reduce input must be (N >= 2, C) or (B >= 1, N >= 2, C) rows, got {metric.shape}")


def similarity_matrix(metric: np.ndarray) -> np.ndarray:
    """Cosine similarity of every SRC row against every DST row.

    metric is an (N >= 2, C) slice indexed by global token position, or a
    (B >= 1, N >= 2, C) batch, else ShapeError. Zero-norm rows get -1 to every
    partner so degenerate tokens sort last; the masking runs only when such
    a row exists. Returned matrix is float64, shape (N // 2, (N + 1) // 2),
    with the leading B of a batch.
    """
    m = np.asarray(metric, dtype=np.float64)
    _check_metric(m)
    norms = np.sqrt((m * m).sum(axis=-1))
    zero = None if norms.all() else norms == 0.0
    if zero is not None:
        norms[zero] = 1.0
    unit = m / norms[..., None]
    # SRC rows against DST rows, as views
    sims = unit[..., 1::2, :] @ np.swapaxes(unit[..., 0::2, :], -1, -2)
    if zero is not None:
        sims[zero[..., 1::2]] = -1.0
        sims[np.broadcast_to(zero[..., None, 0::2], sims.shape)] = -1.0
    return sims


def bipartite_soft_match(metric: np.ndarray, r: int) -> MatchResult:
    """Select the top-r most similar SRC->DST pairs of every item.

    Each SRC token contributes one candidate edge: its highest-similarity
    DST partner. The r candidates with the largest scores win. r greater
    than |SRC| is clamped (flagged on the result, never an error); metric
    shapes as in similarity_matrix. A batch is matched MATCH_BLOCK_ITEMS at a time.
    """
    r = check_count(r, "r")
    m = np.asarray(metric)
    _check_metric(m)
    batch = m[None] if m.ndim == 2 else m
    # each SRC row's best edge: its DST position and score, (B, |SRC|)
    edges = [_best_edges(batch[lo:lo + MATCH_BLOCK_ITEMS])
             for lo in range(0, len(batch), MATCH_BLOCK_ITEMS)]
    best_dst_pos, best_score = (np.concatenate(e) if len(e) > 1 else e[0]
                                for e in zip(*edges))
    n_src = best_score.shape[1]
    # stable sort on descending score keeps ascending SRC order within ties
    order = np.argsort(-best_score, axis=1, kind="stable")[:, :r]
    flat = flat_index(order, n_src)
    idx_src = 2 * order + 1
    idx_dst = 2 * best_dst_pos.ravel()[flat].reshape(order.shape)
    scores = best_score.ravel()[flat].reshape(order.shape)
    if m.ndim == 2:
        idx_src, idx_dst, scores = idx_src[0], idx_dst[0], scores[0]
    return MatchResult(idx_src, idx_dst, scores, clamped=r > n_src)


def flat_index(idx: np.ndarray, n: int) -> np.ndarray:
    """Per-item indices into n rows, (k,) or (B, k), as indices into the
    items' rows laid end to end: item i's rows start at i * n."""
    if idx.ndim == 2 and len(idx) > 1:
        idx = idx + n * np.arange(len(idx))[:, None]
    return idx.ravel()


def _best_edges(metric: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every SRC row's best DST position and its score, (B, |SRC|) each."""
    sims = similarity_matrix(metric)
    n_dst = sims.shape[-1]
    # argmax returns the first maximum; DST is ascending, so ties already
    # resolve to the lower global DST index
    pos = sims.argmax(axis=-1)
    score = sims.ravel()[pos.ravel() + n_dst * np.arange(pos.size)]
    return pos, score.reshape(pos.shape)
