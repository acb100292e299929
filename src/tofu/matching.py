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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MatchResult:
    """The r selected cross-set pairs, highest similarity first.

    idx_src entries are distinct SRC members; idx_dst entries are DST
    members and may repeat (several sources can share one destination).
    `clamped` is set when the requested r exceeded |SRC| and was reduced.
    """

    idx_src: np.ndarray
    idx_dst: np.ndarray
    scores: np.ndarray  # float64, non-increasing
    clamped: bool = False


def similarity_matrix(metric: np.ndarray) -> np.ndarray:
    """Cosine similarity of every SRC row against every DST row.

    metric is an (N >= 2, C) slice indexed by global token position. Zero-norm
    rows get similarity -1 to every partner so degenerate tokens sort last;
    the masking runs only when such a row exists. Returned matrix is float64,
    shape (N // 2, (N + 1) // 2).
    """
    m = np.asarray(metric, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] < 2:
        raise ValueError(f"metric must be (N >= 2, C) rows, got {m.shape}")
    norms = np.sqrt((m * m).sum(axis=1))
    zero = None if norms.all() else norms == 0.0
    if zero is not None:
        norms[zero] = 1.0
    unit = m / norms[:, None]
    sims = unit[1::2] @ unit[0::2].T  # SRC rows against DST rows, as views
    if zero is not None:
        sims[zero[1::2]] = -1.0
        sims[:, zero[0::2]] = -1.0
    return sims


def bipartite_soft_match(metric: np.ndarray, r: int) -> MatchResult:
    """Select the top-r most similar SRC->DST pairs.

    Each SRC token contributes one candidate edge: its highest-similarity
    DST partner. The r candidates with the largest scores win. r greater
    than |SRC| is clamped (flagged on the result, never an error).
    """
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    sims = similarity_matrix(metric)
    n_src = sims.shape[0]
    # argmax returns the first maximum; DST is ascending, so ties already
    # resolve to the lower global DST index
    best_dst_pos = sims.argmax(axis=1)
    best_score = sims[np.arange(n_src), best_dst_pos]
    # stable sort on descending score keeps ascending SRC order within ties
    order = np.argsort(-best_score, kind="stable")[:r]
    return MatchResult(
        idx_src=2 * order + 1,
        idx_dst=2 * best_dst_pos[order],
        scores=best_score[order],
        clamped=r > n_src,
    )
