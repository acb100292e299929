"""Output checks. Each raises CheckFailed with the reason, or returns None.

Checks compare the program's outputs with the float64 references in
reference.py or with properties the method must have; none compares with a
stored copy of earlier output. test_checks.py shows each one rejecting a
deliberately corrupted output.
"""

from __future__ import annotations

import numpy as np

from . import reference

# float32 rounding of a merged row computed in float64: a few ulps
MERGE_RTOL = 1e-6
# float64 scores recomputed by another formula agree to rounding
SCORE_ATOL = 1e-9


class CheckFailed(AssertionError):
    """A program output violated what the method requires."""


def fail_unless(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def equal(actual, expected, what: str) -> None:
    """Bitwise equality of two arrays (shape, dtype and every bit)."""
    a, e = np.asarray(actual), np.asarray(expected)
    fail_unless(a.shape == e.shape and a.dtype == e.dtype,
                f"{what}: {a.dtype}{a.shape} differs from {e.dtype}{e.shape}")
    fail_unless(a.tobytes() == e.tobytes(),
                f"{what}: {int(np.sum(a != e))} entries differ bitwise")


def close(actual, expected, rtol: float, what: str) -> None:
    """Every entry within rtol times the largest reference magnitude."""
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(expected, dtype=np.float64)
    fail_unless(a.shape == e.shape, f"{what}: shape {a.shape} != {e.shape}")
    scale = max(float(np.max(np.abs(e))), 1e-30)
    err = float(np.max(np.abs(a - e))) / scale
    fail_unless(err <= rtol, f"{what}: relative error {err:.3g} above {rtol:g}")


def clamped_decay(n0: int, r: int, depth: int) -> list[int]:
    """Token count after each layer when every layer removes up to r tokens
    and can remove at most half (the sources) of what it receives."""
    counts, n = [], n0
    for _ in range(depth):
        n -= min(r, n // 2)
        counts.append(n)
    return counts


def token_counts(counts, expected, what: str) -> None:
    fail_unless(list(counts) == list(expected),
                f"{what}: token counts {list(counts)} != {list(expected)}")


def match(metric, idx_src, idx_dst, scores, r: int) -> None:
    """The matching rule, in a form true whether or not the class token
    (position 0) is protected from absorbing sources.

    Sources are the odd positions and destinations the even ones. Exactly r
    distinct sources are chosen; each chosen score is the pair's float64
    cosine and is no worse than that source's best edge to any destination
    other than position 0; and no unchosen source has a best edge (again
    over destinations other than 0) above the weakest chosen score.
    """
    metric = np.asarray(metric)
    n = metric.shape[0]
    src, dst = np.arange(1, n, 2), np.arange(0, n, 2)
    idx_src = np.asarray(idx_src, dtype=np.int64)
    idx_dst = np.asarray(idx_dst, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    fail_unless(len(idx_src) == len(idx_dst) == len(scores) == r,
                f"match: {len(idx_src)}/{len(idx_dst)}/{len(scores)} pairs for r={r}")
    if r == 0:
        return
    fail_unless(len(set(idx_src.tolist())) == r, "match: a source is chosen twice")
    fail_unless(np.all(idx_src % 2 == 1) and np.all(idx_src < n), "match: a source is not odd")
    fail_unless(np.all(idx_dst % 2 == 0) and np.all(idx_dst < n), "match: a destination is not even")
    for s, d, sc in zip(idx_src, idx_dst, scores):
        cos = reference.cos64(metric[s], metric[d])
        fail_unless(abs(cos - sc) <= SCORE_ATOL,
                    f"match: score {sc!r} of pair ({s}, {d}) is not its cosine {cos!r}")
    # best edge of every source to a destination other than position 0
    best = np.full(len(src), -np.inf)
    if len(dst) > 1:
        best = reference.cosine_matrix(metric, src, dst[1:]).max(axis=1)
    best_of = dict(zip(src.tolist(), best.tolist()))
    for s, sc in zip(idx_src.tolist(), scores.tolist()):
        fail_unless(sc >= best_of[s] - SCORE_ATOL,
                    f"match: source {s} took score {sc!r} below its best edge {best_of[s]!r}")
    chosen = set(idx_src.tolist())
    rest = [best_of[s] for s in src.tolist() if s not in chosen]
    if rest:
        fail_unless(max(rest) <= scores.min() + SCORE_ATOL,
                    f"match: an unchosen source has best edge {max(rest)!r} "
                    f"above the weakest chosen {scores.min()!r}")


def reduce(x, method: str, idx_src, idx_dst, out, out_map=None) -> None:
    """A reduce output against its recomputation from the matched pairs.

    Rows the method leaves alone (unmatched sources, untouched destinations,
    every destination when pruning) must be bit-identical to the input;
    fused rows must equal the float64 recomputation to float32 rounding.
    With out_map, the trace's position-to-row map must be the recomputed one.
    """
    x = np.asarray(x, dtype=np.float32)
    out = np.asarray(out)
    expected, expected_map = reference.fuse(x, method, idx_src, idx_dst)
    fail_unless(out.shape == expected.shape,
                f"reduce: output shape {out.shape} != {expected.shape}")
    fused = np.zeros(len(expected), dtype=bool)
    if method != "pruned":
        fused[expected_map[np.asarray(idx_dst, dtype=np.int64)]] = True
    kept = expected[~fused].astype(np.float32)
    fail_unless(np.array_equal(out[~fused], kept),
                "reduce: a row the method leaves alone changed, moved or went missing")
    if fused.any():
        err = np.abs(out[fused] - expected[fused])
        scale = np.abs(expected[fused]).max(axis=1, keepdims=True)
        fail_unless(np.all(err <= MERGE_RTOL * scale),
                    f"reduce: a {method} row is off its recomputation by "
                    f"{float((err / scale).max()):.3g}")
    if out_map is not None:
        fail_unless(np.array_equal(np.asarray(out_map), expected_map),
                    "reduce: output_index_of_input differs from the pairs' map")


def unmerge(reduced, out_map, unmerged) -> None:
    """Every position gets its row back; fused positions are identical copies."""
    reduced = np.asarray(reduced)
    unmerged = np.asarray(unmerged)
    out_map = np.asarray(out_map)
    fail_unless(unmerged.shape == (len(out_map), reduced.shape[1]),
                f"unmerge: shape {unmerged.shape} for {len(out_map)} positions")
    for row in np.unique(out_map):
        group = unmerged[out_map == row]
        fail_unless(np.array_equal(group, np.broadcast_to(reduced[row], group.shape)),
                    f"unmerge: positions of reduced row {row} are not copies of it")


def fl_report(rows, depth: int, pairs_per_layer: int) -> None:
    """Per-layer FL aggregates: one row per layer, means in [0, 1]."""
    fail_unless([row["layer"] for row in rows] == list(range(depth)),
                f"fl: report covers layers {[row['layer'] for row in rows]}")
    for row in rows:
        fail_unless(0 <= row["count"] <= pairs_per_layer,
                    f"fl: layer {row['layer']} counts {row['count']} pairs")
        if row["count"]:
            fail_unless(0.0 <= row["mean_fl"] <= 1.0,
                        f"fl: layer {row['layer']} mean FL {row['mean_fl']} outside [0, 1]")
            fail_unless(row["std_fl"] >= 0.0, f"fl: layer {row['layer']} negative std")


def highway(actual, expected, ambiguous, rtol: float, max_ambiguous: float) -> None:
    """A dual-path output against the float64 loop, skipping entries where a
    masking decision sat on the threshold (at most max_ambiguous of them)."""
    amb = np.asarray(ambiguous, dtype=bool)
    share = float(amb.mean())
    fail_unless(share <= max_ambiguous,
                f"highway: {share:.2%} of entries sit on the MBM threshold")
    a = np.asarray(actual, dtype=np.float64)[~amb]
    e = np.asarray(expected, dtype=np.float64)[~amb]
    close(a, e, rtol, "highway: full path")
