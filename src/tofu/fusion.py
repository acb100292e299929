"""The token reduce operation: fuse matched token pairs and shrink a sequence.

Three ways to absorb a matched source token into its destination:

* pruned  -- drop the source outright, destinations untouched
* average -- each touched destination becomes the arithmetic mean of itself
             and every source scattered onto it
* mlerp   -- the mean direction of the group, rescaled to the group's
             maximum norm, so merging never shrinks feature norms

Reduced output keeps a fixed row order: unchanged SRC tokens in ascending
global index, then every DST token in ascending global index. A ReduceTrace
records where each input row went, which is what unmerge and the highway
path use to restore or redistribute full-length sequences.
Merges recompute only touched destinations, in float64; the rest pass through.
The reduce takes one (N, C) sequence or a (B, N, C) batch, and a batch item
gets exactly the bits it gets alone.

A schedule is one threshold d: layers below d prune, layers from d on
apply the spec's late method, so d = 0 fuses with it in every layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .matching import MatchResult, bipartite_soft_match, flat_index
from .tensor import FLOAT, ShapeError, check_count

MLERP_DEGENERATE_EPS = 1e-12


class MergeMethod(Enum):
    PRUNED = "pruned"
    AVERAGE = "average"
    MLERP = "mlerp"


@dataclass(frozen=True)
class ReduceSpec:
    """Per-layer reduction policy: drop r tokens in every layer, pruning below
    layer d and fusing with late_method from d on (d = 0: in every layer).

    r and d are integers >= 0 (numpy ints pass, bools do not) and
    late_method a MergeMethod; anything else raises TypeError or ValueError
    when built.
    """

    r: int = 0
    d: int = 6
    late_method: MergeMethod = MergeMethod.MLERP

    def __post_init__(self):
        check_count(self.r, "r")
        check_count(self.d, "d")
        if not isinstance(self.late_method, MergeMethod):
            raise TypeError(
                f"late_method must be a MergeMethod, got {self.late_method!r}")


@dataclass(frozen=True)
class ReduceTrace:
    """Bookkeeping from one reduce: where every input row ended up.

    output_index_of_input maps each of the N input global indices to its
    output row, (N,) for one sequence and (B, N) for a batch; merged sources
    map to their destination's row. Per item it is surjective onto the
    reduced rows and injective on the non-merged inputs. mlerp_degenerate_groups
    counts each item's MLERP groups that fell back to the plain mean (0 for
    the other methods): a number for one sequence, (B,) for a batch. An item
    has output_index_of_input.shape[-1] - match.idx_src.shape[-1] outputs.
    """

    match: MatchResult
    output_index_of_input: np.ndarray
    mlerp_degenerate_groups: np.ndarray

    @property
    def mlerp_degenerate(self) -> bool:
        """True if any item had a degenerate MLERP group."""
        return bool(np.any(self.mlerp_degenerate_groups))


def merge_pruned(dst_rows: np.ndarray, src_rows: np.ndarray,
                 idx_dst_local: np.ndarray) -> np.ndarray:
    """Discard the sources; destination rows pass through bit-identical."""
    return dst_rows


def _group_mean(dst_rows: np.ndarray, src_rows: np.ndarray,
                idx_dst_local: np.ndarray) -> tuple[np.ndarray, ...]:
    """Float64 mean of {dst} union {its srcs} for each touched destination.

    dst_rows is (M, C); src_rows holds the k source rows (any leading
    shape) and idx_dst_local their k rows of dst_rows. Returns (touched,
    slot, rows, means): touched destinations ascending, each source's
    position in touched, the float64 [touched dst; src] rows and one mean
    per touched destination.
    """
    sizes = np.bincount(idx_dst_local, minlength=len(dst_rows))
    touched = np.flatnonzero(sizes)
    slot = np.searchsorted(touched, idx_dst_local)
    rows = np.concatenate([dst_rows[touched], src_rows.reshape(-1, dst_rows.shape[1])],
                          dtype=np.float64)
    acc = rows[:len(touched)].copy()
    np.add.at(acc, slot, rows[len(touched):])
    return touched, slot, rows, acc / (sizes[touched] + 1.0)[:, None]


def merge_average(dst_rows: np.ndarray, src_rows: np.ndarray,
                  idx_dst_local: np.ndarray) -> np.ndarray:
    """Scatter-mean the sources into their destinations, dst value included.

    One item: dst_rows (D, C), src_rows (k, C), idx_dst_local (k,). A batch
    adds a leading B to each.
    """
    out = dst_rows.copy()
    flat = out.reshape(-1, out.shape[-1])  # a view: the copy is contiguous
    touched, _, _, means = _group_mean(
        flat, src_rows, flat_index(idx_dst_local, out.shape[-2]))
    flat[touched] = means.astype(FLOAT)
    return out


def merge_mlerp(dst_rows: np.ndarray, src_rows: np.ndarray,
                idx_dst_local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Norm-preserving merge: mean direction scaled to the group's max norm.

    Shapes as in merge_average. Returns (rows, degenerate): degenerate
    counts each item's groups whose mean cancels to ~zero, a 0-d count for
    one item and (B,) for a batch. Such a group cannot be given a
    direction; it falls back to the plain mean (a near-zero row) instead of
    erroring mid-inference.
    """
    out = dst_rows.copy()
    flat = out.reshape(-1, out.shape[-1])
    n_dst = out.shape[-2]
    touched, slot, rows, means = _group_mean(
        flat, src_rows, flat_index(idx_dst_local, n_dst))
    norms = np.sqrt((rows ** 2).sum(axis=1))
    norm_max = norms[:len(touched)]
    np.maximum.at(norm_max, slot, norms[len(touched):])
    mean_norms = np.sqrt((means ** 2).sum(axis=1))

    degenerate = mean_norms < MLERP_DEGENERATE_EPS
    # scale/norm first: merging k copies of v yields factor 1.0 and therefore
    # v exactly; a degenerate group keeps factor 1.0, i.e. its plain mean
    scale = np.divide(norm_max, mean_norms, out=np.ones_like(norm_max),
                      where=~degenerate)
    flat[touched] = (means * scale[:, None]).astype(FLOAT)
    counts = np.bincount(touched[degenerate] // n_dst, minlength=len(flat) // n_dst)
    return out, counts.reshape(idx_dst_local.shape[:-1])


def apply_reduce(x: np.ndarray, metric: np.ndarray, method: MergeMethod,
                 r: int) -> tuple[np.ndarray, ReduceTrace]:
    """Reduce an (N, C) token slice to (N - r, C) by fusing matched pairs.

    A (B, N, C) batch reduces to (B, N - r, C) in one call, every item
    bitwise as it reduces alone, with a batched trace: (B, r) match arrays,
    a (B, N) index map and (B,) degenerate counts. metric supplies the
    similarity features (the leading axes of x, any last axis); other shapes,
    N < 2, B < 1 or an x with C = 0 raise ShapeError. Output rows are
    [unchanged SRC ascending, all DST ascending], traced input to output; r
    beyond |SRC| clamps with a flag on the underlying match.
    """
    x = np.asarray(x, dtype=FLOAT)
    metric = np.asarray(metric)
    if metric.shape[:-1] != x.shape[:-1]:
        raise ShapeError(f"metric {metric.shape} must have the rows of x {x.shape}")
    if x.shape[-1:] == (0,):
        raise ShapeError(f"reduce input must have C >= 1 channels, got {x.shape}")

    match = bipartite_soft_match(metric, r)
    idx_src, idx_dst = match.idx_src, match.idx_dst
    one = x.ndim == 2
    if one:
        x, idx_src, idx_dst = x[None], idx_src[None], idx_dst[None]

    # SRC/DST are the odd/even rows, so global index >> 1 is the local one
    b, n, _ = x.shape
    items = np.arange(b)[:, None]
    n_unchanged = n // 2 - idx_src.shape[1]
    keep = np.ones((b, n // 2), dtype=bool)
    keep[items, idx_src >> 1] = False
    unchanged = 2 * np.nonzero(keep)[1].reshape(b, n_unchanged) + 1
    dst_rows = x[:, 0::2]
    src_rows = x[items, idx_src]
    idx_dst_local = idx_dst >> 1

    degenerate = np.zeros(b, dtype=np.int64)
    if method is MergeMethod.PRUNED:
        merged = merge_pruned(dst_rows, src_rows, idx_dst_local)
    elif method is MergeMethod.AVERAGE:
        merged = merge_average(dst_rows, src_rows, idx_dst_local)
    elif method is MergeMethod.MLERP:
        merged, degenerate = merge_mlerp(dst_rows, src_rows, idx_dst_local)
    else:
        raise ValueError(f"unknown merge method: {method!r}")

    reduced = np.concatenate([x[items, unchanged], merged], axis=1)

    out_map = np.empty((b, n), dtype=np.int64)
    out_map[items, unchanged] = np.arange(n_unchanged)
    out_map[:, 0::2] = np.arange(n_unchanged, reduced.shape[1])
    out_map[items, idx_src] = out_map[items, idx_dst]
    if one:
        return reduced[0], ReduceTrace(match, out_map[0], degenerate[0])
    return reduced, ReduceTrace(match, out_map, degenerate)


def unmerge(reduced: np.ndarray, trace: ReduceTrace) -> np.ndarray:
    """Expand a reduced slice back to input length by copying merged rows.

    Every input position receives the row its trace entry points at, so
    positions fused together come back as identical copies. An (M, C) slice
    takes a one-sequence trace and gives (N, C); (B, M, C) rows take their
    apply_reduce call's batched trace and give (B, N, C). Else ShapeError.
    """
    reduced = np.asarray(reduced, dtype=FLOAT)
    index = trace.output_index_of_input
    n_out = index.shape[-1] - trace.match.idx_src.shape[-1]
    if reduced.shape[:-1] != index.shape[:-1] + (n_out,):
        raise ShapeError(
            f"reduced shape {reduced.shape} does not match trace output "
            f"length {n_out} over maps {index.shape}")
    if index.ndim == 1:
        return reduced[index]
    return reduced[np.arange(len(index))[:, None], index]


def layer_methods(spec: ReduceSpec, depth: int) -> list[MergeMethod]:
    """Per-layer methods of a depth-L stack: PRUNED below spec.d, then late_method."""
    return [MergeMethod.PRUNED if l < spec.d else spec.late_method
            for l in range(depth)]
