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

Every schedule is a string of 'P' (prune) and 'A' (late method), one
character per layer; the hybrid d-threshold spec is compiled into one.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .matching import MatchResult, bipartite_soft_match, partition
from .tensor import FLOAT

MLERP_DEGENERATE_EPS = 1e-12


class MergeMethod(Enum):
    PRUNED = "pruned"
    AVERAGE = "average"
    MLERP = "mlerp"


class MergeStringError(ValueError):
    """A per-layer schedule string failed to parse; offset points at the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at index {offset})")
        self.offset = offset


@dataclass
class ReduceSpec:
    """Per-layer reduction policy: how many tokens to drop and how to fuse them."""

    r: int = 0
    d: int = 6
    late_method: MergeMethod = MergeMethod.MLERP
    merge_string: str | None = None  # overrides the d-threshold schedule

    def __post_init__(self):
        if self.r < 0:
            raise ValueError(f"reduction count r must be >= 0, got {self.r}")
        if self.d < 1:
            raise ValueError(f"hybrid threshold d must be >= 1, got {self.d}")


@dataclass(frozen=True)
class ReduceTrace:
    """Bookkeeping from one reduce: where every input row ended up.

    output_index_of_input maps each of the N input global indices to its
    output row; merged sources map to their destination's row. Surjective
    onto the reduced rows, injective on the non-merged inputs.
    """

    match: MatchResult
    output_index_of_input: np.ndarray
    mlerp_degenerate: bool = False

    @property
    def n_input(self) -> int:
        return len(self.output_index_of_input)

    @property
    def n_output(self) -> int:
        return self.n_input - len(self.match.idx_src)


def merge_pruned(dst_rows: np.ndarray, src_rows: np.ndarray,
                 idx_dst_local: np.ndarray) -> np.ndarray:
    """Discard the sources; destination rows pass through bit-identical."""
    return dst_rows


def _group_mean(dst_rows: np.ndarray, src_rows: np.ndarray,
                idx_dst_local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 mean of {dst} union {its srcs} per destination row.

    Returns (means, touched mask). Rows with no scattered source keep their
    original value exactly.
    """
    acc = dst_rows.astype(np.float64)
    counts = np.ones(len(dst_rows))
    np.add.at(acc, idx_dst_local, src_rows.astype(np.float64))
    np.add.at(counts, idx_dst_local, 1.0)
    touched = counts > 1.0
    return acc / counts[:, None], touched


def merge_average(dst_rows: np.ndarray, src_rows: np.ndarray,
                  idx_dst_local: np.ndarray) -> np.ndarray:
    """Scatter-mean the sources into their destinations, dst value included."""
    means, touched = _group_mean(dst_rows, src_rows, idx_dst_local)
    out = dst_rows.copy()
    out[touched] = means[touched].astype(FLOAT)
    return out


def merge_mlerp(dst_rows: np.ndarray, src_rows: np.ndarray,
                idx_dst_local: np.ndarray) -> tuple[np.ndarray, bool]:
    """Norm-preserving merge: mean direction scaled to the group's max norm.

    Returns (rows, degenerate). A group whose mean cancels to ~zero cannot
    be given a direction; it falls back to the plain mean (a near-zero row)
    and raises the degenerate flag instead of erroring mid-inference.
    """
    means, touched = _group_mean(dst_rows, src_rows, idx_dst_local)
    norm_max = np.sqrt((dst_rows.astype(np.float64) ** 2).sum(axis=1))
    src_norms = np.sqrt((src_rows.astype(np.float64) ** 2).sum(axis=1))
    np.maximum.at(norm_max, idx_dst_local, src_norms)
    mean_norms = np.sqrt((means ** 2).sum(axis=1))

    degenerate = touched & (mean_norms < MLERP_DEGENERATE_EPS)
    # scale/norm first: merging k copies of v yields factor 1.0 and therefore
    # v exactly; a degenerate group keeps factor 1.0, i.e. its plain mean
    scale = np.ones(len(dst_rows))
    ok = touched & ~degenerate
    scale[ok] = norm_max[ok] / mean_norms[ok]
    out = dst_rows.copy()
    out[touched] = (means[touched] * scale[touched, None]).astype(FLOAT)
    return out, bool(degenerate.any())


def apply_reduce(x: np.ndarray, metric: np.ndarray, method: MergeMethod,
                 r: int) -> tuple[np.ndarray, ReduceTrace]:
    """Reduce an (N, C) token slice to (N - r, C) by fusing matched pairs.

    metric supplies the similarity features (same leading length as x).
    Output rows are [unchanged SRC ascending, all DST ascending]; the trace
    records the full input-to-output index map. r beyond |SRC| clamps with
    a flag on the underlying match.
    """
    x = np.asarray(x, dtype=FLOAT)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError(f"apply_reduce needs an (N>=2, C) slice, got {x.shape}")
    if metric.shape[0] != x.shape[0]:
        raise ValueError(
            f"metric covers {metric.shape[0]} tokens but x has {x.shape[0]}")

    p = partition(x.shape[0])
    match = bipartite_soft_match(metric, p, r)

    selected = np.isin(p.src, match.idx_src)
    unchanged = p.src[~selected]
    dst_rows = x[p.dst]
    src_rows = x[match.idx_src]
    idx_dst_local = np.searchsorted(p.dst, match.idx_dst)

    degenerate = False
    if method is MergeMethod.PRUNED:
        merged = merge_pruned(dst_rows, src_rows, idx_dst_local)
    elif method is MergeMethod.AVERAGE:
        merged = merge_average(dst_rows, src_rows, idx_dst_local)
    elif method is MergeMethod.MLERP:
        merged, degenerate = merge_mlerp(dst_rows, src_rows, idx_dst_local)
    else:
        raise ValueError(f"unknown merge method: {method!r}")

    reduced = np.concatenate([x[unchanged], merged], axis=0)

    out_map = np.empty(x.shape[0], dtype=np.int64)
    out_map[unchanged] = np.arange(len(unchanged))
    out_map[p.dst] = len(unchanged) + np.arange(len(p.dst))
    out_map[match.idx_src] = out_map[match.idx_dst]
    return reduced, ReduceTrace(match, out_map, mlerp_degenerate=degenerate)


def unmerge(reduced: np.ndarray, trace: ReduceTrace) -> np.ndarray:
    """Expand a reduced slice back to input length by copying merged rows.

    Every input position receives the row its trace entry points at, so
    positions fused together come back as identical copies.
    """
    reduced = np.asarray(reduced, dtype=FLOAT)
    if reduced.ndim != 2 or reduced.shape[0] != trace.n_output:
        raise ValueError(
            f"reduced shape {reduced.shape} does not match trace output "
            f"length {trace.n_output}")
    return reduced[trace.output_index_of_input]


def parse_merge_string(s: str, late_method: MergeMethod = MergeMethod.AVERAGE,
                       expected_len: int | None = None) -> list[MergeMethod]:
    """Turn a 'P'/'A' schedule string into per-layer methods.

    'P' prunes, 'A' applies late_method. Any interleaving is allowed; other
    characters or a length mismatch raise MergeStringError with the offset
    of the offending position.
    """
    methods = []
    for i, ch in enumerate(s):
        if expected_len is not None and i >= expected_len:
            raise MergeStringError(
                f"merge string longer than the {expected_len}-layer model", i)
        if ch == "P":
            methods.append(MergeMethod.PRUNED)
        elif ch == "A":
            methods.append(late_method)
        else:
            raise MergeStringError(f"invalid merge character {ch!r}", i)
    if expected_len is not None and len(methods) < expected_len:
        raise MergeStringError(
            f"merge string covers {len(methods)} of {expected_len} layers", len(s))
    return methods


def layer_methods(spec: ReduceSpec, depth: int) -> list[MergeMethod]:
    """Per-layer methods for a depth-L stack.

    merge_string wins when set; otherwise the hybrid rule prunes the first d
    layers and applies late_method from layer d on.
    """
    s = spec.merge_string
    if s is None:
        s = "P" * min(spec.d, depth) + "A" * max(depth - spec.d, 0)
    return parse_merge_string(s, spec.late_method, depth)
