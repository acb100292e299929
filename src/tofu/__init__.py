"""Token reduction for transformer sequences: bipartite soft matching,
pruned/average/norm-preserving merging under depth-dependent schedules,
a minimal ViT stack to host the reduce op, linearity profiling, and an
analytical FLOP model."""

from .fusion import (
    MergeMethod,
    ReduceSpec,
    ReduceTrace,
    apply_reduce,
    parse_merge_string,
    unmerge,
)
from .highway import MbmConfig, distribute, highway_block, highway_forward, mbm_mask, update_index
from .linearity import FlConfig, FlReport, functional_linearity, interpolate, path_length, profile_model
from .matching import MatchResult, Partition, bipartite_soft_match, partition, similarity_matrix
from .tensor import gelu, layernorm, read_ttf, softmax_rows, write_ttf
from .vit import (
    ARCH_PRESETS,
    BlockWeights,
    FlopReport,
    ReducePlacement,
    VitConfig,
    VitModel,
    attention,
    block_forward,
    flops_estimate,
    forward,
    load_weights,
    random_model,
    save_weights,
)

__version__ = "0.1.0"
