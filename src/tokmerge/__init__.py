"""tokmerge: video token-stream compression kernels and cost model.

Pipeline stages are plain functions over numpy arrays: temporal redundancy
masking + optimal segmentation (`temporal`), attention/cluster spatial
merging (`spatial`), inner-LLM merge simulation (`innerllm`), and a
closed-form transformer FLOPs model (`cost`). `synth` plants ground-truth
corpora for testing; `cli` wires everything into the `tokmerge` command.
"""

from .core import (
    CompressedVideo,
    CompressionConfig,
    CompressionReport,
    ConfigError,
    DataError,
    ModelProfile,
    ProvenanceArrays,
    TokenProvenance,
    VideoTokenStream,
    load_compressed,
    load_token_stream,
    save_compressed,
    save_stream,
    validate_config,
)
from .cost import (
    PROFILES,
    CostReport,
    decode_flops,
    get_profile,
    pipeline_cost_report,
    prefill_flops,
    retained_for_ratio,
)
from .innerllm import (
    InnerMergeInput,
    InnerMergeResult,
    inner_merge,
    merge_assigned,
    rank_by_last_attention,
    similarity_assign,
)
from .spatial import (
    ClusterState,
    ImportanceMap,
    attention_select,
    build_importance,
    dpc_knn_cluster,
    importance_from_attention,
    importance_from_qk,
    merge_clusters,
    spatial_merge,
)
from .synth import SynthSpec, generate
from .temporal import (
    RedundancyMask,
    SegmentPlan,
    TemporalMergeResult,
    apply_temporal_merge,
    optimal_segmentation,
    pairwise_redundancy,
    segment_gain,
)

__version__ = "0.1.0"

__all__ = [
    "ClusterState",
    "CompressedVideo",
    "CompressionConfig",
    "CompressionReport",
    "ConfigError",
    "CostReport",
    "DataError",
    "ImportanceMap",
    "InnerMergeInput",
    "InnerMergeResult",
    "ModelProfile",
    "PROFILES",
    "ProvenanceArrays",
    "RedundancyMask",
    "SegmentPlan",
    "SynthSpec",
    "TemporalMergeResult",
    "TokenProvenance",
    "VideoTokenStream",
    "apply_temporal_merge",
    "attention_select",
    "build_importance",
    "decode_flops",
    "dpc_knn_cluster",
    "generate",
    "get_profile",
    "importance_from_attention",
    "importance_from_qk",
    "inner_merge",
    "load_compressed",
    "load_token_stream",
    "merge_assigned",
    "merge_clusters",
    "optimal_segmentation",
    "pairwise_redundancy",
    "pipeline_cost_report",
    "prefill_flops",
    "rank_by_last_attention",
    "retained_for_ratio",
    "save_compressed",
    "save_stream",
    "segment_gain",
    "similarity_assign",
    "spatial_merge",
    "validate_config",
]
