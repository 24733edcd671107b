"""tokmerge: video token-stream compression kernels and cost model.

Pipeline stages are plain functions over numpy arrays: temporal redundancy
masking + optimal segmentation (`temporal`), attention/cluster spatial
merging (`spatial`), inner-LLM merge simulation (`innerllm`), and a
closed-form transformer FLOPs model (`cost`). `synth` plants ground-truth
corpora for testing; `pipeline` composes the stages (`compress`), and `cli`
runs the `tokmerge` command on top of it.
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
from .pipeline import compress
from .spatial import (
    ClusterState,
    ImportanceMap,
    attention_select,
    dpc_knn_cluster,
    importance_from_attention,
    importance_from_qk,
    merge_clusters,
    spatial_merge,
)
from .synth import SynthSpec, generate
from .temporal import (
    SegmentPlan,
    TemporalMergeResult,
    apply_temporal_merge,
    optimal_segmentation,
    pairwise_redundancy,
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
    "SegmentPlan",
    "SynthSpec",
    "TemporalMergeResult",
    "TokenProvenance",
    "VideoTokenStream",
    "apply_temporal_merge",
    "attention_select",
    "compress",
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
    "similarity_assign",
    "spatial_merge",
    "validate_config",
]
