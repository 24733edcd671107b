"""The outer-LLM pipeline as one call, shared by `tokmerge compress` and the library."""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager

import numpy as np

from .core import CompressedVideo, CompressionConfig, CompressionReport
from .cost import check_inner_layer, get_profile, pipeline_cost_report
from .spatial import ImportanceMap, spatial_merge
from .temporal import SegmentPlan, apply_temporal_merge, optimal_segmentation, pairwise_redundancy

DEFAULT_PROFILE = "llava-ov-7b"


@contextmanager
def _stage(name: str):
    """Print the block's wall time to stderr under TOKMERGE_VERBOSE=1."""
    t0 = time.perf_counter()
    yield
    if os.environ.get("TOKMERGE_VERBOSE", "") not in ("", "0"):
        print(f"{name}: {(time.perf_counter() - t0) * 1e3:.2f} ms", file=sys.stderr)


def segment(stream, tau: float) -> tuple[np.ndarray, SegmentPlan]:
    """The redundancy mask at ``tau`` and its DP segmentation, shared with `tokmerge segment`."""
    mask = pairwise_redundancy(stream, tau)
    return mask, optimal_segmentation(mask)


def compress(stream, cfg: CompressionConfig, imp: ImportanceMap | None = None,
             profile: str = DEFAULT_PROFILE) -> tuple[CompressedVideo, CompressionReport]:
    """Redundancy mask -> DP segmentation -> temporal merge -> spatial merge,
    with the report; FLOPs are priced on the named model profile. Under
    TOKMERGE_VERBOSE=1 the temporal and spatial times go to stderr."""
    prof = get_profile(profile)
    check_inner_layer(prof, cfg)
    with _stage("temporal"):
        mask, plan = segment(stream, cfg.tau)
        tmr = apply_temporal_merge(stream, plan, mask, cfg.temporal_merge_mode)
    with _stage("spatial"):
        cv = spatial_merge(tmr, imp, cfg)

    original = tmr.original_count
    cost = pipeline_cost_report(prof, cfg, cv.count, original)
    return cv, CompressionReport(
        original_count=original,
        after_temporal_count=tmr.survivor_count,
        final_count=cv.count,
        temporal_prune_ratio=1.0 - tmr.survivor_count / original,
        overall_retained_ratio=cv.count / original,
        segment_boundaries=tuple(
            (s, e, g) for (s, e), g in zip(plan.segments(), plan.gains)),
        prefill_flops=cost.prefill_flops,
        baseline_flops=cost.baseline_flops,
    )
