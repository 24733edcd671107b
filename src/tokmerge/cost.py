"""Closed-form transformer FLOPs model for prefilling and decoding.

Per layer, processing n vision tokens costs ``4*n*d^2 + 2*n^2*d + 2*n*d*m``
FLOPs in prefilling (d = hidden size, m = FFN intermediate size). Decoding
R tokens against the cache adds
``R*((4*d^2 + 2*d*m) + 2*(d*n + d*(R+1)/2))`` per layer. Sums are evaluated
in exact integer arithmetic and returned as 64-bit floats.

Retained-count convention for ratio-based reports: per-frame ceiling,
``retained = frames * ceil(N_v * ratio)`` — the same per-group ceiling the
compression pipeline applies.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

from .core import CompressionConfig, ConfigError, ModelProfile
from .innerllm import retained_count


def _load_profiles() -> dict[str, ModelProfile]:
    text = resources.files(__package__).joinpath("profiles.json").read_text()
    return {p["name"]: ModelProfile(**p) for p in json.loads(text)}


PROFILES = _load_profiles()

DECODE_TOKENS = 100


def get_profile(name: str) -> ModelProfile:
    try:
        return PROFILES[name]
    except KeyError:
        known = ", ".join(sorted(PROFILES))
        raise ConfigError(f"unknown profile {name!r}; known profiles: {known}") from None


def _check_counts(profile: ModelProfile, n: list[int]) -> list[int]:
    n = [int(v) for v in n]
    if len(n) != profile.layers_T:
        raise ConfigError(
            f"{len(n)} per-layer counts for {profile.layers_T} layers")
    if any(v < 0 for v in n):
        raise ConfigError("per-layer token counts must be non-negative")
    return n


def prefill_flops(profile: ModelProfile, n: list[int]) -> float:
    """Total prefilling FLOPs over the per-layer token counts ``n``."""
    n = _check_counts(profile, n)
    d, m = profile.hidden_d, profile.ffn_m
    return float(sum(4 * v * d * d + 2 * v * v * d + 2 * v * d * m for v in n))


def decode_flops(profile: ModelProfile, n: list[int], r_dec: int = DECODE_TOKENS) -> float:
    """Total decoding FLOPs for predicting ``r_dec`` tokens against the cache."""
    n = _check_counts(profile, n)
    if r_dec < 0:
        raise ConfigError(f"decode token count must be >= 0, got {r_dec}")
    d, m = profile.hidden_d, profile.ffn_m
    # 2*(d*n + d*(R+1)/2) = 2*d*n + d*(R+1), exact in integers
    return float(sum(r_dec * ((4 * d * d + 2 * d * m) + 2 * d * v + d * (r_dec + 1))
                     for v in n))


def check_inner_layer(profile: ModelProfile, cfg: CompressionConfig) -> None:
    """Raise ConfigError unless the config's inner merge runs after a layer
    the profile has, below its last one."""
    if cfg.inner_layer_K >= profile.layers_T:
        raise ConfigError(f"inner_layer_K {cfg.inner_layer_K} must be below the "
                          f"{profile.layers_T} layers of profile {profile.name}")


def layer_token_counts(profile: ModelProfile, retained_tokens: int,
                       cfg: CompressionConfig) -> list[int]:
    """Per-layer schedule: full count through layer K, then the count the
    config's inner merge keeps, innerllm.retained_count (the full count
    everywhere at R = 0)."""
    check_inner_layer(profile, cfg)
    reduced = retained_count(retained_tokens, cfg.inner_ratio_R)
    return [retained_tokens if i <= cfg.inner_layer_K else reduced
            for i in range(1, profile.layers_T + 1)]


def retained_for_ratio(profile: ModelProfile, ratio: float, frames: int | None = None) -> int:
    """Retained token count at a target ratio: frames * ceil(N_v * ratio)."""
    if not 0 < ratio <= 1:
        raise ConfigError(f"retained ratio must be in (0, 1], got {ratio}")
    if frames is not None and frames < 1:
        raise ConfigError(f"frame count must be >= 1, got {frames}")
    b = frames if frames is not None else profile.default_frames_B
    return b * math.ceil(profile.tokens_per_frame_Nv * ratio)


@dataclass(frozen=True)
class CostReport:
    """FLOPs of one token schedule against the full-token baseline's prefill.

    ``ratio`` is ``prefill_flops / baseline_flops``, the paper's FLOPs
    ratio; ``decode_flops`` is reported on its own and never folded in."""

    per_layer_tokens: tuple[int, ...]
    prefill_flops: float
    decode_flops: float
    baseline_flops: float
    ratio: float


def pipeline_cost_report(
    profile: ModelProfile,
    cfg: CompressionConfig,
    retained_tokens: int,
    baseline_tokens: int | None = None,
) -> CostReport:
    """Cost of ``retained_tokens`` under the config's inner merge, the one
    pricing path (``compress``, ``tokmerge flops``, the benchmark), against
    ``baseline_tokens`` (default: the profile's B * N_v) at every layer."""
    if retained_tokens < 1:
        raise ConfigError(f"retained token count must be >= 1, got {retained_tokens}")
    if baseline_tokens is None:
        baseline_tokens = profile.default_frames_B * profile.tokens_per_frame_Nv
    counts = layer_token_counts(profile, retained_tokens, cfg)
    prefill = prefill_flops(profile, counts)
    baseline = prefill_flops(profile, [baseline_tokens] * profile.layers_T)
    return CostReport(
        per_layer_tokens=tuple(counts),
        prefill_flops=prefill,
        decode_flops=decode_flops(profile, counts),
        baseline_flops=baseline,
        ratio=prefill / baseline,
    )
