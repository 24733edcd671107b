"""Shared domain types, configuration validation, and array/report I/O.

Conventions used throughout the package:

* token files are standard ``.npy`` arrays (format version 1.0, magic
  ``\\x93NUMPY``), shape ``(B, N_v, d)``, little-endian floats;
* internal precision is 32-bit float;
* frame numbers in segment boundaries are 1-based with half-open spans
  ``[start, end)`` (matching the segmentation recurrence), while provenance
  coordinates ``(frame, spatial_index)`` are 0-based array indices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np


class ConfigError(ValueError):
    """A configuration field is missing, unknown, or out of range."""


class DataError(ValueError):
    """An input file or array violates its contract."""


TEMPORAL_MERGE_MODES = ("mean", "first")
PROVENANCE_KINDS = ("selected", "temporal_rep", "cluster_rep")


# ---------------------------------------------------------------------------
# Token stream
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VideoTokenStream:
    """Dense ``(B, N_v, d)`` float32 token embeddings on an ``H x W`` grid.

    Slot ``k`` of a frame sits at grid cell ``(k // W, k % W)`` (row-major).
    The data array is made read-only on construction.
    """

    data: np.ndarray
    grid: tuple[int, int]

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise DataError(f"token array has rank {arr.ndim}, expected 3")
        if arr.dtype != np.float32:
            arr = arr.astype(np.float32)
        arr = np.ascontiguousarray(arr)
        b, n_v, d = arr.shape
        if min(b, n_v, d) < 1:
            raise DataError(f"token array has empty axis: shape {arr.shape}")
        h, w = self.grid
        if h < 1 or w < 1 or h * w != n_v:
            raise DataError(
                f"grid {h}x{w} does not tile {n_v} tokens per frame")
        finite = np.isfinite(arr)
        if not finite.all():
            offset = int(np.flatnonzero(~finite.ravel())[0])
            raise DataError(f"non-finite value at flat offset {offset}")
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "grid", (int(h), int(w)))

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def tokens_per_frame(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[2]


def load_token_stream(path, grid: tuple[int, int]) -> VideoTokenStream:
    """Load a ``(B, N_v, d)`` float token file and validate it against ``grid``.

    64-bit input is narrowed to 32-bit. Raises DataError for a malformed
    header, wrong rank, a grid that does not tile the frame, non-float
    payloads, or non-finite values (reported with their flat offset).
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"token file not found: {path}")
    try:
        arr = np.load(path, allow_pickle=False)
    except ValueError as exc:
        raise DataError(f"malformed array file {path}: {exc}") from exc
    if arr.ndim != 3:
        raise DataError(f"{path}: rank {arr.ndim}, expected 3")
    if arr.dtype not in (np.float32, np.float64):
        raise DataError(f"{path}: dtype {arr.dtype}, expected float32/float64")
    return VideoTokenStream(arr.astype(np.float32, copy=False), grid)


def save_stream(stream: VideoTokenStream, path) -> None:
    """Write the stream's token array as a ``.npy`` file."""
    np.save(Path(path), stream.data)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CompressionConfig:
    """Validated pipeline settings; build via validate_config()."""

    tau: float = 0.8
    target_ratio: float = 1.0
    temporal_merge_mode: str = "mean"
    pooled_grid: tuple[int, int] | None = None
    knn_k: int | None = None  # None = auto: max(2, floor(sqrt(N))), capped at N-1
    inner_enabled: bool = True
    inner_layer_K: int = 18
    inner_ratio_R: float = 50.0

    def to_dict(self) -> dict:
        return {
            "tau": self.tau,
            "target_ratio": self.target_ratio,
            "temporal_merge_mode": self.temporal_merge_mode,
            "pooled_grid": list(self.pooled_grid) if self.pooled_grid else None,
            "knn_k": "auto" if self.knn_k is None else self.knn_k,
            "inner_enabled": self.inner_enabled,
            "inner_layer_K": self.inner_layer_K,
            "inner_ratio_R": self.inner_ratio_R,
        }


_CONFIG_FIELDS = frozenset(CompressionConfig().to_dict())


def _require_real(raw, name: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(f"{name} must be a number, got {raw!r}")
    return float(raw)


def validate_config(raw: dict | None) -> CompressionConfig:
    """Validate a raw config document, filling defaults for missing fields.

    Defaults: tau=0.8, target_ratio=1.0, temporal_merge_mode=mean,
    pooled_grid=None (stream grid), knn_k=auto, inner_enabled=true,
    inner_layer_K=18, inner_ratio_R=50. Idempotent: validating
    ``cfg.to_dict()`` reproduces ``cfg``.
    """
    raw = dict(raw or {})
    unknown = set(raw) - _CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")

    tau = _require_real(raw.get("tau", 0.8), "tau")
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"tau must be in [0, 1], got {tau}")

    target_ratio = _require_real(raw.get("target_ratio", 1.0), "target_ratio")
    if not 0.0 < target_ratio <= 1.0:
        raise ConfigError(f"target_ratio must be in (0, 1], got {target_ratio}")

    mode = raw.get("temporal_merge_mode", "mean")
    if mode not in TEMPORAL_MERGE_MODES:
        raise ConfigError(
            f"temporal_merge_mode must be one of {TEMPORAL_MERGE_MODES}, got {mode!r}")

    pooled = raw.get("pooled_grid")
    if pooled is not None:
        pooled = tuple(pooled)
        if len(pooled) != 2 or any(not isinstance(x, int) or x < 1 for x in pooled):
            raise ConfigError(
                f"pooled_grid must be two positive integers [rows, cols], got {pooled!r}")

    knn_k = raw.get("knn_k", "auto")
    if knn_k in (None, "auto"):
        knn_k = None
    elif isinstance(knn_k, int) and not isinstance(knn_k, bool):
        if knn_k < 1:
            raise ConfigError(f"knn_k must be >= 1 or \"auto\", got {knn_k}")
    else:
        raise ConfigError(f"knn_k must be an integer or \"auto\", got {knn_k!r}")

    inner_enabled = raw.get("inner_enabled", True)
    if not isinstance(inner_enabled, bool):
        raise ConfigError(f"inner_enabled must be a boolean, got {inner_enabled!r}")

    inner_layer_K = raw.get("inner_layer_K", 18)
    if isinstance(inner_layer_K, bool) or not isinstance(inner_layer_K, int) \
            or inner_layer_K < 0:
        raise ConfigError(
            f"inner_layer_K must be a non-negative integer, got {inner_layer_K!r}")

    inner_ratio_R = _require_real(raw.get("inner_ratio_R", 50), "inner_ratio_R")
    if not 0.0 <= inner_ratio_R < 100.0:
        raise ConfigError(f"inner_ratio_R must be in [0, 100), got {inner_ratio_R}")

    return CompressionConfig(
        tau=tau,
        target_ratio=target_ratio,
        temporal_merge_mode=mode,
        pooled_grid=pooled,
        knn_k=knn_k,
        inner_enabled=inner_enabled,
        inner_layer_K=inner_layer_K,
        inner_ratio_R=inner_ratio_R,
    )


# ---------------------------------------------------------------------------
# Model profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelProfile:
    """Transformer dimensions used by the FLOPs model."""

    name: str
    hidden_d: int
    ffn_m: int
    layers_T: int
    tokens_per_frame_Nv: int
    default_frames_B: int

    def __post_init__(self):
        for f in ("hidden_d", "ffn_m", "layers_T",
                  "tokens_per_frame_Nv", "default_frames_B"):
            if getattr(self, f) < 1:
                raise ConfigError(f"profile {self.name}: {f} must be positive")


# ---------------------------------------------------------------------------
# Compressed output + report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TokenProvenance:
    """Origin of one surviving token.

    ``frame``/``spatial_index`` are 0-based coordinates of the survivor;
    ``members`` lists the 0-based coordinates it absorbed (empty for plain
    selected tokens).
    """

    frame: int
    spatial_index: int
    kind: str
    members: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in PROVENANCE_KINDS:
            raise DataError(f"unknown provenance kind {self.kind!r}")


def _first_repeat(frames: np.ndarray, slots: np.ndarray) -> int:
    """Index of the first (frame, slot) pair equal to an earlier one, or -1.

    A stable lexsort keeps equal pairs in index order, so the smallest index
    that follows an equal pair in sorted order is the first repeat.
    """
    order = np.lexsort((slots, frames))
    f, s = frames[order], slots[order]
    repeat = (f[1:] == f[:-1]) & (s[1:] == s[:-1])
    return int(order[1:][repeat].min()) if repeat.any() else -1


def _int64_coords(values, count: int) -> np.ndarray:
    try:
        return np.fromiter(values, dtype=np.int64, count=count).reshape(-1, 2)
    except (OverflowError, TypeError, ValueError) as exc:
        raise DataError(f"provenance coordinates must be int64 integers: {exc}") from None


@dataclass(frozen=True)
class CompressedVideo:
    """Surviving tokens (M x d float32) plus per-token provenance."""

    tokens: np.ndarray
    provenance: tuple[TokenProvenance, ...]

    def __post_init__(self):
        tok = np.ascontiguousarray(np.asarray(self.tokens, dtype=np.float32))
        if tok.ndim != 2:
            raise DataError(f"tokens must be 2-D, got rank {tok.ndim}")
        prov = tuple(self.provenance)
        if len(prov) != tok.shape[0]:
            raise DataError(
                f"{tok.shape[0]} tokens but {len(prov)} provenance records")
        coords = _int64_coords(
            chain.from_iterable((p.frame, p.spatial_index) for p in prov), 2 * len(prov))
        f, s = coords[:, 0], coords[:, 1]
        if ((f[1:] < f[:-1]) | ((f[1:] == f[:-1]) & (s[1:] <= s[:-1]))).any():
            raise DataError("provenance not strictly ascending by (frame, slot)")
        if any(len(m) != 2 for p in prov for m in p.members):
            raise DataError("provenance members must be (frame, slot) pairs")
        members = _int64_coords(
            chain.from_iterable(chain.from_iterable(p.members for p in prov)), -1)
        coords = np.concatenate((coords, members))
        repeat = _first_repeat(coords[:, 0], coords[:, 1])
        if repeat >= 0:
            m = (int(coords[repeat, 0]), int(coords[repeat, 1]))
            raise DataError(f"token coordinate {m} appears twice")
        tok.setflags(write=False)
        object.__setattr__(self, "tokens", tok)
        object.__setattr__(self, "provenance", prov)

    @property
    def count(self) -> int:
        return self.tokens.shape[0]


@dataclass(frozen=True)
class CompressionReport:
    """Per-video counts, ratios, segment boundaries, and FLOPs."""

    original_count: int
    after_temporal_count: int
    final_count: int
    temporal_prune_ratio: float
    overall_retained_ratio: float
    segment_boundaries: tuple[tuple[int, int, int], ...]  # (start, end, gain), 1-based
    prefill_flops: float
    baseline_flops: float
    per_video_histogram_bin: float = field(default=-1.0)

    def __post_init__(self):
        if not (self.final_count <= self.after_temporal_count <= self.original_count):
            raise DataError(
                f"inconsistent counts: {self.final_count} <= "
                f"{self.after_temporal_count} <= {self.original_count} fails")
        expect_prune = 1.0 - self.after_temporal_count / self.original_count
        expect_overall = self.final_count / self.original_count
        if not math.isclose(self.temporal_prune_ratio, expect_prune,
                            rel_tol=0, abs_tol=1e-9):
            raise DataError("temporal_prune_ratio inconsistent with counts")
        if not math.isclose(self.overall_retained_ratio, expect_overall,
                            rel_tol=0, abs_tol=1e-9):
            raise DataError("overall_retained_ratio inconsistent with counts")
        if self.per_video_histogram_bin < 0:
            object.__setattr__(self, "per_video_histogram_bin",
                               self.temporal_prune_ratio)
        object.__setattr__(self, "segment_boundaries",
                           tuple((int(s), int(e), int(g))
                                 for s, e, g in self.segment_boundaries))


def report_to_dict(report: CompressionReport) -> dict:
    """Serialize a report to the fixed JSON document schema."""
    baseline = report.baseline_flops
    return {
        "original_count": report.original_count,
        "after_temporal_count": report.after_temporal_count,
        "final_count": report.final_count,
        "temporal_prune_ratio": report.temporal_prune_ratio,
        "overall_retained_ratio": report.overall_retained_ratio,
        "segments": [{"start": s, "end": e, "gain": g}
                     for s, e, g in report.segment_boundaries],
        "flops": {
            "baseline": baseline,
            "prefill": report.prefill_flops,
            "ratio": report.prefill_flops / baseline if baseline else 0.0,
        },
    }


def report_from_dict(doc: dict) -> CompressionReport:
    try:
        return CompressionReport(
            original_count=int(doc["original_count"]),
            after_temporal_count=int(doc["after_temporal_count"]),
            final_count=int(doc["final_count"]),
            temporal_prune_ratio=float(doc["temporal_prune_ratio"]),
            overall_retained_ratio=float(doc["overall_retained_ratio"]),
            segment_boundaries=tuple(
                (seg["start"], seg["end"], seg["gain"]) for seg in doc["segments"]),
            prefill_flops=float(doc["flops"]["prefill"]),
            baseline_flops=float(doc["flops"]["baseline"]),
        )
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed report document: {exc}") from exc


TOKENS_FILE = "tokens.npy"
META_FILE = "compressed.json"


def _members_json(members) -> str:
    if not members:
        return "[]"
    pairs = ",\n".join(f"    [\n     {f},\n     {s}\n    ]" for f, s in members)
    return f"[\n{pairs}\n   ]"


def save_compressed(cv: CompressedVideo, report: CompressionReport, out_dir) -> None:
    """Write tokens.npy plus a compressed.json carrying provenance + report.

    compressed.json is byte-identical to ``json.dump(doc, fh, indent=1)``
    plus a newline, where ``doc`` is ``{"provenance": [{"frame",
    "spatial_index", "kind", "members": [[f, s], ...]}, ...], "report":
    report_to_dict(report)}``. The provenance part is formatted directly
    from that fixed schema, since the pure-Python indenting encoder would
    walk every member coordinate; the report is still encoded by ``json``.
    Loading the directory back reproduces the inputs bit-exactly (float32
    token payload; JSON floats round-trip via repr).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / TOKENS_FILE, cv.tokens)
    records = ",\n".join(
        f'  {{\n   "frame": {p.frame},\n   "spatial_index": {p.spatial_index},'
        f'\n   "kind": "{p.kind}",\n   "members": {_members_json(p.members)}\n  }}'
        for p in cv.provenance)
    provenance = f"[\n{records}\n ]" if records else "[]"
    report_json = json.dumps(report_to_dict(report), indent=1).replace("\n", "\n ")
    with open(out / META_FILE, "w", encoding="utf-8") as fh:
        fh.write(f'{{\n "provenance": {provenance},\n "report": {report_json}\n}}\n')


def load_compressed(out_dir) -> tuple[CompressedVideo, CompressionReport]:
    out = Path(out_dir)
    tokens_path = out / TOKENS_FILE
    meta_path = out / META_FILE
    if not tokens_path.exists():
        raise DataError(f"token file not found: {tokens_path}")
    if not meta_path.exists():
        raise DataError(f"metadata file not found: {meta_path}")
    tokens = np.load(tokens_path, allow_pickle=False)
    if tokens.ndim != 2:
        raise DataError(f"{tokens_path}: rank {tokens.ndim}, expected 2")
    with open(meta_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    prov = tuple(
        TokenProvenance(
            frame=int(p["frame"]),
            spatial_index=int(p["spatial_index"]),
            kind=p["kind"],
            members=tuple((int(a), int(b)) for a, b in p["members"]),
        )
        for p in doc["provenance"]
    )
    return CompressedVideo(tokens, prov), report_from_dict(doc["report"])
