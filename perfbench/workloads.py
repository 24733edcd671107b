"""Benchmark workloads and their seeded input generation.

Inputs are a pure function of (workload, seed, size) and of this file: they
come from numpy's PCG64 generator, never from tokmerge, so a change to the
program cannot change what it is fed. Each video plants redundant segments
the way ``tokmerge synth`` does: inside a segment the first
round(fraction * N_v) slots repeat a per-segment base vector plus Gaussian
noise, and every other slot is i.i.d. standard normal. At d = 896 and
noise 0.01 the planted slots have cosine ~1 - 1e-4 and the others ~0, so
``tau`` 0.8 recovers the plan exactly.

A workload fixes a multiset of (length, fraction) segments and each video
draws its order from the seed. The token counts, and so every count and
FLOPs figure, are therefore the same for every seed while the data and the
segment layout change.
"""

from __future__ import annotations

import json
import math
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GRID = (14, 14)
N_V = GRID[0] * GRID[1]
DIM = 896
QK_DIM = 64
TAU = 0.8
NOISE = 0.01

# traced stages, in the order cmd_compress reaches them; kept here so that
# run.py can name the per-layer metrics without importing tokmerge
SPANS = ("core.load", "cli.load_dumps", "spatial.importance", "temporal.mask",
         "temporal.segment", "temporal.merge", "spatial.merge", "cost.report",
         "core.save", "innerllm.merge", "cli.save_inner")

# smoke size: same segment multiset, every segment 2 frames long, small d
SMOKE_DIM = 64
SMOKE_QK_DIM = 16


@dataclass(frozen=True)
class Workload:
    name: str
    segments: tuple[tuple[int, float], ...]  # (frames, redundant fraction)
    importance: str | None                   # "qk", "attn" or None
    target_ratio: float
    pooled_grid: tuple[int, int] | None
    inner: bool
    videos: int                              # distinct videos per run


_CLIP_SEGMENTS = ((8, 0.0), (6, 0.25), (10, 0.5), (8, 0.75), (4, 1.0),
                  (6, 0.0), (8, 0.25), (6, 0.5), (4, 0.75), (4, 1.0))

WORKLOADS = {w.name: w for w in (
    Workload(
        name="clip-qk",
        segments=_CLIP_SEGMENTS,
        importance="qk", target_ratio=0.25, pooled_grid=None, inner=True,
        videos=4),
    Workload(
        name="long-attn",
        segments=tuple((4 * n, f) for n, f in _CLIP_SEGMENTS),
        importance="attn", target_ratio=0.25, pooled_grid=(7, 7), inner=True,
        videos=2),
    Workload(
        name="static-pass",
        segments=((32, 0.75),) * 5 + ((32, 0.9),) * 6 + ((32, 1.0),) * 5,
        importance=None, target_ratio=1.0, pooled_grid=None, inner=False,
        videos=2),
)}


def planted(n_v: int, fraction: float) -> int:
    return int(round(fraction * n_v))


def expected_counts(wl: Workload, segments, n_v: int = N_V) -> tuple[int, int]:
    """(after_temporal_count, final_count) the pipeline must produce.

    Mirrors the budget rule of ``spatial_merge``: pass-through when the
    temporal survivors fit ``ceil(target_ratio * B * N_v)``, otherwise a
    uniform keep rate with a per-frame ceiling on survivors and a
    per-segment ceiling on cluster representatives. The hidden-state dumps
    get exactly ``final_count`` rows.
    """
    b = sum(length for length, _ in segments)
    after = b * n_v - sum(planted(n_v, f) * (length - 1) for length, f in segments)
    target = math.ceil(wl.target_ratio * b * n_v)
    if after <= target:
        return after, after
    rate = target / after
    final = 0
    for length, f in segments:
        n_red = planted(n_v, f)
        final += length * math.ceil(rate * (n_v - n_red)) + math.ceil(rate * n_red)
    return after, final


def _save(path, arr: np.ndarray) -> None:
    """np.save, then fsync, so that writing back the inputs does not
    overlap the timed run."""
    with open(path, "wb") as fh:
        np.save(fh, arr)
        fh.flush()
        os.fsync(fh.fileno())


def _rng(wl: Workload, seed: int, video: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(wl.name.encode()), seed, video])


def generate_video(wl: Workload, seed: int, video: int, out_dir: Path,
                   smoke: bool = False) -> dict:
    """Write one video's input files and return its manifest entry."""
    rng = _rng(wl, seed, video)
    dim, qk_dim = (SMOKE_DIM, SMOKE_QK_DIM) if smoke else (DIM, QK_DIM)
    segments = [((2 if smoke else length), f) for length, f in wl.segments]
    segments = [segments[i] for i in rng.permutation(len(segments))]
    b = sum(length for length, _ in segments)

    tokens = rng.standard_normal((b, N_V, dim), dtype=np.float32)
    start = 0
    for length, f in segments:
        n_red = planted(N_V, f)
        if n_red:
            base = rng.standard_normal((n_red, dim), dtype=np.float32)
            rows = tokens[start:start + length, :n_red]
            rows *= np.float32(NOISE)
            rows += base
        start += length

    out_dir.mkdir(parents=True, exist_ok=True)
    entry = {"frames": b, "segments": segments, "tokens": str(out_dir / "tokens.npy")}
    _save(out_dir / "tokens.npy", tokens)
    del tokens
    if wl.importance == "qk":
        entry["qk"] = [str(out_dir / "q.npy"), str(out_dir / "k.npy")]
        for path in entry["qk"]:
            _save(path, rng.standard_normal((b, N_V, qk_dim), dtype=np.float32))
    elif wl.importance == "attn":
        logits = rng.standard_normal((b, N_V, N_V), dtype=np.float32)
        logits -= logits.max(axis=2, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=2, keepdims=True)
        entry["attn"] = str(out_dir / "attn.npy")
        _save(entry["attn"], logits)

    after, final = expected_counts(wl, segments)
    entry["after_temporal"], entry["final"] = after, final
    if wl.inner:
        entry["hidden"] = str(out_dir / "hidden.npy")
        entry["last_attn"] = str(out_dir / "last_attn.npy")
        _save(entry["hidden"], rng.standard_normal((final, dim), dtype=np.float32))
        _save(entry["last_attn"], rng.random(final))
    return entry


def generate_inputs(wl: Workload, seed: int, work: Path, smoke: bool = False) -> Path:
    """Generate every video of a run under ``work``; return the manifest path."""
    manifest = {
        "workload": wl.name,
        "seed": seed,
        "grid": list(GRID),
        "tau": TAU,
        "target_ratio": wl.target_ratio,
        "pooled_grid": list(wl.pooled_grid) if wl.pooled_grid else None,
        "videos": [generate_video(wl, seed, v, work / f"in{v}", smoke)
                   for v in range(1 if smoke else wl.videos)],
    }
    path = work / "manifest.json"
    path.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return path
