"""Command-line front end: compress, segment, flops, synth, report.

All subcommands read and write files only; the single environment toggle is
TOKMERGE_VERBOSE=1, which prints stage timings to stderr. Exit codes:
0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import (
    CompressedVideo,
    CompressionConfig,
    CompressionReport,
    ConfigError,
    DataError,
    load_token_stream,
    report_from_dict,
    save_compressed,
    validate_config,
)
from .cost import (
    CostReport,
    baseline_prefill,
    get_profile,
    pipeline_cost_report,
    retained_for_ratio,
)
from .innerllm import InnerMergeInput, inner_merge
from .spatial import ImportanceMap, importance_from_attention, importance_from_qk, spatial_merge
from .synth import SynthSpec, generate
from .temporal import apply_temporal_merge, optimal_segmentation, pairwise_redundancy

USAGE_ERROR = 1
DATA_ERROR = 2

DEFAULT_PROFILE = "llava-ov-7b"


def _verbose() -> bool:
    return os.environ.get("TOKMERGE_VERBOSE", "") not in ("", "0")


def _log(msg: str) -> None:
    if _verbose():
        print(msg, file=sys.stderr)


@dataclass(frozen=True)
class PipelineRun:
    """One compression run: config, inputs, stage timings (ms), outputs."""

    config: CompressionConfig
    input_paths: dict[str, str]
    stage_ms: dict[str, float]
    compressed: CompressedVideo
    report: CompressionReport
    cost: CostReport


def run_pipeline(
    stream,
    cfg: CompressionConfig,
    imp: ImportanceMap | None,
    profile_name: str = DEFAULT_PROFILE,
    input_paths: dict[str, str] | None = None,
) -> PipelineRun:
    """Temporal -> spatial composition with report assembly."""
    profile = get_profile(profile_name)
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    mask = pairwise_redundancy(stream, cfg.tau)
    plan = optimal_segmentation(mask)
    tmr = apply_temporal_merge(stream, plan, mask, cfg.temporal_merge_mode)
    timings["temporal"] = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    cv = spatial_merge(tmr, imp, cfg)
    timings["spatial"] = (time.perf_counter() - t0) * 1e3

    original = tmr.original_count
    baseline_tokens = original
    cost = pipeline_cost_report(profile, cfg, max(cv.count, 1), baseline_tokens)
    prune_ratio = 1.0 - tmr.survivor_count / original
    report = CompressionReport(
        original_count=original,
        after_temporal_count=tmr.survivor_count,
        final_count=cv.count,
        temporal_prune_ratio=prune_ratio,
        overall_retained_ratio=cv.count / original,
        segment_boundaries=tuple(
            (s, e, g) for (s, e), g in zip(plan.segments(), plan.gains)),
        prefill_flops=cost.prefill_flops,
        baseline_flops=baseline_prefill(profile, baseline_tokens),
        per_video_histogram_bin=prune_ratio,
    )
    return PipelineRun(config=cfg, input_paths=dict(input_paths or {}),
                       stage_ms=timings, compressed=cv, report=report, cost=cost)


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise ConfigError(f"grid must look like HxW, got {text!r}") from None


def _parse_segments(text: str) -> tuple[tuple[int, float], ...]:
    try:
        parts = [p.split(":") for p in text.split(",")]
        return tuple((int(l), float(f)) for l, f in parts)
    except ValueError:
        raise ConfigError(
            f"segments must look like LEN:FRAC[,LEN:FRAC...], got {text!r}") from None


def _load_json(path: Path) -> dict:
    if not path.exists():
        raise DataError(f"file not found: {path}")
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _load_array(path: Path, rank: int, what: str) -> np.ndarray:
    if not path.exists():
        raise DataError(f"{what} file not found: {path}")
    try:
        arr = np.load(path, allow_pickle=False)
    except ValueError as exc:
        raise DataError(f"malformed array file {path}: {exc}") from exc
    if arr.ndim != rank:
        raise DataError(f"{path}: rank {arr.ndim}, expected {rank}")
    return arr


def _config_from_args(args) -> CompressionConfig:
    raw = _load_json(Path(args.config)) if args.config else {}
    if args.tau is not None:
        raw["tau"] = args.tau
    if args.target_ratio is not None:
        raw["target_ratio"] = args.target_ratio
    if getattr(args, "pooled_grid", None):
        raw["pooled_grid"] = list(_parse_grid(args.pooled_grid))
    return validate_config(raw)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_compress(args) -> int:
    stream = load_token_stream(args.tokens, _parse_grid(args.grid))
    cfg = _config_from_args(args)
    inner = bool(args.hidden or args.last_attn)
    if inner and not (args.hidden and args.last_attn):
        raise ConfigError("--hidden and --last-attn must be given together")
    if inner and not cfg.inner_enabled:
        raise ConfigError("--hidden/--last-attn ask for the inner merge, "
                          "but the config sets inner_enabled to false")

    imp = None
    if args.attn:
        attn = _load_array(Path(args.attn), 3, "attention")
        imp = importance_from_attention(attn, stream.grid, cfg.pooled_grid)
    elif args.qk:
        q = _load_array(Path(args.qk[0]), 3, "query")
        k = _load_array(Path(args.qk[1]), 3, "key")
        imp = importance_from_qk(q, k, stream.grid, cfg.pooled_grid)

    run = run_pipeline(stream, cfg, imp, args.profile,
                       input_paths={"tokens": str(args.tokens)})
    out = Path(args.out)
    save_compressed(run.compressed, run.report, out)

    if inner:
        hidden = _load_array(Path(args.hidden), 2, "hidden-state")
        last = _load_array(Path(args.last_attn), 1, "last-attention")
        result = inner_merge(InnerMergeInput(hidden, last), cfg.inner_ratio_R)
        np.save(out / "inner_tokens.npy", result.updated)
        with open(out / "inner.json", "w", encoding="utf-8") as fh:
            json.dump({
                "retained_indices": [int(i) for i in result.retained_indices],
                "assignment": {str(k): v for k, v in sorted(result.assignment.items())},
                "layer_K": cfg.inner_layer_K,
                "ratio_R": cfg.inner_ratio_R,
            }, fh, indent=1)
            fh.write("\n")

    for stage, ms in run.stage_ms.items():
        _log(f"{stage}: {ms:.2f} ms")
    print(f"{run.report.final_count}/{run.report.original_count} tokens retained "
          f"({run.report.overall_retained_ratio:.4f}); wrote {out}")
    return 0


def cmd_segment(args) -> int:
    stream = load_token_stream(args.tokens, _parse_grid(args.grid))
    tau = args.tau if args.tau is not None else 0.8
    if not 0.0 <= tau <= 1.0:
        raise ConfigError(f"tau must be in [0, 1], got {tau}")
    mask = pairwise_redundancy(stream, tau)
    plan = optimal_segmentation(mask)
    doc = {
        "tau": tau,
        "boundaries": list(plan.boundaries),
        "segments": [{"start": s, "end": e, "gain": g}
                     for (s, e), g in zip(plan.segments(), plan.gains)],
        "total_gain": plan.total_gain,
    }
    json.dump(doc, sys.stdout, indent=1)
    print()
    return 0


def cmd_flops(args) -> int:
    profile = get_profile(args.profile)
    cfg = validate_config({
        "inner_enabled": not args.no_inner,
        "inner_layer_K": args.inner_layer,
        "inner_ratio_R": args.inner_ratio,
    })
    retained = retained_for_ratio(profile, args.ratio, args.frames)
    report = pipeline_cost_report(profile, cfg, retained)
    doc = {"profile": profile.name, "retained_tokens": retained}
    doc.update(report.to_dict())
    json.dump(doc, sys.stdout, indent=1)
    print()
    return 0


def cmd_synth(args) -> int:
    spec = SynthSpec(
        frames=args.frames,
        grid=_parse_grid(args.grid),
        dim=args.dim,
        segments=_parse_segments(args.segments),
        noise_sigma=args.noise,
        seed=args.seed,
    )
    stream, truth = generate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    np.save(out / "tokens.npy", stream.data)
    np.save(out / "truth_mask.npy", truth.to_bool())
    with open(out / "spec.json", "w", encoding="utf-8") as fh:
        json.dump({
            "frames": spec.frames,
            "grid": list(spec.grid),
            "dim": spec.dim,
            "segments": [list(s) for s in spec.segments],
            "noise_sigma": spec.noise_sigma,
            "seed": spec.seed,
            "planted_boundaries": list(spec.planted_boundaries()),
            "planted_gain": spec.planted_gain(),
        }, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out} (B={spec.frames}, N_v={spec.tokens_per_frame}, d={spec.dim})")
    return 0


HIST_BINS = 20


def cmd_report(args) -> int:
    root = Path(args.reports)
    if not root.is_dir():
        raise DataError(f"report directory not found: {root}")
    ratios = []
    for path in sorted(root.rglob("*.json")):
        doc = _load_json(path)
        if "report" in doc:
            doc = doc["report"]
        if "temporal_prune_ratio" not in doc:
            continue
        ratios.append(report_from_dict(doc).per_video_histogram_bin)
    if not ratios:
        raise DataError(f"no report documents found under {root}")

    counts, edges = np.histogram(ratios, bins=HIST_BINS, range=(0.0, 1.0))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "histogram.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_low", "bin_high", "count"])
        for lo, hi, c in zip(edges[:-1], edges[1:], counts):
            writer.writerow([f"{lo:.2f}", f"{hi:.2f}", int(c)])
    summary = {"videos": len(ratios), "mean_temporal_prune_ratio": float(np.mean(ratios))}
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    print(f"{summary['videos']} videos, mean temporal prune ratio "
          f"{summary['mean_temporal_prune_ratio']:.4f}; wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="tokmerge",
                     description="Video token-stream compression toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="run the full compression pipeline")
    p.add_argument("--tokens", required=True, help="token file (B, N_v, d)")
    p.add_argument("--grid", required=True, help="token grid HxW, H*W = N_v")
    p.add_argument("--config", help="JSON config document")
    attn_src = p.add_mutually_exclusive_group()
    attn_src.add_argument("--attn", help="attention dump (B, N_v, N_v)")
    attn_src.add_argument("--qk", nargs=2, metavar=("QPATH", "KPATH"),
                          help="query/key dumps (B, N_v, d)")
    p.add_argument("--hidden", help="layer-K hidden states (N, d)")
    p.add_argument("--last-attn", dest="last_attn",
                   help="last prompt token attention row (N,)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--tau", type=float, help="redundancy threshold override")
    p.add_argument("--target-ratio", dest="target_ratio", type=float,
                   help="retained-ratio override")
    p.add_argument("--pooled-grid", dest="pooled_grid",
                   help="pooled importance grid HxW")
    p.add_argument("--profile", default=DEFAULT_PROFILE,
                   help="model profile for the FLOPs section")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("segment", help="temporal mask + optimal segmentation only")
    p.add_argument("--tokens", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--tau", type=float)
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("flops", help="evaluate the FLOPs cost model")
    p.add_argument("--profile", required=True)
    p.add_argument("--ratio", type=float, required=True,
                   help="retained token ratio in (0, 1]")
    p.add_argument("--frames", type=int, help="frame count override")
    p.add_argument("--inner-layer", dest="inner_layer", type=int, default=18)
    p.add_argument("--inner-ratio", dest="inner_ratio", type=float, default=50.0)
    p.add_argument("--no-inner", dest="no_inner", action="store_true")
    p.set_defaults(func=cmd_flops)

    p = sub.add_parser("synth", help="generate a synthetic corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--segments", required=True,
                   help="planted segments LEN:FRAC[,LEN:FRAC...]")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="aggregate per-video reports")
    p.add_argument("--reports", required=True, help="directory of report JSONs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"tokmerge: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (DataError, OSError) as exc:
        print(f"tokmerge: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
