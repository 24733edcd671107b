"""Command-line front end: compress, segment, flops, synth, report.

All subcommands read and write files only; the single environment toggle is
TOKMERGE_VERBOSE=1, which prints stage timings to stderr. Exit codes:
0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from .core import (
    CompressionConfig,
    ConfigError,
    DataError,
    _load_json,
    _load_npy,
    _out_dir,
    load_token_stream,
    replace_file,
    report_document,
    report_from_dict,
    save_compressed,
    save_inner,
    validate_config,
)
from .cost import check_inner_layer, get_profile, pipeline_cost_report, retained_for_ratio
from .innerllm import InnerMergeInput, check_hidden, check_last_attn, inner_merge
from .pipeline import DEFAULT_PROFILE, compress, segment
from .spatial import ImportanceMap, _pooled_grid, importance_from_attention, importance_from_qk
from .synth import SynthSpec, generate

USAGE_ERROR = 1
DATA_ERROR = 2


# ---------------------------------------------------------------------------
# Argument handling
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _parse_grid(text: str) -> tuple[int, int]:
    try:
        h, w = map(int, text.lower().split("x"))
    except ValueError:
        raise ConfigError(f"grid must look like HxW, got {text!r}") from None
    if h < 1 or w < 1:
        raise ConfigError(f"grid sides must be positive, got {text!r}")
    return h, w


def _parse_segments(text: str) -> tuple[tuple[int, float], ...]:
    try:
        parts = [p.split(":") for p in text.split(",")]
        return tuple((int(l), float(f)) for l, f in parts)
    except ValueError:
        raise ConfigError(
            f"segments must look like LEN:FRAC[,LEN:FRAC...], got {text!r}") from None


def _config_from_args(args) -> CompressionConfig:
    """The ``--config`` document (where the subcommand takes one) with every
    given flag whose dest is a config field laid over it."""
    raw = _load_json(args.config, "config") if getattr(args, "config", None) else {}
    for f in fields(CompressionConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            raw[f.name] = list(_parse_grid(value)) if f.name == "pooled_grid" else value
    return validate_config(raw)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _dump_check(shape: tuple, grid: tuple[int, int]):
    """_load_npy check for an importance dump's ``shape`` (None matches any
    positive length); the importance functions reject non-finite values."""
    def check(arr):
        if any(m < 1 if n is None else m != n for n, m in zip(shape, arr.shape)):
            expect = ", ".join("d >= 1" if n is None else str(n) for n in shape)
            raise DataError(f"shape {arr.shape}, expected ({expect}) for "
                            f"{shape[0]} frames on grid {grid[0]}x{grid[1]}")
        return arr
    return check


def _importance(args, stream, pooled_grid) -> ImportanceMap | None:
    """The importance map from ``--attn`` or ``--qk``, each dump checked
    against the stream; no dump is referenced once it returns."""
    b, n_v = stream.frames, stream.tokens_per_frame
    if args.attn:
        attn = _load_npy(args.attn, 3, "attention", _dump_check((b, n_v, n_v), stream.grid))
        return importance_from_attention(attn, stream.grid, pooled_grid, name=args.attn)
    if args.qk:
        q = _load_npy(args.qk[0], 3, "query", _dump_check((b, n_v, None), stream.grid))
        k = _load_npy(args.qk[1], 3, "key", _dump_check(q.shape, stream.grid))
        return importance_from_qk(q, k, stream.grid, pooled_grid, names=args.qk)
    return None


def cmd_compress(args) -> int:
    stream = load_token_stream(args.tokens, _parse_grid(args.grid))
    cfg = _config_from_args(args)
    check_inner_layer(get_profile(args.profile), cfg)
    try:
        _pooled_grid(stream.grid, cfg.pooled_grid)
    except ConfigError as exc:
        raise ConfigError(f"{exc} of {args.tokens}") from None
    inner = bool(args.hidden or args.last_attn)
    if inner and not (args.hidden and args.last_attn):
        raise ConfigError("--hidden and --last-attn must be given together")
    cv, report = compress(stream, cfg, _importance(args, stream, cfg.pooled_grid), args.profile)
    del stream  # the outer phase ends here: the stream and its mapped file are released
    if inner:
        # one row per compressed token, each dump checked before any output is written
        hidden = _load_npy(args.hidden, 2, "hidden-state", check_hidden)
        last = _load_npy(args.last_attn, 1, "last-attention", check_last_attn)
        for path, rows in ((args.hidden, hidden.shape[0]), (args.last_attn, last.shape[0])):
            if rows != report.final_count:
                raise DataError(f"{path}: {rows} rows, but the compressed video has "
                                f"final_count {report.final_count} tokens")
        inner_input = InnerMergeInput(hidden, last)
    out = Path(args.out)
    save_compressed(cv, report, out)
    del cv  # the inner merge runs with only its own dumps resident
    if inner:
        save_inner(inner_merge(inner_input, cfg.inner_ratio_R), cfg, out)
    print(f"{report.final_count}/{report.original_count} tokens retained "
          f"({report.overall_retained_ratio:.4f}); wrote {out}")
    return 0


def cmd_segment(args) -> int:
    stream = load_token_stream(args.tokens, _parse_grid(args.grid))
    tau = _config_from_args(args).tau
    _, plan = segment(stream, tau)
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
    cfg = _config_from_args(args)
    if args.frames is not None and args.frames < 1:
        raise ConfigError(f"--frames must be >= 1, got {args.frames}")
    retained, full = (retained_for_ratio(profile, r, args.frames) for r in (args.ratio, 1.0))
    report = pipeline_cost_report(profile, cfg, retained, full)
    json.dump({"profile": profile.name, "retained_tokens": retained, **asdict(report)},
              sys.stdout, indent=1)
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
    out = _out_dir(args.out)
    replace_file(out / "tokens.npy", stream.data)
    replace_file(out / "truth_mask.npy", truth)
    replace_file(out / "spec.json", json.dumps({
        **asdict(spec), "planted_boundaries": spec.planted_boundaries(),
        "planted_gain": spec.planted_gain()}, indent=1) + "\n")
    print(f"wrote {out} (B={spec.frames}, N_v={spec.tokens_per_frame}, d={spec.dim})")
    return 0


HIST_BINS = 20


def cmd_report(args) -> int:
    root = Path(args.reports)
    if not root.is_dir():
        raise DataError(f"report directory not found: {root}")
    ratios = []
    for path in sorted(root.rglob("*.json")):
        doc = report_document(_load_json(path, "report"))
        if doc is None:
            continue
        try:
            ratios.append(report_from_dict(doc).temporal_prune_ratio)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
    if not ratios:
        raise DataError(f"no report documents found under {root}")

    counts, edges = np.histogram(ratios, bins=HIST_BINS, range=(0.0, 1.0))
    out = _out_dir(args.out)
    # the csv module's default dialect: comma-separated, CRLF line ends
    replace_file(out / "histogram.csv", "bin_low,bin_high,count\r\n" + "".join(
        f"{lo:.2f},{hi:.2f},{c}\r\n" for lo, hi, c in zip(edges[:-1], edges[1:], counts)))
    summary = {"videos": len(ratios), "mean_temporal_prune_ratio": float(np.mean(ratios))}
    replace_file(out / "summary.json", json.dumps(summary, indent=1) + "\n")
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
    p.add_argument("--inner-layer", dest="inner_layer_K", metavar="INNER_LAYER", type=int)
    p.add_argument("--inner-ratio", dest="inner_ratio_R", metavar="INNER_RATIO", type=float)
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
