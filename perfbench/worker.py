"""One benchmark process: set-up, timed or traced runs of ``tokmerge compress``.

Run by ``run.py`` in a fresh interpreter with BLAS pinned to one thread::

    python3 perfbench/worker.py --mode {setup,timed,trace} \
        --manifest MANIFEST --result RESULT.json [--seconds S]

Every mode first compresses video 0 once, untimed, and prints ``ready``;
the parent times interpreter start to that line as one set-up sample.

* ``setup`` stops there.
* ``timed`` then cycles through the videos through ``tokmerge.cli.main``
  until ``--seconds`` have passed, recording each call's wall time.
* ``trace`` alternates a plain CLI call with a traced call of the same
  video, which runs the public stage functions in the order of
  ``cmd_compress`` with a span around each; then one more traced call of
  video 0 under tracemalloc gives each span's peak (its timings are
  discarded, because tracemalloc slows Python-heavy stages several times).

Every output is checked the first time a video is compressed in the
process; later outputs of that video must be byte-identical to it.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import tokmerge as tm
from tokmerge.cli import main as tokmerge_main

PROFILE = "llava-ov-7b"  # the CLI's default profile


def cli_argv(run: dict, video: dict, out: Path) -> list[str]:
    argv = ["compress", "--tokens", video["tokens"],
            "--grid", "{}x{}".format(*run["grid"]),
            "--tau", repr(run["tau"]), "--target-ratio", repr(run["target_ratio"]),
            "--out", str(out)]
    if run["pooled_grid"]:
        argv += ["--pooled-grid", "{}x{}".format(*run["pooled_grid"])]
    if "attn" in video:
        argv += ["--attn", video["attn"]]
    elif "qk" in video:
        argv += ["--qk", *video["qk"]]
    if "hidden" in video:
        argv += ["--hidden", video["hidden"], "--last-attn", video["last_attn"]]
    return argv


def config(run: dict):
    raw = {"tau": run["tau"], "target_ratio": run["target_ratio"]}
    if run["pooled_grid"]:
        raw["pooled_grid"] = list(run["pooled_grid"])
    return tm.validate_config(raw)


def run_cli(run: dict, video: dict, out: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return tokmerge_main(cli_argv(run, video, out))


class Spans:
    """Per-name span totals for one video; with ``memory``, tracemalloc peaks."""

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.ms: dict[str, float] = {}
        self.peak_mb: dict[str, float] = {}
        self.called: set[str] = set()

    @contextlib.contextmanager
    def __call__(self, name: str, called: bool = True):
        if self.memory:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.ms[name] = self.ms.get(name, 0.0) + (time.perf_counter() - t0) * 1e3
            if self.memory:
                peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20
                self.peak_mb[name] = max(self.peak_mb.get(name, 0.0), peak)
            if called:
                self.called.add(name)


def traced_compress(run: dict, video: dict, out: Path, span: Spans) -> dict:
    """``cmd_compress`` through public tokmerge names, one span per stage.

    A stage the workload skips still gets its span around the skipped
    branch, marked not called. Returns the stage counts of this video.
    """
    grid = tuple(run["grid"])
    with span("core.load"):
        stream = tm.load_token_stream(video["tokens"], grid)
    cfg = config(run)

    with span("cli.load_dumps", called="attn" in video or "qk" in video):
        if "attn" in video:
            dumps = [np.load(video["attn"], allow_pickle=False)]
        elif "qk" in video:
            dumps = [np.load(p, allow_pickle=False) for p in video["qk"]]
        else:
            dumps = []
    with span("spatial.importance", called=bool(dumps)):
        imp = None
        if "attn" in video:
            imp = tm.importance_from_attention(dumps[0], stream.grid, cfg.pooled_grid)
        elif "qk" in video:
            imp = tm.importance_from_qk(dumps[0], dumps[1], stream.grid, cfg.pooled_grid)

    with span("temporal.mask"):
        mask = tm.pairwise_redundancy(stream, cfg.tau)
    with span("temporal.segment"):
        plan = tm.optimal_segmentation(mask)
    with span("temporal.merge"):
        tmr = tm.apply_temporal_merge(stream, plan, mask, cfg.temporal_merge_mode)
    with span("spatial.merge"):
        cv = tm.spatial_merge(tmr, imp, cfg)

    with span("cost.report"):
        profile = tm.get_profile(PROFILE)
        original = tmr.original_count
        cost = tm.pipeline_cost_report(profile, cfg, max(cv.count, 1), original)
        prune_ratio = 1.0 - tmr.survivor_count / original
        report = tm.CompressionReport(
            original_count=original,
            after_temporal_count=tmr.survivor_count,
            final_count=cv.count,
            temporal_prune_ratio=prune_ratio,
            overall_retained_ratio=cv.count / original,
            segment_boundaries=tuple(
                (s, e, g) for (s, e), g in zip(plan.segments(), plan.gains)),
            prefill_flops=cost.prefill_flops,
            baseline_flops=tm.prefill_flops(profile, [original] * profile.layers_T),
            per_video_histogram_bin=prune_ratio,
        )
    with span("core.save"):
        tm.save_compressed(cv, report, out)

    inner = "hidden" in video
    with span("cli.load_dumps", called=inner):
        if inner:
            hidden = np.load(video["hidden"], allow_pickle=False)
            last = np.load(video["last_attn"], allow_pickle=False)
    with span("innerllm.merge", called=inner):
        if inner:
            result = tm.inner_merge(tm.InnerMergeInput(hidden, last), cfg.inner_ratio_R)
    with span("cli.save_inner", called=inner):
        if inner:
            np.save(out / "inner_tokens.npy", result.updated)
            with open(out / "inner.json", "w", encoding="utf-8") as fh:
                json.dump({
                    "retained_indices": [int(i) for i in result.retained_indices],
                    "assignment": {str(k): v for k, v in sorted(result.assignment.items())},
                    "layer_K": cfg.inner_layer_K,
                    "ratio_R": cfg.inner_ratio_R,
                }, fh, indent=1)
                fh.write("\n")

    b, n_v = stream.frames, stream.tokens_per_frame
    n_inner = hidden.shape[0] if inner else 0
    candidates = int(n_inner * cfg.inner_ratio_R / 100)
    hp, wp = imp.pooled_grid if imp is not None else (0, 0)
    qk_dim = dumps[0].shape[2] if "qk" in video else 0
    return {
        # matmul, softmax (exp, sum, divide) and column means of every frame;
        # computed from shapes, not counted
        "spatial.importance.flops": (b * (2 * n_v * n_v * qk_dim + 3 * n_v * n_v)
                                     if qk_dim else 0) + (b * n_v * n_v if dumps else 0),
        "spatial.importance.bytes": sum(d.nbytes for d in dumps),
        "spatial.pool.bins": b * hp * wp,
        "temporal.mask.bytes": stream.data.nbytes,
        "temporal.segment.span_evals": b * (b + 1) // 2,
        "temporal.segments": plan.n_segments,
        "temporal.pruned": tmr.pruned_count,
        "spatial.tokens_in": tmr.survivor_count,
        "spatial.tokens_out": cv.count,
        "spatial.cluster_reps": sum(p.kind == "cluster_rep" for p in cv.provenance),
        "spatial.absorbed": sum(len(p.members) for p in cv.provenance),
        "innerllm.candidates": candidates,
        "innerllm.retained": n_inner - candidates,
        "innerllm.pairs": candidates * (n_inner - candidates),
        "core.load.bytes": os.path.getsize(video["tokens"]),
        "core.save.bytes": sum(os.path.getsize(out / f)
                               for f in ("tokens.npy", "compressed.json")),
    }


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def digest(out: Path) -> str:
    """sha256 over the names and bytes of every file in an output directory."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_outputs(run: dict, video: dict, out: Path) -> tuple[list[str], float]:
    """(problems, flops.ratio) of one compress call's outputs.

    The problem list is empty when the outputs are correct. Raises when an
    output file is missing or malformed; ``tm.load_compressed`` also rejects
    provenance out of (frame, slot) order or with a coordinate twice.
    """
    cv, report = tm.load_compressed(out)
    doc = json.loads((out / "compressed.json").read_text(encoding="utf-8"))["report"]
    problems = []
    b, n_v = video["frames"], run["grid"][0] * run["grid"][1]
    original = b * n_v
    after, final = report.after_temporal_count, report.final_count
    if report.original_count != original:
        problems.append(f"original_count {report.original_count} != {original}")
    gains = sum(g for _, _, g in report.segment_boundaries)
    if after != original - gains:
        problems.append(f"after_temporal_count {after} != {original} - {gains}")
    if cv.count != final:
        problems.append(f"{cv.count} tokens for final_count {final}")

    target = math.ceil(run["target_ratio"] * b * n_v)
    if after <= target:
        if final != after:
            problems.append(f"pass-through final_count {final} != {after}")
    else:
        # one ceiling per (frame, segment) group plus one per segment's clusters
        slack = b + len(report.segment_boundaries)
        if not target <= final <= target + slack:
            problems.append(f"final_count {final} outside [{target}, {target + slack}]")

    if "hidden" in video:
        rows = np.load(out / "inner_tokens.npy", allow_pickle=False).shape[0]
        want = final - int(final * config(run).inner_ratio_R / 100)
        if rows != want:
            problems.append(f"inner_tokens.npy has {rows} rows, expected {want}")

    profile = tm.get_profile(PROFILE)
    cost = tm.pipeline_cost_report(profile, config(run), max(final, 1), original)
    ratio = cost.prefill_flops / tm.prefill_flops(profile, [original] * profile.layers_T)
    if doc["flops"]["ratio"] != ratio:
        problems.append(f"flops.ratio {doc['flops']['ratio']!r} != recomputed {ratio!r}")
    return problems, doc["flops"]["ratio"]


class Videos:
    """Compresses videos and checks every output; counts attempts and failures."""

    def __init__(self, run: dict, work: Path):
        self.run = run
        self.work = work
        self.digests: dict[int, str] = {}
        self.flops_ratio: dict[int, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def compress(self, v: int, traced: Spans | None = None):
        """Compress video ``v`` into a fresh directory; return (seconds, counts or None)."""
        video = self.run["videos"][v]
        out = self.work / f"out{v}-{os.getpid()}"
        counts = None
        t0 = time.perf_counter()
        try:
            if traced is None:
                code = run_cli(self.run, video, out)
            else:
                counts = traced_compress(self.run, video, out, traced)
                code = 0
        except Exception as exc:  # a raise is a failed video, not a failed benchmark
            code = f"raised {exc!r}"
        seconds = time.perf_counter() - t0
        self.attempted += 1
        problems = self._check(v, video, out, code)
        if problems:
            self.failed += 1
            self.problems.extend(f"video {v}: {p}" for p in problems)
        shutil.rmtree(out, ignore_errors=True)
        return seconds, counts

    def _check(self, v: int, video: dict, out: Path, code) -> list[str]:
        if code != 0:
            return [f"exit {code}"]
        try:
            d = digest(out)
            if v in self.digests:
                return [] if d == self.digests[v] else ["output differs from its first run"]
            problems, self.flops_ratio[v] = check_outputs(self.run, video, out)
        except (ValueError, KeyError, TypeError, OSError) as exc:
            return [f"malformed output: {exc!r}"]
        if not problems:
            self.digests[v] = d
        return problems


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def _blas_threads() -> int | str:
    """Threads numpy's bundled OpenBLAS will use, asked of the library itself."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "tokmerge_backend": getattr(tm, "BACKEND", "absent"),
        "page_cache": "not dropped (that needs privileges the benchmark does "
                      "not take), so load times are warm-cache",
    }


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def timed(videos: Videos, seconds: float) -> dict:
    n = len(videos.run["videos"])
    call_ms, frames = [], 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < n or time.perf_counter() < deadline:
        v = (i + 1) % n  # video 0 was the warm-up
        dt, _ = videos.compress(v)
        call_ms.append(dt * 1e3)
        frames += videos.run["videos"][v]["frames"]
        i += 1
    return {"call_ms": call_ms, "frames": frames,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def traced(videos: Videos, seconds: float) -> dict:
    n = len(videos.run["videos"])
    plain_ms, traced_ms, span_ms, counts = [], [], [], []
    called: set[str] = set()
    deadline = time.perf_counter() + seconds
    i = 0
    while i < n or time.perf_counter() < deadline:
        v = (i + 1) % n
        spans = Spans()
        # alternate which goes first, so neither side always runs on warmer caches
        for traced_first in ((False, True) if i % 2 else (True, False)):
            if traced_first:
                dt, c = videos.compress(v, spans)
                traced_ms.append(dt * 1e3)
            else:
                dt, _ = videos.compress(v)
                plain_ms.append(dt * 1e3)
        span_ms.append(spans.ms)
        called |= spans.called
        counts.append(c)
        i += 1

    memory = Spans(memory=True)
    tracemalloc.start()
    try:
        videos.compress(0, memory)
    finally:
        tracemalloc.stop()
    return {
        "plain_ms": plain_ms, "traced_ms": traced_ms, "span_ms": span_ms,
        "counts": counts, "peak_mb": memory.peak_mb, "called": sorted(called),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    args = p.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not Path(tm.__file__).resolve().is_relative_to(src):
        print(f"worker: tokmerge imported from {tm.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    manifest = Path(args.manifest)
    run = json.loads(manifest.read_text(encoding="utf-8"))
    videos = Videos(run, manifest.parent)

    videos.compress(0)
    print("ready", flush=True)

    result = {}
    if args.mode == "timed":
        result = timed(videos, args.seconds)
    elif args.mode == "trace":
        result = traced(videos, args.seconds)
    if args.mode != "setup":
        result["env"] = environment()
    result.update(attempted=videos.attempted, failed=videos.failed,
                  problems=videos.problems,
                  digests=videos.digests, flops_ratio=videos.flops_ratio)
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
