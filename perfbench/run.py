"""End-to-end benchmark of ``tokmerge compress``, one video per unit of work.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload {clip-qk,long-attn,static-pass} \
        --seed N --seconds S --trace {0,1}

Inputs are generated from ``--seed`` in this process; fresh interpreters
(``worker.py``) with BLAS pinned to one thread import ``tokmerge`` from
``src/`` of the checkout and compress them. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-stage ones (see README.md). The
last line of standard output is the JSON result. Every process and input
file the run makes is gone when it exits.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# pin BLAS before numpy loads, here and in every child
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

from workloads import SPANS, WORKLOADS, generate_inputs  # noqa: E402

SETUP_SAMPLES = 3
TIME_LIMIT_S = 170  # the whole run, inputs and every process included

END_TO_END = {  # name: unit
    "frames_per_s": "frames/s",
    "video_ms.p50": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "flops_ratio": "1",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_ENV)
    env.pop("TOKMERGE_VERBOSE", None)
    return env


def run_worker(mode: str, manifest: Path, seconds: int, deadline: float) -> tuple[float, dict]:
    """Run one worker process; return (its set-up seconds, its result)."""
    result_path = manifest.parent / f"result-{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--mode", mode,
           "--manifest", str(manifest), "--result", str(result_path),
           "--seconds", str(seconds)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
                            text=True)
    try:
        if not select.select([proc.stdout], [], [], max(deadline - time.monotonic(), 1))[0]:
            raise subprocess.TimeoutExpired(cmd, deadline)
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        proc.communicate(timeout=max(deadline - time.monotonic(), 1))
        code = proc.returncode
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker ran past the time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or ready.strip() != "ready":
        raise BenchError(f"{mode} worker exited with code {code}")
    return setup_s, json.loads(result_path.read_text(encoding="utf-8"))


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True, check=False)
    return out.stdout.strip() or "unknown"


def check_consistency(results: list[dict], n_videos: int) -> tuple[list[str], str]:
    """Videos whose outputs differ between processes, and the run's output digest."""
    problems, per_video = [], []
    for v in range(n_videos):
        seen = {r["digests"][str(v)] for r in results if str(v) in r["digests"]}
        if len(seen) > 1:
            problems.append(f"video {v}: outputs differ between processes")
        per_video.append(min(seen) if seen else "")
    return problems, hashlib.sha256("".join(per_video).encode()).hexdigest()


def end_to_end(setups: list[float], timed: dict) -> dict:
    return {
        "frames_per_s": timed["frames"] / (sum(timed["call_ms"]) / 1e3),
        "video_ms.p50": statistics.median(timed["call_ms"]),
        "peak_rss_mb": timed["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "flops_ratio": statistics.fmean(timed["flops_ratio"].values()),
    }


def per_layer(trace: dict) -> tuple[dict, dict]:
    """(metric values, units) from a trace worker's result."""
    values, units = {}, {}
    for name in SPANS:
        values[f"{name}.ms"] = statistics.median(s.get(name, 0.0) for s in trace["span_ms"])
        values[f"{name}.peak_mb"] = trace["peak_mb"].get(name, 0.0)
        units[f"{name}.ms"], units[f"{name}.peak_mb"] = "ms", "MB"
    for name in trace["counts"][0]:
        values[name] = statistics.median(c[name] for c in trace["counts"])
        units[name] = ("flop" if name.endswith(".flops") else
                       "B" if name.endswith(".bytes") else "count")
    plain = statistics.median(trace["plain_ms"])
    values["cli.other.ms"] = plain - sum(values[f"{n}.ms"] for n in SPANS)
    values["trace.overhead_ms"] = statistics.median(trace["traced_ms"]) - plain
    units["cli.other.ms"] = units["trace.overhead_ms"] = "ms"
    return values, units


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: a few tiny videos, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "tokmerge" / "__init__.py").is_file():
        print(f"run.py: no tokmerge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    wl = WORKLOADS[args.workload]
    work = HERE / ".work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        manifest = generate_inputs(wl, args.seed, work, smoke=args.size == "smoke")
        n_videos = len(json.loads(manifest.read_text(encoding="utf-8"))["videos"])
        if args.trace:
            _, trace = run_worker("trace", manifest, args.seconds, deadline)
            results = [trace]
        else:
            samples = [run_worker("setup", manifest, 0, deadline)
                       for _ in range(SETUP_SAMPLES - 1)]
            samples.append(run_worker("timed", manifest, args.seconds, deadline))
            results = [r for _, r in samples]
            trace = None
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    mismatches, run_digest = check_consistency(results, n_videos)
    problems = [p for r in results for p in r["problems"]] + mismatches
    attempted = sum(r["attempted"] for r in results)
    failed = min(sum(r["failed"] for r in results) + len(mismatches), attempted)
    if trace is None:
        metrics = end_to_end([s for s, _ in samples], results[-1])
        units = END_TO_END
    else:
        metrics, units = per_layer(trace)

    env = dict(results[-1]["env"], blas_env=BLAS_ENV, git_commit=git_commit())
    print(f"workload {wl.name} seed {args.seed} size {args.size} trace {args.trace}")
    print("env " + json.dumps(env))
    for problem in problems:
        print(f"FAILED {problem}")
    print(f"output digest {run_digest}")
    if trace is not None:
        absent = [n for n in SPANS if n not in trace["called"]]
        print("stages not called on this workload (their .ms times the skipped "
              f"branch): {', '.join(absent) or 'none'}")
        print(f"accounting: spans + cli.other.ms = untraced video_ms.p50 "
              f"{statistics.median(trace['plain_ms']):.3f} ms over "
              f"{len(trace['plain_ms'])} videos")
    else:
        print(f"timed videos (ms): {', '.join(f'{t:.1f}' for t in results[-1]['call_ms'])}")
        print(f"setup samples (s): {', '.join(f'{s:.3f}' for s, _ in samples)}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6f} {units[name]}")
    print(f"{'failed_frac':32s} {failed / attempted:16.6f} 1  ({failed}/{attempted})")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
