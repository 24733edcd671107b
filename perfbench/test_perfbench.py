"""The benchmark's own tests: ``python3 -m pytest perfbench`` from the repo root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import worker  # noqa: E402
from workloads import WORKLOADS, generate_inputs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_has_no_failures(workload, trace):
    out = run_bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", str(trace), "--size", "smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    out = run_bench("--workload", "clip-qk", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert "metrics" not in out.stdout


def test_same_seed_regenerates_identical_inputs(tmp_path):
    wl = WORKLOADS["long-attn"]
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d, seed in zip(dirs, (5, 5, 6)):
        generate_inputs(wl, seed, d, smoke=True)

    def files(d):
        return {p.relative_to(d): p.read_bytes() for p in sorted(d.rglob("*.npy"))}

    assert files(dirs[0]) == files(dirs[1])
    other = files(dirs[2])
    assert all(other[name] != data for name, data in files(dirs[0]).items())


def _truncate_json(out):
    path = out / "compressed.json"
    path.write_bytes(path.read_bytes()[:-100])


def _drop_inner_row(out):
    path = out / "inner_tokens.npy"
    np.save(path, np.load(path)[:-1])


@pytest.mark.parametrize("corrupt", [_truncate_json, _drop_inner_row])
def test_corrupted_output_counts_as_failure(tmp_path, monkeypatch, corrupt):
    run = json.loads(generate_inputs(WORKLOADS["clip-qk"], 1, tmp_path, smoke=True)
                     .read_text(encoding="utf-8"))
    videos = worker.Videos(run, tmp_path)
    videos.compress(0)
    assert (videos.attempted, videos.failed) == (1, 0)

    real = worker.run_cli

    def corrupted_cli(run, video, out):
        code = real(run, video, out)
        corrupt(out)
        return code

    monkeypatch.setattr(worker, "run_cli", corrupted_cli)
    videos.compress(0)
    assert (videos.attempted, videos.failed) == (2, 1)

    fresh = worker.Videos(run, tmp_path)
    fresh.compress(0)
    assert (fresh.attempted, fresh.failed) == (1, 1)
    assert fresh.digests == {}
