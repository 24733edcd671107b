"""CLI behavior: pipeline runs, exit codes, determinism, report aggregation."""

import json
import math

import numpy as np
import pytest

from tokmerge import (
    CompressionConfig,
    SynthSpec,
    apply_temporal_merge,
    build_importance,
    generate,
    load_compressed,
    optimal_segmentation,
    pairwise_redundancy,
    spatial_merge,
)
from tokmerge.cli import main


def write_corpus(tmp_path, name="corpus", frames=8, grid=(2, 3), dim=32,
                 segments=((4, 0.6), (4, 1.0)), noise=0.0, seed=5):
    spec = SynthSpec(frames=frames, grid=grid, dim=dim, segments=segments,
                     noise_sigma=noise, seed=seed)
    stream, _ = generate(spec)
    path = tmp_path / f"{name}.npy"
    np.save(path, stream.data)
    return spec, stream, path


def write_attention(tmp_path, stream, seed=9):
    rng = np.random.default_rng(seed)
    b, n_v = stream.frames, stream.tokens_per_frame
    attn = rng.random((b, n_v, n_v))
    attn /= attn.sum(axis=2, keepdims=True)
    path = tmp_path / "attn.npy"
    np.save(path, attn)
    return attn, path


def grid_flag(grid):
    return f"{grid[0]}x{grid[1]}"


class TestCompress:
    def test_budget_and_report(self, tmp_path, capsys):
        spec, stream, tokens = write_corpus(tmp_path)
        _, attn = write_attention(tmp_path, stream)
        out = tmp_path / "out"
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   "--attn", str(attn), "--out", str(out),
                   "--tau", "0.8", "--target-ratio", "0.25"])
        assert rc == 0
        cv, report = load_compressed(out)
        target = math.ceil(0.25 * stream.frames * stream.tokens_per_frame)
        assert target <= report.final_count <= target + stream.frames + 4
        assert report.overall_retained_ratio == report.final_count / report.original_count
        doc = json.loads((out / "compressed.json").read_text())
        assert set(doc["report"]) == {
            "original_count", "after_temporal_count", "final_count",
            "temporal_prune_ratio", "overall_retained_ratio", "segments", "flops"}
        assert set(doc["report"]["flops"]) == {"baseline", "prefill", "ratio"}

    def test_noop_configuration_identity(self, tmp_path):
        spec, stream, tokens = write_corpus(tmp_path, segments=((8, 0.5),))
        out = tmp_path / "out"
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   "--out", str(out), "--tau", "1.0", "--target-ratio", "1.0"])
        assert rc == 0
        cv, report = load_compressed(out)
        assert report.final_count == report.original_count
        expect = stream.data.reshape(-1, stream.dim)
        np.testing.assert_array_equal(cv.tokens, expect)

    def test_missing_token_file_exit_2(self, tmp_path, capsys):
        rc = main(["compress", "--tokens", str(tmp_path / "absent.npy"),
                   "--grid", "2x3", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "absent.npy" in capsys.readouterr().err

    def test_compression_without_attention_exit_2(self, tmp_path):
        spec, stream, tokens = write_corpus(tmp_path)
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   "--out", str(tmp_path / "o"), "--target-ratio", "0.2"])
        assert rc == 2

    def test_byte_identical_reruns(self, tmp_path):
        spec, stream, tokens = write_corpus(tmp_path)
        _, attn = write_attention(tmp_path, stream)
        outputs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                       "--attn", str(attn), "--out", str(out),
                       "--target-ratio", "0.3"])
            assert rc == 0
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

    def test_matches_scripted_composition(self, tmp_path):
        """cmd_compress output equals the sequential module composition."""
        spec, stream, tokens = write_corpus(tmp_path)
        attn, attn_path = write_attention(tmp_path, stream)
        out = tmp_path / "out"
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   "--attn", str(attn_path), "--out", str(out),
                   "--tau", "0.8", "--target-ratio", "0.25"])
        assert rc == 0
        cv_cli, _ = load_compressed(out)

        cfg = CompressionConfig(tau=0.8, target_ratio=0.25)
        mask = pairwise_redundancy(stream, cfg.tau)
        plan = optimal_segmentation(mask)
        tmr = apply_temporal_merge(stream, plan, mask, cfg.temporal_merge_mode)
        raw = np.stack([a.mean(axis=0) for a in attn])
        imp = build_importance(raw, stream.grid)
        cv_lib = spatial_merge(tmr, imp, cfg)
        np.testing.assert_array_equal(cv_cli.tokens, cv_lib.tokens)
        assert cv_cli.provenance == cv_lib.provenance

    def test_config_file_with_flag_override(self, tmp_path):
        spec, stream, tokens = write_corpus(tmp_path)
        _, attn = write_attention(tmp_path, stream)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "tau": 0.5, "target_ratio": 0.5, "temporal_merge_mode": "first",
            "inner_ratio_R": 25}))
        out = tmp_path / "out"
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   "--config", str(cfg_path), "--attn", str(attn),
                   "--out", str(out), "--target-ratio", "0.3"])
        assert rc == 0
        _, report = load_compressed(out)
        target = math.ceil(0.3 * 48)  # flag overrides the file's 0.5
        assert target <= report.final_count <= target + 12

    def test_config_file_out_of_range_exit_1(self, tmp_path):
        spec, stream, tokens = write_corpus(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tau": 2.0}))
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1

    def test_inner_dumps_processed(self, tmp_path):
        spec, stream, tokens = write_corpus(tmp_path)
        rng = np.random.default_rng(3)
        hidden = rng.standard_normal((24, 8)).astype(np.float32)
        last = rng.random(24)
        np.save(tmp_path / "hidden.npy", hidden)
        np.save(tmp_path / "last.npy", last)
        out = tmp_path / "out"
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   "--out", str(out),
                   "--hidden", str(tmp_path / "hidden.npy"),
                   "--last-attn", str(tmp_path / "last.npy")])
        assert rc == 0
        inner = np.load(out / "inner_tokens.npy")
        assert inner.shape == (24 - 12, 8)  # R=50 drops half
        meta = json.loads((out / "inner.json").read_text())
        assert len(meta["retained_indices"]) == 12

    def test_inner_dumps_with_inner_disabled_exit_1(self, tmp_path, capsys):
        spec, stream, tokens = write_corpus(tmp_path)
        rng = np.random.default_rng(3)
        np.save(tmp_path / "hidden.npy", rng.standard_normal((24, 8)))
        np.save(tmp_path / "last.npy", rng.random(24))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"inner_enabled": False}))
        out = tmp_path / "out"
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   "--config", str(cfg_path), "--out", str(out),
                   "--hidden", str(tmp_path / "hidden.npy"),
                   "--last-attn", str(tmp_path / "last.npy")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "--hidden/--last-attn" in err and "inner_enabled" in err
        assert not out.exists()


class TestSegment:
    def test_identical_frames_single_segment(self, tmp_path, capsys):
        spec, stream, tokens = write_corpus(tmp_path, segments=((8, 1.0),))
        rc = main(["segment", "--tokens", str(tokens), "--grid", "2x3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["boundaries"] == [1, 9]

    def test_planted_boundaries_recovered(self, tmp_path, capsys):
        spec, stream, tokens = write_corpus(
            tmp_path, frames=12, segments=((5, 0.5), (3, 1.0), (4, 0.5)))
        rc = main(["segment", "--tokens", str(tokens), "--grid", "2x3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["boundaries"] == list(spec.planted_boundaries())
        assert doc["total_gain"] == spec.planted_gain()

    def test_lower_tau_never_prunes_less(self, tmp_path, capsys):
        spec, stream, tokens = write_corpus(tmp_path, noise=0.35, dim=48)
        gains = {}
        for tau in ("0.65", "0.8"):
            rc = main(["segment", "--tokens", str(tokens), "--grid", "2x3",
                       "--tau", tau])
            assert rc == 0
            gains[tau] = json.loads(capsys.readouterr().out)["total_gain"]
        assert gains["0.65"] >= gains["0.8"]


class TestFlops:
    def test_ten_percent_with_inner(self, capsys):
        rc = main(["flops", "--profile", "llava-ov-7b", "--ratio", "0.10"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert round(doc["prefill_flops"] / 1e12, 1) == 2.8

    def test_full_ratio_inner_off(self, capsys):
        rc = main(["flops", "--profile", "llava-ov-7b", "--ratio", "1.0",
                   "--no-inner"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert round(doc["prefill_flops"] / 1e12, 1) == 40.8

    def test_unknown_profile_lists_known(self, capsys):
        rc = main(["flops", "--profile", "bogus", "--ratio", "0.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "llava-ov-7b" in err and "llava-ov-72b" in err


class TestSynthAndReport:
    def test_synth_writes_corpus(self, tmp_path):
        out = tmp_path / "synth"
        rc = main(["synth", "--out", str(out), "--frames", "6", "--grid", "2x2",
                   "--dim", "16", "--segments", "3:1.0,3:0.5", "--seed", "11"])
        assert rc == 0
        tokens = np.load(out / "tokens.npy")
        assert tokens.shape == (6, 4, 16)
        truth = np.load(out / "truth_mask.npy")
        assert truth.shape == (5, 4)
        spec_doc = json.loads((out / "spec.json").read_text())
        assert spec_doc["planted_boundaries"] == [1, 4, 7]

    def test_report_single_video(self, tmp_path, capsys):
        spec, stream, tokens = write_corpus(tmp_path)
        out = tmp_path / "video1"
        main(["compress", "--tokens", str(tokens), "--grid", "2x3",
              "--out", str(out)])
        agg = tmp_path / "agg"
        rc = main(["report", "--reports", str(tmp_path), "--out", str(agg)])
        assert rc == 0
        lines = (agg / "histogram.csv").read_text().strip().splitlines()
        assert lines[0] == "bin_low,bin_high,count"
        assert len(lines) == 21
        counts = [int(l.split(",")[2]) for l in lines[1:]]
        assert sum(counts) == 1
        summary = json.loads((agg / "summary.json").read_text())
        _, report = load_compressed(out)
        assert summary["mean_temporal_prune_ratio"] == pytest.approx(
            report.temporal_prune_ratio)

    def test_report_binning_matches_numpy(self, tmp_path):
        """Aggregate histogram equals direct binning of the collected ratios."""
        ratios = [0.03, 0.11, 0.43, 0.43, 0.97, 1.0]
        for i, r in enumerate(ratios):
            after = round(100 * (1 - r))
            final = min(10, after)
            doc = {
                "original_count": 100,
                "after_temporal_count": after,
                "final_count": final,
                "temporal_prune_ratio": 1 - after / 100,
                "overall_retained_ratio": final / 100,
                "segments": [],
                "flops": {"baseline": 2.0, "prefill": 1.0, "ratio": 0.5},
            }
            (tmp_path / f"v{i}.json").write_text(json.dumps(doc))
        agg = tmp_path / "agg"
        rc = main(["report", "--reports", str(tmp_path), "--out", str(agg)])
        assert rc == 0
        lines = (agg / "histogram.csv").read_text().strip().splitlines()[1:]
        counts = np.array([int(l.split(",")[2]) for l in lines])
        collected = [1 - round(100 * (1 - r)) / 100 for r in ratios]
        expect, _ = np.histogram(collected, bins=20, range=(0.0, 1.0))
        np.testing.assert_array_equal(counts, expect)

    def test_zero_redundancy_corpus_mean_zero(self, tmp_path, capsys):
        for i in range(3):
            _, _, tokens = write_corpus(tmp_path, name=f"c{i}",
                                        segments=((8, 0.0),), seed=40 + i)
            main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                  "--out", str(tmp_path / f"v{i}")])
        agg = tmp_path / "agg"
        rc = main(["report", "--reports", str(tmp_path), "--out", str(agg)])
        assert rc == 0
        summary = json.loads((agg / "summary.json").read_text())
        assert summary["mean_temporal_prune_ratio"] == 0.0

    def test_empty_directory_exit_2(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        rc = main(["report", "--reports", str(empty), "--out", str(tmp_path / "agg")])
        assert rc == 2


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_bad_grid_flag(self, tmp_path):
        rc = main(["segment", "--tokens", str(tmp_path / "x.npy"), "--grid", "six"])
        assert rc == 1

    def test_bad_tau_flag(self, tmp_path):
        spec, stream, tokens = write_corpus(tmp_path)
        rc = main(["segment", "--tokens", str(tokens), "--grid", "2x3",
                   "--tau", "1.4"])
        assert rc == 1
