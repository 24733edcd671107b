"""CLI behavior: pipeline runs, exit codes, determinism, report aggregation."""

import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import tokmerge
from tokmerge import (
    CompressionConfig,
    ImportanceMap,
    SynthSpec,
    apply_temporal_merge,
    compress,
    generate,
    get_profile,
    importance_from_attention,
    load_compressed,
    optimal_segmentation,
    pairwise_redundancy,
    pipeline_cost_report,
    spatial_merge,
    validate_config,
)
from tokmerge import cli, innerllm
from tokmerge.cli import main
from support import BAD_REPORT_COUNTS, bad_report_doc


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

    @pytest.mark.parametrize("value, dtype, text", [
        (np.nan, np.float32, "non-finite value at flat offset 35"),
        (-1e39, np.float64, "value out of float32 range at flat offset 35"),
    ])
    def test_bad_token_value_exit_2_names_file(self, tmp_path, capsys,
                                                value, dtype, text):
        spec, stream, tokens = write_corpus(tmp_path)
        arr = stream.data.astype(dtype)
        arr.flat[35] = value
        np.save(tokens, arr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails here
            rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                       "--out", str(tmp_path / "o"), "--tau", "1.0"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{tokens}: {text}" in err
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "o").exists()

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
        imp = ImportanceMap(raw, stream.grid)  # pooled to the grid itself
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

    @pytest.mark.parametrize("pooled", [7, True])
    def test_config_file_scalar_pooled_grid_exit_1(self, tmp_path, capsys, pooled):
        spec, stream, tokens = write_corpus(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"pooled_grid": pooled}))
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert (f"tokmerge: error: pooled_grid must be two positive integers "
                f"[rows, cols], got {pooled!r}\n") == err
        assert not (tmp_path / "o").exists()

    def test_config_inner_layer_beyond_profile_exit_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(tokmerge.pipeline, "pairwise_redundancy",
                            lambda *args: pytest.fail("the redundancy mask was computed"))
        spec, stream, tokens = write_corpus(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"inner_layer_K": 40}))
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 1
        fault = "inner_layer_K 40 must be below the 28 layers of profile llava-ov-7b"
        assert capsys.readouterr().err == f"tokmerge: error: {fault}\n"
        assert not (tmp_path / "o").exists()
        with pytest.raises(tokmerge.ConfigError, match=f"^{fault}$"):
            compress(stream, validate_config({"inner_layer_K": 40}))

    @pytest.mark.parametrize("inner", [True, False])
    def test_flops_ratio_is_the_cost_report_ratio(self, tmp_path, inner):
        spec, stream, tokens = write_corpus(tmp_path)
        _, attn = write_attention(tmp_path, stream)
        raw = {"target_ratio": 0.3, "inner_enabled": inner}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3", "--attn", str(attn),
                   "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        doc = json.loads((out / "compressed.json").read_text())["report"]
        cost = pipeline_cost_report(get_profile("llava-ov-7b"), validate_config(raw),
                                    doc["final_count"], doc["original_count"])
        assert doc["flops"] == {"baseline": cost.baseline_flops,
                                "prefill": cost.prefill_flops, "ratio": cost.ratio}

    @pytest.mark.parametrize("content, message", [
        (None, "config file not found: {path}"),
        ("{", "malformed JSON in {path}: Expecting property name enclosed in double "
              "quotes: line 1 column 2 (char 1)"),
        ("[0.5]", "{path}: expected a JSON object, got list"),
        ("[" * 100_000 + "]" * 100_000, "malformed JSON in {path}: maximum recursion depth "
                                        "exceeded while decoding a JSON array from a unicode string"),
        (b"{\xff}", "malformed JSON in {path}: 'utf-8' codec can't decode byte 0xff in "
                    "position 1: invalid start byte"),
    ], ids=["missing", "malformed", "list", "deep", "not-utf8"])
    def test_config_file_unreadable_exit_2(self, tmp_path, capsys, content, message):
        spec, stream, tokens = write_corpus(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        if content is not None:
            cfg_path.write_bytes(content if isinstance(content, bytes) else content.encode())
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert capsys.readouterr().err == f"tokmerge: error: {message.format(path=cfg_path)}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("dump", [None, "--attn", "--qk"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_pooled_grid_beyond_token_grid_exit_1(self, tmp_path, capsys, source, dump):
        """Checked as a setting before any dump is read: the dumps here are
        not array files at all."""
        spec, stream, tokens = write_corpus(tmp_path)
        for name in ("attn.npy", "q.npy", "k.npy"):
            (tmp_path / name).write_bytes(b"not an array")
        args = {None: [], "--attn": ["--attn", str(tmp_path / "attn.npy")],
                "--qk": ["--qk", str(tmp_path / "q.npy"), str(tmp_path / "k.npy")]}[dump]
        if source == "flag":
            args += ["--pooled-grid", "9x9"]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"pooled_grid": [9, 9]}))
            args += ["--config", str(tmp_path / "cfg.json")]
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   "--out", str(tmp_path / "o"), *args])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"tokmerge: error: pooled_grid 9x9 must fit within the token grid 2x3 of {tokens}\n")
        assert not (tmp_path / "o").exists()

    # final_count of write_corpus() at the default target ratio 1.0: the
    # inner-merge dumps hold one row per compressed token
    FINAL_COUNT = 18

    def test_inner_dumps_processed(self, tmp_path):
        spec, stream, tokens = write_corpus(tmp_path)
        n = self.FINAL_COUNT
        rng = np.random.default_rng(3)
        hidden = rng.standard_normal((n, 8)).astype(np.float32)
        last = rng.random(n)
        np.save(tmp_path / "hidden.npy", hidden)
        np.save(tmp_path / "last.npy", last)
        out = tmp_path / "out"
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   "--out", str(out),
                   "--hidden", str(tmp_path / "hidden.npy"),
                   "--last-attn", str(tmp_path / "last.npy")])
        assert rc == 0
        assert load_compressed(out)[1].final_count == n
        inner = np.load(out / "inner_tokens.npy")
        assert inner.shape == (n - n // 2, 8)  # R=50 drops half
        meta = json.loads((out / "inner.json").read_text())
        assert len(meta["retained_indices"]) == n - n // 2

    def test_inner_dumps_checked_once(self, tmp_path, monkeypatch):
        """Each dump's values are checked when it is loaded, and not again
        by the inner merge."""
        spec, stream, tokens = write_corpus(tmp_path)
        rng = np.random.default_rng(3)
        np.save(tmp_path / "hidden.npy", rng.standard_normal((self.FINAL_COUNT, 8)))
        np.save(tmp_path / "last.npy", rng.random(self.FINAL_COUNT))
        checked, check = [], innerllm._checked

        def counting(arr, *args, **kwargs):
            checked.append(np.shape(arr))
            return check(arr, *args, **kwargs)
        monkeypatch.setattr(innerllm, "_checked", counting)
        assert main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                     "--out", str(tmp_path / "out"),
                     "--hidden", str(tmp_path / "hidden.npy"),
                     "--last-attn", str(tmp_path / "last.npy")]) == 0
        assert checked == [(self.FINAL_COUNT, 8), (self.FINAL_COUNT,)]

    @pytest.mark.parametrize("hidden_rows,last_rows", [(24, 18), (18, 17), (0, 18)])
    def test_inner_dumps_not_final_count_exit_2(self, tmp_path, capsys,
                                                hidden_rows, last_rows):
        spec, stream, tokens = write_corpus(tmp_path)
        rng = np.random.default_rng(3)
        np.save(tmp_path / "hidden.npy", rng.standard_normal((hidden_rows, 8)))
        np.save(tmp_path / "last.npy", rng.random(last_rows))
        out = tmp_path / "out"
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   "--out", str(out),
                   "--hidden", str(tmp_path / "hidden.npy"),
                   "--last-attn", str(tmp_path / "last.npy")])
        assert rc == 2
        err = capsys.readouterr().err
        bad, rows = (("hidden.npy", hidden_rows) if hidden_rows != self.FINAL_COUNT
                     else ("last.npy", last_rows))
        assert f"{bad}: {rows} rows" in err and f"final_count {self.FINAL_COUNT}" in err
        assert not out.exists()

    # ids name the broken input; hidden.npy rows hold 8 values
    @pytest.mark.parametrize("bad_file,row,value,message", [
        pytest.param("hidden.npy", 4, np.nan, "non-finite value at flat offset 32",
                     id="hidden.npy-4-nan-row 4 is not finite"),
        pytest.param("hidden.npy", 0, np.inf, "non-finite value at flat offset 0",
                     id="hidden.npy-0-inf-row 0 is not finite"),
        pytest.param("hidden.npy", 2, 1e300, "value out of float32 range at flat offset 16",
                     id="hidden.npy-2-1e+300-row 2 is not finite in float32"),
        ("last.npy", 5, -0.1, "must be non-negative"),
        pytest.param("last.npy", 7, np.nan, "non-finite value at flat offset 7",
                     id="last.npy-7-nan-non-finite attention score at index 7"),
        pytest.param("last.npy", 0, np.inf, "non-finite value at flat offset 0",
                     id="last.npy-0-inf-non-finite attention score at index 0")])
    def test_inner_dumps_invalid_values_exit_2(self, tmp_path, capsys,
                                               bad_file, row, value, message):
        spec, stream, tokens = write_corpus(tmp_path)
        rng = np.random.default_rng(3)
        arrays = {"hidden.npy": rng.standard_normal((self.FINAL_COUNT, 8)),
                  "last.npy": rng.random(self.FINAL_COUNT)}
        arrays[bad_file][row] = value
        for name, arr in arrays.items():
            np.save(tmp_path / name, arr)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                       "--out", str(out),
                       "--hidden", str(tmp_path / "hidden.npy"),
                       "--last-attn", str(tmp_path / "last.npy")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / bad_file}: " in err and message in err
        assert not out.exists()

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


    def run_with_dump(self, tmp_path, ratio, dump_args):
        """Compress with importance dump flags and warnings as errors."""
        spec, stream, tokens = write_corpus(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                         "--out", str(tmp_path / "out"), "--target-ratio", ratio,
                         *dump_args])

    # 1.0 passes every survivor through; 0.25 selects and clusters
    @pytest.mark.parametrize("ratio", ["1.0", "0.25"])
    def test_attention_dump_nan_exit_2(self, tmp_path, capsys, ratio):
        attn = np.full((8, 6, 6), 1 / 6)
        attn[2, 3, 4] = np.nan
        np.save(tmp_path / "attn.npy", attn)
        rc = self.run_with_dump(tmp_path, ratio, ["--attn", str(tmp_path / "attn.npy")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'attn.npy'}: non-finite value at flat offset 94" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ratio", ["1.0", "0.25"])
    def test_qk_dump_inf_exit_2(self, tmp_path, capsys, ratio):
        rng = np.random.default_rng(4)
        q, k = rng.standard_normal((2, 8, 6, 4))
        k[1, 0, 3] = np.inf
        np.save(tmp_path / "q.npy", q)
        np.save(tmp_path / "k.npy", k)
        rc = self.run_with_dump(tmp_path, ratio,
                                ["--qk", str(tmp_path / "q.npy"), str(tmp_path / "k.npy")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'k.npy'}: non-finite value at flat offset 27" in err
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ratio", ["1.0", "0.25"])
    def test_attention_dump_not_grid_tokens_exit_2(self, tmp_path, capsys, ratio):
        np.save(tmp_path / "attn.npy", np.full((8, 9, 9), 1 / 9))
        rc = self.run_with_dump(tmp_path, ratio, ["--attn", str(tmp_path / "attn.npy")])
        assert rc == 2
        err = capsys.readouterr().err
        assert (f"{tmp_path / 'attn.npy'}: shape (8, 9, 9), expected (8, 6, 6) "
                "for 8 frames on grid 2x3") in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ratio", ["1.0", "0.25"])
    def test_attention_dump_frame_count_exit_2(self, tmp_path, capsys, ratio):
        np.save(tmp_path / "attn.npy", np.full((5, 6, 6), 1 / 6))
        rc = self.run_with_dump(tmp_path, ratio, ["--attn", str(tmp_path / "attn.npy")])
        assert rc == 2
        err = capsys.readouterr().err
        assert (f"{tmp_path / 'attn.npy'}: shape (5, 6, 6), expected (8, 6, 6) "
                "for 8 frames on grid 2x3") in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("k_dim", [0, 4])
    def test_qk_query_dim_zero_exit_2(self, tmp_path, capsys, k_dim):
        """A d = 0 query dump is named by its own shape check, whether the
        key dump has d = 0 too or not."""
        np.save(tmp_path / "q.npy", np.zeros((8, 6, 0)))
        np.save(tmp_path / "k.npy", np.zeros((8, 6, k_dim)))
        rc = self.run_with_dump(tmp_path, "0.3",
                                ["--qk", str(tmp_path / "q.npy"), str(tmp_path / "k.npy")])
        assert rc == 2
        err = capsys.readouterr().err
        assert (f"{tmp_path / 'q.npy'}: shape (8, 6, 0), expected (8, 6, d >= 1) "
                "for 8 frames on grid 2x3") in err
        assert "k.npy" not in err and "overflows" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ratio", ["1.0", "0.3"])
    def test_qk_dump_overflow_exit_2(self, tmp_path, capsys, ratio):
        q, k = np.zeros((2, 8, 6, 4))
        q[0, 0, 0] = k[0, 1, 0] = 1e200
        np.save(tmp_path / "q.npy", q)
        np.save(tmp_path / "k.npy", k)
        rc = self.run_with_dump(tmp_path, ratio,
                                ["--qk", str(tmp_path / "q.npy"), str(tmp_path / "k.npy")])
        assert rc == 2
        err = capsys.readouterr().err
        assert (f"{tmp_path / 'q.npy'}, {tmp_path / 'k.npy'}: "
                "raw importance overflows float64") in err
        assert "RuntimeWarning" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ratio", ["1.0", "0.3"])
    def test_attention_dump_overflow_exit_2(self, tmp_path, capsys, ratio):
        np.save(tmp_path / "attn.npy", np.full((8, 6, 6), 1e308))
        rc = self.run_with_dump(tmp_path, ratio, ["--attn", str(tmp_path / "attn.npy")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / 'attn.npy'}: raw importance overflows float64" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("ratio", ["1.0", "0.25"])
    def test_attention_dump_negative_exit_2(self, tmp_path, capsys, ratio):
        np.save(tmp_path / "attn.npy", np.full((8, 6, 6), -1.0))
        rc = self.run_with_dump(tmp_path, ratio, ["--attn", str(tmp_path / "attn.npy")])
        assert rc == 2
        assert capsys.readouterr().err == (f"tokmerge: error: {tmp_path / 'attn.npy'}: "
                                           "attention scores must be non-negative\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--attn", "--qk", "--hidden", "--last-attn"])
    @pytest.mark.parametrize("dtype", ["complex128", "<U32"])
    def test_non_real_dump_exit_2(self, tmp_path, capsys, flag, dtype):
        rng = np.random.default_rng(6)
        n = self.FINAL_COUNT
        arrays = {"attn.npy": np.full((8, 6, 6), 1 / 6),
                  "q.npy": rng.standard_normal((8, 6, 4)),
                  "k.npy": rng.standard_normal((8, 6, 4)),
                  "hidden.npy": rng.standard_normal((n, 8)),
                  "last.npy": rng.random(n)}
        bad = {"--attn": "attn.npy", "--qk": "q.npy",
               "--hidden": "hidden.npy", "--last-attn": "last.npy"}[flag]
        arrays[bad] = (arrays[bad] + 0.5j).astype(dtype)
        for name, arr in arrays.items():
            np.save(tmp_path / name, arr)
        dumps = ["--hidden", str(tmp_path / "hidden.npy"),
                 "--last-attn", str(tmp_path / "last.npy")]
        if flag == "--attn":
            dumps = ["--attn", str(tmp_path / "attn.npy")]
        elif flag == "--qk":
            dumps = ["--qk", str(tmp_path / "q.npy"), str(tmp_path / "k.npy")]
        rc = self.run_with_dump(tmp_path, "1.0", dumps)
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / bad}: dtype {dtype}, expected real values" in err
        assert not (tmp_path / "out").exists()

    def test_missing_tokens_reported_before_bad_config(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"tau": 2.0}))
        rc = main(["compress", "--tokens", str(tmp_path / "absent.npy"), "--grid", "2x3",
                   "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"token file not found: {tmp_path / 'absent.npy'}" in capsys.readouterr().err

    def test_inner_flag_check_before_importance_dumps(self, tmp_path, capsys):
        spec, stream, tokens = write_corpus(tmp_path)
        for name in ("q.npy", "k.npy"):
            (tmp_path / name).write_bytes(b"not an array")
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   "--qk", str(tmp_path / "q.npy"), str(tmp_path / "k.npy"),
                   "--hidden", str(tmp_path / "hidden.npy"), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert ("--hidden and --last-attn must be given together"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()


class TestPhaseLifetimes:
    """The inner merge runs with only its own dumps resident: the token
    stream, its mapped file, the importance dumps and the compressed tokens
    are all released by then."""

    @staticmethod
    def refs_to(obj):
        """Weak references to ``obj`` and to every array or mapping under it."""
        refs = []
        while obj is not None:
            refs.append(weakref.ref(obj))
            obj = getattr(obj, "base", None)
        return refs

    @pytest.mark.parametrize("source", ["attn", "qk"])
    def test_inner_merge_runs_without_outer_inputs(self, tmp_path, monkeypatch, source):
        spec, stream, tokens = write_corpus(tmp_path)
        if source == "attn":
            _, attn = write_attention(tmp_path, stream)
            dumps = ["--attn", str(attn)]
        else:
            rng = np.random.default_rng(8)
            for name in ("q.npy", "k.npy"):
                np.save(tmp_path / name, rng.standard_normal((8, 6, 4)).astype(np.float32))
            dumps = ["--qk", str(tmp_path / "q.npy"), str(tmp_path / "k.npy")]
        argv = ["compress", "--tokens", str(tokens), "--grid", "2x3",
                "--target-ratio", "0.5", *dumps]
        assert main([*argv, "--out", str(tmp_path / "outer")]) == 0
        n = load_compressed(tmp_path / "outer")[1].final_count
        rng = np.random.default_rng(3)
        np.save(tmp_path / "hidden.npy", rng.standard_normal((n, 8)).astype(np.float32))
        np.save(tmp_path / "last.npy", rng.random(n))

        refs = {}

        def track(name, obj):
            refs[name] = self.refs_to(obj)
            return obj

        def alive():
            return sorted(name for name, rs in refs.items() if any(r() is not None for r in rs))

        load_stream, load_npy, compress_ = cli.load_token_stream, cli._load_npy, cli.compress
        inner_merge, seen = cli.inner_merge, {}

        def load_stream_tracked(*args):
            stream = track("stream", load_stream(*args))
            track("stream data", stream.data)
            return stream

        def load_dump(path, rank, what, check=np.asarray):
            arr = load_npy(path, rank, what, check)
            return arr if what in ("hidden-state", "last-attention") else track(what, arr)

        def compress_tracked(*args):
            cv, report = compress_(*args)
            track("compressed tokens", cv.tokens)
            return track("compressed video", cv), report

        def inner_merge_checked(*args):
            seen["without collection"] = alive()
            gc.collect()
            seen["after collection"] = alive()
            return inner_merge(*args)

        monkeypatch.setattr(cli, "load_token_stream", load_stream_tracked)
        monkeypatch.setattr(cli, "_load_npy", load_dump)
        monkeypatch.setattr(cli, "compress", compress_tracked)
        monkeypatch.setattr(cli, "inner_merge", inner_merge_checked)
        assert main([*argv, "--out", str(tmp_path / "out"),
                     "--hidden", str(tmp_path / "hidden.npy"),
                     "--last-attn", str(tmp_path / "last.npy")]) == 0
        dump_names = ["attention"] if source == "attn" else ["key", "query"]
        assert sorted(refs) == sorted(["stream", "stream data", "compressed video",
                                       "compressed tokens", *dump_names])
        assert seen == {"without collection": [], "after collection": []}


class TestLibraryPipeline:
    def compress_args(self, tmp_path, with_inner=True):
        spec, stream, tokens = write_corpus(tmp_path)
        attn, attn_path = write_attention(tmp_path, stream)
        cfg = validate_config({"target_ratio": 0.3})
        cv, report = compress(stream, cfg, importance_from_attention(attn, stream.grid))
        rng = np.random.default_rng(3)
        np.save(tmp_path / "hidden.npy", rng.standard_normal((cv.count, 8)).astype(np.float32))
        np.save(tmp_path / "last.npy", rng.random(cv.count))
        args = ["compress", "--tokens", str(tokens), "--grid", "2x3", "--attn", str(attn_path),
                "--target-ratio", "0.3", "--out", str(tmp_path / "out")]
        if with_inner:
            args += ["--hidden", str(tmp_path / "hidden.npy"),
                     "--last-attn", str(tmp_path / "last.npy")]
        return args, cv, report

    def test_compress_returns_what_the_cli_writes(self, tmp_path):
        args, cv, report = self.compress_args(tmp_path, with_inner=False)
        assert main(args) == 0
        cv_cli, report_cli = load_compressed(tmp_path / "out")
        assert cv.tokens.tobytes() == cv_cli.tokens.tobytes()
        for mine, written in zip(cv.provenance_arrays, cv_cli.provenance_arrays):
            np.testing.assert_array_equal(mine, written)
        assert report == report_cli

    def test_verbose_adds_stage_times_to_stderr_only(self, tmp_path, capsys, monkeypatch):
        args, _, _ = self.compress_args(tmp_path)
        out = tmp_path / "out"
        monkeypatch.delenv("TOKMERGE_VERBOSE", raising=False)
        runs = []
        for _ in range(2):
            assert main(args) == 0
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            runs.append((capsys.readouterr(), files))
            monkeypatch.setenv("TOKMERGE_VERBOSE", "1")
        (quiet, quiet_files), (loud, loud_files) = runs
        assert sorted(quiet_files) == ["compressed.json", "inner.json", "inner_tokens.npy",
                                       "tokens.npy"]
        assert loud_files == quiet_files
        assert loud.out == quiet.out
        assert quiet.err == ""
        assert re.fullmatch(r"temporal: \d+\.\d\d ms\nspatial: \d+\.\d\d ms\n", loud.err)


class TestSegment:
    def test_identical_frames_single_segment(self, tmp_path, capsys):
        spec, stream, tokens = write_corpus(tmp_path, segments=((8, 1.0),))
        rc = main(["segment", "--tokens", str(tokens), "--grid", "2x3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["boundaries"] == [1, 9]
        assert doc["tau"] == 0.8  # the config default

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

    @pytest.mark.parametrize("frames", ["1", "8", "64"])
    def test_full_ratio_prices_against_the_same_frames(self, capsys, frames):
        rc = main(["flops", "--profile", "llava-ov-7b", "--ratio", "1.0", "--no-inner",
                   "--frames", frames])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ratio"] == 1.0
        assert doc["baseline_flops"] == doc["prefill_flops"]

    def test_inner_layer_beyond_profile_exit_1(self, capsys):
        rc = main(["flops", "--profile", "llava-ov-7b", "--ratio", "0.1",
                   "--inner-layer", "40"])
        assert rc == 1
        assert capsys.readouterr() == ("", "tokmerge: error: inner_layer_K 40 must be below "
                                           "the 28 layers of profile llava-ov-7b\n")

    @pytest.mark.parametrize("frames", ["0", "-3"])
    def test_frames_below_one_exit_1(self, capsys, frames):
        rc = main(["flops", "--profile", "llava-ov-7b", "--ratio", "0.5", "--frames", frames])
        assert rc == 1
        assert capsys.readouterr() == (
            "", f"tokmerge: error: --frames must be >= 1, got {frames}\n")

    def test_unknown_profile_lists_known(self, capsys):
        rc = main(["flops", "--profile", "bogus", "--ratio", "0.5"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "llava-ov-7b" in err and "llava-ov-72b" in err

    def test_ratio_zero_exit_1(self, capsys):
        rc = main(["flops", "--profile", "llava-ov-7b", "--ratio", "0"])
        assert rc == 1
        assert capsys.readouterr() == (
            "", "tokmerge: error: retained ratio must be in (0, 1], got 0.0\n")

    def test_inner_defaults_are_the_config_defaults(self, capsys):
        outs = []
        for extra in ([], ["--inner-layer", "18", "--inner-ratio", "50"]):
            assert main(["flops", "--profile", "llava-ov-7b", "--ratio", "0.1", *extra]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        cfg = CompressionConfig()
        assert (cfg.inner_layer_K, cfg.inner_ratio_R) == (18, 50.0)

    def test_module_run_has_no_warning(self):
        # python -m tokmerge.cli warns if importing the package already
        # imported tokmerge.cli; under -W error that warning is fatal
        env = dict(os.environ, PYTHONPATH=str(Path(tokmerge.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-W", "error", "-m", "tokmerge.cli", "flops",
             "--profile", "llava-ov-7b", "--ratio", "0.1"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["profile"] == "llava-ov-7b"


class TestGridFlags:
    @pytest.mark.parametrize("grid", ["0x6", "6x0", "-2x-3", "-1x6"])
    @pytest.mark.parametrize("command", ["compress", "segment", "synth"])
    def test_non_positive_grid_exit_1(self, tmp_path, capsys, command, grid):
        _, _, tokens = write_corpus(tmp_path)
        out = tmp_path / "out"
        args = {"compress": ["--tokens", str(tokens), "--out", str(out)],
                "segment": ["--tokens", str(tokens)],
                "synth": ["--out", str(out), "--frames", "6", "--dim", "16",
                          "--segments", "3:1.0,3:0.5"]}[command]
        rc = main([command, *args, f"--grid={grid}"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"tokmerge: error: grid sides must be positive, got '{grid}'\n"
        assert not out.exists()

    @pytest.mark.parametrize("pooled", ["0x3", "2x-1"])
    def test_non_positive_pooled_grid_exit_1(self, tmp_path, capsys, pooled):
        _, _, tokens = write_corpus(tmp_path)
        out = tmp_path / "out"
        rc = main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                   f"--pooled-grid={pooled}", "--out", str(out)])
        assert rc == 1
        assert f"grid sides must be positive, got '{pooled}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["compress", "segment"])
    def test_positive_grid_not_tiling_exit_2(self, tmp_path, capsys, command):
        _, _, tokens = write_corpus(tmp_path)
        extra = ["--out", str(tmp_path / "out")] if command == "compress" else []
        rc = main([command, "--tokens", str(tokens), "--grid", "3x3", *extra])
        assert rc == 2
        assert "grid 3x3 does not tile 6 tokens per frame" in capsys.readouterr().err


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

    @pytest.mark.parametrize("flags, message", [
        (["--frames", "6", "--segments", "3:0.5,2:0.5"],
         "segment lengths [3, 2] must be positive and sum to 6"),
        (["--frames", "6", "--segments", "3:0.5,3:0.5", "--noise", "nan"],
         "noise_sigma must be finite and >= 0, got nan"),
        (["--frames", "2", "--segments", "2:0.5", "--noise", "1e39"],
         "noise_sigma 1e+39 puts token values beyond float32 range"),
        (["--frames", "6", "--segments", "3-0.5,3:0.5"],
         "segments must look like LEN:FRAC[,LEN:FRAC...], got '3-0.5,3:0.5'"),
        (["--frames", "0", "--segments", "1:0.5"], "frames, grid, and dim must be positive"),
    ])
    def test_synth_bad_flags_exit_1(self, tmp_path, capsys, flags, message):
        out = tmp_path / "synth"
        rc = main(["synth", "--out", str(out), "--grid", "2x2", "--dim", "4", *flags])
        assert rc == 1
        assert capsys.readouterr().err == f"tokmerge: error: {message}\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("nested", [False, True])
    def test_unparsable_report_field_exit_2_names_file(self, tmp_path, capsys, nested):
        spec, stream, tokens = write_corpus(tmp_path)
        out = tmp_path / "video1"
        assert main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                     "--out", str(out)]) == 0
        meta = out / "compressed.json"
        doc = json.loads(meta.read_text(encoding="utf-8"))
        doc["report"]["original_count"] = "abc"
        if not nested:
            meta.unlink()
            meta = tmp_path / "v.json"
            doc = doc["report"]
        meta.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        rc = main(["report", "--reports", str(tmp_path), "--out", str(tmp_path / "agg")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith(f"tokmerge: error: {meta}: malformed report document: ")
        assert "abc" in err
        assert not (tmp_path / "agg").exists()

    @pytest.mark.parametrize("case", sorted(BAD_REPORT_COUNTS))
    def test_report_counts_must_be_real_counts_exit_2(self, tmp_path, capsys, case):
        doc, message = bad_report_doc(case)
        path = tmp_path / "v.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        rc = main(["report", "--reports", str(tmp_path), "--out", str(tmp_path / "agg")])
        assert rc == 2
        assert capsys.readouterr().err == f"tokmerge: error: {path}: {message}\n"
        assert not (tmp_path / "agg").exists()

    def test_non_object_report_entry_exit_2_names_file(self, tmp_path, capsys):
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps({"report": 5}))
        rc = main(["report", "--reports", str(tmp_path), "--out", str(tmp_path / "agg")])
        assert rc == 2  # a broken report document, not a traceback
        assert capsys.readouterr().err.startswith(
            f"tokmerge: error: {odd}: malformed report document: ")

    @pytest.mark.parametrize("fault", ["field-missing", "not-object"])
    def test_broken_compressed_json_among_reports_exit_2(self, tmp_path, capsys, fault):
        """One broken compressed.json among good ones fails the aggregate,
        naming it, rather than leaving it out of the count; spec, summary
        and config documents beside them are still skipped."""
        spec, stream, tokens = write_corpus(tmp_path)
        reports = tmp_path / "r"
        for name in ("v1", "v2"):
            assert main(["compress", "--tokens", str(tokens), "--grid", "2x3",
                         "--out", str(reports / name)]) == 0
        (reports / "cfg.json").write_text(json.dumps({"tau": 0.8}))
        (reports / "summary.json").write_text(json.dumps({"videos": 2}))
        assert main(["synth", "--out", str(reports / "s"), "--frames", "2", "--grid", "2x2",
                     "--dim", "4", "--segments", "2:0.5"]) == 0
        agg = tmp_path / "agg"
        assert main(["report", "--reports", str(reports), "--out", str(agg)]) == 0
        assert json.loads((agg / "summary.json").read_text())["videos"] == 2

        meta = reports / "v2" / "compressed.json"
        doc = json.loads(meta.read_text(encoding="utf-8"))
        if fault == "field-missing":
            del doc["report"]["temporal_prune_ratio"]
        else:
            doc["report"] = ["not", "an", "object"]
        meta.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        rc = main(["report", "--reports", str(reports), "--out", str(tmp_path / "agg2")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(
            f"tokmerge: error: {meta}: malformed report document: ")
        assert not (tmp_path / "agg2").exists()

    def test_empty_directory_exit_2(self, tmp_path):
        empty = tmp_path / "none"
        empty.mkdir()
        rc = main(["report", "--reports", str(empty), "--out", str(tmp_path / "agg")])
        assert rc == 2

    def test_missing_directory_exit_2(self, tmp_path, capsys):
        absent = tmp_path / "none"
        rc = main(["report", "--reports", str(absent), "--out", str(tmp_path / "agg")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"tokmerge: error: report directory not found: {absent}\n")
        assert not (tmp_path / "agg").exists()


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 1

    def test_bad_grid_flag(self, tmp_path):
        rc = main(["segment", "--tokens", str(tmp_path / "x.npy"), "--grid", "six"])
        assert rc == 1

    def test_bad_tau_flag(self, tmp_path, capsys):
        spec, stream, tokens = write_corpus(tmp_path)
        rc = main(["segment", "--tokens", str(tokens), "--grid", "2x3",
                   "--tau", "1.4"])
        assert rc == 1
        assert "tau must be in [0, 1], got 1.4" in capsys.readouterr().err
