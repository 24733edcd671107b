"""Core type, config, and I/O round-trip tests."""

import json
import re

import numpy as np
import pytest

from tokmerge import (
    CompressedVideo,
    CompressionReport,
    ConfigError,
    DataError,
    TokenProvenance,
    VideoTokenStream,
    load_compressed,
    load_token_stream,
    save_compressed,
    save_stream,
    validate_config,
)


class TestTokenStreamIO:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        stream = VideoTokenStream(
            rng.standard_normal((2, 4, 8)).astype(np.float32), (2, 2))
        path = tmp_path / "tokens.npy"
        save_stream(stream, path)
        loaded = load_token_stream(path, (2, 2))
        assert loaded.frames == 2 and loaded.tokens_per_frame == 4 and loaded.dim == 8
        np.testing.assert_array_equal(loaded.data, stream.data)

    def test_float64_narrowed(self, tmp_path):
        path = tmp_path / "wide.npy"
        np.save(path, np.ones((2, 4, 8), dtype=np.float64))
        loaded = load_token_stream(path, (2, 2))
        assert loaded.data.dtype == np.float32

    def test_rank_two_rejected(self, tmp_path):
        path = tmp_path / "flat.npy"
        np.save(path, np.ones((2, 4), dtype=np.float32))
        with pytest.raises(DataError, match="rank 2, expected 3"):
            load_token_stream(path, (2, 2))

    def test_nan_reported_with_flat_offset(self, tmp_path):
        arr = np.zeros((2, 4, 8), dtype=np.float32)
        arr[1, 2, 3] = np.nan
        path = tmp_path / "nan.npy"
        np.save(path, arr)
        offset = 1 * 32 + 2 * 8 + 3
        with pytest.raises(DataError, match=f"flat offset {offset}"):
            load_token_stream(path, (2, 2))

    def test_grid_mismatch(self, tmp_path):
        path = tmp_path / "t.npy"
        np.save(path, np.ones((2, 4, 8), dtype=np.float32))
        with pytest.raises(DataError, match="grid"):
            load_token_stream(path, (3, 2))

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "junk.npy"
        path.write_bytes(b"\x93NUMPYjunkjunkjunk")
        with pytest.raises(DataError, match="malformed"):
            load_token_stream(path, (1, 1))

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.npy"
        with pytest.raises(DataError, match="nope.npy"):
            load_token_stream(missing, (1, 1))

    def test_data_is_read_only(self):
        stream = VideoTokenStream(np.ones((1, 1, 2), dtype=np.float32), (1, 1))
        with pytest.raises(ValueError):
            stream.data[0, 0, 0] = 5.0


class TestConfig:
    def test_empty_document_defaults(self):
        cfg = validate_config({})
        assert cfg.tau == 0.8
        assert cfg.inner_layer_K == 18
        assert cfg.inner_ratio_R == 50
        assert cfg.temporal_merge_mode == "mean"
        assert cfg.knn_k is None
        assert cfg.inner_enabled

    def test_tau_out_of_range(self):
        with pytest.raises(ConfigError, match=r"tau must be in \[0, 1\]"):
            validate_config({"tau": 1.5})

    def test_target_ratio_leaves_tau_default(self):
        cfg = validate_config({"target_ratio": 0.10})
        assert cfg.tau == 0.8
        assert cfg.target_ratio == 0.10

    def test_idempotent(self):
        cfg = validate_config({"tau": 0.65, "target_ratio": 0.25,
                               "pooled_grid": [7, 7], "knn_k": 5,
                               "temporal_merge_mode": "first"})
        again = validate_config(cfg.to_dict())
        assert again == cfg
        assert validate_config(again.to_dict()) == again

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            validate_config({"tua": 0.8})

    def test_bad_mode(self):
        with pytest.raises(ConfigError, match="temporal_merge_mode"):
            validate_config({"temporal_merge_mode": "median"})

    def test_bad_inner_ratio(self):
        with pytest.raises(ConfigError, match=r"\[0, 100\)"):
            validate_config({"inner_ratio_R": 100})


def small_cv():
    tokens = np.arange(6, dtype=np.float32).reshape(3, 2)
    prov = (
        TokenProvenance(0, 0, "temporal_rep", ((1, 0), (2, 0))),
        TokenProvenance(0, 1, "selected"),
        TokenProvenance(1, 2, "cluster_rep", ((0, 3), (1, 3))),
    )
    return CompressedVideo(tokens, prov)


def small_report():
    return CompressionReport(
        original_count=12,
        after_temporal_count=8,
        final_count=3,
        temporal_prune_ratio=1 - 8 / 12,
        overall_retained_ratio=3 / 12,
        segment_boundaries=((1, 3, 4), (3, 4, 0)),
        prefill_flops=1.5e11,
        baseline_flops=1e12,
    )


class TestCompressedIO:
    def test_round_trip_bit_exact(self, tmp_path):
        cv, report = small_cv(), small_report()
        save_compressed(cv, report, tmp_path / "out")
        cv2, report2 = load_compressed(tmp_path / "out")
        np.testing.assert_array_equal(cv2.tokens, cv.tokens)
        assert cv2.provenance == cv.provenance
        assert report2 == report

    def test_empty_token_set(self, tmp_path):
        cv = CompressedVideo(np.empty((0, 4), dtype=np.float32), ())
        report = CompressionReport(8, 8, 0, 0.0, 0.0, ((1, 3, 0),), 1.0, 2.0)
        save_compressed(cv, report, tmp_path / "empty")
        cv2, report2 = load_compressed(tmp_path / "empty")
        assert cv2.count == 0
        assert report2.final_count == 0

    def test_report_field_copied(self, tmp_path):
        report = CompressionReport(20, 10, 3, 0.5, 0.15, ((1, 21, 10),), 1.0, 2.0)
        save_compressed(small_cv(), report, tmp_path / "r")
        doc = json.loads((tmp_path / "r" / "compressed.json").read_text())
        assert doc["report"]["overall_retained_ratio"] == 0.15

    def test_provenance_order_enforced(self):
        tokens = np.zeros((2, 2), dtype=np.float32)
        prov = (TokenProvenance(1, 0, "selected"), TokenProvenance(0, 0, "selected"))
        with pytest.raises(DataError, match="ascending"):
            CompressedVideo(tokens, prov)

    def test_duplicate_member_coordinate_rejected(self):
        tokens = np.zeros((2, 2), dtype=np.float32)
        prov = (TokenProvenance(0, 0, "temporal_rep", ((1, 0),)),
                TokenProvenance(0, 1, "temporal_rep", ((1, 0),)))
        with pytest.raises(DataError, match="twice"):
            CompressedVideo(tokens, prov)

    def test_member_repeating_a_survivor_is_named(self):
        # (3, 1) is a later record's survivor; (1, 0) repeats later but
        # sorts first, and the error must still name the earlier repeat
        prov = (TokenProvenance(0, 0, "temporal_rep", ((3, 1),)),
                TokenProvenance(3, 1, "selected"),
                TokenProvenance(3, 2, "cluster_rep", ((1, 0), (1, 0))))
        with pytest.raises(DataError, match=re.escape("(3, 1) appears twice")):
            CompressedVideo(np.zeros((3, 2), dtype=np.float32), prov)

    def test_members_repeating_each_other_are_named_in_record_order(self):
        prov = (TokenProvenance(0, 0, "temporal_rep", ((4, 0), (2, 0))),
                TokenProvenance(0, 1, "temporal_rep", ((4, 0), (2, 0))))
        with pytest.raises(DataError, match=re.escape("(4, 0) appears twice")):
            CompressedVideo(np.zeros((2, 2), dtype=np.float32), prov)

    def test_member_that_is_not_a_pair_rejected(self):
        prov = (TokenProvenance(0, 0, "temporal_rep", ((1, 0, 2),)),)
        with pytest.raises(DataError, match="pairs"):
            CompressedVideo(np.zeros((1, 2), dtype=np.float32), prov)

    def test_members_of_compensating_lengths_rejected(self):
        # 3 + 1 elements would read as the pairs (1, 0) and (2, 5)
        prov = (TokenProvenance(0, 0, "temporal_rep", ((1, 0, 2), (5,))),)
        with pytest.raises(DataError, match="pairs"):
            CompressedVideo(np.zeros((1, 2), dtype=np.float32), prov)

    @pytest.mark.parametrize("prov", [
        (TokenProvenance(2**63, 0, "selected"),),
        (TokenProvenance(0, 0, "temporal_rep", ((2**63, 1),)),),
    ])
    def test_coordinate_beyond_int64_rejected(self, prov):
        with pytest.raises(DataError, match="int64"):
            CompressedVideo(np.zeros((1, 2), dtype=np.float32), prov)

    def test_load_coordinate_beyond_int64_rejected(self, tmp_path):
        save_compressed(small_cv(), small_report(), tmp_path)
        meta = tmp_path / "compressed.json"
        doc = json.loads(meta.read_text(encoding="utf-8"))
        doc["provenance"][0]["members"] = [[2**63, 0]]
        meta.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="int64"):
            load_compressed(tmp_path)

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(DataError):
            CompressionReport(10, 12, 3, 0.5, 0.3, (), 1.0, 1.0)

