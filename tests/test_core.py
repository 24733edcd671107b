"""Core type, config, and I/O round-trip tests."""

import dataclasses
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from tokmerge import (
    CompressedVideo,
    CompressionConfig,
    CompressionReport,
    ConfigError,
    DataError,
    ProvenanceArrays,
    TokenProvenance,
    VideoTokenStream,
    load_compressed,
    load_token_stream,
    pairwise_redundancy,
    SynthSpec,
    compress,
    generate,
    importance_from_attention,
    importance_from_qk,
    save_compressed,
    validate_config,
)
from tokmerge.core import report_from_dict, report_to_dict
from tokmerge.innerllm import check_hidden
from oracles import reference_mask
from support import (BAD_REPORT_COUNTS, arrays, bad_report_doc, small_cv, small_report,
                     traced_peak)


class TestTokenStreamIO:
    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        stream = VideoTokenStream(
            rng.standard_normal((2, 4, 8)).astype(np.float32), (2, 2))
        path = tmp_path / "tokens.npy"
        np.save(path, stream.data)
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

    def test_direct_rank_two_rejected(self):
        with pytest.raises(DataError, match="^token array has rank 2, expected 3$"):
            VideoTokenStream(np.ones((2, 4), dtype=np.float32), (2, 2))

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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [(0, 0, 0), (1, 2, 3), (2, 3, 7)])
    def test_non_finite_named_by_flat_offset(self, tmp_path, value, index):
        arr = np.ones((3, 4, 8), dtype=np.float32)
        arr[index] = value
        offset = np.ravel_multi_index(index, arr.shape)
        with pytest.raises(DataError, match=f"^non-finite value at flat offset {offset}$"):
            VideoTokenStream(arr, (2, 2))
        path = tmp_path / "bad.npy"
        np.save(path, arr)
        with pytest.raises(DataError, match=re.escape(
                f"{path}: non-finite value at flat offset {offset}")):
            load_token_stream(path, (2, 2))

    def test_non_finite_after_overflowing_norm(self):
        arr = np.ones((2, 4, 8), dtype=np.float32)
        arr[0, 1] = 1e20  # finite, but its squared norm overflows float32
        arr[1, 3, 5] = np.nan
        with pytest.raises(DataError, match=f"flat offset {32 + 3 * 8 + 5}$"):
            VideoTokenStream(arr, (2, 2))

    def test_overflowing_norms_accepted(self):
        rng = np.random.default_rng(13)
        data = rng.standard_normal((3, 4, 64)).astype(np.float32)
        data[:, :2] = np.sign(data[:, :2]) * np.float32(1e20)
        data[:, 0] = data[0, 0]
        data[1, 2] = data[0, 2] * np.float32(1e20)
        stream = VideoTokenStream(data, (2, 2))
        np.testing.assert_array_equal(stream.data, data)
        assert not np.isfinite(stream.sq_norms[:, :2]).any()
        for tau in (0.0, 0.5, 0.99):
            got = pairwise_redundancy(stream, tau)
            np.testing.assert_array_equal(got, reference_mask(data, tau))
            assert got[:, 0].all()

    def test_sq_norms_field(self):
        arr = np.arange(16, dtype=np.float32).reshape(2, 2, 4)
        stream = VideoTokenStream(arr, (1, 2))
        np.testing.assert_array_equal(
            stream.sq_norms, np.einsum("bkd,bkd->bk", arr, arr))
        assert not stream.sq_norms.flags.writeable
        assert "sq_norms" not in repr(stream)
        with pytest.raises(TypeError):
            VideoTokenStream(arr, (1, 2), sq_norms=stream.sq_norms)

    def test_contract_errors_name_file(self, tmp_path):
        path = tmp_path / "t.npy"
        np.save(path, np.ones((2, 4, 8), dtype=np.float32))
        with pytest.raises(DataError, match=re.escape(f"{path}: grid 3x2")):
            load_token_stream(path, (3, 2))
        np.save(path, np.ones((2, 0, 8), dtype=np.float32))
        with pytest.raises(DataError, match=re.escape(f"{path}: token array has empty axis")):
            load_token_stream(path, (0, 0))

    @pytest.mark.parametrize("value", [1e39, -1e39, 3.5e38])
    def test_float64_beyond_float32_range(self, tmp_path, value):
        arr = np.ones((2, 4, 8))
        arr[1, 0, 2] = value
        arr[1, 3, 0] = np.nan
        path = tmp_path / "wide.npy"
        np.save(path, arr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=re.escape(
                    f"{path}: value out of float32 range at flat offset 34")):
                load_token_stream(path, (2, 2))

    def test_float64_non_finite_before_out_of_range(self, tmp_path):
        arr = np.ones((2, 4, 8))
        arr[0, 1, 1] = -np.inf
        arr[1, 0, 2] = 1e39
        path = tmp_path / "wide.npy"
        np.save(path, arr)
        with pytest.raises(DataError, match="non-finite value at flat offset 9$"):
            load_token_stream(path, (2, 2))

    @pytest.mark.parametrize("value", [1e39, -1e39, 3.5e38])
    def test_direct_float64_beyond_float32_range(self, value):
        arr = np.ones((2, 4, 8))
        arr[1, 0, 2] = value
        arr[1, 3, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^value out of float32 range at flat offset 34$"):
                VideoTokenStream(arr, (2, 2))

    def test_direct_float64_non_finite_before_out_of_range(self):
        arr = np.ones((2, 4, 8))
        arr[0, 1, 1] = -np.inf
        arr[1, 0, 2] = 1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match="^non-finite value at flat offset 9$"):
                VideoTokenStream(arr, (2, 2))

    def test_float64_largest_float32_accepted(self, tmp_path):
        arr = np.ones((2, 4, 8))
        arr[0, 0, 0] = np.finfo(np.float32).max
        arr[0, 0, 1] = -np.finfo(np.float32).max
        path = tmp_path / "wide.npy"
        np.save(path, arr)
        loaded = load_token_stream(path, (2, 2))
        np.testing.assert_array_equal(loaded.data, arr.astype(np.float32))

    @pytest.mark.parametrize("dtype", ["complex128", "<U3"])
    def test_non_real_dtype_rejected_before_narrowing(self, tmp_path, dtype):
        # a cast would keep only the real part, or parse the strings
        arr = np.full((2, 4, 8), "1.5" if dtype == "<U3" else 1.5 + 2j, dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DataError, match=f"^dtype {dtype}, expected real values$"):
                VideoTokenStream(arr, (2, 2))
        path = tmp_path / "t.npy"
        np.save(path, arr)
        with pytest.raises(DataError, match=re.escape(
                f"{path}: dtype {dtype}, expected float32/float64")):
            load_token_stream(path, (2, 2))

    def test_data_is_read_only(self):
        stream = VideoTokenStream(np.ones((1, 1, 2), dtype=np.float32), (1, 1))
        with pytest.raises(ValueError):
            stream.data[0, 0, 0] = 5.0


def assert_rejected(doc: dict, message: str):
    """A config document and the same fields passed to ``CompressionConfig``
    both raise ``ConfigError`` with exactly ``message``."""
    for build in (validate_config, lambda raw: CompressionConfig(**raw)):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            build(doc)


class TestConfig:
    def test_empty_document_defaults(self):
        cfg = validate_config({})
        assert cfg.tau == 0.8
        assert cfg.inner_layer_K == 18
        assert cfg.inner_ratio_R == 50
        assert cfg.temporal_merge_mode == "mean"
        assert cfg.knn_k is None
        assert cfg == CompressionConfig()

    def test_tau_out_of_range(self):
        assert_rejected({"tau": 1.5}, "tau must be in [0, 1], got 1.5")

    def test_target_ratio_leaves_tau_default(self):
        cfg = validate_config({"target_ratio": 0.10})
        assert cfg.tau == 0.8
        assert cfg.target_ratio == 0.10

    def test_idempotent(self):
        cfg = validate_config({"tau": 0.65, "target_ratio": 0.25,
                               "pooled_grid": [7, 7], "knn_k": 5,
                               "temporal_merge_mode": "first"})
        again = validate_config(dataclasses.asdict(cfg))
        assert again == cfg
        assert validate_config(dataclasses.asdict(again)) == again

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            validate_config({"tua": 0.8})

    @pytest.mark.parametrize("value", [True, False])
    def test_inner_enabled_is_an_unknown_field(self, value):
        """The inner merge has no on/off field: inner_ratio_R 0 prices the
        schedule without it."""
        with pytest.raises(ConfigError, match=r"^unknown config field\(s\): \['inner_enabled'\]$"):
            validate_config({"inner_enabled": value})

    def test_bad_mode(self):
        assert_rejected({"temporal_merge_mode": "median"},
                        "temporal_merge_mode must be one of ('mean', 'first'), got 'median'")

    def test_bad_inner_ratio(self):
        assert_rejected({"inner_ratio_R": 100}, "inner_ratio_R must be in [0, 100), got 100.0")

    @pytest.mark.parametrize("pooled", [7, True, [True, 2]])
    def test_pooled_grid_not_two_integers_rejected(self, pooled):
        assert_rejected({"pooled_grid": pooled},
                        f"pooled_grid must be two positive integers [rows, cols], got {pooled!r}")

    @pytest.mark.parametrize("doc, message", [
        ({"tau": math.nan}, "tau must be in [0, 1], got nan"),
        ({"tau": 2.0}, "tau must be in [0, 1], got 2.0"),
        ({"tau": "0.8"}, "tau must be a number, got '0.8'"),
        ({"target_ratio": math.nan}, "target_ratio must be in (0, 1], got nan"),
        ({"target_ratio": 0}, "target_ratio must be in (0, 1], got 0.0"),
        ({"target_ratio": 3.0}, "target_ratio must be in (0, 1], got 3.0"),
        ({"knn_k": 0}, 'knn_k must be >= 1 or "auto", got 0'),
        ({"knn_k": 2.0}, 'knn_k must be an integer or "auto", got 2.0'),
        ({"inner_ratio_R": -0.5}, "inner_ratio_R must be in [0, 100), got -0.5"),
        ({"inner_layer_K": -3}, "inner_layer_K must be a non-negative integer, got -3"),
        ({"inner_ratio_R": True}, "inner_ratio_R must be a number, got True"),
    ])
    def test_rejected_by_both_entry_points(self, doc, message):
        assert_rejected(doc, message)

    def test_fields_normalised_on_construction(self):
        cfg = CompressionConfig(tau=1, target_ratio=1, pooled_grid=[1, 2], knn_k="auto",
                                inner_ratio_R=25)
        assert (cfg.tau, cfg.target_ratio, cfg.inner_ratio_R) == (1.0, 1.0, 25.0)
        assert all(type(v) is float for v in (cfg.tau, cfg.target_ratio, cfg.inner_ratio_R))
        assert cfg.pooled_grid == (1, 2) and cfg.knn_k is None
        assert cfg == validate_config({"tau": 1, "target_ratio": 1, "pooled_grid": [1, 2],
                                       "knn_k": "auto", "inner_ratio_R": 25})

    def test_readme_config_bullet_names_every_field(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        bullet = readme.split("* **Config**", 1)[1].split("\n* **", 1)[0]
        missing = [f.name for f in dataclasses.fields(CompressionConfig)
                   if f"`{f.name}`" not in bullet]
        assert not missing, f"README Config bullet does not document {missing}"

    def test_list_pooled_grid_clusters_in_library(self):
        """A list pooled_grid matches a (1, 2)-pooled ImportanceMap in compress."""
        cfg = CompressionConfig(target_ratio=0.25, pooled_grid=[1, 2])
        assert cfg == validate_config({"target_ratio": 0.25, "pooled_grid": [1, 2]})
        stream, _ = generate(SynthSpec(frames=4, grid=(2, 4), dim=16,
                                       segments=((4, 0.5),), seed=3))
        rng = np.random.default_rng(3)
        imp = importance_from_attention(rng.random((4, 8, 8)), stream.grid, pooled_grid=(1, 2))
        assert imp.pooled_grid == (1, 2)
        cv, _ = compress(stream, cfg, imp)
        assert {p.kind for p in cv.provenance} == {"selected", "cluster_rep"}


class TestCompressedIO:
    def test_round_trip_bit_exact(self, tmp_path):
        cv, report = small_cv(), small_report()
        save_compressed(cv, report, tmp_path / "out")
        cv2, report2 = load_compressed(tmp_path / "out")
        np.testing.assert_array_equal(cv2.tokens, cv.tokens)
        assert cv2.provenance == cv.provenance
        assert report2 == report

    def test_empty_token_set(self, tmp_path):
        cv = CompressedVideo(np.empty((0, 4), dtype=np.float32), arrays(()))
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
        prov = (TokenProvenance(1, 0, "selected", ()), TokenProvenance(0, 0, "selected", ()))
        with pytest.raises(DataError, match="ascending"):
            CompressedVideo(tokens, arrays(prov))

    def test_records_rejected(self):
        with pytest.raises(TypeError, match="ProvenanceArrays"):
            CompressedVideo(np.zeros((1, 2), dtype=np.float32),
                            [TokenProvenance(0, 0, "selected", ())])

    def test_duplicate_member_coordinate_rejected(self):
        tokens = np.zeros((2, 2), dtype=np.float32)
        prov = (TokenProvenance(0, 0, "temporal_rep", ((1, 0),)),
                TokenProvenance(0, 1, "temporal_rep", ((1, 0),)))
        with pytest.raises(DataError, match="twice"):
            CompressedVideo(tokens, arrays(prov))

    def test_member_repeating_a_survivor_is_named(self):
        # (3, 1) is a later record's survivor; (1, 0) repeats later but
        # sorts first, and the error must still name the earlier repeat
        prov = (TokenProvenance(0, 0, "temporal_rep", ((3, 1),)),
                TokenProvenance(3, 1, "selected", ()),
                TokenProvenance(3, 2, "cluster_rep", ((1, 0), (1, 0))))
        with pytest.raises(DataError, match=re.escape("(3, 1) appears twice")):
            CompressedVideo(np.zeros((3, 2), dtype=np.float32), arrays(prov))

    def test_members_repeating_each_other_are_named_in_record_order(self):
        prov = (TokenProvenance(0, 0, "temporal_rep", ((4, 0), (2, 0))),
                TokenProvenance(0, 1, "temporal_rep", ((4, 0), (2, 0))))
        with pytest.raises(DataError, match=re.escape("(4, 0) appears twice")):
            CompressedVideo(np.zeros((2, 2), dtype=np.float32), arrays(prov))

    def test_member_that_is_not_a_pair_rejected(self):
        prov = (TokenProvenance(0, 0, "temporal_rep", ((1, 0, 2),)),)
        with pytest.raises(DataError, match="pairs"):
            CompressedVideo(np.zeros((1, 2), dtype=np.float32), arrays(prov))

    def test_members_of_compensating_lengths_rejected(self):
        # 3 + 1 elements would read as the pairs (1, 0) and (2, 5)
        prov = (TokenProvenance(0, 0, "temporal_rep", ((1, 0, 2), (5,))),)
        with pytest.raises(DataError, match="pairs"):
            CompressedVideo(np.zeros((1, 2), dtype=np.float32), arrays(prov))

    @pytest.mark.parametrize("prov", [
        (TokenProvenance(2**63, 0, "selected", ()),),
        (TokenProvenance(0, 0, "temporal_rep", ((2**63, 1),)),),
    ])
    def test_coordinate_beyond_int64_rejected(self, prov):
        with pytest.raises(DataError, match="int64"):
            CompressedVideo(np.zeros((1, 2), dtype=np.float32), arrays(prov))

    @pytest.mark.parametrize("tokens, columns, message", [
        (np.zeros(2), ([], [], [], [0], np.zeros((0, 2))), "tokens must be 2-D, got rank 1"),
        (np.zeros((2, 2)), ([0], [0], [0], [0, 0], np.zeros((0, 2))),
         "2 tokens but 1 provenance records"),
        (np.zeros((1, 2)), ([0], [0], [1], [0, 1], np.zeros((1, 3), dtype=np.int64)),
         re.escape("provenance members must be (frame, slot) pairs")),
        (np.zeros((1, 2)), ([0], [0], [3], [0, 0], np.zeros((0, 2))),
         "provenance arrays are inconsistent"),
        (np.zeros((1, 2)), ([0], [0], [1], [0, 2], np.zeros((1, 2), dtype=np.int64)),
         "provenance arrays are inconsistent"),
    ], ids=["tokens-rank-1", "record-count", "member-triples", "unknown-kind",
            "offsets-past-members"])
    def test_inconsistent_arrays_rejected(self, tokens, columns, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            CompressedVideo(tokens, ProvenanceArrays(*columns))

    def test_load_tokens_not_npy_rejected(self, tmp_path):
        save_compressed(small_cv(), small_report(), tmp_path)
        tokens = tmp_path / "tokens.npy"
        tokens.write_bytes(b"not an array file")
        with pytest.raises(DataError, match=f"^malformed array file {re.escape(str(tokens))}"):
            load_compressed(tmp_path)

    def test_load_coordinate_beyond_int64_rejected(self, tmp_path):
        save_compressed(small_cv(), small_report(), tmp_path)
        meta = tmp_path / "compressed.json"
        doc = json.loads(meta.read_text(encoding="utf-8"))
        doc["provenance"][0]["members"] = [[2**63, 0]]
        meta.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match="int64"):
            load_compressed(tmp_path)

    @pytest.mark.parametrize("record, edit, shown", [
        (0, {"frame": -1, "members": [[-3, -7]]}, "frame -1"),
        (1, {"spatial_index": -2}, "spatial_index -2"),
        (2, {"members": [[0, 3], [-3, -7]]}, "members -7"),
    ], ids=["frame", "slot", "members"])
    def test_load_negative_coordinate_names_file(self, tmp_path, record, edit, shown):
        save_compressed(small_cv(), small_report(), tmp_path)
        meta = tmp_path / "compressed.json"
        doc = json.loads(meta.read_text(encoding="utf-8"))
        doc["provenance"][record].update(edit)
        meta.write_text(json.dumps(doc), encoding="utf-8")
        message = f"{meta}: provenance coordinates must be non-negative: {shown}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_compressed(tmp_path)

    @pytest.mark.parametrize("edit,field,shown", [
        (lambda prov: prov[0].update(frame=0.7), "frame", "0.7"),
        (lambda prov: prov[1].update(spatial_index=True), "spatial_index", "True"),
        (lambda prov: prov[0].update(frame="0"), "frame", "'0'"),
        (lambda prov: prov[2]["members"][1].__setitem__(0, False), "members", "False"),
        (lambda prov: prov[0]["members"][0].append(2), "members", "(frame, slot) pairs"),
        (lambda prov: prov[2]["members"].append(3), "members", "(frame, slot) pairs"),
        (lambda prov: prov[2].pop("spatial_index"), "spatial_index", "missing field"),
        (lambda prov: prov[1].update(kind="merged"), "kind", "'merged'"),
    ], ids=["float-frame", "bool-slot", "string-frame", "bool-member", "triple-member",
            "scalar-member", "missing-slot", "unknown-kind"])
    def test_load_malformed_provenance_names_file_and_field(self, tmp_path, edit,
                                                            field, shown):
        save_compressed(small_cv(), small_report(), tmp_path)
        meta = tmp_path / "compressed.json"
        doc = json.loads(meta.read_text(encoding="utf-8"))
        edit(doc["provenance"])
        meta.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError) as info:
            load_compressed(tmp_path)
        message = str(info.value)
        assert message.startswith(f"{meta}: ") and field in message and shown in message

    @pytest.mark.parametrize("content, message", [
        (None, "metadata file not found: {meta}"),
        ("{", "malformed JSON in {meta}: Expecting property name enclosed in double "
              "quotes: line 1 column 2 (char 1)"),
        ("[]", "{meta}: expected a JSON object, got list"),
    ], ids=["missing", "malformed", "list"])
    def test_load_unreadable_metadata_names_file(self, tmp_path, content, message):
        save_compressed(small_cv(), small_report(), tmp_path)
        meta = tmp_path / "compressed.json"
        meta.unlink()
        if content is not None:
            meta.write_text(content, encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(message.format(meta=meta))}$"):
            load_compressed(tmp_path)

    def test_load_provenance_not_a_list_of_objects(self, tmp_path):
        save_compressed(small_cv(), small_report(), tmp_path)
        meta = tmp_path / "compressed.json"
        doc = json.loads(meta.read_text(encoding="utf-8"))
        doc["provenance"] = [[0, 0, "selected", []]]
        meta.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(str(meta))}: provenance must be"):
            load_compressed(tmp_path)

    def test_provenance_records_derived_once(self):
        cv = small_cv()
        assert cv.provenance is cv.provenance
        assert [p.kind for p in cv.provenance] == ["temporal_rep", "selected", "cluster_rep"]

    @pytest.mark.parametrize("field, value, message", [
        ("original_count", "abc", "report counts must be int64 integers: original_count 'abc'"),
        ("final_count", 1.5e400, "report counts must be int64 integers: final_count inf"),
        ("final_count", "nan", "report counts must be int64 integers: final_count 'nan'"),
        ("prefill_flops", "lots",
         "report ratios and FLOPs must be finite numbers: prefill_flops 'lots'"),
    ], ids=["original_count-abc", "final_count-inf", "final_count-nan", "prefill_flops-lots"])
    def test_load_unparsable_report_number_names_file(self, tmp_path, field, value, message):
        save_compressed(small_cv(), small_report(), tmp_path)
        meta = tmp_path / "compressed.json"
        doc = json.loads(meta.read_text(encoding="utf-8"))
        if field == "prefill_flops":
            doc["report"]["flops"]["prefill"] = value
        else:
            doc["report"][field] = value
        meta.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(f'{meta}: {message}')}$"):
            load_compressed(tmp_path)

    @pytest.mark.parametrize("case", sorted(BAD_REPORT_COUNTS))
    def test_report_counts_must_be_real_counts(self, case):
        doc, message = bad_report_doc(case)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            report_from_dict(doc)

    def test_load_report_count_beside_other_token_count_names_both(self, tmp_path):
        save_compressed(small_cv(), small_report(), tmp_path)  # three token rows
        meta = tmp_path / "compressed.json"
        doc = json.loads(meta.read_text(encoding="utf-8"))
        doc["report"] = report_to_dict(small_report(final=2))
        meta.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DataError, match=(
                f"^{re.escape(str(meta))}: final_count 2 does not match the 3 rows of "
                "tokens.npy$")):
            load_compressed(tmp_path)

    def test_report_from_dict_keeps_inconsistent_counts_text(self):
        doc = report_to_dict(small_report())
        doc["final_count"] = 99
        with pytest.raises(DataError, match="^inconsistent counts: 99 <= 8 <= 12 fails$"):
            report_from_dict(doc)

    def test_inconsistent_counts_rejected(self):
        with pytest.raises(DataError):
            CompressionReport(10, 12, 3, 0.5, 0.3, (), 1.0, 1.0)

    @pytest.mark.parametrize("prune, overall, message", [
        (0.5, 0.3, "temporal_prune_ratio inconsistent with counts"),
        (0.2, 0.4, "overall_retained_ratio inconsistent with counts"),
    ])
    def test_ratios_disagreeing_with_counts_rejected(self, prune, overall, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            CompressionReport(10, 8, 3, prune, overall, (), 1.0, 1.0)


# Each dump check, the dumps it is given at B frames, and the slots or rows
# those dumps hold per unit of B: an attention dump holds 196 float32
# entries per slot, and Q/K and hidden dumps 256 per row.
DUMP_CHECKS = {
    "attention": (lambda attn: importance_from_attention(attn, (14, 14)),
                  lambda b, rng: [rng.random((b, 196, 196), dtype=np.float32)], 196),
    "qk": (lambda q, k: importance_from_qk(q, k, (4, 4)),
           lambda b, rng: rng.standard_normal((2, 8 * b, 16, 256), dtype=np.float32), 8 * 16),
    "hidden": (check_hidden,
               lambda b, rng: [rng.standard_normal((128 * b, 256), dtype=np.float32)], 128),
}


@pytest.mark.parametrize("check", sorted(DUMP_CHECKS))
def test_dump_checks_grow_with_slots_not_entries(check):
    """From B to 4B frames, a dump check's traced peak grows by at most 64
    bytes (eight float64 values) per added slot or row; one bool per dump
    entry, for the finiteness test, would be 196 or 256."""
    run, dumps, units = DUMP_CHECKS[check]
    rng = np.random.default_rng(0)
    small, large = (traced_peak(run, *dumps(b, rng)) for b in (8, 32))
    assert large - small <= 64 * 24 * units
