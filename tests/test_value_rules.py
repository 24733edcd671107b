"""The one integer rule and the one number rule (``core._is_integer`` and
``core._is_number``): config fields, report values and provenance
coordinates all read them, so admitting booleans as integers admits them
everywhere at once. CompressionReport checks its own values, so the
library, ``load_compressed`` and ``tokmerge report`` refuse a bad value
with one text."""

import dataclasses
import json
import numbers
import re

import numpy as np
import pytest

from tokmerge import (
    CompressedVideo,
    CompressionConfig,
    CompressionReport,
    ConfigError,
    DataError,
    ProvenanceArrays,
    core,
    load_compressed,
    save_compressed,
)
from tokmerge.cli import main
from tokmerge.core import report_from_dict, report_to_dict
from support import small_cv, small_report


def refused_booleans(tmp_path):
    """Which of three boolean integers are refused: ``knn_k`` true in a
    config, ``final_count`` true in a report document, and a provenance
    slot true in compressed.json. Each stands for 1, a valid value."""
    refused = []
    try:
        CompressionConfig(knn_k=True)
    except ConfigError:
        refused.append("config")
    doc = report_to_dict(small_report(final=1))
    doc["final_count"] = True
    try:
        report_from_dict(doc)
    except DataError:
        refused.append("report")
    save_compressed(small_cv(), small_report(), tmp_path)
    meta = tmp_path / "compressed.json"
    doc = json.loads(meta.read_text(encoding="utf-8"))
    doc["provenance"][1]["spatial_index"] = True  # the record's slot is 1
    meta.write_text(json.dumps(doc), encoding="utf-8")
    try:
        load_compressed(tmp_path)
    except DataError:
        refused.append("provenance")
    return refused


def test_booleans_are_not_integers(tmp_path):
    assert refused_booleans(tmp_path) == ["config", "report", "provenance"]


def test_one_integer_rule_decides_every_boolean(tmp_path, monkeypatch):
    monkeypatch.setattr(core, "_is_integer", lambda x: isinstance(x, numbers.Integral))
    assert refused_booleans(tmp_path) == []


def test_config_numpy_scalars_equal_plain_values():
    cfg = CompressionConfig(tau=np.float32(0.5), knn_k=np.int64(3), inner_layer_K=np.int64(3),
                            inner_ratio_R=np.int32(10), pooled_grid=(np.int64(2), 2))
    assert cfg == CompressionConfig(tau=0.5, knn_k=3, inner_layer_K=3, inner_ratio_R=10.0,
                                    pooled_grid=(2, 2))
    assert [type(v) for v in (cfg.tau, cfg.knn_k, cfg.inner_layer_K, cfg.inner_ratio_R,
                              *cfg.pooled_grid)] == [float, int, int, float, int, int]


@pytest.mark.parametrize("field, value, message", [
    ("tau", np.False_, "tau must be a number, got np.False_"),
    ("target_ratio", True, "target_ratio must be a number, got True"),
    ("knn_k", np.True_, 'knn_k must be an integer or "auto", got np.True_'),
    ("knn_k", 3.0, 'knn_k must be an integer or "auto", got 3.0'),
    ("inner_layer_K", np.True_, "inner_layer_K must be a non-negative integer, got np.True_"),
    ("pooled_grid", (np.True_, 2),
     "pooled_grid must be two positive integers [rows, cols], got (np.True_, 2)"),
], ids=["tau-np-bool", "target_ratio-bool", "knn_k-np-bool", "knn_k-float",
        "inner_layer_K-np-bool", "pooled_grid-np-bool"])
def test_config_booleans_and_floats_refused(field, value, message):
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        CompressionConfig(**{field: value})


COUNTS = "report counts must be int64 integers: "
NUMBERS = "report ratios and FLOPs must be finite numbers: "


@pytest.mark.parametrize("edits, message", [
    ({"original_count": 12.0}, COUNTS + "original_count 12.0"),
    ({"final_count": np.True_}, COUNTS + "final_count np.True_"),
    ({"after_temporal_count": 2**63}, COUNTS + "after_temporal_count 9223372036854775808"),
    ({"segment_boundaries": ((1, 3, 4), (3, 4.0, 0))},
     "report segments must be int64 integers: segments 4.0"),
    ({"temporal_prune_ratio": "0.33333333333333337"},
     NUMBERS + "temporal_prune_ratio '0.33333333333333337'"),
    ({"overall_retained_ratio": True}, NUMBERS + "overall_retained_ratio True"),
    ({"prefill_flops": float("nan")}, NUMBERS + "prefill_flops nan"),
    ({"baseline_flops": np.float32("inf")}, NUMBERS + "baseline_flops np.float32(inf)"),
    ({"baseline_flops": 10**400}, NUMBERS + f"baseline_flops {10**400}"),
], ids=["float-count", "np-bool-count", "count-beyond-int64", "float-segment",
        "string-ratio", "bool-ratio", "nan-flops", "np-inf-flops", "int-beyond-float"])
def test_report_values_checked_by_the_report(edits, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        dataclasses.replace(small_report(), **edits)


def test_numpy_report_values_save_and_load_back_equal(tmp_path):
    report = CompressionReport(np.int64(12), np.int64(8), np.int32(3), np.float64(1 - 8 / 12),
                               np.float32(0.25), np.array([[1, 3, 4], [3, 4, 0]]),
                               np.float64(1.5e11), np.int64(10**12))
    assert report == small_report()
    assert [type(getattr(report, f.name)) for f in dataclasses.fields(report)] == [
        int, int, int, float, float, tuple, float, float, float]
    assert {type(v) for seg in report.segment_boundaries for v in seg} == {int}
    save_compressed(small_cv(), report, tmp_path / "numpy")
    save_compressed(small_cv(), small_report(), tmp_path / "plain")
    assert load_compressed(tmp_path / "numpy")[1] == report
    assert ((tmp_path / "numpy" / "compressed.json").read_bytes()
            == (tmp_path / "plain" / "compressed.json").read_bytes())


# Report reals that load as floats under float(): (document path, JSON
# value, the field and value the DataError names)
BAD_REPORT_REALS = {
    "string-ratio": (("temporal_prune_ratio",), "0.33333333333333337",
                     "temporal_prune_ratio '0.33333333333333337'"),
    "nan-flops": (("flops", "prefill"), float("nan"), "prefill_flops nan"),
    "string-infinity": (("flops", "baseline"), "Infinity", "baseline_flops 'Infinity'"),
    "json-infinity": (("flops", "baseline"), float("inf"), "baseline_flops inf"),
    "string-flops-ratio": (("flops", "ratio"), "0.15", "flops.ratio '0.15'"),
    "nan-flops-ratio": (("flops", "ratio"), float("nan"), "flops.ratio nan"),
}


@pytest.mark.parametrize("case", sorted(BAD_REPORT_REALS))
def test_report_real_refused_alike_everywhere(tmp_path, capsys, case):
    keys, value, shown = BAD_REPORT_REALS[case]
    assert_refused_everywhere(tmp_path, capsys, keys, value, NUMBERS + shown)


# small_report's ratio is 1.5e11 / 1e12 = 0.15: (the value written in its
# place, or None to delete the key; the DataError report_from_dict raises)
BAD_FLOPS_RATIOS = {
    "half": (0.5, "flops.ratio inconsistent with prefill and baseline"),
    "next-float": (np.nextafter(1.5e11 / 1e12, 1.0).item(),
                   "flops.ratio inconsistent with prefill and baseline"),
    "missing": (None, "malformed report document: 'ratio'"),
}


@pytest.mark.parametrize("case", sorted(BAD_FLOPS_RATIOS))
def test_flops_ratio_must_be_prefill_over_baseline(tmp_path, capsys, case):
    value, message = BAD_FLOPS_RATIOS[case]
    assert_refused_everywhere(tmp_path, capsys, ("flops", "ratio"), value, message)


def test_flops_ratio_is_zero_on_a_zero_baseline():
    report = dataclasses.replace(small_report(), prefill_flops=0, baseline_flops=0)
    doc = report_to_dict(report)
    assert doc["flops"]["ratio"] == 0.0 and report_from_dict(doc) == report
    doc["flops"]["ratio"] = 1.0
    with pytest.raises(DataError, match="^flops.ratio inconsistent with prefill and baseline$"):
        report_from_dict(doc)


def assert_refused_everywhere(tmp_path, capsys, keys, value, message):
    """small_report's compressed.json with the value at ``keys`` replaced by
    ``value`` (deleted for None) is refused with ``message`` by
    report_from_dict, load_compressed and ``tokmerge report``."""
    save_compressed(small_cv(), small_report(), tmp_path / "v")
    meta = tmp_path / "v" / "compressed.json"
    doc = json.loads(meta.read_text(encoding="utf-8"))
    target = doc["report"]
    for key in keys[:-1]:
        target = target[key]
    if value is None:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    meta.write_text(json.dumps(doc), encoding="utf-8")

    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        report_from_dict(json.loads(meta.read_text(encoding="utf-8"))["report"])
    with pytest.raises(DataError, match=f"^{re.escape(f'{meta}: {message}')}$"):
        load_compressed(tmp_path / "v")
    capsys.readouterr()
    assert main(["report", "--reports", str(tmp_path), "--out", str(tmp_path / "agg")]) == 2
    assert capsys.readouterr().err == f"tokmerge: error: {meta}: {message}\n"


def test_save_refuses_final_count_other_than_rows(tmp_path):
    out = tmp_path / "out"
    save_compressed(small_cv(), small_report(), out)
    written = {p.name: p.read_bytes() for p in out.iterdir()}
    message = "^final_count 2 does not match the 3 rows of tokens.npy$"
    with pytest.raises(DataError, match=message):
        save_compressed(small_cv(), small_report(final=2), out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == written
    with pytest.raises(DataError, match=message):
        save_compressed(small_cv(), small_report(final=2), tmp_path / "new")
    assert not (tmp_path / "new").exists()


# Two records, the first absorbing (2, 0): the int64 columns of a valid video.
PROVENANCE = ProvenanceArrays(np.array([0, 1]), np.array([0, 0]), np.array([1, 0]),
                              np.array([0, 1, 1]), np.array([[2, 0]]))


@pytest.mark.parametrize("column, values, dtype", [
    ("frames", [0.5, 1.7], "float64"),
    ("frames", [False, True], "bool"),
    ("slots", np.zeros(2, dtype=np.float32), "float32"),
    ("kinds", [True, False], "bool"),
    ("member_offsets", [0.0, 1.0, 1.0], "float64"),
    ("members", [[2.0, 0.0]], "float64"),
], ids=["float-frames", "bool-frames", "float32-slots", "bool-kinds", "float-offsets",
        "float-members"])
def test_provenance_columns_need_an_integer_dtype(column, values, dtype):
    tokens = np.zeros((2, 3), dtype=np.float32)
    assert CompressedVideo(tokens, PROVENANCE).count == 2
    with pytest.raises(DataError, match=(
            f"^provenance {column} must have an integer dtype, got {dtype}$")):
        CompressedVideo(tokens, PROVENANCE._replace(**{column: values}))


def test_empty_provenance_columns_take_any_dtype():
    cv = CompressedVideo(np.zeros((0, 3)), ProvenanceArrays([], [], [], [0], np.zeros((0, 2))))
    assert cv.count == 0
    assert all(a.dtype == np.int64 for a in cv.provenance_arrays)


@pytest.mark.parametrize("column, values, shown", [
    ("frames", np.array([0, 2**63], dtype=np.uint64), "frame 9223372036854775808"),
    ("slots", np.array([0, 2**64 - 1], dtype=np.uint64), "spatial_index 18446744073709551615"),
    ("members", np.array([[2**63, 0]], dtype=np.uint64), "members 9223372036854775808"),
], ids=["frames", "slots", "members"])
def test_unsigned_provenance_past_int64_refused(column, values, shown):
    """An unsigned coordinate past int64 is refused with load_compressed's
    text, not wrapped to a negative one; the int64 maximum is kept."""
    tokens = np.zeros((2, 3), dtype=np.float32)
    message = f"provenance coordinates must be int64 integers: {shown}"
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        CompressedVideo(tokens, PROVENANCE._replace(**{column: values}))
    largest = np.minimum(values, np.uint64(2**63 - 1))
    kept = CompressedVideo(tokens, PROVENANCE._replace(**{column: largest}))
    assert getattr(kept.provenance_arrays, column).max() == 2**63 - 1


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "0.5"])
def test_histogram_bin_follows_the_number_rule(value):
    with pytest.raises(DataError, match=re.escape(
            f"{NUMBERS}per_video_histogram_bin {value!r}")):
        dataclasses.replace(small_report(), per_video_histogram_bin=value)
    assert small_report().per_video_histogram_bin == small_report().temporal_prune_ratio
    report = dataclasses.replace(small_report(), per_video_histogram_bin=np.float32(0.5))
    assert type(report.per_video_histogram_bin) is float
    assert report.per_video_histogram_bin == 0.5
