"""Properties: compressed.json against the json module, the coordinate
checks of CompressedVideo against a per-coordinate loop, the provenance
arrays against the records, and spatial_merge's coverage of the stream."""

import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from tokmerge import (  # noqa: E402
    CompressedVideo,
    CompressionConfig,
    CompressionReport,
    DataError,
    ImportanceMap,
    TokenProvenance,
    VideoTokenStream,
    apply_temporal_merge,
    optimal_segmentation,
    pairwise_redundancy,
    save_compressed,
    spatial_merge,
)
from tokmerge.core import PROVENANCE_KINDS, TEMPORAL_MERGE_MODES, report_to_dict  # noqa: E402
from test_core import arrays  # noqa: E402


# small values make repeats likely; the full int64 range exercises the
# encoder with large frame and slot values
coordinates = st.one_of(st.integers(0, 40), st.integers(-2**63, 2**63 - 1))


@st.composite
def provenances(draw, coord=coordinates, unique=True):
    """Records with strictly ascending survivors; members may repeat unless unique."""
    survivors = sorted(draw(st.lists(st.tuples(coord, coord), unique=True, max_size=12)))
    if unique:
        used = set(survivors)
        pool = draw(st.lists(st.tuples(coord, coord), unique=True, max_size=30))
        pool = [m for m in pool if m not in used]
    else:
        pool = draw(st.lists(st.tuples(coord, coord), max_size=30))
    members = [[] for _ in survivors]
    if survivors:
        for m in pool:
            members[draw(st.integers(0, len(survivors) - 1))].append(m)
    return tuple(
        TokenProvenance(f, s, draw(st.sampled_from(PROVENANCE_KINDS)), tuple(ms))
        for (f, s), ms in zip(survivors, members))


def small_report():
    return CompressionReport(12, 8, 3, 1 - 8 / 12, 3 / 12, ((1, 3, 4), (3, 4, 0)),
                             1.5e11, 1e12)


@st.composite
def reports(draw):
    original = draw(st.integers(1, 10**9))
    after = draw(st.integers(0, original))
    final = draw(st.integers(0, after))
    segments = draw(st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6),
                                       st.integers(0, 10**9)), max_size=4))
    flops = st.floats(0, 1e18, allow_nan=False)
    return CompressionReport(original, after, final, 1 - after / original,
                             final / original, tuple(segments), draw(flops), draw(flops))


@settings(max_examples=200, deadline=None)
@given(provenances(), reports())
@example((), small_report())
@example((TokenProvenance(0, 5, "selected", ()), TokenProvenance(2**40, 0, "selected", ())),
         small_report())
@example((TokenProvenance(-2**63, 2**63 - 1, "cluster_rep", ((2**63 - 1, -2**63), (0, 0))),
          TokenProvenance(-2**63 + 1, 0, "temporal_rep", ()),
          TokenProvenance(2**63 - 1, -1, "selected", ((-1, 2**63 - 1),))),
         small_report())
def test_compressed_json_matches_json_module(prov, report):
    cv = CompressedVideo(np.zeros((len(prov), 3), dtype=np.float32), arrays(prov))
    doc = {
        "provenance": [{"frame": p.frame, "spatial_index": p.spatial_index,
                        "kind": p.kind, "members": [list(m) for m in p.members]}
                       for p in prov],
        "report": report_to_dict(report),
    }
    with tempfile.TemporaryDirectory() as out:
        save_compressed(cv, report, out)
        written = (Path(out) / "compressed.json").read_text(encoding="utf-8")
    assert written == json.dumps(doc, indent=1) + "\n"


def first_repeat_message(prov):
    seen = {(p.frame, p.spatial_index) for p in prov}
    for p in prov:
        for m in p.members:
            if m in seen:
                return f"token coordinate {m} appears twice"
            seen.add(m)
    return None


@settings(max_examples=300, deadline=None)
@given(provenances(coord=st.integers(0, 6), unique=False))
def test_repeated_coordinate_named_like_the_loop(prov):
    tokens = np.zeros((len(prov), 1), dtype=np.float32)
    message = first_repeat_message(prov)
    if message is None:
        CompressedVideo(tokens, arrays(prov))
    else:
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            CompressedVideo(tokens, arrays(prov))


@settings(max_examples=200, deadline=None)
@given(provenances())
def test_records_to_arrays_to_records_is_identity(prov):
    cv = CompressedVideo(np.zeros((len(prov), 2), dtype=np.float32), arrays(prov))
    frames, slots, kinds, offsets, members = cv.provenance_arrays
    assert frames.tolist() == [p.frame for p in prov]
    assert slots.tolist() == [p.spatial_index for p in prov]
    assert kinds.tolist() == [PROVENANCE_KINDS.index(p.kind) for p in prov]
    assert np.diff(offsets).tolist() == [len(p.members) for p in prov] and offsets[0] == 0
    assert members.reshape(-1, 2).tolist() == [list(m) for p in prov for m in p.members]
    assert cv.provenance == prov
    again = CompressedVideo(cv.tokens, cv.provenance_arrays)
    assert again.provenance == prov


@st.composite
def pipelines(draw):
    """A small stream with one planted redundant run, its temporal merge,
    random importance and a config that passes through or clusters."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b, h, w, d = draw(st.integers(1, 7)), draw(st.integers(1, 3)), draw(st.integers(1, 4)), 6
    data = rng.standard_normal((b, h * w, d)).astype(np.float32)
    start = draw(st.integers(0, b - 1))
    end = draw(st.integers(start + 1, b))
    slots = rng.random(h * w) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    data[start:end, slots] = data[start, slots]
    stream = VideoTokenStream(data, (h, w))
    mask = pairwise_redundancy(stream, 0.8)
    mode = draw(st.sampled_from(TEMPORAL_MERGE_MODES))
    tmr = apply_temporal_merge(stream, optimal_segmentation(mask), mask, mode)
    imp = ImportanceMap(rng.random((b, h * w)), (h, w))  # pooled to the grid itself
    ratio = draw(st.sampled_from([1.0, 0.7, 0.4, 0.2, 0.05]))
    return tmr, imp, CompressionConfig(target_ratio=ratio, temporal_merge_mode=mode)


@settings(max_examples=150, deadline=None)
@given(pipelines())
def test_spatial_merge_covers_every_token_once_or_drops_it(pipeline):
    """Survivors and members cover each (frame, slot) at most once, and with
    the tokens attention selection dropped they make up all B * N_v."""
    tmr, imp, cfg = pipeline
    b, n_v = tmr.stream.frames, tmr.stream.tokens_per_frame
    pa = spatial_merge(tmr, imp, cfg).provenance_arrays
    covered = np.concatenate((np.stack((pa.frames, pa.slots), axis=1), pa.members))
    assert ((covered >= 0) & (covered < (b, n_v))).all()
    keys = covered[:, 0] * n_v + covered[:, 1]
    assert np.unique(keys).size == keys.size

    target = math.ceil(cfg.target_ratio * b * n_v)
    pass_through = tmr.survivor_count <= target
    rep = "temporal_rep" if pass_through else "cluster_rep"
    assert set(pa.kinds.tolist()) <= {0, PROVENANCE_KINDS.index(rep)}
    dropped = set()
    for (s, e), red in zip(tmr.plan.segments(), tmr.redundant):
        surv = np.flatnonzero(~red)
        keep = surv.size if pass_through else math.ceil(target / tmr.survivor_count * surv.size)
        for f in range(s - 1, e - 1):
            selected = pa.slots[pa.frames == f]
            lost = np.setdiff1d(surv, selected)
            assert lost.size == surv.size - keep
            dropped.update((f * n_v + lost).tolist())
    assert keys.size + len(dropped) == b * n_v
    assert dropped.isdisjoint(keys.tolist())
