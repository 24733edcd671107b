"""Properties: compressed.json and inner.json against the json module, the
coordinate checks of CompressedVideo against per-coordinate loops, the
provenance arrays against the records, and spatial_merge's coverage of the
stream."""

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
    InnerMergeInput,
    SynthSpec,
    TokenProvenance,
    VideoTokenStream,
    apply_temporal_merge,
    compress,
    generate,
    inner_merge,
    optimal_segmentation,
    pairwise_redundancy,
    save_compressed,
    spatial_merge,
)
from tokmerge.core import (  # noqa: E402
    PROVENANCE_KINDS, TEMPORAL_MERGE_MODES, report_to_dict, save_inner)
from support import arrays, small_report  # noqa: E402


# small values make repeats likely; the full non-negative int64 range
# exercises the encoder with large frame and slot values
coordinates = st.one_of(st.integers(0, 40), st.integers(0, 2**63 - 1))


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


@st.composite
def reports(draw, final):
    """Consistent reports whose final_count is ``final``."""
    original = draw(st.integers(max(final, 1), 10**9))
    after = draw(st.integers(final, original))
    segments = draw(st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6),
                                       st.integers(0, 10**9)), max_size=4))
    flops = st.floats(0, 1e18, allow_nan=False)
    return CompressionReport(original, after, final, 1 - after / original,
                             final / original, tuple(segments), draw(flops), draw(flops))


@settings(max_examples=200, deadline=None)
@given(provenances().flatmap(lambda prov: st.tuples(st.just(prov), reports(len(prov)))))
@example(((), small_report(final=0)))
@example(((TokenProvenance(0, 5, "selected", ()), TokenProvenance(2**40, 0, "selected", ())),
          small_report(final=2)))
@example(((TokenProvenance(0, 2**63 - 1, "cluster_rep", ((2**63 - 1, 0), (1, 1))),
           TokenProvenance(1, 0, "temporal_rep", ()),
           TokenProvenance(2**63 - 1, 2**63 - 2, "selected", ((2**63 - 2, 2**63 - 1),))),
          small_report()))
def test_compressed_json_matches_json_module(case):
    assert_saved_like_json_module(*case)


def assert_saved_like_json_module(prov, report):
    """save_compressed's compressed.json is json.dumps(doc, indent=1) plus a
    newline; ``report.final_count`` is ``len(prov)``, as save_compressed requires."""
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


@st.composite
def run_provenances(draw):
    """Records whose members are runs of 1-40 consecutive frames of one slot,
    cut into records anywhere, so a run may continue across a record
    boundary; the frames may end at the largest int64."""
    runs = draw(st.lists(st.tuples(st.integers(1, 40), st.integers(0, 2), st.integers(0, 2)),
                         min_size=1, max_size=12))  # (length, gap before, slot)
    members, frame = [], 0
    for length, gap, slot in runs:
        frame += gap
        members += [(frame + i, 1000 + slot) for i in range(length)]
        frame += length
    shift = draw(st.sampled_from([0, 2**63 - 1 - members[-1][0]]))
    members = [(f + shift, s) for f, s in members]
    cuts = sorted(draw(st.lists(st.integers(0, len(members)), max_size=8)))
    bounds = [0, *cuts, len(members)]
    return tuple(TokenProvenance(i, 0, draw(st.sampled_from(PROVENANCE_KINDS)),
                                 tuple(members[a:b]))
                 for i, (a, b) in enumerate(zip(bounds, bounds[1:])))


def run_records(*records):
    """Records (kind, [(first frame, length, slot), ...]) as TokenProvenance."""
    return tuple(TokenProvenance(i, 0, kind, tuple((f + j, s) for f, n, s in runs
                                                  for j in range(n)))
                 for i, (kind, runs) in enumerate(records))


def pipeline_output(target_ratio):
    """(provenance, report) of compress on a synth corpus with long redundant
    runs: every record a temporal rep at ratio 1, cluster reps below it."""
    spec = SynthSpec(frames=24, grid=(3, 4), dim=8, segments=((10, 0.75), (8, 0.5), (6, 1.0)),
                     noise_sigma=0.01, seed=4)
    stream, _ = generate(spec)
    imp = ImportanceMap(np.random.default_rng(4).random((24, 12)), (3, 4))
    cv, report = compress(stream, CompressionConfig(target_ratio=target_ratio), imp)
    return cv.provenance, report


@settings(max_examples=200, deadline=None)
@given(run_provenances().flatmap(lambda prov: st.tuples(st.just(prov), reports(len(prov)))))
@example((run_records(("cluster_rep", [(0, 31, 5), (40, 2, 6), (50, 1, 7), (60, 12, 8)])),
          small_report(final=1)))  # long and short runs in one record
@example((run_records(("temporal_rep", [(0, 6, 5)]), ("temporal_rep", [(6, 6, 5)]),
                      ("selected", [])), small_report()))  # a run across a record boundary
@example((run_records(("cluster_rep", [(0, 3, 5), (3, 5, 6)]), ("cluster_rep", [(9, 3, 5)]),
                      ("temporal_rep", [(20, 4, 5)])), small_report()))  # mean 4, then 3
@example(pipeline_output(1.0))
@example(pipeline_output(0.3))
def test_run_shaped_compressed_json_matches_json_module(case):
    assert_saved_like_json_module(*case)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 30), st.one_of(st.floats(0, 99.9), st.sampled_from([0.0, 1e-05, 50.0])),
       st.integers(0, 40), st.integers(0, 2**32 - 1))
@example(1, 50.0, 18, 0)  # a single token
@example(7, 0.0, 0, 1)  # R = 0: "assignment": {}
@example(9, 1e-05, 3, 2)  # a ratio whose repr has an exponent
@example(30, 99.9, 40, 3)
def test_inner_json_matches_json_module(n, ratio, layer, seed):
    rng = np.random.default_rng(seed)
    hidden = rng.standard_normal((n, 4)).astype(np.float32)
    result = inner_merge(InnerMergeInput(hidden, rng.random(n)), ratio)
    cfg = CompressionConfig(inner_layer_K=layer, inner_ratio_R=ratio)
    doc = {"retained_indices": result.retained_indices.tolist(),
           "assignment": {str(k): v for k, v in result.assignment.items()},
           "layer_K": layer, "ratio_R": cfg.inner_ratio_R}
    with tempfile.TemporaryDirectory() as out:
        save_inner(result, cfg, out)
        written = Path(out, "inner.json").read_text(encoding="utf-8")
    assert written == json.dumps(doc, indent=1) + "\n"


def negative_message(prov):
    """The refusal of the first coordinate column, in frame, slot, members
    order, whose smallest value is negative; None when there is none."""
    columns = {"frame": [p.frame for p in prov], "spatial_index": [p.spatial_index for p in prov],
               "members": [v for p in prov for m in p.members for v in m]}
    for field, values in columns.items():
        if min(values, default=0) < 0:
            return f"provenance coordinates must be non-negative: {field} {min(values)}"
    return None


@settings(max_examples=200, deadline=None)
@given(provenances(coord=st.one_of(st.integers(-3, 40), st.integers(-2**63, 2**63 - 1))))
@example((TokenProvenance(-2**63, 2**63 - 1, "cluster_rep", ((2**63 - 1, -2**63), (0, 0))),
          TokenProvenance(-2**63 + 1, 0, "temporal_rep", ()),
          TokenProvenance(2**63 - 1, -1, "selected", ((-1, 2**63 - 1),))))
@example((TokenProvenance(0, 0, "cluster_rep", ((-3, -7),)),))
def test_negative_coordinate_refused(prov):
    tokens = np.zeros((len(prov), 1), dtype=np.float32)
    message = negative_message(prov)
    if message is None:
        CompressedVideo(tokens, arrays(prov))
    else:
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            CompressedVideo(tokens, arrays(prov))


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
