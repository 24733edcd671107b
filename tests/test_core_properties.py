"""Properties: compressed.json against the json module, and the coordinate
checks of CompressedVideo against a per-coordinate loop."""

import json
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
    CompressionReport,
    DataError,
    TokenProvenance,
    save_compressed,
)
from tokmerge.core import PROVENANCE_KINDS, report_to_dict  # noqa: E402


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
@example((TokenProvenance(0, 5, "selected"), TokenProvenance(2**40, 0, "selected")),
         small_report())
def test_compressed_json_matches_json_module(prov, report):
    cv = CompressedVideo(np.zeros((len(prov), 3), dtype=np.float32), prov)
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
        CompressedVideo(tokens, prov)
    else:
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            CompressedVideo(tokens, prov)
