"""The one score order: each frame's kept slots, the DPC-KNN density order
and centers, and the inner merge's retained tokens all read
``core._score_rank`` (larger score first, ties to the smaller index), so
flipping its tie rule moves every one of them on a corpus of planted ties."""

import numpy as np

from tokmerge import (
    CompressionConfig,
    ImportanceMap,
    InnerMergeInput,
    VideoTokenStream,
    compress,
    core,
    inner_merge,
    innerllm,
    spatial,
)

# Two frames on a 2x4 grid. Slots 0-3 repeat across the frames, so they form
# one segment's redundant set, merged to the points 1, 2, 4 and 5 on one
# axis: with k = 2 their densities tie in pairs (2 with 4, 1 with 5). Slots
# 4-7 turn by 90 degrees between the frames and are selected by importance.
# Every importance score and every last-token attention score is equal.
_POINTS = np.array([[1, 0], [2, 0], [4, 0], [5, 0]], dtype=np.float32)
_FRAMES = [np.concatenate((_POINTS, [[0, j] for j in range(1, 5)])),
           np.concatenate((_POINTS, [[j, 0] for j in range(1, 5)]))]
STREAM = VideoTokenStream(np.stack(_FRAMES).astype(np.float32), (2, 4))
IMPORTANCE = ImportanceMap(np.full((2, 8), 0.5), (2, 4))


def outcomes():
    """(selected (frame, slot) pairs, cluster center slots, retained indices)
    of the corpus: compress at target ratio 0.125 keeps one slot per frame
    and one center, and the inner merge at R = 50 keeps 8 of its 16 rows."""
    cv, _ = compress(STREAM, CompressionConfig(target_ratio=0.125), IMPORTANCE)
    frames, slots, kinds = cv.provenance_arrays[:3]
    selected = kinds == core.PROVENANCE_KINDS.index("selected")
    centers = kinds == core.PROVENANCE_KINDS.index("cluster_rep")
    hidden = STREAM.data.reshape(-1, 2)
    retained = inner_merge(InnerMergeInput(hidden, np.ones(hidden.shape[0])), 50)
    return (list(zip(frames[selected].tolist(), slots[selected].tolist())),
            slots[centers].tolist(), retained.retained_indices.tolist())


def test_ties_go_to_the_smaller_index():
    assert outcomes() == ([(0, 4), (1, 4)], [1], list(range(8)))


def test_one_flip_of_the_shared_order_moves_every_decision(monkeypatch):
    shared = core._score_rank
    assert spatial._score_rank is shared and innerllm._score_rank is shared

    def larger_index_first(scores):
        return shared(scores[..., ::-1])[..., ::-1]

    for module in (core, spatial, innerllm):
        monkeypatch.setattr(module, "_score_rank", larger_index_first)
    selected, centers, retained = outcomes()
    assert selected == [(0, 7), (1, 7)]
    assert centers == [2]
    assert retained == list(range(8, 16))
