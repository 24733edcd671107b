"""Inner-LLM merge simulation at a fixed layer.

Vision tokens are ranked by the attention the final prompt token pays them;
the lowest-R% become merge candidates and are averaged into the retained
token whose hidden state is most cosine-similar. Pure array transform over
dumped hidden states; no model execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError


@dataclass(frozen=True)
class InnerMergeInput:
    """Layer-K vision-token hidden states plus the last prompt token's attention row."""

    hidden: np.ndarray     # (N, d)
    last_attn: np.ndarray  # (N,), non-negative

    def __post_init__(self):
        hidden = np.ascontiguousarray(np.asarray(self.hidden, dtype=np.float32))
        attn = np.asarray(self.last_attn, dtype=np.float64).ravel()
        if hidden.ndim != 2:
            raise DataError(f"hidden states must be 2-D, got rank {hidden.ndim}")
        if attn.shape[0] != hidden.shape[0]:
            raise DataError(
                f"{attn.shape[0]} attention scores for {hidden.shape[0]} tokens")
        if (attn < 0).any():
            raise DataError("attention scores must be non-negative")
        object.__setattr__(self, "hidden", hidden)
        object.__setattr__(self, "last_attn", attn)


@dataclass(frozen=True)
class InnerMergeResult:
    retained_indices: np.ndarray      # ascending
    updated: np.ndarray               # (retained, d)
    assignment: dict[int, int]        # candidate index -> retained index


def rank_by_last_attention(last_attn: np.ndarray, ratio_r: float) -> tuple[np.ndarray, np.ndarray]:
    """Split indices into (retained, candidates) by the bottom-R% scores.

    floor(R*N/100) candidates are taken from the lowest scores; on ties the
    larger index becomes the candidate (smaller indices are preferentially
    retained). Both lists come back ascending.
    """
    if not 0 <= ratio_r < 100:
        raise DataError(f"merge ratio must be in [0, 100), got {ratio_r}")
    scores = np.asarray(last_attn, dtype=np.float64).ravel()
    n = scores.shape[0]
    n_cand = int(ratio_r * n / 100)
    # primary key: score ascending; secondary: index descending
    order = np.lexsort((-np.arange(n), scores))
    candidates = np.sort(order[:n_cand])
    retained = np.sort(order[n_cand:])
    return retained, candidates


def similarity_assign(
    candidates: np.ndarray,
    retained: np.ndarray,
    hidden: np.ndarray,
) -> dict[int, int]:
    """Map each candidate to its most cosine-similar retained token.

    Ties go to the smaller retained index; zero-norm vectors have
    similarity 0 against everything.
    """
    candidates = np.asarray(candidates, dtype=np.int64)
    retained = np.asarray(retained, dtype=np.int64)
    if candidates.size == 0:
        return {}
    if retained.size == 0:
        raise DataError("cannot assign candidates: retained set is empty")
    hidden = np.asarray(hidden, dtype=np.float64)
    cand_vecs = hidden[candidates]
    ret_vecs = hidden[retained]
    dots = cand_vecs @ ret_vecs.T
    cn = np.linalg.norm(cand_vecs, axis=1)
    rn = np.linalg.norm(ret_vecs, axis=1)
    denom = cn[:, None] * rn[None, :]
    sims = np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)
    best = np.argmax(sims, axis=1)  # first max = smallest retained index
    return {int(c): int(retained[b]) for c, b in zip(candidates, best)}


def merge_assigned(
    hidden: np.ndarray,
    retained: np.ndarray,
    assignment: dict[int, int],
) -> InnerMergeResult:
    """Average each retained token with its assigned candidates.

    A retained token with n assignees becomes the unweighted mean of the
    n + 1 hidden states; unassigned retained tokens pass through unchanged.
    """
    hidden = np.asarray(hidden)
    retained = np.asarray(retained, dtype=np.int64)
    ret_pos = {int(r): i for i, r in enumerate(retained)}
    groups: dict[int, list[int]] = {int(r): [int(r)] for r in retained}
    for cand, ret in assignment.items():
        if ret not in groups:
            raise DataError(f"assignment target {ret} is not a retained index")
        groups[ret].append(int(cand))
    updated = np.empty((retained.shape[0], hidden.shape[1]), dtype=hidden.dtype)
    for ret, members in groups.items():
        updated[ret_pos[ret]] = hidden[members].mean(
            axis=0, dtype=np.float64).astype(hidden.dtype)
    return InnerMergeResult(retained_indices=retained, updated=updated,
                            assignment=dict(assignment))


def inner_merge(inp: InnerMergeInput, ratio_r: float) -> InnerMergeResult:
    """rank -> assign -> merge, as one call."""
    retained, candidates = rank_by_last_attention(inp.last_attn, ratio_r)
    assignment = similarity_assign(candidates, retained, inp.hidden)
    return merge_assigned(inp.hidden, retained, assignment)
