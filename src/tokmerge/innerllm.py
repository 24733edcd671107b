"""Inner-LLM merge simulation at a fixed layer.

Vision tokens are ranked by the attention the final prompt token pays them;
the lowest-R% become merge candidates and are averaged into the retained
token whose hidden state is most cosine-similar. Pure array transform over
dumped hidden states; no model execution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, _checked, _cosine, _gram, _group_mean, _row_norms, _score_rank, _split

# Candidate rows scored per block, and retained rows gathered per block by
# the exact recheck. A block's float32 similarities take
# _ASSIGN_CHUNK * N_r * 4 bytes (98 MB for N_r = 12,500 retained tokens), so
# the assignment holds O(chunk * N) memory rather than the dense N_c x N_r
# matrix; blocks this tall keep the float32 product near its BLAS speed.
_ASSIGN_CHUNK = 2048

def check_hidden(hidden) -> np.ndarray:
    """Hidden states as a C-contiguous float32 (N, d) array of finite values.

    Finiteness is the precondition of the error band in _assign.
    A non-real dtype, a non-finite value or one beyond float32 range raises
    DataError, the last two with their flat offset.
    """
    hidden = np.asarray(hidden)
    if hidden.ndim != 2:
        raise DataError(f"hidden states must be 2-D, got rank {hidden.ndim}")
    return _checked(hidden, dtype=np.float32)


def check_last_attn(last_attn) -> np.ndarray:
    """Attention scores as a float64 (N,) array of finite non-negative values;
    any other rank, a non-real dtype or a non-finite value (with its flat
    offset) raises DataError."""
    attn = np.asarray(last_attn)
    if attn.ndim != 1:
        raise DataError(f"attention row must be 1-D (N,), got shape {attn.shape}")
    attn = _checked(attn, dtype=np.float64)
    if (attn < 0).any():
        raise DataError("attention scores must be non-negative")
    return attn


@dataclass(frozen=True)
class InnerMergeInput:
    """Layer-K vision-token hidden states plus the last prompt token's attention row."""

    hidden: np.ndarray     # (N, d), finite
    last_attn: np.ndarray  # (N,), finite and non-negative

    def __post_init__(self):
        hidden = check_hidden(self.hidden)
        attn = check_last_attn(self.last_attn)
        if attn.shape[0] != hidden.shape[0]:
            raise DataError(
                f"{attn.shape[0]} attention scores for {hidden.shape[0]} tokens")
        object.__setattr__(self, "hidden", hidden)
        object.__setattr__(self, "last_attn", attn)


@dataclass(frozen=True)
class InnerMergeResult:
    retained_indices: np.ndarray      # ascending
    updated: np.ndarray               # (retained, d)
    assignment: dict[int, int]        # candidate index -> retained index


def retained_count(n: int, ratio_r: float) -> int:
    """Tokens left after merging the bottom R% of ``n``: N - floor(R*N/100).

    The one rule for this count: inner_merge keeps this many and
    cost.layer_token_counts prices it after layer K. R < 100 keeps at least
    one token for every N >= 1.
    """
    if not 0 <= ratio_r < 100:
        raise DataError(f"merge ratio must be in [0, 100), got {ratio_r}")
    return n - int(ratio_r * n / 100)


def _rank(scores: np.ndarray, ratio_r: float) -> tuple[np.ndarray, np.ndarray]:
    """Split indices into (retained, candidates) by the bottom-R% of scores
    that check_last_attn returned.

    The first retained_count(N, R) tokens of the score order (larger score
    first, ties to the smaller index) are kept, and the rest are the
    candidates: on ties the larger index becomes the candidate. Both lists
    come back ascending.
    """
    kept = _score_rank(scores) < retained_count(scores.shape[0], ratio_r)
    return np.flatnonzero(kept), np.flatnonzero(~kept)


def _unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 norms of gathered float32 ``rows`` and the rows scaled in
    place to float32 unit rows: each row times its float64 reciprocal norm,
    rounded to float32. A zero row stays zero."""
    norms = _row_norms(rows)
    scale = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    return norms, np.multiply(rows, scale[:, None], out=rows, casting="same_kind")


def _exact_argmax(hidden: np.ndarray, cand: int, cols: np.ndarray, cand_norm: float,
                  col_norms: np.ndarray) -> int:
    """Position in ``cols`` of the first maximum of ``core._cosine`` of
    ``hidden[cand]`` with each ``hidden[cols]`` row, over the float64 norms
    ``_unit_rows`` returned. Equal retained vectors score equal bits; the
    smaller position wins."""
    return int(np.argmax(np.concatenate([
        _cosine(hidden[cols[lo : lo + _ASSIGN_CHUNK]], hidden[cand],
                col_norms[lo : lo + _ASSIGN_CHUNK], cand_norm)
        for lo in range(0, cols.size, _ASSIGN_CHUNK)])))


def _assign(candidates: np.ndarray, retained: np.ndarray, hidden: np.ndarray) -> np.ndarray:
    """Position in ``retained`` of each candidate's most cosine-similar
    retained token, as an int64 array aligned with ``candidates``.

    Both are int64 indices into ``hidden``, check_hidden's finite float32
    rows, and ``retained`` may be empty only when ``candidates`` is. The
    similarity is the float64 cosine of the hidden rows; zero-norm vectors
    have similarity 0 against everything, and ties go to the earlier
    position.

    Candidates are scored in blocks of ``_ASSIGN_CHUNK`` rows, each block in
    ``_split`` pieces: gather, unit rows, float32 product with the retained
    unit rows (so every float32 score is a cosine), argmax and gap. A zero
    candidate, or one whose best score leads the runner-up by more than
    twice a proven error band, is decided there; every other one is
    recomputed in float64 against the retained tokens within twice the band
    of its best, on the calling thread once the block is scored. So the
    positions do not depend on how the product sums.
    """
    d = hidden.shape[1]
    # Error band. Let u = 2**-24. Both operands of the float32 product are
    # unit rows: a float32 entry times a float64 reciprocal norm (relative
    # error below (d + 4) * 2**-53), rounded to float32 (relative error u).
    # So each entry lies within about 1.01*u of the exact unit vector's
    # entry for d <= 2**21, and by Cauchy-Schwarz the rounded inputs move a
    # score by at most about 2.03*u. Whatever its summation order, the
    # float32 product of the rounded rows errs by at most
    # g * sum|c_i*r_i| <= 1.01 * g with g = d*u / (1 - d*u) <= 8/7 * d*u for
    # d*u <= 1/8. Subnormal entries and products add at most 3*d * 2**-150,
    # far below u. So a score is within 2.03*u + 1.16*d*u of the exact
    # cosine, and the float64 cosine, in any summation order, within about
    # (2*d + 6) * 2**-53 of it. All together stay below (2*d + 3) * u, and
    # 1e-12 is a further margin. So when the best float32 score leads every
    # other by more than twice the band, the float64 cosine has its unique
    # maximum there too; and a retained token scoring more than twice the
    # band below the best can never be the float64 maximum.
    band = (2 * d + 3) * 2.0**-24 + 1e-12 if d <= 2**21 else np.inf
    r_norms, r_units = _unit_rows(hidden[retained])
    slots = np.empty(candidates.size, dtype=np.int64)
    block = np.empty((min(candidates.size, _ASSIGN_CHUNK), retained.size), dtype=np.float32)
    c_norms, top, gap = np.empty((3, block.shape[0]))
    best = np.empty(block.shape[0], dtype=np.int64)
    for lo in range(0, candidates.size, _ASSIGN_CHUNK):
        cand = candidates[lo : lo + _ASSIGN_CHUNK]
        n = cand.size
        sims = block[:n]

        def score(a, b):  # rows [a, b) of the block
            c_norms[a:b], units = _unit_rows(hidden[cand[a:b]])
            part = _gram(units, r_units, out=sims[a:b])
            at = np.arange(b - a), part.argmax(axis=1)
            best[a:b], top[a:b] = at[1], part[at]
            part[at] = -np.inf
            gap[a:b] = top[a:b] - part.max(axis=1)
            part[at] = top[a:b]
        _split(n, score, blas=True)
        # a zero candidate scores 0 everywhere, exactly as in float64
        sure = (c_norms[:n] == 0) | (gap[:n] > 2 * band)
        slots[lo : lo + n] = best[:n]
        for i in np.flatnonzero(~sure):
            near = np.flatnonzero(sims[i] >= top[i] - 2 * band)
            slots[lo + i] = near[_exact_argmax(hidden, cand[i], retained[near],
                                               c_norms[i], r_norms[near])]
    return slots


def _merge(hidden: np.ndarray, retained: np.ndarray, candidates: np.ndarray,
           slots: np.ndarray) -> InnerMergeResult:
    """Average each retained token with the candidates assigned to it.

    ``slots[i]`` is the position in ``retained`` of the token that
    ``candidates[i]`` merges into; all three are int64 arrays, and
    ``candidates`` is ascending, as _rank and _assign return them. A
    retained token with n assignees becomes the mean of the n + 1 hidden
    states: a float64 sum from +0.0 of its own row, then of its candidates
    in ascending index order, divided by n + 1 and narrowed to the hidden
    dtype. Unassigned retained tokens pass through unchanged (a -0.0 entry
    becomes +0.0).
    """
    # each retained row first, then its candidates in ascending index order
    groups = np.concatenate((np.arange(retained.size), slots))
    members = np.concatenate((retained, candidates))[np.argsort(groups, kind="stable")]
    updated = _group_mean(hidden, members, np.bincount(groups, minlength=retained.size))
    return InnerMergeResult(
        retained_indices=retained, updated=updated,
        assignment=dict(zip(candidates.tolist(), retained[slots].tolist())))


def inner_merge(inp: InnerMergeInput, ratio_r: float) -> InnerMergeResult:
    """Merge the bottom R% of tokens by last-token attention, each into its
    most cosine-similar retained token: _rank, _assign and _merge over the
    arrays ``inp`` checked on construction. Any other ``inp`` raises TypeError."""
    if not isinstance(inp, InnerMergeInput):
        raise TypeError(f"expected InnerMergeInput, got {type(inp).__name__}")
    retained, candidates = _rank(inp.last_attn, ratio_r)
    return _merge(inp.hidden, retained, candidates, _assign(candidates, retained, inp.hidden))
