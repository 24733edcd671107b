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
# Float64 row norms that certify a row for the float32 decision (0 also
# does). Retained rows are scaled to unit length, so only float64 overflow
# and underflow bound theirs; candidate rows enter the float32 product
# unscaled, so theirs keep float32 overflow and underflow negligible. Other
# rows are decided by the exact recheck.
_RETAINED_NORMS = (2.0**-400, 2.0**400)
_CANDIDATE_NORMS = (2.0**-60, 2.0**60)


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

    @classmethod
    def _of_checked(cls, hidden: np.ndarray, last_attn: np.ndarray) -> InnerMergeInput:
        """The input of arrays that check_hidden and check_last_attn
        returned, with equal row counts, not checked a second time."""
        inp = object.__new__(cls)
        object.__setattr__(inp, "hidden", hidden)
        object.__setattr__(inp, "last_attn", last_attn)
        return inp


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


def _certified(norms: np.ndarray, bounds: tuple[float, float]) -> np.ndarray:
    return (norms == 0) | ((norms >= bounds[0]) & (norms <= bounds[1]))


def _unit_rows(hidden: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Float64 norms of ``hidden[idx]`` and its rows as float32 unit rows.

    Each row is scaled in float64 and narrowed to float32; a zero or
    uncertified norm gives a zero row.
    """
    rows = hidden[idx]
    norms = _row_norms(rows)
    scale = np.divide(1.0, norms, out=np.zeros_like(norms),
                      where=_certified(norms, _RETAINED_NORMS) & (norms > 0))
    with np.errstate(over="ignore", invalid="ignore"):  # uncertified rows
        units = rows.astype(np.float32, copy=False)
        np.multiply(units, scale[:, None], out=units, casting="same_kind")
    units[scale == 0] = 0.0
    return norms, units


def _exact_argmax(hidden: np.ndarray, cand: int, cols: np.ndarray, cand_norm: float,
                  col_norms: np.ndarray) -> int:
    """Position in ``cols`` of the first maximum of ``core._cosine`` of
    ``hidden[cand]`` with each ``hidden[cols]`` row, over the certification's
    norms. Equal retained vectors score equal bits; the smaller position wins."""
    return int(np.argmax(np.concatenate([
        _cosine(hidden[cols[lo : lo + _ASSIGN_CHUNK]], hidden[cand],
                col_norms[lo : lo + _ASSIGN_CHUNK], cand_norm)
        for lo in range(0, cols.size, _ASSIGN_CHUNK)])))


def _assign(candidates: np.ndarray, retained: np.ndarray, hidden: np.ndarray) -> np.ndarray:
    """Position in ``retained`` of each candidate's most cosine-similar
    retained token, as an int64 array aligned with ``candidates``.

    Both are int64 indices into finite hidden states, and ``retained`` may
    be empty only when ``candidates`` is. The similarity is the float64
    cosine of the hidden rows; zero-norm vectors have similarity 0 against
    everything, and ties go to the earlier position.

    Candidates are scored in blocks of ``_ASSIGN_CHUNK`` rows against
    float32 unit rows of the retained tokens, each block in ``_split``
    pieces: gather, norms, float32 product, argmax and gap. A row whose best
    score leads the runner-up by more than twice a proven error band is
    decided there; every other row is recomputed in float64 against the
    retained tokens within that band, on the calling thread once the block
    is scored. So the positions do not depend on how the product sums.
    """
    d = hidden.shape[1]
    # Error band. Let u = 2**-24. A retained unit row entry is the float32
    # entry times a float64 reciprocal norm (relative error below
    # (d + 4) * 2**-53), rounded to float32 (relative error u, or 2**-150
    # absolute when subnormal); float64 input is narrowed to float32 first
    # (another u). So it lies within 2.01*u of the exact unit vector's entry
    # for d <= 2**21. A candidate row c enters the float32 product as it is
    # (float64 input narrowed, relative error u), and its scores are compared
    # in units of its float64 norm |c|. Whatever its summation order, the
    # float32 product errs by at most g * sum|c_i*r_i| <= 1.01 * g * |c|
    # with g = d*u / (1 - d*u) <= 8/7 * d*u for d*u <= 1/8, and by at most
    # d * 2**-150 from underflow, negligible for a certified |c| >= 2**-60;
    # by Cauchy-Schwarz the rounded inputs add at most 3.05 * u * |c|. So a
    # score is within 3.05*u + 1.16*d*u of the exact cosine, and the float64
    # cosine, in any summation order, within about (2*d + 6) * 2**-53 of it.
    # All together stay below (2*d + 3) * u, and 1e-12 is a further margin.
    # So when the best float32 score leads every other by more than twice
    # the band, the float64 cosine has its unique maximum there too; and a
    # retained token scoring more than twice the band below the best can
    # never be the float64 maximum.
    band = (2 * d + 3) * 2.0**-24 + 1e-12 if d <= 2**21 else np.inf
    r_norms, r_units = _unit_rows(hidden, retained)
    all_certified = bool(_certified(r_norms, _RETAINED_NORMS).all())
    slots = np.empty(candidates.size, dtype=np.int64)
    block = np.empty((min(candidates.size, _ASSIGN_CHUNK), retained.size), dtype=np.float32)
    c_norms, top, gap = np.empty((3, block.shape[0]))
    best = np.empty(block.shape[0], dtype=np.int64)
    for lo in range(0, candidates.size, _ASSIGN_CHUNK):
        cand = candidates[lo : lo + _ASSIGN_CHUNK]
        n = cand.size
        sims = block[:n]

        def score(a, b):  # rows [a, b) of the block
            rows = hidden[cand[a:b]]
            c_norms[a:b] = _row_norms(rows)
            with np.errstate(over="ignore", invalid="ignore"):  # uncertified rows
                part = _gram(rows.astype(np.float32, copy=False), r_units, out=sims[a:b])
                at = np.arange(b - a), part.argmax(axis=1)
                best[a:b], top[a:b] = at[1], part[at]
                part[at] = -np.inf
                gap[a:b] = top[a:b] - part.max(axis=1)
                part[at] = top[a:b]
        _split(n, score, blas=True)
        certified = _certified(c_norms[:n], _CANDIDATE_NORMS) & all_certified
        # a zero candidate scores 0 everywhere, exactly as in float64
        sure = (c_norms[:n] == 0) | (certified & (gap[:n] > 2 * band * c_norms[:n]))
        slots[lo : lo + n] = best[:n]
        for i in np.flatnonzero(~sure):
            near = (np.flatnonzero(sims[i] >= top[i] - 2 * band * c_norms[i])
                    if certified[i] else np.arange(retained.size))
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
    arrays ``inp`` checked on construction."""
    retained, candidates = _rank(inp.last_attn, ratio_r)
    return _merge(inp.hidden, retained, candidates, _assign(candidates, retained, inp.hidden))
