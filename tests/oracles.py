"""Reference implementations of every pipeline stage, for the tests: the
temporal stage, then the spatial stage, then the inner merge.

Each oracle states its stage's rule on its own: this module imports only
numpy, the standard library and tokmerge's exception types, never the
stage code it is compared with. Its products are elementwise or
``einsum`` sums, never BLAS, so an oracle gives the same bits under every
BLAS kernel; the exceptions, ``frame_attention``, ``reference_similarities``
and ``reference_assign`` on it, say so.
"""

import math

import numpy as np

from tokmerge import DataError


def direct_cosine_mask(data, tau):
    """Per-slot cosine between consecutive frames via explicit loops, from
    elementwise float64 dot products."""
    b, n_v, _ = data.shape
    rows = np.zeros((b - 1, n_v), dtype=bool)
    for m in range(b - 1):
        for k in range(n_v):
            u = data[m, k].astype(np.float64)
            v = data[m + 1, k].astype(np.float64)
            nu, nv = math.sqrt((u * u).sum()), math.sqrt((v * v).sum())
            sim = 0.0 if nu == 0 or nv == 0 else float((u * v).sum()) / (nu * nv)
            rows[m, k] = sim > tau
    return rows


def reference_similarity(data):
    """The float64 cosine definition over the whole batch at once.

    Consecutive-frame similarity of every slot from float64 ``einsum`` dot
    products and norms of the float32 tokens; zero norm gives 0, and values
    are clipped to [-1, 1].
    """
    x = np.asarray(data, dtype=np.float32)
    norms = np.sqrt(np.einsum("bkd,bkd->bk", x, x, dtype=np.float64))
    dots = np.einsum("bkd,bkd->bk", x[:-1], x[1:], dtype=np.float64)
    denom = norms[:-1] * norms[1:]
    sim = np.zeros_like(dots)
    nz = denom > 0
    sim[nz] = np.clip(dots[nz] / denom[nz], -1.0, 1.0)
    return sim


def reference_mask(data, tau):
    """The redundancy mask of the float64 definition."""
    return reference_similarity(data) > tau


def segment_gain(mask, t_s, t_e):
    """Prunable-token count of span [t_s, t_e) of a (B-1, N_v) mask,
    N(t_s, t_e) * (t_e - t_s - 1), for the DP's tables to be checked against."""
    rows = np.asarray(mask, bool)
    if not 1 <= t_s < t_e <= rows.shape[0] + 2:
        raise DataError(f"span [{t_s}, {t_e}) out of range for {rows.shape[0] + 1} frames")
    return int(rows[t_s - 1 : t_e - 2].all(axis=0).sum()) * (t_e - t_s - 1)


def brute_force_gains(rows):
    """All segment gains of a bool mask, computed from the defining product."""
    b = rows.shape[0] + 1
    g = {}
    for s in range(1, b + 1):
        for e in range(s + 1, b + 2):
            if e - s == 1:
                g[s, e] = 0
            else:
                persistent = rows[s - 1 : e - 2].all(axis=0)
                g[s, e] = int(persistent.sum()) * (e - s - 1)
    return g


def brute_force_best_total(rows):
    """Exhaustive maximum over all 2^(B-1) boundary subsets."""
    b = rows.shape[0] + 1
    g = brute_force_gains(rows)
    best = -1
    for bits in range(2 ** (b - 1)):
        bounds = [1] + [t + 2 for t in range(b - 1) if bits >> t & 1] + [b + 1]
        best = max(best, sum(g[s, e] for s, e in zip(bounds, bounds[1:])))
    return best


def reference_dp(rows):
    """The DP recurrence in plain Python over ``brute_force_gains``.

    Returns ``(dp, prev)`` for frames 1..B+1: ``dp[i] = max_j dp[j] + g[j, i]``
    over 1 <= j < i, and ``prev[i]`` the smallest maximising ``j``.
    """
    b = rows.shape[0] + 1
    g = brute_force_gains(rows)
    dp, prev = [0] * (b + 2), [0] * (b + 2)
    for i in range(2, b + 2):
        prev[i] = max(range(1, i), key=lambda j: (dp[j] + g[j, i], -j))
        dp[i] = dp[prev[i]] + g[prev[i], i]
    return dp[1:], prev[1:]


def reference_merged_values(data, s, e, red, mode):
    """A segment's merged values from the occurrences of its redundant
    slots ``red`` in frames [s, e) (1-based), gathered frame by frame and
    summed in float64 from +0.0 in frame order."""
    if mode == "first":
        return data[s - 1, red, :]
    acc = np.zeros((len(red), data.shape[2]))
    for f in range(s - 1, e - 1):
        acc += data[f, red]
    return (acc / (e - s)).astype(np.float32)


def dpc_oracle(tokens, k, c):
    """Direct evaluation of the density-peak rules with the stated tie-breaks.

    The dot products are elementwise, so d2 is symmetric bit for bit and two
    mutually nearest tokens tie in density under every BLAS kernel."""
    tokens = np.asarray(tokens, dtype=np.float64)
    n = len(tokens)
    if n == 1:  # no neighbour: the one token is its own center
        return [0], np.zeros(1, dtype=np.int64)
    d2 = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                # same d^2 expression as the implementation (dot identity)
                d2[i, j] = max((tokens[i] * tokens[i]).sum() + (tokens[j] * tokens[j]).sum()
                               - 2.0 * (tokens[i] * tokens[j]).sum(), 0.0)
    rho = np.empty(n)
    for i in range(n):
        nearest = np.sort(np.array([d2[i, j] for j in range(n) if j != i]))[:k]
        rho[i] = math.exp(-float(np.mean(nearest)))
    dist = np.sqrt(d2)
    delta = np.empty(n)
    for i in range(n):
        preceding = [dist[i, j] for j in range(n)
                     if rho[j] > rho[i] or (rho[j] == rho[i] and j < i)]
        if preceding:
            delta[i] = min(preceding)
        else:
            delta[i] = max(dist[i, j] for j in range(n) if j != i)
    gamma = rho * delta
    centers = sorted(sorted(range(n), key=lambda i: (-gamma[i], i))[: min(c, n)])
    assignment = np.empty(n, dtype=np.int64)
    for i in range(n):
        if i in centers:
            assignment[i] = i
        else:
            assignment[i] = min(centers, key=lambda ctr: (dist[i, ctr], ctr))
    return centers, assignment


def frame_attention(q, k):
    """Row-softmax of q @ k.T / sqrt(d) for one frame; rows sum to 1.

    Kernel-dependent: the logits are the float64 BLAS product that
    ``importance_from_qk`` takes, so the two agree bit for bit under each
    kernel, and the bits may differ from one kernel to another."""
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    if q.ndim != 2 or q.shape != k.shape:
        raise DataError(f"q/k shape mismatch: {q.shape} vs {k.shape}")
    logits = q @ k.T / math.sqrt(q.shape[1])
    logits -= logits.max(axis=1, keepdims=True)
    e = np.exp(logits)
    return e / e.sum(axis=1, keepdims=True)


def importance_scores(attention):
    """Mean attention each token receives (column means of a square matrix)."""
    a = np.asarray(attention, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DataError(f"attention matrix must be square, got {a.shape}")
    return a.mean(axis=0)


def pool_importance(raw, pooled_grid):
    """Adaptive average pooling of one H x W score grid, bin by bin."""
    raw = np.asarray(raw, dtype=np.float64)
    h, w = raw.shape
    hp, wp = pooled_grid
    if hp > h or wp > w or hp < 1 or wp < 1:
        raise DataError(f"pooled grid {hp}x{wp} invalid for raw grid {h}x{w}")
    re = [(i * h) // hp for i in range(hp + 1)]
    ce = [(j * w) // wp for j in range(wp + 1)]
    out = np.empty((hp, wp), dtype=np.float64)
    for i in range(hp):
        for j in range(wp):
            out[i, j] = raw[re[i] : re[i + 1], ce[j] : ce[j + 1]].mean()
    return out


def spread_bins(pooled, grid):
    """(..., H*W) slot scores from (..., Hp, Wp) pooled grids: each cell of
    the H x W grid takes the value of the bin whose floor edges hold it."""
    (h, w), (hp, wp) = grid, pooled.shape[-2:]
    rows = [max(i for i in range(hp) if (i * h) // hp <= r) for r in range(h)]
    cols = [max(j for j in range(wp) if (j * w) // wp <= c) for c in range(w)]
    return pooled[..., rows, :][..., cols].reshape(*pooled.shape[:-2], h * w)


def merge_clusters_loop(tokens, centers, assignment):
    """Each cluster's mean, one cluster at a time: a float64 sum from +0.0
    of its rows, added one by one in ascending index order, divided by the
    cluster size and narrowed to the token dtype."""
    reps = np.empty((len(centers), tokens.shape[1]), dtype=tokens.dtype)
    for r, center in enumerate(centers):
        members = [i for i in range(len(tokens)) if assignment[i] == center]
        acc = np.zeros(tokens.shape[1])
        for i in members:
            acc = acc + tokens[i].astype(np.float64)
        reps[r] = (acc / len(members)).astype(tokens.dtype)
    return reps


def top_k_oracle(scores, keep):
    """Ascending indices of the ``keep`` largest scores, ties to the smaller
    index, by Python's sort."""
    return sorted(sorted(range(len(scores)), key=lambda i: (-scores[i], i))[:keep])


def reassembly_oracle(tmr, imp, cfg):
    """Per-token reassembly of a spatial merge: one entry per output token,
    then a sort; each segment's redundant slots cluster by ``dpc_oracle``."""
    stream = tmr.stream
    b, n_v = stream.frames, stream.tokens_per_frame
    target = math.ceil(cfg.target_ratio * b * n_v)
    pass_through = tmr.survivor_count <= target
    rate = target / tmr.survivor_count
    entries = []
    cuts = np.cumsum(tmr.redundant.sum(axis=1))[:-1]
    for (start, end), row, merged in zip(tmr.plan.segments(), tmr.redundant,
                                         np.split(tmr.merged_values, cuts)):
        red = np.flatnonzero(row)
        def absorbed(slot, start=start, end=end):
            return [(f, int(slot)) for f in range(start, end - 1)]
        for f0 in range(start - 1, end - 1):
            kept = np.setdiff1d(np.arange(n_v), red)
            if not pass_through and kept.size:
                kept = kept[top_k_oracle(imp.scores[f0, kept], math.ceil(rate * kept.size))]
            for slot in kept:
                entries.append((f0, int(slot), stream.data[f0, slot], "selected", []))
        f0 = start - 1
        if red.size == 0:
            continue
        if pass_through:
            for pos, slot in enumerate(red):
                entries.append((f0, int(slot), merged[pos],
                                "temporal_rep", absorbed(slot)))
            continue
        k = cfg.knn_k or min(max(2, math.isqrt(red.size)), red.size - 1)
        centers, assignment = dpc_oracle(
            merged, min(max(k, 1), max(red.size - 1, 1)), math.ceil(rate * red.size))
        reps = merge_clusters_loop(merged, centers, assignment)
        for rep, center in zip(reps, centers):
            members = absorbed(red[center])
            for m in range(red.size):
                if m != center and assignment[m] == center:
                    members += [(f0, int(red[m]))] + absorbed(red[m])
            entries.append((f0, int(red[center]), rep, "cluster_rep", members))
    entries.sort(key=lambda e: e[:2])
    tokens = np.array([e[2] for e in entries], dtype=np.float32)
    return tokens, [(f, s, kind, tuple(m)) for f, s, _, kind, m in entries]


def reference_rank(scores, ratio_r):
    """Python ``sorted`` by (score, -index): the last N - floor(R*N/100)
    are retained and the first ones become the candidates, so on ties the
    larger index does; (retained, candidates) as ascending int64 arrays."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (scores[i], -i))
    kept = n - int(ratio_r * n / 100)
    return (np.array(sorted(order[n - kept:]), dtype=np.int64),
            np.array(sorted(order[: n - kept]), dtype=np.int64))


def reference_similarities(candidates, retained, hidden):
    """The former dense similarity matrix: one float64 N_c x N_r BLAS
    product, ``dots / (cn * rn)`` with a zero denominator as 0.

    Kernel-dependent: the product and norms are BLAS, rounded as the kernel
    sums, so a row may be compared with it only where its best similarity
    clears the runner-up by more than that rounding
    (``support.assert_matches_reference`` checks the other rows exactly)."""
    candidates = np.asarray(candidates, dtype=np.int64)
    retained = np.asarray(retained, dtype=np.int64)
    hidden = np.asarray(hidden, dtype=np.float64)
    cand_vecs = hidden[candidates]
    ret_vecs = hidden[retained]
    dots = cand_vecs @ ret_vecs.T
    cn = np.linalg.norm(cand_vecs, axis=1)
    rn = np.linalg.norm(ret_vecs, axis=1)
    denom = cn[:, None] * rn[None, :]
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)


def reference_assign(candidates, retained, hidden):
    """The former dense assignment: first maximum of each row of the
    kernel-dependent ``reference_similarities``."""
    sims = reference_similarities(candidates, retained, hidden)
    return np.asarray(retained, dtype=np.int64)[np.argmax(sims, axis=1)]


def exact_cosine_argmax(cand, retained, hidden):
    """First maximum of the correctly rounded cosine of float32 rows.

    Products of float32 values are exact in float64 and ``math.fsum``
    rounds each sum once, so equal and power-of-two scaled vectors score
    equal bits and the smaller retained index wins.
    """
    u = np.asarray(hidden[cand], dtype=np.float64)
    nu = math.sqrt(math.fsum(u * u))
    best, best_sim = None, -math.inf
    for r in retained:
        v = np.asarray(hidden[r], dtype=np.float64)
        denom = nu * math.sqrt(math.fsum(v * v))
        sim = math.fsum(u * v) / denom if denom > 0 else 0.0
        if sim > best_sim:
            best, best_sim = int(r), sim
    return best


def reference_merge(hidden, retained, candidates, targets):
    """The former dict-and-loop merge: each group gathered as
    [retained, candidates ascending] and averaged with a float64 ``mean``."""
    hidden = np.asarray(hidden)
    retained = np.asarray(retained, dtype=np.int64)
    ret_pos = {int(r): i for i, r in enumerate(retained)}
    groups: dict[int, list[int]] = {int(r): [int(r)] for r in retained}
    for cand, ret in sorted(zip(np.asarray(candidates).tolist(),
                                np.asarray(targets).tolist())):
        groups[ret].append(cand)
    updated = np.empty((retained.shape[0], hidden.shape[1]), dtype=hidden.dtype)
    for ret, members in groups.items():
        updated[ret_pos[ret]] = hidden[members].mean(
            axis=0, dtype=np.float64).astype(hidden.dtype)
    return updated


def cosine_argmax_oracle(candidates, retained, hidden):
    """Exhaustive pairwise cosine with smaller-retained-index tie-break, from
    elementwise float64 dot products."""
    out = {}
    for c in candidates:
        best, best_sim = None, -np.inf
        for r in retained:
            u, v = hidden[c].astype(np.float64), hidden[r].astype(np.float64)
            nu, nv = math.sqrt((u * u).sum()), math.sqrt((v * v).sum())
            sim = 0.0 if nu == 0 or nv == 0 else float((u * v).sum()) / (nu * nv)
            if sim > best_sim:
                best, best_sim = r, sim
        out[int(c)] = int(best)
    return out
