"""Shared domain types, configuration validation, and array/report I/O.

Conventions used throughout the package:

* token files are standard ``.npy`` arrays (format version 1.0, magic
  ``\\x93NUMPY``), shape ``(B, N_v, d)``, float32/float64, mapped read-only
  (so every writer here replaces files: ``replace_file``);
* internal precision is 32-bit float;
* frame numbers in segment boundaries are 1-based with half-open spans
  ``[start, end)`` (matching the segmentation recurrence), while provenance
  coordinates ``(frame, spatial_index)`` are 0-based array indices.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import mmap
import numbers
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

import numpy as np


class ConfigError(ValueError):
    """A configuration field is missing, unknown, or out of range."""


class DataError(ValueError):
    """An input file or array violates its contract."""


TEMPORAL_MERGE_MODES = ("mean", "first")
PROVENANCE_KINDS = ("selected", "temporal_rep", "cluster_rep")
_REPORT_COUNTS = ("original_count", "after_temporal_count", "final_count")
_REPORT_RATIOS = ("temporal_prune_ratio", "overall_retained_ratio")


# ---------------------------------------------------------------------------
# Token stream
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VideoTokenStream:
    """Dense ``(B, N_v, d)`` float32 token embeddings on an ``H x W`` grid.

    Slot ``k`` of a frame sits at grid cell ``(k // W, k % W)`` (row-major).
    Other real dtypes are narrowed to float32; a non-real dtype, non-finite
    values and values beyond float32 range are rejected, the last two with
    their flat offset. The data array is made read-only on construction.
    """

    data: np.ndarray
    grid: tuple[int, int]
    # float32 sum of squares of every token, (B, N_v), read-only
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    # the file mapping _release may drop pages of (see _file_mapping)
    _mapping: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        arr = np.asarray(self.data)
        if arr.ndim != 3:
            raise DataError(f"token array has rank {arr.ndim}, expected 3")
        b, n_v, d = arr.shape
        if min(b, n_v, d) < 1:
            raise DataError(f"token array has empty axis: shape {arr.shape}")
        h, w = self.grid
        if h < 1 or w < 1 or h * w != n_v:
            raise DataError(
                f"grid {h}x{w} does not tile {n_v} tokens per frame")
        if arr.dtype != np.float32:
            arr = _checked(arr, dtype=np.float32)
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)
        object.__setattr__(self, "_mapping", _file_mapping(arr))
        # A NaN or +-inf entry makes its token's sum of squares non-finite,
        # so finite norms certify finite float32 data. A non-finite norm
        # without a non-finite entry is the sum overflowing float32 on large
        # finite entries (a single one beyond ~1.8e19 suffices); those are
        # accepted. Other dtypes were checked as they were narrowed.
        sq_norms = np.empty((b, n_v), dtype=np.float32)

        def norms(x, lo, hi):
            _row_dots(x[lo:hi], x[lo:hi], out=sq_norms[lo:hi])
            return lo, hi
        _sweep(self, b, norms)
        if not np.isfinite(sq_norms).all():
            _checked(arr)
        sq_norms.setflags(write=False)
        object.__setattr__(self, "sq_norms", sq_norms)
        object.__setattr__(self, "grid", (int(h), int(w)))

    @property
    def frames(self) -> int:
        return self.data.shape[0]

    @property
    def tokens_per_frame(self) -> int:
        return self.data.shape[1]

    @property
    def dim(self) -> int:
        return self.data.shape[2]


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask (``taskset``)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def _blas_thread_query():
    """The thread-count function of numpy's bundled OpenBLAS, or None."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            query = getattr(handle, sym, None)
            if query is not None:
                query.argtypes, query.restype = [], ctypes.c_int
                return query
    return None


def _blas_threads() -> int | None:
    """Threads numpy's bundled OpenBLAS runs one product on, asked of the
    library on every call; None when it cannot be asked."""
    query = _blas_thread_query()
    return query() if query else None


def _split(n: int, fn, *, blas: bool = False) -> None:
    """Run ``fn(lo, hi)`` over contiguous pieces of ``range(n)``, one per
    worker, the first on the calling thread (one piece starts no thread).
    There is a worker per usable CPU; pieces that call BLAS (``blas``) get
    ``cpus // blas_threads``, so the pieces and BLAS's own threads together
    fit the CPUs, and one piece when BLAS's thread count cannot be read.
    Each call writes only its own part of a preallocated output, so the bits
    do not depend on the piece count, and every piece runs under the
    caller's numpy error state. The pool lives for one call: a pool kept
    across calls hangs a forked child that calls again.
    """
    cpus = _cpu_count()
    if blas:
        cpus //= _blas_threads() or cpus
    workers = min(cpus, n)
    if workers <= 1:
        fn(0, n)
        return
    err = np.geterr()  # pool threads start with numpy's default error state

    def piece(lo, hi):
        with np.errstate(**err):
            fn(lo, hi)
    cuts = [n * i // workers for i in range(workers + 1)]
    with ThreadPoolExecutor(workers - 1) as pool:
        rest = pool.map(piece, cuts[1:-1], cuts[2:])
        fn(0, cuts[1])
        list(rest)


# Bytes of frames a _sweep chunk reads before it releases them: about the most
# of a mapped token file one worker keeps resident (the temporal mean's chunk
# is one segment's block instead).
_SWEEP_BYTES = 1 << 23


def _file_mapping(arr: np.ndarray) -> tuple | None:
    """``(mapping, offset of arr in it)`` when ``arr`` views a shared
    read-only file mapping, an ``np.memmap`` of mode ``"r"`` as
    ``np.load(mmap_mode="r")`` makes, on a platform with ``madvise``; else
    None. Dropping such a mapping's pages loses nothing, since a later read
    faults the file's contents back in; in-memory arrays and copy-on-write
    ``"c"`` maps would lose their contents, so they have no mapping here."""
    base, mode = arr, None
    while isinstance(base, np.ndarray):
        mode = base.mode if isinstance(base, np.memmap) else mode
        base = base.base
    if mode != "r" or not (isinstance(base, mmap.mmap) and hasattr(mmap, "MADV_DONTNEED")):
        return None
    return base, arr.ctypes.data - np.frombuffer(base, np.uint8).ctypes.data


def _release(stream: VideoTokenStream, first: int, stop: int) -> None:
    """Drop the whole pages inside frames [first, stop) of the stream's file
    mapping from the process's resident set (``madvise(MADV_DONTNEED)``).
    The page cache keeps them, so a later read, on any thread, faults them
    back in without I/O. A no-op when the stream has no such mapping
    (``_file_mapping``)."""
    if stream._mapping is None:
        return
    mapping, offset = stream._mapping
    frame, page = stream.data[0].nbytes, mmap.PAGESIZE
    start = -(-(offset + first * frame) // page) * page
    end = (offset + stop * frame) // page * page
    if start < end:
        mapping.madvise(mmap.MADV_DONTNEED, start, end - start)


def _sweep(stream: VideoTokenStream, n: int, fn, cuts=None, split: bool = True) -> None:
    """Run ``fn(stream.data, lo, hi)`` over ``range(n)`` in ``_split``
    pieces (one piece on the calling thread unless ``split``), each piece
    in consecutive chunks. ``fn`` returns the frames ``(first, stop)`` its
    chunk is done reading, which are released (``_release``) as soon as it
    returns; once every piece is done the stream's whole frame range is. A
    chunk ends at every item offset in ``cuts``; by default an item is a
    frame and the cuts are ``_SWEEP_BYTES`` of frames apart. So a pass over
    a mapped token file keeps about one chunk of it resident per worker."""
    if cuts is None:
        cuts = np.arange(0, n, max(1, _SWEEP_BYTES // stream.data[0].nbytes))

    def piece(lo, hi):
        edges = np.unique([lo, hi, *cuts[(cuts > lo) & (cuts < hi)]]).tolist()
        for a, b in zip(edges, edges[1:]):
            _release(stream, *fn(stream.data, a, b))
    if split:
        _split(n, piece)
    else:
        piece(0, n)
    _release(stream, 0, stream.frames)


def _gather(stream: VideoTokenStream, frames: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """A new (M, d) float32 array of the stream's tokens at the (frame, slot)
    pairs, ``frames`` ascending, gathered on the calling thread by
    ``_sweep`` frame chunk by frame chunk."""
    b, n_v, d = stream.data.shape
    out = np.empty((len(frames), d), dtype=np.float32)
    at = np.searchsorted(frames, np.arange(b + 1))
    flat = np.asarray(frames, dtype=np.int64) * n_v + slots

    def rows(x, lo, hi):  # the rows in frames [lo, hi)
        # the indices are in range; take's default mode="raise" would buffer out
        np.take(x.reshape(b * n_v, d), flat[at[lo] : at[hi]], axis=0,
                out=out[at[lo] : at[hi]], mode="clip")
        return lo, hi
    _sweep(stream, b, rows, split=False)
    return out


def _checked(arr, name: str | None = None, dtype=None) -> np.ndarray:
    """``arr`` as an array, narrowed to C-order ``dtype`` (float32 or wider;
    overflow ignored) if given.

    DataError, prefixed with ``name`` when given, for a dtype that is not
    real (a float cast would keep only a complex array's real part, and
    parse or reject a string array), else for the first entry, by flat
    offset, that is NaN or +-inf or became +-inf only by the narrowing.
    Bool and integer values are finite and narrow without overflow, so only
    floats are tested, by their min and max, which propagate NaN and +-inf
    and allocate nothing per entry."""
    source = np.asarray(arr)
    prefix = f"{name}: " if name else ""
    if source.dtype.kind not in "biuf":
        raise DataError(f"{prefix}dtype {source.dtype}, expected real values")
    arr = source
    if dtype is not None:
        with np.errstate(over="ignore"):
            arr = source.astype(dtype, order="C", copy=False)
    bounds = [arr.min(initial=0), arr.max(initial=0)] if source.dtype.kind == "f" else []
    if not np.isfinite(bounds).all():
        offset = int(np.argmin(np.isfinite(arr.ravel())))
        if np.isfinite(source.flat[offset]):
            raise DataError(f"{prefix}value out of {arr.dtype} range at flat offset {offset}")
        raise DataError(f"{prefix}non-finite value at flat offset {offset}")
    return arr


def _group_mean(rows: np.ndarray, members: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Mean of each group of ``rows``, narrowed to the rows' dtype.

    ``members`` lists the row indices of group 0, then of group 1, ...; group
    g has ``sizes[g] >= 1``. Each mean is a float64 sum from +0.0 of the
    group's rows in the order given, divided by the group size; a one-row
    group is its row plus 0 (-0.0 becomes +0.0), outside the accumulator.
    The others are summed in rounds: round j adds each group's j-th row.
    """
    sizes = np.asarray(sizes, dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    out = rows[members[starts]]
    out += 0
    by_size = np.argsort(-sizes, kind="stable")
    # n_active[j - 1]: the number of groups with more than j rows
    n_active = np.searchsorted(-sizes[by_size], -np.arange(1, sizes.max(initial=1)))
    merged = by_size[: n_active[0] if n_active.size else 0]
    acc = out[merged].astype(np.float64)
    for j, k in enumerate(n_active, start=1):
        acc[:k] += rows[members[starts[merged[:k]] + j]]
    acc /= sizes[merged][:, None]
    out[merged] = acc
    return out


def _row_dots(a: np.ndarray, b: np.ndarray, dtype=None, out=None) -> np.ndarray:
    """The one row-wise dot kernel: ``einsum`` over the last axis of each row
    pair of ``a`` and ``b`` (broadcast), in ``dtype`` (the inputs' own when
    None). Each pair is summed on its own, so equal pairs give equal bits."""
    return np.einsum("...d,...d->...", a, b, dtype=dtype, out=out)


def _gram(a: np.ndarray, b: np.ndarray, out=None) -> np.ndarray:
    """The one matrix-product kernel: ``a @ b.T`` by BLAS, every row of
    ``a`` with every row of ``b``, in a summation order BLAS chooses."""
    return np.matmul(a, b.T, out=out)


def _row_norms(a: np.ndarray) -> np.ndarray:
    """Float64 norm of each row: the square root of its float64 row dot."""
    return np.sqrt(_row_dots(a, a, np.float64))


def _cosine(a: np.ndarray, b: np.ndarray, a_norms=None, b_norms=None) -> np.ndarray:
    """The one float64 cosine of row pairs: their float64 row dot over the
    product of their ``_row_norms`` (given, or computed); zero norm gives 0."""
    dots = _row_dots(a, b, np.float64)
    denom = ((_row_norms(a) if a_norms is None else a_norms)
             * (_row_norms(b) if b_norms is None else b_norms))
    return np.divide(dots, denom, out=np.zeros_like(dots), where=denom > 0)


def _score_rank(scores: np.ndarray) -> np.ndarray:
    """Each entry's int64 position along the last axis in the one score
    order: larger score first, ties to the smaller index (-0.0 ties +0.0).
    Every top-k of the package, and the DPC-KNN density order, reads it."""
    order = np.argsort(-scores, axis=-1, kind="stable")
    rank = np.empty_like(order)
    np.put_along_axis(rank, order, np.arange(scores.shape[-1]), axis=-1)
    return rank


def _load_npy(path, rank: int, what: str, check=np.asarray):
    """Map a ``.npy`` array of the given rank read-only and return
    ``check(arr)``. Every failure (a missing, empty, truncated or zipped file,
    a pickle, a wrong rank, a DataError from ``check``) names the file.
    """
    path = Path(path)
    try:
        arr = np.load(path, mmap_mode="r", allow_pickle=False)
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}") from None
    except (OSError, ValueError, EOFError) as exc:
        raise DataError(f"malformed array file {path}: {exc}") from exc
    if not isinstance(arr, np.ndarray):
        arr.close()
        raise DataError(f"malformed array file {path}: not a single .npy array")
    if arr.ndim != rank:
        raise DataError(f"{path}: rank {arr.ndim}, expected {rank}")
    try:
        return check(np.asarray(arr))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def _load_json(path, what: str) -> dict:
    """The JSON object in the file at ``path``; DataError, naming the file,
    when it is missing, malformed (not UTF-8, or nested past Python's
    recursion limit, included) or not an object."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}") from None
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DataError(f"malformed JSON in {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def replace_file(path, content: str | np.ndarray) -> None:
    """Write ``content`` (a string as UTF-8, an array as ``.npy``) to a
    sibling temporary file and rename it over ``path``: the old file is
    never truncated, so a stream still mapping it keeps its contents. The
    temporary file is removed when the write raises.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            if isinstance(content, str):
                fh.write(content.encode())
            else:
                np.save(fh, content)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_token_stream(path, grid: tuple[int, int]) -> VideoTokenStream:
    """Load a ``(B, N_v, d)`` float token file and validate it against ``grid``.

    A native C-order float32 file is mapped read-only; any other float
    layout is copied, 64-bit input narrowed. Raises DataError, naming the
    file, for a malformed file, wrong rank or dtype, a grid that does not
    tile the frame, non-finite values, or 64-bit values beyond float32
    range (the last two reported with their flat offset).
    """
    def stream(arr):
        if arr.dtype.kind != "f" or arr.dtype.itemsize not in (4, 8):
            raise DataError(f"dtype {arr.dtype}, expected float32/float64")
        return VideoTokenStream(arr, grid)
    return _load_npy(path, 3, "token", stream)


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _is_integer(x) -> bool:  # the one integer rule: Python or numpy, never a bool
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_number(x) -> bool:  # the one number rule: any Python or numpy real, never a bool
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _require_real(raw, name: str) -> float:
    if not _is_number(raw):
        raise ConfigError(f"{name} must be a number, got {raw!r}")
    return float(raw)


@dataclass(frozen=True)
class CompressionConfig:
    """Pipeline settings, checked on construction: an out-of-range or
    mistyped field raises ``ConfigError``. Numbers are stored as plain
    float, integers as plain int (``_is_number``, ``_is_integer``),
    ``pooled_grid`` as a tuple, and ``knn_k`` ``"auto"`` as None."""

    tau: float = 0.8
    target_ratio: float = 1.0
    temporal_merge_mode: str = "mean"
    pooled_grid: tuple[int, int] | None = None
    knn_k: int | None = None  # None = auto: max(2, floor(sqrt(N))), capped at N-1
    inner_layer_K: int = 18
    inner_ratio_R: float = 50.0

    def __post_init__(self):
        tau = _require_real(self.tau, "tau")
        if not 0.0 <= tau <= 1.0:
            raise ConfigError(f"tau must be in [0, 1], got {tau}")
        object.__setattr__(self, "tau", tau)

        ratio = _require_real(self.target_ratio, "target_ratio")
        if not 0.0 < ratio <= 1.0:
            raise ConfigError(f"target_ratio must be in (0, 1], got {ratio}")
        object.__setattr__(self, "target_ratio", ratio)

        if self.temporal_merge_mode not in TEMPORAL_MERGE_MODES:
            raise ConfigError(f"temporal_merge_mode must be one of {TEMPORAL_MERGE_MODES}, "
                              f"got {self.temporal_merge_mode!r}")

        pooled = self.pooled_grid
        if pooled is not None:
            if (not isinstance(pooled, (list, tuple)) or len(pooled) != 2
                    or not all(_is_integer(x) and x >= 1 for x in pooled)):
                raise ConfigError(
                    f"pooled_grid must be two positive integers [rows, cols], got {pooled!r}")
            object.__setattr__(self, "pooled_grid", tuple(map(int, pooled)))

        knn_k = None if self.knn_k in (None, "auto") else self.knn_k
        if not (knn_k is None or _is_integer(knn_k)):
            raise ConfigError(f"knn_k must be an integer or \"auto\", got {knn_k!r}")
        if knn_k is not None and knn_k < 1:
            raise ConfigError(f"knn_k must be >= 1 or \"auto\", got {knn_k}")
        object.__setattr__(self, "knn_k", None if knn_k is None else int(knn_k))

        k = self.inner_layer_K
        if not _is_integer(k) or k < 0:
            raise ConfigError(f"inner_layer_K must be a non-negative integer, got {k!r}")
        object.__setattr__(self, "inner_layer_K", int(k))

        ratio_R = _require_real(self.inner_ratio_R, "inner_ratio_R")
        if not 0.0 <= ratio_R < 100.0:
            raise ConfigError(f"inner_ratio_R must be in [0, 100), got {ratio_R}")
        object.__setattr__(self, "inner_ratio_R", ratio_R)


def validate_config(raw: dict | None) -> CompressionConfig:
    """The ``CompressionConfig`` of a raw config document; a missing field
    takes its default (pooled_grid None is the stream grid), and an unknown
    field raises ``ConfigError``."""
    raw = dict(raw or {})
    unknown = set(raw) - {f.name for f in fields(CompressionConfig)}
    if unknown:
        raise ConfigError(f"unknown config field(s): {sorted(unknown)}")
    return CompressionConfig(**raw)


# ---------------------------------------------------------------------------
# Model profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelProfile:
    """Transformer dimensions used by the FLOPs model."""

    name: str
    hidden_d: int
    ffn_m: int
    layers_T: int
    tokens_per_frame_Nv: int
    default_frames_B: int

    def __post_init__(self):
        for f in ("hidden_d", "ffn_m", "layers_T",
                  "tokens_per_frame_Nv", "default_frames_B"):
            if getattr(self, f) < 1:
                raise ConfigError(f"profile {self.name}: {f} must be positive")


# ---------------------------------------------------------------------------
# Compressed output + report
# ---------------------------------------------------------------------------

class TokenProvenance(NamedTuple):
    """Origin of one surviving token, as ``CompressedVideo.provenance`` reads
    it out: 0-based survivor coordinates, its kind (one of PROVENANCE_KINDS)
    and the 0-based (frame, slot) pairs it absorbed (empty when selected)."""

    frame: int
    spatial_index: int
    kind: str
    members: tuple[tuple[int, int], ...]


def _first_repeat(frames: np.ndarray, slots: np.ndarray) -> int:
    """Index of the first (frame, slot) pair equal to an earlier one, or -1.

    A stable lexsort keeps equal pairs in index order, so the smallest index
    that follows an equal pair in sorted order is the first repeat.
    """
    order = np.lexsort((slots, frames))
    f, s = frames[order], slots[order]
    repeat = (f[1:] == f[:-1]) & (s[1:] == s[:-1])
    return int(order[1:][repeat].min()) if repeat.any() else -1


class ProvenanceArrays(NamedTuple):
    """Provenance of M survivors as int64 arrays, members in CSR layout.

    ``frames``/``slots`` (M,) are the survivors' coordinates and ``kinds``
    (M,) index PROVENANCE_KINDS; survivor ``i`` absorbed the (frame, slot)
    rows ``member_offsets[i]:member_offsets[i + 1]`` of ``members`` (P, 2).
    """

    frames: np.ndarray
    slots: np.ndarray
    kinds: np.ndarray
    member_offsets: np.ndarray
    members: np.ndarray


_RECORD_FIELDS = TokenProvenance._fields
# ProvenanceArrays' coordinate columns, by the field names of a record
_COORDINATES = {"frames": "frame", "slots": "spatial_index", "members": "members"}


def _int64(values: list, field: str, what: str = "provenance coordinates") -> np.ndarray:
    """int64 array of ``values``, each an integer by ``_is_integer``;
    DataError naming ``what``, the ``field`` and the first other value."""
    for v in [] if set(map(type, values)) <= {int} else values:
        if not _is_integer(v):
            raise DataError(f"{what} must be int64 integers: {field} {v!r}")
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        bad = next(v for v in values if not -2**63 <= v < 2**63)
        raise DataError(f"{what} must be int64 integers: {field} {bad}") from None


def _provenance_arrays(frames: list, slots: list, kinds: list, members: list) -> ProvenanceArrays:
    """ProvenanceArrays from per-record columns, ``members`` holding pair lists."""
    try:
        pairs = [m for ms in members for m in ms]
        if not set(map(len, pairs)) <= {2}:
            raise TypeError
    except TypeError:
        raise DataError("provenance members must be (frame, slot) pairs") from None
    for kind in kinds:
        if kind not in PROVENANCE_KINDS:
            raise DataError(f"unknown provenance kind {kind!r}")
    return ProvenanceArrays(
        _int64(frames, "frame"), _int64(slots, "spatial_index"),
        np.array([PROVENANCE_KINDS.index(k) for k in kinds], dtype=np.int64),
        np.cumsum([0] + list(map(len, members))),
        _int64([v for m in pairs for v in m], "members").reshape(-1, 2))


class CompressedVideo:
    """Surviving tokens (M x d float32) plus their provenance.

    Provenance is passed as ProvenanceArrays and held, validated and
    read-only, as ``provenance_arrays``; ``provenance`` reads it out as
    TokenProvenance records on first access.
    """

    def __init__(self, tokens, provenance):
        tok = np.ascontiguousarray(np.asarray(tokens, dtype=np.float32))
        if tok.ndim != 2:
            raise DataError(f"tokens must be 2-D, got rank {tok.ndim}")
        if not isinstance(provenance, ProvenanceArrays):
            raise TypeError(f"expected ProvenanceArrays, got {type(provenance).__name__}")
        for name, a in zip(provenance._fields, map(np.asarray, provenance)):
            if a.size and a.dtype.kind not in "iu":
                raise DataError(f"provenance {name} must have an integer dtype, got {a.dtype}")
            # a coordinate past int64 would wrap in the cast below (kinds and
            # offsets that wrap turn negative and fail the consistency check)
            if a.size and a.dtype.kind == "u" and name in _COORDINATES and int(a.max()) >= 2**63:
                _int64(a.ravel().tolist(), _COORDINATES[name])
        pa = ProvenanceArrays(*(np.array(a, dtype=np.int64) for a in provenance))
        f, s, kinds, offsets, members = pa
        if f.shape != (tok.shape[0],):
            raise DataError(f"{tok.shape[0]} tokens but {f.size} provenance records")
        if members.ndim != 2 or members.shape[1] != 2:
            raise DataError("provenance members must be (frame, slot) pairs")
        if not (s.shape == kinds.shape == (offsets.size - 1,) == f.shape
                and offsets[0] == 0 and offsets[-1] == len(members)
                and (offsets[1:] >= offsets[:-1]).all()
                and ((kinds >= 0) & (kinds < len(PROVENANCE_KINDS))).all()):
            raise DataError("provenance arrays are inconsistent")
        for name, field in _COORDINATES.items():
            low = int(getattr(pa, name).min(initial=0))
            if low < 0:
                raise DataError(f"provenance coordinates must be non-negative: {field} {low}")
        if ((f[1:] < f[:-1]) | ((f[1:] == f[:-1]) & (s[1:] <= s[:-1]))).any():
            raise DataError("provenance not strictly ascending by (frame, slot)")
        f, s = np.concatenate((f, members[:, 0])), np.concatenate((s, members[:, 1]))
        repeat = _first_repeat(f, s)
        if repeat >= 0:
            raise DataError(f"token coordinate {(int(f[repeat]), int(s[repeat]))} appears twice")
        for arr in (tok, *pa):
            arr.setflags(write=False)
        self.tokens, self.provenance_arrays = tok, pa

    @cached_property
    def provenance(self) -> tuple[TokenProvenance, ...]:
        """One TokenProvenance record per token, derived from the arrays."""
        frames, slots, kinds, offsets, members = (a.tolist() for a in self.provenance_arrays)
        members = list(map(tuple, members))
        return tuple(map(TokenProvenance, frames, slots, [PROVENANCE_KINDS[k] for k in kinds],
                         [tuple(members[a:b]) for a, b in zip(offsets, offsets[1:])]))

    @property
    def count(self) -> int:
        return self.tokens.shape[0]


def _finite(value, key: str) -> float:
    """``value`` as a float if it is a finite number, else DataError."""
    try:
        finite = _is_number(value) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        finite = False
    if not finite:
        raise DataError(f"report ratios and FLOPs must be finite numbers: {key} {value!r}")
    return float(value)


def _flops_ratio(report: CompressionReport) -> float:
    """The document's ``flops.ratio``: prefill over baseline, 0.0 on a zero baseline."""
    return report.prefill_flops / report.baseline_flops if report.baseline_flops else 0.0


@dataclass(frozen=True)
class CompressionReport:
    """Per-video counts, ratios, segment boundaries, and FLOPs: int64 integers
    stored as int and finite numbers stored as float, or DataError."""

    original_count: int
    after_temporal_count: int
    final_count: int
    temporal_prune_ratio: float
    overall_retained_ratio: float
    segment_boundaries: tuple[tuple[int, int, int], ...]  # (start, end, gain), 1-based
    prefill_flops: float
    baseline_flops: float
    per_video_histogram_bin: float = field(default=-1.0)

    def __post_init__(self):
        for key in _REPORT_COUNTS:
            object.__setattr__(self, key, _int64([getattr(self, key)], key, "report counts").item())
        segments = _int64([v for s, e, g in self.segment_boundaries for v in (s, e, g)],
                          "segments", "report segments").reshape(-1, 3).tolist()
        object.__setattr__(self, "segment_boundaries", tuple(map(tuple, segments)))
        for key in (*_REPORT_RATIOS, "prefill_flops", "baseline_flops", "per_video_histogram_bin"):
            object.__setattr__(self, key, _finite(getattr(self, key), key))
        if self.original_count < 1 or self.final_count < 0:
            raise DataError(f"counts must have original_count >= 1 and final_count >= 0, "
                            f"got {self.original_count} and {self.final_count}")
        if not (self.final_count <= self.after_temporal_count <= self.original_count):
            raise DataError(f"inconsistent counts: {self.final_count} <= "
                            f"{self.after_temporal_count} <= {self.original_count} fails")
        expect = (1.0 - self.after_temporal_count / self.original_count,
                  self.final_count / self.original_count)
        for key, ratio in zip(_REPORT_RATIOS, expect):
            if not math.isclose(getattr(self, key), ratio, rel_tol=0, abs_tol=1e-9):
                raise DataError(f"{key} inconsistent with counts")
        if self.per_video_histogram_bin < 0:
            object.__setattr__(self, "per_video_histogram_bin", self.temporal_prune_ratio)


def report_to_dict(report: CompressionReport) -> dict:
    """Serialize a report to the fixed JSON document schema."""
    return {
        "original_count": report.original_count,
        "after_temporal_count": report.after_temporal_count,
        "final_count": report.final_count,
        "temporal_prune_ratio": report.temporal_prune_ratio,
        "overall_retained_ratio": report.overall_retained_ratio,
        "segments": [{"start": s, "end": e, "gain": g}
                     for s, e, g in report.segment_boundaries],
        "flops": {
            "baseline": report.baseline_flops,
            "prefill": report.prefill_flops,
            "ratio": _flops_ratio(report),
        },
    }


def report_from_dict(doc: dict) -> CompressionReport:
    """The report of a report_to_dict document, whose values CompressionReport checks,
    and whose ``flops.ratio`` must be exactly the ratio report_to_dict writes; a
    missing key or a non-object raises DataError ``malformed report document: ...``."""
    try:
        values = dict(
            {key: doc[key] for key in (*_REPORT_COUNTS, *_REPORT_RATIOS)},
            segment_boundaries=[(seg["start"], seg["end"], seg["gain"]) for seg in doc["segments"]],
            prefill_flops=doc["flops"]["prefill"], baseline_flops=doc["flops"]["baseline"])
        ratio = doc["flops"]["ratio"]
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed report document: {exc}") from exc
    report = CompressionReport(**values)
    if _finite(ratio, "flops.ratio") != _flops_ratio(report):
        raise DataError("flops.ratio inconsistent with prefill and baseline")
    return report


def report_document(doc: dict):
    """The report in a JSON object: its ``report`` value, else itself if it has
    a report's own top-level key (not ``segments``: spec.json has one), else None."""
    if "report" in doc:
        return doc["report"]
    return doc if any(key in doc for key in (*_REPORT_COUNTS, *_REPORT_RATIOS, "flops")) else None


TOKENS_FILE = "tokens.npy"
META_FILE = "compressed.json"
INNER_TOKENS_FILE = "inner_tokens.npy"
INNER_META_FILE = "inner.json"


def _record_template(kind: str, n_members: int) -> str:
    """A provenance record as ``json.dumps(doc, indent=1)`` nests it in
    compressed.json, with ``%d`` for each of its integers."""
    members = ",\n".join(["    [\n     %d,\n     %d\n    ]"] * n_members)
    members = f"[\n{members}\n   ]" if n_members else "[]"
    return (f'  {{\n   "frame": %d,\n   "spatial_index": %d,\n   "kind": "{kind}",'
            f'\n   "members": {members}\n  }}')


def _provenance_json(pa: ProvenanceArrays) -> str:
    """The provenance list as compressed.json holds it: every integer in
    document order, formatted into one template per (kind, member count)."""
    if not pa.frames.size:
        return "[]"
    values = np.insert(pa.members.ravel(), np.repeat(2 * pa.member_offsets[:-1], 2),
                       np.stack((pa.frames, pa.slots), axis=1).ravel())
    counts = np.diff(pa.member_offsets)
    width = int(counts.max()) + 1
    keys, which = np.unique(pa.kinds * width + counts, return_inverse=True)
    templates = np.array([_record_template(PROVENANCE_KINDS[k // width], k % width)
                          for k in keys.tolist()], dtype=object)
    return ("[\n" + ",\n".join(templates[which].tolist()) + "\n ]") % tuple(values.tolist())


def _check_final_count(cv: CompressedVideo, report: CompressionReport) -> None:
    if report.final_count != cv.count:
        raise DataError(f"final_count {report.final_count} does not match the "
                        f"{cv.count} rows of {TOKENS_FILE}")


def save_compressed(cv: CompressedVideo, report: CompressionReport, out_dir) -> None:
    """Write tokens.npy plus a compressed.json carrying provenance + report.

    compressed.json is byte-identical to ``json.dump(doc, fh, indent=1)``
    plus a newline, for ``doc = {"provenance": [{"frame", "spatial_index",
    "kind", "members": [[f, s], ...]}, ...], "report": report_to_dict(report)}``;
    the provenance is formatted from its arrays rather than by the
    pure-Python indenting encoder. Loading the directory back reproduces
    the inputs bit-exactly (float32 tokens; JSON floats round-trip via repr).
    """
    _check_final_count(cv, report)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    replace_file(out / TOKENS_FILE, cv.tokens)
    provenance = _provenance_json(cv.provenance_arrays)
    report_json = json.dumps(report_to_dict(report), indent=1).replace("\n", "\n ")
    replace_file(out / META_FILE,
                 f'{{\n "provenance": {provenance},\n "report": {report_json}\n}}\n')


def save_inner(result, cfg: CompressionConfig, out_dir) -> None:
    """Write an ``innerllm.InnerMergeResult`` into save_compressed's ``out_dir``:
    inner_tokens.npy holds ``result.updated``, and inner.json the retained indices,
    the assignment in its key order, and the config's layer K and ratio R."""
    replace_file(Path(out_dir, INNER_TOKENS_FILE), result.updated)
    replace_file(Path(out_dir, INNER_META_FILE), json.dumps({
        "retained_indices": [int(i) for i in result.retained_indices],
        "assignment": {str(k): v for k, v in result.assignment.items()},
        "layer_K": cfg.inner_layer_K,
        "ratio_R": cfg.inner_ratio_R,
    }, indent=1) + "\n")


def load_compressed(out_dir) -> tuple[CompressedVideo, CompressionReport]:
    """Read a directory written by save_compressed.

    Tokens must be real and finite, and within float32 range; provenance
    coordinates must be non-negative JSON integers and members [frame,
    slot] pairs. A violation raises DataError naming the file (and the
    field or offset).
    """
    meta_path = Path(out_dir) / META_FILE
    tokens = _load_npy(Path(out_dir) / TOKENS_FILE, 2, "token",
                       lambda arr: _checked(arr, dtype=np.float32))
    doc = _load_json(meta_path, "metadata")
    try:
        columns = [[p[key] for p in doc["provenance"]] for key in _RECORD_FIELDS]
        cv = CompressedVideo(tokens, _provenance_arrays(*columns))
        report = report_from_dict(doc["report"])
        _check_final_count(cv, report)
        return cv, report
    except DataError as exc:
        raise DataError(f"{meta_path}: {exc}") from None
    except KeyError as exc:
        raise DataError(f"{meta_path}: missing field {exc}") from None
    except TypeError:
        raise DataError(f"{meta_path}: provenance must be a list of objects") from None
