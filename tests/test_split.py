"""Work split across CPUs: how ``core._split`` cuts the work, when it
starts threads, bit identity for any worker count, fork safety.

The worker count is forced by replacing ``core._cpu_count``, and the BLAS
thread count that the matrix-product stages divide it by by replacing
``core._blas_threads``; ``_split`` reads both on every call.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from tokmerge import (
    CompressionConfig,
    ImportanceMap,
    SynthSpec,
    VideoTokenStream,
    apply_temporal_merge,
    core,
    generate,
    importance_from_qk,
    inner_merge,
    innerllm,
    optimal_segmentation,
    pairwise_redundancy,
    spatial_merge,
)
from tokmerge.cli import main
from oracles import reference_merged_values
from support import CASES, SYNTH, compress_case, merged_segments, same_bits

WORKER_COUNTS = (1, 2, 3)


@pytest.fixture
def force_workers(monkeypatch):
    def force(n):
        monkeypatch.setattr(core, "_cpu_count", lambda: n)
    return force


@pytest.fixture
def force_blas(monkeypatch):
    def force(n):
        monkeypatch.setattr(core, "_blas_threads", lambda: n)
    return force


@pytest.fixture
def thread_starts(monkeypatch):
    """The number of threads started so far, as a one-item list."""
    started, start = [0], threading.Thread.start

    def counting(self):
        started[0] += 1
        start(self)
    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def record_split(n):
    calls = []
    core._split(n, lambda lo, hi: calls.append((lo, hi, threading.get_ident())))
    return calls


class TestSplit:
    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 8])
    def test_pieces_tile_the_range(self, force_workers, workers, n):
        force_workers(workers)
        calls = record_split(n)
        pieces = sorted((lo, hi) for lo, hi, _ in calls)
        assert len(pieces) == max(min(workers, n), 1)
        assert pieces[0][0] == 0 and pieces[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(pieces, pieces[1:]))
        assert all(hi > lo for lo, hi in pieces) or n == 0
        # the first piece runs on the calling thread
        assert (0, pieces[0][1], threading.get_ident()) in calls

    @pytest.mark.parametrize("workers, n", [(1, 10), (4, 1), (4, 0)])
    def test_one_piece_starts_no_thread(self, force_workers, monkeypatch, workers, n):
        force_workers(workers)

        def refuse(self):
            raise AssertionError("a thread was started")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        assert record_split(n) == [(0, n, threading.get_ident())]

    def test_later_pieces_run_off_the_calling_thread(self, force_workers):
        force_workers(3)
        calls = record_split(9)
        assert len(calls) == 3
        assert all(ident != threading.get_ident() for lo, _, ident in calls if lo)

    def test_worker_error_propagates(self, force_workers):
        force_workers(2)

        def fail_late(lo, hi):
            if lo:
                raise ValueError(f"piece {lo}:{hi}")
        with pytest.raises(ValueError, match="piece 2:4"):
            core._split(4, fail_late)

    def test_default_count_is_the_affinity_mask(self):
        if hasattr(os, "sched_getaffinity"):
            assert core._cpu_count() == len(os.sched_getaffinity(0))
        assert core._cpu_count() >= 1

    @pytest.mark.parametrize("mode", ["ignore", "raise"])
    def test_pieces_run_under_the_callers_error_state(self, force_workers, mode):
        """Pool threads start with numpy's default error state (warn), so
        without the caller's state an overflow the caller silenced warns,
        an error under this suite's warning filter."""
        force_workers(2)
        big, out = np.full(4, 1e300), np.zeros(4)

        def square(lo, hi):
            np.multiply(big[lo:hi], big[lo:hi], out=out[lo:hi])
        with np.errstate(over=mode):
            if mode == "raise":
                with pytest.raises(FloatingPointError, match="overflow"):
                    core._split(4, square)
            else:
                core._split(4, square)
                assert np.isposinf(out).all()

    @pytest.mark.parametrize("cpus, blas, pieces", [
        (1, 1, 1), (2, 1, 2), (2, 2, 1), (2, None, 1), (3, 1, 3), (8, 2, 4), (8, 3, 2),
        (8, 8, 1), (4, 8, 1), (8, None, 1)])
    def test_blas_pieces_share_the_cpus(self, force_workers, force_blas, cpus, blas, pieces):
        """Pieces that call BLAS get cpus // blas_threads workers, and one
        piece when BLAS's thread count is unknown; other pieces every CPU."""
        force_workers(cpus)
        force_blas(blas)
        calls = []
        core._split(12, lambda lo, hi: calls.append((lo, hi)), blas=True)
        assert len(calls) == pieces
        assert len(record_split(12)) == cpus

    def test_blas_threads_read_from_the_library(self):
        """The count follows OPENBLAS_NUM_THREADS in a fresh interpreter."""
        if core._blas_threads() is None:
            pytest.skip("numpy has no bundled OpenBLAS to ask")
        code = "from tokmerge import core; print(core._blas_threads())"
        for n in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=n)
            out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, timeout=60, check=True)
            assert out.stdout.strip() == n


def run_passes(data, tau, rows=None):
    """sq_norms, redundancy mask and mean-mode temporal merge of one stream."""
    stream = VideoTokenStream(data, (1, data.shape[1]))
    mask = pairwise_redundancy(stream, tau) if rows is None else rows
    return stream.sq_norms, mask, apply_temporal_merge(
        stream, optimal_segmentation(mask), mask, "mean")


def assert_merged_like_reference(data, tmr):
    for s, e, red, merged in merged_segments(tmr):
        assert same_bits(merged, reference_merged_values(data, s, e, red, "mean"))


# (frames, slots, dim): B in {1, 2, 3}, N_v = 1 and d = 1 among them
SHAPES = [(1, 4, 8), (2, 3, 5), (3, 1, 7), (3, 5, 1), (2, 1, 1), (13, 6, 4), (40, 9, 33)]


class TestBitIdentity:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_passes_equal_for_every_worker_count(self, force_workers, shape):
        rng = np.random.default_rng(sum(shape))
        b, n_v, d = shape
        base = rng.standard_normal((1, n_v, d))
        data = (base + 0.3 * rng.standard_normal(shape)) * 10.0 ** rng.integers(-4, 5, (b, n_v, 1))
        data = data.astype(np.float32)
        results = []
        for workers in WORKER_COUNTS:
            force_workers(workers)
            results.append(run_passes(data, 0.6))
        force_workers(1)
        assert same_bits(results[0][0], np.einsum("bkd,bkd->bk", data, data))
        for norms, mask, tmr in results:
            assert same_bits(norms, results[0][0])
            np.testing.assert_array_equal(mask, results[0][1])
            np.testing.assert_array_equal(tmr.redundant, results[0][2].redundant)
            assert_merged_like_reference(data, tmr)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("n_v, slot", [(1, 0), (5, 3)])
    def test_one_slot_span(self, force_workers, d, n_v, slot):
        """One redundant slot over 19 frames: a piece may hold a single
        value per frame, which numpy's reduction would sum pairwise; the
        merge still sums in frame order. The first two occurrences cancel,
        so any other order loses the later terms."""
        rng = np.random.default_rng(d + n_v)
        data = rng.standard_normal((20, n_v, d)).astype(np.float32)
        data[1, slot], data[2, slot] = np.float32(1e30), np.float32(-1e30)
        rows = np.zeros((19, n_v), dtype=bool)
        rows[1:, slot] = True
        for workers in WORKER_COUNTS:
            force_workers(workers)
            s, e, red, merged = merged_segments(run_passes(data, 0.5, rows)[2])[-1]
            assert (s, e) == (2, 21)
            np.testing.assert_array_equal(red, [slot])
            assert same_bits(merged, reference_merged_values(data, s, e, [slot], "mean"))

    @pytest.mark.parametrize("workers", [2, 3, 4])
    def test_piece_cut_inside_a_segment(self, force_workers, workers):
        """Segments [1, 9) and [9, 21) merge 5 and 7 slots: every cut of the
        12 merged rows into 2, 3 or 4 pieces falls inside a segment, whose
        rows are then summed by two pieces. The first two occurrences of
        each merged slot cancel, so any other order loses the later terms."""
        rng = np.random.default_rng(workers)
        data = rng.standard_normal((20, 9, 6)).astype(np.float32)
        rows = np.zeros((19, 9), dtype=bool)
        rows[0:7, [0, 2, 3, 5, 8]] = True
        rows[8:19, [1, 2, 3, 4, 6, 7, 8]] = True
        for f in (0, 8):
            big = np.float32(1e30) * rng.standard_normal((9, 6)).astype(np.float32)
            data[f], data[f + 1] = big, -big
        force_workers(workers)
        tmr = run_passes(data, 0.5, rows)[2]
        assert tmr.plan.boundaries == (1, 9, 21)
        first_rows = np.cumsum([0, *tmr.redundant.sum(axis=1)])
        assert first_rows.tolist() == [0, 5, 12]
        for cut in (12 * i // workers for i in range(1, workers)):
            assert cut not in first_rows
        assert_merged_like_reference(data, tmr)

    @pytest.mark.parametrize("workers", [2, 3])
    def test_single_row_pieces_at_d_1(self, force_workers, workers):
        """d = 1 and three merged slots over 19 frames: some piece holds a
        single merged row, a one-value-per-frame block that numpy's
        reduction would sum pairwise."""
        rng = np.random.default_rng(10 + workers)
        data = rng.standard_normal((20, 5, 1)).astype(np.float32)
        data[1, [0, 2, 3]], data[2, [0, 2, 3]] = np.float32(1e30), np.float32(-1e30)
        rows = np.zeros((19, 5), dtype=bool)
        rows[1:, [0, 2, 3]] = True
        force_workers(workers)
        tmr = run_passes(data, 0.5, rows)[2]
        assert tmr.plan.boundaries == (1, 2, 21)
        assert tmr.merged_values.shape == (3, 1)
        assert_merged_like_reference(data, tmr)

    def test_more_workers_than_cores_with_frequent_switches(self, force_workers):
        """Eight workers and a 1 us switch interval: each piece still lands
        in its own slice of the shared outputs, every time."""
        data = np.random.default_rng(8).standard_normal((37, 11, 19)).astype(np.float32)
        force_workers(1)
        norms, mask, tmr = run_passes(data, 0.0)
        assert tmr.merged_values.shape[0] > 5
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            force_workers(8)
            for _ in range(5):
                got = run_passes(data, 0.0)
                assert same_bits(got[0], norms)
                np.testing.assert_array_equal(got[1], mask)
                np.testing.assert_array_equal(got[2].redundant, tmr.redundant)
                assert same_bits(got[2].merged_values, tmr.merged_values)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_golden_digests(self, force_workers, force_blas, tmp_path, case, workers):
        force_workers(workers)
        force_blas(1)  # the matrix-product stages split too
        assert compress_case(case, tmp_path) == CASES[case]


BLAS_WORKER_COUNTS = (1, 2, 3, 8)


def qk_dumps():
    """Q/K dumps of 9 frames on a 2x3 grid, logits up to ~1e4 in some frames."""
    rng = np.random.default_rng(21)
    q, k = rng.standard_normal((2, 9, 6, 5))
    return q * 10.0 ** rng.integers(-2, 3, (9, 1, 1)), k.astype(np.float32)


def clustering_inputs():
    """A temporal merge of six planted segments whose merged slots are
    clustered at target ratio 0.3, and random importance on its grid."""
    spec = SynthSpec(frames=22, grid=(3, 4), dim=6, noise_sigma=0.01, seed=5,
                     segments=((3, 0.5), (4, 1.0), (3, 0.25), (5, 0.75), (3, 0.5), (4, 1.0)))
    stream = generate(spec)[0]
    mask = pairwise_redundancy(stream, 0.8)
    tmr = apply_temporal_merge(stream, optimal_segmentation(mask), mask, "mean")
    imp = ImportanceMap(np.random.default_rng(6).random((22, 12)), (3, 4))
    return tmr, imp, CompressionConfig(target_ratio=0.3)


def assign_inputs(uncertified):
    """Hidden states of 40 retained tokens and 23 candidates, each candidate
    near a retained token and scaled by 1e-3 to 1e3. Two retained tokens
    are exact copies, so their candidates tie and are rechecked, which
    takes each row's own norm and gap; with ``uncertified``, float64 rows
    scaled to 1e200 and 1e-160 leave every row to the recheck."""
    rng = np.random.default_rng(22)
    hidden = rng.standard_normal((63, 12))
    hidden[31], hidden[17] = hidden[3], hidden[9]
    near = rng.integers(0, 40, 23)
    near[::5] = 3
    hidden[40:] = hidden[near] + 1e-3 * rng.standard_normal((23, 12))
    hidden[40:] *= 10.0 ** rng.integers(-3, 4, (23, 1))
    if uncertified:
        hidden[[5, 44]] *= 1e200
        hidden[[6, 50]] *= 1e-160
    else:
        hidden = hidden.astype(np.float32)
    return np.arange(40, 63), np.arange(40), hidden


def blas_stage_outputs():
    """Outputs of the three matrix-product stages: Q/K importance scores,
    clustered spatial-merge tokens and provenance, and inner-merge
    assignments on float32 and on uncertified float64 states."""
    tmr, imp, cfg = clustering_inputs()
    cv = spatial_merge(tmr, imp, cfg)
    with np.errstate(over="ignore", invalid="ignore"):  # the uncertified rows
        slots = [innerllm._assign(*assign_inputs(u)) for u in (False, True)]
    return [importance_from_qk(*qk_dumps(), (2, 3), (1, 3)).scores,
            cv.tokens, *cv.provenance_arrays, *slots]


class TestBlasStages:
    """Q/K importance, DPC-KNN clustering and the inner-merge scoring split
    across workers when BLAS runs one thread."""

    def test_inputs_cover_the_cases(self, monkeypatch):
        tmr, _, _ = clustering_inputs()
        assert np.unique(np.nonzero(tmr.redundant)[0]).size == 6  # six clustered segments
        calls = []
        exact = innerllm._exact_argmax

        def recheck(hidden, cand, *cols_and_norms):
            calls.append(int(cand))
            return exact(hidden, cand, *cols_and_norms)
        monkeypatch.setattr(innerllm, "_exact_argmax", recheck)
        innerllm._assign(*assign_inputs(False))
        assert 0 < len(calls) < 23  # near ties rechecked, the rest decided in float32
        calls.clear()
        with np.errstate(over="ignore", invalid="ignore"):
            innerllm._assign(*assign_inputs(True))
        assert len(calls) == 23

    @pytest.mark.parametrize("chunk", [7, 2048])
    def test_outputs_equal_for_every_worker_count(
            self, force_workers, force_blas, thread_starts, monkeypatch, chunk):
        """With 7-row blocks, 23 candidates make blocks of 7, 7, 7 and 2
        rows, and 2, 3 or 8 workers cut each block into pieces. The same
        rows are rechecked, each on the calling thread."""
        monkeypatch.setattr(innerllm, "_ASSIGN_CHUNK", chunk)
        rechecks = []
        exact = innerllm._exact_argmax

        def recheck(hidden, cand, *cols_and_norms):
            rechecks.append((int(cand), threading.get_ident()))
            return exact(hidden, cand, *cols_and_norms)
        monkeypatch.setattr(innerllm, "_exact_argmax", recheck)
        force_blas(1)
        results, rechecked = [], []
        for workers in BLAS_WORKER_COUNTS:
            force_workers(workers)
            before = thread_starts[0]
            results.append(blas_stage_outputs())
            assert (thread_starts[0] > before) == (workers > 1)
            rechecked.append(rechecks.copy())
            rechecks.clear()
        assert {ident for r in rechecked for _, ident in r} == {threading.get_ident()}
        assert all(r == rechecked[0] for r in rechecked)
        for got in results[1:]:
            assert all(same_bits(a, b) for a, b in zip(got, results[0]))

    def test_more_workers_than_cores_with_frequent_switches(self, force_workers, force_blas):
        force_blas(1)
        force_workers(1)
        expect = blas_stage_outputs()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            force_workers(8)
            for _ in range(3):
                assert all(same_bits(a, b) for a, b in zip(blas_stage_outputs(), expect))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("cpus, blas", [(2, 2), (2, None), (8, 8), (8, None)])
    def test_no_thread_when_blas_covers_the_cpus(
            self, force_workers, force_blas, monkeypatch, cpus, blas):
        """BLAS running a thread per CPU, or a thread count that cannot be
        read, keeps the three stages on the calling thread."""
        force_workers(cpus)
        force_blas(blas)
        q, k = qk_dumps()
        tmr, imp, cfg = clustering_inputs()
        candidates, retained, hidden = assign_inputs(False)
        rng = np.random.default_rng(9)
        inp = innerllm.InnerMergeInput(rng.standard_normal((30, 8)), rng.random(30))

        def refuse(self):
            raise AssertionError("a thread was started")
        monkeypatch.setattr(threading.Thread, "start", refuse)
        importance_from_qk(q, k, (2, 3))
        spatial_merge(tmr, imp, cfg)
        innerllm._assign(candidates, retained, hidden)
        inner_merge(inp, 50)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_compress_in_forked_child(force_workers, tmp_path):
    """A child forked after the parent has split work finishes its own
    split: no idle pool thread is inherited that never runs."""
    force_workers(2)
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), *SYNTH]) == 0
    argv = ["compress", "--tokens", str(corpus / "tokens.npy"), "--grid", "4x4"]
    for run in range(2):
        assert main([*argv, "--out", str(tmp_path / f"parent{run}")]) == 0
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = main([*argv, "--out", str(tmp_path / "child")])
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("compress in a forked child did not finish within 30 s")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status[1]) == 0
    assert ((tmp_path / "child" / "tokens.npy").read_bytes()
            == (tmp_path / "parent0" / "tokens.npy").read_bytes())
