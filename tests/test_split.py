"""Whole-stream passes split across CPUs: how ``core._split`` cuts the work,
when it starts threads, bit identity for any worker count, fork safety.

The worker count is forced by replacing ``core._cpu_count``; ``_split``
reads it on every call.
"""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

import test_golden
from test_temporal import merged_segments, reference_merged_values
from tokmerge import (
    VideoTokenStream,
    apply_temporal_merge,
    core,
    optimal_segmentation,
    pairwise_redundancy,
)
from tokmerge.cli import main

WORKER_COUNTS = (1, 2, 3)


@pytest.fixture
def force_workers(monkeypatch):
    def force(n):
        monkeypatch.setattr(core, "_cpu_count", lambda: n)
    return force


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


def bits(arr):
    return arr.view(np.uint32 if arr.dtype == np.float32 else np.uint64)


def run_passes(data, tau, rows=None):
    """sq_norms, redundancy mask and mean-mode temporal merge of one stream."""
    stream = VideoTokenStream(data, (1, data.shape[1]))
    mask = pairwise_redundancy(stream, tau) if rows is None else rows
    return stream.sq_norms, mask, apply_temporal_merge(
        stream, optimal_segmentation(mask), mask, "mean")


def assert_merged_like_reference(data, tmr):
    for s, e, red, merged in merged_segments(tmr):
        np.testing.assert_array_equal(
            bits(merged), bits(reference_merged_values(data, s, e, red, "mean")))


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
        np.testing.assert_array_equal(
            bits(results[0][0]), bits(np.einsum("bkd,bkd->bk", data, data)))
        for norms, mask, tmr in results:
            np.testing.assert_array_equal(bits(norms), bits(results[0][0]))
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
            np.testing.assert_array_equal(bits(merged), bits(
                reference_merged_values(data, s, e, [slot], "mean")))

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
                np.testing.assert_array_equal(bits(got[0]), bits(norms))
                np.testing.assert_array_equal(got[1], mask)
                np.testing.assert_array_equal(got[2].redundant, tmr.redundant)
                np.testing.assert_array_equal(bits(got[2].merged_values), bits(tmr.merged_values))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("case", sorted(test_golden.CASES))
    def test_golden_digests(self, force_workers, tmp_path, case, workers):
        force_workers(workers)
        assert test_golden.compress_case(case, tmp_path) == test_golden.CASES[case]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_compress_in_forked_child(force_workers, tmp_path):
    """A child forked after the parent has split work finishes its own
    split: no idle pool thread is inherited that never runs."""
    force_workers(2)
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out", str(corpus), *test_golden.SYNTH]) == 0
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
