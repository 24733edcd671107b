"""Array file I/O: read-only mapped loading and writes by atomic replace.

Native float32 token files are mapped instead of copied, so every writer
must rename a finished temporary file over its target rather than truncate
the file a live stream may still map.
"""

import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import tokmerge
from tokmerge import (
    CompressedVideo,
    CompressionReport,
    DataError,
    SynthSpec,
    TokenProvenance,
    VideoTokenStream,
    generate,
    load_compressed,
    load_token_stream,
    save_compressed,
)
from tokmerge.cli import main
from tokmerge.core import replace_file
from support import arrays

GRID = (2, 3)


def tokens(frames=8, seed=5):
    spec = SynthSpec(frames=frames, grid=GRID, dim=32,
                     segments=((frames // 2, 0.6), (frames - frames // 2, 1.0)),
                     noise_sigma=0.01, seed=seed)
    return generate(spec)[0].data


def small_output():
    cv = CompressedVideo(np.arange(6, dtype=np.float32).reshape(3, 2),
                         arrays([TokenProvenance(0, slot, "selected", ()) for slot in range(3)]))
    return cv, CompressionReport(
        original_count=12, after_temporal_count=8, final_count=3,
        temporal_prune_ratio=1 - 8 / 12, overall_retained_ratio=3 / 12,
        segment_boundaries=((1, 3, 4), (3, 4, 0)),
        prefill_flops=1.5e11, baseline_flops=1e12)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

class TestTokenLayouts:
    def test_native_float32_is_mapped_read_only(self, tmp_path):
        path = tmp_path / "tokens.npy"
        np.save(path, tokens())
        stream = load_token_stream(path, GRID)
        assert isinstance(stream.data.base, np.memmap)
        assert not stream.data.flags.writeable
        np.testing.assert_array_equal(stream.data, tokens())

    @pytest.mark.parametrize("layout", [
        lambda a: a.astype(np.float64),
        lambda a: np.asfortranarray(a),
        lambda a: a.astype(">f4"),
        lambda a: a.astype(">f8"),
    ], ids=["float64", "fortran-float32", "big-endian-float32", "big-endian-float64"])
    def test_other_layouts_copied_equal(self, tmp_path, layout):
        path = tmp_path / "tokens.npy"
        np.save(path, layout(tokens()))
        stream = load_token_stream(path, GRID)
        copy = VideoTokenStream(np.load(path), GRID)
        assert stream.data.dtype == np.float32 and stream.data.flags.c_contiguous
        assert stream.data.flags.owndata and not stream.data.flags.writeable
        np.testing.assert_array_equal(stream.data, copy.data)
        np.testing.assert_array_equal(stream.sq_norms, copy.sq_norms)

    def test_big_endian_non_finite_reported(self, tmp_path):
        arr = tokens().astype(">f4")
        arr.flat[35] = np.nan
        path = tmp_path / "tokens.npy"
        np.save(path, arr)
        with pytest.raises(DataError, match="non-finite value at flat offset 35"):
            load_token_stream(path, GRID)

    def test_float16_rejected(self, tmp_path):
        path = tmp_path / "tokens.npy"
        np.save(path, tokens().astype(np.float16))
        with pytest.raises(DataError, match="dtype float16"):
            load_token_stream(path, GRID)

    def test_large_file_not_copied(self, tmp_path):
        # (96, 196, 448) float32 is 33.7 MB
        path = tmp_path / "big.npy"
        np.save(path, np.ones((96, 196, 448), dtype=np.float32))
        size = path.stat().st_size
        tracemalloc.start()
        try:
            stream = load_token_stream(path, (14, 14))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert size >= 32 * 2**20
        assert peak < size / 8
        assert float(stream.sq_norms[-1, -1]) == 448.0


def bad_file(path: Path, kind: str) -> Path:
    """Write an empty, zipped or truncated file under a ``.npy`` name."""
    arr = tokens()
    if kind == "empty":
        path.write_bytes(b"")
    elif kind == "zip":
        with open(path, "wb") as fh:
            np.savez(fh, tokens=arr)
    else:
        np.save(path, arr)
        path.write_bytes(path.read_bytes()[:-10])
    return path


KINDS = ["empty", "zip", "truncated"]


class TestBadFiles:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("flag", ["--tokens", "--qk", "--hidden"])
    def test_cli_exit_2_names_file(self, tmp_path, capsys, kind, flag):
        good = tmp_path / "good.npy"
        np.save(good, tokens())
        bad = bad_file(tmp_path / "bad.npy", kind)
        args = {"--tokens": ["--tokens", bad],
                "--qk": ["--tokens", good, "--qk", bad, good],
                "--hidden": ["--tokens", good, "--hidden", bad, "--last-attn", good]}[flag]
        out = tmp_path / "out"
        rc = main(["compress", "--grid", "2x3", "--out", str(out), *map(str, args)])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"malformed array file {bad}: " in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("kind", KINDS)
    def test_load_compressed_names_file(self, tmp_path, kind):
        save_compressed(*small_output(), tmp_path)
        bad = bad_file(tmp_path / "tokens.npy", kind)
        with pytest.raises(DataError, match=f"^malformed array file {bad}: "):
            load_compressed(tmp_path)

    @pytest.mark.parametrize("dtype", [np.complex64, "<U12"])
    def test_load_compressed_non_real_tokens_names_file(self, tmp_path, dtype):
        save_compressed(*small_output(), tmp_path)
        path = tmp_path / "tokens.npy"
        np.save(path, np.arange(6).reshape(3, 2).astype(dtype))
        with pytest.raises(DataError, match=(
                rf"^{path}: dtype {np.dtype(dtype)}, expected real values$")):
            load_compressed(tmp_path)

    def test_load_compressed_nan_token_names_file_and_offset(self, tmp_path):
        cv, report = small_output()
        tok = cv.tokens.copy()
        tok[2, 1] = np.nan
        save_compressed(CompressedVideo(tok, cv.provenance_arrays), report, tmp_path)
        path = tmp_path / "tokens.npy"
        with pytest.raises(DataError, match=rf"^{path}: non-finite value at flat offset 5$"):
            load_compressed(tmp_path)

    def test_load_compressed_float64_beyond_float32_names_file_and_offset(self, tmp_path):
        cv, report = small_output()
        save_compressed(cv, report, tmp_path)
        tok = cv.tokens.astype(np.float64)
        tok[2, 1] = -1e39
        path = tmp_path / "tokens.npy"
        np.save(path, tok)
        with pytest.raises(DataError,
                           match=rf"^{path}: value out of float32 range at flat offset 5$"):
            load_compressed(tmp_path)
        tok[2, 1] = 3.0e38  # in range: narrowed, as load_token_stream does
        np.save(path, tok)
        loaded, _ = load_compressed(tmp_path)
        assert loaded.tokens.dtype == np.float32 and loaded.tokens[2, 1] == np.float32(3.0e38)

    def test_missing_dump_named(self, tmp_path, capsys):
        good = tmp_path / "good.npy"
        np.save(good, tokens())
        rc = main(["compress", "--tokens", str(good), "--grid", "2x3",
                   "--qk", str(tmp_path / "q.npy"), str(good), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert f"query file not found: {tmp_path / 'q.npy'}" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------

class TestReplacingWrites:
    def test_out_into_tokens_directory_matches(self, tmp_path):
        shared = tmp_path / "shared"
        shared.mkdir()
        np.save(shared / "tokens.npy", tokens(frames=12))
        np.save(shared / "attn.npy", np.full((12, 6, 6), 1 / 6))
        common = ["--grid", "2x3", "--target-ratio", "0.3", "--attn", str(shared / "attn.npy")]
        rc = main(["compress", "--tokens", str(shared / "tokens.npy"),
                   "--out", str(tmp_path / "apart"), *common])
        assert rc == 0
        rc = main(["compress", "--tokens", str(shared / "tokens.npy"),
                   "--out", str(shared), *common])
        assert rc == 0
        for name in ("tokens.npy", "compressed.json"):
            assert (shared / name).read_bytes() == (tmp_path / "apart" / name).read_bytes()

    def test_mapped_stream_survives_overwrite(self, tmp_path):
        # A write that truncated the mapped file in place would end this
        # process with SIGBUS, so it runs apart from the test session.
        script = textwrap.dedent("""
            import sys
            from pathlib import Path
            import numpy as np
            from tokmerge import load_token_stream, save_compressed
            from tokmerge.core import replace_file
            from test_npy_io import small_output, tokens

            d = Path(sys.argv[1])
            np.save(d / "tokens.npy", tokens(frames=64))
            stream = load_token_stream(d / "tokens.npy", (2, 3))
            save_compressed(*small_output(), d)
            assert np.array_equal(stream.data, tokens(frames=64))
            replace_file(d / "tokens.npy", stream.data)
            assert np.array_equal(np.load(d / "tokens.npy"), tokens(frames=64))
            print("ok")
        """)
        paths = [str(Path(tokmerge.__file__).parents[1]), str(Path(__file__).parent)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ok\n"

    def test_no_temporary_files_after_success(self, tmp_path):
        corpus, out, agg = tmp_path / "corpus", tmp_path / "out", tmp_path / "agg"
        assert main(["synth", "--out", str(corpus), "--frames", "8", "--grid", "2x3",
                     "--dim", "16", "--segments", "4:0.5,4:1.0"]) == 0
        assert main(["compress", "--tokens", str(corpus / "tokens.npy"), "--grid", "2x3",
                     "--out", str(out)]) == 0
        assert main(["report", "--reports", str(out), "--out", str(agg)]) == 0
        replace_file(tmp_path / "copy.npy", load_token_stream(corpus / "tokens.npy", GRID).data)
        assert (tmp_path / "copy.npy").exists()
        assert not list(tmp_path.rglob("*.tmp"))

    def test_failed_array_write_keeps_old_file(self, tmp_path, monkeypatch):
        save_compressed(*small_output(), tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

        def partial_save(fh, arr):
            fh.write(b"\x93NUMPY")
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", partial_save)
        with pytest.raises(OSError, match="disk full"):
            save_compressed(*small_output(), tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_failed_text_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "doc.json"
        replace_file(path, "{}\n")
        with pytest.raises(UnicodeEncodeError):
            replace_file(path, "\ud800")
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
        assert path.read_text(encoding="utf-8") == "{}\n"
