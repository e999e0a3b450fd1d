import struct

import numpy as np
import pytest

from poksvd.wavio import WavError, read_wav, write_wav


class TestRoundTrip:
    def test_float32_is_lossless_at_single_precision(self, tmp_path):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(500, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "a.wav"
        write_wav(path, x, 16000)
        y, rate = read_wav(path)
        assert rate == 16000
        assert np.array_equal(y, x)

    def test_pcm16_quantization_error_bounded(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.uniform(-0.9, 0.9, size=(300, 2))
        path = tmp_path / "b.wav"
        write_wav(path, x, 8000, fmt="pcm16")
        y, rate = read_wav(path)
        assert rate == 8000
        assert np.max(np.abs(y - x)) <= 1.0 / 32768

    def test_mono_1d_input(self, tmp_path):
        path = tmp_path / "c.wav"
        write_wav(path, np.zeros(10), 44100)
        y, _ = read_wav(path)
        assert y.shape == (10, 1)

    def test_bad_format_name_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fmt"):
            write_wav(tmp_path / "d.wav", np.zeros(4), 8000, fmt="pcm24")


class TestReadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_wav(tmp_path / "nope.wav")

    def test_not_riff(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(b"JUNKJUNKJUNKJUNK")
        with pytest.raises(WavError, match="bad RIFF tag"):
            read_wav(p)

    def test_short_file(self, tmp_path):
        p = tmp_path / "x.wav"
        p.write_bytes(b"RIFF")
        with pytest.raises(WavError, match="missing RIFF header"):
            read_wav(p)

    def test_truncated_data_chunk_reports_offset(self, tmp_path):
        good = tmp_path / "good.wav"
        write_wav(good, np.zeros(100), 8000)
        blob = good.read_bytes()
        bad = tmp_path / "bad.wav"
        bad.write_bytes(blob[:-10])  # cut into the data payload
        with pytest.raises(WavError, match="truncated 'data' chunk at byte"):
            read_wav(bad)

    def test_trailing_partial_sample_is_dropped(self, tmp_path):
        good = tmp_path / "good.wav"
        write_wav(good, np.array([[0.25, -0.5]]), 8000, fmt="pcm16")
        blob = bytearray(good.read_bytes())
        # one stray byte after the 4-byte stereo frame: a 5-byte data chunk
        struct.pack_into("<I", blob, 4, len(blob) - 8 + 1)
        struct.pack_into("<I", blob, 40, 5)
        odd = tmp_path / "odd.wav"
        odd.write_bytes(bytes(blob) + b"\x7f")
        y, rate = read_wav(odd)
        assert rate == 8000
        assert np.array_equal(y, read_wav(good)[0])

    def test_missing_fmt_chunk(self, tmp_path):
        payload = b"\x00\x00\x00\x00"
        blob = b"RIFF" + struct.pack("<I", 4 + 8 + len(payload)) + b"WAVE"
        blob += b"data" + struct.pack("<I", len(payload)) + payload
        p = tmp_path / "x.wav"
        p.write_bytes(blob)
        with pytest.raises(WavError, match="missing 'fmt ' chunk"):
            read_wav(p)

    def test_unsupported_format_code(self, tmp_path):
        good = tmp_path / "good.wav"
        write_wav(good, np.zeros(10), 8000, fmt="pcm16")
        blob = bytearray(good.read_bytes())
        struct.pack_into("<H", blob, 20, 7)  # mu-law
        p = tmp_path / "x.wav"
        p.write_bytes(bytes(blob))
        with pytest.raises(WavError, match="unsupported format"):
            read_wav(p)

    def test_extensible_float32_accepted(self, tmp_path):
        good = tmp_path / "good.wav"
        write_wav(good, np.linspace(-0.5, 0.5, 20), 8000)
        blob = bytearray(good.read_bytes())
        struct.pack_into("<H", blob, 20, 0xFFFE)
        p = tmp_path / "x.wav"
        p.write_bytes(bytes(blob))
        y, _ = read_wav(p)
        assert y.shape == (20, 1)
