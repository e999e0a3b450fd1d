import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poksvd.wavio import WavError, WavWriter, read_wav, wav_info, write_wav


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

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640), (0o077, 0o600)])
    def test_new_file_mode_follows_the_umask(self, tmp_path, umask, mode):
        old = os.umask(umask)
        try:
            write_wav(tmp_path / "m.wav", np.zeros(4), 8000)
        finally:
            os.umask(old)
        assert (tmp_path / "m.wav").stat().st_mode & 0o777 == mode


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

    @pytest.mark.parametrize("offset, what", [(22, "channel count"), (24, "sample rate")])
    def test_zero_channels_or_rate_names_the_fmt_chunk(self, tmp_path, offset, what):
        good = tmp_path / "good.wav"
        write_wav(good, np.zeros(10), 8000)
        blob = bytearray(good.read_bytes())
        struct.pack_into("<H" if what == "channel count" else "<I", blob, offset, 0)
        p = tmp_path / "x.wav"
        p.write_bytes(bytes(blob))
        with pytest.raises(WavError, match="%s: invalid %s 0 in 'fmt ' chunk at byte 12" % (p, what)):
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


# Generated chunk layouts: extra chunks of any size (an odd size carries a
# pad byte) before 'fmt ', between 'fmt ' and 'data', or after 'data'; a
# plain or WAVE_FORMAT_EXTENSIBLE fmt chunk; PCM16 or float32 samples.
GENERATED = settings(max_examples=80, deadline=None, derandomize=True)
extra_chunks = st.lists(
    st.tuples(st.sampled_from([b"LIST", b"JUNK", b"fact"]), st.integers(0, 9), st.integers(0, 2)),
    max_size=4,
)


def chunk(cid, body):
    return cid + struct.pack("<I", len(body)) + body + b"\x00" * (len(body) & 1)


def wav_layout(fmt_name, extensible, frames, channels, extras, seed):
    """A WAV file's bytes, its samples as read_wav must return them, and the
    (offset, id, body size) of each chunk in file order."""
    rng = np.random.default_rng(seed)
    if fmt_name == "pcm16":
        ints = rng.integers(-32768, 32768, size=(frames, channels)).astype("<i2")
        payload, expected, code, bits = ints.tobytes(), ints / 32768.0, 1, 16
    else:
        floats = rng.uniform(-1, 1, size=(frames, channels)).astype("<f4")
        payload, expected, code, bits = floats.tobytes(), floats.astype(np.float64), 3, 32
    align, rate = channels * bits // 8, 8000
    fmt = struct.pack("<HHIIHH", 0xFFFE if extensible else code, channels, rate, rate * align, align, bits)
    if extensible:
        # cbSize, valid bits, channel mask, then the sub-format GUID
        fmt += struct.pack("<HHI", 22, bits, 0) + struct.pack("<H", code) + bytes(14)
    slots = [[], [], []]
    for cid, size, slot in extras:
        slots[slot].append((cid, bytes(rng.integers(0, 256, size=size, dtype=np.uint8))))
    parts = slots[0] + [(b"fmt ", fmt)] + slots[1] + [(b"data", payload)] + slots[2]
    body, layout = b"WAVE", []
    for cid, part in parts:
        layout.append((8 + len(body), cid, len(part)))  # body starts at byte 8
        body += chunk(cid, part)
    return b"RIFF" + struct.pack("<I", len(body)) + body, expected, layout


layouts = st.tuples(
    st.sampled_from(["pcm16", "float32"]), st.booleans(), st.integers(0, 40), st.integers(1, 3),
    extra_chunks, st.integers(0, 2**32 - 1),
)


class TestGeneratedLayouts:
    @GENERATED
    @given(layouts)
    def test_samples_read_back_exactly(self, tmp_path_factory, layout):
        blob, expected, _ = wav_layout(*layout)
        path = tmp_path_factory.mktemp("wav") / "x.wav"
        path.write_bytes(blob)
        samples, rate = read_wav(path)
        assert rate == 8000
        assert samples.dtype == np.float64 and samples.shape == expected.shape
        assert samples.tobytes() == expected.tobytes()

    @GENERATED
    @given(layouts, st.data())
    def test_truncated_chunk_names_its_offset(self, tmp_path_factory, layout, data):
        blob, _, chunks = wav_layout(*layout)
        offset, cid, size = data.draw(st.sampled_from([c for c in chunks if c[2] > 0]))
        # cut the file inside that chunk's body
        cut = data.draw(st.integers(offset + 8, offset + 8 + size - 1))
        path = tmp_path_factory.mktemp("wav") / "x.wav"
        path.write_bytes(blob[:cut])
        message = "truncated '%s' chunk at byte %d" % (cid.decode(), offset)
        with pytest.raises(WavError, match=message):
            read_wav(path)

    @GENERATED
    @given(layouts, st.data())
    def test_frame_ranges_read_back_exactly(self, tmp_path_factory, layout, data):
        blob, expected, _ = wav_layout(*layout)
        path = tmp_path_factory.mktemp("wav") / "x.wav"
        path.write_bytes(blob)
        info = wav_info(path)
        assert (info.frames, info.channels, info.rate) == (expected.shape[0], expected.shape[1], 8000)
        start = data.draw(st.integers(0, info.frames))
        stop = data.draw(st.integers(start, info.frames))
        samples, rate = read_wav(info, start, stop)
        assert rate == 8000
        assert samples.tobytes() == expected[start:stop].tobytes()


class TestPieces:
    @pytest.mark.parametrize("fmt", ["float32", "pcm16"])
    @pytest.mark.parametrize("cuts", [[], [0, 0], [1], [7, 8, 20], [39]])
    def test_appended_pieces_give_the_bytes_of_one_write(self, tmp_path, fmt, cuts):
        x = np.random.default_rng(6).uniform(-1.2, 1.2, size=(40, 2))
        write_wav(tmp_path / "whole.wav", x, 8000, fmt)
        edges = [0] + cuts + [40]
        with WavWriter(tmp_path / "pieces.wav", 40, 2, 8000, fmt) as out:
            for a, b in zip(edges, edges[1:]):
                write_wav(out, x[a:b], 8000, fmt)
        assert (tmp_path / "pieces.wav").read_bytes() == (tmp_path / "whole.wav").read_bytes()

    def test_file_over_4_gib_rejected_before_writing(self, tmp_path):
        frames = (2**32 - 36) // 8 + 1  # one stereo float32 frame too many
        with pytest.raises(ValueError, match="exceed the 4 GiB of a WAV file"):
            WavWriter(tmp_path / "big.wav", frames, 2, 8000)
        assert list(tmp_path.iterdir()) == []
        WavWriter(tmp_path / "big.wav", frames - 1, 2, 8000).discard()

    def test_out_of_range_read_rejected(self, tmp_path):
        write_wav(tmp_path / "a.wav", np.zeros((10, 2)), 8000)
        info = wav_info(tmp_path / "a.wav")
        for start, stop in ((0, 11), (5, 4), (-1, 3)):
            with pytest.raises(ValueError, match="outside the 10"):
                read_wav(info, start, stop)

    def test_file_cut_after_parsing_is_a_wav_error(self, tmp_path):
        path = tmp_path / "a.wav"
        write_wav(path, np.zeros((10, 2)), 8000)
        info = wav_info(path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(WavError, match="ends before frame 10"):
            read_wav(info, 8, 10)

    @pytest.mark.parametrize("failure", ["short", "raise", "too many", "wrong rate"])
    def test_unfinished_file_leaves_nothing_behind(self, tmp_path, failure):
        path = tmp_path / "a.wav"
        path.write_bytes(b"old")
        with pytest.raises((ValueError, RuntimeError)):
            with WavWriter(path, 10, 1, 8000) as out:
                write_wav(out, np.zeros(6), 8000)
                if failure == "raise":
                    raise RuntimeError("stop")
                if failure == "too many":
                    write_wav(out, np.zeros(5), 8000)
                if failure == "wrong rate":
                    write_wav(out, np.zeros(4), 16000)
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.wav"]
