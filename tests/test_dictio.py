import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poksvd.dictio import MAGIC, DictionaryFileError, load_dictionary, save_dictionary
from poksvd.pipeline import random_dictionary
from poksvd.stft import StftConfig


def make_dictionary(seed=0, channels=2, bins=8, num_atoms=5):
    rng = np.random.default_rng(seed)
    return random_dictionary(rng, channels, bins, num_atoms)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        D = make_dictionary()
        cfg = StftConfig(sample_rate=16000, window_len=1024, hop=512)
        path = tmp_path / "d.bin"
        save_dictionary(path, D, cfg)
        D2, cfg2 = load_dictionary(path)
        assert np.array_equal(D.atoms, D2.atoms)
        assert (D2.channels, D2.bins, D2.num_atoms) == (2, 8, 5)
        assert (cfg2.sample_rate, cfg2.window_len, cfg2.hop) == (16000, 1024, 512)

    def test_repeated_saves_identical(self, tmp_path):
        D = make_dictionary(1)
        cfg = StftConfig(sample_rate=8000, window_len=512, hop=256)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_dictionary(p1, D, cfg)
        save_dictionary(p2, D, cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_file_starts_with_magic(self, tmp_path):
        path = tmp_path / "d.bin"
        save_dictionary(path, make_dictionary(), StftConfig(16000, 1024, 512))
        assert path.read_bytes().startswith(MAGIC)


class TestGeneratedRoundTrip:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(1, 3), st.integers(1, 9), st.integers(1, 6), st.integers(0, 2**32 - 1),
        st.integers(1, 192000), st.integers(1, 2048), st.data(),
    )
    def test_atoms_and_config_bit_exact(self, tmp_path_factory, M, F, K, seed, rate, half_window, data):
        D = random_dictionary(np.random.default_rng(seed), M, F, K)
        window_len = 2 * half_window
        cfg = StftConfig(sample_rate=rate, window_len=window_len,
                         hop=data.draw(st.integers(1, window_len)))
        path = tmp_path_factory.mktemp("dictio") / "d.bin"
        save_dictionary(path, D, cfg)
        D2, cfg2 = load_dictionary(path)
        assert (D2.channels, D2.bins, D2.num_atoms) == (M, F, K)
        assert D2.atoms.dtype == D.atoms.dtype
        assert D2.atoms.tobytes() == D.atoms.tobytes()
        assert cfg2 == cfg


class TestLoadErrors:
    def good_file(self, tmp_path):
        path = tmp_path / "d.bin"
        save_dictionary(path, make_dictionary(), StftConfig(16000, 1024, 512))
        return path

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_dictionary(tmp_path / "nope.bin")

    def test_bad_magic(self, tmp_path):
        path = self.good_file(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(DictionaryFileError, match="bad magic"):
            load_dictionary(path)

    def test_short_file(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(MAGIC[:4])
        with pytest.raises(DictionaryFileError, match="too short"):
            load_dictionary(path)

    def test_truncated_payload(self, tmp_path):
        path = self.good_file(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(DictionaryFileError, match="payload size"):
            load_dictionary(path)

    def test_corrupt_atoms_fail_norm_check(self, tmp_path):
        path = self.good_file(tmp_path)
        blob = bytearray(path.read_bytes())
        # zero out the first atom's payload
        start = len(MAGIC) + 24
        blob[start : start + 16 * 16] = bytes(16 * 16)
        path.write_bytes(bytes(blob))
        with pytest.raises(DictionaryFileError, match="unit-norm"):
            load_dictionary(path)

    @pytest.mark.parametrize("wl, hop", [(1024, 0), (1024, 2048), (1023, 512), (0, 0)])
    def test_impossible_stft_header(self, tmp_path, wl, hop):
        path = self.good_file(tmp_path)
        blob = bytearray(path.read_bytes())
        # window_len and hop are the last two of the six header words
        blob[len(MAGIC) + 16 : len(MAGIC) + 24] = struct.pack("<2I", wl, hop)
        path.write_bytes(bytes(blob))
        with pytest.raises(DictionaryFileError, match=re.escape(str(path))):
            load_dictionary(path)

    def test_zero_sample_rate_header(self, tmp_path):
        path = self.good_file(tmp_path)
        blob = bytearray(path.read_bytes())
        # the sample rate is the fourth of the six header words
        blob[len(MAGIC) + 12 : len(MAGIC) + 16] = struct.pack("<I", 0)
        path.write_bytes(bytes(blob))
        with pytest.raises(DictionaryFileError, match=re.escape(str(path)) + ".*sample_rate"):
            load_dictionary(path)

    @pytest.mark.parametrize("m, f, k", [(2, 513, 0), (0, 513, 40), (2, 0, 40), (0, 0, 0)])
    def test_header_with_no_atoms_or_no_rows(self, tmp_path, m, f, k):
        # a payload of m * f * k = 0 bytes matches the header's size
        path = tmp_path / "empty.bin"
        path.write_bytes(MAGIC + struct.pack("<6I", m, f, k, 16000, 1024, 512))
        with pytest.raises(DictionaryFileError,
                           match=re.escape("%s: header has M=%d, F=%d, K=%d" % (path, m, f, k))):
            load_dictionary(path)
