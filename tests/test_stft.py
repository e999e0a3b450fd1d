import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poksvd.stft import OverlapAdd, Spectrogram, StftConfig, _window, istft, stft


class TestConfig:
    def test_defaults_are_64ms_half_overlap(self):
        cfg = StftConfig(sample_rate=16000)
        assert cfg.window_len == 1024
        assert cfg.hop == 512

    def test_explicit_values_kept(self):
        cfg = StftConfig(sample_rate=8000, window_len=256, hop=64)
        assert (cfg.window_len, cfg.hop) == (256, 64)

    def test_odd_window_rejected(self):
        with pytest.raises(ValueError, match="even"):
            StftConfig(sample_rate=16000, window_len=255)

    def test_bad_hop_rejected(self):
        with pytest.raises(ValueError, match="hop"):
            StftConfig(sample_rate=16000, window_len=256, hop=0)
        with pytest.raises(ValueError, match="hop"):
            StftConfig(sample_rate=16000, window_len=256, hop=512)

    @pytest.mark.parametrize("rate", [0, -8000])
    def test_non_positive_sample_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="sample_rate"):
            StftConfig(sample_rate=rate, window_len=256, hop=128)


class TestIstft:
    def test_missing_config_rejected(self):
        spec = Spectrogram(values=np.zeros((5, 1, 3), dtype=complex))
        with pytest.raises(ValueError, match="StftConfig"):
            istft(spec)


def whole_overlap_add(values, cfg):
    """Weighted overlap-add of all frames into one whole-length array."""
    F, M, T = values.shape
    wl, hop = cfg.window_len, cfg.hop
    w = _window(wl)
    out, wsum = np.zeros(((T - 1) * hop + wl, M)), np.zeros((T - 1) * hop + wl)
    for t in range(T):
        out[t * hop : t * hop + wl] += np.fft.irfft(values[:, :, t], n=wl, axis=0) * w[:, None]
        wsum[t * hop : t * hop + wl] += w * w
    return out / wsum[:, None]


def chunk_bounds(T, cuts):
    """[t0, t1) chunks of T frames split before each frame in ``cuts``."""
    edges = [0] + sorted({c for c in cuts if 0 < c < T}) + [T]
    return list(zip(edges, edges[1:]))


# window 16 with every hop that divides it, 1-30 frames, 1-3 channels, and
# chunk edges anywhere, one-frame chunks included
chunked = st.tuples(st.sampled_from([1, 2, 4, 8, 16]), st.integers(1, 30), st.integers(1, 3),
                    st.lists(st.integers(1, 29), max_size=8), st.integers(0, 2**32 - 1))


class TestChunks:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(chunked)
    def test_synthesis_in_chunks_has_the_bits_of_one_overlap_add(self, case):
        hop, T, M, cuts, seed = case
        rng = np.random.default_rng(seed)
        cfg = StftConfig(sample_rate=1000, window_len=16, hop=hop)
        values = rng.standard_normal((9, M, T)) + 1j * rng.standard_normal((9, M, T))
        acc = OverlapAdd(cfg, M, T)
        parts = [istft(Spectrogram(values[:, :, a:b], cfg), acc) for a, b in chunk_bounds(T, cuts)]
        for (a, b), part in zip(chunk_bounds(T, cuts), parts):
            assert part.shape[0] == (b - a) * hop + (16 - hop if b == T else 0)
        whole = istft(Spectrogram(values, cfg))
        assert np.concatenate(parts).tobytes() == whole.tobytes()
        assert whole.tobytes() == whole_overlap_add(values, cfg).tobytes()

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(chunked, st.integers(0, 15))
    def test_analysis_of_a_sample_range_gives_its_frames(self, case, extra):
        hop, T, M, cuts, seed = case
        cfg = StftConfig(sample_rate=1000, window_len=16, hop=hop)
        x = np.random.default_rng(seed).standard_normal(((T - 1) * hop + 16 + extra % hop, M))
        whole = stft(x, cfg).values
        for a, b in chunk_bounds(T, cuts):
            part = stft(x[a * hop : (b - 1) * hop + 16], cfg).values
            assert part.tobytes() == np.ascontiguousarray(whole[:, :, a:b]).tobytes()

    def test_frames_past_the_declared_count_rejected(self):
        cfg = StftConfig(sample_rate=1000, window_len=16, hop=8)
        acc = OverlapAdd(cfg, 1, 3)
        istft(Spectrogram(np.ones((9, 1, 2), dtype=complex), cfg), acc)
        with pytest.raises(ValueError, match="exceed the 3 frames"):
            istft(Spectrogram(np.ones((9, 1, 2), dtype=complex), cfg), acc)


class TestStft:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        x = np.zeros((256, 2))
        x[100, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            stft(x, StftConfig(sample_rate=1000, window_len=64, hop=32))

    def test_frame_count(self):
        cfg = StftConfig(sample_rate=1000, window_len=64, hop=16)
        x = np.zeros((64 + 5 * 16 + 3, 1))
        spec = stft(x, cfg)
        assert spec.frames == 6  # trailing partial window dropped
        assert spec.bins == 33
        assert spec.channels == 1

    def test_values_match_direct_rfft(self):
        rng = np.random.default_rng(0)
        cfg = StftConfig(sample_rate=1000, window_len=32, hop=8)
        x = rng.standard_normal((80, 2))
        spec = stft(x, cfg)
        n = 32
        w = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(n) / n)  # periodic form
        for t in (0, 1, 2):
            seg = x[t * 8 : t * 8 + 32] * w[:, None]
            assert np.allclose(spec.values[:, :, t], np.fft.rfft(seg, axis=0), atol=1e-12)

    def test_too_short_input_rejected(self):
        cfg = StftConfig(sample_rate=1000, window_len=64, hop=32)
        with pytest.raises(ValueError, match="too short"):
            stft(np.zeros((63, 1)), cfg)

    def test_1d_input_promoted_to_one_channel(self):
        cfg = StftConfig(sample_rate=1000, window_len=32, hop=16)
        spec = stft(np.ones(64), cfg)
        assert spec.channels == 1


class TestRoundTrip:
    @pytest.mark.parametrize("channels", [1, 2, 4])
    def test_interior_reconstruction(self, channels):
        rng = np.random.default_rng(channels)
        cfg = StftConfig(sample_rate=1000, window_len=64, hop=32)
        x = rng.standard_normal((64 * 7, channels))
        y = istft(stft(x, cfg))
        # edges lack full overlap coverage; interior samples are exact
        wl = 64
        assert np.allclose(y[wl:-wl], x[: y.shape[0]][wl:-wl], atol=1e-10)

    def test_unit_hop_round_trip(self):
        # hop = window_len: frames do not overlap, so each sample is w*x*w / w^2
        rng = np.random.default_rng(9)
        cfg = StftConfig(sample_rate=100, window_len=8, hop=8)
        x = rng.standard_normal((40, 1))
        y = istft(stft(x, cfg))
        assert np.allclose(y, x[: y.shape[0]], atol=1e-12)

    def test_output_length(self):
        cfg = StftConfig(sample_rate=1000, window_len=64, hop=32)
        x = np.zeros((64 + 32 * 9, 1))
        y = istft(stft(x, cfg))
        assert y.shape == x.shape


class TestSpectrogram:
    def test_frame_matrix_layout(self):
        # column t must concatenate per-bin channel blocks in bin order
        vals = np.arange(2 * 3 * 4).reshape(2, 3, 4).astype(complex)
        spec = Spectrogram(values=vals)
        fm = spec.frame_matrix()
        assert fm.shape == (6, 4)
        assert np.array_equal(fm[:, 1], vals[:, :, 1].ravel())

    def test_frame_matrix_round_trip(self):
        rng = np.random.default_rng(3)
        vals = rng.standard_normal((5, 2, 7)) + 1j * rng.standard_normal((5, 2, 7))
        spec = Spectrogram(values=vals)
        back = Spectrogram.from_frame_matrix(spec.frame_matrix(), 2)
        assert np.array_equal(back.values, vals)

    def test_from_frame_matrix_rejects_bad_channels(self):
        with pytest.raises(ValueError, match="divisible"):
            Spectrogram.from_frame_matrix(np.zeros((7, 3)), 2)
