"""Multichannel STFT analysis and weighted overlap-add synthesis.

Conventions: one-sided spectrum, periodic Hamming analysis window, no
zero-padding (trailing partial windows are dropped), all scaling deferred
to the synthesis normalization so that istft(stft(x)) reconstructs interior
samples exactly.  A StftConfig is complete and valid once built, so the
transforms use it as given; istft reads it from the spectrogram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StftConfig:
    """Complete and checked when built: an unset window_len or hop takes
    its default, and a sample_rate that is not positive, a window that is
    not positive and even or a hop outside (0, window_len] raises
    ValueError."""

    sample_rate: int = 16000
    window_len: int | None = None  # defaults to 64 ms at sample_rate
    hop: int | None = None  # defaults to window_len // 2

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive, got %d" % self.sample_rate)
        if self.window_len is None:
            object.__setattr__(self, "window_len", int(round(0.064 * self.sample_rate)))
        if self.hop is None:
            object.__setattr__(self, "hop", self.window_len // 2)
        if self.window_len <= 0 or self.window_len % 2 != 0:
            raise ValueError("window_len must be positive and even, got %d" % self.window_len)
        if not (0 < self.hop <= self.window_len):
            raise ValueError("hop must satisfy 0 < hop <= window_len")


def _window(n):
    # periodic form: clean overlap-add at 50% overlap
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / n)


@dataclass
class Spectrogram:
    """Complex multichannel time-frequency tensor, values indexed (f, m, t).

    A frame vector is the length M*F concatenation of per-bin channel
    blocks, i.e. ``values[:, :, t].ravel()``.
    """

    values: np.ndarray  # (F, M, T) complex
    config: StftConfig | None = None

    @property
    def bins(self):
        return self.values.shape[0]

    @property
    def channels(self):
        return self.values.shape[1]

    @property
    def frames(self):
        return self.values.shape[2]

    def frame_matrix(self):
        """(M*F, T) matrix whose column t is the frame vector y_t."""
        F, M, T = self.values.shape
        return self.values.reshape(F * M, T)

    @classmethod
    def from_frame_matrix(cls, frames, channels, config=None):
        frames = np.asarray(frames, dtype=np.complex128)
        mf, T = frames.shape
        if mf % channels != 0:
            raise ValueError("frame length %d not divisible by %d channels" % (mf, channels))
        F = mf // channels
        return cls(values=frames.reshape(F, channels, T), config=config)


def frame_count(samples, cfg):
    """Frames of a ``samples``-long signal, T = floor((samples - window_len)/hop) + 1;
    a signal shorter than one window raises ValueError."""
    if samples < cfg.window_len:
        raise ValueError("input too short: %d samples < window_len %d" % (samples, cfg.window_len))
    return (samples - cfg.window_len) // cfg.hop + 1


def stft(signal, cfg):
    """Short-time Fourier transform of a (samples, channels) signal.

    Frame t covers samples [t*hop, t*hop + window_len); trailing partial
    windows are dropped, so T = floor((len - window_len)/hop) + 1.  Each
    frame is transformed on its own, so the frames [t0, t1) of a signal are
    those of its samples [t0*hop, (t1 - 1)*hop + window_len), bit for bit.
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim == 1:
        signal = signal[:, None]
    if signal.ndim != 2:
        raise ValueError("signal must be 2-D (samples, channels)")
    if not np.isfinite(signal).all():
        raise ValueError("signal has non-finite samples")
    n, channels = signal.shape
    wl, hop = cfg.window_len, cfg.hop
    T = frame_count(n, cfg)
    w = _window(wl)
    F = wl // 2 + 1
    starts = np.arange(T) * hop
    out = np.empty((F, channels, T), dtype=np.complex128)
    for t, s in enumerate(starts):
        seg = signal[s : s + wl, :] * w[:, None]
        out[:, :, t] = np.fft.rfft(seg, axis=0)
    return Spectrogram(values=out, config=cfg)


class OverlapAdd:
    """Weighted overlap-add synthesis of a ``frames``-frame spectrogram
    given to ``istft`` in consecutive chunks of frames.

    A chunk's frames are added to the window - hop samples that the frames
    before it left unfinished, in frame order, so every output sample sums
    the same frames in the same order as one whole-spectrogram call and gets
    its bits.  Only that tail, and its squared-window sum, is carried over.
    """

    def __init__(self, cfg, channels, frames):
        self.cfg, self.frames, self.done = cfg, frames, 0
        carry = cfg.window_len - cfg.hop
        self._out = np.zeros((carry, channels))
        self._wsum = np.zeros(carry)

    def add(self, values):
        """Add the next (F, M, T) frames; return the samples they finish,
        (T*hop, M), and with the last frame also the remaining tail."""
        _, M, T = values.shape
        wl, hop = self.cfg.window_len, self.cfg.hop
        if self.done + T > self.frames:
            raise ValueError("%d more frames exceed the %d frames of the synthesis (%d added)"
                             % (T, self.frames, self.done))
        w = _window(wl)
        carry = wl - hop
        n = T * hop + carry
        out = np.zeros((n, M))
        wsum = np.zeros(n)
        out[:carry] = self._out
        wsum[:carry] = self._wsum
        for t in range(T):
            seg = np.fft.irfft(values[:, :, t], n=wl, axis=0)
            s = t * hop
            out[s : s + wl, :] += seg * w[:, None]
            wsum[s : s + wl] += w * w
        self.done += T
        if self.done < self.frames:  # the tail waits for the next chunk's frames
            n = T * hop
            self._out, self._wsum = out[n:].copy(), wsum[n:].copy()
            out, wsum = out[:n], wsum[:n]
        if np.any(wsum < 1e-8):
            raise ValueError("non-invertible config: window-sum below 1e-8")
        out /= wsum[:, None]
        return out


def istft(spec, acc=None):
    """Weighted overlap-add inverse with squared-window normalization.

    Perfect reconstruction on interior samples for unmodified spectrograms.
    With ``acc``, an ``OverlapAdd`` that has taken the frames before
    ``spec``'s, returns only the samples that ``spec``'s frames finish.
    """
    cfg = spec.config
    if cfg is None:
        raise ValueError("istft needs the spectrogram's StftConfig, but its config is None")
    F, M, T = spec.values.shape
    if F != cfg.window_len // 2 + 1:
        raise ValueError("spectrogram bins inconsistent with window_len")
    if acc is None:
        acc = OverlapAdd(cfg, M, T)
    return acc.add(spec.values)
