"""Benchmark inputs and the file formats they travel in, written with numpy
alone so that no input or reference value comes from the package under test.

Audio workloads use 16 kHz stereo with a 1024-sample window and a 512-sample
hop, the package's default STFT at that rate.  Every clip length is a whole
number of hops past one window, so the package's inverse STFT returns exactly
as many samples as it was given.
"""

from __future__ import annotations

import struct

import numpy as np

RATE = 16000
WINDOW = 1024
HOP = 512
BINS = WINDOW // 2 + 1
CHANNELS = 2

DICT_MAGIC = b"POKSVD1"
_DICT_HEADER = struct.Struct("<6I")

# Fixed inter-channel transfers: the ego-noise reaches channel 1 through a
# short two-tap path, the target arrives 5 samples earlier at channel 1.
_NOISE_FIR = np.zeros(10)
_NOISE_FIR[3], _NOISE_FIR[9] = 0.8, -0.3
_TARGET_DELAY = 5
_TARGET_GAIN = 0.9

NOISE_F0 = 118.0  # Hz, motor fundamental
NOISE_JITTER = 0.004  # peak relative deviation of the fundamental
NOISE_TOP_HZ = 6500.0
DIFFUSE_LEVEL = 0.03  # diffuse noise std relative to the harmonic rms
BABBLE_STREAMS = 8


def clip_samples(seconds):
    """Length nearest ``seconds`` that the STFT tiles with no partial frame."""
    frames = int(round((seconds * RATE - WINDOW) / HOP)) + 1
    return WINDOW + HOP * (frames - 1)


def frame_count(samples):
    """STFT frames of a clip: floor((samples - window) / hop) + 1."""
    return (samples - WINDOW) // HOP + 1


def _smooth_noise(rng, n, step):
    knots = rng.standard_normal(n // step + 2)
    return np.interp(np.arange(n) / step, np.arange(knots.size), knots)


def ego_noise(rng, n):
    """Motor/fan-like stereo noise: harmonics of a slowly jittered
    fundamental through a fixed inter-channel transfer, plus diffuse noise.

    Returns (samples (n, 2), instantaneous fundamental (n,) in Hz).
    """
    f0 = NOISE_F0 * (1.0 + NOISE_JITTER * np.tanh(_smooth_noise(rng, n, 800)))
    phase = 2.0 * np.pi * np.cumsum(f0) / RATE
    source = np.zeros(n)
    for h in range(1, int(NOISE_TOP_HZ // NOISE_F0) + 1):
        source += h**-0.7 * np.cos(h * phase + rng.uniform(0.0, 2.0 * np.pi))
    stereo = np.stack([source, np.convolve(source, _NOISE_FIR)[:n]], axis=1)
    diffuse = rng.standard_normal((n, CHANNELS)) * DIFFUSE_LEVEL * np.sqrt(np.mean(source**2))
    return stereo + diffuse, f0


def _syllables(rng, n):
    """One talker: harmonic syllables with a rising glide, separated by gaps."""
    out = np.zeros(n)
    pos = 0
    while pos < n:
        length = int(rng.uniform(0.15, 0.3) * RATE)
        glide = rng.uniform(180.0, 260.0) * (1.0 + 0.1 * np.arange(length) / (length - 1))
        phase = 2.0 * np.pi * np.cumsum(glide) / RATE
        syl = sum(np.cos(k * phase + rng.uniform(0.0, 2.0 * np.pi)) / k for k in range(1, 16))
        end = min(n, pos + length)
        out[pos:end] += (np.hanning(length) * syl)[: end - pos]
        pos += length + int(rng.uniform(0.02, 0.1) * RATE)
    return out


def babble_target(rng, n):
    """Speech-like target from a direction distinct from the noise's: the sum
    of a few syllable streams, leading at channel 1.  Summing streams keeps
    its statistics, and with them the SDR gain, steady across seeds."""
    s = sum(_syllables(rng, n) for _ in range(BABBLE_STREAMS))
    delayed = np.concatenate([np.zeros(_TARGET_DELAY), s[:-_TARGET_DELAY]]) * _TARGET_GAIN
    return np.stack([delayed, s], axis=1)


def hamming(n):
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(n) / n)


def stft_frames(x):
    """(M*F, T) frame matrix of a (samples, channels) signal, laid out as the
    package stores frames: row f*M + m is channel m of bin f."""
    T = frame_count(x.shape[0])
    idx = np.arange(WINDOW)[None, :] + HOP * np.arange(T)[:, None]  # (T, W)
    segs = x[idx] * hamming(WINDOW)[None, :, None]  # (T, W, M)
    spec = np.fft.rfft(segs, axis=1)  # (T, F, M)
    return spec.transpose(1, 2, 0).reshape(BINS * x.shape[1], T)


def gauge(atom, channels):
    """Unit norm with every bin's first-channel entry real and >= 0."""
    blocks = (atom / np.linalg.norm(atom)).reshape(-1, channels)
    ref = blocks[:, :1]
    rot = np.where(ref != 0, np.abs(ref) / np.where(ref != 0, ref, 1.0), 1.0)
    return (blocks * rot).ravel()


def noise_dictionary(rng, atoms):
    """Dictionary for the denoise workload from a 3 s noise-only clip: the
    frames at evenly spaced quantiles of their mean fundamental, so the atoms
    span the jitter range the mixture's noise also covers."""
    noise, f0 = ego_noise(rng, clip_samples(3.0))
    Y = stft_frames(noise)
    frame_f0 = np.array([f0[t * HOP : t * HOP + WINDOW].mean() for t in range(Y.shape[1])])
    order = np.argsort(frame_f0, kind="stable")
    picks = order[np.linspace(0, order.size - 1, atoms).round().astype(int)]
    return np.stack([gauge(Y[:, t], CHANNELS) for t in picks], axis=1)


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def phase_invariant_overlap(atoms, channels):
    """(K, K) matrix of sum_f |<d_fj, d_fk>| with a zero diagonal."""
    blocks = atoms.reshape(-1, channels, atoms.shape[1])
    G = np.abs(np.einsum("fmj,fmk->fjk", blocks.conj(), blocks)).sum(axis=0)
    np.fill_diagonal(G, 0.0)
    return G


def planted_atoms(rng, channels, bins, atoms, limit=0.5):
    """Random gauge-normalised atoms, repelled pairwise until their
    phase-invariant overlap is below ``limit``."""
    D = np.stack([gauge(_crandn(rng, channels * bins), channels) for _ in range(atoms)], axis=1)
    for _ in range(1000):
        G = phase_invariant_overlap(D, channels)
        if G.max() < limit:
            return D
        j, k = np.unravel_index(np.argmax(G), G.shape)
        bj, bk = D[:, j].reshape(bins, channels), D[:, k].reshape(bins, channels)
        c = np.einsum("fm,fm->f", bj.conj(), bk)
        u = c / np.where(np.abs(c) > 0, np.abs(c), 1.0)
        D[:, k] = gauge((bk - 0.25 * u[:, None] * bj).ravel(), channels)
    raise RuntimeError("planted atoms did not separate below overlap %g" % limit)


def planted_frames(rng, D, channels, frames, active, gain_range=(0.5, 2.0)):
    """Frames of ``active`` distinct atoms each, with uniform gains and an
    independent unit phase per (bin, atom)."""
    bins, K = D.shape[0] // channels, D.shape[1]
    blocks = D.reshape(bins, channels, K)
    Y = np.zeros((channels * bins, frames), dtype=np.complex128)
    for t in range(frames):
        for k in rng.choice(K, size=active, replace=False):
            rot = np.exp(2j * np.pi * rng.uniform(size=bins))
            Y[:, t] += rng.uniform(*gain_range) * (rot[:, None] * blocks[:, :, k]).ravel()
    return Y


def planted_target(rng, rows, frames, noise, sdr_db=-5.0):
    """A rank-2 target outside the noise model, scaled to ``sdr_db`` against
    ``noise``."""
    S = _crandn(rng, rows, 2) @ rng.uniform(0.5, 1.5, size=(2, frames))
    return S * np.sqrt(np.sum(np.abs(noise) ** 2) / np.sum(np.abs(S) ** 2) * 10 ** (sdr_db / 10))


def write_wav(path, samples, rate=RATE):
    """IEEE float32 WAV."""
    samples = np.asarray(samples, dtype="<f4")
    n, channels = samples.shape
    payload = samples.tobytes()
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, 3, channels, rate, rate * channels * 4, channels * 4, 32)
    header += b"data" + struct.pack("<I", len(payload))
    with open(path, "wb") as fh:
        fh.write(header + payload)


def read_wav(path):
    """(samples (n, channels) float64, rate) of a float32 WAV."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise ValueError("%s: not a RIFF/WAVE file" % path)
    fmt = data = None
    pos = 12
    while pos + 8 <= len(blob):
        cid = blob[pos : pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8 : pos + 8 + size]
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", body)
        elif cid == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError("%s: missing fmt or data chunk" % path)
    code, channels, rate, _, _, bits = fmt
    if (code, bits) != (3, 32):
        raise ValueError("%s: expected float32 samples, got code %d / %d bits" % (path, code, bits))
    return np.frombuffer(data, dtype="<f4").astype(np.float64).reshape(-1, channels), rate


def write_dictionary(path, atoms, channels, rate=RATE, window=WINDOW, hop=HOP):
    """Dictionary file: magic, (M, F, K, rate, window, hop) as uint32, then
    the atoms column by column as little-endian complex128."""
    bins = atoms.shape[0] // channels
    header = DICT_MAGIC + _DICT_HEADER.pack(channels, bins, atoms.shape[1], rate, window, hop)
    with open(path, "wb") as fh:
        fh.write(header + np.asarray(atoms, dtype="<c16").tobytes(order="F"))


def read_dictionary(path):
    """(atoms (M*F, K), header dict) of a dictionary file."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(DICT_MAGIC)] != DICT_MAGIC:
        raise ValueError("%s: bad magic" % path)
    m, f, k, rate, window, hop = _DICT_HEADER.unpack_from(blob, len(DICT_MAGIC))
    offset = len(DICT_MAGIC) + _DICT_HEADER.size
    if len(blob) != offset + 16 * m * f * k:
        raise ValueError("%s: payload does not match the header" % path)
    atoms = np.frombuffer(blob, dtype="<c16", offset=offset).reshape((m * f, k), order="F")
    header = dict(channels=m, bins=f, atoms=k, sample_rate=rate, window_len=window, hop=hop)
    return atoms.astype(np.complex128), header
