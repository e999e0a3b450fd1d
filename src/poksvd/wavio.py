"""Minimal multichannel WAV reader/writer.

Supports PCM 16-bit and IEEE float 32-bit, any channel count.  Samples are
exchanged as float64 arrays of shape (frames, channels) in [-1, 1] for PCM.
Parse errors carry the byte offset of the offending structure.  A trailing
partial sample or partial frame at the end of the data chunk is dropped.
"""

from __future__ import annotations

import os
import struct
import tempfile

import numpy as np


class WavError(ValueError):
    pass


def read_wav(path):
    """Read a WAV file, returning (samples (N, channels) float64, rate)."""
    with open(path, "rb") as fh:
        data = fh.read()
    view = memoryview(data)  # chunk bodies are slices of the file, not copies
    if len(data) < 12:
        raise WavError("%s: missing RIFF header (file is %d bytes)" % (path, len(data)))
    if data[0:4] != b"RIFF":
        raise WavError("%s: bad RIFF tag at byte 0" % path)
    if data[8:12] != b"WAVE":
        raise WavError("%s: bad WAVE tag at byte 8" % path)

    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        cid = data[pos : pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body_start = pos + 8
        if body_start + size > len(data):
            raise WavError(
                "%s: truncated '%s' chunk at byte %d (need %d bytes)"
                % (path, cid.decode("ascii", "replace"), pos, size)
            )
        body = view[body_start : body_start + size]
        if cid == b"fmt ":
            if size < 16:
                raise WavError("%s: fmt chunk too small at byte %d" % (path, pos))
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            for what, value in (("channel count", fmt[1]), ("sample rate", fmt[2])):
                if value < 1:
                    raise WavError("%s: invalid %s %d in 'fmt ' chunk at byte %d"
                                   % (path, what, value, pos))
        elif cid == b"data":
            payload = body
        pos = body_start + size + (size & 1)

    if fmt is None:
        raise WavError("%s: missing 'fmt ' chunk" % path)
    if payload is None:
        raise WavError("%s: missing 'data' chunk" % path)

    audio_format, channels, rate, _, _, bits = fmt
    if audio_format == 0xFFFE and bits in (16, 32):
        # WAVE_FORMAT_EXTENSIBLE: trust the bit depth
        audio_format = 1 if bits == 16 else 3
    if audio_format == 1 and bits == 16:
        samples = np.frombuffer(payload, dtype="<i2", count=len(payload) // 2).astype(np.float64) / 32768.0
    elif audio_format == 3 and bits == 32:
        samples = np.frombuffer(payload, dtype="<f4", count=len(payload) // 4).astype(np.float64)
    else:
        raise WavError(
            "%s: unsupported format (code %d, %d bits); only PCM16 and float32"
            % (path, audio_format, bits)
        )
    n = samples.size // channels
    return samples[: n * channels].reshape(n, channels), rate


def write_wav(path, samples, rate, fmt="float32"):
    """Write samples (N,) or (N, channels) to a WAV file atomically."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    n, channels = samples.shape
    if fmt == "float32":
        payload = samples.astype("<f4").tobytes()
        audio_format, bits = 3, 32
    elif fmt == "pcm16":
        clipped = np.clip(np.round(samples * 32768.0), -32768, 32767)
        payload = clipped.astype("<i2").tobytes()
        audio_format, bits = 1, 16
    else:
        raise ValueError("fmt must be 'float32' or 'pcm16'")

    block_align = channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, audio_format, channels, rate, rate * block_align, block_align, bits
    )
    header += b"data" + struct.pack("<I", len(payload))

    _atomic_write(path, header + payload)


def _atomic_write(path, blob):
    """Write ``blob`` whole, with the mode ``open()`` gives under the umask."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
