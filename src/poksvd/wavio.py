"""Minimal multichannel WAV reader/writer.

Supports PCM 16-bit and IEEE float 32-bit, any channel count.  Samples are
exchanged as float64 arrays of shape (frames, channels) in [-1, 1] for PCM.
Parse errors carry the byte offset of the offending structure.  A trailing
partial sample or partial frame at the end of the data chunk is dropped.

Both directions work on sample ranges: ``wav_info`` parses a header once and
``read_wav`` reads any range of frames through it, and a ``WavWriter`` sized
from its frame count takes the samples in pieces.  ``read_wav(path)`` and
``write_wav(path, samples, rate)`` are the whole-file views of the two.
"""

from __future__ import annotations

import os
import struct
import tempfile
from dataclasses import dataclass

import numpy as np


class WavError(ValueError):
    pass


@dataclass(frozen=True)
class WavInfo:
    """What ``read_wav`` needs of a parsed WAV file."""

    path: str
    rate: int
    channels: int
    dtype: str  # "<i2" (PCM16) or "<f4" (float32)
    offset: int  # byte offset of the first sample
    frames: int  # whole sample frames in the data chunk


def wav_info(path):
    """Parse the chunks of a WAV file, reading no sample."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(12)
        if len(head) < 12:
            raise WavError("%s: missing RIFF header (file is %d bytes)" % (path, size))
        if head[0:4] != b"RIFF":
            raise WavError("%s: bad RIFF tag at byte 0" % path)
        if head[8:12] != b"WAVE":
            raise WavError("%s: bad WAVE tag at byte 8" % path)

        fmt = None
        data = None  # (offset, size) of the data chunk's body
        pos = 12
        while pos + 8 <= size:
            fh.seek(pos)
            cid, csize = struct.unpack("<4sI", fh.read(8))
            body_start = pos + 8
            if body_start + csize > size:
                raise WavError(
                    "%s: truncated '%s' chunk at byte %d (need %d bytes)"
                    % (path, cid.decode("ascii", "replace"), pos, csize)
                )
            if cid == b"fmt ":
                if csize < 16:
                    raise WavError("%s: fmt chunk too small at byte %d" % (path, pos))
                fmt = struct.unpack("<HHIIHH", fh.read(16))
                for what, value in (("channel count", fmt[1]), ("sample rate", fmt[2])):
                    if value < 1:
                        raise WavError("%s: invalid %s %d in 'fmt ' chunk at byte %d"
                                       % (path, what, value, pos))
            elif cid == b"data":
                data = (body_start, csize)
            pos = body_start + csize + (csize & 1)

    if fmt is None:
        raise WavError("%s: missing 'fmt ' chunk" % path)
    if data is None:
        raise WavError("%s: missing 'data' chunk" % path)

    audio_format, channels, rate, _, _, bits = fmt
    if audio_format == 0xFFFE and bits in (16, 32):
        # WAVE_FORMAT_EXTENSIBLE: trust the bit depth
        audio_format = 1 if bits == 16 else 3
    if audio_format == 1 and bits == 16:
        dtype = "<i2"
    elif audio_format == 3 and bits == 32:
        dtype = "<f4"
    else:
        raise WavError(
            "%s: unsupported format (code %d, %d bits); only PCM16 and float32"
            % (path, audio_format, bits)
        )
    frames = data[1] // np.dtype(dtype).itemsize // channels
    return WavInfo(str(path), rate, channels, dtype, data[0], frames)


def read_wav(source, start=0, stop=None):
    """Read sample frames [start, stop) of a WAV file, all by default,
    returning (samples (N, channels) float64, rate).  ``source`` is a path
    or the ``WavInfo`` of one, which spares parsing the header again."""
    info = source if isinstance(source, WavInfo) else wav_info(source)
    stop = info.frames if stop is None else stop
    if not 0 <= start <= stop <= info.frames:
        raise ValueError("frames [%d, %d) outside the %d of %s" % (start, stop, info.frames, info.path))
    itemsize = np.dtype(info.dtype).itemsize
    nbytes = (stop - start) * info.channels * itemsize
    with open(info.path, "rb") as fh:
        fh.seek(info.offset + start * info.channels * itemsize)
        payload = fh.read(nbytes)
    if len(payload) != nbytes:
        raise WavError("%s: data chunk at byte %d ends before frame %d"
                       % (info.path, info.offset - 8, stop))
    samples = np.frombuffer(payload, dtype=info.dtype).astype(np.float64)
    if info.dtype == "<i2":
        samples /= 32768.0
    return samples.reshape(stop - start, info.channels), info.rate


_FORMATS = {"float32": (3, 32), "pcm16": (1, 16)}


class _AtomicFile:
    """A temporary file beside ``path`` that replaces it on ``commit``, with
    the mode ``open()`` gives under the umask, and is removed on ``discard``
    or when its ``with`` block raises."""

    def __init__(self, path):
        self.path = path
        fd, self.tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)), suffix=".tmp")
        self.fh = os.fdopen(fd, "wb")

    def commit(self):
        try:
            self.fh.close()
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(self.tmp, 0o666 & ~umask)
            os.replace(self.tmp, self.path)
        except BaseException:
            self.discard()
            raise

    def discard(self):
        self.fh.close()
        if os.path.exists(self.tmp):
            os.unlink(self.tmp)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.commit()
        else:
            self.discard()


def _atomic_write(path, blob):
    """Write ``blob`` whole, with the mode ``open()`` gives under the umask."""
    with _AtomicFile(path) as out:
        out.fh.write(blob)


class WavWriter(_AtomicFile):
    """A WAV file of ``frames`` sample frames written in pieces through
    ``write_wav(writer, samples, rate)``.  The header is written first,
    sized from ``frames``; the file appears at ``path`` when the ``with``
    block ends with every frame written, and not at all if it raises."""

    def __init__(self, path, frames, channels, rate, fmt="float32"):
        if fmt not in _FORMATS:
            raise ValueError("fmt must be 'float32' or 'pcm16'")
        audio_format, bits = _FORMATS[fmt]
        self.frames, self.channels, self.rate, self.fmt = frames, channels, rate, fmt
        self.written = 0
        block_align = channels * bits // 8
        size = frames * block_align
        if 36 + size > 0xFFFFFFFF:
            raise ValueError("%s: %d frames of %d channels as %s exceed the 4 GiB of a WAV file"
                             % (path, frames, channels, fmt))
        header = b"RIFF" + struct.pack("<I", 36 + size) + b"WAVE"
        header += b"fmt " + struct.pack(
            "<IHHIIHH", 16, audio_format, channels, rate, rate * block_align, block_align, bits
        )
        header += b"data" + struct.pack("<I", size)
        super().__init__(path)
        try:
            self.fh.write(header)
        except BaseException:
            self.discard()
            raise

    def append(self, samples):
        """Write the next (N, channels) samples."""
        n, channels = samples.shape
        if channels != self.channels or self.written + n > self.frames:
            raise ValueError("%d more frames of %d channels do not fit %s (%d of %d frames of %d written)"
                             % (n, channels, self.path, self.written, self.frames, self.channels))
        if self.fmt == "float32":
            payload = samples.astype("<f4")
        else:
            payload = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
        self.fh.write(payload.tobytes())
        self.written += n

    def commit(self):
        if self.written != self.frames:
            self.discard()
            raise ValueError("%s: %d of %d frames written" % (self.path, self.written, self.frames))
        super().commit()


def write_wav(dest, samples, rate, fmt="float32"):
    """Write samples (N,) or (N, channels) to a WAV file atomically, or
    append them to ``dest`` when it is an open ``WavWriter``."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim == 1:
        samples = samples[:, None]
    if isinstance(dest, WavWriter):
        if (rate, fmt) != (dest.rate, dest.fmt):
            raise ValueError("%s is written at %d Hz as %s" % (dest.path, dest.rate, dest.fmt))
        dest.append(samples)
        return
    with WavWriter(dest, samples.shape[0], samples.shape[1], rate, fmt) as out:
        out.append(samples)
