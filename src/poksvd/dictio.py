"""Binary dictionary files with STFT provenance.

Layout (all little-endian):
    bytes 0-6   magic "POKSVD1"
    6 x uint32  M, F, K, sample_rate, window_len, hop
    K atoms     column-major (atom-contiguous) complex values, each stored
                as a float64 (re, im) pair

The loader rejects a corrupt file with DictionaryFileError: a bad magic
tag or payload size, a header with M, F or K of 0, atoms that fail
``Dictionary.validate`` (unit norm to 1e-8), or a header that no
``StftConfig`` accepts (a sample rate of 0, an odd window, a hop outside
(0, window_len]).
"""

from __future__ import annotations

import struct

import numpy as np

from .model import Dictionary
from .stft import StftConfig
from .wavio import _atomic_write

MAGIC = b"POKSVD1"
_HEADER = struct.Struct("<6I")


class DictionaryFileError(ValueError):
    pass


def save_dictionary(path, D, cfg):
    """Write a Dictionary plus its STFT provenance to ``path`` atomically."""
    header = MAGIC + _HEADER.pack(
        D.channels, D.bins, D.num_atoms, cfg.sample_rate, cfg.window_len, cfg.hop
    )
    atoms = np.asfortranarray(D.atoms.astype("<c16"))
    _atomic_write(path, header + atoms.tobytes(order="F"))


def load_dictionary(path):
    """Read a dictionary file; returns (Dictionary, StftConfig provenance)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + _HEADER.size:
        raise DictionaryFileError("%s: file too short for header" % path)
    if blob[: len(MAGIC)] != MAGIC:
        raise DictionaryFileError("%s: bad magic tag" % path)
    m, f, k, rate, wl, hop = _HEADER.unpack_from(blob, len(MAGIC))
    if 0 in (m, f, k):
        raise DictionaryFileError("%s: header has M=%d, F=%d, K=%d; each must be >= 1"
                                  % (path, m, f, k))
    expected = len(MAGIC) + _HEADER.size + m * f * k * 16
    if len(blob) != expected:
        raise DictionaryFileError(
            "%s: payload size %d does not match header (expected %d bytes)"
            % (path, len(blob), expected)
        )
    atoms = np.frombuffer(
        blob, dtype="<c16", count=m * f * k, offset=len(MAGIC) + _HEADER.size
    ).reshape((m * f, k), order="F")
    D = Dictionary(channels=m, bins=f, atoms=atoms.astype(np.complex128))
    try:
        D.validate(tol=1e-8)
        cfg = StftConfig(sample_rate=rate, window_len=wl, hop=hop)
    except ValueError as err:
        raise DictionaryFileError("%s: %s" % (path, err)) from None
    return D, cfg
