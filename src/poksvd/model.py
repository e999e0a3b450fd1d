"""Core model types: dictionary of multichannel atoms, per-frame phase
corrections and sparse activations, plus the phase-corrected synthesis.

An atom of length M*F decomposes into F per-bin channel blocks d_f of
length M.  The stored gauge makes every atom unit-norm with a real
nonnegative first-channel entry in each bin; the phase-blind baseline
instead rotates the whole atom once, making its largest-magnitude entry
real-positive.  Phases and activations absorb the rotations, leaving every
reconstruction unchanged.  ``normalize_atom`` applies either gauge and
``Dictionary.validate`` is the one unit-norm check.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

ATOM_NORM_TOL = 1e-10


@dataclass
class Dictionary:
    """K unit-norm complex atoms over M channels and F bins.

    atoms has shape (M*F, K); row f*M + m is channel m of bin f.
    """

    channels: int
    bins: int
    atoms: np.ndarray

    @property
    def num_atoms(self):
        return self.atoms.shape[1]

    def blocks(self):
        """Atoms reshaped to (F, M, K) per-bin channel blocks."""
        return self.atoms.reshape(self.bins, self.channels, self.num_atoms)

    def validate(self, tol=ATOM_NORM_TOL):
        norms = np.linalg.norm(self.atoms, axis=0)
        if not np.allclose(norms, 1.0, atol=tol):
            raise ValueError("dictionary atoms are not unit-norm")

    def copy(self):
        return Dictionary(self.channels, self.bins, self.atoms.copy())

    def overlap(self, other=None):
        """(K, K') matrix of sum_f |d_fj^H e_fk|: the phase-invariant overlap
        of atom j with atom k of ``other`` (default: this dictionary)."""
        other = self if other is None else other
        return np.abs(np.einsum("fmj,fmk->fjk", self.blocks().conj(), other.blocks())).sum(axis=0)


@dataclass
class PhaseMatrix:
    """Per-frame unit-modulus phase corrections, defined only on the support.

    Stored as a mapping from atom index to its length-F phase column.
    """

    bins: int
    columns: dict[int, np.ndarray] = field(default_factory=dict)

    def column(self, k):
        try:
            return self.columns[k]
        except KeyError:
            raise ValueError("no phase column for atom %d (off support)" % k)


@dataclass
class SparseCode:
    """Nonnegative activation vector with an ordered support list."""

    gains: np.ndarray  # length K, zeros off support
    support: list[int] = field(default_factory=list)


@dataclass
class CodingResult:
    """Output bundle of one frame's pursuit."""

    code: SparseCode
    phases: PhaseMatrix
    residual: np.ndarray
    residual_norm: float


@dataclass
class CodingBatch:
    """Codes of T frames held as arrays, as returned by ``po_omp_batch``.

    Frame t uses atoms ``support[:lengths[t], t]`` in selection order, with
    gains ``gains[t, :lengths[t]]`` and phase columns
    ``columns[:, :lengths[t], t]``; slots past ``lengths[t]`` carry no
    meaning.  ``residual`` is (M*F, T).  Item t is frame t's CodingResult,
    built on access.
    """

    num_atoms: int
    support: np.ndarray  # (s, T) atom indices
    lengths: np.ndarray  # (T,)
    gains: np.ndarray  # (T, s)
    columns: np.ndarray  # (F, s, T)
    residual: np.ndarray  # (M*F, T)

    @classmethod
    def empty(cls, num_atoms, slots, bins, residual):
        """Frames with ``slots`` zeroed slots and none in use; the batch
        takes ``residual`` (M*F, T) as its residual array."""
        T = residual.shape[1]
        return cls(
            num_atoms, np.zeros((slots, T), dtype=int), np.zeros(T, dtype=int),
            np.zeros((T, slots)), np.zeros((bins, slots, T), dtype=np.complex128), residual,
        )

    def __len__(self):
        return self.residual.shape[1]

    def __getitem__(self, t):
        t = range(len(self))[t]
        n = self.lengths[t]
        support = self.support[:n, t].tolist()
        gains = np.zeros(self.num_atoms)
        gains[support] = self.gains[t, :n]
        columns = {k: self.columns[:, l, t].copy() for l, k in enumerate(support)}
        return CodingResult(
            code=SparseCode(gains=gains, support=support),
            phases=PhaseMatrix(bins=self.columns.shape[0], columns=columns),
            residual=self.residual[:, t].copy(),
            residual_norm=float(np.linalg.norm(self.residual[:, t])),
        )


def atom_contribution(blocks, gains, columns):
    """Phase-corrected contributions of one atom slot to several frames.

    blocks is the (F, M, n) bin blocks of the atom each frame uses (a
    trailing axis of 1 broadcasts one atom to all frames), gains (n,) and
    columns (F, n) their gains and phase columns; returns (M*F, n) whose
    column i is gains[i] * (columns[:, i, None] * blocks[:, :, i]).ravel().
    """
    F, M = blocks.shape[:2]
    return (gains * (columns[:, None, :] * blocks)).reshape(F * M, gains.size)


def reconstruct(D, batch):
    """Phase-corrected synthesis of every frame of a CodingBatch.

    Returns the (M*F, T) array whose column t is
    sum_l gains[t, l] * [phi_1 d_1; ...; phi_F d_F] over frame t's slots,
    summed slot by slot in selection order.
    """
    out = np.zeros((D.channels * D.bins, len(batch)), dtype=np.complex128)
    blocks = D.blocks()
    for l in range(batch.support.shape[0]):
        frames = np.flatnonzero(l < batch.lengths)
        out[:, frames] += atom_contribution(
            blocks[:, :, batch.support[l, frames]], batch.gains[frames, l], batch.columns[:, l, frames]
        )
    return out


def apply_phased_dictionary(D, phases, code):
    """Reconstruct sum_k x_k * [phi_{1k} d_{1k}; ...; phi_{Fk} d_{Fk}].

    One-frame view of ``reconstruct``.  Only support atoms contribute; a
    missing phase column on the support is a contract violation.
    """
    n = len(code.support)
    batch = CodingBatch.empty(D.num_atoms, n, D.bins, np.zeros((D.channels * D.bins, 1)))
    batch.support[:, 0] = code.support
    batch.lengths[0] = n
    batch.gains[0] = code.gains[code.support]
    for l, k in enumerate(code.support):
        batch.columns[:, l, 0] = phases.column(k)
    return reconstruct(D, batch)[:, 0]


def normalize_atom(atom, channels, per_bin=True):
    """Normalize an atom to the storage gauge.

    Returns (atom', rotations, gain) with atom' unit-norm, gain = ||atom||,
    and rotations the (F,) unit-modulus factors applied per bin:
    atom'_f = rotations[f] * atom_f / gain.  Callers absorb
    conj(rotations) into phase columns to keep products unchanged.

    With ``per_bin`` every bin's first-channel entry is made real >= 0;
    bins whose first-channel entry is zero are rotated to make their
    largest-magnitude channel real-positive, and an all-zero bin gets
    rotation 1.  Without it (the phase-blind gauge) one global rotation
    makes the atom's largest-magnitude entry real-positive, and
    rotations repeats it in every bin.
    """
    atom = np.asarray(atom, dtype=np.complex128)
    if atom.ndim != 1 or atom.size % channels != 0:
        raise ValueError("atom length must be a multiple of the channel count")
    gain = float(np.linalg.norm(atom))
    if gain == 0.0:
        raise ValueError("degenerate atom: zero norm")
    bins = atom.size // channels
    unit = atom / gain
    if not per_bin:
        ref = unit[int(np.argmax(np.abs(unit)))]
        rotation = np.abs(ref) / ref
        return rotation * unit, np.full(bins, rotation), gain
    blocks = unit.reshape(bins, channels)
    ref = blocks[:, 0]
    ref = np.where(ref == 0, blocks[np.arange(bins), np.argmax(np.abs(blocks), axis=1)], ref)
    rotations = np.ones(bins, dtype=np.complex128)
    nz = ref != 0
    rotations[nz] = np.abs(ref[nz]) / ref[nz]
    return (rotations[:, None] * blocks).ravel(), rotations, gain
