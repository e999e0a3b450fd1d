import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poksvd.model import (
    Dictionary,
    PhaseMatrix,
    SparseCode,
    apply_phased_dictionary,
    normalize_atom,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestNormalizeAtom:
    def test_gauge_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            atom = random_complex(rng, 8)
            out, row_phases, gain = normalize_atom(atom, channels=2)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
            blocks = out.reshape(4, 2)
            assert np.allclose(blocks[:, 0].imag, 0, atol=1e-12)
            assert np.all(blocks[:, 0].real >= 0)
            assert np.allclose(np.abs(row_phases), 1.0, atol=1e-12)

    def test_reconstruction_identity(self):
        # atom == gain * conj(row_phases) applied per bin to the output
        rng = np.random.default_rng(1)
        atom = random_complex(rng, 6)
        out, row_phases, gain = normalize_atom(atom, channels=3)
        rebuilt = gain * (row_phases.conj()[:, None] * out.reshape(2, 3)).ravel()
        assert np.allclose(rebuilt, atom, atol=1e-12)

    def test_zero_first_channel_uses_largest_entry(self):
        atom = np.array([0.0, 2.0j, 1.0, 1.0], dtype=complex)
        out, _, _ = normalize_atom(atom, channels=2)
        blocks = out.reshape(2, 2)
        # bin 0: first channel is zero, so the 2j entry is rotated real-positive
        assert blocks[0, 1].real > 0
        assert blocks[0, 1].imag == pytest.approx(0.0, abs=1e-12)

    def test_zero_atom_rejected(self):
        with pytest.raises(ValueError, match="degenerate atom"):
            normalize_atom(np.zeros(4, dtype=complex), channels=2)

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            normalize_atom(np.ones(5, dtype=complex), channels=2)


class TestNormalizeAtomGlobal:
    def test_single_rotation(self):
        rng = np.random.default_rng(2)
        atom = random_complex(rng, 6)
        out, rotations, gain = normalize_atom(atom, channels=2, per_bin=False)
        assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-12)
        # one rotation, repeated for each of the 3 bins
        assert rotations.shape == (3,) and np.all(rotations == rotations[0])
        assert abs(rotations[0]) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out, rotations[0] * atom / gain, atol=1e-12)
        ref = out[int(np.argmax(np.abs(out)))]
        assert ref.real > 0 and ref.imag == pytest.approx(0.0, abs=1e-12)


class TestDictionary:
    def test_blocks_layout(self):
        atoms = np.arange(12, dtype=complex).reshape(6, 2)
        D = Dictionary(channels=2, bins=3, atoms=atoms)
        blocks = D.blocks()
        assert blocks.shape == (3, 2, 2)
        # row f*M + m of atom k lands at blocks[f, m, k]
        assert blocks[1, 0, 1] == atoms[2, 1]

    def test_validate(self):
        atoms = np.eye(4, 2, dtype=complex)
        Dictionary(channels=2, bins=2, atoms=atoms).validate()
        with pytest.raises(ValueError, match="unit-norm"):
            Dictionary(channels=2, bins=2, atoms=2 * atoms).validate()


def random_blocks(rng, M, F, K, zero_share):
    """A (M*F, K) atom array whose (f, m, k) entries are 0 with probability
    ``zero_share``, and whose atoms' bins are all 0 with that probability."""
    atoms = random_complex(rng, F * M, K)
    blocks = atoms.reshape(F, M, K)
    blocks[rng.uniform(size=(F, M, K)) < zero_share] = 0.0
    blocks[np.broadcast_to(rng.uniform(size=(F, 1, K)) < zero_share, blocks.shape)] = 0.0
    return Dictionary(channels=M, bins=F, atoms=atoms)


# bin counts below, at and past one slab, and not multiples of it
slab_bins = st.sampled_from([1, 2, 7, 31, 32, 33, 63, 64, 65, 100, 513])
overlap_cases = st.tuples(
    st.integers(1, 4), slab_bins, st.integers(1, 6), st.integers(1, 6),
    st.sampled_from([0.0, 0.3, 1.0]), st.integers(0, 2**32 - 1),
)


class TestOverlap:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(overlap_cases)
    def test_bits_of_the_whole_gram_sum(self, case):
        M, F, K, K2, zero_share, seed = case
        rng = np.random.default_rng(seed)
        A = random_blocks(rng, M, F, K, zero_share)
        B = random_blocks(rng, M, F, K2, zero_share)
        terms = np.abs(np.einsum("fmj,fmk->fjk", A.blocks().conj(), B.blocks()))
        got = A.overlap(B)
        assert got.shape == (K, K2)
        if K * K2 > 1:
            assert got.tobytes() == terms.sum(axis=0).tobytes()
        # one atom each: the bins are added in order, as a batch's scores
        # add them, where numpy's one-call sum of a (F, 1, 1) column adds
        # pairwise
        assert got.tobytes() == functools.reduce(np.add, terms).tobytes()

    def test_holds_no_whole_gram(self):
        # the (F, K, K) complex Gram alone of this dictionary takes 13.1 MB
        rng = np.random.default_rng(4)
        D = random_blocks(rng, 2, 513, 40, 0.0)
        tracemalloc.start()
        try:
            D.overlap()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_different_shapes_rejected(self):
        rng = np.random.default_rng(5)
        A = random_blocks(rng, 2, 4, 3, 0.0)
        for M, F in [(2, 8), (1, 8), (4, 2)]:
            with pytest.raises(ValueError, match=r"different.*\(2, 4\).*\(%d, %d\)" % (M, F)):
                A.overlap(random_blocks(rng, M, F, 3, 0.0))


class TestPhaseMatrix:
    def test_missing_column_raises(self):
        pm = PhaseMatrix(bins=4)
        with pytest.raises(ValueError, match="off support"):
            pm.column(3)


class TestApplyPhasedDictionary:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(3)
        F, M, K = 4, 2, 5
        atoms = random_complex(rng, F * M, K)
        D = Dictionary(channels=M, bins=F, atoms=atoms)
        support = [1, 3]
        gains = np.zeros(K)
        pm = PhaseMatrix(bins=F)
        for k in support:
            gains[k] = rng.uniform(0.5, 2.0)
            pm.columns[k] = np.exp(2j * np.pi * rng.uniform(size=F))
        code = SparseCode(gains=gains, support=support)
        y = apply_phased_dictionary(D, pm, code)

        expected = np.zeros(F * M, dtype=complex)
        for k in support:
            for f in range(F):
                block = atoms[f * M : (f + 1) * M, k]
                expected[f * M : (f + 1) * M] += gains[k] * pm.columns[k][f] * block
        assert np.allclose(y, expected, atol=1e-12)

    def test_empty_support_gives_zero(self):
        D = Dictionary(channels=1, bins=2, atoms=np.eye(2, dtype=complex))
        y = apply_phased_dictionary(D, PhaseMatrix(bins=2), SparseCode(np.zeros(2), []))
        assert np.array_equal(y, np.zeros(2, dtype=complex))
