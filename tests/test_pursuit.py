import dataclasses
import errno
import functools
import os
import select
import signal
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from poksvd import linalg, pursuit
from poksvd.linalg import diagnostics, unit_phase
from poksvd.model import Dictionary, PhaseMatrix, SparseCode, apply_phased_dictionary, reconstruct
from poksvd.pipeline import denoise, random_dictionary
from poksvd.pursuit import (
    PursuitConfig,
    _batch_refine,
    _update_phase,
    po_omp,
    po_omp_batch,
    refine_support,
    select_best_atom,
)
from poksvd.stft import Spectrogram


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def planted_frame(rng, D, support, gain_range=(0.5, 2.0)):
    gains = np.zeros(D.num_atoms)
    pm = PhaseMatrix(bins=D.bins)
    for k in support:
        gains[k] = rng.uniform(*gain_range)
        pm.columns[k] = np.exp(2j * np.pi * rng.uniform(size=D.bins))
    code = SparseCode(gains=gains, support=list(support))
    return apply_phased_dictionary(D, pm, code), code, pm


# Generated cases on the batched kernels: (M, F, K, T, s_max, seed).
# ``problems`` keeps M * F >= s_max so that a support's sub-dictionary can
# have full rank; ``any_problems`` also draws singular supports.
GENERATED = settings(max_examples=40, deadline=None, derandomize=True)
any_problems = st.tuples(
    st.integers(1, 3), st.integers(1, 6), st.integers(1, 6), st.integers(2, 8),
    st.integers(1, 3), st.integers(0, 2**32 - 1),
)
problems = any_problems.filter(lambda p: p[0] * p[1] >= p[4])


def generated(problem):
    M, F, K, T, s_max, seed = problem
    rng = np.random.default_rng(seed)
    D = random_dictionary(rng, channels=M, bins=F, num_atoms=K)
    return D, random_complex(rng, M * F, T), rng


def assert_frames_batch_independent(Y, D, cfg):
    """Each frame's code in the batch is bitwise its code when coded alone,
    and the batch's counters are the sums of the lone frames' counters."""
    diagnostics.reset()
    batch = po_omp_batch(Y, D, cfg)
    counts = diagnostics.refine_cap_hits, diagnostics.ridge_fallbacks
    diagnostics.reset()
    assert len(batch) == Y.shape[1]
    for t in range(Y.shape[1]):
        alone, together = po_omp_batch(Y[:, t : t + 1], D, cfg)[0], batch[t]
        assert alone.code.support == together.code.support
        assert alone.code.gains.tobytes() == together.code.gains.tobytes()
        assert alone.residual.tobytes() == together.residual.tobytes()
        for k in alone.code.support:
            assert alone.phases.column(k).tobytes() == together.phases.column(k).tobytes()
    assert (diagnostics.refine_cap_hits, diagnostics.ridge_fallbacks) == counts


class TestSelectBestAtom:
    def test_derived_score_is_summed_bin_correlation(self):
        rng = np.random.default_rng(0)
        D = random_dictionary(rng, channels=2, bins=4, num_atoms=6)
        r = random_complex(rng, 8)
        k, gain, column = select_best_atom(r, D)

        blocks = D.blocks()
        scores = np.zeros(6)
        for j in range(6):
            for f in range(4):
                b = np.vdot(blocks[f, :, j], r.reshape(4, 2)[f])
                scores[j] += abs(b)
        assert k == int(np.argmax(scores))
        assert gain == pytest.approx(scores[k], abs=1e-10)
        assert np.allclose(np.abs(column), 1.0, atol=1e-12)

    def test_phase_column_aligns_residual(self):
        # with the returned phases every bin correlation becomes real >= 0
        rng = np.random.default_rng(1)
        D = random_dictionary(rng, channels=2, bins=4, num_atoms=3)
        r = random_complex(rng, 8)
        k, _, column = select_best_atom(r, D)
        blocks = D.blocks()
        for f in range(4):
            b = np.vdot(blocks[f, :, k], r.reshape(4, 2)[f])
            aligned = np.conj(column[f]) * b
            assert aligned.real == pytest.approx(abs(b), abs=1e-10)
            assert aligned.imag == pytest.approx(0.0, abs=1e-10)

    def test_planted_single_atom_is_found(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            D = random_dictionary(rng, channels=2, bins=8, num_atoms=6, max_coherence=0.6)
            y, code, _ = planted_frame(rng, D, [trial % 6])
            k, gain, _ = select_best_atom(y, D)
            assert k == trial % 6
            assert gain == pytest.approx(code.gains[k], rel=1e-10)

    def test_excluded_atoms_are_skipped(self):
        rng = np.random.default_rng(3)
        D = random_dictionary(rng, channels=2, bins=4, num_atoms=3)
        y, _, _ = planted_frame(rng, D, [1])
        k, _, _ = select_best_atom(y, D, excluded={1})
        assert k != 1
        with pytest.raises(ValueError, match="no candidate"):
            select_best_atom(y, D, excluded={0, 1, 2})

    def test_classic_mode_uses_full_vector_correlation(self):
        rng = np.random.default_rng(4)
        D = random_dictionary(rng, channels=2, bins=4, num_atoms=5)
        r = random_complex(rng, 8)
        cfg = PursuitConfig(phase_optimization=False)
        k, gain, column = select_best_atom(r, D, cfg=cfg)
        b = D.atoms.conj().T @ r
        assert k == int(np.argmax(np.abs(b)))
        assert gain == pytest.approx(abs(b[k]), abs=1e-12)
        assert np.all(column == column[0])  # constant across bins

    def test_literal_selection_rule_is_available(self):
        rng = np.random.default_rng(5)
        D = random_dictionary(rng, channels=2, bins=4, num_atoms=5)
        r = random_complex(rng, 8)
        cfg = PursuitConfig(selection_rule="literal")
        k, gain, _ = select_best_atom(r, D, cfg=cfg)
        blocks = D.blocks()
        B = np.einsum("fmk,fm->fk", blocks.conj(), r.reshape(4, 2))
        scores = np.abs((B / np.abs(B)).sum(axis=0))
        assert k == int(np.argmax(scores))
        assert gain == pytest.approx(scores[k], abs=1e-10)


# the three scoring modes, by the term each adds over the bins
SCORING = {
    "derived": (PursuitConfig(), np.abs),
    "literal": (PursuitConfig(selection_rule="literal"), lambda b: unit_phase(b, 0.0)),
    "classic": (PursuitConfig(phase_optimization=False), lambda b: b),
}


class TestScoring:
    @settings(GENERATED, max_examples=100)
    @given(problems, st.integers(1, 8), st.sampled_from(sorted(SCORING)))
    def test_bins_are_added_in_order_in_slabs_of_any_width(self, problem, slab, mode):
        cfg, term = SCORING[mode]
        D, Y, _ = generated(problem)
        R3 = Y.reshape(D.bins, D.channels, -1)
        B = np.einsum("fmk,fmt->fkt", D.blocks().conj(), R3)
        total = functools.reduce(np.add, term(B))  # bin 0 + bin 1 + ..., in order
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "SCORE_SLAB", slab)
            scores, got = pursuit._batch_scores(R3, D.blocks(), cfg)
        assert got.tobytes() == total.tobytes()
        assert scores.tobytes() == np.abs(total).tobytes()

    # one atom, so a lone frame's correlations are a single (F, 1, 1) column:
    # its bins must still be added in the order a batch adds them
    @settings(GENERATED, max_examples=200)
    @given(st.integers(1, 3), st.integers(1, 80), st.integers(2, 6), st.integers(0, 2**32 - 1),
           st.sampled_from(sorted(SCORING)))
    def test_one_atom_gain_is_the_batch_score(self, M, F, T, seed, mode):
        cfg, _ = SCORING[mode]
        rng = np.random.default_rng(seed)
        D = random_dictionary(rng, channels=M, bins=F, num_atoms=1)
        Y = random_complex(rng, M * F, T)
        scores, _ = pursuit._batch_scores(Y.reshape(F, M, T), D.blocks(), cfg)
        for t in range(T):
            _, gain, _ = select_best_atom(Y[:, t], D, cfg=cfg)
            assert np.float64(gain).tobytes() == scores[0, t].tobytes()


class TestSelectionIsThePursuitsStep:
    # select_best_atom(r, D, excluded) on the residual a pursuit has after i
    # steps, its i atoms excluded, picks the pursuit's next atom; indices
    # outside [0, K), negative ones included, are ignored
    @settings(GENERATED, max_examples=100)
    @given(any_problems, st.sampled_from(sorted(SCORING)),
           st.lists(st.integers(1, 8), max_size=3), st.lists(st.integers(0, 8), max_size=3))
    def test_select_best_atom_picks_the_batch_atom(self, problem, mode, below, above):
        cfg, _ = SCORING[mode]
        D, Y, _ = generated(problem)
        ignored = {-n for n in below} | {D.num_atoms + n for n in above}
        before = None  # the pursuit after i steps; i = 0 is the input itself
        for i in range(problem[4]):
            after = po_omp_batch(Y, D, dataclasses.replace(cfg, s_max=i + 1))
            for t in range(Y.shape[1]):
                if after.lengths[t] <= i:  # this frame stopped before step i
                    continue
                r, taken = (Y[:, t], []) if before is None else (before.residual[:, t], before.support[:i, t])
                k, _, _ = select_best_atom(r, D, set(taken) | ignored, cfg)
                assert k == after.support[i, t]
            before = after


class TestRefineSupport:
    def test_exact_fit_on_planted_support(self):
        rng = np.random.default_rng(6)
        D = random_dictionary(rng, channels=2, bins=8, num_atoms=6, max_coherence=0.6)
        y, code, pm = planted_frame(rng, D, [0, 3])
        cfg = PursuitConfig(s_max=2, tau=1e-12, epsilon=1e-9, max_refine_iters=500)
        # start from deliberately wrong phases
        cols = [np.ones(8, dtype=complex), np.ones(8, dtype=complex)]
        gains, cols, r = refine_support(y, D, [0, 3], cols, cfg)
        assert np.linalg.norm(r) < 1e-8
        assert gains[0] == pytest.approx(code.gains[0], abs=1e-6)
        assert gains[1] == pytest.approx(code.gains[3], abs=1e-6)

    def test_residual_norm_monotone_over_sweeps(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            D = random_dictionary(rng, channels=2, bins=6, num_atoms=5)
            y = random_complex(rng, 12)
            cols = [np.ones(6, dtype=complex)] * 2
            norms = []
            for cap in range(1, 8):
                cfg = PursuitConfig(s_max=2, tau=0, epsilon=1e-12, max_refine_iters=cap)
                _, _, r = refine_support(y, D, [0, 2], cols, cfg)
                norms.append(np.linalg.norm(r))
            for a, b in zip(norms, norms[1:]):
                assert b <= a + 1e-12

    def test_empty_support_rejected(self):
        rng = np.random.default_rng(8)
        D = random_dictionary(rng, channels=2, bins=4, num_atoms=3)
        with pytest.raises(ValueError, match="empty support"):
            refine_support(np.ones(8, dtype=complex), D, [], [], PursuitConfig())


class TestPoOmp:
    def test_recovers_planted_two_atom_frames(self):
        rng = np.random.default_rng(9)
        D = random_dictionary(rng, channels=2, bins=16, num_atoms=8, max_coherence=0.5)
        cfg = PursuitConfig(s_max=2, tau=1e-10, epsilon=1e-8, max_refine_iters=200)
        hits = 0
        for _ in range(20):
            support = sorted(rng.choice(8, size=2, replace=False).tolist())
            y, code, _ = planted_frame(rng, D, support)
            res = po_omp(y, D, cfg)
            if sorted(res.code.support) == support and res.residual_norm < 1e-8:
                hits += 1
        assert hits >= 16

    def test_reconstruction_plus_residual_is_input(self):
        rng = np.random.default_rng(10)
        D = random_dictionary(rng, channels=2, bins=8, num_atoms=6)
        y = random_complex(rng, 16)
        res = po_omp(y, D, PursuitConfig(s_max=3))
        rebuilt = apply_phased_dictionary(D, res.phases, res.code)
        assert np.allclose(rebuilt + res.residual, y, atol=1e-10)
        assert res.residual_norm == pytest.approx(np.linalg.norm(res.residual), abs=1e-12)

    def test_residual_nonincreasing_in_greedy_steps(self):
        rng = np.random.default_rng(11)
        D = random_dictionary(rng, channels=2, bins=8, num_atoms=6)
        y = random_complex(rng, 16)
        prev = np.linalg.norm(y)
        for s in range(1, 4):
            res = po_omp(y, D, PursuitConfig(s_max=s, tau=0))
            assert res.residual_norm <= prev + 1e-12
            prev = res.residual_norm

    def test_gains_are_nonnegative_and_support_sized(self):
        rng = np.random.default_rng(12)
        D = random_dictionary(rng, channels=2, bins=8, num_atoms=6)
        y = random_complex(rng, 16)
        res = po_omp(y, D, PursuitConfig(s_max=3))
        assert len(res.code.support) <= 3
        assert np.all(res.code.gains >= 0)
        for k in range(6):
            if k not in res.code.support:
                assert res.code.gains[k] == 0

    def test_zero_frame_gives_empty_support(self):
        rng = np.random.default_rng(13)
        D = random_dictionary(rng, channels=2, bins=4, num_atoms=3)
        res = po_omp(np.zeros(8, dtype=complex), D, PursuitConfig(s_max=2, tau=1e-8))
        assert res.code.support == []
        assert res.residual_norm == 0

    def test_frame_length_mismatch_rejected(self):
        rng = np.random.default_rng(14)
        D = random_dictionary(rng, channels=2, bins=4, num_atoms=3)
        with pytest.raises(ValueError, match="does not match"):
            po_omp(np.ones(7, dtype=complex), D)

    @settings(GENERATED, max_examples=100)
    @given(problems.filter(lambda p: p[0] * p[1] > p[4]))
    def test_classic_mode_matches_reference_omp(self, problem):
        # with phase optimization off the pursuit must be plain OMP with a
        # complex gain folded into a constant phase column
        D, Y, _ = generated(problem)
        s_max, A = problem[4], D.atoms
        cfg = PursuitConfig(s_max=s_max, tau=1e-10, epsilon=1e-8, phase_optimization=False)
        for y, res in zip(Y.T, po_omp_batch(Y, D, cfg)):
            r = y.copy()
            support = []
            x = np.zeros(0, dtype=complex)
            for _ in range(s_max):
                scores = np.abs(A.conj().T @ r)
                scores[support] = -1
                k = int(np.argmax(scores))
                if scores[k] <= 0:
                    break
                support.append(k)
                x, *_ = np.linalg.lstsq(A[:, support], y, rcond=None)
                r = y - A[:, support] @ x
            assert res.code.support == support
            folded = np.array([res.code.gains[k] * res.phases.column(k)[0] for k in support])
            assert np.linalg.norm(folded - x) <= 1e-8 * np.linalg.norm(x)
            assert res.residual_norm == pytest.approx(np.linalg.norm(r), rel=1e-8)


class TestBatchConsistency:
    def test_batch_equals_per_frame(self):
        rng = np.random.default_rng(16)
        D = random_dictionary(rng, channels=2, bins=8, num_atoms=6, max_coherence=0.7)
        Y = random_complex(rng, 16, 30)
        cfg = PursuitConfig(s_max=2, tau=1e-8, epsilon=1e-6, max_refine_iters=100)
        batch = po_omp_batch(Y, D, cfg)
        assert len(batch) == 30
        for t in range(30):
            single = po_omp(Y[:, t], D, cfg)
            assert batch[t].code.support == single.code.support
            assert np.allclose(batch[t].code.gains, single.code.gains, atol=1e-9)
            assert np.allclose(batch[t].residual, single.residual, atol=1e-9)

    def test_classic_code_independent_of_blas_threads(self):
        # OpenBLAS reads its thread count at start-up, so each count codes in
        # a fresh interpreter; the problem is audio-scale, F = 513 and K = 40
        code = "\n".join([
            "import hashlib, numpy as np",
            "from poksvd.pipeline import random_dictionary",
            "from poksvd.pursuit import PursuitConfig, po_omp_batch",
            "rng = np.random.default_rng(9)",
            "D = random_dictionary(rng, 2, 513, 40)",
            "Y = rng.standard_normal((1026, 120)) + 1j * rng.standard_normal((1026, 120))",
            "b = po_omp_batch(Y, D, PursuitConfig(phase_optimization=False))",
            "print(hashlib.sha256(b.gains.tobytes() + b.columns.tobytes() + b.residual.tobytes()).hexdigest())",
        ])
        src = os.path.dirname(os.path.dirname(pursuit.__file__))
        digests = [
            subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                           env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=str(n))).stdout
            for n in (1, 2)
        ]
        assert digests[0] == digests[1]

    def test_bad_frame_matrix_rejected(self):
        rng = np.random.default_rng(17)
        D = random_dictionary(rng, channels=2, bins=4, num_atoms=3)
        with pytest.raises(ValueError, match="frame matrix"):
            po_omp_batch(np.zeros((7, 3)), D)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_frames_rejected(self, bad):
        rng = np.random.default_rng(18)
        D = random_dictionary(rng, channels=2, bins=4, num_atoms=3)
        Y = random_complex(rng, 8, 5)
        Y[3, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            po_omp_batch(Y, D)


class TestBadInput:
    """Every pursuit entry rejects a NaN or Inf entry and a frame of the
    wrong length with the one frame check's ValueError; frame 0 is the
    one-frame entries' frame."""

    ENTRIES = {
        "po_omp_batch": lambda Y, D: po_omp_batch(Y, D),
        "po_omp": lambda Y, D: po_omp(Y[:, 0], D),
        "select_best_atom": lambda Y, D: select_best_atom(Y[:, 0], D),
        "refine_support": lambda Y, D: refine_support(
            Y[:, 0], D, [0], [np.ones(D.bins, dtype=complex)], PursuitConfig()),
        "denoise": lambda Y, D: denoise(
            Spectrogram(values=Y.reshape(-1, D.channels, Y.shape[1])), D),
    }

    @pytest.mark.parametrize("entry", list(ENTRIES))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf), "one bin more"])
    @settings(GENERATED, max_examples=10)
    @given(any_problems, st.integers(0, 2**16))
    def test_rejected_at_every_entry(self, entry, bad, problem, row):
        D, Y, _ = generated(problem)
        if bad == "one bin more":
            Y, match = np.vstack([Y, Y[: D.channels]]), "does not match"
        else:
            Y[row % Y.shape[0], 0], match = bad, "non-finite"
        with pytest.raises(ValueError, match=match):
            self.ENTRIES[entry](Y, D)


class TestGeneratedBatches:
    def test_singular_support_independent_of_batch(self):
        # M * F = 1 < s_max = 2: every two-atom Gram is singular, and only
        # frame 0's raises in the batched solve; frame 1 must still get the
        # solution it gets when coded alone
        D, Y, _ = generated((1, 1, 2, 2, 2, 86825226))
        assert_frames_batch_independent(Y, D, PursuitConfig(s_max=2, tau=0))

    # few draws are batch-sensitive singular supports, so take more of them
    @settings(GENERATED, max_examples=400)
    @given(any_problems, st.sampled_from(["derived", "literal"]), st.sampled_from([1e-4, 0.0]),
           st.booleans())
    def test_frame_code_independent_of_batch(self, problem, rule, tau, phase_optimization):
        D, Y, _ = generated(problem)
        assert_frames_batch_independent(Y, D, PursuitConfig(
            s_max=problem[4], tau=tau, selection_rule=rule, phase_optimization=phase_optimization))

    # a low sweep cap and two stall tolerances: frames leave the refinement
    # on different sweeps, the last allowed one included
    @settings(GENERATED, max_examples=200)
    @given(any_problems, st.integers(1, 6), st.sampled_from([1e-3, 1e-12]), st.booleans())
    def test_frames_leaving_at_the_sweep_cap_independent_of_batch(self, problem, cap, epsilon,
                                                                  phase_optimization):
        D, Y, _ = generated(problem)
        assert_frames_batch_independent(Y, D, PursuitConfig(
            s_max=problem[4], tau=0, epsilon=epsilon, max_refine_iters=cap,
            phase_optimization=phase_optimization))

    @pytest.mark.parametrize("phase_optimization", [True, False])
    def test_one_atom_frames_independent_of_batch(self, phase_optimization):
        # K = 1 and F >= 8: a lone frame's correlations are one column, which
        # a plain numpy sum over the bins would add pairwise instead of in order
        D, Y, _ = generated((2, 16, 1, 5, 1, 7))
        assert_frames_batch_independent(Y, D, PursuitConfig(s_max=1, phase_optimization=phase_optimization))

    @GENERATED
    @given(problems, st.booleans())
    def test_reconstruction_plus_residual_is_input(self, problem, phase_optimization):
        D, Y, _ = generated(problem)
        cfg = PursuitConfig(s_max=problem[4], phase_optimization=phase_optimization)
        batch = po_omp_batch(Y, D, cfg)
        rebuilt = reconstruct(D, batch)
        for t, res in enumerate(batch):
            alone = apply_phased_dictionary(D, res.phases, res.code)
            assert rebuilt[:, t].tobytes() == alone.tobytes()
            assert np.allclose(rebuilt[:, t] + res.residual, Y[:, t], rtol=0, atol=1e-10 * np.linalg.norm(Y[:, t]))

    @GENERATED
    @given(problems.filter(lambda p: p[0] * p[1] > p[4]), st.booleans())
    def test_refinement_residual_nonincreasing_in_sweeps(self, problem, phase_optimization):
        # over-determined supports only: an exact fit leaves a residual of
        # pure rounding noise
        D, Y, rng = generated(problem)
        K, T = D.num_atoms, Y.shape[1]
        s = min(problem[4], K)
        supp = np.stack([rng.choice(K, size=s, replace=False) for _ in range(T)], axis=1)
        cols = np.ones((D.bins, s, T), dtype=complex)
        slack = 1e-12 * np.linalg.norm(Y, axis=0)
        prev = np.full(T, np.inf)
        for cap in range(1, 9):
            cfg = PursuitConfig(s_max=s, tau=0, epsilon=1e-12, max_refine_iters=cap,
                                phase_optimization=phase_optimization)
            _, _, R = _batch_refine(Y, D.blocks(), supp, cols, cfg)
            norms = np.linalg.norm(R, axis=0)
            assert np.all(norms <= prev + slack)
            prev = norms


def coded_in_blocks(Y, D, cfg, width, workers=1):
    """po_omp_batch on ``workers`` cores, the score budget set to give
    ``width``-frame blocks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pursuit, "_worker_count", lambda: workers)
        mp.setattr(pursuit, "SCORE_BUDGET_BYTES", width * workers * 16 * D.bins * D.num_atoms)
        assert pursuit._block_width(D.bins, D.num_atoms, workers) == width
        return po_omp_batch(Y, D, cfg)


class TestColumnBlocks:
    @pytest.mark.parametrize("T, width, bounds", [
        (1, 16, [(0, 1)]),
        (31, 16, [(0, 16), (16, 31)]),
        (32, 16, [(0, 16), (16, 32)]),
        (49, 16, [(0, 16), (16, 32), (32, 48), (48, 49)]),
        (311, 48, [(0, 48), (48, 96), (96, 144), (144, 192), (192, 240), (240, 288), (288, 311)]),
        (0, 16, []),
        (3, 1, [(0, 1), (1, 2), (2, 3)]),
    ])
    def test_consecutive_blocks_of_the_width(self, T, width, bounds):
        assert pursuit._column_blocks(T, width) == bounds

    def test_width_bounds_the_score_tensor(self):
        assert pursuit._block_width(513, 40) == 51
        assert 16 * 513 * 40 * 51 <= pursuit.SCORE_BUDGET_BYTES < 16 * 513 * 40 * 52
        # two workers share the budget: two blocks in flight hold no more
        assert pursuit._block_width(513, 40, 2) == 25
        assert pursuit._block_width(16, 5) > 1000  # the criterion shapes code in one block
        assert pursuit._block_width(4097, 400) == 1  # one frame even over the budget

    # Draws T = blocks * width + tail, so every tail from 0 to width - 1 is
    # drawn, one-frame blocks included, and 1 to 3 workers to code them.
    @settings(GENERATED, max_examples=300)
    @given(any_problems, st.integers(1, 12), st.integers(0, 4), st.integers(0, 47), st.booleans(),
           st.integers(1, 3))
    def test_blocks_are_bitwise_one_batch(self, problem, width, blocks, tail, phase_optimization, workers):
        T = blocks * width + tail % width
        assume(T >= 1)
        D, _, rng = generated(problem)
        Y = random_complex(rng, D.channels * D.bins, T)
        cfg = PursuitConfig(s_max=problem[4], phase_optimization=phase_optimization)
        one = coded_in_blocks(Y, D, cfg, T)
        coded = coded_in_blocks(Y, D, cfg, width, workers)
        for name in ("support", "lengths", "gains", "columns", "residual"):
            assert getattr(coded, name).tobytes() == getattr(one, name).tobytes(), name

    def test_peak_memory_does_not_grow_with_frame_count(self):
        # the caller's working memory: the traced peak less the returned
        # batch's arrays, which hold every frame's code and so grow with T,
        # where tracemalloc saw them; it sees neither an mmap's pages nor a
        # helper's allocations
        rng = np.random.default_rng(0)
        D = random_dictionary(rng, 2, 257, 200)

        def traced_nbytes(a):
            root = a
            while isinstance(root.base, np.ndarray):
                root = root.base
            return a.nbytes if root.base is None else 0

        def working(Y, workers):
            tracemalloc.start()
            try:
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(pursuit, "_worker_count", lambda: workers)
                    batch = po_omp_batch(Y, D, PursuitConfig(s_max=2))
                own = sum(traced_nbytes(getattr(batch, name))
                          for name in ("support", "lengths", "gains", "columns", "residual"))
                return tracemalloc.get_traced_memory()[1] - own
            finally:
                tracemalloc.stop()

        short, long = (random_complex(rng, D.channels * D.bins, T) for T in (80, 400))
        serial = working(long, 1)
        assert serial <= 1.1 * working(short, 1)
        # one block's (F, K, W) correlations alone would take the 16 MiB budget
        assert serial <= 12 * 2**20
        # two workers code half-width blocks, so as much is in flight
        assert working(long, 2) <= 1.1 * serial


def traced_peak(call):
    """Bytes of the highest traced allocation level while ``call()`` runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestWorkingSet:
    """The kernels' working memory on one audio-scale column block: W = 51
    stereo F = 513 frames, the block width at K = 40 on one core."""

    F, M, K, W, s = 513, 2, 40, 51, 3

    def problem(self):
        rng = np.random.default_rng(51)
        D = random_dictionary(rng, self.M, self.F, self.K)
        return D, random_complex(rng, self.M * self.F, self.W), rng

    def test_refinement_holds_one_copy_of_each_array(self):
        D, Y, rng = self.problem()
        blocks = D.blocks()
        supp = np.array([rng.permutation(self.K)[: self.s] for _ in range(self.W)]).T
        cols = np.exp(2j * np.pi * rng.uniform(size=(self.F, self.s, self.W)))
        U = 16 * self.s * self.F * self.M * self.W  # bytes of the (W, s, F, M) support blocks
        cfg = PursuitConfig(s_max=self.s)
        assert traced_peak(lambda: _batch_refine(Y, blocks, supp, cols, cfg)) <= 7 * U

    @pytest.mark.parametrize("cfg, mib", [
        (PursuitConfig(), 4),
        (PursuitConfig(phase_optimization=False), 4),
        (PursuitConfig(selection_rule="literal"), 6),  # b/|b| takes three slab-sized temporaries
    ])
    def test_scoring_holds_no_score_tensor(self, cfg, mib):
        # the block's (F, K, W) correlations alone would take 16 MiB
        D, Y, _ = self.problem()
        blocks = D.blocks()
        R3 = Y.reshape(self.F, self.M, self.W)
        assert traced_peak(lambda: pursuit._batch_scores(R3, blocks, cfg)) <= mib * 2**20


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    @pytest.mark.parametrize("problem, cfg, counter", [
        # every frame reaches the sweep cap once it has two atoms
        ((2, 8, 6, 24, 3, 5), PursuitConfig(s_max=3, tau=0, epsilon=1e-12, max_refine_iters=2),
         "refine_cap_hits"),
        # M * F = 1 < s_max: every frame that takes a second atom is singular
        ((1, 1, 4, 24, 3, 6), PursuitConfig(s_max=3, tau=0), "ridge_fallbacks"),
    ])
    def test_counts_do_not_depend_on_the_worker_count(self, problem, cfg, counter):
        D, Y, _ = generated(problem)
        counts = []
        for workers in (1, 2):
            diagnostics.reset()
            coded_in_blocks(Y, D, cfg, 3, workers)
            counts.append((diagnostics.refine_cap_hits, diagnostics.ridge_fallbacks))
        assert counts[0] == counts[1]
        assert getattr(diagnostics, counter) > 0

    @pytest.mark.parametrize("death", ["raise", "kill"])
    def test_block_a_helper_leaves_is_coded_by_the_caller(self, death, caplog):
        # the helper fails in the second greedy step of its first block, whose
        # residual, gains and columns hold the first step's code by then
        D, Y, _ = generated((2, 8, 6, 24, 3, 5))
        cfg = PursuitConfig(s_max=3, tau=0, epsilon=1e-12, max_refine_iters=2)
        diagnostics.reset()
        one = coded_in_blocks(Y, D, cfg, 3)
        expected = diagnostics.refine_cap_hits, diagnostics.ridge_fallbacks
        caller, (ready, failed) = os.getpid(), os.pipe()
        batch_refine, calls = pursuit._batch_refine, []

        def refine(*args):
            if os.getpid() == caller:
                assert select.select([ready], [], [], 10)[0]  # leave a block to the helper
            else:
                calls.append(1)
                if len(calls) == 2:
                    os.write(failed, b"x")
                    if death == "kill":
                        os.kill(os.getpid(), signal.SIGKILL)
                    raise ValueError("helper failed", 2)
            return batch_refine(*args)

        diagnostics.reset()
        try:
            with pytest.MonkeyPatch.context() as mp, caplog.at_level("WARNING", "poksvd.pursuit"):
                mp.setattr(pursuit, "_batch_refine", refine)
                coded = coded_in_blocks(Y, D, cfg, 3, 2)
        finally:
            os.close(ready)
            os.close(failed)
        assert_no_child_left()
        for name in ("support", "lengths", "gains", "columns", "residual"):
            assert getattr(coded, name).tobytes() == getattr(one, name).tobytes(), name
        assert (diagnostics.refine_cap_hits, diagnostics.ridge_fallbacks) == expected
        # the helper's whole share, blocks 1, 3, 5 and 7
        assert [r.getMessage() for r in caplog.records] == [
            "4 of 8 column blocks coded again in the calling process"]

    def test_block_that_fails_everywhere_is_raised_by_the_caller(self):
        # five two-frame blocks and a one-frame block, the helper's blocks 1, 3 and 5
        D, Y, _ = generated((2, 4, 3, 11, 2, 8))
        caller, (ready, failed) = os.getpid(), os.pipe()
        code_block = pursuit._code_block

        def fail_last_block(Y, *args):
            if os.getpid() == caller:
                select.select([ready], [], [], 10)  # the helper reaches the last block first
            if Y.shape[1] == 1:
                if os.getpid() != caller:
                    os.write(failed, b"x")
                raise ValueError("block failed", 7)
            return code_block(Y, *args)

        try:
            with pytest.MonkeyPatch.context() as mp, pytest.raises(ValueError) as raised:
                mp.setattr(pursuit, "_code_block", fail_last_block)
                coded_in_blocks(Y, D, PursuitConfig(s_max=2), 2, 2)
            assert select.select([ready], [], [], 0)[0]  # the helper failed on it too
        finally:
            os.close(ready)
            os.close(failed)
        assert raised.value.args == ("block failed", 7)
        assert raised.traceback[-1].name == "fail_last_block"
        assert_no_child_left()

    @pytest.mark.parametrize("error", [ValueError("caller failed", 3), KeyboardInterrupt()])
    def test_caller_error_is_raised_and_no_child_is_left(self, error):
        D, Y, _ = generated((2, 4, 3, 12, 2, 8))
        caller, forks, fork = os.getpid(), [], os.fork
        code_block = pursuit._code_block

        def fail_on_caller(*args):
            if os.getpid() == caller:
                raise error
            if isinstance(error, KeyboardInterrupt):
                time.sleep(30)  # still coding when the interrupted caller kills it
            return code_block(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pursuit, "_code_block", fail_on_caller)
            mp.setattr(os, "fork", lambda: forks.append(1) or fork())
            began = time.monotonic()
            with pytest.raises(type(error)) as raised:
                coded_in_blocks(Y, D, PursuitConfig(s_max=2), 2, 3)
        assert raised.value.args == error.args
        assert time.monotonic() - began < 20
        assert forks == [1, 1]
        assert_no_child_left()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_every_block_is_coded_once_by_its_owner(self, workers, caplog):
        # of n processes, process p codes blocks p, p + n, ...; the caller is 0
        D, Y, _ = generated((2, 4, 3, 13, 2, 8))  # six two-frame blocks and a one-frame block
        forks, fork = [], os.fork
        record, (read, write) = struct.Struct("qq"), os.pipe()
        code_block = pursuit._code_block

        def recorded(block, *args):
            first = np.flatnonzero((Y == block[:, :1]).all(axis=0))[0]
            os.write(write, record.pack(os.getpid(), first))
            return code_block(block, *args)

        def counted_fork():
            forks.append(fork())
            return forks[-1]

        try:
            with pytest.MonkeyPatch.context() as mp, caplog.at_level("WARNING", "poksvd.pursuit"):
                mp.setattr(pursuit, "_code_block", recorded)
                mp.setattr(os, "fork", counted_fork)
                coded_in_blocks(Y, D, PursuitConfig(s_max=2), 2, workers)
            coded = sorted((int(first), pid) for pid, first in record.iter_unpack(os.read(read, 4096)))
        finally:
            os.close(read)
            os.close(write)
        assert_no_child_left()
        owners = [os.getpid()] + forks
        assert len(owners) == workers
        assert coded == [(a, owners[i % workers]) for i, (a, _) in enumerate(pursuit._column_blocks(13, 2))]
        assert not caplog.records

    def test_blocks_of_a_helper_that_fails_to_fork_are_coded_by_the_caller(self, caplog):
        D, Y, _ = generated((2, 4, 3, 13, 2, 8))
        cfg = PursuitConfig(s_max=2)
        one = coded_in_blocks(Y, D, cfg, 2)
        forks, fork = [], os.fork

        def fork_once():
            forks.append(1)
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return fork()

        with pytest.MonkeyPatch.context() as mp, caplog.at_level("WARNING", "poksvd.pursuit"):
            mp.setattr(os, "fork", fork_once)
            coded = coded_in_blocks(Y, D, cfg, 2, 3)
        assert forks == [1, 1]
        assert_no_child_left()
        for name in ("support", "lengths", "gains", "columns", "residual"):
            assert getattr(coded, name).tobytes() == getattr(one, name).tobytes(), name
        # the share of the helper that never started, blocks 2 and 5
        assert [r.getMessage() for r in caplog.records] == [
            "2 of 7 column blocks coded again in the calling process"]

    # From 3.12, os.fork warns when it sees other OS threads in the process.
    # numpy's OpenBLAS pool is one, started by a BLAS call and closed by a fork.
    @pytest.mark.skipif(sys.version_info < (3, 12), reason="os.fork warns about threads from 3.12")
    def test_blas_pool_does_not_make_fork_warn(self):
        D, Y, _ = generated((2, 4, 3, 13, 2, 8))
        forks, fork = [], os.fork
        np.ones((256, 256)) @ np.ones((256, 256))
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            mp.setattr(os, "fork", lambda: forks.append(1) or fork())
            coded_in_blocks(Y, D, PursuitConfig(s_max=2), 2, 2)
        assert forks == [1]
        assert not [w for w in caught if issubclass(w.category, DeprecationWarning)
                    and "use of fork() may lead to deadlocks" in str(w.message)]

    def test_helper_of_a_killed_caller_takes_no_new_block(self):
        # The caller SIGKILLs itself in its first one-frame block. Its helper
        # has 20 blocks of 0.2 s and holds the output pipe, which closes
        # only once the helper has exited too.
        script = """if True:
            import os, signal, time
            import numpy as np
            from poksvd import linalg, pursuit
            from poksvd.pipeline import random_dictionary

            D = random_dictionary(np.random.default_rng(0), 1, 4, 3)
            pursuit._worker_count = lambda: 2
            pursuit.SCORE_BUDGET_BYTES = 2 * 16 * 4 * 3
            caller, code_block = os.getpid(), pursuit._code_block

            def code(*args):
                if os.getpid() == caller:
                    os.kill(caller, signal.SIGKILL)
                time.sleep(0.2)
                return code_block(*args)

            pursuit._code_block = code
            pursuit.po_omp_batch(np.ones((4, 40), dtype=complex), D)
        """
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(pursuit.__file__)))
        began = time.monotonic()
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, timeout=60)
        assert out.returncode == -signal.SIGKILL, out.stderr
        assert time.monotonic() - began < 4

    # A live extra thread, or no os.fork at all, leaves every block to the
    # caller: the bits are those of one worker, and no fork is tried.
    @settings(GENERATED, max_examples=20)
    @given(problems, st.integers(1, 4), st.booleans())
    def test_no_fork_under_threads_or_without_fork(self, problem, width, phase_optimization):
        D, Y, _ = generated(problem)
        cfg = PursuitConfig(s_max=problem[4], phase_optimization=phase_optimization)
        one = coded_in_blocks(Y, D, cfg, width)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10,))
        thread.start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(os, "fork", lambda: pytest.fail("forked beside a live thread"))
                threaded = coded_in_blocks(Y, D, cfg, width, 2)
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        with pytest.MonkeyPatch.context() as mp:
            mp.delattr(os, "fork")
            forkless = coded_in_blocks(Y, D, cfg, width, 2)
        for coded in (threaded, forkless):
            for name in ("support", "lengths", "gains", "columns", "residual"):
                assert getattr(coded, name).tobytes() == getattr(one, name).tobytes(), name


class TestConfigValidation:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            PursuitConfig(s_max=0)
        with pytest.raises(ValueError):
            PursuitConfig(tau=-1)
        with pytest.raises(ValueError):
            PursuitConfig(epsilon=0)
        with pytest.raises(ValueError):
            PursuitConfig(selection_rule="other")

    @pytest.mark.parametrize("cap", [0, -1])
    def test_no_refinement_sweep_rejected(self, cap):
        with pytest.raises(ValueError, match="max_refine_iters must be >= 1"):
            PursuitConfig(max_refine_iters=cap)


class TestPhaseUpdate:
    # Frames of 1-4 channels and 1-40 bins, their gains positive; with a
    # large slack every bin accepts its new phase, which takes the plain
    # copy.  One more frame with gain 0 rejects all of its bins and so
    # forces the masked copy on the same frames, which must give the bits
    # of the plain one.
    @settings(GENERATED, max_examples=200)
    @given(st.integers(1, 6), st.integers(1, 40), st.integers(1, 4), st.sampled_from([1e10, 0.0]),
           st.integers(0, 2**32 - 1))
    def test_masked_copy_gives_the_bits_of_the_plain_copy(self, T, F, M, slack, seed):
        rng = np.random.default_rng(seed)
        R3 = random_complex(rng, T + 1, F, M)
        dk = random_complex(rng, T + 1, F, M)
        c = unit_phase(random_complex(rng, T + 1, F))
        g = rng.uniform(0.1, 2.0, size=(T + 1, 1))
        g[T] = 0.0
        dk_sq = np.einsum("tfm,tfm->tf", dk.conj(), dk).real
        energy = np.einsum("tfm,tfm->tf", R3, R3.conj()).real
        slacks = np.full(T + 1, slack)

        def updated(frames):
            arrays = [a[:frames].copy() for a in (R3, c, energy)]
            _update_phase(arrays[0], dk[:frames], arrays[1], g[:frames], dk_sq[:frames], arrays[2],
                          slacks[:frames])
            return arrays

        plain, masked = updated(T), updated(T + 1)
        for a, b in zip(plain, masked):
            assert a.tobytes() == b[:T].tobytes()
        # the extra frame kept its values
        assert masked[1][T].tobytes() == c[T].tobytes()
        if slack:
            assert not np.array_equal(plain[1], c[:T])  # the phases did move
