import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poksvd import pursuit
from poksvd.model import Dictionary, PhaseMatrix, SparseCode, apply_phased_dictionary, reconstruct
from poksvd.pipeline import (
    SyntheticSpec,
    apply_mask,
    atom_match_score,
    denoise,
    dictionary_coherence,
    evaluate,
    generate_synthetic,
    random_dictionary,
    support_recovery_rate,
)
from poksvd.pursuit import PursuitConfig, po_omp_batch
from poksvd.stft import Spectrogram


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDictionaryCoherence:
    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(0)
        D = random_dictionary(rng, channels=2, bins=4, num_atoms=5)
        blocks = D.blocks()
        worst = 0.0
        for j in range(5):
            for k in range(5):
                if j == k:
                    continue
                s = sum(abs(np.vdot(blocks[f, :, j], blocks[f, :, k])) for f in range(4))
                worst = max(worst, s)
        assert dictionary_coherence(D) == pytest.approx(worst, abs=1e-12)

    def test_single_atom_is_zero(self):
        rng = np.random.default_rng(1)
        D = random_dictionary(rng, channels=2, bins=4, num_atoms=1)
        assert dictionary_coherence(D) == 0.0

    def test_coherence_limit_is_enforced(self):
        rng = np.random.default_rng(2)
        D = random_dictionary(rng, channels=2, bins=16, num_atoms=8, max_coherence=0.5)
        assert dictionary_coherence(D) < 0.5
        D.validate()


class TestGenerateSynthetic:
    def spec(self, **kw):
        base = dict(channels=2, bins=8, frames=50, num_atoms=6, s_max=2, seed=0)
        base.update(kw)
        return SyntheticSpec(**base)

    def test_ground_truth_reconstructs_noiseless_data(self):
        spg, truth = generate_synthetic(self.spec())
        Y = spg.frame_matrix()
        for t in range(50):
            rec = apply_phased_dictionary(truth["dictionary"], truth["phases"][t],
                                          truth["codes"][t])
            assert np.allclose(Y[:, t], rec, atol=1e-12)

    def test_supports_and_gains_respect_the_spec(self):
        spg, truth = generate_synthetic(self.spec(gain_range=(0.5, 2.0)))
        for code in truth["codes"]:
            assert len(code.support) == 2
            assert len(set(code.support)) == 2
            for k in code.support:
                assert 0.5 <= code.gains[k] <= 2.0

    def test_noise_energy_statistics(self):
        # complex noise with per-component std sigma: E ||e||^2 = 2 sigma^2 MF T
        sigma = 0.3
        spec = self.spec(frames=2000, noise_sigma=sigma, seed=5)
        noisy, truth = generate_synthetic(spec)
        Y = noisy.frame_matrix()
        E = np.stack(
            [
                Y[:, t]
                - apply_phased_dictionary(
                    truth["dictionary"], truth["phases"][t], truth["codes"][t]
                )
                for t in range(2000)
            ],
            axis=1,
        )
        expected = 2 * sigma**2 * 16 * 2000
        assert float(np.sum(np.abs(E) ** 2)) == pytest.approx(expected, rel=0.05)

    def test_deterministic_given_seed(self):
        a, _ = generate_synthetic(self.spec(seed=9))
        b, _ = generate_synthetic(self.spec(seed=9))
        assert np.array_equal(a.values, b.values)

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            self.spec(s_max=7)
        with pytest.raises(ValueError):
            self.spec(gain_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            self.spec(noise_sigma=-1)


class TestDenoise:
    # (M, F, K, T, s_max, seed), both modes, on one core or on two cores
    # that share out blocks of 1 to 4 frames
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.tuples(st.integers(1, 3), st.integers(1, 8), st.integers(1, 6), st.integers(1, 12),
                     st.integers(1, 3), st.integers(0, 2**32 - 1)),
           st.booleans(), st.integers(1, 2), st.integers(1, 4))
    def test_target_plus_noise_equals_mixture(self, problem, phase_optimization, workers, width):
        M, F, K, T, s_max, seed = problem
        rng = np.random.default_rng(seed)
        D = random_dictionary(rng, channels=M, bins=F, num_atoms=K)
        mixture = Spectrogram(values=random_complex(rng, F, M, T))
        cfg = PursuitConfig(s_max=s_max, phase_optimization=phase_optimization)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pursuit, "_worker_count", lambda: workers)
            mp.setattr(pursuit, "SCORE_BUDGET_BYTES", width * workers * 16 * F * K)
            target, noise = denoise(mixture, D, cfg)
        Y = mixture.values
        atol = 1e-12 * np.abs(Y).max()
        assert np.allclose(target.values + noise.values, Y, rtol=0, atol=atol)
        # and the noise estimate is the coded noise of every frame
        coded = reconstruct(D, po_omp_batch(mixture.frame_matrix(), D, cfg))
        assert np.allclose(noise.frame_matrix(), coded, rtol=0, atol=atol)

    def test_in_model_noise_is_fully_removed(self):
        spg, truth = generate_synthetic(
            SyntheticSpec(channels=2, bins=16, frames=30, num_atoms=6, s_max=2,
                          seed=2, max_coherence=0.5)
        )
        cfg = PursuitConfig(s_max=2, tau=1e-10, epsilon=1e-8, max_refine_iters=1000)
        target, _ = denoise(spg, truth["dictionary"], cfg)
        # greedy recovery can miss the odd frame; the bulk must be removed
        frame_norms = np.linalg.norm(target.frame_matrix(), axis=0)
        assert np.sum(frame_norms < 1e-6) >= 28

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        D = random_dictionary(rng, channels=2, bins=8, num_atoms=4)
        bad = Spectrogram(values=random_complex(rng, 4, 2, 5))
        with pytest.raises(ValueError, match="does not match"):
            denoise(bad, D)


class TestApplyMask:
    def test_per_entry_oracle(self):
        rng = np.random.default_rng(5)
        F, M, T = 4, 2, 10
        tv = random_complex(rng, F, M, T)
        nv = random_complex(rng, F, M, T)
        target = Spectrogram(values=tv.copy())
        noise = Spectrogram(values=nv.copy())
        q = 0.2
        out = apply_mask(target, noise, floor_quantile=q).values

        n_floor = max(1, int(np.ceil(q * T)))
        for f in range(F):
            for m in range(M):
                mags = np.abs(tv[f, m])
                background = np.sort(mags)[:n_floor].mean()
                for t in range(T):
                    if abs(tv[f, m, t]) ** 2 < abs(nv[f, m, t]) ** 2:
                        expected = background * tv[f, m, t] / abs(tv[f, m, t])
                    else:
                        expected = tv[f, m, t]
                    assert out[f, m, t] == pytest.approx(expected, abs=1e-12)

    def test_kept_entries_untouched(self):
        rng = np.random.default_rng(6)
        tv = random_complex(rng, 3, 1, 8)
        out = apply_mask(
            Spectrogram(values=tv), Spectrogram(values=np.zeros_like(tv))
        ).values
        assert np.array_equal(out, tv)

    def test_invalid_quantile_rejected(self):
        tv = np.ones((2, 1, 4), dtype=complex)
        with pytest.raises(ValueError, match="floor_quantile"):
            apply_mask(Spectrogram(values=tv), Spectrogram(values=tv), floor_quantile=0)


class TestEvaluate:
    def test_sdr_definition(self):
        rng = np.random.default_rng(7)
        s = random_complex(rng, 50)
        err = 0.1 * random_complex(rng, 50)
        rep = evaluate(s, s + err)
        expected = 10 * np.log10(np.sum(np.abs(s) ** 2) / np.sum(np.abs(err) ** 2))
        assert rep.sdr_db == pytest.approx(expected, abs=1e-10)

    def test_perfect_estimate_is_capped(self):
        s = np.ones(10, dtype=complex)
        assert evaluate(s, s).sdr_db == 100.0

    def test_sir_prefers_target_aligned_estimates(self):
        rng = np.random.default_rng(8)
        s = random_complex(rng, 40)
        n = random_complex(rng, 40)
        good = evaluate(s, s + 0.01 * n, noise_reference=n)
        bad = evaluate(s, 0.01 * s + n, noise_reference=n)
        assert good.sir_db > bad.sir_db

    def test_sir_is_capped_at_both_ends(self):
        # the noise reference is orthogonal to the target
        s = np.array([1, 1j, 0, 0], dtype=complex)
        n = np.array([0, 0, 2, -1j], dtype=complex)
        assert evaluate(s, s, noise_reference=n).sir_db == 100.0
        # no target component in the estimate: ps = 0
        assert evaluate(s, n, noise_reference=n).sir_db == -100.0

    def test_sir_is_the_projection_energy_ratio(self):
        rng = np.random.default_rng(9)
        s, n = random_complex(rng, 30), random_complex(rng, 30)
        est = 0.8 * s + 0.3 * n + 0.05 * random_complex(rng, 30)
        ps = abs(np.vdot(s, est)) ** 2 / np.vdot(s, s).real
        pn = abs(np.vdot(n, est)) ** 2 / np.vdot(n, n).real
        sir = evaluate(s, est, noise_reference=n).sir_db
        assert sir == pytest.approx(10 * np.log10(ps / pn), abs=1e-10)

    def test_degenerate_references_rejected(self):
        with pytest.raises(ValueError, match="degenerate reference"):
            evaluate(np.zeros(5, dtype=complex), np.ones(5, dtype=complex))
        with pytest.raises(ValueError, match="shapes differ"):
            evaluate(np.ones(5), np.ones(6))

    def test_as_dict_round_trip(self):
        rng = np.random.default_rng(10)
        s = random_complex(rng, 20)
        d = evaluate(s, 0.9 * s, noise_reference=random_complex(rng, 20)).as_dict()
        assert set(d) == {"sdr_db", "sir_db"}


class TestAtomMatchScore:
    def test_gauge_equivalent_dictionaries_score_one(self):
        # permuted atoms with fresh per-bin phases are the same dictionary
        rng = np.random.default_rng(11)
        D = random_dictionary(rng, channels=2, bins=8, num_atoms=5)
        perm = rng.permutation(5)
        atoms = D.atoms[:, perm].copy()
        blocks = atoms.reshape(8, 2, 5)
        rot = np.exp(2j * np.pi * rng.uniform(size=(8, 5)))
        atoms = (blocks * rot[:, None, :]).reshape(16, 5)
        D2 = Dictionary(channels=2, bins=8, atoms=atoms)
        best, assigned = atom_match_score(D2, D)
        assert np.allclose(best, 1.0, atol=1e-10)
        assert np.allclose(assigned, 1.0, atol=1e-10)

    def test_unrelated_dictionaries_score_below_one(self):
        rng = np.random.default_rng(12)
        D1 = random_dictionary(rng, channels=2, bins=16, num_atoms=4)
        D2 = random_dictionary(rng, channels=2, bins=16, num_atoms=4)
        best, _ = atom_match_score(D1, D2)
        assert np.all(best < 0.95)

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        D1 = random_dictionary(rng, channels=2, bins=4, num_atoms=2)
        D2 = random_dictionary(rng, channels=2, bins=8, num_atoms=2)
        with pytest.raises(ValueError, match="different"):
            atom_match_score(D1, D2)


class TestSupportRecoveryRate:
    def test_counts_exact_matches(self):
        a = [SparseCode(np.zeros(4), [0, 1]), SparseCode(np.zeros(4), [2])]
        b = [SparseCode(np.zeros(4), [1, 0]), SparseCode(np.zeros(4), [3])]
        assert support_recovery_rate(a, b) == 0.5
