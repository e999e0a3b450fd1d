import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poksvd.learning import (
    LearningConfig,
    init_dictionary,
    po_ksvd,
    update_atom,
)
from poksvd.model import (
    Dictionary,
    PhaseMatrix,
    SparseCode,
    apply_phased_dictionary,
    atom_contribution,
    reconstruct,
)
from poksvd.pipeline import (
    SyntheticSpec,
    atom_match_score,
    generate_synthetic,
    random_dictionary,
)
from poksvd.pursuit import PursuitConfig


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestInitDictionary:
    def test_atoms_are_normalized_frames(self):
        rng = np.random.default_rng(0)
        Y = random_complex(rng, 8, 20)
        D = init_dictionary(Y, channels=2, num_atoms=5, seed=3)
        D.validate()
        assert D.atoms.shape == (8, 5)
        # every atom matches some frame up to per-bin phases and gain
        frame_units = Y / np.linalg.norm(Y, axis=0)
        overlaps = np.abs(
            np.einsum(
                "fmk,fmt->fkt",
                D.blocks().conj(),
                frame_units.reshape(4, 2, 20),
            )
        ).sum(axis=0)
        assert np.allclose(overlaps.max(axis=1), 1.0, atol=1e-10)

    def test_deterministic_and_seed_sensitive(self):
        rng = np.random.default_rng(1)
        Y = random_complex(rng, 8, 30)
        D1 = init_dictionary(Y, 2, 5, seed=7)
        D2 = init_dictionary(Y, 2, 5, seed=7)
        D3 = init_dictionary(Y, 2, 5, seed=8)
        assert np.array_equal(D1.atoms, D2.atoms)
        assert not np.array_equal(D1.atoms, D3.atoms)

    def test_insufficient_data_rejected(self):
        Y = np.zeros((8, 10), dtype=complex)
        Y[0, :3] = 1.0  # only 3 nonzero frames
        with pytest.raises(ValueError, match="insufficient training data"):
            init_dictionary(Y, 2, 5, seed=0)


class TestComputeAtomResidual:
    def test_matches_direct_sum(self):
        # E_k restricted to atom k's frames, as update and dedupe passes form
        # it: the residual plus atom k's own contribution
        rng = np.random.default_rng(2)
        D = random_dictionary(rng, channels=2, bins=4, num_atoms=5)
        T = 6
        Y = random_complex(rng, 8, T)
        codes, phases = [], []
        for t in range(T):
            gains = np.zeros(5)
            support = sorted(rng.choice(5, size=2, replace=False).tolist())
            pm = PhaseMatrix(bins=4)
            for k in support:
                gains[k] = rng.uniform(0.5, 2.0)
                pm.columns[k] = np.exp(2j * np.pi * rng.uniform(size=4))
            codes.append(SparseCode(gains=gains, support=support))
            phases.append(pm)
        R = np.stack(
            [Y[:, t] - apply_phased_dictionary(D, phases[t], codes[t]) for t in range(T)], axis=1
        )
        for k in range(5):
            frames = [t for t in range(T) if codes[t].gains[k] > 0]
            E = R[:, frames] + atom_contribution(
                D.blocks()[:, :, k, None],
                np.array([codes[t].gains[k] for t in frames]),
                np.stack([phases[t].column(k) for t in frames], axis=1),
            )
            for i, t in enumerate(frames):
                expected = Y[:, t].copy()
                for j in codes[t].support:
                    if j == k:
                        continue
                    expected -= codes[t].gains[j] * apply_phased_dictionary(
                        D,
                        phases[t],
                        SparseCode(
                            gains=np.eye(5)[j].astype(float), support=[j]
                        ),
                    )
                assert np.allclose(E[:, i], expected, atol=1e-12)


class TestUpdateAtom:
    def test_recovers_planted_rank_one_structure(self):
        # E is exactly gain_t * phi_{ft} * d_f: the update must drive the
        # restricted objective to zero and recover the atom up to gauge
        rng = np.random.default_rng(3)
        F, M, T = 6, 2, 12
        d_true = random_complex(rng, F * M)
        d_true /= np.linalg.norm(d_true)
        gains = rng.uniform(0.5, 2.0, size=T)
        phase_true = np.exp(2j * np.pi * rng.uniform(size=(F, T)))
        E = np.zeros((F * M, T), dtype=complex)
        for t in range(T):
            E[:, t] = gains[t] * (phase_true[:, t][:, None] * d_true.reshape(F, M)).ravel()

        cfg = LearningConfig(
            num_atoms=2,
            pursuit=PursuitConfig(s_max=1),
            epsilon_atom=1e-9,
            max_atom_iters=100,
        )
        d, x, rows = update_atom(E, np.ones((F, T), dtype=complex), cfg, M)
        recon = d.reshape(F, M)[:, :, None] * rows[:, None, :] * x[None, None, :]
        assert np.linalg.norm(recon.reshape(F * M, T) - E) < 1e-6
        overlap = sum(
            abs(np.vdot(d.reshape(F, M)[f], d_true.reshape(F, M)[f])) for f in range(F)
        )
        assert overlap > 1 - 1e-6
        assert np.all(x >= 0)
        assert np.allclose(np.abs(rows), 1.0, atol=1e-10)

    def test_output_gauge(self):
        rng = np.random.default_rng(4)
        E = random_complex(rng, 8, 5)
        cfg = LearningConfig(num_atoms=2, max_atom_iters=10)
        d, x, rows = update_atom(E, np.ones((4, 5), dtype=complex), cfg, 2)
        assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-10)
        blocks = d.reshape(4, 2)
        assert np.allclose(blocks[:, 0].imag, 0, atol=1e-10)
        assert np.all(blocks[:, 0].real >= -1e-12)

    def test_empty_support_rejected(self):
        cfg = LearningConfig(num_atoms=2)
        with pytest.raises(ValueError, match="empty support"):
            update_atom(np.ones((4, 0), dtype=complex), np.ones((2, 0), dtype=complex), cfg, 2)


class TestPoKsvd:
    def small_problem(self, seed=0, frames=60):
        spec = SyntheticSpec(channels=2, bins=8, frames=frames, num_atoms=4, s_max=2,
                             seed=seed, max_coherence=0.7)
        spg, truth = generate_synthetic(spec)
        return spg.frame_matrix(), truth

    def test_objective_trace_monotone(self):
        Y, _ = self.small_problem()
        cfg = LearningConfig(
            num_atoms=4,
            pursuit=PursuitConfig(s_max=2, tau=1e-8, epsilon=1e-6),
            epsilon_outer=1e-9,
            max_outer_iters=15,
            seed=0,
        )
        model = po_ksvd(Y, 2, cfg)
        trace = model.objective_trace
        assert len(trace) >= 2
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9 * trace[0]

    def test_reconstruction_consistency(self):
        # the returned coding must rebuild Y with its residual and reproduce
        # the final objective
        Y, _ = self.small_problem(seed=1)
        cfg = LearningConfig(num_atoms=4, pursuit=PursuitConfig(s_max=2),
                             max_outer_iters=5, seed=0)
        model = po_ksvd(Y, 2, cfg)
        residual = model.coding.residual
        assert len(model.coding) == Y.shape[1]
        assert np.allclose(reconstruct(model.dictionary, model.coding) + residual, Y,
                           rtol=0, atol=1e-10 * np.linalg.norm(Y))
        assert float(np.sum(np.abs(residual) ** 2)) == model.objective_trace[-1]
        model.dictionary.validate()

    def test_learns_planted_dictionary(self):
        spec = SyntheticSpec(channels=2, bins=16, frames=300, num_atoms=5, s_max=2,
                             seed=107, max_coherence=0.5)
        spg, truth = generate_synthetic(spec)
        cfg = LearningConfig(
            num_atoms=5,
            pursuit=PursuitConfig(s_max=2, tau=1e-8, epsilon=1e-6, max_refine_iters=300),
            epsilon_outer=1e-5,
            max_outer_iters=40,
            seed=7,
        )
        model = po_ksvd(spg.frame_matrix(), 2, cfg)
        _, assigned = atom_match_score(model.dictionary, truth["dictionary"])
        assert np.sum(assigned > 0.95) >= 4

    def test_dedupe_is_guarded_by_the_objective(self):
        # with aggressive dedupe the trace must still never increase
        Y, _ = self.small_problem(seed=2)
        cfg = LearningConfig(
            num_atoms=4,
            pursuit=PursuitConfig(s_max=2),
            epsilon_outer=1e-9,
            max_outer_iters=10,
            seed=0,
            dedupe_coherence=0.3,
        )
        model = po_ksvd(Y, 2, cfg)
        trace = model.objective_trace
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9 * trace[0]

    def test_dedupe_can_drop_an_unused_atom(self):
        # an atom that the update pass has just replaced is used by no frame;
        # it can still be the atom a near-duplicate pair drops
        rng = np.random.default_rng(21)
        Y = random_complex(rng, 2, 9)
        Y[:, :3] = 0
        cfg = LearningConfig(num_atoms=5, pursuit=PursuitConfig(s_max=1), max_outer_iters=4,
                             seed=0, dedupe_coherence=0.3)
        model = po_ksvd(Y, 1, cfg)
        trace = model.objective_trace
        for a, b in zip(trace, trace[1:]):
            assert b <= a + 1e-9 * trace[0]

    def test_deterministic_given_seed(self):
        Y, _ = self.small_problem(seed=3)
        cfg = LearningConfig(num_atoms=4, pursuit=PursuitConfig(s_max=2),
                             max_outer_iters=5, seed=5)
        m1 = po_ksvd(Y, 2, cfg)
        m2 = po_ksvd(Y, 2, cfg)
        assert np.array_equal(m1.dictionary.atoms, m2.dictionary.atoms)
        assert m1.objective_trace == m2.objective_trace

    def test_too_few_frames_rejected(self):
        cfg = LearningConfig(num_atoms=10)
        with pytest.raises(ValueError, match="insufficient training data"):
            po_ksvd(np.ones((8, 5), dtype=complex), 2, cfg)

    def test_progress_callback(self):
        Y, _ = self.small_problem(seed=4)
        seen = []
        cfg = LearningConfig(num_atoms=4, pursuit=PursuitConfig(s_max=2),
                             max_outer_iters=3, epsilon_outer=1e-12, seed=0)
        po_ksvd(Y, 2, cfg, progress=lambda it, obj, rep: seen.append((it, obj, rep)))
        assert [s[0] for s in seen] == list(range(1, len(seen) + 1))
        assert all(obj >= 0 for _, obj, _ in seen)


# Generated training problems: (M, F, K, T, s_max, phase_optimization,
# dedupe_coherence, seed) with T from K to 3K + 5.
learning_problems = st.integers(1, 4).flatmap(lambda K: st.tuples(
    st.integers(1, 3), st.integers(1, 6), st.just(K), st.integers(K, 3 * K + 5),
    st.integers(1, 2), st.booleans(), st.sampled_from([0.0, 0.3, 0.8]),
    st.integers(0, 2**32 - 1),
))


class TestGeneratedTraining:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(learning_problems)
    def test_learner_guarantees(self, problem):
        M, F, K, T, s_max, po, dedupe, seed = problem
        Y = random_complex(np.random.default_rng(seed), M * F, T)
        cfg = LearningConfig(num_atoms=K, pursuit=PursuitConfig(s_max=s_max, phase_optimization=po),
                             epsilon_outer=1e-12, max_outer_iters=4, seed=seed % 1000,
                             dedupe_coherence=dedupe)
        model = po_ksvd(Y, M, cfg)
        atoms = model.dictionary.atoms
        assert np.all(np.abs(np.linalg.norm(atoms, axis=0) - 1.0) <= 1e-12)
        if po:
            # each bin's first channel is real and nonnegative
            first = model.dictionary.blocks()[:, 0, :]
            assert np.all(np.abs(first.imag) <= 1e-12) and np.all(first.real >= 0)
        else:
            # some entry of largest magnitude is real-positive (robust to near-ties)
            assert np.all(atoms.real.max(axis=0) >= np.abs(atoms).max(axis=0) - 1e-12)
        # the objective is rounding noise on exact fits, so the slack scales with ||Y||^2
        slack = 1e-12 * float(np.sum(np.abs(Y) ** 2))
        trace = model.objective_trace
        assert all(b <= a + slack for a, b in zip(trace, trace[1:]))
        again = po_ksvd(Y, M, cfg)
        assert again.dictionary.atoms.tobytes() == atoms.tobytes()
        assert again.objective_trace == trace
        for name in ("support", "lengths", "gains", "columns", "residual"):
            assert getattr(again.coding, name).tobytes() == getattr(model.coding, name).tobytes()


class TestLearningConfigValidation:
    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            LearningConfig(num_atoms=0)
        with pytest.raises(ValueError):
            LearningConfig(epsilon_outer=0)
        with pytest.raises(ValueError):
            LearningConfig(epsilon_atom=1.5)
        with pytest.raises(ValueError):
            LearningConfig(max_outer_iters=0)
