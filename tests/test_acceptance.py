"""End-to-end acceptance checks.

Each test covers one numbered claim about the system, prints a single
pass/fail line with its runtime, and enforces the stated tolerance; a
generated-case companion of a claim enforces it and prints nothing.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poksvd.cli import main
from poksvd.dictio import load_dictionary, save_dictionary
from poksvd.learning import LearningConfig, po_ksvd
from poksvd.model import Dictionary, apply_phased_dictionary
from poksvd.pipeline import (
    SyntheticSpec,
    atom_match_score,
    denoise,
    dictionary_coherence,
    evaluate,
    generate_synthetic,
    random_dictionary,
)
from poksvd.pursuit import PursuitConfig, po_omp, po_omp_batch, refine_support, select_best_atom
from poksvd.stft import Spectrogram, StftConfig, istft, stft
from poksvd.wavio import write_wav


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = " [%s]" % detail if detail else ""
    print("criterion %d (%s): %s in %.1fs%s" % (num, name, status, elapsed, suffix))


def test_criterion_1_phase_update_optimality():
    # the closed-form per-bin phase must be at least as good as a dense
    # unit-circle grid, for both the pursuit and the atom-update forms
    t0 = time.time()
    rng = np.random.default_rng(0)
    grid = np.exp(2j * np.pi * np.arange(3600) / 3600)
    worst = 0.0
    for _ in range(1000):
        M = int(rng.integers(1, 4))
        r = random_complex(rng, M)
        d = random_complex(rng, M)
        d /= np.linalg.norm(d)
        x = float(rng.uniform(0.1, 3.0))

        b = np.vdot(d, r)
        phi = b / abs(b) if b != 0 else 1.0
        cost_closed = np.linalg.norm(r - phi * x * d) ** 2

        costs = np.linalg.norm(r[:, None] - grid[None, :] * x * d[:, None], axis=0) ** 2
        worst = max(worst, cost_closed - costs.min())

        # residual-increment form: phi_old absorbed into the correlation
        phi_old = np.exp(2j * np.pi * rng.uniform())
        r_res = r - phi_old * x * d
        z = np.vdot(d, r_res) + phi_old * x  # unit-norm d: ||d||^2 = 1
        phi2 = z / abs(z) if z != 0 else phi_old
        cost2 = np.linalg.norm(r - phi2 * x * d) ** 2
        worst = max(worst, cost2 - costs.min())
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 10
    report(1, "phase-update optimality", ok, elapsed, "max excess %.2e" % worst)
    assert worst <= 1e-9
    assert elapsed < 10


def test_criterion_2_atom_selection_oracle():
    # select_best_atom against exhaustive per-bin phase grids with the
    # gain minimized in closed form for every grid point
    t0 = time.time()
    rng = np.random.default_rng(1)
    M, F, K = 2, 3, 4
    grid = np.exp(2j * np.pi * np.arange(720) / 720)
    worst_over = 0.0
    worst_under = 0.0
    for _ in range(200):
        D = random_dictionary(rng, M, F, K)
        r = random_complex(rng, M * F)
        k, gain, column = select_best_atom(r, D)
        rec = gain * (column[:, None] * D.blocks()[:, :, k]).ravel()
        cost_algo = np.linalg.norm(r - rec) ** 2

        blocks = D.blocks()
        rb = r.reshape(F, M)
        best = np.inf
        for j in range(K):
            b = np.array([np.vdot(blocks[f, :, j], rb[f]) for f in range(F)])
            # per-bin grids are independent: the aligned correlation adds up
            aligned = sum(max(np.real(np.conj(grid) * b[f]).max(), 0.0) for f in range(F))
            x = aligned  # unit-norm atom: optimal gain equals the sum
            best = min(best, np.linalg.norm(r) ** 2 - 2 * x * aligned + x**2)
        worst_over = max(worst_over, cost_algo - best)
        worst_under = max(worst_under, best - cost_algo)
    elapsed = time.time() - t0
    ok = worst_over <= 1e-6 and worst_under <= 1e-3 and elapsed < 60
    report(2, "atom-selection oracle", ok, elapsed,
           "excess %.2e grid gap %.2e" % (worst_over, worst_under))
    assert worst_over <= 1e-6  # never worse than the grid
    assert worst_under <= 1e-3  # and within the grid's resolution of it
    assert elapsed < 60


def test_criterion_3_exact_recovery():
    t0 = time.time()
    spec = SyntheticSpec(channels=2, bins=16, frames=1000, num_atoms=8, s_max=2,
                         seed=42, max_coherence=0.5)
    spg, truth = generate_synthetic(spec)
    assert dictionary_coherence(truth["dictionary"]) < 0.5
    cfg = PursuitConfig(s_max=2, tau=1e-10, epsilon=1e-12, max_refine_iters=10000)
    results = po_omp_batch(spg.frame_matrix(), truth["dictionary"], cfg)
    hits = sum(
        1
        for res, code in zip(results, truth["codes"])
        if sorted(res.code.support) == sorted(code.support) and res.residual_norm < 1e-8
    )
    elapsed = time.time() - t0
    ok = hits >= 950 and elapsed < 30
    report(3, "exact support recovery", ok, elapsed, "%d/1000 frames" % hits)
    assert hits >= 950
    assert elapsed < 30


def test_criterion_4a_pursuit_monotonicity():
    t0 = time.time()
    rng = np.random.default_rng(2)
    violations = 0
    for _ in range(100):
        D = random_dictionary(rng, channels=2, bins=8, num_atoms=6)
        y = random_complex(rng, 16)
        cols = [np.ones(8, dtype=complex)] * 2
        prev = np.inf
        for cap in range(1, 9):
            cfg = PursuitConfig(s_max=2, tau=0, epsilon=1e-12, max_refine_iters=cap)
            _, _, r = refine_support(y, D, [0, 3], cols, cfg)
            norm = np.linalg.norm(r)
            if norm > prev + 1e-12:
                violations += 1
            prev = norm
    elapsed = time.time() - t0
    ok = violations == 0
    report(4, "refinement monotonicity", ok, elapsed, "%d violations" % violations)
    assert violations == 0


def test_criterion_4b_training_monotonicity():
    t0 = time.time()
    violations = 0
    for seed in range(10):
        spec = SyntheticSpec(channels=2, bins=8, frames=80, num_atoms=6, s_max=2,
                             noise_sigma=0.1, seed=200 + seed)
        spg, _ = generate_synthetic(spec)
        cfg = LearningConfig(
            num_atoms=6,
            pursuit=PursuitConfig(s_max=2, tau=1e-8, epsilon=1e-6),
            epsilon_outer=1e-12,
            max_outer_iters=20,
            seed=seed,
        )
        model = po_ksvd(spg.frame_matrix(), 2, cfg)
        trace = model.objective_trace
        assert len(trace) == 20
        for a, b in zip(trace, trace[1:]):
            if b > a + 1e-9 * trace[0]:
                violations += 1
    elapsed = time.time() - t0
    ok = violations == 0
    report(4, "training-objective monotonicity", ok, elapsed, "%d violations" % violations)
    assert violations == 0


def test_criterion_5_planted_dictionary_recovery():
    t0 = time.time()
    good = 0
    per_seed = []
    for seed in range(10):
        spec = SyntheticSpec(channels=2, bins=16, frames=400, num_atoms=5, s_max=2,
                             seed=100 + seed, max_coherence=0.5)
        spg, truth = generate_synthetic(spec)
        cfg = LearningConfig(
            num_atoms=5,
            pursuit=PursuitConfig(s_max=2, tau=1e-8, epsilon=1e-6, max_refine_iters=300),
            epsilon_outer=1e-5,
            max_outer_iters=60,
            seed=seed,
        )
        model = po_ksvd(spg.frame_matrix(), 2, cfg)
        _, assigned = atom_match_score(model.dictionary, truth["dictionary"])
        n = int(np.sum(assigned > 0.95))
        per_seed.append(n)
        good += n >= 4
    elapsed = time.time() - t0
    ok = good >= 8 and elapsed < 300
    report(5, "planted-dictionary recovery", ok, elapsed,
           "%d/10 seeds, atoms per seed %s" % (good, per_seed))
    assert good >= 8
    assert elapsed < 300


def reference_omp(y, A, s_max, tau):
    r = y.copy()
    support = []
    x = np.zeros(0, dtype=complex)
    for _ in range(s_max):
        if np.linalg.norm(r) <= tau:
            break
        scores = np.abs(A.conj().T @ r)
        scores[support] = -1.0
        k = int(np.argmax(scores))
        if scores[k] <= 0:
            break
        support.append(k)
        sub = A[:, support]
        x, *_ = np.linalg.lstsq(sub, y, rcond=None)
        r = y - sub @ x
    return support, x, r


def reference_ksvd(Y, K, s_max, tau, seed, iters):
    rng = np.random.default_rng(seed)
    cand = np.flatnonzero(np.linalg.norm(Y, axis=0) > 0)
    picks = rng.choice(cand, size=K, replace=False)
    A = Y[:, picks] / np.linalg.norm(Y[:, picks], axis=0)
    T = Y.shape[1]
    X = np.zeros((K, T), dtype=complex)
    trace = []
    for _ in range(iters):
        for t in range(T):
            old_r = Y[:, t] - A @ X[:, t]
            support, x, r = reference_omp(Y[:, t], A, s_max, tau)
            if np.linalg.norm(r) <= np.linalg.norm(old_r):
                X[:, t] = 0
                X[support, t] = x
        for k in range(K):
            used = np.flatnonzero(np.abs(X[k]) > 0)
            if used.size == 0:
                R = Y - A @ X
                worst = int(np.argmax(np.linalg.norm(R, axis=0)))
                A[:, k] = Y[:, worst] / np.linalg.norm(Y[:, worst])
                continue
            Xk = X.copy()
            Xk[k] = 0
            E = (Y - A @ Xk)[:, used]
            U, S, Vh = np.linalg.svd(E, full_matrices=False)
            A[:, k] = U[:, 0]
            X[k, used] = S[0] * Vh[0]
        trace.append(float(np.sum(np.abs(Y - A @ X) ** 2)))
    return trace


def test_criterion_6_classic_baseline_degeneration():
    # single-channel audio, phase optimization off: the training loop must
    # be ordinary K-SVD, so its objective trace matches an independent
    # textbook implementation
    t0 = time.time()
    rng = np.random.default_rng(42)
    n = 64 * 11
    tgrid = np.arange(n) / 1000.0
    x = (np.sin(2 * np.pi * 97 * tgrid) + 0.5 * np.sin(2 * np.pi * 233 * tgrid)
         + 0.1 * rng.standard_normal(n))
    spg = stft(x[:, None], StftConfig(sample_rate=1000, window_len=64, hop=32))
    Y = spg.frame_matrix()[:, :10]
    K, s_max, tau, seed, iters = 4, 2, 1e-10, 3, 12

    ref_trace = reference_ksvd(Y, K, s_max, tau, seed, iters)

    pcfg = PursuitConfig(s_max=s_max, tau=tau, epsilon=1e-6, max_refine_iters=50,
                         phase_optimization=False)
    cfg = LearningConfig(num_atoms=K, pursuit=pcfg, epsilon_outer=1e-12,
                         max_outer_iters=iters, seed=seed, dedupe_coherence=0.0)
    ours = po_ksvd(Y, 1, cfg).objective_trace

    diff = max(abs(a - b) for a, b in zip(ref_trace, ours))
    elapsed = time.time() - t0
    ok = len(ours) == len(ref_trace) and diff <= 1e-8
    report(6, "classic-baseline degeneration", ok, elapsed, "max trace diff %.2e" % diff)
    assert len(ours) == len(ref_trace)
    assert diff <= 1e-8


@st.composite
def classic_problems(draw):
    """Over-determined single-channel problems (F, K, T, s, seed): 2K <= T
    and s < min(F, K).  Outside them, as with s >= F, s >= K or T = K, the
    two learners can part on near-ties and rank-deficient fits."""
    F, K = draw(st.integers(4, 12)), draw(st.integers(2, 5))
    T = draw(st.integers(2 * K, 24))
    return F, K, T, draw(st.integers(1, min(F, K) - 1)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(classic_problems())
def test_criterion_6_on_generated_problems(problem):
    # po_ksvd may stop early once the objective stalls, so the traces are
    # compared on the iterations both ran
    F, K, T, s_max, seed = problem
    Y = random_complex(np.random.default_rng(seed), F, T)
    tau, iters = 1e-10, 4
    pcfg = PursuitConfig(s_max=s_max, tau=tau, epsilon=1e-6, max_refine_iters=50,
                         phase_optimization=False)
    cfg = LearningConfig(num_atoms=K, pursuit=pcfg, epsilon_outer=1e-12,
                         max_outer_iters=iters, seed=seed % 1000, dedupe_coherence=0.0)
    ours = po_ksvd(Y, 1, cfg).objective_trace
    ref_trace = reference_ksvd(Y, K, s_max, tau, seed % 1000, iters)
    assert ours
    for a, b in zip(ref_trace, ours):
        assert abs(a - b) <= 1e-8 * abs(a)


def test_criterion_7_denoising_margin():
    # phase-rich synthetic noise plus an out-of-model target at -5 dB input
    # SDR: phase-optimized training must beat the phase-blind baseline by
    # at least 3 dB of output SDR on average
    t0 = time.time()
    margins = []
    for seed in range(20):
        frames_train, frames_test = 200, 100
        spec_all = SyntheticSpec(channels=2, bins=16, frames=frames_train + frames_test,
                                 num_atoms=5, s_max=2, seed=1000 + seed,
                                 max_coherence=0.5)
        allspg, _ = generate_synthetic(spec_all)
        train = Spectrogram.from_frame_matrix(
            allspg.frame_matrix()[:, :frames_train], 2
        )
        N = allspg.frame_matrix()[:, frames_train:]

        rng = np.random.default_rng(2000 + seed)
        pats = random_complex(rng, 32, 2)
        gains = rng.uniform(0.5, 1.5, size=(2, frames_test))
        S = pats @ gains
        S *= np.sqrt(np.sum(np.abs(N) ** 2) / np.sum(np.abs(S) ** 2) * 10 ** (-0.5))
        assert 10 * np.log10(np.sum(np.abs(S) ** 2) / np.sum(np.abs(N) ** 2)) == (
            pytest.approx(-5.0, abs=1e-6)
        )
        mix = Spectrogram.from_frame_matrix(S + N, 2)

        sdr = {}
        for label, po in (("po", True), ("classic", False)):
            pcfg = PursuitConfig(s_max=2, tau=1e-6, epsilon=1e-5, max_refine_iters=100,
                                 phase_optimization=po)
            cfg = LearningConfig(num_atoms=5, pursuit=pcfg, epsilon_outer=1e-4,
                                 max_outer_iters=30, seed=seed)
            model = po_ksvd(train.frame_matrix(), 2, cfg)
            target, _ = denoise(mix, model.dictionary, pcfg)
            sdr[label] = evaluate(Spectrogram.from_frame_matrix(S, 2), target).sdr_db
        margins.append(sdr["po"] - sdr["classic"])
    mean_margin = float(np.mean(margins))
    elapsed = time.time() - t0
    ok = mean_margin >= 3.0 and elapsed < 600
    report(7, "denoising margin over phase-blind baseline", ok, elapsed,
           "mean %.2f dB over 20 seeds" % mean_margin)
    assert mean_margin >= 3.0
    assert elapsed < 600


def test_criterion_8_stft_round_trip():
    t0 = time.time()
    rng = np.random.default_rng(5)
    cfg = StftConfig(sample_rate=16000, window_len=1024, hop=512)
    worst = 0.0
    for _ in range(10):
        channels = int(rng.integers(1, 5))
        x = rng.standard_normal((1024 * 6, channels))
        y = istft(stft(x, cfg))
        interior = slice(1024, y.shape[0] - 1024)
        err = np.max(np.abs(y[interior] - x[: y.shape[0]][interior]))
        worst = max(worst, err / np.max(np.abs(x)))
    elapsed = time.time() - t0
    ok = worst <= 1e-6
    report(8, "STFT round trip", ok, elapsed, "max relative error %.2e" % worst)
    assert worst <= 1e-6


def test_criterion_9_serialization_and_determinism(tmp_path):
    t0 = time.time()
    # dictionary file round trip is bit-exact
    rng = np.random.default_rng(6)
    D = random_dictionary(rng, channels=2, bins=16, num_atoms=8)
    cfg = StftConfig(sample_rate=16000, window_len=1024, hop=512)
    path = tmp_path / "dict.bin"
    save_dictionary(path, D, cfg)
    D2, _ = load_dictionary(path)
    bit_exact = np.array_equal(
        D.atoms.astype(np.complex128), D2.atoms
    ) and D.atoms.tobytes() == D2.atoms.astype(np.complex128).tobytes()

    # repeated seeded training runs produce byte-identical outputs
    wav = tmp_path / "train.wav"
    write_wav(wav, 0.1 * rng.standard_normal((3000, 2)), 8000)
    outs = []
    for name in ("a.bin", "b.bin"):
        out = tmp_path / name
        rc = main(["train", "--input", str(wav), "--output", str(out),
                   "-K", "4", "--smax", "2", "--iters", "3",
                   "--window-len", "64", "--hop", "32", "--seed", "7"])
        assert rc == 0
        outs.append(out.read_bytes())
    identical = outs[0] == outs[1]
    elapsed = time.time() - t0
    ok = bit_exact and identical
    report(9, "serialization and determinism", ok, elapsed)
    assert bit_exact
    assert identical
