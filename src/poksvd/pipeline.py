"""End-to-end workflows: synthetic ground-truth generation, denoising by
residual extraction, the magnitude-floor mask, and energy-ratio metrics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import unit_phase
from .model import CodingBatch, Dictionary, normalize_atom, reconstruct
from .pursuit import po_omp_batch
from .stft import Spectrogram

SDR_CAP_DB = 100.0
# _decorrelate's repulsion step and sweep budget
DECORRELATE_STEP = 0.25
DECORRELATE_SWEEPS = 500


@dataclass
class SyntheticSpec:
    channels: int
    bins: int
    frames: int
    num_atoms: int
    s_max: int
    gain_range: tuple[float, float] = (0.5, 2.0)
    noise_sigma: float = 0.0
    seed: int = 0
    max_coherence: float | None = None  # redraw dictionaries above this

    def __post_init__(self):
        lo, hi = self.gain_range
        if not (0 < lo <= hi):
            raise ValueError("gain_range must satisfy 0 < lo <= hi")
        if self.s_max > self.num_atoms:
            raise ValueError("s_max cannot exceed the atom count")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be >= 0")


@dataclass
class EvalReport:
    sdr_db: float
    sir_db: float | None = None

    def as_dict(self):
        out = {"sdr_db": self.sdr_db}
        if self.sir_db is not None:
            out["sir_db"] = self.sir_db
        return out


def dictionary_coherence(D):
    """max_{j != k} sum_f |<d_fj | d_fk>|, the phase-invariant atom overlap."""
    G = D.overlap()
    np.fill_diagonal(G, 0.0)
    return float(G.max())


def _decorrelate(atoms, channels, bins, limit):
    """Push atom pairs apart until every pairwise coherence is below limit.

    Plain Gaussian draws almost never satisfy tight limits (the typical
    pairwise overlap at M=2, F=16 is ~0.6), so offending pairs are
    repelled along their per-bin phase-aligned components instead of
    redrawn wholesale.  The coherences are ``Dictionary.overlap``; the
    per-bin correlations G[:, j, k] whose phases a repulsion needs are
    formed only for the pairs it pushes apart, with the bits the whole
    (F, K, K) Gram would give them.
    """
    K = atoms.shape[1]
    for _ in range(DECORRELATE_SWEEPS):
        D = Dictionary(channels, bins, atoms)
        coh = D.overlap()
        np.fill_diagonal(coh, 0.0)
        worst = coh.max() if K > 1 else 0.0
        if worst < limit:
            return atoms
        target = 0.95 * limit
        blocks = D.blocks()
        updated = atoms.copy()
        for j in range(K):
            for k in range(j + 1, K):
                if coh[j, k] < target:
                    continue
                bj = blocks[:, :, j]
                bk = blocks[:, :, k]
                u = unit_phase(np.einsum("fm,fm->f", bj.conj(), bk), 0.0)
                updated[:, k] -= DECORRELATE_STEP * (u[:, None] * bj).ravel()
                updated[:, j] -= DECORRELATE_STEP * (u.conj()[:, None] * bk).ravel()
        for k in range(K):
            updated[:, k] = normalize_atom(updated[:, k], channels)[0]
        atoms = updated
    raise RuntimeError("could not reach pairwise coherence < %g" % limit)


def random_dictionary(rng, channels, bins, num_atoms, max_coherence=None):
    """Complex Gaussian atoms in the storage gauge; when ``max_coherence``
    is set the draw is followed by a deterministic decorrelation pass."""
    mf = channels * bins
    atoms = np.empty((mf, num_atoms), dtype=np.complex128)
    for k in range(num_atoms):
        raw = rng.standard_normal(mf) + 1j * rng.standard_normal(mf)
        atoms[:, k] = normalize_atom(raw, channels)[0]
    if max_coherence is not None:
        atoms = _decorrelate(atoms, channels, bins, max_coherence)
    return Dictionary(channels=channels, bins=bins, atoms=atoms)


def generate_synthetic(spec):
    """Forward-simulate the mixing model with a random planted dictionary.

    Per frame, s_max atoms are chosen uniformly without replacement with
    gains uniform in gain_range and independent unit phases per (f, k);
    complex Gaussian noise with per-component std noise_sigma is added.
    Returns (Spectrogram, ground_truth dict with D, codes, phases).
    """
    rng = np.random.default_rng(spec.seed)
    D = random_dictionary(
        rng, spec.channels, spec.bins, spec.num_atoms, spec.max_coherence
    )
    mf, T, s = spec.channels * spec.bins, spec.frames, spec.s_max
    # the truth's residual is the added noise
    noise = np.zeros((mf, T), dtype=np.complex128)
    truth = CodingBatch.empty(spec.num_atoms, s, spec.bins, noise)
    truth.lengths[:] = s
    for t in range(T):
        truth.support[:, t] = np.sort(rng.choice(spec.num_atoms, size=s, replace=False))
        for l in range(s):
            truth.gains[t, l] = rng.uniform(*spec.gain_range)
            truth.columns[:, l, t] = np.exp(2j * np.pi * rng.uniform(size=spec.bins))
        if spec.noise_sigma > 0:
            noise[:, t] = spec.noise_sigma * (
                rng.standard_normal(mf) + 1j * rng.standard_normal(mf)
            )
    Y = reconstruct(D, truth) + noise
    spec_out = Spectrogram.from_frame_matrix(Y, spec.channels)
    items = list(truth)
    return spec_out, {"dictionary": D, "codes": [r.code for r in items], "phases": [r.phases for r in items]}


def denoise(mixture, D, cfg=None):
    """Code each frame against the noise dictionary and keep the residual.

    Returns (target, noise_estimate) spectrograms with
    target + noise_estimate == mixture entry-wise; ``apply_mask`` then
    floors the target where the noise estimate dominates.
    """
    Y = mixture.frame_matrix()
    noise = Y - po_omp_batch(Y, D, cfg).residual
    target = Y - noise
    return (Spectrogram.from_frame_matrix(target, mixture.channels, mixture.config),
            Spectrogram.from_frame_matrix(noise, mixture.channels, mixture.config))


def apply_mask(target, noise_estimate, floor_quantile=0.1):
    """Floor time-frequency points dominated by the noise estimate.

    Wherever |target|^2 < |noise_estimate|^2 the magnitude is replaced by
    the per-(bin, channel) background level -- the mean magnitude of the
    target over its quietest ``floor_quantile`` fraction of frames -- while
    the phase is preserved (zero entries take phase 1).
    """
    if not (0 < floor_quantile <= 1):
        raise ValueError("floor_quantile must lie in (0, 1]")
    V = target.values
    N = noise_estimate.values
    if V.shape != N.shape:
        raise ValueError("target and noise estimate shapes differ")
    F, M, T = V.shape
    mags = np.abs(V)
    n_floor = max(1, int(np.ceil(floor_quantile * T)))
    sorted_mags = np.sort(mags, axis=2)
    background = sorted_mags[:, :, :n_floor].mean(axis=2)  # (F, M)

    replace = mags**2 < np.abs(N) ** 2
    out = np.where(replace, background[:, :, None] * unit_phase(V), V)
    return Spectrogram(values=out, config=target.config)


def _as_flat(x):
    if isinstance(x, Spectrogram):
        return x.values.ravel()
    return np.asarray(x).ravel()


def evaluate(reference_target, estimate, noise_reference=None):
    """Energy-ratio SDR (and SIR when a noise reference is given), in dB.

    SDR = 10 log10 ||s||^2 / ||s - s_hat||^2, capped at +100 dB;
    SIR compares the energies of the projections of the estimate onto the
    reference target and the reference noise, within the same +-100 dB.
    """
    s = _as_flat(reference_target)
    s_hat = _as_flat(estimate)
    if s.shape != s_hat.shape:
        raise ValueError("reference and estimate shapes differ")
    s_energy = float(np.vdot(s, s).real)
    if s_energy == 0:
        raise ValueError("degenerate reference: zero energy")
    err = float(np.vdot(s - s_hat, s - s_hat).real)
    sdr = _ratio_db(s_energy, err)

    sir = None
    if noise_reference is not None:
        n = _as_flat(noise_reference)
        if n.shape != s_hat.shape:
            raise ValueError("noise reference and estimate shapes differ")
        n_energy = float(np.vdot(n, n).real)
        if n_energy == 0:
            raise ValueError("degenerate reference: zero noise energy")
        proj_s = np.vdot(s, s_hat) / s_energy * s
        proj_n = np.vdot(n, s_hat) / n_energy * n
        ps = float(np.vdot(proj_s, proj_s).real)
        pn = float(np.vdot(proj_n, proj_n).real)
        sir = _ratio_db(ps, pn)
    return EvalReport(sdr_db=sdr, sir_db=sir)


def _ratio_db(num, den):
    """10 log10(num / den) in dB, capped at +SDR_CAP_DB, and -SDR_CAP_DB
    when num is 0 and den is not."""
    if den <= num * 10.0 ** (-SDR_CAP_DB / 10.0):
        return SDR_CAP_DB
    return float(10.0 * np.log10(num / den)) if num > 0 else -SDR_CAP_DB


def atom_match_score(D_learned, D_true):
    """Per-true-atom best phase-invariant correlation against D_learned.

    score(j, k) = sum_f |<d_hat_fk | d_fj>| for unit-norm atoms; returns
    (best_per_true_atom, assignment_scores) where the second entry uses the
    optimal one-to-one matching.
    """
    from scipy.optimize import linear_sum_assignment  # slow import, needed only here

    S = D_learned.overlap(D_true)  # (K_learned, K_true)
    best = S.max(axis=0)
    rows, cols = linear_sum_assignment(-S)
    assigned = np.zeros(D_true.num_atoms)
    for r, c in zip(rows, cols):
        assigned[c] = S[r, c]
    return best, assigned


def support_recovery_rate(codes, true_codes):
    """Fraction of frames whose recovered support equals the planted one."""
    hits = sum(
        1 for c, tc in zip(codes, true_codes) if set(c.support) == set(tc.support)
    )
    return hits / max(len(codes), 1)
