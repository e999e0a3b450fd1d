"""Phase-optimized K-SVD: alternating frame-wise PO-OMP and sequential
per-atom rank-1 updates with closed-form phase refinement.

A new sparse code replaces a frame's previous one only if it does not
increase that frame's residual (external inference), which together with
the exact per-atom minimizations makes the training objective monotone.
With ``phase_optimization`` off the loop is classic K-SVD.
"""

from __future__ import annotations

import copy
import logging
from dataclasses import dataclass, field

import numpy as np

from .linalg import PowerIterationError, dominant_singular_triple, unit_phase
from .model import CodingBatch, Dictionary, atom_contribution, normalize_atom
from .pursuit import PursuitConfig, po_omp_batch

log = logging.getLogger(__name__)


@dataclass
class LearningConfig:
    num_atoms: int = 40
    pursuit: PursuitConfig = field(default_factory=PursuitConfig)
    epsilon_outer: float = 1e-3
    epsilon_atom: float = 1e-3
    max_outer_iters: int = 50
    max_atom_iters: int = 20
    seed: int = 0
    # near-duplicate atoms trap the alternation in local minima; pairs with
    # phase-invariant overlap above this get a tentative replacement that is
    # kept only if the objective does not increase (0 disables)
    dedupe_coherence: float = 0.8

    def __post_init__(self):
        if self.num_atoms < 1:
            raise ValueError("num_atoms must be >= 1")
        for name in ("epsilon_outer", "epsilon_atom"):
            v = getattr(self, name)
            if not (0 < v < 1):
                raise ValueError("%s must lie in (0, 1)" % name)
        if self.max_outer_iters < 1 or self.max_atom_iters < 1:
            raise ValueError("iteration caps must be >= 1")


@dataclass
class TrainedModel:
    dictionary: Dictionary
    coding: CodingBatch  # final codes of the training frames
    objective_trace: list[float]


def init_dictionary(Y, channels, num_atoms, seed, phase_optimization=True):
    """Seed the dictionary with K distinct nonzero frames of Y, each in the
    gauge of its mode (per bin when phases are optimized).

    Y is an (M*F, T) frame matrix.  Sampling is without replacement from
    the nonzero-norm frames via a seeded RNG, so identical inputs give
    identical dictionaries.
    """
    Y = np.asarray(Y, dtype=np.complex128)
    norms = np.linalg.norm(Y, axis=0)
    candidates = np.flatnonzero(norms > 0)
    if candidates.size < num_atoms:
        raise ValueError(
            "insufficient training data: %d nonzero frames < K = %d"
            % (candidates.size, num_atoms)
        )
    rng = np.random.default_rng(seed)
    picks = rng.choice(candidates, size=num_atoms, replace=False)
    atoms = np.empty((Y.shape[0], num_atoms), dtype=np.complex128)
    for i, t in enumerate(picks):
        atoms[:, i] = normalize_atom(Y[:, t], channels, phase_optimization)[0]
    bins = Y.shape[0] // channels
    return Dictionary(channels=channels, bins=bins, atoms=atoms)


def update_atom(E, phase_rows, cfg, channels):
    """Rank-1 update of one atom over the frames that use it.

    E is (M*F, n): the residual plus the atom's contribution on the n frames
    whose code uses the atom; phase_rows is (F, n), the atom's phase
    columns in those frames.  Alternates the dominant-SVD step (phases
    frozen) with closed-form per-(f, t) phase updates until the restricted
    objective stalls.  The nonzero support is preserved exactly.

    Returns (d', x', phase_rows'); x' are the n nonnegative gains.
    """
    A0 = np.asarray(E)
    if A0.shape[1] == 0:
        raise ValueError("empty support")
    if np.linalg.norm(A0) == 0:
        raise ValueError("restricted residual is zero")
    F = phase_rows.shape[0]
    M = channels
    Tk = A0.shape[1]
    # C order: with M = 1 the rotated matrix takes phase_rows' layout, and
    # the last bits of the power iteration and the objective depend on it
    phase_rows = np.ascontiguousarray(phase_rows)
    phase_opt = cfg.pursuit.phase_optimization

    A3 = A0.reshape(F, M, Tk)
    A_rot = (A3 * phase_rows.conj()[:, None, :]).reshape(F * M, Tk)
    prev_obj = None
    for _ in range(cfg.max_atom_iters):
        # (a) phases frozen: take the top triple of the conjugate-rotated columns
        try:
            triple = dominant_singular_triple(A_rot, tol=1e-12, max_iter=10000)
        except PowerIterationError as err:
            triple = err.last_triple
        u, sigma, v = triple.left, triple.sigma, triple.right
        x_c = sigma * v.conj()  # column t of the rank-1 fit is u * x_c[t]

        # re-gauge the atom; rotations are absorbed into the phase rows
        d, rotations, _ = normalize_atom(u, channels, phase_opt)
        phase_rows = phase_rows * rotations.conj()[:, None]

        # fold complex frame gains to nonnegative reals
        x = np.abs(x_c)
        phase_rows = phase_rows * unit_phase(x_c)[None, :]
        if not phase_opt:
            break

        # (b) closed-form per-(f, t) phase update on the support
        w = np.einsum("fm,fmt->ft", d.reshape(F, M).conj(), A3) * x[None, :]
        phase_rows = unit_phase(w, phase_rows)

        A_rot = (A3 * phase_rows.conj()[:, None, :]).reshape(F * M, Tk)
        obj = float(np.linalg.norm(A_rot - np.outer(d, x)))
        if prev_obj is not None and abs(prev_obj - obj) < cfg.epsilon_atom * max(prev_obj, 1e-300):
            break
        prev_obj = obj
    return d, x, phase_rows


def po_ksvd(Y, channels, cfg, progress=None):
    """Train a phase-optimized dictionary from example frames.

    Y is an (M*F, T) complex frame matrix (use Spectrogram.frame_matrix()).
    Returns a TrainedModel whose objective_trace records the summed squared
    reconstruction error after each outer iteration, and whose coding holds
    the final code and residual of every frame of Y.

    ``progress(iteration, objective, atoms_replaced)`` is called once per
    outer iteration when given; the same record is logged at INFO level.
    """
    Y = np.asarray(Y, dtype=np.complex128)
    mf, T = Y.shape
    K = cfg.num_atoms
    if T < K:
        raise ValueError("insufficient training data: T = %d < K = %d" % (T, K))
    phase_opt = cfg.pursuit.phase_optimization
    D = init_dictionary(Y, channels, K, cfg.seed, phase_opt)
    F = D.bins

    s = cfg.pursuit.s_max
    # frame t's code, in po_omp_batch's layout; residual is the running residual
    state = CodingBatch.empty(K, s, F, Y.copy())

    def frames_using(k):
        """(frames, slots) where atom k has a positive gain, in frame order."""
        used = (state.support == k) & (np.arange(s)[:, None] < state.lengths) & (state.gains.T > 0)
        return np.nonzero(used.T)

    def contribution(k, frames, slots):
        return atom_contribution(
            D.blocks()[:, :, k, None], state.gains[frames, slots], state.columns[:, slots, frames]
        )

    def coding_pass():
        new = po_omp_batch(Y, D, cfg.pursuit)
        take = ~(np.linalg.norm(new.residual, axis=0) > np.linalg.norm(state.residual, axis=0))
        state.support[:, take] = new.support[:, take]
        state.lengths[take] = new.lengths[take]
        state.gains[take] = new.gains[take]
        state.columns[:, :, take] = new.columns[:, :, take]
        state.residual[:, take] = new.residual[:, take]

    def update_pass():
        replaced = 0
        for k in range(K):
            frames, slots = frames_using(k)
            if frames.size == 0:
                worst = int(np.argmax(np.linalg.norm(state.residual, axis=0)))
                if np.linalg.norm(Y[:, worst]) > 0:
                    D.atoms[:, k] = normalize_atom(Y[:, worst], channels, phase_opt)[0]
                    replaced += 1
                continue
            # E_k restricted = residual plus atom k's current contribution
            E_sub = state.residual[:, frames] + contribution(k, frames, slots)
            if np.linalg.norm(E_sub) == 0:
                continue
            d_new, x_new, phase_rows_new = update_atom(E_sub, state.columns[:, slots, frames], cfg, channels)
            D.atoms[:, k] = d_new
            state.gains[frames, slots] = x_new
            state.columns[:, slots, frames] = phase_rows_new
            state.residual[:, frames] = E_sub - contribution(k, frames, slots)
        return replaced

    def dedupe_pass(G):
        """Replace one atom of each near-duplicate pair with the worst frame.

        G is the atoms' overlap with a zero diagonal.  The caller re-runs
        coding and updates afterwards and keeps the result only if the
        objective did not increase, so this cannot break the monotone
        trace.  Returns the number of atoms replaced.
        """
        slots, frames = np.nonzero(np.arange(s)[:, None] < state.lengths)
        X = np.zeros((K, T))
        X[state.support[slots, frames], frames] = state.gains[frames, slots]
        usage = np.cumsum(X**2, axis=1)[:, -1]  # left-to-right sum over frames
        frame_err = np.linalg.norm(state.residual, axis=0)
        replaced = 0
        done = set()
        for j in range(K):
            for k in range(j + 1, K):
                if G[j, k] <= cfg.dedupe_coherence or j in done or k in done:
                    continue
                drop = k if usage[k] <= usage[j] else j
                worst = int(np.argmax(frame_err))
                if np.linalg.norm(Y[:, worst]) == 0:
                    continue
                frames, slots = frames_using(drop)
                state.residual[:, frames] += contribution(drop, frames, slots)
                # close the gap left in each frame's support
                keep = np.ones(state.support.shape, dtype=bool)
                keep[slots, frames] = False
                order = np.argsort(~keep, axis=0, kind="stable")
                state.support[:] = np.take_along_axis(state.support, order, axis=0)
                state.gains[:] = np.take_along_axis(state.gains, order.T, axis=1)
                state.columns[:] = np.take_along_axis(state.columns, order[None], axis=1)
                state.lengths[frames] -= 1
                D.atoms[:, drop] = normalize_atom(Y[:, worst], channels, phase_opt)[0]
                frame_err = np.linalg.norm(state.residual, axis=0)
                done.update((j, k))
                replaced += 1
        return replaced

    trace: list[float] = []
    for it in range(cfg.max_outer_iters):
        coding_pass()
        atoms_replaced = update_pass()
        objective = float(np.sum(np.abs(state.residual) ** 2))

        if cfg.dedupe_coherence > 0 and objective > 0:
            G = D.overlap()
            np.fill_diagonal(G, 0.0)
            if G.max() > cfg.dedupe_coherence:
                saved = (D.copy(), copy.deepcopy(state))
                replaced = dedupe_pass(G)
                if replaced:
                    coding_pass()
                    atoms_replaced += update_pass() + replaced
                    retry = float(np.sum(np.abs(state.residual) ** 2))
                    if retry <= objective:
                        objective = retry
                    else:
                        D, state = saved

        trace.append(objective)
        log.info("iteration=%d objective=%.12e atoms_replaced=%d", it + 1, objective, atoms_replaced)
        if progress is not None:
            progress(it + 1, objective, atoms_replaced)
        if len(trace) > 1:
            prev = trace[-2]
            if prev == 0 or abs(prev - objective) < cfg.epsilon_outer * prev:
                break

    return TrainedModel(dictionary=D, coding=state, objective_trace=trace)
