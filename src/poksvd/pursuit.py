"""Greedy phase-optimized sparse coding (PO-OMP), frames coded in lockstep
in fixed-width column blocks, the blocks shared out among the available cores.

Each outer step selects the atom whose per-bin phase-rotated copy best
matches the residual, then alternately refines all gains (least squares on
the phase-corrected sub-dictionary) and all phase columns (closed-form
per-bin updates, accepted only when they do not increase the residual).

With ``phase_optimization`` off the same loop degenerates to classic OMP:
phase columns are constant across bins and only absorb the complex phase
of the least-squares gains, which on real data reduces to a sign.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np

from .linalg import diagnostics, least_squares_frames, unit_phase
from .model import CodingBatch

# Bytes allowed for the complex (F, K, width) score tensors of all column
# blocks in flight; sets the block width of po_omp_batch, so its memory does
# not grow with T or with the worker count.
SCORE_BUDGET_BYTES = 16 * 2**20


@dataclass
class PursuitConfig:
    s_max: int = 3
    tau: float = 1e-4  # absolute residual-norm stop
    epsilon: float = 1e-3  # relative residual-change stop for refinement
    max_refine_iters: int = 100
    phase_optimization: bool = True
    selection_rule: str = "derived"  # "derived" or "literal"

    def __post_init__(self):
        if self.s_max < 1:
            raise ValueError("s_max must be >= 1")
        if self.tau < 0:
            raise ValueError("tau must be >= 0")
        if not (0 < self.epsilon < 1):
            raise ValueError("epsilon must lie in (0, 1)")
        if self.selection_rule not in ("derived", "literal"):
            raise ValueError("selection_rule must be 'derived' or 'literal'")


def select_best_atom(residual, D, excluded=frozenset(), cfg=None):
    """Pick the atom best matching the residual under optimal per-bin phases.

    Returns (k, gain, phase_column).  The derived score sum_f |b_{fk}| is
    both the selection criterion and the optimal single-atom gain for
    unit-norm atoms; the literal alternative |sum_f b/|b|| is available via
    ``cfg.selection_rule``.  A zero best score means the residual is
    orthogonal to every candidate; the caller treats gain 0 as a stop.
    One-frame view of the batched scoring in ``po_omp_batch``.
    """
    cfg = cfg or PursuitConfig()
    R3 = np.asarray(residual, dtype=np.complex128).reshape(D.bins, D.channels, 1)
    scores, B = _batch_scores(R3, D.blocks(), cfg)
    mask = np.isin(np.arange(D.num_atoms), list(excluded))
    if mask.all():
        raise ValueError("no candidate atoms left")
    scores = np.where(mask, -1.0, scores[:, 0])
    k = int(np.argmax(scores))  # argmax breaks ties by lowest index
    gain = float(max(scores[k], 0.0))
    return k, gain, _selected_columns(B, np.array([k]), D.bins, cfg)[:, 0]


def refine_support(y, D, support, columns, cfg):
    """Alternating gain / phase refinement over a fixed support.

    columns is a list of length-F phase columns, one per support atom, in
    support order.  Returns (gains, columns, residual); ||r||_2 is
    non-increasing across every alternation step.  One-frame view of the
    batched refinement in ``po_omp_batch``.
    """
    if not support:
        raise ValueError("empty support")
    y = np.asarray(y, dtype=np.complex128)[:, None]
    supp = np.array(support)[:, None]
    cols = np.stack(columns, axis=1).astype(np.complex128)[:, :, None]
    gains, cols, r = _batch_refine(y, D.blocks().transpose(2, 0, 1), supp, cols, cfg)
    return gains[0], list(cols[:, :, 0].T), r[:, 0]


def _batch_scores(R3, blocks, cfg):
    """Selection scores (K, T) for a batch of residuals R3 (F, M, T), and the
    correlations they come from: per bin (F, K, T), or summed over the bins
    (K, T) in classic mode."""
    B = np.einsum("fmk,fmt->fkt", blocks.conj(), R3)
    if not cfg.phase_optimization:
        # bins added in order whatever the shape: B.sum(axis=0) turns
        # pairwise when K * T = 1, which would give a lone frame other bits
        b = sum(B[1:], B[0])
        return np.abs(b), b
    if cfg.selection_rule == "literal":
        return np.abs(unit_phase(B, 0.0).sum(axis=0)), B
    return np.abs(B).sum(axis=0), B


def _batch_refine(Y, atoms, supp, cols, cfg):
    """Lockstep gain/phase alternation for every frame of the batch.

    Y (MF, T), atoms (K, F, M), supp (s, T), cols (F, s, T).  Returns new
    arrays (gains (T, s), cols (F, s, T), R (MF, T)); a frame stops
    sweeping once its residual norm reaches the floor or stalls, or at the
    sweep cap.

    The sweeps run frame-major: the arrays are converted once on entry and
    once on return, so that frames lie on the leading axis and every sum
    runs over a last, contiguous bin or channel axis.  The support blocks
    and their per-bin energies are gathered once and compacted only when
    frames leave, and a frame's gains, columns and residual are written
    once, when it leaves.
    """
    _, F, M = atoms.shape
    s, T = supp.shape
    norms_y = np.linalg.norm(Y, axis=0)
    floor = np.maximum(cfg.tau, 1e-14 * norms_y)
    slack = 1e-15 * norms_y**2
    y = np.ascontiguousarray(Y.T)  # (T, MF)
    cw = np.ascontiguousarray(cols.transpose(2, 1, 0))  # (T, s, F)
    bg = atoms[supp.T]  # (T, s, F, M)
    bin_sq = np.einsum("tsfm,tsfm->tsf", bg.conj(), bg).real
    gains, cols_out, R_out = np.zeros((T, s)), cw.copy(), y.copy()  # as given if no sweep runs
    idx = np.arange(T)  # frames still refining
    prev = np.full(T, np.inf)  # their last residual norms; inf never stalls
    for sweep in range(cfg.max_refine_iters):
        if idx.size == 0:
            break
        # (a) batched least squares on the phase-corrected sub-dictionaries
        sub = (cw[:, :, :, None] * bg).reshape(idx.size, s, F * M)
        z = least_squares_frames(sub, y)  # (frames still refining, s)
        g = np.abs(z)
        cw = cw * unit_phase(z)[:, :, None]
        R = y - np.einsum("tsa,ts->ta", sub, z)

        if cfg.phase_optimization:
            R3 = R.reshape(idx.size, F, M)
            energy = np.einsum("tfm,tfm->tf", R3, R3.conj()).real  # per bin, carried
            for j in range(s):
                dk, c, gj = bg[:, j], cw[:, j], g[:, j, None]
                b = np.einsum("tfm,tfm->tf", dk.conj(), R3)
                # exact per-bin minimizer: the ||d_f||^2 weight matters
                # whenever the bin blocks are not unit-norm
                z_f = b + c * gj * bin_sq[:, j]
                phi_new = unit_phase(z_f, c)
                delta = (c - phi_new) * gj
                R_new = R3 + delta[:, :, None] * dk
                e_new = np.einsum("tfm,tfm->tf", R_new, R_new.conj()).real
                # a bin's new phase is kept only if it does not increase the residual
                accept = (e_new <= energy + slack[:, None]) & (gj > 0)
                R3 = np.where(accept[:, :, None], R_new, R3)
                cw[:, j] = np.where(accept, phi_new, c)
                energy = np.where(accept, e_new, energy)
            R = R3.reshape(idx.size, F * M)

        # summed over the rows in order, as add.reduce does on an (MF, T) array
        norm = np.linalg.norm(np.ascontiguousarray(R.T), axis=0)
        done = norm <= floor
        done |= (prev == 0) | (np.abs(prev - norm) < cfg.epsilon * np.where(prev > 0, prev, 1.0))
        # every frame still refining at the cap leaves with this sweep's code
        leave = done | (sweep + 1 == cfg.max_refine_iters)
        if leave.any():
            out = idx[leave]
            gains[out], cols_out[out], R_out[out] = g[leave], cw[leave], R[leave]
        if done.any():
            keep = ~done
            idx, prev, y, cw, bg, bin_sq, floor, slack = (
                a[keep] for a in (idx, norm, y, cw, bg, bin_sq, floor, slack))
        else:
            prev = norm
    else:
        diagnostics.add(refine_cap_hits=idx.size)
    return gains, cols_out.transpose(2, 1, 0), R_out.T


def _selected_columns(B, k_sel, bins, cfg):
    """Initial (F, T) phase columns of the atoms ``k_sel`` chosen from the
    correlations B of ``_batch_scores``; constant per frame in classic mode."""
    frames = np.arange(k_sel.size)
    if cfg.phase_optimization:
        return unit_phase(B[:, k_sel, frames])  # (F, T)
    phi = unit_phase(B[k_sel, frames])
    return np.broadcast_to(phi[None, :], (bins, k_sel.size)).copy()


def _block_width(bins, num_atoms, workers=1):
    """Frames per column block: as many as keep ``workers`` blocks' complex
    (F, K, W) score tensors within SCORE_BUDGET_BYTES together, and at least
    one."""
    return max(1, SCORE_BUDGET_BYTES // (16 * bins * num_atoms * workers))


def _column_blocks(T, width):
    """[a, b) bounds of consecutive ``width``-frame column blocks; the last
    one takes the remaining T mod width frames when that is not 0."""
    return [(a, min(a + width, T)) for a in range(0, T, width)]


def _worker_count():
    """Cores this process may run on, read on every call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def po_omp_batch(Y, D, cfg=None):
    """PO-OMP over the columns of Y, in column blocks coded in lockstep.

    Returns a CodingBatch with s = ``cfg.s_max`` slots; ``len()`` is the
    frame count and item t is frame t's CodingResult.  Each frame's code
    does not depend on the other frames of the batch, so coding in blocks
    of ``_block_width`` frames gives the one-batch result bit for bit while
    the score tensors stay within SCORE_BUDGET_BYTES.  With n available
    cores the budget is split n ways, and the blocks are coded by the
    calling thread and up to n - 1 helper threads; a single block is coded
    on the calling thread alone.
    """
    cfg = cfg or PursuitConfig()
    Y = np.asarray(Y, dtype=np.complex128)
    mf = D.channels * D.bins
    if Y.ndim != 2 or Y.shape[0] != mf:
        raise ValueError("frame matrix must be (M*F, T) with M*F = %d" % mf)
    if not np.isfinite(Y).all():
        raise ValueError("frame matrix has non-finite entries")
    batch = CodingBatch.empty(D.num_atoms, cfg.s_max, D.bins, Y.copy())
    blocks = D.blocks()
    atoms = np.ascontiguousarray(blocks.transpose(2, 0, 1))  # (K, F, M) for the refinement
    workers = _worker_count()
    spans = _column_blocks(Y.shape[1], _block_width(D.bins, D.num_atoms, workers))

    def code(a, b):
        _code_block(
            Y[:, a:b], blocks, atoms, cfg, batch.support[:, a:b], batch.lengths[a:b],
            batch.gains[a:b], batch.columns[:, :, a:b], batch.residual[:, a:b],
        )

    _share_out(code, spans, min(workers, len(spans)) - 1)
    return batch


def _share_out(code, spans, helpers):
    """Call ``code(a, b)`` for every span, on the calling thread and
    ``helpers`` helper threads that all take the next span from one shared
    queue.  The first exception stops the taking of spans and is raised
    again here once every thread has finished its current span."""
    queue = iter(spans)
    lock = threading.Lock()
    errors = []

    def take():
        with lock:
            return None if errors else next(queue, None)

    def drain():
        try:
            for span in iter(take, None):
                code(*span)
        except BaseException as exc:
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=drain, daemon=True) for _ in range(helpers)]
    for thread in threads:
        thread.start()
    try:
        drain()
        for thread in threads:
            thread.join()
    except BaseException as exc:  # interrupted while waiting: take no new span
        with lock:
            errors.append(exc)
        raise
    if errors:
        raise errors[0]


def _code_block(Y, blocks, atoms, cfg, supp, supp_len, gains, cols, R):
    """Greedy PO-OMP on the frames Y (MF, T), writing into views of one
    CodingBatch's arrays; R holds Y on entry.  blocks are the dictionary's
    (F, M, K) blocks for the scoring, atoms the same as (K, F, M) for the
    refinement."""
    F, M, _ = blocks.shape
    T = Y.shape[1]
    norms = np.linalg.norm(R, axis=0)
    greedy = np.ones(T, dtype=bool)
    frames = np.arange(T)

    for i in range(cfg.s_max):
        active = greedy & (norms > cfg.tau)
        if not active.any():
            break
        scores, B = _batch_scores(R.reshape(F, M, T), blocks, cfg)
        scores[supp[:i], frames] = -1.0
        k_sel = np.argmax(scores, axis=0)
        g_sel = scores[k_sel, frames]
        grow = active & (g_sel > 0)
        greedy &= grow  # zero best score ends that frame's pursuit
        if not grow.any():
            break

        supp[i] = k_sel
        cols[:, i] = _selected_columns(B, k_sel, F, cfg)
        del B  # free the (F, K, T) correlations before the refinement and the next scoring
        supp_len[grow] = i + 1

        gains[grow, : i + 1], cols[:, : i + 1, grow], R[:, grow] = _batch_refine(
            Y[:, grow], atoms, supp[: i + 1, grow], cols[:, : i + 1, grow], cfg
        )
        norms = np.linalg.norm(R, axis=0)


def po_omp(y, D, cfg=None):
    """Phase-optimized orthogonal matching pursuit for one frame.

    Greedy loop: select the best remaining atom on the current residual,
    append it, refine all gains and phases; stop at s_max atoms, when
    ||r||_2 <= tau, or when the residual is orthogonal to every atom.
    """
    cfg = cfg or PursuitConfig()
    y = np.asarray(y, dtype=np.complex128)
    if y.shape != (D.channels * D.bins,):
        raise ValueError(
            "frame length %d does not match dictionary M*F = %d"
            % (y.size, D.channels * D.bins)
        )
    return po_omp_batch(y[:, None], D, cfg)[0]
