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

# Bytes of complex (F, K) correlations that the frames of all column blocks
# in flight may stand for together; sets the block width of po_omp_batch, so
# its memory does not grow with T or with the worker count.
SCORE_BUDGET_BYTES = 16 * 2**20

# Bins per slab of the atom scoring: a greedy step forms and reduces its
# correlations one slab at a time, never all F bins at once.
SCORE_SLAB = 32


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
        if self.max_refine_iters < 1:
            raise ValueError("max_refine_iters must be >= 1")
        if self.selection_rule not in ("derived", "literal"):
            raise ValueError("selection_rule must be 'derived' or 'literal'")


def select_best_atom(residual, D, excluded=frozenset(), cfg=None):
    """Pick the atom best matching the residual under optimal per-bin phases.

    Returns (k, gain, phase_column).  The derived score sum_f |b_{fk}| is
    both the selection criterion and the optimal single-atom gain for
    unit-norm atoms; the literal alternative |sum_f b/|b|| is available via
    ``cfg.selection_rule``.  A zero best score means the residual is
    orthogonal to every candidate; the caller treats gain 0 as a stop.
    Indices in ``excluded`` outside [0, K) are ignored.  One-frame view of
    the selection step of ``po_omp_batch``.
    """
    cfg = cfg or PursuitConfig()
    R3 = _frame_matrix(np.asarray(residual)[..., None], D).reshape(D.bins, D.channels, 1)
    mask = np.isin(np.arange(D.num_atoms), list(excluded))
    if mask.all():
        raise ValueError("no candidate atoms left")
    k, gain, column = _select(R3, D.blocks(), np.flatnonzero(mask)[:, None], cfg)
    return int(k[0]), float(gain[0]), column[:, 0]


def refine_support(y, D, support, columns, cfg):
    """Alternating gain / phase refinement over a fixed support.

    columns is a list of length-F phase columns, one per support atom, in
    support order.  Returns (gains, columns, residual); ||r||_2 is
    non-increasing across every alternation step.  One-frame view of the
    batched refinement in ``po_omp_batch``.
    """
    if not support:
        raise ValueError("empty support")
    y = _frame_matrix(np.asarray(y)[..., None], D)
    supp = np.array(support)[:, None]
    cols = np.stack(columns, axis=1).astype(np.complex128)[:, :, None]
    gains, cols, r = _batch_refine(y, D.blocks(), supp, cols, cfg)
    return gains[0], list(cols[:, :, 0].T), r[:, 0]


def _batch_scores(R3, blocks, cfg):
    """Selection scores (K, T) for a batch of residuals R3 (F, M, T), and
    the sums over the bins (K, T) that they are the moduli of: sums of the
    per-bin correlations' |b| (derived), b/|b| (literal) or b (classic).

    The correlations are formed SCORE_SLAB bins at a time and turned into
    terms there.  Each slab's first row takes the running sum of the slabs
    before it, and one in-order reduction adds up the slab, so the bins are
    added in order for every shape and mode: a lone frame gets the bits it
    has in a batch.
    """
    for a in range(0, R3.shape[0], SCORE_SLAB):
        B = np.einsum("fmk,fmt->fkt", blocks[a : a + SCORE_SLAB].conj(), R3[a : a + SCORE_SLAB])
        if not cfg.phase_optimization:
            term = B
        elif cfg.selection_rule == "literal":
            term = unit_phase(B, 0.0)
        else:
            term = np.abs(B)
        del B
        if a:
            term[0] += total
        total = np.add.accumulate(term, axis=0)[-1].copy()
    return np.abs(total), total


def _batch_refine(Y, blocks, supp, cols, cfg):
    """Lockstep gain/phase alternation for every frame of the batch.

    Y (MF, T), blocks (F, M, K), supp (s, T), cols (F, s, T).  Returns new
    arrays (gains (T, s), cols (F, s, T), R (MF, T)); a frame stops
    sweeping once its residual norm reaches the floor or stalls, or at the
    sweep cap.

    The sweeps run frame-major: the arrays are converted once on entry and
    once on return, so that frames lie on the leading axis and every sum
    runs over a last, contiguous bin or channel axis.  The support blocks
    and their per-bin energies are gathered once and compacted only when
    frames leave, and a frame's gains, columns and residual are written
    once, when it leaves.  One copy of each working array is live at a
    time: the entry copies of Y and cols double as the outputs, since a
    frame's rows are read only until it leaves.
    """
    F, M, _ = blocks.shape
    s, T = supp.shape
    norms_y = np.linalg.norm(Y, axis=0)
    floor = np.maximum(cfg.tau, 1e-14 * norms_y)
    slack = 1e-15 * norms_y**2
    y = np.array(Y.T, order="C")  # (T, MF)
    cw = np.array(cols.transpose(2, 1, 0), order="C")  # (T, s, F)
    R_out, cols_out, gains = y, cw, np.zeros((T, s))  # as given if no sweep runs
    bg = blocks.transpose(2, 0, 1)[supp.T]  # (T, s, F, M), C-contiguous
    bin_sq = np.empty((T, s, F))
    for j in range(s):
        bin_sq[:, j] = np.einsum("tfm,tfm->tf", bg[:, j].conj(), bg[:, j]).real
    idx = np.arange(T)  # frames still refining
    prev = np.full(T, np.inf)  # their last residual norms; inf never stalls
    for sweep in range(cfg.max_refine_iters):
        if idx.size == 0:
            break
        # (a) batched least squares on the phase-corrected sub-dictionaries
        sub = (cw[:, :, :, None] * bg).reshape(idx.size, s, F * M)
        z = least_squares_frames(sub, y)  # (frames still refining, s)
        R = y - np.einsum("tsa,ts->ta", sub, z)
        del sub
        g = np.abs(z)
        # not in place: an in-place complex multiply can round differently
        cw = cw * unit_phase(z)[:, :, None]

        if cfg.phase_optimization:
            R3 = R.reshape(idx.size, F, M)  # a view: the updates write through it
            energy = np.einsum("tfm,tfm->tf", R3, R3.conj()).real  # per bin, carried
            for j in range(s):
                _update_phase(R3, bg[:, j], cw[:, j], g[:, j, None], bin_sq[:, j], energy, slack)
            del R3

        # summed over the rows in order, as add.reduce does on an (MF, T) array
        norm = np.linalg.norm(np.ascontiguousarray(R.T), axis=0)
        done = norm <= floor
        done |= (prev == 0) | (np.abs(prev - norm) < cfg.epsilon * prev)
        # every frame still refining at the cap leaves with this sweep's code
        leave = done | (sweep + 1 == cfg.max_refine_iters)
        if leave.any():
            out = idx[leave]
            gains[out], cols_out[out], R_out[out] = g[leave], cw[leave], R[leave]
        del R
        if done.any():
            keep = ~done
            idx, prev, floor, slack = idx[keep], norm[keep], floor[keep], slack[keep]
            # one array at a time, so that no old and new copy are live together
            y = y[keep]
            cw = cw[keep]
            bg = bg[keep]
            bin_sq = bin_sq[keep]
        else:
            prev = norm
    else:
        diagnostics.add(refine_cap_hits=idx.size)
    return gains, cols_out.transpose(2, 1, 0), R_out.T


def _update_phase(R3, dk, c, g, dk_sq, energy, slack):
    """One closed-form phase update of a support slot, in place, for every
    frame: R3 (T, F, M) residuals, dk (T, F, M) the slot's atom blocks, c
    (T, F) its phase column, g (T, 1) its gain, dk_sq (T, F) the blocks'
    per-bin energies, energy (T, F) the residuals' per-bin energies.  A
    bin's new phase is kept only if it does not increase the residual."""
    b = np.einsum("tfm,tfm->tf", dk.conj(), R3)
    # exact per-bin minimizer: the ||d_f||^2 weight matters
    # whenever the bin blocks are not unit-norm
    z_f = b + c * g * dk_sq
    phi_new = unit_phase(z_f, c)
    R_new = R3 + ((c - phi_new) * g)[:, :, None] * dk
    e_new = np.einsum("tfm,tfm->tf", R_new, R_new.conj()).real
    accept = (e_new <= energy + slack[:, None]) & (g > 0)
    if accept.all():  # the usual case, and a plain copy is much faster
        R3[...], c[...], energy[...] = R_new, phi_new, e_new
        return
    np.copyto(R3, R_new, where=accept[:, :, None])
    np.copyto(c, phi_new, where=accept)
    np.copyto(energy, e_new, where=accept)


def _select(R3, blocks, taken, cfg):
    """One greedy selection for every frame of the residuals R3 (F, M, T).
    The atoms ``taken``, indices (n, T) or (n, 1), score -1; ties go to the
    lowest index.  Returns the chosen atoms (T,), their scores (T,), which
    are their gains, and their initial phase columns (F, T)."""
    scores, total = _batch_scores(R3, blocks, cfg)
    frames = np.arange(R3.shape[2])
    scores[taken, frames] = -1.0
    k_sel = np.argmax(scores, axis=0)
    return k_sel, scores[k_sel, frames], _selected_columns(R3, blocks, k_sel, total, cfg)


def _selected_columns(R3, blocks, k_sel, total, cfg):
    """Initial (F, T) phase columns of the atoms ``k_sel`` chosen by
    ``_batch_scores`` for the residuals R3 (F, M, T): the phases of the
    chosen atoms' per-bin correlations, formed again from their gathered
    blocks, or in classic mode the phase of the summed correlation in
    ``total`` (K, T), constant per frame."""
    if cfg.phase_optimization:
        chosen = blocks[:, :, k_sel]  # (F, M, T), a copy conjugated in place
        return unit_phase(np.einsum("fmt,fmt->ft", np.conj(chosen, out=chosen), R3))
    phi = unit_phase(total[k_sel, np.arange(k_sel.size)])
    return np.broadcast_to(phi[None, :], (R3.shape[0], k_sel.size)).copy()


def _block_width(bins, num_atoms, workers=1):
    """Frames per column block, W = SCORE_BUDGET_BYTES / (16 F K workers)
    and at least one.  The scoring holds only a SCORE_SLAB-bin slab of a
    block's correlations, so W no longer sizes a score tensor: it sets how
    many frames a block codes in lockstep, and with them the size of each
    block's refinement arrays, about five copies of its (W, s, F, M)
    support blocks."""
    return max(1, SCORE_BUDGET_BYTES // (16 * bins * num_atoms * workers))


def chunk_width(bins, num_atoms):
    """Frames that one ``po_omp_batch`` call codes as exactly one column
    block per available core: n * ``_block_width(bins, num_atoms, n)``.
    Callers that code a long input in pieces use it as the piece size, so
    that every core gets a full block in each call."""
    workers = _worker_count()
    return workers * _block_width(bins, num_atoms, workers)


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
    the working arrays stay those of the blocks in flight.  With n available
    cores the budget is split n ways, and the blocks are coded by the
    calling thread and up to n - 1 helper threads; a single block is coded
    on the calling thread alone.
    """
    cfg = cfg or PursuitConfig()
    Y = _frame_matrix(Y, D)
    batch = CodingBatch.empty(D.num_atoms, cfg.s_max, D.bins, Y.copy())
    blocks = D.blocks()
    workers = _worker_count()
    spans = _column_blocks(Y.shape[1], _block_width(D.bins, D.num_atoms, workers))

    def code(a, b):
        _code_block(
            Y[:, a:b], blocks, cfg, batch.support[:, a:b], batch.lengths[a:b],
            batch.gains[a:b], batch.columns[:, :, a:b], batch.residual[:, a:b],
        )

    _share_out(code, spans, min(workers, len(spans)) - 1)
    return batch


def _frame_matrix(Y, D):
    """Y as a complex128 (M*F, T) frame matrix for the dictionary D; raises
    ValueError on any other shape or on a non-finite entry.  Every pursuit
    entry passes its frames through here, one frame as an (M*F, 1) matrix."""
    Y = np.asarray(Y, dtype=np.complex128)
    mf = D.channels * D.bins
    if Y.ndim != 2 or Y.shape[0] != mf:
        raise ValueError("frame matrix of shape %s does not match (M*F, T) with M*F = %d"
                         % (Y.shape, mf))
    if not np.isfinite(Y).all():
        raise ValueError("frame matrix has non-finite entries")
    return Y


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


def _code_block(Y, blocks, cfg, supp, supp_len, gains, cols, R):
    """Greedy PO-OMP on the frames Y (MF, T) against the dictionary's
    (F, M, K) blocks, writing into views of one CodingBatch's arrays; R
    holds Y on entry."""
    F, M, _ = blocks.shape
    T = Y.shape[1]
    norms = np.linalg.norm(R, axis=0)
    greedy = np.ones(T, dtype=bool)

    for i in range(cfg.s_max):
        active = greedy & (norms > cfg.tau)
        if not active.any():
            break
        k_sel, g_sel, cols_sel = _select(R.reshape(F, M, T), blocks, supp[:i], cfg)
        grow = active & (g_sel > 0)
        greedy &= grow  # zero best score ends that frame's pursuit
        if not grow.any():
            break

        supp[i] = k_sel
        cols[:, i] = cols_sel
        del cols_sel  # not live through the refinement, whose peak it would raise
        supp_len[grow] = i + 1

        # views, not copies, when every frame grows: the kernel copies its inputs
        sel = slice(None) if grow.all() else grow
        gains[sel, : i + 1], cols[:, : i + 1, sel], R[:, sel] = _batch_refine(
            Y[:, sel], blocks, supp[: i + 1, sel], cols[:, : i + 1, sel], cfg
        )
        norms = np.linalg.norm(R, axis=0)


def po_omp(y, D, cfg=None):
    """Phase-optimized orthogonal matching pursuit for one frame.

    Greedy loop: select the best remaining atom on the current residual,
    append it, refine all gains and phases; stop at s_max atoms, when
    ||r||_2 <= tau, or when the residual is orthogonal to every atom.
    """
    return po_omp_batch(np.asarray(y)[..., None], D, cfg)[0]
