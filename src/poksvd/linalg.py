"""Dense complex linear-algebra kernels used by the pursuit and learning loops.

Four primitives are needed: a batched least-squares solve, the
unit-modulus phase z/|z|, the dominant singular triple of a complex
matrix, and ``bin_sums``, the slab-wise sum over the bins of per-bin
correlations, which both the atom scoring and the atom overlap reduce.
``least_squares_frames`` solves the normal equations of many small
systems in one LAPACK call, frame-major: frames on the leading axis and the
rows of each system last and contiguous, the layout of the pursuit's
refinement kernel.  A singular system gets a small ridge and is counted in
``diagnostics.ridge_fallbacks`` (``refine_cap_hits`` counts frames whose
gain/phase refinement reached its sweep cap).  All are
deterministic: the power iteration always starts from the same vector,
all-ones or, when that is in the matrix's null space, its largest column's.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

# Relative ridge weight applied when the normal equations are numerically
# singular (near-collinear atoms on degenerate inputs).
RIDGE_SCALE = 1e-10

# Bins per slab of bin_sums: the per-bin correlations are formed and reduced
# one slab at a time, never all F bins at once.
SCORE_SLAB = 32


@dataclass
class Diagnostics:
    """Counters for numerically degenerate events; never raised as errors."""

    ridge_fallbacks: int = 0
    refine_cap_hits: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False, compare=False)

    def add(self, **counts):
        """Add to the named counters as one step, so that pursuit calls on
        concurrent threads lose no count."""
        with self._lock:
            for name, n in counts.items():
                setattr(self, name, getattr(self, name) + n)

    def reset(self):
        with self._lock:
            self.ridge_fallbacks = 0
            self.refine_cap_hits = 0


diagnostics = Diagnostics()


@dataclass
class SingularTriple:
    """Dominant singular value sigma with unit-norm left/right vectors."""

    sigma: float
    left: np.ndarray
    right: np.ndarray


class PowerIterationError(RuntimeError):
    """Raised when the power iteration fails to converge; carries the triple
    of the last iterate so callers can inspect or reuse it."""

    def __init__(self, message, last_triple):
        super().__init__(message)
        self.last_triple = last_triple


def least_squares_frames(A, y):
    """Minimize ||y[t] - sum_i x_ti A[t, i]||_2 over complex x_t, for every t.

    Frame-major: A is (T, cols, rows), row i of A[t] being column i of
    system t, and y is (T, rows), so the sums run over the last axis.  The normal equations of all T systems go to one batched
    ``np.linalg.solve``.  Only if that call raises are they solved one at a
    time, and each singular one gets a small ridge proportional to
    trace(A^H A)/cols and counts once in ``diagnostics.ridge_fallbacks``;
    so every regular system's solution does not depend on the others.
    Returns x (T, cols).
    """
    G, b = _normal_equations(A, y)
    try:
        return np.linalg.solve(G, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        pass
    x = np.empty_like(b)
    for t in range(b.shape[0]):
        try:
            x[t] = np.linalg.solve(G[t], b[t])
        except np.linalg.LinAlgError:
            ridge = RIDGE_SCALE * max(np.trace(G[t]).real, 1.0) / G.shape[1]
            diagnostics.add(ridge_fallbacks=1)
            x[t] = np.linalg.solve(G[t] + ridge * np.eye(G.shape[1]), b[t])
    return x


def _normal_equations(A, y):
    """G = A^H A (T, cols, cols) and b = A^H y (T, cols) of frame-major
    systems, formed one support slot at a time so that the conjugate copy
    is one slot's.  einsum adds the rows in order, so G and b have the bits
    of the one-call products ``einsum("tia,tja->tij", A.conj(), A)`` and
    ``einsum("tia,ta->ti", A.conj(), y)``."""
    T, s, _ = A.shape
    G = np.empty((T, s, s), dtype=np.complex128)
    b = np.empty((T, s), dtype=np.complex128)
    for i in range(s):
        Ah = A[:, i].conj()
        G[:, i, i:] = np.einsum("ta,tja->tj", Ah, A[:, i:])
        b[:, i] = np.einsum("ta,ta->t", Ah, y)
    # the lower triangle mirrors the upper; 0.0 - imag gives the +0 imaginary
    # parts that the one-call sums give where a plain conjugate gives -0
    for i in range(1, s):
        upper = G[:, :i, i]
        G[:, i, :i].real = upper.real
        np.subtract(0.0, upper.imag, out=G[:, i, :i].imag)
    return G, b


def bin_sums(left, right, term):
    """sum_f term(b_f), (K, T), of the per-bin correlations
    b_fkt = left_fk^H right_ft of left (F, M, K) and right (F, M, T).

    ``term`` maps a (n, K, T) slab of correlations to a new array of its
    terms (or returns the slab itself), which is then added to in place.
    The correlations are formed SCORE_SLAB bins at a time and turned into
    terms there.  Each slab's first row takes the running sum of the slabs
    before it, and one in-order reduction adds up the slab, so the bins are
    added in order for every shape, an (F, 1, 1) one included, and at most
    one (SCORE_SLAB, K, T) slab of correlations and terms is held.
    """
    for a in range(0, left.shape[0], SCORE_SLAB):
        b = np.einsum("fmk,fmt->fkt", left[a : a + SCORE_SLAB].conj(), right[a : a + SCORE_SLAB])
        terms = term(b)
        del b
        if a:
            terms[0] += total
        total = np.add.accumulate(terms, axis=0)[-1].copy()
    return total


def unit_phase(z, fallback=1.0):
    """Elementwise z/|z|: the unit-modulus phase of z, ``fallback`` where z is 0."""
    absz = np.abs(z)
    pos = absz > 0  # False at NaN too, which takes the fallback
    if pos.all():
        return z / absz
    return np.where(pos, z / np.where(pos, absz, 1.0), fallback)


def dominant_singular_triple(A, tol=1e-12, max_iter=5000):
    """Largest singular value of A with its singular vectors.

    Power iteration on A^H A from a fixed all-ones start vector (the unit
    vector of A's largest column when all-ones is in A's null space), so
    repeated calls on the same matrix are bitwise identical.  Both exits
    build the triple from u = A v: sigma = ||u|| and left = u / sigma.

    Raises
    ------
    ValueError
        If A is the zero matrix or has a non-finite entry.
    PowerIterationError
        If the iteration has not converged after ``max_iter`` sweeps; the
        exception carries the triple of the last iterate.
    """
    A = np.asarray(A, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError("expected a matrix, got ndim=%d" % A.ndim)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not np.isfinite(A).all():
        raise ValueError("matrix has non-finite entries")
    if np.linalg.norm(A) == 0.0:
        raise ValueError("zero matrix")

    G = A.conj().T @ A
    n = G.shape[0]
    v = np.ones(n, dtype=np.complex128) / np.sqrt(n)
    w = G @ v
    if np.linalg.norm(w) == 0.0:
        # the start vector is in the null space; restart on A's largest
        # column, which is not, and every later iterate lies in G's range
        v = np.zeros(n, dtype=np.complex128)
        v[np.argmax(np.linalg.norm(A, axis=0))] = 1.0
        w = G @ v
    converged = False
    for _ in range(max_iter):
        v = w / np.linalg.norm(w)
        w = G @ v
        sigma2 = np.real(np.vdot(v, w))
        # residual of the eigen-equation decides convergence
        converged = np.linalg.norm(w - sigma2 * v) <= tol * max(sigma2, np.finfo(float).tiny)
        if converged:
            break
    u = A @ v
    sigma = float(np.linalg.norm(u))
    triple = SingularTriple(sigma=sigma, left=u / sigma if sigma > 0 else u, right=v)
    if not converged:
        raise PowerIterationError(
            "power iteration did not converge in %d iterations" % max_iter, triple
        )
    return triple
