import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poksvd.linalg import (
    Diagnostics,
    PowerIterationError,
    _normal_equations,
    diagnostics,
    dominant_singular_triple,
    least_squares_frames,
    unit_phase,
)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDiagnostics:
    def test_concurrent_adds_lose_no_count(self):
        # more threads than cores, switching as often as the interpreter allows
        counts, threads, adds = Diagnostics(), 8, 20000

        def add_many():
            for _ in range(adds):
                counts.add(refine_cap_hits=1, ridge_fallbacks=2)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=add_many) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        assert (counts.refine_cap_hits, counts.ridge_fallbacks) == (threads * adds, 2 * threads * adds)


class TestLeastSquaresSolve:
    # least_squares_frames is frame-major: A[t] holds system t's columns as
    # rows, so system t is A[t].T x = y[t]
    def test_matches_lstsq_on_random_systems(self):
        rng = np.random.default_rng(0)
        A = random_complex(rng, 20, 4, 12)
        y = random_complex(rng, 20, 12)
        x = least_squares_frames(A, y)
        for t in range(20):
            x_ref, *_ = np.linalg.lstsq(A[t].T, y[t], rcond=None)
            assert np.allclose(x[t], x_ref, atol=1e-10)

    def test_exact_on_square_system(self):
        rng = np.random.default_rng(1)
        A = random_complex(rng, 1, 5, 5)
        x_true = random_complex(rng, 5)
        x = least_squares_frames(A, (A[0].T @ x_true)[None])
        assert np.allclose(x[0], x_true, atol=1e-9)

    def test_residual_orthogonal_to_columns(self):
        rng = np.random.default_rng(2)
        A = random_complex(rng, 1, 3, 10)
        y = random_complex(rng, 1, 10)
        r = y[0] - A[0].T @ least_squares_frames(A, y)[0]
        assert np.allclose(A[0].conj() @ r, 0, atol=1e-10)

    def test_singular_system_falls_back_to_ridge(self):
        rng = np.random.default_rng(3)
        col = random_complex(rng, 8)
        A = np.stack([col, np.zeros(8, dtype=complex)])[None]  # singular Gram
        y = random_complex(rng, 1, 8)
        diagnostics.reset()
        x = least_squares_frames(A, y)[0]
        assert np.all(np.isfinite(x))
        assert diagnostics.ridge_fallbacks == 1
        # the ridge solution still (nearly) minimizes the residual
        r = np.linalg.norm(y[0] - A[0].T @ x)
        r_ref = np.linalg.norm(y[0] - A[0].T @ np.linalg.lstsq(A[0].T, y[0], rcond=None)[0])
        assert r <= r_ref + 1e-6

    def test_batch_matches_one_system_solves(self):
        rng = np.random.default_rng(8)
        A = random_complex(rng, 5, 3, 6)
        y = random_complex(rng, 5, 6)
        x = least_squares_frames(A, y)
        assert x.shape == (5, 3)
        for t in range(5):
            assert x[t].tobytes() == least_squares_frames(A[t : t + 1], y[t : t + 1])[0].tobytes()

    def test_singular_system_in_batch_leaves_the_others_alone(self):
        rng = np.random.default_rng(9)
        A = random_complex(rng, 4, 2, 6)
        A[2, 1] = 0  # system 2 alone has a singular Gram
        y = random_complex(rng, 4, 6)
        diagnostics.reset()
        x = least_squares_frames(A, y)
        assert diagnostics.ridge_fallbacks == 1
        assert np.all(np.isfinite(x))
        for t in (0, 1, 3):
            assert x[t].tobytes() == least_squares_frames(A[t : t + 1], y[t : t + 1])[0].tobytes()
        assert diagnostics.ridge_fallbacks == 1


def adversarial_complex(rng, shape, zeros=0.2):
    """Complex entries of random scale in 1e-150..1e150 with ``zeros`` of the
    parts exactly 0, half of those -0."""
    parts = rng.standard_normal((2,) + shape) * 10.0 ** rng.uniform(-150, 150)
    zero = rng.uniform(size=parts.shape) < zeros
    parts[zero] = np.where(rng.uniform(size=parts.shape) < 0.5, 0.0, -0.0)[zero]
    return parts[0] + 1j * parts[1]


class TestNormalEquations:
    # s 1-4 support slots, 1-12 rows, 1-6 frames; signed zeros, systems
    # with every imaginary part a zero, scales 1e-150..1e150
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 4), st.integers(1, 12), st.integers(1, 6), st.booleans(),
           st.integers(0, 2**32 - 1))
    def test_slot_at_a_time_has_the_bits_of_one_call(self, s, rows, T, real, seed):
        rng = np.random.default_rng(seed)
        A = adversarial_complex(rng, (T, s, rows))
        y = adversarial_complex(rng, (T, rows))
        if real:
            A = A.real + 1j * np.where(rng.uniform(size=A.shape) < 0.5, 0.0, -0.0)
        G, b = _normal_equations(A, y)
        Ah = A.conj()
        assert G.tobytes() == np.einsum("tia,tja->tij", Ah, A).tobytes()
        assert b.tobytes() == np.einsum("tia,ta->ti", Ah, y).tobytes()


class TestUnitPhase:
    def test_unit_modulus_and_fallback_at_zero(self):
        z = np.array([2j, 0, -2.0, 0])
        assert np.array_equal(unit_phase(z), [1j, 1, -1, 1])
        assert np.array_equal(unit_phase(z, 0.0), [1j, 0, -1, 0])
        assert np.array_equal(unit_phase(z, np.array([5, 6, 7, 8j])), [1j, 6, -1, 8j])

    @pytest.mark.parametrize("special", [0.0, -0.0, complex(-0.0, -0.0), np.nan, complex(0, np.nan),
                                         np.inf, complex(-np.inf, 1), complex(np.inf, np.inf)])
    @pytest.mark.parametrize("fallback", [1.0, 0.0, "array"])
    def test_special_values_take_the_masked_formula(self, special, fallback):
        rng = np.random.default_rng(4)
        z = random_complex(rng, 6)
        if fallback == "array":
            fallback = random_complex(rng, 6)
        for where in (None, 2):  # every entry, or one among nonzero ones
            w = z.copy()
            w[slice(None) if where is None else where] = special
            absw = np.abs(w)
            with np.errstate(invalid="ignore"):  # inf / inf
                expected = np.where(absw > 0, w / np.where(absw > 0, absw, 1.0), fallback)
                assert unit_phase(w, fallback).tobytes() == expected.tobytes()

    def test_nonzero_input_takes_the_plain_quotient(self):
        rng = np.random.default_rng(5)
        z = adversarial_complex(rng, (40, 9), zeros=0.3)
        z[z == 0] = 1e-300
        absz = np.abs(z)
        assert unit_phase(z, 0.0).tobytes() == np.where(absz > 0, z / absz, 0.0).tobytes()


class TestDominantSingularTriple:
    def test_matches_numpy_svd(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            A = random_complex(rng, 9, 6)
            t = dominant_singular_triple(A)
            U, S, Vh = np.linalg.svd(A)
            assert t.sigma == pytest.approx(S[0], abs=1e-9)
            # vectors match up to a unit phase
            assert abs(np.vdot(U[:, 0], t.left)) == pytest.approx(1.0, abs=1e-8)
            assert abs(np.vdot(Vh[0].conj(), t.right)) == pytest.approx(1.0, abs=1e-8)

    def test_rank_one_is_recovered_exactly(self):
        rng = np.random.default_rng(5)
        u = random_complex(rng, 7)
        v = random_complex(rng, 3)
        A = np.outer(u, v)
        t = dominant_singular_triple(A)
        assert t.sigma == pytest.approx(np.linalg.norm(u) * np.linalg.norm(v), rel=1e-12)
        assert np.allclose(A, t.sigma * np.outer(t.left, t.right.conj()), atol=1e-9)

    def test_vectors_are_unit_norm_and_consistent(self):
        rng = np.random.default_rng(6)
        A = random_complex(rng, 8, 8)
        t = dominant_singular_triple(A)
        assert np.linalg.norm(t.left) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(t.right) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(A @ t.right, t.sigma * t.left, atol=1e-8)

    def test_deterministic_repeat_calls(self):
        rng = np.random.default_rng(7)
        A = random_complex(rng, 6, 5)
        t1 = dominant_singular_triple(A)
        t2 = dominant_singular_triple(A)
        assert t1.sigma == t2.sigma
        assert np.array_equal(t1.left, t2.left)
        assert np.array_equal(t1.right, t2.right)

    def test_null_space_start_restarts_on_the_largest_column(self):
        # all-ones and e_1 are both in the null space
        t = dominant_singular_triple(np.array([[0, 1, -1]], dtype=complex))
        assert t.sigma == pytest.approx(np.sqrt(2), rel=1e-15)
        assert np.allclose(t.right, np.array([0, 1, -1]) / np.sqrt(2))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(3, 6), st.integers(0, 2**32 - 1))
    def test_null_space_start_on_generated_matrices(self, m, n, seed):
        # a zero first column and columns summing to zero: A @ ones = 0 and A e_1 = 0
        A = random_complex(np.random.default_rng(seed), m, n)
        A[:, 0] = 0
        A[:, -1] = -A[:, 1:-1].sum(axis=1)
        t = dominant_singular_triple(A)
        assert t.sigma == pytest.approx(np.linalg.svd(A, compute_uv=False)[0], rel=1e-9)
        assert np.allclose(A @ t.right, t.sigma * t.left, atol=1e-9 * t.sigma)

    def test_zero_matrix_raises(self):
        with pytest.raises(ValueError, match="zero matrix"):
            dominant_singular_triple(np.zeros((4, 3), dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
    def test_non_finite_matrix_raises(self, bad):
        # rejected before the first sweep, not reported as a non-convergence
        A = random_complex(np.random.default_rng(4), 4, 3)
        A[2, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            dominant_singular_triple(A)

    def test_non_convergence_carries_last_triple(self):
        # two equal singular values never separate; force a tiny budget
        A = np.eye(3, dtype=complex)
        A[0, 0] = 1.0
        A[1, 1] = 1.0
        A[2, 2] = 0.5
        try:
            t = dominant_singular_triple(A, tol=1e-300, max_iter=2)
        except PowerIterationError as err:
            t = err.last_triple
        assert t.sigma > 0
        assert t.left.shape == (3,)
