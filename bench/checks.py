"""Output checks.  Each checker returns a list of problems, empty when the
output is acceptable; none of them trusts a value computed by the package
under test.  ``selfcheck.py`` shows that every one of them can fail."""

from __future__ import annotations

import numpy as np

from synth import WINDOW

F32_EPS = 2.0**-24
GAUGE_TOL = 1e-12
NORM_TOL = 1e-9
OBJECTIVE_SLACK = 1e-12  # the CLI prints objectives to 13 significant digits


def sdr_db(reference, estimate):
    """10 log10 ||s||^2 / ||s - s_hat||^2 over all entries."""
    reference, estimate = np.asarray(reference), np.asarray(estimate)
    err = np.sum(np.abs(reference - estimate) ** 2)
    return float(10.0 * np.log10(np.sum(np.abs(reference) ** 2) / err))


def interior(x):
    return x[WINDOW : x.shape[0] - WINDOW]


def check_denoise_outputs(mixture, output, noise_est):
    """Shapes match the mixture, every sample is finite, and output plus
    noise estimate gives back the mixture within float32 rounding."""
    problems = []
    for name, x in (("output", output), ("noise estimate", noise_est)):
        if x.shape != mixture.shape:
            problems.append("%s shape %s != mixture %s" % (name, x.shape, mixture.shape))
        elif not np.all(np.isfinite(x)):
            problems.append("%s has %d non-finite samples" % (name, int(np.sum(~np.isfinite(x)))))
    if problems:
        return problems
    err = np.max(np.abs(interior(output + noise_est - mixture)))
    tol = 8 * F32_EPS * (np.max(np.abs(output)) + np.max(np.abs(noise_est)))
    if not err <= tol:
        problems.append("output + noise estimate misses the mixture by %.3g (> %.3g)" % (err, tol))
    return problems


def check_dictionary(atoms, header, expected):
    """Header and gauge of a learned dictionary: the expected (M, F, K) and
    STFT provenance, unit-norm atoms, real nonnegative first channel per bin."""
    problems = ["header %s=%s, expected %s" % (k, header[k], v)
                for k, v in expected.items() if header[k] != v]
    if problems:
        return problems
    if not np.all(np.isfinite(atoms)):
        return ["dictionary has non-finite entries"]
    norms = np.linalg.norm(atoms, axis=0)
    if np.max(np.abs(norms - 1.0)) > NORM_TOL:
        problems.append("atom norms off unity by up to %.3g" % np.max(np.abs(norms - 1.0)))
    first = atoms.reshape(header["bins"], header["channels"], -1)[:, 0, :]
    if np.max(np.abs(first.imag)) > GAUGE_TOL or np.min(first.real) < -GAUGE_TOL:
        problems.append("first channel not real and >= 0 (max |imag| %.3g, min real %.3g)"
                        % (np.max(np.abs(first.imag)), np.min(first.real)))
    return problems


def check_objective(trace):
    """A training trace, led by the all-zero-code objective ||Y||^2, never
    increases."""
    trace = [float(v) for v in trace]
    if len(trace) < 2 or not all(np.isfinite(trace)):
        return ["objective trace %r is short or non-finite" % (trace,)]
    return ["objective rises from %.12e to %.12e at step %d" % (a, b, i + 1)
            for i, (a, b) in enumerate(zip(trace, trace[1:])) if b > a * (1 + OBJECTIVE_SLACK)]


def check_split(mixture, target, noise_est, rtol=1e-12):
    """Target plus noise estimate equals the mixture to round-off."""
    err = np.linalg.norm(target + noise_est - mixture)
    if not err <= rtol * np.linalg.norm(mixture):
        return ["target + noise estimate misses the mixture by %.3g" % err]
    return []


def check_identical(digests, what):
    """All repeats produced byte-identical output."""
    if len(set(digests)) != 1:
        return ["%s differ across repeats: %s" % (what, sorted(set(digests)))]
    return []


def check_positive(value, what):
    if not value > 0:
        return ["%s = %r is not > 0" % (what, value)]
    return []


def check_count(value, expected, what):
    if value != expected:
        return ["%s = %r, expected %r" % (what, value, expected)]
    return []
