"""Shows that every output check can fail: each checker must accept a valid
output and reject the same output corrupted in one way.

    python3 bench/selfcheck.py

Exits 1 and names the case if a checker accepts a corrupted output or
rejects a valid one.
"""

import sys

import numpy as np

import checks
import synth


def valid_denoise(rng):
    n = synth.clip_samples(0.5)
    noise, _ = synth.ego_noise(rng, n)
    mixture = np.float32(noise + synth.babble_target(rng, n)).astype(np.float64)
    est = np.float32(noise).astype(np.float64)
    out = np.float32(mixture - est).astype(np.float64)
    return mixture, out, est


def cases():
    rng = np.random.default_rng(0)
    mixture, out, est = valid_denoise(rng)

    def denoise(o=out, e=est):
        return checks.check_denoise_outputs(mixture, o, e)

    scaled = out.copy()
    scaled[:, 1] *= 1.01
    nan = out.copy()
    nan[mixture.shape[0] // 2, 0] = np.nan
    yield "denoise outputs", denoise(), [
        ("one channel scaled", denoise(o=scaled)),
        ("noise estimate shifted by one sample", denoise(e=np.roll(est, 1, axis=0))),
        ("noise estimate one sample short", denoise(e=est[:-1])),
        ("non-finite output sample", denoise(o=nan)),
    ]

    atoms = synth.noise_dictionary(rng, 6)
    header = dict(channels=synth.CHANNELS, bins=synth.BINS, atoms=6,
                  sample_rate=synth.RATE, window_len=synth.WINDOW, hop=synth.HOP)

    def dictionary(a=atoms, **changes):
        return checks.check_dictionary(a, dict(header, **changes), header)

    rotated = atoms.copy()
    rotated[2 * 10 : 2 * 10 + 2, 3] *= np.exp(0.3j)  # bin 10 of atom 3 off its gauge
    negative = atoms.copy()
    negative[2 * 10 : 2 * 10 + 2, 3] *= -1.0
    stretched = atoms.copy()
    stretched[:, 0] *= 1.001
    nan_atom = atoms.copy()
    nan_atom[5, 2] = np.nan
    yield "learned dictionary", dictionary(), [
        ("atom off its gauge (complex first channel)", dictionary(rotated)),
        ("atom off its gauge (negative first channel)", dictionary(negative)),
        ("atom not unit-norm", dictionary(stretched)),
        ("non-finite atom entry", dictionary(nan_atom)),
        ("wrong atom count", dictionary(atoms=7)),
        ("wrong STFT provenance", dictionary(hop=256)),
    ]

    trace = [100.0, 50.0, 40.0, 40.0]
    yield "objective trace", checks.check_objective(trace), [
        ("one increase", checks.check_objective([100.0, 50.0, 50.5, 40.0])),
        ("non-finite objective", checks.check_objective([100.0, np.nan])),
        ("no objective printed", checks.check_objective([100.0])),
    ]

    Y = rng.standard_normal((32, 20)) + 1j * rng.standard_normal((32, 20))
    N = rng.standard_normal((32, 20)) + 1j * rng.standard_normal((32, 20))
    off = Y - N
    off[3, 4] += 1e-6
    nan = Y - N
    nan[0, 0] = np.nan
    yield "target + noise split", checks.check_split(Y, Y - N, N), [
        ("target off by 1e-6 in one entry", checks.check_split(Y, off, N)),
        ("non-finite target", checks.check_split(Y, nan, N)),
    ]

    yield "repeats identical", checks.check_identical(["a", "a", "a"], "x"), [
        ("one repeat differs", checks.check_identical(["a", "b", "a"], "x")),
    ]
    yield "positive gain", checks.check_positive(0.5, "x"), [
        ("zero gain", checks.check_positive(0.0, "x")),
        ("NaN gain", checks.check_positive(float("nan"), "x")),
    ]
    yield "frame count", checks.check_count(311, 311, "x"), [
        ("frame count off by one", checks.check_count(310, 311, "x")),
    ]


def main():
    bad = 0
    for checker, valid_problems, corrupted in cases():
        if valid_problems:
            print("FAIL %s: rejects a valid output: %s" % (checker, valid_problems))
            bad += 1
        for label, problems in corrupted:
            status = "ok  " if problems else "FAIL"
            bad += not problems
            print("%s %s rejects %s%s" % (status, checker, label, ": " + problems[0] if problems else ""))
    print("%d checker case(s) failed" % bad if bad else "all checkers reject every corruption")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
