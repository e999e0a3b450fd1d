"""Benchmark of poksvd's denoise and train commands and of the margin of the
phase-optimized model over the phase-blind one.

    python3 bench/run.py --workload denoise_audio --seed 1 --seconds 10 --trace 0

Run from the repository root.  Set-up generates the workload's inputs from
the seed with this directory's own code; a worker process then makes one
untimed warm-up call and times at least three repeats of the operation.
The outputs are checked against independent computations, and the last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones.  See README.md in this directory.
"""

import os
import sys
import time

_MODULE_START = time.perf_counter()

# One BLAS/OpenMP thread, fixed before numpy loads: on a 2-core host the
# threaded pools made audio-scale training both slower and noisier.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import synth  # noqa: E402
from tracing import PER_LAYER  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "work")

WORKLOADS = ("denoise_audio", "train_audio", "margin_synth")
MIN_REPEATS = 3
NOISE_MODEL_SEED = 20141009
WORKER_TIMEOUT_S = 170

DENOISE_SECONDS, TRAIN_SECONDS, WARMUP_SECONDS = 10.0, 3.0, 1.0
DENOISE_ATOMS, TRAIN_ATOMS, S_MAX, TRAIN_ITERS = 40, 40, 3, 1
MARGIN_SEEDS, MARGIN_CHANNELS, MARGIN_BINS, MARGIN_ATOMS = 2, 2, 16, 5
MARGIN_SMAX, MARGIN_TRAIN, MARGIN_TEST = 2, 200, 100

LEARNED_HEADER = dict(channels=synth.CHANNELS, bins=synth.BINS, atoms=TRAIN_ATOMS,
                      sample_rate=synth.RATE, window_len=synth.WINDOW, hop=synth.HOP)


def process_age():
    """Seconds since this process started, interpreter start-up included."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _MODULE_START


def rngs(seed, workload, count):
    """Independent generators for the parts of one workload's inputs."""
    children = np.random.SeedSequence([seed, WORKLOADS.index(workload)]).spawn(count)
    return [np.random.default_rng(c) for c in children]


def as_f32(x):
    """The samples as a float32 WAV will hold them."""
    return np.asarray(x, dtype=np.float32).astype(np.float64)


# -- set-up: inputs, the worker's spec, and what the checks need ------------

def setup_denoise(seed, work):
    rng_noise, rng_target = rngs(seed, "denoise_audio", 2)
    # The dictionary stands for the device's noise model, built once; each
    # seed is a new recording.  Drawing it per seed moved the pursuit's work
    # by about 8% from seed to seed, which would hide a real change.
    atoms = synth.noise_dictionary(np.random.default_rng(NOISE_MODEL_SEED), DENOISE_ATOMS)
    n = synth.clip_samples(DENOISE_SECONDS)
    noise, _ = synth.ego_noise(rng_noise, n)
    target = synth.babble_target(rng_target, n)
    target *= np.sqrt(np.sum(noise**2) / np.sum(target**2))  # 0 dB input SNR
    mixture = as_f32(noise + target)

    p = {k: os.path.join(work, k) for k in ("mix.wav", "warm.wav", "noise.dict", "out.wav",
                                             "est.wav", "warm_out.wav", "warm_est.wav")}
    synth.write_dictionary(p["noise.dict"], atoms, synth.CHANNELS)
    synth.write_wav(p["mix.wav"], mixture)
    synth.write_wav(p["warm.wav"], mixture[: synth.clip_samples(WARMUP_SECONDS)])

    def argv(mix, out, est):
        return ["denoise", "--input", mix, "--output", out, "--dict", p["noise.dict"],
                "--emit-noise", est, "--smax", str(S_MAX)]

    spec = dict(argv=argv(p["mix.wav"], p["out.wav"], p["est.wav"]),
                warmup_argv=argv(p["warm.wav"], p["warm_out.wav"], p["warm_est.wav"]),
                digest_paths=[p["out.wav"], p["est.wav"]])
    return spec, dict(paths=p, mixture=mixture, target=target)


def setup_train(seed, work):
    (rng,) = rngs(seed, "train_audio", 1)
    noise = as_f32(synth.ego_noise(rng, synth.clip_samples(TRAIN_SECONDS))[0])
    p = {k: os.path.join(work, k) for k in ("noise.wav", "warm.wav", "learned.dict", "warm.dict")}
    synth.write_wav(p["noise.wav"], noise)
    synth.write_wav(p["warm.wav"], noise[: synth.clip_samples(WARMUP_SECONDS)])

    def argv(inp, out, atoms):
        return ["train", "--input", inp, "--output", out, "-K", str(atoms), "--smax", str(S_MAX),
                "--iters", str(TRAIN_ITERS)]

    spec = dict(argv=argv(p["noise.wav"], p["learned.dict"], TRAIN_ATOMS),
                warmup_argv=argv(p["warm.wav"], p["warm.dict"], 8),
                digest_paths=[p["learned.dict"]])
    return spec, dict(paths=p, noise=noise)


def setup_margin(seed, work):
    arrays = dict(channels=MARGIN_CHANNELS, seeds=MARGIN_SEEDS, atoms=MARGIN_ATOMS, s_max=MARGIN_SMAX)
    truth = []
    for i, rng in enumerate(rngs(seed, "margin_synth", MARGIN_SEEDS)):
        D = synth.planted_atoms(rng, MARGIN_CHANNELS, MARGIN_BINS, MARGIN_ATOMS)
        train = synth.planted_frames(rng, D, MARGIN_CHANNELS, MARGIN_TRAIN, MARGIN_SMAX)
        noise = synth.planted_frames(rng, D, MARGIN_CHANNELS, MARGIN_TEST, MARGIN_SMAX)
        target = synth.planted_target(rng, noise.shape[0], MARGIN_TEST, noise)
        arrays["train_%d" % i], arrays["mix_%d" % i] = train, target + noise
        truth.append(dict(train=train, target=target, mix=target + noise))
    inputs, outputs = os.path.join(work, "inputs.npz"), os.path.join(work, "outputs.npz")
    np.savez(inputs, **arrays)
    return dict(inputs=inputs, outputs=outputs), dict(truth=truth, outputs=outputs)


# -- checks and end-to-end metrics -----------------------------------------

def finish_denoise(ctx, res):
    mixture, target = ctx["mixture"], ctx["target"]
    out, _ = synth.read_wav(ctx["paths"]["out.wav"])
    est, _ = synth.read_wav(ctx["paths"]["est.wav"])
    problems = checks.check_denoise_outputs(mixture, out, est)
    problems += checks.check_identical(res["digests"], "output and noise-estimate WAVs")
    if problems:
        return problems, {}
    gain = (checks.sdr_db(checks.interior(target), checks.interior(out))
            - checks.sdr_db(checks.interior(target), checks.interior(mixture)))
    problems += checks.check_positive(gain, "sdr_gain_db")
    if res["layers"] is not None:
        frames = synth.frame_count(mixture.shape[0])
        problems += checks.check_count(res["layers"]["pursuit.frames"], frames, "pursuit.frames")
        problems += checks.check_count(res["layers"]["stft.frames"], frames, "stft.frames")
    return problems, {"sdr_gain_db": gain}


OBJECTIVE_LINE = re.compile(r"^iteration=\d+ objective=(\S+) atoms_replaced=\d+$", re.M)


def finish_train(ctx, res):
    atoms, header = synth.read_dictionary(ctx["paths"]["learned.dict"])
    problems = checks.check_dictionary(atoms, header, LEARNED_HEADER)
    energy = float(np.sum(np.abs(synth.stft_frames(ctx["noise"])) ** 2))
    objectives = [float(v) for v in OBJECTIVE_LINE.findall(res["stderr"])]
    problems += checks.check_objective([energy] + objectives)
    problems += checks.check_identical(res["digests"], "dictionary files")
    if res["layers"] is not None:
        frames = synth.frame_count(ctx["noise"].shape[0])
        problems += checks.check_count(res["layers"]["pursuit.frames"],
                                       res["layers"]["pursuit.calls"] * frames, "pursuit.frames")
    if not objectives:
        return problems, {}
    return problems, {"fit_db": float(10.0 * np.log10(energy / objectives[-1]))}


def finish_margin(ctx, res):
    problems = checks.check_identical(res["digests"], "margin outputs")
    margins = []
    with np.load(ctx["outputs"]) as z:
        for i, truth in enumerate(ctx["truth"]):
            sdr = {}
            for label in ("po", "pb"):
                trace = [float(np.sum(np.abs(truth["train"]) ** 2))] + list(z["%s_trace_%d" % (label, i)])
                problems += checks.check_objective(trace)
                target, noise = z["%s_target_%d" % (label, i)], z["%s_noise_%d" % (label, i)]
                problems += checks.check_split(truth["mix"], target, noise)
                sdr[label] = checks.sdr_db(truth["target"], target)
            margins.append(sdr["po"] - sdr["pb"])
    margin = float(np.mean(margins))
    problems += checks.check_positive(margin, "margin_db")
    return problems, {"margin_db": margin}


SETUP = {"denoise_audio": setup_denoise, "train_audio": setup_train, "margin_synth": setup_margin}
FINISH = {"denoise_audio": finish_denoise, "train_audio": finish_train, "margin_synth": finish_margin}


def run_worker(spec, work):
    spec_path = os.path.join(work, "spec.json")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spec["spawned_at"] = time.time()
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path], env=env,
                   stdout=sys.stderr, check=True, timeout=WORKER_TIMEOUT_S)
    with open(spec["result_path"]) as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    startup_s = process_age()

    if not os.path.isfile(os.path.join(ROOT, "src", "poksvd", "cli.py")):
        print("error: %s holds no poksvd sources (src/poksvd)" % ROOT, file=sys.stderr)
        return 2
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    work = os.path.join(WORK, "%s-seed%d-pid%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(work)
    try:
        spec, ctx = SETUP[args.workload](args.seed, work)
        spec.update(workload=args.workload, seconds=args.seconds, min_repeats=MIN_REPEATS,
                    trace=bool(args.trace), result_path=os.path.join(work, "result.json"),
                    trace_path=os.path.join(WORK, "traces", "%s-seed%d.json" % (args.workload, args.seed)))
        setup_s = process_age()
        try:
            res = run_worker(spec, work)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as err:
            print("error: worker failed: %s" % err, file=sys.stderr)
            return 1
        problems, quality = FINISH[args.workload](ctx, res)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Every workload reports every end-to-end metric, so its one quality
    # figure goes out as quality_db: sdr_gain_db, fit_db or margin_db.
    if not quality:
        for p in problems:
            print("check failed: %s" % p, file=sys.stderr)
        print("error: no output to measure the %s quality on" % args.workload, file=sys.stderr)
        return 1
    ((quality_name, quality_db),) = quality.items()
    run_s = statistics.median(res["times"])
    failed = sum(1 for rc in res["rcs"] if rc != 0)
    for p in problems:
        print("check failed: %s" % p, file=sys.stderr)
    print("%s seed %d: %d repeats, wall %s (median %.4f), cpu %s, set-up %.3f s, %s"
          % (args.workload, args.seed, len(res["times"]), ["%.3f" % t for t in res["times"]], run_s,
             ["%.3f" % t for t in res["cpu_times"]],
             setup_s + res["ready_s"], "traced" if args.trace else "untraced"), file=sys.stderr)
    print("set-up: start-up %.3f s, inputs %.3f s, worker ready %.3f s"
          % (startup_s, setup_s - startup_s, res["ready_s"]), file=sys.stderr)
    print("quality_db = %s = %.6f dB" % (quality_name, quality_db), file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": res["layers"][k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": setup_s + res["ready_s"], "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
        metrics["quality_db"] = {"value": quality_db, "unit": "dB"}
    print(json.dumps({"correct": not problems, "attempted": len(res["times"]), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
