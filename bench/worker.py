"""The timed operation of one benchmark run, in a process of its own so that
its peak resident memory leaves out the inputs that set-up generated.

Usage: PYTHONPATH=src python3 bench/worker.py SPEC.json, with SPEC.json
written by run.py, which also pins the BLAS/OpenMP thread pools to one thread
in the environment it passes down.  Makes one
untimed warm-up call, then repeats the operation at least ``min_repeats``
times and for as many more as fit in ``seconds``, and writes per-repeat
wall times, exit codes and output digests to the spec's ``result_path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time

import numpy as np

import poksvd.cli
import poksvd.learning
import poksvd.linalg
import poksvd.pipeline
from poksvd.learning import LearningConfig
from poksvd.pursuit import PursuitConfig
from poksvd.stft import Spectrogram
from tracing import Tracer, median_metrics

# criterion 7's settings: tight pursuit tolerances, up to 30 outer iterations
MARGIN_ITERS = 30


def run_cli(argv, tracer):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        if tracer is None:
            rc = poksvd.cli.main(argv)
        else:
            rc = tracer.call("cli", poksvd.cli.main, argv).pop("result")
    return rc, err.getvalue()


def run_margin(inputs, max_iters=MARGIN_ITERS, seeds=None):
    """Per seed, train a phase-optimized and a phase-blind dictionary and
    denoise the held-out mixture with each; looks the library functions up
    on their modules so that the tracer's wrappers see the calls."""
    out = {}
    channels, s_max = int(inputs["channels"]), int(inputs["s_max"])
    for i in range(int(inputs["seeds"]) if seeds is None else seeds):
        mix = Spectrogram.from_frame_matrix(inputs["mix_%d" % i], channels)
        for label, po in (("po", True), ("pb", False)):
            pcfg = PursuitConfig(s_max=s_max, tau=1e-6, epsilon=1e-5, phase_optimization=po)
            lcfg = LearningConfig(num_atoms=int(inputs["atoms"]), pursuit=pcfg, epsilon_outer=1e-4,
                                  max_outer_iters=max_iters, seed=i)
            model = poksvd.learning.po_ksvd(inputs["train_%d" % i], channels, lcfg)
            target, noise = poksvd.pipeline.denoise(mix, model.dictionary, pcfg)
            out["%s_target_%d" % (label, i)] = target.frame_matrix()
            out["%s_noise_%d" % (label, i)] = noise.frame_matrix()
            out["%s_trace_%d" % (label, i)] = np.array(model.objective_trace)
    return out


def file_digest(paths):
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def array_digest(arrays):
    h = hashlib.sha256()
    for k in sorted(arrays):
        h.update(k.encode() + np.ascontiguousarray(arrays[k]).tobytes())
    return h.hexdigest()


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    ready_s = time.time() - spec["spawned_at"]
    margin_inputs = None
    if spec["workload"] == "margin_synth":
        with np.load(spec["inputs"]) as z:
            margin_inputs = {k: z[k] for k in z.files}
        run_margin(margin_inputs, max_iters=1, seeds=1)
    else:
        rc, err = run_cli(spec["warmup_argv"], None)
        if rc != 0:
            raise SystemExit("warm-up call failed with exit code %d: %s" % (rc, err))

    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        tracer.install()

    times, cpu_times, rcs, digests, layers = [], [], [], [], []
    stderr_text, arrays = "", None
    began = time.perf_counter()
    # Stop before a repeat that would likely run past ``seconds``, so that a
    # run lasts about max(seconds, min_repeats repeats) whatever the repeat's length.
    while (len(times) < spec["min_repeats"]
           or time.perf_counter() - began + statistics.median(times) <= spec["seconds"]):
        poksvd.linalg.diagnostics.reset()
        if tracer is not None:
            tracer.repeat = len(times)
        t0, c0 = time.perf_counter(), time.process_time()
        if margin_inputs is not None:
            arrays = run_margin(margin_inputs)
            rc = 0
        else:
            rc, stderr_text = run_cli(spec["argv"], tracer)
        times.append(time.perf_counter() - t0)
        cpu_times.append(time.process_time() - c0)
        rcs.append(rc)
        digests.append(array_digest(arrays) if arrays is not None else file_digest(spec["digest_paths"]))
        if tracer is not None:
            d = poksvd.linalg.diagnostics
            layers.append(tracer.layer_metrics(tracer.repeat, (d.ridge_fallbacks, d.refine_cap_hits)))

    if arrays is not None:
        np.savez(spec["outputs"], **arrays)
    if tracer is not None:
        tracer.dump(spec["trace_path"])
    result = {
        "ready_s": ready_s,
        "times": times,
        "cpu_times": cpu_times,
        "rcs": rcs,
        "digests": digests,
        "stderr": stderr_text,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": median_metrics(layers) if layers else None,
    }
    with open(spec["result_path"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
