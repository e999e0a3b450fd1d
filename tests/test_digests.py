"""Byte-identity check: SHA-256 digests of a fixed set of seeded outputs,
compared item by item with the committed ``tests/digests.json``.

    python tests/test_digests.py             # print this build's digests as JSON
    python tests/test_digests.py --one-cpu   # the same, run on one CPU
    python tests/test_digests.py --record    # rewrite tests/digests.json

The set runs in a fresh interpreter with one OpenBLAS thread, once on one
CPU, where ``po_omp_batch`` codes every column block on the calling thread,
and once on all the CPUs the process may use, where the multi-block problem
shares its blocks out among threads.  Digests belong to the numpy/OpenBLAS
build that recorded them; on another build the test skips and names both
builds.  A change that moves output bits on purpose re-records the file and
names the items it changed.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
RECORD = HERE / "digests.json"
SRC = HERE.parent / "src"
MODES = {"phase": True, "classic": False}


def build_versions():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": "%s %s" % (blas["name"], blas.get("version"))}


def _digest(a):
    a = np.ascontiguousarray(a)
    return hashlib.sha256(("%s%s" % (a.dtype.str, a.shape)).encode() + a.tobytes()).hexdigest()


def _batch_items(name, batch):
    for field in ("support", "lengths", "gains", "columns", "residual"):
        yield "%s/%s" % (name, field), _digest(getattr(batch, field))


def library_items():
    from poksvd.learning import LearningConfig, po_ksvd
    from poksvd.pipeline import SyntheticSpec, generate_synthetic, random_dictionary
    from poksvd.pursuit import PursuitConfig, po_omp_batch

    # criterion 3's 1000 planted frames, refinement capped at the default 100 sweeps
    spg, truth = generate_synthetic(SyntheticSpec(channels=2, bins=16, frames=1000, num_atoms=8,
                                                  s_max=2, seed=42, max_coherence=0.5))
    for mode, phase in MODES.items():
        cfg = PursuitConfig(s_max=2, tau=1e-10, epsilon=1e-12, phase_optimization=phase)
        yield from _batch_items("po_omp_batch/criterion3/" + mode,
                                po_omp_batch(spg.frame_matrix(), truth["dictionary"], cfg))

    # criterion 4b, seed 200: 20 outer iterations
    spg, _ = generate_synthetic(SyntheticSpec(channels=2, bins=8, frames=80, num_atoms=6,
                                              s_max=2, noise_sigma=0.1, seed=200))
    for mode, phase in MODES.items():
        cfg = LearningConfig(num_atoms=6, epsilon_outer=1e-12, max_outer_iters=20, seed=0,
                             pursuit=PursuitConfig(s_max=2, tau=1e-8, epsilon=1e-6,
                                                   phase_optimization=phase))
        model = po_ksvd(spg.frame_matrix(), 2, cfg)
        name = "po_ksvd/criterion4b-200/" + mode
        yield name + "/atoms", _digest(model.dictionary.atoms)
        yield name + "/objective_trace", _digest(np.array(model.objective_trace))
        yield from _batch_items(name + "/coding", model.coding)

    # audio-scale bins, several column blocks
    rng = np.random.default_rng(513)
    D = random_dictionary(rng, 1, 513, 40)
    Y = rng.standard_normal((513, 120)) + 1j * rng.standard_normal((513, 120))
    for mode, phase in MODES.items():
        cfg = PursuitConfig(s_max=2, phase_optimization=phase)
        yield from _batch_items("po_omp_batch/F513-T120/" + mode, po_omp_batch(Y, D, cfg))

    # singular supports, M * F = 2 < s_max = 3: 6 ridge fallbacks phase-optimized, 4 classic
    rng = np.random.default_rng(3)
    D = random_dictionary(rng, 2, 1, 6)
    Y = rng.standard_normal((2, 40)) + 1j * rng.standard_normal((2, 40))
    for mode, phase in MODES.items():
        cfg = PursuitConfig(s_max=3, tau=0, phase_optimization=phase)
        yield from _batch_items("po_omp_batch/ridge-M2F1-s3/" + mode, po_omp_batch(Y, D, cfg))

    # audio-scale stereo in several column blocks, refinement capped at two sweeps:
    # phase-optimized, 90 of 180 refinements reach the cap and the rest stall on the last sweep
    rng = np.random.default_rng(1026)
    D = random_dictionary(rng, 2, 513, 40)
    Y = rng.standard_normal((1026, 90)) + 1j * rng.standard_normal((1026, 90))
    for mode, phase in MODES.items():
        cfg = PursuitConfig(s_max=3, epsilon=0.05, max_refine_iters=2, phase_optimization=phase)
        yield from _batch_items("po_omp_batch/F513-M2-cap2/" + mode, po_omp_batch(Y, D, cfg))
    # the same problem under the literal selection rule: 513 bins end in a one-bin slab
    cfg = PursuitConfig(s_max=3, epsilon=0.05, max_refine_iters=2, selection_rule="literal")
    yield from _batch_items("po_omp_batch/F513-M2-cap2/literal", po_omp_batch(Y, D, cfg))

    # a one-atom dictionary over two scoring slabs, the last of one bin
    rng = np.random.default_rng(33)
    D = random_dictionary(rng, 2, 33, 1)
    Y = rng.standard_normal((66, 30)) + 1j * rng.standard_normal((66, 30))
    for mode, cfg in (("phase", PursuitConfig(s_max=2)),
                      ("literal", PursuitConfig(s_max=2, selection_rule="literal")),
                      ("classic", PursuitConfig(s_max=2, phase_optimization=False))):
        yield from _batch_items("po_omp_batch/K1-M2F33/" + mode, po_omp_batch(Y, D, cfg))


def cli_items(tmp):
    from poksvd.cli import main
    from poksvd.wavio import write_wav

    def run(*argv):
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(list(argv)) == 0, argv

    # the tests/test_cli.py fixtures: 2000 stereo samples at 8 kHz, 32-sample window
    noise = tmp / "noise.wav"
    write_wav(noise, 0.1 * np.random.default_rng(0).standard_normal((2000, 2)), 8000)
    common = ["--input", str(noise), "--window-len", "32", "--hop", "16"]
    train = ["train", "-K", "3", "--smax", "1", "--iters", "2", "--seed", "1"] + common
    run(*train, "--output", str(tmp / "train.bin"))
    run(*train, "--no-phase", "--output", str(tmp / "train-no-phase.bin"))
    denoise = ["denoise", "--dict", str(tmp / "train.bin")] + common
    for name, extra in (("plain", []), ("mask", ["--mask"]), ("no-phase", ["--no-phase"]),
                        ("emit-noise", ["--emit-noise", str(tmp / "denoise-noise.wav")])):
        run(*denoise, *extra, "--output", str(tmp / ("denoise-%s.wav" % name)))
    code = ["code", "--dict", str(tmp / "train.bin"), "--smax", "2"] + common
    run(*code, "--output", str(tmp / "code-phase.jsonl"))
    run(*code, "--no-phase", "--output", str(tmp / "code-classic.jsonl"))
    run("synth", "--output", str(tmp / "synth.wav"), "--frames-out", str(tmp / "synth-frames.npy"),
        "--dict-out", str(tmp / "synth.bin"), "-K", "4", "--bins", "9", "--frames", "20", "--seed", "3")
    for path in sorted(tmp.iterdir()):
        if path != noise:
            yield "cli/" + path.name, hashlib.sha256(path.read_bytes()).hexdigest()


def compute():
    with tempfile.TemporaryDirectory() as tmp:
        items = dict(library_items())
        items.update(cli_items(Path(tmp)))
    return {"versions": build_versions(), "digests": items}


def check_digests(*flags):
    recorded = json.loads(RECORD.read_text())
    if recorded["versions"] != build_versions():
        pytest.skip("digests were recorded under %s; this build is %s"
                    % (recorded["versions"], build_versions()))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, *flags], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    seen = json.loads(out.stdout)["digests"]
    want = recorded["digests"]
    changed = sorted(k for k in want.keys() | seen.keys() if want.get(k) != seen.get(k))
    assert not changed, "outputs differ from %s: %s" % (RECORD.name, ", ".join(changed))


def test_seeded_outputs_match_recorded_digests():
    check_digests("--one-cpu")


def test_threaded_outputs_match_recorded_digests():
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("only one CPU is available, so po_omp_batch starts no helper thread here")
    check_digests()


if __name__ == "__main__":
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        # OpenBLAS reads its thread count at load time: start again with one
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        sys.exit(subprocess.run([sys.executable] + sys.argv, env=env).returncode)
    if "--one-cpu" in sys.argv[1:]:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    result = json.dumps(compute(), indent=1, sort_keys=True) + "\n"
    if "--record" in sys.argv[1:]:
        RECORD.write_text(result)
    else:
        sys.stdout.write(result)
