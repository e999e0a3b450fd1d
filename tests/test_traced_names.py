"""The benchmark's tracer times each layer by replacing module attributes
(``poksvd.cli.stft``, ``poksvd.learning.update_atom``, ...) with wrappers.
A call that bypasses such a name would silently zero a per-layer metric, so
every name must stay on the path that the CLI and the library run.  The
tracer's span stack is not thread-safe, so every such call must also come
from the thread that called into the package, whatever threads
``po_omp_batch`` starts to code its column blocks."""

import functools
import importlib
import threading

import numpy as np

import poksvd.learning
import poksvd.pipeline
from poksvd import pursuit
from poksvd.cli import main
from poksvd.learning import LearningConfig
from poksvd.pursuit import PursuitConfig
from poksvd.stft import Spectrogram
from poksvd.wavio import write_wav

# the (module, attribute) keys of TARGETS in bench/tracing.py
TRACED = [
    ("poksvd.cli", "read_wav"),
    ("poksvd.cli", "write_wav"),
    ("poksvd.cli", "load_dictionary"),
    ("poksvd.cli", "save_dictionary"),
    ("poksvd.cli", "stft"),
    ("poksvd.cli", "istft"),
    ("poksvd.cli", "denoise"),
    ("poksvd.pipeline", "denoise"),
    ("poksvd.cli", "po_ksvd"),
    ("poksvd.learning", "po_ksvd"),
    ("poksvd.pipeline", "po_omp_batch"),
    ("poksvd.learning", "po_omp_batch"),
    ("poksvd.learning", "update_atom"),
    ("poksvd.learning", "dominant_singular_triple"),
]


def counting(calls, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[key].append(threading.current_thread())
        return fn(*args, **kwargs)

    return wrapper


def test_every_traced_name_is_called(tmp_path, monkeypatch):
    calls = {key: [] for key in TRACED}
    for module, attr in TRACED:
        mod = importlib.import_module(module)
        monkeypatch.setattr(mod, attr, counting(calls, (module, attr), getattr(mod, attr)))
    # two workers and 8-frame blocks at the CLI's 17 bins and 3 atoms
    monkeypatch.setattr(pursuit, "_worker_count", lambda: 2)
    monkeypatch.setattr(pursuit, "SCORE_BUDGET_BYTES", 8 * 2 * 16 * 17 * 3)

    rng = np.random.default_rng(0)
    wav, d = tmp_path / "noise.wav", tmp_path / "d.bin"
    write_wav(wav, 0.1 * rng.standard_normal((2000, 2)), 8000)
    flags = ["--window-len", "32", "--hop", "16", "--smax", "1"]
    assert main(["train", "--input", str(wav), "--output", str(d), "-K", "3", "--iters", "1"] + flags) == 0
    assert main(["denoise", "--input", str(wav), "--output", str(tmp_path / "clean.wav"),
                 "--dict", str(d), "--emit-noise", str(tmp_path / "noise_est.wav")] + flags) == 0

    Y = rng.standard_normal((8, 20)) + 1j * rng.standard_normal((8, 20))
    pcfg = PursuitConfig(s_max=1)
    model = poksvd.learning.po_ksvd(Y, 2, LearningConfig(num_atoms=3, pursuit=pcfg, max_outer_iters=1))
    poksvd.pipeline.denoise(Spectrogram.from_frame_matrix(Y, 2), model.dictionary, pcfg)

    assert [key for key, threads in calls.items() if not threads] == []
    caller = threading.current_thread()
    assert [key for key, threads in calls.items() if set(threads) != {caller}] == []
