"""Command-line interface: train / denoise / code / synth / eval.

Options may come from flags or from a ``key=value`` config file
(``--config``); explicit flags win.  Exit codes: 0 ok, 1 computation or
validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .dictio import DictionaryFileError, load_dictionary, save_dictionary
from .learning import LearningConfig, po_ksvd
from .pipeline import SyntheticSpec, denoise, evaluate, generate_synthetic
from .pursuit import PursuitConfig, po_omp_batch
from .stft import StftConfig, istft, stft
from .wavio import WavError, read_wav, write_wav

_CONFIG_KEYS = {
    "input": str,
    "output": str,
    "dict": str,
    "channels": str,
    "K": int,
    "smax": int,
    "tau": float,
    "epsilon": float,
    "iters": int,
    "seed": int,
    "mask": lambda v: v.lower() in ("1", "true", "yes", "on"),
    "floor_quantile": float,
    "selection_rule": str,
    "sample_rate": int,
    "window_len": int,
    "hop": int,
    "bins": int,
    "frames": int,
    "noise_sigma": float,
}


def _read_config_file(path):
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError("%s:%d: expected key=value" % (path, lineno))
            key, val = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ValueError("%s:%d: unknown config key %r" % (path, lineno, key))
            values[key] = _CONFIG_KEYS[key](val)
    return values


def _merge(args, defaults):
    """Fill unset (None) options from the config file, then from defaults."""
    file_values = _read_config_file(args.config) if getattr(args, "config", None) else {}
    for key, default in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, file_values.get(key, default))
    return args


def _add_common(p):
    p.add_argument("--config", help="key=value config file; flags override it")
    p.add_argument("--seed", type=int, default=None)


def _parse_channels(spec, available):
    if spec is None:
        return list(range(available))
    idx = [int(s) for s in str(spec).split(",") if s != ""]
    for i in idx:
        if not (0 <= i < available):
            raise ValueError("channel %d out of range (input has %d)" % (i, available))
    return idx


def _stft_config(args, rate):
    return StftConfig(
        sample_rate=rate,
        window_len=getattr(args, "window_len", None),
        hop=getattr(args, "hop", None),
    ).resolved()


# defaults of the options train, denoise and code share: the pursuit flags
# take PursuitConfig's; channels and STFT geometry are resolved from the input
_CODING_DEFAULTS = dict(
    smax=PursuitConfig.s_max,
    tau=PursuitConfig.tau,
    epsilon=PursuitConfig.epsilon,
    selection_rule=PursuitConfig.selection_rule,
    channels=None,
    window_len=None,
    hop=None,
)


def _pursuit_config(args):
    return PursuitConfig(
        s_max=args.smax,
        tau=args.tau,
        epsilon=args.epsilon,
        selection_rule=args.selection_rule,
        phase_optimization=not getattr(args, "no_phase", False),
    )


def cmd_train(args):
    args = _merge(args, dict(_CODING_DEFAULTS, K=40, iters=50, seed=0))
    samples, rate = read_wav(args.input)
    chans = _parse_channels(args.channels, samples.shape[1])
    cfg = _stft_config(args, rate)
    spec = stft(samples[:, chans], cfg)
    frames = spec.frame_matrix()
    lcfg = LearningConfig(
        num_atoms=args.K,
        pursuit=_pursuit_config(args),
        max_outer_iters=args.iters,
        seed=args.seed,
    )

    def progress(it, obj, replaced):
        print("iteration=%d objective=%.12e atoms_replaced=%d" % (it, obj, replaced),
              file=sys.stderr)

    model = po_ksvd(frames, spec.channels, lcfg, progress=progress)
    save_dictionary(args.output, model.dictionary, cfg)
    return 0


def _check_provenance(cfg, prov):
    for name in ("sample_rate", "window_len", "hop"):
        if getattr(cfg, name) != getattr(prov, name):
            raise ValueError(
                "STFT provenance mismatch: dictionary has %s=%s, input requires %s"
                % (name, getattr(prov, name), getattr(cfg, name))
            )


def cmd_denoise(args):
    args = _merge(args, dict(_CODING_DEFAULTS, mask=False, floor_quantile=0.1))
    D, prov = load_dictionary(args.dict)
    samples, rate = read_wav(args.input)
    chans = _parse_channels(args.channels, samples.shape[1])
    if len(chans) != D.channels:
        raise ValueError(
            "channel-count mismatch: dictionary has %d, input provides %d"
            % (D.channels, len(chans))
        )
    cfg = _stft_config(args, rate)
    _check_provenance(cfg, prov)
    spec = stft(samples[:, chans], cfg)
    target, noise = denoise(
        spec, D, _pursuit_config(args), mask=args.mask, floor_quantile=args.floor_quantile
    )
    write_wav(args.output, istft(target), rate)
    if args.emit_noise:
        write_wav(args.emit_noise, istft(noise), rate)
    if args.reference:
        ref, _ = read_wav(args.reference)
        est, _ = read_wav(args.output)
        n = min(ref.shape[0], est.shape[0])
        report = evaluate(ref[:n, : est.shape[1]], est[:n])
        _emit_report(report, args.report or args.output + ".report.json")
    return 0


def cmd_code(args):
    args = _merge(args, _CODING_DEFAULTS)
    D, prov = load_dictionary(args.dict)
    if args.input.endswith(".npy"):
        frames = np.load(args.input)
        if frames.ndim != 2 or frames.shape[0] != D.channels * D.bins:
            raise ValueError(
                "frame file must be (M*F, T) with M*F = %d" % (D.channels * D.bins)
            )
    else:
        samples, rate = read_wav(args.input)
        chans = _parse_channels(args.channels, samples.shape[1])
        cfg = _stft_config(args, rate)
        _check_provenance(cfg, prov)
        frames = stft(samples[:, chans], cfg).frame_matrix()
    out = open(args.output, "w") if args.output else sys.stdout
    try:
        for t, res in enumerate(po_omp_batch(frames, D, _pursuit_config(args))):
            rec = {
                "frame": t,
                "support": list(res.code.support),
                "gains": [float(res.code.gains[k]) for k in res.code.support],
                "residual_norm": res.residual_norm,
            }
            print(json.dumps(rec), file=out)
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def cmd_synth(args):
    args = _merge(
        args,
        dict(K=8, smax=2, seed=0, channels="2", bins=16, frames=200,
             noise_sigma=0.0, sample_rate=16000),
    )
    channels = int(args.channels)
    spec = SyntheticSpec(
        channels=channels,
        bins=args.bins,
        frames=args.frames,
        num_atoms=args.K,
        s_max=args.smax,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    Y, truth = generate_synthetic(spec)
    # render through the inverse transform at a window matching the bin count
    wl = 2 * (args.bins - 1)
    cfg = StftConfig(sample_rate=args.sample_rate, window_len=wl, hop=wl // 2)
    Y.config = cfg
    if args.output:
        write_wav(args.output, istft(Y), args.sample_rate)
    if args.frames_out:
        np.save(args.frames_out, Y.frame_matrix())
    if args.dict_out:
        save_dictionary(args.dict_out, truth["dictionary"], cfg)
    return 0


def _emit_report(report, path):
    data = report.as_dict()
    data.pop("frame_residual_norms", None)
    for key, val in data.items():
        print("%s=%s" % (key, val))
    if path:
        from .wavio import _atomic_write

        _atomic_write(path, (json.dumps(data, indent=2) + "\n").encode())


def cmd_eval(args):
    est, _ = read_wav(args.input)
    ref, _ = read_wav(args.reference)
    n = min(est.shape[0], ref.shape[0])
    noise = None
    if args.noise:
        nz, _ = read_wav(args.noise)
        n = min(n, nz.shape[0])
        noise = nz[:n]
    report = evaluate(ref[:n], est[:n], noise)
    _emit_report(report, args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="poksvd",
        description="Phase-optimized sparse coding and dictionary learning "
        "for multichannel audio denoising",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def pursuit_flags(p):
        p.add_argument("--smax", type=int, default=None)
        p.add_argument("--tau", type=float, default=None)
        p.add_argument("--epsilon", type=float, default=None)
        p.add_argument("--selection-rule", dest="selection_rule",
                       choices=["derived", "literal"], default=None)
        p.add_argument("--no-phase", action="store_true",
                       help="disable phase optimization (classic OMP/K-SVD)")

    def stft_flags(p):
        p.add_argument("--window-len", dest="window_len", type=int, default=None)
        p.add_argument("--hop", type=int, default=None)

    p = sub.add_parser("train", help="learn a noise dictionary from a WAV file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("-K", dest="K", type=int, default=None)
    p.add_argument("--iters", type=int, default=None)
    p.add_argument("--channels", default=None)
    pursuit_flags(p)
    stft_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("denoise", help="subtract the coded noise estimate from a mixture")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--channels", default=None)
    p.add_argument("--mask", action="store_true", default=None)
    p.add_argument("--floor-quantile", dest="floor_quantile", type=float, default=None)
    p.add_argument("--emit-noise", dest="emit_noise", default=None)
    p.add_argument("--reference", default=None)
    p.add_argument("--report", default=None)
    pursuit_flags(p)
    stft_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("code", help="sparse-code frames and print per-frame records")
    p.add_argument("--input", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--output", default=None)
    p.add_argument("--channels", default=None)
    pursuit_flags(p)
    stft_flags(p)
    _add_common(p)
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("synth", help="generate synthetic ground-truth data")
    p.add_argument("--output", default=None, help="rendered WAV path")
    p.add_argument("--frames-out", dest="frames_out", default=None)
    p.add_argument("--dict-out", dest="dict_out", default=None)
    p.add_argument("-K", dest="K", type=int, default=None)
    p.add_argument("--smax", type=int, default=None)
    p.add_argument("--channels", default=None)
    p.add_argument("--bins", type=int, default=None)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--noise-sigma", dest="noise_sigma", type=float, default=None)
    p.add_argument("--sample-rate", dest="sample_rate", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="energy-ratio SDR/SIR between two WAV files")
    p.add_argument("--input", required=True, help="estimate WAV")
    p.add_argument("--reference", required=True)
    p.add_argument("--noise", default=None, help="noise reference WAV (enables SIR)")
    p.add_argument("--output", default=None, help="JSON report path")
    _add_common(p)
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, IsADirectoryError, PermissionError) as err:
        print("error: %s: %s" % (getattr(err, "filename", "?"), err.strerror or err),
              file=sys.stderr)
        return 2
    except (WavError, DictionaryFileError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except ValueError as err:
        print("error: %s" % err, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
