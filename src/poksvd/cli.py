"""Command-line interface: train / denoise / code / synth / eval.

Any option of a subcommand may also be a ``key = value`` line of a ``--config``
file: the key is the option's name (``window-len``, ``window_len`` or ``K``),
the value is converted as the flag's argument would be, and a flag without an
argument takes 1/true/yes/on or 0/false/no/off.  Explicit flags win.  Exit
codes: 0 ok, 1 computation or validation error (a key the subcommand lacks or
a bad value included), 2 I/O error (a missing config file included).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

import numpy as np

from .dictio import DictionaryFileError, load_dictionary, save_dictionary
from .learning import LearningConfig, po_ksvd
from .pipeline import SyntheticSpec, apply_mask, denoise, evaluate, generate_synthetic
from .pursuit import PursuitConfig, chunk_width, po_omp_batch
from .stft import OverlapAdd, Spectrogram, StftConfig, frame_count, istft, stft
from .wavio import WavError, WavWriter, _atomic_write, read_wav, wav_info, write_wav

_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _config_value(option, text):
    """``text`` converted as ``option``'s flag would convert its argument."""
    if option.nargs == 0:
        if text.lower() not in _TRUE + _FALSE:
            raise ValueError("expected one of %s" % "/".join(_TRUE + _FALSE))
        return text.lower() in _TRUE
    value = option.type(text) if option.type else text
    if option.choices is not None and value not in option.choices:
        raise ValueError("expected one of %s" % "/".join(option.choices))
    return value


def _install_config(parser, path):
    """Make the ``key = value`` lines of ``path`` the defaults of ``parser``."""
    options = {a.dest: a for a in parser._actions
               if a.option_strings and a.dest not in ("help", "config")}
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            where = "%s:%d" % (path, lineno)
            key, eq, text = (s.strip() for s in line.partition("="))
            if not eq:
                raise ValueError("%s: expected key=value" % where)
            option = options.get(key.replace("-", "_"))
            if option is None:
                raise ValueError("%s: %s has no option %r" % (where, parser.prog, key))
            try:
                values[option.dest] = _config_value(option, text)
            except (TypeError, ValueError, argparse.ArgumentTypeError) as err:
                raise ValueError("%s: bad value %r for %s: %s" % (where, text, key, err)) from None
            option.required = False
    parser.set_defaults(**values)


def _parse_channels(spec, available):
    """The channel indices ``--channels`` selects; all when it is unset."""
    if spec is None:
        return list(range(available))
    idx = [int(s) for s in spec.split(",") if s.strip()]
    if not idx:
        raise ValueError("no channels selected")
    for i in idx:
        if not (0 <= i < available):
            raise ValueError("channel %d out of range (input has %d)" % (i, available))
    return idx


def _input(args, D=None, prov=None):
    """The parsed header of ``args.input``, the ``--channels`` it selects
    and its StftConfig.  Given a loaded dictionary and its provenance, the
    input must match both."""
    info = wav_info(args.input)
    chans = _parse_channels(args.channels, info.channels)
    if D is not None and len(chans) != D.channels:
        raise ValueError(
            "channel-count mismatch: dictionary has %d, input provides %d"
            % (D.channels, len(chans))
        )
    cfg = StftConfig(sample_rate=info.rate, window_len=args.window_len, hop=args.hop)
    if prov is not None and cfg != prov:
        raise ValueError("STFT provenance mismatch: dictionary has %s, input requires %s" % (prov, cfg))
    return info, chans, cfg


def _analysis(args, D=None, prov=None):
    """STFT of the ``--channels`` of the whole of ``args.input``."""
    info, chans, cfg = _input(args, D, prov)
    return stft(read_wav(info)[0][:, chans], cfg)


def _pursuit_config(args):
    return PursuitConfig(
        s_max=args.smax,
        tau=args.tau,
        epsilon=args.epsilon,
        selection_rule=args.selection_rule,
        phase_optimization=not args.no_phase,
    )


def cmd_train(args):
    spec = _analysis(args)
    lcfg = LearningConfig(
        num_atoms=args.K,
        pursuit=_pursuit_config(args),
        max_outer_iters=args.iters,
        seed=args.seed,
    )

    def progress(it, obj, replaced):
        print("iteration=%d objective=%.12e atoms_replaced=%d" % (it, obj, replaced),
              file=sys.stderr)

    model = po_ksvd(spec.frame_matrix(), spec.channels, lcfg, progress=progress)
    save_dictionary(args.output, model.dictionary, spec.config)
    return 0


def cmd_denoise(args):
    """Stream the input through the denoiser ``chunk_width`` frames at a
    time: each chunk is read, analysed, coded, overlap-added and appended to
    the outputs, which appear only once every chunk is written.  A frame's
    code does not depend on the other frames, so the outputs are those of a
    whole-file run bit for bit.  ``--mask`` needs the whole file's target
    and noise spectrograms, so it keeps them and synthesizes at the end."""
    D, prov = load_dictionary(args.dict)
    info, chans, cfg = _input(args, D, prov)
    wl, hop, rate = cfg.window_len, cfg.hop, cfg.sample_rate
    T = frame_count(info.frames, cfg)
    n = (T - 1) * hop + wl
    pcfg = _pursuit_config(args)
    width = chunk_width(D.bins, D.num_atoms)
    with contextlib.ExitStack() as stack:
        sinks = [(stack.enter_context(WavWriter(path, n, len(chans), rate)), OverlapAdd(cfg, len(chans), T))
                 for path in (args.output, args.emit_noise) if path]

        def emit(*specs):  # the target, then the noise estimate if asked for
            for (out, acc), spec in zip(sinks, specs):
                write_wav(out, istft(spec, acc), rate)

        kept = []
        for t0 in range(0, T, width):
            t1 = min(t0 + width, T)
            samples, _ = read_wav(info, t0 * hop, (t1 - 1) * hop + wl)
            target, noise = denoise(stft(samples[:, chans], cfg), D, pcfg)
            if args.mask:
                kept.append((target.values, noise.values))
            else:
                emit(target, noise)
        if args.mask:
            target, noise = (Spectrogram(np.concatenate(v, axis=2), cfg) for v in zip(*kept))
            del kept
            emit(apply_mask(target, noise, args.floor_quantile), noise)
    if args.reference:
        ref, _ = read_wav(args.reference)
        est, _ = read_wav(args.output)
        ref = ref[:, _parse_channels(args.channels, ref.shape[1])]
        _report(est, ref, None, args.report or args.output + ".report.json")
    return 0


def cmd_code(args):
    D, prov = load_dictionary(args.dict)
    if args.input.endswith(".npy"):
        flags = {"--channels": args.channels, "--window-len": args.window_len, "--hop": args.hop}
        given = [flag for flag, value in flags.items() if value is not None]
        if given:
            raise ValueError("%s do not apply to a .npy frame file" % ", ".join(given))
        frames = np.load(args.input)
    else:
        frames = _analysis(args, D, prov).frame_matrix()
    records = "".join(
        json.dumps({"frame": t, "support": list(res.code.support),
                    "gains": [float(res.code.gains[k]) for k in res.code.support],
                    "residual_norm": res.residual_norm}) + "\n"
        for t, res in enumerate(po_omp_batch(frames, D, _pursuit_config(args))))
    if args.output:  # written only once every frame is coded
        _atomic_write(args.output, records.encode())
    else:
        sys.stdout.write(records)
    return 0


def cmd_synth(args):
    # render through the inverse transform at a window matching the bin count
    cfg = StftConfig(sample_rate=args.sample_rate, window_len=2 * (args.bins - 1))
    spec = SyntheticSpec(
        channels=args.channels,
        bins=args.bins,
        frames=args.frames,
        num_atoms=args.K,
        s_max=args.smax,
        noise_sigma=args.noise_sigma,
        seed=args.seed,
    )
    Y, truth = generate_synthetic(spec)
    Y.config = cfg
    if args.output:
        write_wav(args.output, istft(Y), args.sample_rate)
    if args.frames_out:
        np.save(args.frames_out, Y.frame_matrix())
    if args.dict_out:
        save_dictionary(args.dict_out, truth["dictionary"], cfg)
    return 0


def _report(est, ref, noise, path):
    """Score ``est`` against ``ref`` (and ``noise``) over their common length,
    print each figure and, when ``path`` is given, write them there as JSON."""
    n = min(len(x) for x in (est, ref, noise) if x is not None)
    data = evaluate(ref[:n], est[:n], None if noise is None else noise[:n]).as_dict()
    for key, val in data.items():
        print("%s=%s" % (key, val))
    if path:
        _atomic_write(path, (json.dumps(data, indent=2) + "\n").encode())


def cmd_eval(args):
    est, _ = read_wav(args.input)
    ref, _ = read_wav(args.reference)
    noise = read_wav(args.noise)[0] if args.noise else None
    _report(est, ref, noise, args.output)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="poksvd",
        description="Phase-optimized sparse coding and dictionary learning "
        "for multichannel audio denoising",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def pursuit_flags(p):
        p.add_argument("--smax", type=int, default=PursuitConfig.s_max)
        p.add_argument("--tau", type=float, default=PursuitConfig.tau)
        p.add_argument("--epsilon", type=float, default=PursuitConfig.epsilon)
        p.add_argument("--selection-rule", choices=["derived", "literal"],
                       default=PursuitConfig.selection_rule)
        p.add_argument("--no-phase", action="store_true",
                       help="disable phase optimization (classic OMP/K-SVD)")

    def input_flags(p):
        p.add_argument("--channels", help="comma-separated input channels (default: all)")
        p.add_argument("--window-len", type=int, help="default: 64 ms")
        p.add_argument("--hop", type=int, help="default: window-len / 2")

    p = sub.add_parser("train", help="learn a noise dictionary from a WAV file")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("-K", type=int, default=40)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    pursuit_flags(p)
    input_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("denoise", help="subtract the coded noise estimate from a mixture")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--mask", action="store_true")
    p.add_argument("--floor-quantile", type=float, default=0.1)
    p.add_argument("--emit-noise")
    p.add_argument("--reference")
    p.add_argument("--report")
    pursuit_flags(p)
    input_flags(p)
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("code", help="sparse-code frames and print per-frame records")
    p.add_argument("--input", required=True)
    p.add_argument("--dict", required=True)
    p.add_argument("--output")
    pursuit_flags(p)
    input_flags(p)
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("synth", help="generate synthetic ground-truth data")
    p.add_argument("--output", help="rendered WAV path")
    p.add_argument("--frames-out")
    p.add_argument("--dict-out")
    p.add_argument("-K", type=int, default=8)
    p.add_argument("--smax", type=int, default=2)
    p.add_argument("--channels", type=int, default=2, help="channel count")
    p.add_argument("--bins", type=int, default=16)
    p.add_argument("--frames", type=int, default=200)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--sample-rate", type=int, default=16000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("eval", help="energy-ratio SDR/SIR between two WAV files")
    p.add_argument("--input", required=True, help="estimate WAV")
    p.add_argument("--reference", required=True)
    p.add_argument("--noise", help="noise reference WAV (enables SIR)")
    p.add_argument("--output", help="JSON report path")
    p.set_defaults(func=cmd_eval)

    for p in sub.choices.values():
        p.add_argument("--config", help="key = value file of options; flags override it")
    return parser


def parse_args(argv):
    """Parse a command line.  The values in the chosen subcommand's
    ``--config`` file become its defaults first, so explicit flags win."""
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    if argv and argv[0] in commands:
        pre = argparse.ArgumentParser(add_help=False)
        pre.add_argument("--config")
        path = pre.parse_known_args(argv[1:])[0].config
        if path:
            _install_config(commands[argv[0]], path)
    return parser.parse_args(argv)


def main(argv=None):
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
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
