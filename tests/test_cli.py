import contextlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import poksvd
import poksvd.cli
from poksvd import pursuit
from poksvd.cli import build_parser, main, parse_args
from poksvd.dictio import MAGIC, load_dictionary, save_dictionary
from poksvd.pipeline import apply_mask, denoise, random_dictionary
from poksvd.pursuit import PursuitConfig
from poksvd.stft import StftConfig, istft, stft
from poksvd.wavio import read_wav, write_wav


@pytest.fixture
def noise_wav(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "noise.wav"
    write_wav(path, 0.1 * rng.standard_normal((2000, 2)), 8000)
    return path


def train_args(noise_wav, out, extra=()):
    return [
        "train", "--input", str(noise_wav), "--output", str(out),
        "-K", "3", "--smax", "1", "--iters", "2", "--window-len", "32",
        "--hop", "16", "--seed", "1",
    ] + list(extra)


class TestTrain:
    def test_writes_loadable_dictionary(self, tmp_path, noise_wav, capsys):
        out = tmp_path / "d.bin"
        assert main(train_args(noise_wav, out)) == 0
        D, cfg = load_dictionary(out)
        assert D.num_atoms == 3
        assert D.channels == 2
        assert D.bins == 17
        assert (cfg.window_len, cfg.hop) == (32, 16)
        # progress lines go to stderr
        err = capsys.readouterr().err
        assert "iteration=1" in err and "objective=" in err

    def test_deterministic_outputs(self, tmp_path, noise_wav):
        p1, p2 = tmp_path / "d1.bin", tmp_path / "d2.bin"
        assert main(train_args(noise_wav, p1)) == 0
        assert main(train_args(noise_wav, p2)) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_channel_subset(self, tmp_path, noise_wav):
        out = tmp_path / "d.bin"
        assert main(train_args(noise_wav, out, ["--channels", "0"])) == 0
        D, _ = load_dictionary(out)
        assert D.channels == 1

    def test_missing_input_is_io_error(self, tmp_path):
        rc = main(["train", "--input", str(tmp_path / "no.wav"),
                   "--output", str(tmp_path / "d.bin")])
        assert rc == 2

    def test_bad_channel_is_value_error(self, tmp_path, noise_wav):
        rc = main(train_args(noise_wav, tmp_path / "d.bin", ["--channels", "5"]))
        assert rc == 1

    @pytest.mark.parametrize("command", ["train", "denoise", "code"])
    def test_empty_channel_list_rejected(self, tmp_path, noise_wav, capsys, command):
        d = tmp_path / "d.bin"
        main(train_args(noise_wav, d))
        capsys.readouterr()
        argv = train_args(noise_wav, tmp_path / "e.bin") if command == "train" else [
            command, "--input", str(noise_wav), "--dict", str(d), "--output",
            str(tmp_path / "out"), "--window-len", "32", "--hop", "16"]
        assert main(argv + ["--channels", ","]) == 1
        assert "no channels selected" in capsys.readouterr().err


class TestConfigFile:
    def test_file_values_used_and_flags_win(self, tmp_path, noise_wav):
        cfgfile = tmp_path / "train.cfg"
        cfgfile.write_text(
            "# training setup\n"
            "K = 4\n"
            "iters = 2\n"
            "window-len = 32  # matches the recording\n"
            "hop = 16\n"
            "smax = 1\n"
            "seed = 1\n"
        )
        out = tmp_path / "d.bin"
        rc = main(["train", "--input", str(noise_wav), "--output", str(out),
                   "--config", str(cfgfile), "-K", "2"])
        assert rc == 0
        D, _ = load_dictionary(out)
        assert D.num_atoms == 2  # explicit flag overrides the file's K=4

    def test_unknown_key_rejected(self, tmp_path, noise_wav):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("atoms = 4\n")
        rc = main(["train", "--input", str(noise_wav),
                   "--output", str(tmp_path / "d.bin"), "--config", str(cfgfile)])
        assert rc == 1

    def test_key_of_another_subcommand_rejected(self, tmp_path, noise_wav, capsys):
        d = tmp_path / "d.bin"
        assert main(train_args(noise_wav, d)) == 0
        for command, line in (("denoise", "K = 4"), ("code", "mask = true")):
            cfgfile = tmp_path / (command + ".cfg")
            cfgfile.write_text("smax = 1\n%s\n" % line)
            out = tmp_path / (command + ".out")
            capsys.readouterr()
            rc = main([command, "--input", str(noise_wav), "--dict", str(d), "--output", str(out),
                       "--window-len", "32", "--hop", "16", "--config", str(cfgfile)])
            assert rc == 1
            assert "%s:2" % cfgfile in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("line", ["smax = abc", "selection-rule = greedy", "no-phase = maybe"])
    def test_bad_value_names_file_and_line(self, tmp_path, noise_wav, capsys, line):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("K = 4\n%s\n" % line)
        rc = main(["train", "--input", str(noise_wav),
                   "--output", str(tmp_path / "d.bin"), "--config", str(cfgfile)])
        assert rc == 1
        assert "%s:2" % cfgfile in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "denoise", "code", "synth", "eval"])
    def test_missing_file_is_io_error(self, tmp_path, noise_wav, command):
        argv = _required_flags(command, value=str(noise_wav))
        assert main(argv + ["--config", str(tmp_path / "none.cfg")]) == 2

    def test_no_phase_and_emit_noise_from_file(self, tmp_path, noise_wav):
        d = tmp_path / "d.bin"
        main(train_args(noise_wav, d))
        cfgfile = tmp_path / "denoise.cfg"
        cfgfile.write_text("no_phase = true\nemit-noise = %s\n" % (tmp_path / "file_noise.wav"))
        common = ["denoise", "--input", str(noise_wav), "--dict", str(d),
                  "--window-len", "32", "--hop", "16", "--output"]
        assert main(common + [str(tmp_path / "file.wav"), "--config", str(cfgfile)]) == 0
        assert main(common + [str(tmp_path / "flag.wav"), "--no-phase",
                              "--emit-noise", str(tmp_path / "flag_noise.wav")]) == 0
        assert main(common + [str(tmp_path / "po.wav")]) == 0
        for name in ("%s.wav", "%s_noise.wav"):
            assert (tmp_path / (name % "file")).read_bytes() == (tmp_path / (name % "flag")).read_bytes()
        assert (tmp_path / "file.wav").read_bytes() != (tmp_path / "po.wav").read_bytes()

    def test_malformed_line_rejected(self, tmp_path, noise_wav):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("just some words\n")
        rc = main(["train", "--input", str(noise_wav),
                   "--output", str(tmp_path / "d.bin"), "--config", str(cfgfile)])
        assert rc == 1


def _options():
    """(subcommand, argparse action) for every option a config file may set."""
    commands = build_parser()._subparsers._group_actions[0].choices
    return [(name, a) for name, p in commands.items() for a in p._actions
            if a.option_strings and a.dest not in ("help", "config")]


def _sample(option, second=False):
    """A value for ``option`` that differs from its default (and from the
    first sample when ``second``)."""
    if option.choices:
        return option.choices[0 if second else -1]
    return {int: ("7", "9"), float: ("0.25", "0.75")}.get(
        option.type, ("a.wav", "b.wav"))[second]


def _required_flags(command, skip=None, value="x.wav"):
    """The subcommand and ``value`` for each of its required options other
    than ``skip``."""
    out = [command]
    for name, a in _options():
        if name == command and a.required and a.dest != skip:
            out += [a.option_strings[-1], value]
    return out


class TestConfigFromParser:
    @pytest.mark.parametrize("command, option", _options(),
                             ids=["%s-%s" % (c, o.dest) for c, o in _options()])
    def test_file_value_parses_like_the_flag(self, tmp_path, command, option):
        base = _required_flags(command, skip=option.dest)
        flag = option.option_strings[-1]
        if option.nargs == 0:
            text, other, by_flag = "true", "false", [flag]
        else:
            text, other = _sample(option), _sample(option, second=True)
            by_flag = [flag, text]
        cfg = tmp_path / "c.cfg"
        cfg.write_text("%s = %s\n" % (option.dest, text))
        from_flag = dict(vars(parse_args(base + by_flag)), config=str(cfg))
        from_file = vars(parse_args(base + ["--config", str(cfg)]))
        assert from_file == from_flag
        assert from_file[option.dest] != option.default
        # a flag wins over the file, whichever spelling the key uses
        cfg.write_text("%s = %s\n" % (flag.lstrip("-"), other))
        assert vars(parse_args(base + ["--config", str(cfg)] + by_flag)) == from_flag

    @pytest.mark.parametrize("command, flag, value", [
        ("denoise", "--seed", "1"), ("code", "--seed", "1"), ("eval", "--seed", "1"),
        ("synth", "--channels", "two"),
    ])
    def test_usage_error(self, command, flag, value):
        # only train and synth draw random numbers; synth --channels is a count
        with pytest.raises(SystemExit) as exc:
            main(_required_flags(command) + [flag, value])
        assert exc.value.code == 2


class TestSynthAndCode:
    def test_synth_outputs(self, tmp_path):
        wav = tmp_path / "s.wav"
        frames = tmp_path / "frames.npy"
        dict_out = tmp_path / "true.bin"
        rc = main(["synth", "--output", str(wav), "--frames-out", str(frames),
                   "--dict-out", str(dict_out), "-K", "4", "--smax", "2",
                   "--bins", "9", "--frames", "20", "--seed", "3"])
        assert rc == 0
        samples, rate = read_wav(wav)
        assert rate == 16000 and samples.shape[1] == 2
        Y = np.load(frames)
        assert Y.shape == (18, 20)
        D, _ = load_dictionary(dict_out)
        assert (D.bins, D.num_atoms) == (9, 4)

    def test_code_emits_one_record_per_frame(self, tmp_path):
        frames = tmp_path / "frames.npy"
        dict_out = tmp_path / "true.bin"
        main(["synth", "--frames-out", str(frames), "--dict-out", str(dict_out),
              "-K", "4", "--smax", "2", "--bins", "9", "--frames", "15",
              "--seed", "3"])
        out = tmp_path / "codes.jsonl"
        rc = main(["code", "--input", str(frames), "--dict", str(dict_out),
                   "--output", str(out), "--smax", "2", "--tau", "1e-8"])
        assert rc == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 15
        for t, rec in enumerate(records):
            assert rec["frame"] == t
            assert len(rec["support"]) <= 2
            assert len(rec["gains"]) == len(rec["support"])
            assert rec["residual_norm"] >= 0

    def test_code_rejects_wrong_frame_shape(self, tmp_path):
        dict_out = tmp_path / "true.bin"
        main(["synth", "--dict-out", str(dict_out), "-K", "4", "--smax", "2",
              "--bins", "9", "--frames", "10", "--seed", "3"])
        bad = tmp_path / "bad.npy"
        np.save(bad, np.zeros((7, 4), dtype=complex))
        rc = main(["code", "--input", str(bad), "--dict", str(dict_out)])
        assert rc == 1

    @pytest.mark.parametrize("flags", [["--channels", "7"], ["--window-len", "3"], ["--hop", "4"],
                                       ["--channels", "0", "--window-len", "16"]])
    def test_code_rejects_input_flags_on_a_frame_file(self, tmp_path, capsys, flags):
        frames, dict_out = tmp_path / "frames.npy", tmp_path / "true.bin"
        main(["synth", "--frames-out", str(frames), "--dict-out", str(dict_out),
              "-K", "4", "--bins", "9", "--frames", "5"])
        out = tmp_path / "codes.jsonl"
        rc = main(["code", "--input", str(frames), "--dict", str(dict_out),
                   "--output", str(out)] + flags)
        assert rc == 1
        assert "frame file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("existing", [None, b"earlier records\n"])
    def test_code_rejecting_its_input_leaves_the_output_alone(self, tmp_path, capsys, existing):
        frames, dict_out = tmp_path / "frames.npy", tmp_path / "true.bin"
        main(["synth", "--frames-out", str(frames), "--dict-out", str(dict_out),
              "-K", "4", "--bins", "9", "--frames", "5"])
        Y = np.load(frames)
        Y[3, 2] = np.nan
        np.save(frames, Y)
        out = tmp_path / "codes.jsonl"
        if existing is not None:
            out.write_bytes(existing)
        rc = main(["code", "--input", str(frames), "--dict", str(dict_out), "--output", str(out)])
        assert rc == 1
        assert "non-finite" in capsys.readouterr().err
        assert (out.read_bytes() if out.exists() else None) == existing
        # nor a temporary file
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["frames.npy", "true.bin"] + ([] if existing is None else ["codes.jsonl"]))

    def test_code_stdout_and_output_file_agree(self, tmp_path, capsys):
        frames, dict_out = tmp_path / "frames.npy", tmp_path / "true.bin"
        main(["synth", "--frames-out", str(frames), "--dict-out", str(dict_out),
              "-K", "4", "--bins", "9", "--frames", "6"])
        out = tmp_path / "codes.jsonl"
        argv = ["code", "--input", str(frames), "--dict", str(dict_out)]
        capsys.readouterr()
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main(argv + ["--output", str(out)]) == 0
        assert out.read_text() == printed and len(printed.splitlines()) == 6

    def test_synth_with_one_bin_rejected_up_front(self, tmp_path, capsys):
        # one bin means a zero-length window: nothing can be rendered or saved
        frames = tmp_path / "frames.npy"
        rc = main(["synth", "--bins", "1", "--frames-out", str(frames)])
        assert rc == 1
        assert "window_len" in capsys.readouterr().err
        assert not frames.exists()

    def test_synth_with_zero_sample_rate_rejected_up_front(self, tmp_path, capsys):
        paths = [tmp_path / name for name in ("s.wav", "frames.npy", "true.bin")]
        rc = main(["synth", "--sample-rate", "0", "--output", str(paths[0]),
                   "--frames-out", str(paths[1]), "--dict-out", str(paths[2])])
        assert rc == 1
        assert "sample_rate" in capsys.readouterr().err
        assert not any(p.exists() for p in paths)


class TestDenoiseAndEval:
    def test_denoise_round_trip(self, tmp_path, noise_wav):
        d = tmp_path / "d.bin"
        assert main(train_args(noise_wav, d)) == 0
        out = tmp_path / "clean.wav"
        noise_est = tmp_path / "residual.wav"
        rc = main(["denoise", "--input", str(noise_wav), "--output", str(out),
                   "--dict", str(d), "--emit-noise", str(noise_est),
                   "--window-len", "32", "--hop", "16", "--smax", "1"])
        assert rc == 0
        clean, rate = read_wav(out)
        est, _ = read_wav(noise_est)
        assert rate == 8000
        assert clean.shape == est.shape

    def test_denoise_with_mask_runs(self, tmp_path, noise_wav):
        d = tmp_path / "d.bin"
        main(train_args(noise_wav, d))
        out = tmp_path / "clean.wav"
        rc = main(["denoise", "--input", str(noise_wav), "--output", str(out),
                   "--dict", str(d), "--mask", "--floor-quantile", "0.2",
                   "--window-len", "32", "--hop", "16"])
        assert rc == 0

    def test_config_file_mask_applies(self, tmp_path, noise_wav):
        d = tmp_path / "d.bin"
        main(train_args(noise_wav, d))
        cfgfile = tmp_path / "denoise.cfg"
        cfgfile.write_text("mask = true\n")
        common = ["denoise", "--input", str(noise_wav), "--dict", str(d),
                  "--window-len", "32", "--hop", "16"]
        outs = {}
        for name, extra in (("flag", ["--mask"]), ("file", ["--config", str(cfgfile)]), ("none", [])):
            outs[name] = tmp_path / ("%s.wav" % name)
            assert main(common + ["--output", str(outs[name])] + extra) == 0
        assert outs["file"].read_bytes() == outs["flag"].read_bytes()
        assert outs["file"].read_bytes() != outs["none"].read_bytes()

    def test_reference_scores_the_coded_channels(self, tmp_path, noise_wav):
        d = tmp_path / "d.bin"
        main(train_args(noise_wav, d, ["--channels", "1"]))
        out = tmp_path / "clean.wav"
        argv = ["denoise", "--input", str(noise_wav), "--output", str(out), "--dict", str(d),
                "--channels", "1", "--window-len", "32", "--hop", "16"]
        assert main(argv) == 0
        clean, rate = read_wav(out)
        # channel 1 of the reference is the output, channel 0 is not
        ref = tmp_path / "ref.wav"
        write_wav(ref, np.column_stack([read_wav(noise_wav)[0][: len(clean), 0], clean[:, 0]]), rate)
        report = tmp_path / "report.json"
        assert main(argv + ["--reference", str(ref), "--report", str(report)]) == 0
        assert json.loads(report.read_text())["sdr_db"] == 100.0
        # a reference without channel 1 is a validation error, not a traceback
        mono = tmp_path / "mono.wav"
        write_wav(mono, clean, rate)
        assert main(argv + ["--reference", str(mono)]) == 1

    def test_provenance_mismatch_rejected(self, tmp_path, noise_wav):
        d = tmp_path / "d.bin"
        main(train_args(noise_wav, d))
        rc = main(["denoise", "--input", str(noise_wav),
                   "--output", str(tmp_path / "c.wav"), "--dict", str(d),
                   "--window-len", "64", "--hop", "32"])
        assert rc == 1

    def test_channel_count_mismatch_rejected(self, tmp_path, noise_wav):
        d = tmp_path / "d.bin"
        main(train_args(noise_wav, d, ["--channels", "0"]))
        rc = main(["denoise", "--input", str(noise_wav),
                   "--output", str(tmp_path / "c.wav"), "--dict", str(d),
                   "--window-len", "32", "--hop", "16"])
        assert rc == 1

    def test_eval_reports_sdr(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        ref = rng.standard_normal((400, 1))
        est = ref + 0.1 * rng.standard_normal((400, 1))
        ref_p, est_p = tmp_path / "ref.wav", tmp_path / "est.wav"
        write_wav(ref_p, ref, 8000)
        write_wav(est_p, est, 8000)
        report = tmp_path / "report.json"
        rc = main(["eval", "--input", str(est_p), "--reference", str(ref_p),
                   "--noise", str(ref_p), "--output", str(report)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "sdr_db=" in out
        data = json.loads(report.read_text())
        assert 15 < data["sdr_db"] < 25
        assert "sir_db" in data

    def test_eval_noise_channel_mismatch_rejected(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        ref = rng.standard_normal((400, 2))
        paths = {name: tmp_path / ("%s.wav" % name) for name in ("ref", "est", "noise")}
        write_wav(paths["ref"], ref, 8000)
        write_wav(paths["est"], ref + 0.1 * rng.standard_normal((400, 2)), 8000)
        write_wav(paths["noise"], rng.standard_normal((400, 1)), 8000)
        rc = main(["eval", "--input", str(paths["est"]), "--reference", str(paths["ref"]),
                   "--noise", str(paths["noise"])])
        assert rc == 1
        assert "noise reference and estimate shapes differ" in capsys.readouterr().err

    def test_eval_missing_reference_is_io_error(self, tmp_path):
        est = tmp_path / "est.wav"
        write_wav(est, np.zeros(10), 8000)
        rc = main(["eval", "--input", str(est),
                   "--reference", str(tmp_path / "none.wav")])
        assert rc == 2

    def test_non_finite_input_is_rejected(self, tmp_path):
        # 3 s of float32 stereo with one NaN sample: exit 1 and no output
        rng = np.random.default_rng(2)
        samples = 0.1 * rng.standard_normal((48000, 2))
        samples[20000, 1] = np.nan
        wav = tmp_path / "nan.wav"
        write_wav(wav, samples, 16000)
        assert np.isnan(read_wav(wav)[0]).sum() == 1
        d = tmp_path / "d.bin"
        save_dictionary(d, random_dictionary(rng, channels=2, bins=33, num_atoms=8),
                        StftConfig(sample_rate=16000, window_len=64, hop=32))
        out, noise = tmp_path / "clean.wav", tmp_path / "noise.wav"
        rc = main(["denoise", "--input", str(wav), "--output", str(out), "--dict", str(d),
                   "--emit-noise", str(noise), "--window-len", "64", "--hop", "32"])
        assert rc == 1
        assert not out.exists() and not noise.exists()
        rc = main(["train", "--input", str(wav), "--output", str(tmp_path / "t.bin"),
                   "-K", "4", "--window-len", "64", "--hop", "32"])
        assert rc == 1
        assert not (tmp_path / "t.bin").exists()

    def test_corrupt_dictionary_is_io_error(self, tmp_path, noise_wav):
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"garbage")
        rc = main(["denoise", "--input", str(noise_wav),
                   "--output", str(tmp_path / "c.wav"), "--dict", str(bad)])
        assert rc == 2

    def test_impossible_stft_header_is_io_error(self, tmp_path, noise_wav, capsys):
        d = tmp_path / "d.bin"
        main(train_args(noise_wav, d))
        blob = bytearray(d.read_bytes())
        # the hop is the last of the six header words after the magic tag
        blob[27:31] = bytes(4)
        d.write_bytes(bytes(blob))
        capsys.readouterr()
        rc = main(["denoise", "--input", str(noise_wav), "--output", str(tmp_path / "c.wav"),
                   "--dict", str(d), "--window-len", "32", "--hop", "16"])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(d) in err and "hop" in err

    def test_zero_sample_rate_header_is_io_error(self, tmp_path, noise_wav, capsys):
        d = tmp_path / "d.bin"
        main(train_args(noise_wav, d))
        blob = bytearray(d.read_bytes())
        # the sample rate is the fourth of the six header words after the magic tag
        blob[19:23] = bytes(4)
        d.write_bytes(bytes(blob))
        capsys.readouterr()
        rc = main(["denoise", "--input", str(noise_wav), "--output", str(tmp_path / "c.wav"),
                   "--dict", str(d), "--window-len", "32", "--hop", "16"])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(d) in err and "sample_rate" in err
        assert not (tmp_path / "c.wav").exists()

    @pytest.mark.parametrize("command", ["denoise", "code"])
    def test_dictionary_with_no_atoms_is_io_error(self, tmp_path, noise_wav, capsys, command):
        d = tmp_path / "d.bin"
        d.write_bytes(MAGIC + struct.pack("<6I", 2, 17, 0, 8000, 32, 16))
        out = tmp_path / "out"
        capsys.readouterr()
        rc = main([command, "--input", str(noise_wav), "--output", str(out), "--dict", str(d),
                   "--window-len", "32", "--hop", "16"])
        assert rc == 2
        assert "error: %s: header has M=2, F=17, K=0" % d in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "denoise", "code", "eval"])
    def test_zero_sample_rate_wav_is_io_error(self, tmp_path, noise_wav, capsys, command):
        d = tmp_path / "d.bin"
        main(train_args(noise_wav, d))
        blob = bytearray(noise_wav.read_bytes())
        blob[24:28] = bytes(4)  # the sample rate word of the 'fmt ' chunk at byte 12
        bad = tmp_path / "rate0.wav"
        bad.write_bytes(bytes(blob))
        out = tmp_path / "out"
        argv = {
            "train": train_args(bad, out),
            "denoise": ["denoise", "--input", str(bad), "--output", str(out), "--dict", str(d)],
            "code": ["code", "--input", str(bad), "--output", str(out), "--dict", str(d)],
            "eval": ["eval", "--input", str(bad), "--reference", str(noise_wav)],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert "%s: invalid sample rate 0 in 'fmt ' chunk at byte 12" % bad in capsys.readouterr().err
        assert not out.exists()

    def test_outputs_get_the_mode_of_a_plain_open(self, tmp_path, noise_wav):
        old = os.umask(0o022)
        try:
            assert main(train_args(noise_wav, tmp_path / "d.bin")) == 0
            assert main(["denoise", "--input", str(noise_wav), "--output", str(tmp_path / "c.wav"),
                         "--dict", str(tmp_path / "d.bin"), "--window-len", "32", "--hop", "16",
                         "--reference", str(noise_wav), "--report", str(tmp_path / "r.json")]) == 0
        finally:
            os.umask(old)
        for name in ("d.bin", "c.wav", "r.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o644, name


@contextlib.contextmanager
def chunks(workers, block, bins, atoms):
    """``poksvd denoise``'s chunk set to ``2 * workers * block`` frames: the
    cores and score budget that give ``block``-frame column blocks, two per
    core in each chunk."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pursuit, "_worker_count", lambda: workers)
        mp.setattr(pursuit, "SCORE_BUDGET_BYTES", block * workers * 16 * bins * atoms)
        assert pursuit.chunk_width(bins, atoms) == 2 * workers * block
        yield


def stream_case(tmp, rng, samples, fmt, used, hop, window=16, atoms=3):
    """A WAV of ``samples`` and a dictionary for its ``used`` channels."""
    wav, d = tmp / "mix.wav", tmp / "d.bin"
    write_wav(wav, samples, 8000, fmt)
    cfg = StftConfig(sample_rate=8000, window_len=window, hop=hop)
    save_dictionary(d, random_dictionary(rng, len(used), window // 2 + 1, atoms), cfg)
    return wav, d, ["--window-len", str(window), "--hop", str(hop)]


class TestStreamedDenoise:
    """``poksvd denoise`` codes its input in chunks of frames, which the
    small fixtures above never split; here chunks of 1-8 frames are forced."""

    # Channel subsets of a 1-3 channel PCM16 or float32 input; hops of
    # window/1, /2 and /4; T = q chunks + r frames, below one chunk (q = 0)
    # and an exact multiple (r = 0) included, plus a partial trailing window.
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(["pcm16", "float32"]), st.integers(1, 3), st.data(),
           st.sampled_from([16, 8, 4]), st.integers(1, 2), st.integers(1, 4), st.integers(0, 3),
           st.integers(0, 7), st.booleans(), st.booleans(), st.booleans(), st.integers(0, 2**32 - 1))
    @example("pcm16", 2, None, 8, 2, 2, 0, 3, False, False, False, 0)  # T below one chunk
    @example("float32", 2, None, 4, 2, 2, 3, 0, True, True, True, 1)  # T three chunks exactly
    def test_streamed_outputs_match_the_whole_file(self, tmp_path_factory, fmt, inputs, data,
                                                   hop, workers, block, q, r, emit, no_phase, mask, seed):
        chunk = 2 * workers * block
        frames = max(1, q * chunk + r % chunk)
        used = list(range(inputs)) if data is None else data.draw(
            st.permutations(range(inputs)).flatmap(lambda p: st.integers(1, inputs).map(lambda k: p[:k])))
        rng = np.random.default_rng(seed)
        samples = 0.3 * rng.standard_normal(((frames - 1) * hop + 16 + seed % hop, inputs))
        tmp = tmp_path_factory.mktemp("stream")
        wav, d, flags = stream_case(tmp, rng, samples, fmt, used, hop)
        argv = ["denoise", "--input", str(wav), "--dict", str(d), "--output", str(tmp / "out.wav"),
                "--smax", "2", "--channels", ",".join(map(str, used))] + flags
        argv += ["--emit-noise", str(tmp / "noise.wav")] if emit else []
        argv += ["--no-phase"] if no_phase else []
        argv += ["--mask"] if mask else []
        with chunks(workers, block, 9, 3):
            assert main(argv) == 0

        x, rate = read_wav(wav)
        D, cfg = load_dictionary(d)
        target, noise = denoise(stft(x[:, used], cfg), D, PursuitConfig(s_max=2, phase_optimization=not no_phase))
        if mask:
            target = apply_mask(target, noise)
        assert target.frames == frames
        write_wav(tmp / "whole_out.wav", istft(target), rate)
        write_wav(tmp / "whole_noise.wav", istft(noise), rate)
        assert (tmp / "out.wav").read_bytes() == (tmp / "whole_out.wav").read_bytes()
        assert (tmp / "noise.wav").exists() == emit
        if emit:
            assert (tmp / "noise.wav").read_bytes() == (tmp / "whole_noise.wav").read_bytes()
        assert list(tmp.glob("*.tmp")) == []

    def test_nan_after_the_first_chunk_leaves_no_output(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(7)
        samples = 0.3 * rng.standard_normal((8 * 20 + 8, 2))
        samples[8 * 13, 1] = np.nan  # in frames 12 and 13: the fourth 4-frame chunk
        wav, d, flags = stream_case(tmp_path, rng, samples, "float32", [0, 1], 8)
        coded = []
        monkeypatch.setattr(poksvd.cli, "denoise", lambda spec, *a, **k: coded.append(spec.frames)
                            or denoise(spec, *a, **k))
        (tmp_path / "noise.wav").write_bytes(b"kept")
        capsys.readouterr()
        with chunks(2, 1, 9, 3):
            rc = main(["denoise", "--input", str(wav), "--dict", str(d), "--output", str(tmp_path / "out.wav"),
                       "--emit-noise", str(tmp_path / "noise.wav")] + flags)
        assert rc == 1
        assert "error: signal has non-finite samples" in capsys.readouterr().err
        assert coded == [4, 4, 4]
        assert not (tmp_path / "out.wav").exists()
        assert (tmp_path / "noise.wav").read_bytes() == b"kept"
        assert list(tmp_path.glob("*.tmp")) == []

    @pytest.mark.parametrize("fault, rc, message", [
        ("short", 1, "error: input too short: 15 samples < window_len 16"),
        ("channels", 1, "error: channel-count mismatch: dictionary has 2, input provides 1"),
        ("provenance", 1, "error: STFT provenance mismatch: dictionary has StftConfig(sample_rate=8000, "
                          "window_len=16, hop=8), input requires StftConfig(sample_rate=8000, window_len=16, hop=4)"),
        ("truncated", 2, "truncated 'data' chunk at byte 36 (need 800 bytes)"),
        ("format", 2, "unsupported format (code 7, 32 bits); only PCM16 and float32"),
    ])
    def test_bad_input_fails_before_any_coding(self, tmp_path, capsys, monkeypatch, fault, rc, message):
        rng = np.random.default_rng(8)
        samples = 0.3 * rng.standard_normal((15 if fault == "short" else 100, 2))
        wav, d, flags = stream_case(tmp_path, rng, samples, "float32", [0, 1], 8)
        if fault == "channels":
            flags += ["--channels", "1"]
        if fault == "provenance":
            flags[-1] = "4"
        if fault in ("truncated", "format"):
            blob = bytearray(wav.read_bytes())
            if fault == "format":
                blob[20:22] = (7).to_bytes(2, "little")
            wav.write_bytes(bytes(blob[:-1] if fault == "truncated" else blob))
        monkeypatch.setattr(poksvd.cli, "denoise", lambda *a, **k: pytest.fail("coded a frame"))
        capsys.readouterr()
        assert main(["denoise", "--input", str(wav), "--dict", str(d), "--output",
                     str(tmp_path / "out.wav")] + flags) == rc
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.bin", "mix.wav"]

    def test_memory_does_not_grow_with_the_input(self, tmp_path):
        rng = np.random.default_rng(9)
        samples = 0.3 * rng.standard_normal((16 * 1600 + 16, 2))
        wav, d, flags = stream_case(tmp_path, rng, samples, "float32", [0, 1], 16, window=32)
        write_wav(tmp_path / "short.wav", samples[: 16 * 200 + 16], 8000)
        def peak(path):
            argv = ["denoise", "--input", str(path), "--dict", str(d), "--output", str(tmp_path / "out.wav"),
                    "--emit-noise", str(tmp_path / "noise.wav"), "--smax", "2"] + flags
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with chunks(1, 8, 17, 3):
            peak(tmp_path / "short.wav")  # a first call also holds one-time allocations
            short, long = peak(tmp_path / "short.wav"), peak(wav)
        # 1601 frames against 201: whole-file arrays alone would grow eightfold
        assert long <= 1.2 * short


def test_cli_import_leaves_scipy_optimize_unloaded():
    src = os.path.dirname(os.path.dirname(poksvd.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, poksvd.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
