import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from tilrma import cli, engine, wavio
from tilrma.stft import StftConfig, analyze


@pytest.fixture
def mixture_fixture(tmp_path):
    """Two-channel instantaneous mixture of two distinguishable sources."""
    rng = np.random.default_rng(0)
    n = 8000
    t = np.arange(n) / 8000.0
    s1 = np.sin(2 * np.pi * 440 * t) * (0.6 + 0.4 * np.sin(2 * np.pi * 3 * t))
    s2 = rng.standard_normal(n) * np.clip(np.sin(2 * np.pi * 1.5 * t), 0.05, None)
    sources = np.stack([s1, s2], axis=1) * 0.3
    mix_mat = np.array([[1.0, 0.6], [0.5, 1.0]])
    mixture = sources @ mix_mat.T

    mix_path = tmp_path / "mixture.wav"
    wavio.write_wav(mix_path, mixture, 8000, "float64")
    ref_paths = []
    for k in range(2):
        ref = tmp_path / f"ref{k}.wav"
        wavio.write_wav(ref, sources[:, k], 8000, "float64")
        ref_paths.append(str(ref))
    return mix_path, ref_paths


SMALL_STFT = ["--window-ms", "64", "--shift-ms", "16"]

# Traced bytes of a ``separate`` call above the engine's run state: the WAV
# read, the STFT and the output stage's buffers.  Measured 0.60 MB for 2 s
# and 8 s of the three-channel mixture below at 8 kHz, on 1 and 2 workers.
CLI_PEAK_SLACK = 1_000_000


class TestSeparate:
    def test_smoke_gaussian(self, mixture_fixture, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(engine, "_worker_count", lambda: 3)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        mix_path, _ = mixture_fixture
        out = tmp_path / "out"
        code = cli.main(
            ["separate", str(mix_path), "--nu", "inf", "--p", "2", "--iters", "4",
             "--seed", "1", "--out", str(out)] + SMALL_STFT
        )
        assert code == 0
        assert (out / "source_1.wav").exists()
        assert (out / "source_2.wav").exists()
        report = json.loads((out / "result.json").read_text())
        assert report["schema_version"] == 2
        assert report["hyperparams"]["nu"] == "inf"
        assert report["hyperparams"]["seed"] == 1
        assert len(report["cost_trace"]) == 4
        assert report["stage_boundary"] is None
        assert report["timings"]["workers"] == 3
        environment = report["environment"]
        assert environment["numpy"] == np.__version__
        assert environment["blas_threads"]["OMP_NUM_THREADS"] == "1"
        assert environment["blas_threads"]["MKL_NUM_THREADS"] is None
        samples, rate = wavio.read_wav(out / "source_1.wav")
        assert rate == 8000.0
        assert samples.shape[1] == 2  # sources are emitted as multichannel images

    def test_two_stage_protocol_flags(self, mixture_fixture, tmp_path):
        mix_path, _ = mixture_fixture
        out = tmp_path / "out2"
        code = cli.main(
            ["separate", str(mix_path), "--two-stage", "--nu", "10", "--p", "1",
             "--iters", "8", "--stage1-iters", "4", "--out", str(out)] + SMALL_STFT
        )
        assert code == 0
        report = json.loads((out / "result.json").read_text())
        assert report["stage_boundary"] == 4
        assert report["hyperparams"]["gaussian_iters"] == 4
        assert len(report["cost_trace"]) == 8

    def test_hyperparams_in_result_reproduce_the_run(self, mixture_fixture, tmp_path):
        # README: the hyperparameters in result.json reproduce the run bitwise
        mix_path, _ = mixture_fixture
        out = tmp_path / "out_again"
        argv = ["separate", str(mix_path), "--two-stage", "--nu", "10", "--p", "1.5",
                "--iters", "6", "--stage1-iters", "3", "--refit-iters", "4", "--seed", "2",
                "--out", str(out)] + SMALL_STFT
        assert cli.main(argv) == 0
        report = json.loads((out / "result.json").read_text())
        saved = report["hyperparams"]
        hyper = engine.HyperParams(**{**saved, "nu": float(saved["nu"])})
        assert hyper == cli._build_hyper(cli.build_parser().parse_args(argv))
        samples, rate = wavio.read_wav(mix_path)
        spec = analyze(samples, StftConfig(rate, report["stft"]["window_ms"],
                                           report["stft"]["shift_ms"]))
        again = engine.separate(spec, hyper)
        assert again.cost_trace.tolist() == report["cost_trace"]

    def test_reference_evaluation(self, mixture_fixture, tmp_path):
        mix_path, ref_paths = mixture_fixture
        out = tmp_path / "out3"
        code = cli.main(
            ["separate", str(mix_path), "--iters", "30", "--refs"] + ref_paths
            + ["--taps", "1", "--out", str(out)] + SMALL_STFT
        )
        assert code == 0
        report = json.loads((out / "result.json").read_text())
        ev = report["evaluation"]
        assert sorted(ev["permutation"]) == [0, 1]
        assert len(ev["per_source_sdr_db"]) == 2
        assert ev["mean_improvement_db"] is not None

    def test_mono_input_fails_cleanly(self, tmp_path, capsys):
        mono = tmp_path / "mono.wav"
        wavio.write_wav(mono, np.zeros(4000), 8000, "pcm16")
        out = tmp_path / "out_mono"
        code = cli.main(["separate", str(mono), "--iters", "1", "--out", str(out)] + SMALL_STFT)
        assert code == 1
        assert "error: separation needs at least two channels" in capsys.readouterr().err
        assert not out.exists()

    def test_window_of_zero_samples_fails_cleanly(self, mixture_fixture, tmp_path, capsys):
        mix_path, _ = mixture_fixture
        out = tmp_path / "out_window"
        code = cli.main(["separate", str(mix_path), "--window-ms", "0.01",
                         "--shift-ms", "0.0025", "--out", str(out)])
        assert code == 1
        assert re.search(r"^error: a 0.01 ms window is 0 samples", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "defect,message",
        [
            ("duplicated", r"channel 2 duplicates channel\(s\) 1"),
            ("zeroed", r"silent channel\(s\) 1"),
            ("non-finite", r"input samples must be finite"),
        ],
    )
    def test_unusable_input_is_rejected_before_separation(self, mixture_fixture, tmp_path, capsys,
                                                    defect, message):
        mix_path, _ = mixture_fixture
        samples, rate = wavio.read_wav(mix_path)
        if defect == "duplicated":
            samples[:, 1] = samples[:, 0]
        elif defect == "zeroed":
            samples[:, 0] = 0.0
        bad = tmp_path / "bad.wav"
        wavio.write_wav(bad, samples, rate, "float32")
        if defect == "non-finite":
            # the writer refuses NaN, so patch the last sample in place
            data = bytearray(bad.read_bytes())
            data[-4:] = np.array([np.nan], dtype="<f4").tobytes()
            bad.write_bytes(bytes(data))
        out = tmp_path / "out_bad"
        code = cli.main(["separate", str(bad), "--iters", "5", "--out", str(out)] + SMALL_STFT)
        assert code == 1
        assert re.search(r"^error: " + message, capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize(
        "defect,message",
        [
            ("one-ref", r"need exactly one reference per source"),
            ("missing-ref", r"nope\.wav"),
            ("ref-rate", r"ref1\.wav is at 16000 Hz, the input at 8000 Hz"),
            ("ref-channels", r"ref1\.wav has 2 channels; --ref-channel 3 needs a mono reference"),
            ("silent-ref", r"ref0\.wav is all-zero over the 8000 scored samples"),
            ("nan-ref", r"ref1\.wav has non-finite samples"),
            ("ill-conditioned-ref",
             r"ref0\.wav: projection normal equations ill-conditioned \(taps=512\)"),
        ],
        ids=["one-ref", "missing-ref", "ref-rate", "ref-channels", "silent-ref", "nan-ref",
             "ill-conditioned-ref"],
    )
    def test_bad_evaluation_arguments_are_rejected_before_separation(
            self, mixture_fixture, tmp_path, capsys, defect, message):
        mix_path, ref_paths = mixture_fixture
        extra = []
        if defect == "one-ref":
            ref_paths = ref_paths[:1]
        elif defect == "missing-ref":
            ref_paths = [ref_paths[0], str(tmp_path / "nope.wav")]
        elif defect == "ref-rate":
            samples, _ = wavio.read_wav(ref_paths[1])
            wavio.write_wav(ref_paths[1], samples, 16000, "float64")
        elif defect == "ref-channels":
            # a third, independent channel; ref1 has 2 channels, so it has no channel 3
            samples, rate = wavio.read_wav(mix_path)
            third = np.random.default_rng(1).standard_normal(samples.shape[0]) * 0.1
            mix_path = tmp_path / "mixture3.wav"
            wavio.write_wav(mix_path, np.column_stack([samples, third]), rate, "float64")
            mono, _ = wavio.read_wav(ref_paths[1])
            wavio.write_wav(ref_paths[1], np.column_stack([mono, mono]), rate, "float64")
            ref_paths = ref_paths + [ref_paths[0]]
            extra = ["--ref-channel", "3"]
        elif defect == "silent-ref":
            wavio.write_wav(ref_paths[0], np.zeros(8000), 8000, "float64")
        elif defect == "nan-ref":
            # the writer refuses NaN, so patch the last sample in place
            data = bytearray(Path(ref_paths[1]).read_bytes())
            data[-8:] = np.array([np.nan], dtype="<f8").tobytes()
            Path(ref_paths[1]).write_bytes(bytes(data))
        elif defect == "ill-conditioned-ref":
            # a tone under a Hann^4 window: its 512 delayed copies are
            # numerically collinear, so only the scoring would have found it
            t = np.arange(8000) / 8000.0
            tone = np.sin(2 * np.pi * 440 * t) * np.hanning(8000) ** 4
            wavio.write_wav(ref_paths[0], tone, 8000, "float64")
            extra = ["--taps", "512"]
        out = tmp_path / "out_eval"
        code = cli.main(["separate", str(mix_path), "--iters", "2", "--refs", *ref_paths,
                         "--taps", "1", "--out", str(out)] + extra + SMALL_STFT)
        assert code == 1
        assert re.search(r"^error: .*" + message, capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("out", ["taken", "taken/sub"])
    def test_out_that_cannot_be_a_directory_is_rejected_before_separation(
            self, mixture_fixture, tmp_path, capsys, monkeypatch, out):
        def refuse(spec, hp):
            raise AssertionError("separated although --out cannot be made")

        monkeypatch.setattr(cli.engine, "separate", refuse)
        (tmp_path / "taken").write_text("a file, not a directory\n")
        before = sorted(tmp_path.rglob("*"))
        mix_path, _ = mixture_fixture
        code = cli.main(["separate", str(mix_path), "--iters", "2",
                         "--out", str(tmp_path / out)] + SMALL_STFT)
        assert code == 1
        taken = re.escape(str(tmp_path / "taken"))
        assert re.search(rf"^error: --out {re.escape(str(tmp_path / out))}: {taken} exists "
                         r"and is not a directory$", capsys.readouterr().err)
        assert sorted(tmp_path.rglob("*")) == before

    def test_failed_allocation_fails_cleanly(self, mixture_fixture, tmp_path, capsys,
                                             monkeypatch):
        # as a --taps far beyond the reference's length does: its normal
        # equations are taps x taps
        def refuse(name, reference, taps):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(cli.metrics, "check_reference", refuse)
        mix_path, ref_paths = mixture_fixture
        out = tmp_path / "out_eval"
        code = cli.main(["separate", str(mix_path), "--iters", "2", "--refs", *ref_paths,
                         "--taps", "16", "--out", str(out)] + SMALL_STFT)
        assert code == 1
        assert capsys.readouterr().err.startswith("error: Unable to allocate")
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_memory_peak_is_the_run_state(self, tmp_path, monkeypatch, workers):
        # the sources are written one at a time, so the engine's run state
        # sets the peak: (16M + 8M^2 + 16M + 16 workers) bytes per bin and frame
        monkeypatch.setattr(engine, "_worker_count", lambda: workers)
        rate, n = 8000, 16000
        rng = np.random.default_rng(0)
        t = np.arange(n) / rate
        sources = 0.3 * np.stack([
            np.sin(2 * np.pi * 440 * t) * (0.6 + 0.4 * np.sin(2 * np.pi * 3 * t)),
            rng.standard_normal(n) * np.clip(np.sin(2 * np.pi * 1.5 * t), 0.05, None),
            0.5 * np.sign(np.sin(2 * np.pi * 97 * t)),
        ], axis=1)
        mixing = np.array([[1.0, 0.5, 0.3], [0.4, 1.0, 0.5], [0.2, 0.6, 1.0]])
        mix_path = tmp_path / "mixture3.wav"
        wavio.write_wav(mix_path, sources @ mixing.T, rate, "float32")
        tracemalloc.start()
        try:
            code = cli.main(["separate", str(mix_path), "--iters", "2",
                             "--out", str(tmp_path / "out")] + SMALL_STFT)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        bins, frames = 257, 127  # a 512-sample window and 128-sample shift over 16000 samples
        run_state = (16 * 3 + 8 * 9 + 16 * 3 + 16 * workers) * bins * frames
        assert peak <= run_state + CLI_PEAK_SLACK, (peak, run_state)

    def test_missing_file_fails_cleanly(self, tmp_path):
        code = cli.main(["separate", str(tmp_path / "nope.wav")])
        assert code == 1


class TestUsage:
    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == 2

    def test_bad_nu_is_usage_error(self, mixture_fixture):
        mix_path, _ = mixture_fixture
        for nu in ("-3", "nan"):
            with pytest.raises(SystemExit) as info:
                cli.main(["separate", str(mix_path), "--nu", nu])
            assert info.value.code == 2

    @pytest.mark.parametrize("flags, named", [
        (["--p", "3"], "p must"),
        (["--seed", "-1"], "seed"),
        (["--bases", "0"], "num_bases"),
        (["--two-stage", "--stage1-iters", "0"], "gaussian_iters"),
    ])
    def test_bad_hyperparameter_is_usage_error(self, tmp_path, capsys, flags, named):
        # the input does not exist: the value is rejected before any file is read
        with pytest.raises(SystemExit) as info:
            cli.main(["separate", str(tmp_path / "missing.wav"), *flags])
        assert info.value.code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("flags, named", [
        (["--window-ms", "0"], "window_length_ms must be positive and finite, got 0"),
        (["--window-ms", "-5"], "window_length_ms must be positive and finite, got -5"),
        (["--window-ms", "inf"], "window_length_ms must be positive and finite, got inf"),
        (["--shift-ms", "0"], "shift_ms must be positive and finite, got 0"),
        (["--shift-ms", "nan"], "shift_ms must be positive and finite, got nan"),
        (["--window-ms", "100", "--shift-ms", "30"],
         "window_length_ms must be an integer multiple (>= 2) of shift_ms, got 100 and 30"),
        (["--taps", "0"], "--taps must be at least 1, got 0"),
        (["--ref-channel", "0"], "--ref-channel must be at least 1, got 0"),
    ], ids=["window-zero", "window-negative", "window-infinite", "shift-zero", "shift-nan",
            "window-not-multiple", "taps-zero", "ref-channel-zero"])
    def test_bad_argument_is_usage_error_before_input_is_read(self, tmp_path, capsys, flags,
                                                               named):
        with pytest.raises(SystemExit) as info:
            cli.main(["separate", str(tmp_path / "missing.wav"), *flags])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert named in err and "missing.wav" not in err

    @pytest.mark.parametrize("text", ["inf", "Infinity"])
    def test_nu_reads_infinity(self, text):
        args = cli.build_parser().parse_args(["separate", "x.wav", "--nu", text])
        assert args.nu == math.inf

    @pytest.mark.parametrize("flag", ["--stage1-iters", "--refit-iters"])
    def test_schedule_flag_needs_two_stage(self, mixture_fixture, tmp_path, capsys, flag):
        mix_path, _ = mixture_fixture
        with pytest.raises(SystemExit) as info:
            cli.main(["separate", str(mix_path), flag, "50", "--iters", "2",
                      "--out", str(tmp_path / "out")] + SMALL_STFT)
        assert info.value.code == 2
        assert "--two-stage" in capsys.readouterr().err
