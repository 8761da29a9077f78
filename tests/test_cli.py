import json
import re
from pathlib import Path

import numpy as np
import pytest

from tilrma import cli, engine, wavio


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
        assert report["schema_version"] == 1
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
        assert report["hyperparams"]["schedule"]["gaussian_iters"] == 4
        assert len(report["cost_trace"]) == 8

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
            ("zero-taps", r"--taps must be at least 1"),
            ("ref-rate", r"ref1\.wav is at 16000 Hz, the input at 8000 Hz"),
            ("ref-channels", r"ref1\.wav has 2 channels; --ref-channel 3 needs a mono reference"),
            ("silent-ref", r"ref0\.wav is all-zero over the 8000 scored samples"),
            ("nan-ref", r"ref1\.wav has non-finite samples"),
        ],
        ids=["one-ref", "missing-ref", "zero-taps", "ref-rate", "ref-channels", "silent-ref",
             "nan-ref"],
    )
    def test_bad_evaluation_arguments_are_rejected_before_separation(
            self, mixture_fixture, tmp_path, capsys, defect, message):
        mix_path, ref_paths = mixture_fixture
        taps = "1"
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
        else:
            taps = "0"
        out = tmp_path / "out_eval"
        code = cli.main(["separate", str(mix_path), "--iters", "2", "--refs", *ref_paths,
                         "--taps", taps, "--out", str(out)] + extra + SMALL_STFT)
        assert code == 1
        assert re.search(r"^error: .*" + message, capsys.readouterr().err)
        assert not out.exists()

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

    def test_seed_env_fallback(self, monkeypatch):
        monkeypatch.setenv("TILRMA_SEED", "77")
        parser = cli.build_parser()
        args = parser.parse_args(["separate", "x.wav"])
        assert args.seed == 77

    def test_bad_seed_env_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("TILRMA_SEED", "abc")
        with pytest.raises(SystemExit) as info:
            cli.main(["separate", "x.wav"])
        assert info.value.code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--stage1-iters", "--refit-iters"])
    def test_schedule_flag_needs_two_stage(self, mixture_fixture, tmp_path, capsys, flag):
        mix_path, _ = mixture_fixture
        with pytest.raises(SystemExit) as info:
            cli.main(["separate", str(mix_path), flag, "50", "--iters", "2",
                      "--out", str(tmp_path / "out")] + SMALL_STFT)
        assert info.value.code == 2
        assert "--two-stage" in capsys.readouterr().err
