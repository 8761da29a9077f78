import math
import re

import numpy as np
import pytest

from tilrma import stft
from tilrma.errors import SignalTooShortError
from tilrma.stft import ComplexSpectrogram, StftConfig, analyze, synthesize

CFG = StftConfig(sample_rate_hz=8000.0, window_length_ms=64.0, shift_ms=16.0)


def interior(x, cfg):
    w = cfg.window_samples
    return x[w:-w]


class TestConfig:
    def test_default_protocol_sizes(self):
        cfg = StftConfig(16000.0)
        assert cfg.window_length_ms == 512.0
        assert cfg.shift_ms == 128.0
        assert cfg.window_samples == 8192
        assert cfg.shift_samples == 2048
        assert cfg.num_bins == 4097

    def test_shift_divides_window_at_odd_rates(self):
        cfg = StftConfig(22050.0)
        assert cfg.window_samples % cfg.shift_samples == 0
        assert cfg.window_samples >= 2 * cfg.shift_samples

    @pytest.mark.parametrize("rate, shown", [(math.inf, "inf"), (math.nan, "nan"), (0.0, "0"),
                                             (-1.0, "-1")])
    def test_rate_must_be_positive_and_finite(self, rate, shown):
        with pytest.raises(ValueError,
                           match=f"^sample_rate_hz must be positive and finite, got {shown}$"):
            StftConfig(rate)

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(ValueError):
            StftConfig(8000.0, window_length_ms=100.0, shift_ms=33.0)

    def test_ratio_below_two_rejected(self):
        with pytest.raises(ValueError):
            StftConfig(8000.0, window_length_ms=64.0, shift_ms=64.0)

    def test_window_of_zero_samples_rejected(self):
        # 0.01 ms at 8 kHz rounds to 0 samples; frame counting would divide by 0
        with pytest.raises(ValueError, match="0.01 ms window is 0 samples at 8000 Hz"):
            StftConfig(8000.0, window_length_ms=0.01, shift_ms=0.0025)


class TestAnalyze:
    def test_zero_signal(self):
        spec = analyze(np.zeros(4096), CFG)
        assert not spec.values.any()
        assert spec.num_bins == CFG.num_bins

    def test_too_short(self):
        with pytest.raises(SignalTooShortError):
            analyze(np.zeros(CFG.window_samples - 1), CFG)

    def test_bin_centered_sinusoid_peaks_at_its_bin(self):
        k0 = 37
        freq = k0 * CFG.sample_rate_hz / CFG.window_samples
        t = np.arange(6 * CFG.window_samples) / CFG.sample_rate_hz
        spec = analyze(np.sin(2 * np.pi * freq * t), CFG)
        mags = np.abs(spec.values[:, :, 0])
        # skip edge frames that see the zero padding
        frames = range(4, spec.num_frames - 4)
        for j in frames:
            assert np.argmax(mags[:, j]) == k0

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(3000)
        y = rng.standard_normal(3000)
        combo = analyze(0.7 * x - 1.3 * y, CFG).values
        parts = 0.7 * analyze(x, CFG).values - 1.3 * analyze(y, CFG).values
        assert np.max(np.abs(combo - parts)) <= 1e-12 * np.max(np.abs(parts))

    def test_per_frame_parseval(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(3000)
        spec = analyze(x, CFG)
        w = CFG.window_samples
        window = 0.54 - 0.46 * np.cos(2 * np.pi * np.arange(w) / w)
        padded = np.zeros((spec.num_frames - 1) * CFG.shift_samples + w)
        padded[w // 2 : w // 2 + len(x)] = x
        for j in (0, 3, spec.num_frames // 2):
            frame = padded[j * CFG.shift_samples : j * CFG.shift_samples + w] * window
            time_energy = np.sum(frame**2)
            f = spec.values[:, j, 0]
            freq_energy = (np.abs(f[0]) ** 2 + 2 * np.sum(np.abs(f[1:-1]) ** 2)
                           + np.abs(f[-1]) ** 2) / w
            assert freq_energy == pytest.approx(time_energy, rel=1e-10, abs=1e-12)

    def test_multichannel_shape(self):
        spec = analyze(np.zeros((2000, 3)), CFG)
        assert spec.values.shape == (CFG.num_bins, spec.num_frames, 3)

    def test_signal_of_more_than_two_dimensions_rejected(self):
        with pytest.raises(ValueError, match=re.escape("got shape (600, 2, 2)")):
            analyze(np.zeros((600, 2, 2)), CFG)


class TestComplexSpectrogram:
    # 65 frames of CFG: synthesis fills 64 shifts and a window, less the half-window front pad
    FILLED = 64 * 128 + 512 - 256

    def test_zero_frames_rejected(self):
        with pytest.raises(ValueError, match="at least one frame"):
            ComplexSpectrogram(np.zeros((CFG.num_bins, 0, 2)), CFG, 0)

    @pytest.mark.parametrize("count", [7.5, -3, 10**6, FILLED + 1, True, None])
    def test_num_samples_outside_what_synthesis_fills_rejected(self, count):
        message = rf"^num_samples must be an integer from 0 to {self.FILLED} \(what 65 frames "
        with pytest.raises(ValueError, match=message):
            ComplexSpectrogram(np.zeros((CFG.num_bins, 65, 2)), CFG, count)

    @pytest.mark.parametrize("count", [0, np.int64(3), FILLED])
    def test_num_samples_up_to_what_synthesis_fills_synthesize(self, count):
        spec = ComplexSpectrogram(np.zeros((CFG.num_bins, 65, 2)), CFG, count)
        assert type(spec.num_samples) is int
        assert synthesize(spec).shape == (count, 2)


def frame_loop_synthesize(spec):
    """Overlap-add one frame at a time: the reference ``synthesize`` must
    match bit for bit."""
    cfg = spec.config
    win_len, hop = cfg.window_samples, cfg.shift_samples
    dual = stft._dual_window(stft._analysis_window(win_len), hop)
    out = np.zeros((spec.num_samples, spec.num_streams))
    for ch in range(spec.num_streams):
        buf = np.zeros((spec.num_frames - 1) * hop + win_len)
        pieces = np.fft.irfft(spec.values[:, :, ch].T, n=win_len, axis=1) * dual
        for j in range(spec.num_frames):
            buf[j * hop : j * hop + win_len] += pieces[j]
        out[:, ch] = buf[win_len // 2 : win_len // 2 + spec.num_samples]
    return out


class TestSynthesize:
    @pytest.mark.parametrize(
        "window_ms, shift_ms, samples",
        [(64, 16, 160000), (512, 128, 160000), (64, 32, 12345), (100, 25, 54321)],
    )
    def test_equals_frame_loop_bit_for_bit(self, window_ms, shift_ms, samples):
        cfg = StftConfig(16000.0, window_ms, shift_ms)
        rng = np.random.default_rng(samples)
        spec = analyze(rng.standard_normal((samples, 3)), cfg)
        assert np.array_equal(synthesize(spec), frame_loop_synthesize(spec))

    def test_zero_spectrogram(self):
        spec = analyze(np.zeros(3000), CFG)
        assert not synthesize(spec).any()

    def test_round_trip_interior(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5 * CFG.window_samples, 2))
        back = synthesize(analyze(x, CFG))
        assert back.shape == x.shape
        err = interior(back - x, CFG)
        ref = interior(x, CFG)
        rel = np.sqrt(np.mean(err**2) / np.mean(ref**2))
        assert rel <= 1e-8

    def test_single_frame_support(self):
        spec = analyze(np.zeros(3000), CFG)
        j0 = 5
        vals = np.zeros_like(spec.values)
        vals[:, j0, 0] = 1.0
        out = synthesize(ComplexSpectrogram(vals, CFG, spec.num_samples))[:, 0]
        w, hop = CFG.window_samples, CFG.shift_samples
        lo = j0 * hop - w // 2  # frame support in signal coordinates
        hi = lo + w
        assert np.all(out[:max(lo, 0)] == 0)
        assert np.all(out[hi:] == 0)
        assert np.any(out[max(lo, 0) : hi] != 0)
