"""Forward/inverse short-time Fourier transform.

Analysis uses a periodic Hamming window; synthesis uses the canonical
least-squares dual window, because the Hamming window does not satisfy
constant-overlap-add with its own square at 75% overlap.  Signals are
zero-padded by half a window in front (and to the frame grid at the end)
so that every interior sample is covered by the full overlap count and
the round trip reconstructs it exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SignalTooShortError


@dataclass(frozen=True)
class StftConfig:
    """Analysis configuration.

    The window/shift ratio must be an integer >= 2; window length in
    samples is rounded up to a multiple of that ratio so the shift
    divides it exactly at any sample rate.
    """

    sample_rate_hz: float
    window_length_ms: float = 512.0
    shift_ms: float = 128.0

    def __post_init__(self):
        if not 0 < self.sample_rate_hz < math.inf:
            raise ValueError(
                f"sample_rate_hz must be positive and finite, got {self.sample_rate_hz:g}"
            )
        self.check_durations(self.window_length_ms, self.shift_ms)
        if self.window_samples == 0:
            raise ValueError(
                f"a {self.window_length_ms:g} ms window is 0 samples at {self.sample_rate_hz:g} Hz"
            )

    @staticmethod
    def check_durations(window_length_ms, shift_ms):
        """Check what needs no sample rate: both durations positive and
        finite, and the window an integer multiple (>= 2) of the shift.

        Raises
        ------
        ValueError
            Naming the value at fault.
        """
        for name, value in (("window_length_ms", window_length_ms), ("shift_ms", shift_ms)):
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value:g}")
        ratio = window_length_ms / shift_ms
        if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 2:
            raise ValueError(
                f"window_length_ms must be an integer multiple (>= 2) of shift_ms, "
                f"got {window_length_ms:g} and {shift_ms:g}"
            )

    @property
    def overlap_ratio(self):
        return int(round(self.window_length_ms / self.shift_ms))

    @property
    def window_samples(self):
        raw = round(self.window_length_ms * self.sample_rate_hz / 1000.0)
        r = self.overlap_ratio
        return int(math.ceil(raw / r) * r)

    @property
    def shift_samples(self):
        return self.window_samples // self.overlap_ratio

    @property
    def num_bins(self):
        return self.window_samples // 2 + 1


@dataclass
class ComplexSpectrogram:
    """One-sided complex spectrogram, shape (num_bins, num_frames, num_streams).

    ``values`` is held as C-contiguous complex128, the layout the engine uses.
    ``num_samples`` remembers the time-domain length so synthesis can trim
    the padding that analysis added.
    """

    values: np.ndarray
    config: StftConfig
    num_samples: int

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if self.values.ndim != 3:
            raise ValueError("spectrogram values must be (bins, frames, streams)")
        if self.values.shape[0] != self.config.num_bins:
            raise ValueError(
                f"bin count {self.values.shape[0]} does not match config "
                f"({self.config.num_bins})"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("spectrogram values must be finite")

    @property
    def num_bins(self):
        return self.values.shape[0]

    @property
    def num_frames(self):
        return self.values.shape[1]

    @property
    def num_streams(self):
        return self.values.shape[2]


def _analysis_window(length):
    # periodic variant, suited to overlap-add processing
    k = np.arange(length)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * k / length)


def _dual_window(window, shift):
    # canonical least-squares dual: w / sum of w^2 over the hop lattice
    denom = np.zeros(shift)
    for q in range(0, len(window), shift):
        denom += window[q : q + shift] ** 2
    return window / np.tile(denom, len(window) // shift)


def default_frame_count(num_samples, cfg):
    """Frames produced by ``analyze`` for a signal of the given length."""
    half = cfg.window_samples // 2
    return int(math.ceil((num_samples + half) / cfg.shift_samples))


def analyze(signal, cfg):
    """Compute the one-sided STFT of a (multichannel) time signal.

    Parameters
    ----------
    signal: ndarray (num_samples,) or (num_samples, num_channels)
    cfg: StftConfig

    Returns
    -------
    ComplexSpectrogram with values of shape (bins, frames, channels).
    """
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim == 1:
        signal = signal[:, None]
    num_samples = signal.shape[0]
    win_len = cfg.window_samples
    hop = cfg.shift_samples
    if num_samples < win_len:
        raise SignalTooShortError(
            f"signal length {num_samples} is shorter than one window ({win_len})"
        )

    num_frames = default_frame_count(num_samples, cfg)
    front = win_len // 2
    padded_len = (num_frames - 1) * hop + win_len
    window = _analysis_window(win_len)

    out = np.empty((cfg.num_bins, num_frames, signal.shape[1]), dtype=np.complex128)
    padded = np.zeros(padded_len)
    for ch in range(signal.shape[1]):
        padded[:] = 0.0
        padded[front : front + num_samples] = signal[:, ch]
        frames = np.lib.stride_tricks.sliding_window_view(padded, win_len)[::hop]
        out[:, :, ch] = np.fft.rfft(frames * window, axis=1).T
    return ComplexSpectrogram(out, cfg, num_samples)


def synthesize(spec):
    """Overlap-add inverse of ``analyze``.

    Interior samples (at least half a window away from either end) are
    reconstructed exactly; the outermost samples lack full window overlap
    and are not covered by the round-trip contract.

    Returns
    -------
    ndarray (num_samples, num_streams)
    """
    cfg = spec.config
    win_len = cfg.window_samples
    hop = cfg.shift_samples
    front = win_len // 2
    num_frames = spec.num_frames
    dual = _dual_window(_analysis_window(win_len), hop)

    ratio = cfg.overlap_ratio
    out = np.zeros((spec.num_samples, spec.num_streams))
    # one row per hop of the padded signal; frame j covers rows j..j+ratio-1
    rows = np.empty((num_frames - 1 + ratio, hop))
    for ch in range(spec.num_streams):
        rows[:] = 0.0
        # a contiguous (frames, bins) copy transforms about twice as fast as
        # the strided view
        pieces = np.fft.irfft(
            np.ascontiguousarray(spec.values[:, :, ch].T), n=win_len, axis=1
        )
        pieces *= dual
        pieces = pieces.reshape(num_frames, ratio, hop)
        # phase q of every frame in one add; descending q adds each sample's
        # frames in ascending order, as a frame-by-frame overlap-add would
        for q in reversed(range(ratio)):
            rows[q : q + num_frames] += pieces[:, q]
        out[:, ch] = rows.reshape(-1)[front : front + spec.num_samples]
    return out
