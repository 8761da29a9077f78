"""Seeded time-domain test mixtures and a minimal float WAV reader/writer.

Nothing here imports ``tilrma``: the inputs the benchmark hands the program
and the files it reads back must not depend on the code under test.

A source is a sum of low-rank-modulated noise components: white noise
shaped by a smooth log-frequency envelope, times a piecewise-linear gain
over time; a balanced schedule switches whole sources on and off.  Source n
reaches channel m through a short decaying FIR; the
mixture is the sum of these images, and the images at the reference
channel are kept as the evaluation references.
"""

import struct
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000
COMPONENTS = 3          # noise components per source (its spectral rank)
LOW_HZ, HIGH_HZ = 150.0, 5000.0  # range of the component centre frequencies
CENTRE_JITTER = 0.15    # random shift of each centre, in octaves
BLOCK_S = 0.2           # spacing of the gain knots
SEGMENT_S = 0.5         # length of one passage of the activity schedule
RAMP_S = 0.02           # smoothing of the on/off transitions
QUIET_GAIN = 0.05       # gain of a source that is off in a passage
COMPONENT_GAIN_SHAPE = 2.0  # gamma shape of the knots of each component's gain
FIR_TAPS = 64           # mixing filter length, 4 ms at 16 kHz
CROSS_GAIN = 0.5        # direct-path gain of a source on the other channels
FIR_TAIL = 0.1          # scale of the random filter tail, relative to the direct path
FIR_DECAY = 8.0         # e-folding length of the filter tail, in samples
ENVELOPE_FLOOR = 0.05   # broadband floor, so no frequency bin is silent
PEAK = 0.5              # mixture peak after scaling
REFERENCE_CHANNEL = 0

_FORMAT_FLOAT = 3


@dataclass
class Mixture:
    """A multichannel mixture and the source images at the reference channel."""

    samples: np.ndarray     # (num_samples, channels)
    references: np.ndarray  # (sources, num_samples), images at REFERENCE_CHANNEL
    rate: int


def _component(rng, num_samples, rate, centre):
    freqs = np.fft.rfftfreq(num_samples, 1.0 / rate)
    octave = np.log2(np.maximum(freqs, 1.0))
    centre = centre + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER)
    width = rng.uniform(0.5, 0.8)
    envelope = np.exp(-0.5 * ((octave - centre) / width) ** 2) + ENVELOPE_FLOOR
    noise = np.fft.irfft(np.fft.rfft(rng.standard_normal(num_samples)) * envelope,
                         n=num_samples)
    return noise * _gain_curve(rng, num_samples, rate, COMPONENT_GAIN_SHAPE)


def _gain_curve(rng, num_samples, rate, shape):
    knots = max(2, int(np.ceil(num_samples / (BLOCK_S * rate))) + 1)
    gains = rng.gamma(shape, 1.0, size=knots)
    return np.interp(np.arange(num_samples), np.linspace(0, num_samples - 1, knots), gains)


def _activity(rng, channels, num_samples, rate):
    """(sources, samples) on/off gains from a balanced random schedule.

    Every segment plays a nonempty subset of the sources; the subsets are
    used equally often in a shuffled order, so each seed has the same mix
    of solo and overlapping passages.
    """
    segments = int(np.ceil(num_samples / (SEGMENT_S * rate)))
    subsets = [s for s in range(1, 2**channels)]
    order = np.resize(subsets, segments)
    rng.shuffle(order)
    on = (order[None, :] >> np.arange(channels)[:, None]) & 1
    levels = np.where(on, rng.uniform(0.5, 1.5, on.shape), QUIET_GAIN)
    step = int(round(SEGMENT_S * rate))
    gains = np.repeat(levels, step, axis=1)[:, :num_samples]
    ramp = np.ones(int(RAMP_S * rate)) / int(RAMP_S * rate)
    return np.stack([np.convolve(g, ramp, mode="same") for g in gains])


def _source(rng, num_samples, rate, centres, activity):
    signal = sum(_component(rng, num_samples, rate, c) for c in centres) * activity
    return signal / np.sqrt(np.mean(signal**2))


def _fir(rng, direct_gain):
    """Decaying random filter whose first tap carries ``direct_gain``."""
    taps = rng.standard_normal(FIR_TAPS) * FIR_TAIL * np.exp(-np.arange(FIR_TAPS) / FIR_DECAY)
    taps[0] = direct_gain
    return taps


def make_mixture(seed, channels, seconds, rate=SAMPLE_RATE):
    """Mixture of ``channels`` sources on ``channels`` microphones.

    Each source is loudest on its own channel (direct gain 1, cross gain
    CROSS_GAIN, random tails), so the mixing is well conditioned in every bin
    and the input SDR varies little from seed to seed.
    The same seed gives the same mixture bit for bit.
    """
    rng = np.random.default_rng(seed)
    num_samples = int(round(seconds * rate))
    # component centres spread evenly over [LOW_HZ, HIGH_HZ] in octaves and
    # dealt out to the sources in turn, so every source spans the band
    centres = np.linspace(np.log2(LOW_HZ), np.log2(HIGH_HZ), channels * COMPONENTS)
    activity = _activity(rng, channels, num_samples, rate)
    sources = [_source(rng, num_samples, rate, centres[n::channels], activity[n])
               for n in range(channels)]
    images = np.empty((channels, num_samples, channels))  # (source, sample, channel)
    for n, source in enumerate(sources):
        for m in range(channels):
            gain = 1.0 if m == n else CROSS_GAIN
            images[n, :, m] = np.convolve(source, _fir(rng, gain))[:num_samples]
    # float32 round trip, so the file holds exactly the mixture we keep
    scale = PEAK / np.max(np.abs(images.sum(axis=0)))
    images *= scale
    samples = images.sum(axis=0).astype(np.float32).astype(np.float64)
    return Mixture(samples, images[:, :, REFERENCE_CHANNEL].copy(), rate)


def write_float32_wav(path, samples, rate):
    """Write (num_samples, channels) samples as a 32-bit float WAV file."""
    samples = np.asarray(samples, dtype="<f4")
    channels = samples.shape[1]
    payload = samples.tobytes()
    block = 4 * channels
    header = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload), b"WAVE",
                         b"fmt ", 16, _FORMAT_FLOAT, channels, rate, rate * block,
                         block, 32, b"data", len(payload))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_float_wav(path):
    """Read a 32- or 64-bit float WAV file as (float64 samples, rate)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    fmt = data = None
    pos = 12
    while pos + 8 <= len(raw):
        tag, size = struct.unpack("<4sI", raw[pos:pos + 8])
        body = raw[pos + 8:pos + 8 + size]
        if tag == b"fmt ":
            fmt = struct.unpack("<HHIIHH", body[:16])
        elif tag == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    code, channels, rate, _, _, bits = fmt
    if code != _FORMAT_FLOAT or bits not in (32, 64):
        raise ValueError(f"{path}: expected float samples, got format {code}/{bits} bits")
    values = np.frombuffer(data, dtype="<f4" if bits == 32 else "<f8")
    return values.astype(np.float64).reshape(-1, channels), rate
