"""Multichannel RIFF/WAVE reading and writing.

Supports integer PCM at 16/24/32 bits and IEEE float at 32/64 bits, up to
eight channels.  Integer samples are normalized by 2^(bits-1), so 16-bit
full scale reads back as +32767/32768 and -1.0 exactly.
"""

import logging
import struct

import numpy as np

from .errors import CorruptHeaderError, UnsupportedFormatError

log = logging.getLogger(__name__)

_FMT_PCM = 1
_FMT_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE

MAX_CHANNELS = 8

_ENCODINGS = {
    "pcm16": (_FMT_PCM, 16),
    "pcm24": (_FMT_PCM, 24),
    "pcm32": (_FMT_PCM, 32),
    "float32": (_FMT_FLOAT, 32),
    "float64": (_FMT_FLOAT, 64),
}


def _decode(raw, fmt, bits):
    if fmt == _FMT_FLOAT and bits == 32:
        return np.frombuffer(raw, dtype="<f4").astype(np.float64)
    if fmt == _FMT_FLOAT and bits == 64:
        return np.frombuffer(raw, dtype="<f8").astype(np.float64)
    if fmt == _FMT_PCM and bits == 16:
        return np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0
    if fmt == _FMT_PCM and bits == 32:
        return np.frombuffer(raw, dtype="<i4").astype(np.float64) / 2147483648.0
    if fmt == _FMT_PCM and bits == 24:
        triplets = np.frombuffer(raw, dtype=np.uint8).reshape(-1, 3)
        expanded = np.zeros((triplets.shape[0], 4), dtype=np.uint8)
        expanded[:, 1:] = triplets  # value lands in the top 3 bytes
        ints = expanded.view("<i4")[:, 0] >> 8
        return ints.astype(np.float64) / 8388608.0
    raise UnsupportedFormatError(f"unsupported encoding: format {fmt}, {bits} bits")


def read_wav(path):
    """Read a WAV file into normalized float64 samples.

    Returns
    -------
    (samples, rate): ndarray (num_samples, num_channels) in [-1, 1], and
    the sample rate in Hz.

    Raises
    ------
    CorruptHeaderError
        On malformed or truncated RIFF structure.
    UnsupportedFormatError
        On encodings or channel counts outside the supported set.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[0:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise CorruptHeaderError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(blob):
        chunk_id = blob[pos : pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body = blob[pos + 8 : pos + 8 + size]
        if len(body) < size:
            raise CorruptHeaderError(f"{path}: chunk {chunk_id!r} truncated")
        if chunk_id == b"fmt ":
            if size < 16:
                raise CorruptHeaderError(f"{path}: fmt chunk too small")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
            if fmt[0] == _FMT_EXTENSIBLE:
                if size < 40:
                    raise CorruptHeaderError(f"{path}: extensible fmt chunk too small")
                (sub,) = struct.unpack_from("<H", body, 24)
                fmt = (sub,) + fmt[1:]
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)  # chunks are word-aligned

    if fmt is None:
        raise CorruptHeaderError(f"{path}: missing fmt chunk")
    if data is None:
        raise CorruptHeaderError(f"{path}: missing data chunk")

    code, channels, rate, _, _, bits = fmt
    if code not in (_FMT_PCM, _FMT_FLOAT):
        raise UnsupportedFormatError(f"{path}: format code {code} not supported")
    if not 1 <= channels <= MAX_CHANNELS:
        raise UnsupportedFormatError(f"{path}: {channels} channels not supported")
    frame_bytes = channels * (bits // 8)
    if frame_bytes == 0 or len(data) % frame_bytes:
        raise CorruptHeaderError(f"{path}: data size not a whole number of frames")

    try:
        flat = _decode(data, code, bits)
    except UnsupportedFormatError as exc:
        raise UnsupportedFormatError(f"{path}: {exc}") from None
    return flat.reshape(-1, channels), float(rate)


def write_wav(path, buffer, rate, bit_depth="float64"):
    """Write samples as a RIFF/WAVE file.

    Parameters
    ----------
    buffer: ndarray (num_samples,) or (num_samples, num_channels)
    rate: sample rate in Hz
    bit_depth: one of pcm16 / pcm24 / pcm32 / float32 / float64

    Integer encodings clip to [-1, 1] first; clipped samples are logged.
    """
    if bit_depth not in _ENCODINGS:
        raise UnsupportedFormatError(f"unknown encoding {bit_depth!r}")
    fmt, bits = _ENCODINGS[bit_depth]

    buffer = np.asarray(buffer, dtype=np.float64)
    if buffer.ndim == 1:
        buffer = buffer[:, None]
    if not np.all(np.isfinite(buffer)):
        raise ValueError("samples must be finite")
    channels = buffer.shape[1]
    if not 1 <= channels <= MAX_CHANNELS:
        raise UnsupportedFormatError(f"{channels} channels not supported")

    if fmt == _FMT_FLOAT:
        payload = buffer.astype("<f4" if bits == 32 else "<f8").tobytes()
    else:
        clipped = int(np.sum(np.abs(buffer) > 1.0))
        if clipped:
            log.warning("%s: clipped %d out-of-range samples", path, clipped)
        scale = float(1 << (bits - 1))
        ints = np.clip(np.rint(np.clip(buffer, -1.0, 1.0) * scale), -scale, scale - 1)
        if bits == 24:
            as32 = ints.astype("<i4")
            payload = as32.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
        else:
            payload = ints.astype("<i2" if bits == 16 else "<i4").tobytes()

    block_align = channels * (bits // 8)
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF",
        36 + len(payload) + (len(payload) & 1),  # the pad byte counts too
        b"WAVE",
        b"fmt ",
        16,
        fmt,
        channels,
        int(rate),
        int(rate) * block_align,
        block_align,
        bits,
        b"data",
        len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
        if len(payload) & 1:
            fh.write(b"\x00")
