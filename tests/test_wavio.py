import re
import struct
import wave

import numpy as np
import pytest

from tilrma import wavio
from tilrma.errors import CorruptHeaderError, UnsupportedFormatError


def write_pcm8(path):
    """A mono 8-bit PCM file, an encoding the reader does not support."""
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 8000, 1, 8)
    data = bytes(16)
    body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", len(data)) + data)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    return path


class TestPcm16:
    def test_full_scale_square_wave_scaling(self, tmp_path):
        path = tmp_path / "square.wav"
        signal = np.tile([1.0, -1.0], 50)
        wavio.write_wav(path, signal, 8000, "pcm16")
        samples, rate = wavio.read_wav(path)
        assert rate == 8000.0
        assert np.all(samples[0::2, 0] == 32767.0 / 32768.0)
        assert np.all(samples[1::2, 0] == -1.0)

    def test_header_matches_stdlib_parser(self, tmp_path):
        rng = np.random.default_rng(0)
        # (signal, encoding, channels, sample width); the 3-sample mono pcm24
        # payload is 9 bytes, so a pad byte follows it
        cases = [
            (0.5 * rng.standard_normal((400, 2)), "pcm16", 2, 2),
            (np.array([0.1, -0.2, 0.3]), "pcm24", 1, 3),
        ]
        for signal, encoding, channels, width in cases:
            path = tmp_path / f"check_{encoding}.wav"
            wavio.write_wav(path, signal, 16000, encoding)
            with wave.open(str(path)) as fh:
                assert fh.getnchannels() == channels
                assert fh.getframerate() == 16000
                assert fh.getsampwidth() == width
                assert fh.getnframes() == len(signal)
            data = path.read_bytes()
            # the RIFF size field counts every byte after it, the pad byte included
            assert struct.unpack("<I", data[4:8])[0] == len(data) - 8

    def test_clipping_is_logged(self, tmp_path, caplog):
        path = tmp_path / "clip.wav"
        with caplog.at_level("WARNING"):
            wavio.write_wav(path, np.array([0.0, 1.5, -2.0]), 8000, "pcm16")
        assert "clipped 2" in caplog.text
        samples, _ = wavio.read_wav(path)
        assert samples[1, 0] == 32767.0 / 32768.0
        assert samples[2, 0] == -1.0


class TestRoundTrips:
    def test_float64_bitwise(self, tmp_path):
        path = tmp_path / "f64.wav"
        rng = np.random.default_rng(1)
        signal = rng.standard_normal((300, 3))
        wavio.write_wav(path, signal, 44100, "float64")
        samples, rate = wavio.read_wav(path)
        assert rate == 44100.0
        assert np.array_equal(samples, signal)

    def test_float32_quantization(self, tmp_path):
        path = tmp_path / "f32.wav"
        rng = np.random.default_rng(2)
        signal = rng.standard_normal((200, 1)) * 0.5
        wavio.write_wav(path, signal, 8000, "float32")
        samples, _ = wavio.read_wav(path)
        assert np.max(np.abs(samples - signal)) <= 2.0 ** -24

    @pytest.mark.parametrize("encoding,bits", [("pcm16", 16), ("pcm24", 24), ("pcm32", 32)])
    def test_integer_quantization_error(self, tmp_path, encoding, bits):
        path = tmp_path / f"{encoding}.wav"
        rng = np.random.default_rng(3)
        signal = 0.9 * rng.uniform(-1, 1, size=(256, 2))
        wavio.write_wav(path, signal, 48000, encoding)
        samples, _ = wavio.read_wav(path)
        assert samples.shape == (256, 2)
        assert np.max(np.abs(samples - signal)) <= 2.0 ** -(bits - 1)


class TestChannelDetection:
    @pytest.mark.parametrize("channels", [1, 2, 4, 8])
    def test_channel_count_round_trip(self, tmp_path, channels):
        path = tmp_path / f"ch{channels}.wav"
        wavio.write_wav(path, np.zeros((64, channels)), 8000, "pcm16")
        samples, _ = wavio.read_wav(path)
        assert samples.shape == (64, channels)

    def test_too_many_channels_rejected(self, tmp_path):
        with pytest.raises(UnsupportedFormatError):
            wavio.write_wav(tmp_path / "x.wav", np.zeros((10, 9)), 8000, "pcm16")


class TestErrorPaths:
    def test_not_riff(self, tmp_path):
        path = tmp_path / "bad.wav"
        path.write_bytes(b"OggS" + b"\x00" * 40)
        with pytest.raises(CorruptHeaderError):
            wavio.read_wav(path)

    def test_truncated_data_chunk(self, tmp_path):
        path = tmp_path / "trunc.wav"
        wavio.write_wav(path, np.zeros(100), 8000, "pcm16")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 50])
        with pytest.raises(CorruptHeaderError):
            wavio.read_wav(path)

    def test_missing_data_chunk(self, tmp_path):
        path = tmp_path / "nodata.wav"
        fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
        body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        with pytest.raises(CorruptHeaderError):
            wavio.read_wav(path)

    def test_unsupported_bit_depth(self, tmp_path):
        path = write_pcm8(tmp_path / "pcm8.wav")
        with pytest.raises(UnsupportedFormatError):
            wavio.read_wav(path)

    def test_unsupported_encoding_names_the_file(self, tmp_path):
        path = write_pcm8(tmp_path / "pcm8.wav")
        with pytest.raises(UnsupportedFormatError, match=re.escape(f"{path}: unsupported encoding")):
            wavio.read_wav(path)

    def test_unknown_encoding_name(self, tmp_path):
        with pytest.raises(UnsupportedFormatError):
            wavio.write_wav(tmp_path / "x.wav", np.zeros(4), 8000, "alaw")

    def test_nonfinite_samples_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            wavio.write_wav(tmp_path / "x.wav", np.array([0.0, np.nan]), 8000)

    @pytest.mark.parametrize("rate", [0, -8000, 8000.5, float("nan"), 2**32, 2**31])
    def test_rate_that_does_not_fit_the_header_rejected(self, tmp_path, rate):
        # 2**31 fits the rate field, but not the float64 byte rate 8 * 2**31
        with pytest.raises(ValueError, match=re.escape(f"sample rate {rate!r} Hz")):
            wavio.write_wav(tmp_path / "x.wav", np.zeros(4), rate)

    def test_float_rate_round_trips(self, tmp_path):
        wavio.write_wav(tmp_path / "x.wav", np.zeros(4), 8000.0)
        assert wavio.read_wav(tmp_path / "x.wav")[1] == 8000.0


class TestExtensible:
    def test_extensible_pcm_is_read(self, tmp_path):
        # WAVE_FORMAT_EXTENSIBLE wrapping plain 16-bit PCM
        path = tmp_path / "ext.wav"
        payload = struct.pack("<4h", 1000, -1000, 2000, -2000)
        sub_guid = struct.pack("<H", 1) + b"\x00\x00" + bytes.fromhex(
            "00001000800000aa00389b71"
        )
        fmt = struct.pack("<HHIIHHH", 0xFFFE, 2, 8000, 32000, 4, 16, 22)
        fmt += struct.pack("<H", 16) + struct.pack("<I", 3) + sub_guid
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(payload)) + payload)
        path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
        samples, rate = wavio.read_wav(path)
        assert samples.shape == (2, 2)
        assert samples[0, 0] == pytest.approx(1000 / 32768.0)
