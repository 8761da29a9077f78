"""Determined blind source separation with a heavy-tailed low-rank source model."""

from .engine import HyperParams, SeparationResult, separate
from .metrics import EvalReport, align_permutation
from .stft import ComplexSpectrogram, StftConfig, analyze, synthesize
from .wavio import read_wav, write_wav

__all__ = [
    "ComplexSpectrogram",
    "EvalReport",
    "HyperParams",
    "SeparationResult",
    "StftConfig",
    "align_permutation",
    "analyze",
    "read_wav",
    "separate",
    "synthesize",
    "write_wav",
]

__version__ = "0.1.0"
