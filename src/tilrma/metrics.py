"""Separation-quality scores: scale-invariant SDR, projection SDR with a
time-invariant allowed-distortion filter, and output-to-reference alignment.

The projection SDR is BSS Eval's time-invariant-filter SDR (Vincent et al.,
2006).  Its correlations come from zero-padded FFTs, its normal equations
are a Toeplitz matrix indexed from one reference's autocorrelation, and
``align_permutation`` handles each reference once: one condition check and
one solve, with every estimate and the mixture as right-hand sides.

Scores are capped at +/-100 dB so reports stay finite and comparable; a
perfect match reports the cap rather than infinity.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedProjectionError, ZeroReferenceError

CAP_DB = 100.0

# Normal-equation condition numbers beyond this make the projection filter
# numerically meaningless.
MAX_CONDITION = 1e12


def _capped_db(signal_energy, error_energy):
    if error_energy <= signal_energy * 10.0 ** (-CAP_DB / 10.0):
        return CAP_DB
    if signal_energy <= error_energy * 10.0 ** (-CAP_DB / 10.0):
        return -CAP_DB
    return float(10.0 * np.log10(signal_energy / error_energy))


def si_sdr(reference, estimate):
    """Scale-invariant signal-to-distortion ratio in dB.

    The estimate is compared against the closest scaled copy of the
    reference, so any positive or negative gain on the estimate leaves the
    score unchanged.

    Raises
    ------
    ZeroReferenceError
        If the reference signal is identically zero.
    """
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    if reference.shape != estimate.shape:
        raise ValueError("reference and estimate must have equal length")
    ref_energy = float(reference @ reference)
    if ref_energy == 0.0:
        raise ZeroReferenceError("reference signal is all-zero")
    alpha = float(estimate @ reference) / ref_energy
    target = alpha * reference
    err = estimate - target
    return _capped_db(float(target @ target), float(err @ err))


def sdr_projection(reference, estimate, taps):
    """SDR after projecting onto delayed copies of the reference.

    The allowed distortion is a time-invariant filter of ``taps``
    coefficients applied to the reference (delays 0..taps-1, signals
    treated as zero-padded).  ``taps=1`` reduces exactly to ``si_sdr``.

    Raises
    ------
    IllConditionedProjectionError
        If the Toeplitz normal equations are near-singular.
    """
    if taps < 1:
        raise ValueError("taps must be >= 1")
    if np.shape(reference) != np.shape(estimate):
        raise ValueError("reference and estimate must have equal length")
    length = len(reference)
    reference = _signal("reference", reference, length)
    estimate = _signal("estimate", estimate, length)
    spectrum = np.fft.rfft(estimate[None], _fft_size(length, taps))
    return float(_projection_scores(reference, spectrum, taps)[0])


def _fft_size(length, taps):
    # at nfft >= length + taps, circular correlation and convolution equal
    # the linear ones of the zero-padded signals at every lag 0..taps-1
    return 1 << (length + taps - 1).bit_length()


def _energy(spectra, nfft):
    """Sum of squares of each real length-``nfft`` signal whose rfft is a row."""
    power = spectra.real**2 + spectra.imag**2
    return (2.0 * power.sum(axis=-1) - power[..., 0] - power[..., -1]) / nfft


def _projection_scores(reference, spectra, taps):
    """Projection SDR of each signal against one reference.

    ``spectra`` holds one row per signal: its rfft zero-padded to an even
    ``nfft >= length + taps``.  The reference's Toeplitz normal equations
    are checked and solved once, with every signal as a right-hand side.
    """
    if float(reference @ reference) == 0.0:
        raise ZeroReferenceError("reference signal is all-zero")
    nfft = 2 * (spectra.shape[-1] - 1)
    ref_f = np.fft.rfft(reference, nfft)
    # autocorrelation lags 0..taps-1; zero padding makes the Gram matrix
    # of the delayed references exactly Toeplitz
    lags = np.fft.irfft(ref_f.real**2 + ref_f.imag**2, nfft)[:taps]
    delay = np.arange(taps)
    gram = lags[np.abs(delay[:, None] - delay)]
    # the Gram matrix is symmetric, so its 2-norm condition number is the
    # ratio of its extreme eigenvalue magnitudes
    magnitude = np.abs(np.linalg.eigvalsh(gram))
    if not magnitude.max() <= MAX_CONDITION * magnitude.min():
        raise IllConditionedProjectionError(
            f"projection normal equations ill-conditioned (taps={taps})"
        )
    # cross[d, s] = sum_t signal_s[t + d] * reference[t]
    cross = np.fft.irfft(spectra * ref_f.conj(), nfft)[:, :taps]
    coef = np.linalg.solve(gram, cross.T)
    # the projection is the reference filtered by each signal's coefficients;
    # energies follow from the spectra by Parseval
    projected = ref_f * np.fft.rfft(coef.T, nfft)
    signal_energy = _energy(projected, nfft)
    error_energy = _energy(spectra - projected, nfft)
    return [_capped_db(s, e) for s, e in zip(signal_energy, error_energy)]


def _signal(name, signal, length):
    """``signal`` as float64 after checking it is 1-D, ``length`` long and finite."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError(f"{name} has shape {signal.shape}, expected ({length},)")
    if signal.shape[0] != length:
        raise ValueError(f"{name} has {signal.shape[0]} samples, expected {length}")
    if not np.all(np.isfinite(signal)):
        raise ValueError(f"{name} has non-finite samples")
    return signal


@dataclass
class EvalReport:
    """Alignment result: scores are indexed by reference, after permutation."""

    per_source_sdr: list
    permutation: tuple
    baseline_sdr: list | None = None
    mean_improvement_db: float | None = None


def align_permutation(references, estimates, taps=1, mixture=None):
    """Best assignment of estimates to references by exhaustive search.

    Parameters
    ----------
    references, estimates: sequences of equal-length 1-D arrays (1 <= N <= 8)
    taps: filter length for the underlying SDR (1 = scale-invariant)
    mixture: optional unprocessed signal; when given, per-source SDR
        improvements over it are reported.

    Returns
    -------
    EvalReport where ``permutation[r]`` is the estimate index assigned to
    reference r.

    Raises
    ------
    ValueError
        Naming the first signal that is not 1-D, not as long as reference 0
        or not finite; every signal is checked before any pair is scored.
    ZeroReferenceError, IllConditionedProjectionError
        With the message prefixed by the index of the reference at fault.
    """
    num = len(references)
    if len(estimates) != num:
        raise ValueError("need as many estimates as references")
    if not 1 <= num <= 8:
        raise ValueError(f"exhaustive alignment needs 1 to 8 sources, got {num}")
    if taps < 1:
        raise ValueError("taps must be >= 1")
    length = len(references[0])
    refs = [_signal(f"reference {r}", x, length) for r, x in enumerate(references)]
    signals = [_signal(f"estimate {e}", x, length) for e, x in enumerate(estimates)]
    if mixture is not None:
        signals.append(_signal("mixture", mixture, length))

    spectra = np.fft.rfft(np.stack(signals), _fft_size(length, taps))
    scores = np.empty((num, len(signals)))
    for r, reference in enumerate(refs):
        try:
            scores[r] = _projection_scores(reference, spectra, taps)
        except (ZeroReferenceError, IllConditionedProjectionError) as exc:
            raise type(exc)(f"reference {r}: {exc}") from None

    best_perm, best_total = None, -np.inf
    for perm in itertools.permutations(range(num)):
        total = sum(scores[r, perm[r]] for r in range(num))
        if total > best_total:
            best_perm, best_total = perm, total
    per_source = [float(scores[r, best_perm[r]]) for r in range(num)]

    baseline = None
    improvement = None
    if mixture is not None:
        baseline = scores[:, num].tolist()
        improvement = float(np.mean([s - b for s, b in zip(per_source, baseline)]))
    return EvalReport(per_source, best_perm, baseline, improvement)
