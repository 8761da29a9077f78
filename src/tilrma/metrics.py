"""Separation-quality scores: scale-invariant SDR, projection SDR with a
time-invariant allowed-distortion filter, and output-to-reference alignment.

The projection SDR is BSS Eval's time-invariant-filter SDR (Vincent et al.,
2006).  Its correlations come from zero-padded FFTs of the smallest even
2·3·5-smooth length at least ``length + taps - 1``, the shortest at which
the circular correlations at lags 0..taps-1 equal the linear ones.  Its
normal equations are a Toeplitz matrix indexed from one reference's
autocorrelation, and ``align_permutation`` handles each reference once: one
condition check and one solve, with every estimate and the mixture as
right-hand sides.  The projected and residual energies are quadratic forms
in the solved filter, so no projection is rebuilt; the residual's rounding
grows like eps·10^(SDR/10) relative to the signal energy (about 1e-5 dB at
99 dB).

Scores are capped at +/-100 dB so reports stay finite and comparable; a
perfect match reports the cap rather than infinity, and a silent estimate
reports -100 dB.
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
    # the -CAP test comes first, so that a silent estimate (both energies 0)
    # scores -CAP and not a perfect +CAP
    if signal_energy <= error_energy * 10.0 ** (-CAP_DB / 10.0):
        return -CAP_DB
    if error_energy <= signal_energy * 10.0 ** (-CAP_DB / 10.0):
        return CAP_DB
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
    treated as zero-padded).  ``taps=1`` reduces to ``si_sdr`` up to
    rounding.  The energies are quadratic forms in the solved filter (see
    ``_projection_scores``), accurate to about eps·10^(SDR/10) relative.
    An all-zero estimate scores -100 dB.

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
    energy = np.array([estimate @ estimate])
    return float(_projection_scores(reference, spectrum, energy, taps)[0])


def _fft_size(length, taps):
    """Smallest even 2·3·5-smooth integer >= ``length + taps - 1`` (and >= 2).

    At that length the circular correlations of the zero-padded signals
    equal the linear ones at every lag 0..taps-1; evenness lets
    ``_projection_scores`` read the length back from the rfft's size.
    """
    need = max(length + taps - 1, 2)
    best = 1 << (need - 1).bit_length()
    power5 = 1
    while power5 < best:
        odd = power5
        while odd < best:
            # smallest odd * 2^k >= need with k >= 1
            halves = -(-need // (2 * odd))
            best = min(best, (2 * odd) << (halves - 1).bit_length())
            odd *= 3
        power5 *= 5
    return best


def _projection_scores(reference, spectra, energies, taps):
    """Projection SDR of each signal against one reference.

    ``spectra`` holds one row per signal: its rfft zero-padded to an even
    ``nfft >= length + taps - 1``; ``energies`` holds each signal's sum of
    squares.  The reference's Toeplitz normal equations are checked and
    solved once, with every signal as a right-hand side.

    For a signal s with cross-correlations b and solved filter c, the
    projected energy is cᵀGc and the residual energy ‖s‖² − 2cᵀb + cᵀGc.
    An error in the solve enters the residual only to second order, but the
    residual cancels against ‖s‖², so its rounding error is about eps·‖s‖²,
    eps·10^(SDR/10) times the residual itself: about 1e-7 dB at 80 dB and
    1e-5 dB at 99 dB.  A silent signal solves to c = 0, so both energies
    are 0 and it scores -CAP_DB.
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
    cross = np.fft.irfft(spectra * ref_f.conj(), nfft)[:, :taps].T
    coef = np.linalg.solve(gram, cross)
    signal_energy = np.sum(coef * (gram @ coef), axis=0)
    error_energy = energies - 2.0 * np.sum(coef * cross, axis=0) + signal_energy
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

    signals = np.stack(signals)
    energies = np.einsum("st,st->s", signals, signals)
    spectra = np.fft.rfft(signals, _fft_size(length, taps))
    scores = np.empty((num, len(signals)))
    for r, reference in enumerate(refs):
        try:
            scores[r] = _projection_scores(reference, spectra, energies, taps)
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
