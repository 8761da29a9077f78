"""Separation quality: projection SDR with a time-invariant
allowed-distortion filter, scored for every output-reference pair and
aligned by the best permutation.

The projection SDR is BSS Eval's time-invariant-filter SDR (Vincent et al.,
2006).  Its correlations at lags 0..taps-1 come from overlap-save block
FFTs: every signal is cut into blocks of a few times ``taps`` samples that
overlap by ``taps - 1``, the reference into the first ``hop`` samples of
each block, zero-padded, and the products of their spectra, summed over
blocks, give the linear correlations from one short inverse transform.
Blocks are transformed a few at a time, so the working set does not grow
with the signal length.  Its
normal equations are a symmetric Toeplitz matrix indexed from one
reference's autocorrelation.  Such a matrix is centrosymmetric, so it is
checked and solved as two half-size symmetric systems, one for the
filter's symmetric part and one for its antisymmetric part.
``align_permutation`` handles each reference once: one condition check and
one solve, with every estimate and the mixture as right-hand sides.  The
projected and residual energies are quadratic forms in the solved filter,
so no projection is rebuilt; the residual's rounding grows like
eps·10^(SDR/10) relative to the signal energy (about 1e-5 dB at 99 dB).

Scores are capped at +/-100 dB so reports stay finite and comparable; a
perfect match reports the cap rather than infinity, and a silent estimate
reports -100 dB.
"""

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import IllConditionedProjectionError, ZeroReferenceError

CAP_DB = 100.0

# Normal-equation condition numbers beyond this make the projection filter
# numerically meaningless.
MAX_CONDITION = 1e12

# Shortest block FFT, so that few taps do not make thousands of tiny transforms.
MIN_BLOCK = 1024

# Blocks transformed at a time, so the working set stays at a few blocks per
# signal however long the signals are.
CHUNK_BLOCKS = 8


def _capped_db(signal_energy, error_energy):
    # the -CAP test comes first, so that a silent estimate (both energies 0)
    # scores -CAP and not a perfect +CAP
    if signal_energy <= error_energy * 10.0 ** (-CAP_DB / 10.0):
        return -CAP_DB
    if error_energy <= signal_energy * 10.0 ** (-CAP_DB / 10.0):
        return CAP_DB
    return float(10.0 * np.log10(signal_energy / error_energy))


def _fft_size(length, taps):
    """Smallest even 2·3·5-smooth integer >= ``length + taps - 1`` (and >= 2).

    At that length the circular correlations of the zero-padded signals
    equal the linear ones at every lag 0..taps-1, so it bounds the block
    length of ``_block_plan``.
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


def _block_plan(length, taps):
    """Block length, hop and block count of the overlap-save correlations.

    The block is the smallest even 2·3·5-smooth length at least
    ``max(8 * taps, MIN_BLOCK)``, or ``_fft_size(length, taps)`` when that
    is shorter, so a short signal is one block.  Block b holds samples
    b·hop .. b·hop + block - 1, zero past the end, with
    ``hop = block - taps + 1``; ``count`` blocks cover every sample, and an
    empty signal is one block of zeros.
    """
    block = min(_fft_size(max(8 * taps, MIN_BLOCK), 1), _fft_size(length, taps))
    hop = block - taps + 1
    return block, hop, max(-(-length // hop), 1)


def _blocks(signals, start, span, block, hop):
    """Samples start .. start + span - 1 of each signal, zero past its end,
    as a read-only ``(signals, blocks, block)`` view of blocks ``hop`` apart."""
    padded = np.zeros((len(signals), span))
    for row, signal in zip(padded, signals):
        part = signal[start : start + span]
        row[: part.shape[0]] = part
    return sliding_window_view(padded, block, axis=1)[:, ::hop]


def _correlations(references, signals, taps):
    """Lags 0..taps-1 of each reference's autocorrelation, ``(references,
    taps)``, and of every signal's correlation with it, ``(references, taps,
    signals)`` with ``cross[r, d, s] = sum_t signal_s[t + d] * reference_r[t]``.

    The blocks of ``_block_plan`` are transformed CHUNK_BLOCKS at a time.
    Each reference block is also transformed from its first ``hop`` samples
    alone, zero-padded: lags 0..taps-1 of its circular correlation with a
    whole block do not wrap, and the hops tile the reference, so the
    spectra's products, summed over blocks, give the linear correlations.
    Zero padding makes the Gram matrix of the delayed references exactly
    Toeplitz in the autocorrelation.
    """
    block, hop, count = _block_plan(len(references[0]), taps)
    auto = np.zeros((len(references), block // 2 + 1), dtype=complex)
    cross = np.zeros((len(references), len(signals), block // 2 + 1), dtype=complex)
    for first in range(0, count, CHUNK_BLOCKS):
        start = first * hop
        span = (min(CHUNK_BLOCKS, count - first) - 1) * hop + block
        spectra = np.fft.rfft(_blocks(signals, start, span, block, hop))
        for r, blocks in enumerate(_blocks(references, start, span, block, hop)):
            plain = np.fft.rfft(blocks[:, :hop], block).conj()
            auto[r] += np.einsum("bf,bf->f", np.fft.rfft(blocks), plain)
            cross[r] += np.einsum("sbf,bf->sf", spectra, plain)
    lags = np.fft.irfft(auto, block)[:, :taps]
    return lags, np.fft.irfft(cross, block)[:, :, :taps].transpose(0, 2, 1)


def _half_systems(gram):
    """The two half-size symmetric matrices E and O whose eigenvalues
    together are those of the symmetric Toeplitz matrix ``gram``.

    A symmetric Toeplitz matrix G of order n is centrosymmetric: it commutes
    with the exchange matrix J.  With h = n // 2, A = G[:h, :h] and BJ the
    block G[:h, n-h:] with its columns reversed, the orthogonal change of
    basis to vectors symmetric and antisymmetric under J turns G into
    diag(E, O) with E = A + BJ and O = A - BJ; for odd n, E also takes G's
    middle row and column, scaled by sqrt(2) off the diagonal.
    """
    n = gram.shape[0]
    h = n // 2
    top = gram[:h, :h]
    flipped = gram[:h, n - h:][:, ::-1]
    even = np.empty((n - h, n - h))
    even[:h, :h] = top + flipped
    if n % 2:
        even[:h, h] = even[h, :h] = np.sqrt(2.0) * gram[:h, h]
        even[h, h] = gram[h, h]
    return even, top - flipped


def _half_solve(even, odd, rhs):
    """Solution c of G c = ``rhs`` from ``_half_systems(G)``.

    The symmetric part c[:h] + c[::-1][:h] (with sqrt(2) times the middle
    entry for odd n) solves in E against rhs's symmetric part, and the
    antisymmetric part c[:h] - c[::-1][:h] in O against rhs's antisymmetric
    part.
    """
    n = rhs.shape[0]
    h = n // 2
    head, tail = rhs[:h], rhs[n - h:][::-1]
    sym_rhs = np.empty((n - h,) + rhs.shape[1:])
    sym_rhs[:h] = head + tail
    if n % 2:
        sym_rhs[h] = np.sqrt(2.0) * rhs[h]
    sym = np.linalg.solve(even, sym_rhs)
    anti = np.linalg.solve(odd, head - tail)
    coef = np.empty(rhs.shape)
    coef[:h] = 0.5 * (sym[:h] + anti)
    coef[n - h:] = (0.5 * (sym[:h] - anti))[::-1]
    if n % 2:
        coef[h] = sym[h] / np.sqrt(2.0)
    return coef


def _projection_scores(lags, cross, energies):
    """Projection SDR of each signal against one reference.

    ``lags`` holds the reference's autocorrelation at lags 0..taps-1,
    ``cross`` each signal's correlation with it, ``(taps, signals)``, and
    ``energies`` each signal's sum of squares.  The reference's Toeplitz
    normal equations are checked and solved once, with every signal as a
    right-hand side.

    For a signal s with cross-correlations b and solved filter c, the
    projected energy is cᵀGc and the residual energy ‖s‖² − 2cᵀb + cᵀGc.
    An error in the solve enters the residual only to second order, but the
    residual cancels against ‖s‖², so its rounding error is about eps·‖s‖²,
    eps·10^(SDR/10) times the residual itself: about 1e-7 dB at 80 dB and
    1e-5 dB at 99 dB.  A silent signal solves to c = 0, so both energies
    are 0 and it scores -CAP_DB.
    """
    taps = lags.shape[0]
    delay = np.arange(taps)
    gram = lags[np.abs(delay[:, None] - delay)]
    even, odd = _half_systems(gram)
    # the Gram matrix is symmetric, so its 2-norm condition number is the
    # ratio of its extreme eigenvalue magnitudes, which E and O hold between them
    magnitude = np.abs(np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)]))
    if not magnitude.max() <= MAX_CONDITION * magnitude.min():
        raise IllConditionedProjectionError(
            f"projection normal equations ill-conditioned (taps={taps})"
        )
    coef = _half_solve(even, odd, cross)
    signal_energy = np.sum(coef * (gram @ coef), axis=0)
    error_energy = energies - 2.0 * np.sum(coef * cross, axis=0) + signal_energy
    return [_capped_db(s, e) for s, e in zip(signal_energy, error_energy)]


def _signal(name, signal, length):
    """``signal`` as contiguous float64 after checking it is 1-D, ``length``
    long and finite."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.ndim != 1:
        raise ValueError(f"{name} has shape {signal.shape}, expected ({length},)")
    if signal.shape[0] != length:
        raise ValueError(f"{name} has {signal.shape[0]} samples, expected {length}")
    if not np.all(np.isfinite(signal)):
        raise ValueError(f"{name} has non-finite samples")
    # contiguous, so a strided view and its copy score the same to the last bit
    return np.ascontiguousarray(signal)


@dataclass
class EvalReport:
    """Alignment result: scores are indexed by reference, after permutation."""

    per_source_sdr: list
    permutation: tuple
    baseline_sdr: list | None = None
    mean_improvement_db: float | None = None


def align_permutation(references, estimates, taps=1, mixture=None):
    """Best assignment of estimates to references by exhaustive search.

    This is the library's one SDR scorer: a single pair scores as
    ``align_permutation([reference], [estimate], taps).per_source_sdr[0]``,
    and ``taps=1`` is the scale-invariant SDR.

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

    for r, reference in enumerate(refs):
        if float(reference @ reference) == 0.0:
            raise ZeroReferenceError(f"reference {r}: reference signal is all-zero")

    energies = np.array([signal @ signal for signal in signals])
    lags, cross = _correlations(refs, signals, taps)
    scores = np.empty((num, len(signals)))
    for r in range(num):
        try:
            scores[r] = _projection_scores(lags[r], cross[r], energies)
        except IllConditionedProjectionError as exc:
            raise IllConditionedProjectionError(f"reference {r}: {exc}") from None

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
