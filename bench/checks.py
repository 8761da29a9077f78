"""Output checks that do not trust the program under test.

Each ``check_*`` function returns a list of problems, empty when the
output passes.  The projection SDR here is coded independently of
``tilrma.metrics``: correlations come from FFTs, and the projection
and residual energies from quadratic forms in the solved filter instead of
a rebuilt signal.
"""

import itertools

import numpy as np

CAP_DB = 100.0          # scores are capped at +/-CAP_DB, as the program does
SDR_TOLERANCE_DB = 1e-6
COST_SLACK = 1e-10      # monotone-cost slack of acceptance criterion 1
FLOAT32_EPS = 2.0**-24


def _capped_db(signal_energy, error_energy):
    if error_energy <= signal_energy * 10.0 ** (-CAP_DB / 10.0):
        return CAP_DB
    if signal_energy <= error_energy * 10.0 ** (-CAP_DB / 10.0):
        return -CAP_DB
    return float(10.0 * np.log10(signal_energy / error_energy))


def projection_sdr(references, signals, taps):
    """Projection SDR of every signal against every reference.

    The allowed distortion is a ``taps``-long filter on the zero-padded
    reference.  Returns an array (references, signals) in dB.
    """
    references = np.asarray(references, dtype=np.float64)
    signals = np.asarray(signals, dtype=np.float64)
    length = references.shape[1]
    nfft = 1 << int(np.ceil(np.log2(length + taps)))
    ref_f = np.fft.rfft(references, nfft)
    sig_f = np.fft.rfft(signals, nfft)
    lag = np.abs(np.arange(taps)[:, None] - np.arange(taps)[None, :])
    sig_energy = np.sum(signals**2, axis=1)
    scores = np.empty((len(references), len(signals)))
    for r, spectrum in enumerate(ref_f):
        autocorr = np.fft.irfft(np.abs(spectrum) ** 2, nfft)[:taps]
        # cross[d, s] = sum_t signal_s[t + d] * reference[t]
        cross = np.fft.irfft(sig_f * np.conj(spectrum), nfft, axis=1)[:, :taps].T
        gram = autocorr[lag]
        coef = np.linalg.solve(gram, cross)
        # energies as quadratic forms in the filter, so that an error in the
        # solve enters the residual only to second order
        projected = np.sum(coef * (gram @ coef), axis=0)
        residual = sig_energy - 2.0 * np.sum(coef * cross, axis=0) + projected
        for s in range(len(signals)):
            scores[r, s] = _capped_db(projected[s], residual[s])
    return scores


def best_permutation(scores):
    """Assignment (estimate index per reference) with the highest total score."""
    num = scores.shape[0]
    return max(itertools.permutations(range(num)),
               key=lambda perm: sum(scores[r, perm[r]] for r in range(num)))


def sdr_gain(scores, baseline, permutation):
    """Mean over references of SDR at ``permutation`` minus the mixture's SDR."""
    return float(np.mean([scores[r, e] - baseline[r] for r, e in enumerate(permutation)]))


def check_evaluation(report, scores, baseline):
    """Compare an ``align_permutation`` report with independent scores.

    ``scores`` is (references, estimates) and ``baseline`` the mixture's
    score against each reference, both from ``projection_sdr``.
    """
    problems = []
    expected = best_permutation(scores)
    if tuple(report.permutation) != expected:
        problems.append(f"permutation {tuple(report.permutation)} != {expected}")
        return problems
    matched = [scores[r, e] for r, e in enumerate(expected)]
    for label, got, want in (("per-source SDR", report.per_source_sdr, matched),
                             ("baseline SDR", report.baseline_sdr, baseline)):
        if got is None or len(got) != len(want):
            problems.append(f"{label}: got {got}")
        elif np.max(np.abs(np.subtract(got, want))) > SDR_TOLERANCE_DB:
            problems.append(f"{label} {list(got)} != independent {list(want)}")
    gain = sdr_gain(scores, baseline, expected)
    if report.mean_improvement_db is None or abs(report.mean_improvement_db - gain) > SDR_TOLERANCE_DB:
        problems.append(f"mean improvement {report.mean_improvement_db} != independent {gain}")
    return problems


def check_shapes(outputs, count, num_samples, channels):
    """Output count, per-file shape and finiteness."""
    if len(outputs) != count:
        return [f"{len(outputs)} outputs, expected {count}"]
    problems = []
    for n, out in enumerate(outputs):
        if out.shape != (num_samples, channels):
            problems.append(f"output {n} has shape {out.shape}, expected {(num_samples, channels)}")
        elif not np.all(np.isfinite(out)):
            problems.append(f"output {n} has non-finite samples")
    return problems


def check_completeness(outputs, mixture, margin):
    """The outputs must sum to the mixture on samples ``margin`` away from either end.

    Each output was rounded to float32 once, so the allowed gap is a few
    float32 ulps of the outputs' combined magnitude.
    """
    inner = slice(margin, mixture.shape[0] - margin)
    stack = np.stack([out[inner] for out in outputs])
    gap = np.max(np.abs(stack.sum(axis=0) - mixture[inner]))
    allowed = 4.0 * FLOAT32_EPS * np.max(np.abs(stack).sum(axis=0)) + 1e-12
    if not gap <= allowed:
        return [f"outputs miss the mixture by {gap:.3e} (allowed {allowed:.3e})"]
    return []


def check_cost_trace(trace, stage_boundary, iterations):
    """The cost must not rise within a stage, up to criterion 1's slack."""
    trace = np.asarray(trace, dtype=np.float64)
    if trace.shape != (iterations,) or not np.all(np.isfinite(trace)):
        return [f"cost trace has shape {trace.shape} or non-finite entries"]
    cut = [0, iterations] if stage_boundary is None else [0, stage_boundary, iterations]
    problems = []
    for lo, hi in zip(cut[:-1], cut[1:]):
        stage = trace[lo:hi]
        bound = stage[:-1] + COST_SLACK * np.abs(stage[:-1]) + COST_SLACK
        rises = np.nonzero(stage[1:] > bound)[0]
        if rises.size:
            k = lo + int(rises[0]) + 1
            problems.append(f"cost rose at iteration {k}: {trace[k - 1]!r} -> {trace[k]!r}")
    return problems
