import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tilrma import metrics
from tilrma.errors import IllConditionedProjectionError, ZeroReferenceError


def orthogonal_noise(rng, reference):
    noise = rng.standard_normal(reference.shape)
    noise -= (noise @ reference) / (reference @ reference) * reference
    return noise


def _loop_sdr_projection(reference, estimate, taps):
    """Projection SDR by explicit lag loops and shifted copies: the reference
    the FFT scorer is checked against."""
    reference = np.asarray(reference, dtype=np.float64)
    estimate = np.asarray(estimate, dtype=np.float64)
    length = reference.shape[0]
    # a lag at or past the length overlaps nothing
    lags = np.array([reference[d:] @ reference[: max(length - d, 0)] for d in range(taps)])
    gram = np.empty((taps, taps))
    for a in range(taps):
        for b in range(taps):
            gram[a, b] = lags[abs(a - b)]
    rhs = np.array([estimate[d:] @ reference[: max(length - d, 0)] for d in range(taps)])
    if np.linalg.cond(gram) > metrics.MAX_CONDITION:
        raise IllConditionedProjectionError(
            f"projection normal equations ill-conditioned (taps={taps})"
        )
    coef = np.linalg.solve(gram, rhs)
    padded = np.zeros(length + taps - 1)
    for d in range(taps):
        padded[d : d + length] += coef[d] * reference
    err = np.concatenate([estimate, np.zeros(taps - 1)]) - padded
    return metrics._capped_db(float(padded @ padded), float(err @ err))


def one_pair(reference, estimate, taps=1):
    """The library's score of one estimate against one reference."""
    return metrics.align_permutation([reference], [estimate], taps).per_source_sdr[0]


def lstsq_sdr(reference, estimate, taps):
    """Projection SDR from an explicit delayed-reference matrix and a dense
    least-squares fit: the oracle for accuracy at high SDR."""
    length = reference.shape[0]
    shifted = np.zeros((length + taps - 1, taps))
    for d in range(taps):
        shifted[d : d + length, d] = reference
    padded_est = np.concatenate([estimate, np.zeros(taps - 1)])
    coef, *_ = np.linalg.lstsq(shifted, padded_est, rcond=None)
    target = shifted @ coef
    err = padded_est - target
    return 10 * np.log10((target @ target) / (err @ err))


class TestSiSdr:
    def test_perfect_match_hits_cap(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(500)
        assert one_pair(x, x) == metrics.CAP_DB

    def test_scaled_estimate_hits_cap(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(500)
        assert one_pair(x, 2.0 * x) == metrics.CAP_DB

    def test_constructed_snr(self):
        rng = np.random.default_rng(2)
        ref = rng.standard_normal(2000)
        noise = orthogonal_noise(rng, ref)
        for target_db in (10.0, 0.0, -5.0):
            gain = np.linalg.norm(ref) / (np.linalg.norm(noise) * 10 ** (target_db / 20))
            est = ref + gain * noise
            assert one_pair(ref, est) == pytest.approx(target_db, abs=0.1)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        ref = rng.standard_normal(300)
        est = rng.standard_normal(300)
        base = one_pair(ref, est)
        for c in (0.01, 3.0, -2.0):
            assert one_pair(ref, c * est) == pytest.approx(base, abs=1e-10)

    def test_zero_reference_raises(self):
        with pytest.raises(ZeroReferenceError):
            one_pair(np.zeros(10), np.ones(10))

    def test_orthogonal_estimate_hits_negative_cap(self):
        rng = np.random.default_rng(4)
        ref = rng.standard_normal(400)
        assert one_pair(ref, orthogonal_noise(rng, ref)) == -metrics.CAP_DB

    def test_silent_estimate_hits_negative_cap(self):
        ref = np.random.default_rng(4).standard_normal(400)
        assert one_pair(ref, np.zeros(400)) == -metrics.CAP_DB


class TestSdrProjection:
    def test_single_tap_reduces_to_si_sdr(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            ref = rng.standard_normal(400)
            est = rng.standard_normal(400)
            target = (est @ ref) / (ref @ ref) * ref
            si_sdr = 10 * np.log10((target @ target) / ((est - target) @ (est - target)))
            assert one_pair(ref, est, 1) == pytest.approx(si_sdr, abs=1e-9)

    def test_delay_absorbed_by_filter(self):
        rng = np.random.default_rng(6)
        ref = rng.standard_normal(1000)
        ref[-8:] = 0.0  # nothing falls off the edge when delayed by < taps
        for d in (1, 3, 7):
            est = np.concatenate([np.zeros(d), ref[:-d]])
            assert one_pair(ref, est, 8) == metrics.CAP_DB

    def test_matches_dense_least_squares_oracle(self):
        # the last two inputs have more taps than samples: every delayed copy
        # still fits in the zero-padded signal, so the score is well defined;
        # at (40, 52) one sample less of FFT length (90, itself 5-smooth)
        # would wrap est[0] * ref[39] into the correlation at lag 51
        for length, taps in ((600, 6), (100, 300), (40, 52)):
            rng = np.random.default_rng(7)
            ref = rng.standard_normal(length)
            est = rng.standard_normal(length)
            ours = one_pair(ref, est, taps)
            assert ours == pytest.approx(lstsq_sdr(ref, est, taps), abs=1e-9)

    @pytest.mark.parametrize(
        "target_db, tolerance_db",
        [(20, 1e-6), (40, 1e-6), (60, 1e-6), (80, 1e-6), (95, 1e-4)],
    )
    def test_high_sdr_matches_dense_least_squares_oracle(self, target_db, tolerance_db):
        # the quadratic-form residual cancels against the estimate's energy,
        # so its rounding grows like eps * 10**(SDR/10)
        rng = np.random.default_rng(target_db)
        ref = rng.standard_normal(4000)
        noise = rng.standard_normal(4000)
        gain = 0.7 * np.linalg.norm(ref) / np.linalg.norm(noise) * 10 ** (-target_db / 20)
        est = 0.7 * ref + gain * noise
        expected = lstsq_sdr(ref, est, 64)
        assert expected == pytest.approx(target_db, abs=0.1)
        assert one_pair(ref, est, 64) == pytest.approx(expected, abs=tolerance_db)

    def test_silent_estimate_hits_negative_cap(self):
        ref = np.random.default_rng(4).standard_normal(400)
        assert one_pair(ref, np.zeros(400), 16) == -metrics.CAP_DB

    @pytest.mark.parametrize("taps", [1, 7, 512])
    @pytest.mark.parametrize("length", [1001, 4099])
    def test_matches_loop_oracle(self, length, taps):
        rng = np.random.default_rng(length + taps)
        ref = rng.standard_normal(length)
        ref[-8:] = 0.0
        delayed_copy = np.concatenate([np.zeros(5), -0.7 * ref[:-5]])
        estimates = {
            "noise": rng.standard_normal(length),
            "noisy copy": np.convolve(ref, [1.0, 0.5, -0.25])[:length]
            + 0.3 * rng.standard_normal(length),
            "delayed copy": delayed_copy,
        }
        for name, est in estimates.items():
            expected = _loop_sdr_projection(ref, est, taps)
            assert one_pair(ref, est, taps) == pytest.approx(expected, abs=1e-9), name
        # the delay (5) is within the filter from 7 taps on: the CAP_DB path
        assert (expected == metrics.CAP_DB) == (taps >= 7)

    @pytest.mark.parametrize(
        "length, taps, count",
        [
            (500, 64, 1),   # shorter than one hop: one block of 1024
            (2883, 64, 3),  # three whole hops of 961
            (2884, 64, 4),  # one sample into a fourth block
            (3000, 1, 3),
            (3000, 37, 4),  # odd taps
            (40, 100, 1),   # more taps than samples
            (9000, 16, 9),  # more blocks than CHUNK_BLOCKS
        ],
    )
    def test_block_edges_match_loop_oracle(self, length, taps, count):
        block, _, blocks = metrics._block_plan(length, taps)
        assert blocks == count
        assert block >= taps and block & (block - 1) == 0  # a power of two
        rng = np.random.default_rng(length + taps)
        ref = rng.standard_normal(length)
        est = np.convolve(ref, [1.0, 0.5, -0.25])[:length] + 0.3 * rng.standard_normal(length)
        assert one_pair(ref, est, taps) == pytest.approx(
            _loop_sdr_projection(ref, est, taps), abs=1e-9
        )

    @settings(derandomize=True, database=None, deadline=None)
    @given(
        length=st.integers(1, 3000),
        taps=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_loop_oracle_for_any_shape(self, length, taps, seed):
        rng = np.random.default_rng(seed)
        ref = rng.standard_normal(length)
        est = np.convolve(ref, [1.0, 0.5, -0.25])[:length] + 0.3 * rng.standard_normal(length)
        assert one_pair(ref, est, taps) == pytest.approx(
            _loop_sdr_projection(ref, est, taps), abs=1e-9
        )

    @pytest.mark.parametrize("order", [1, 2, 7, 16, 512])
    def test_half_systems_match_full_gram(self, order):
        rng = np.random.default_rng(order)
        signal = rng.standard_normal(4 * order)
        lags = np.array([signal[d:] @ signal[: signal.size - d] for d in range(order)])
        delay = np.arange(order)
        gram = lags[np.abs(delay[:, None] - delay)]  # the full Toeplitz Gram, as the oracle
        even, odd = metrics._half_systems("x", lags)
        assert even.shape == ((order + 1) // 2,) * 2 and odd.shape == (order // 2,) * 2
        full = np.linalg.eigvalsh(gram)
        halves = np.sort(np.concatenate([np.linalg.eigvalsh(even), np.linalg.eigvalsh(odd)]))
        # backward-stable eigenvalues are exact to a few eps times the norm
        np.testing.assert_allclose(halves, full, rtol=0, atol=1e-13 * order * full[-1])
        rhs = rng.standard_normal((order, 3))
        coef = np.linalg.solve(gram, rhs)
        sym_rhs, anti_rhs = metrics._fold(rhs)
        solved = np.linalg.solve(even, sym_rhs), np.linalg.solve(odd, anti_rhs)
        # both solves are exact to about eps times the condition number
        bound = 1e-14 * order * (full[-1] / full[0]) * np.max(np.abs(coef))
        for part, part_expected in zip(solved, metrics._fold(coef)):
            np.testing.assert_allclose(part, part_expected, rtol=0, atol=bound)

    def test_reference_check_forms_no_full_gram(self):
        # at 2,000 taps a full Gram and its index array alone are 64 MB; the
        # half systems are 8 MB each
        ref = np.random.default_rng(9).standard_normal(8000)
        tracemalloc.start()
        try:
            metrics.check_reference("x.wav", ref, 2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6, peak

    def test_monotone_in_taps(self):
        rng = np.random.default_rng(8)
        ref = rng.standard_normal(800)
        est = rng.standard_normal(800)
        scores = [one_pair(ref, est, taps) for taps in (1, 2, 4, 8, 16)]
        assert all(b >= a - 1e-9 for a, b in zip(scores, scores[1:]))

    def test_near_singular_normal_equations_rejected(self):
        # half a cycle of an ultra-slow sinusoid: 512 delayed copies are
        # numerically collinear and the Gram condition number passes 1e12
        k = np.arange(2048)
        ref = np.sin(2 * np.pi * k / 4096)
        with pytest.raises(IllConditionedProjectionError):
            one_pair(ref, ref, taps=512)

    def test_taps_must_be_positive(self):
        # any integer of at least 1, numpy's included; a bool is not a count
        for taps in (0, 2.5, True, np.int64(0), -3):
            with pytest.raises(ValueError, match="taps"):
                metrics.align_permutation([np.ones(10)], [np.ones(10)], taps=taps)
            with pytest.raises(ValueError, match="taps"):
                metrics.check_reference("x.wav", np.ones(10), taps)
        rng = np.random.default_rng(5)
        ref = rng.standard_normal(500)
        est = ref + rng.standard_normal(500)
        assert one_pair(ref, est, np.int64(16)) == one_pair(ref, est, 16)
        metrics.check_reference("x.wav", ref, np.int64(16))


class TestAlignPermutation:
    def test_swapped_references_recovered(self):
        rng = np.random.default_rng(9)
        srcs = [rng.standard_normal(300) for _ in range(3)]
        report = metrics.align_permutation(srcs, [srcs[2], srcs[0], srcs[1]])
        assert report.permutation == (1, 2, 0)
        assert all(s == metrics.CAP_DB for s in report.per_source_sdr)

    def test_single_source_identity(self):
        rng = np.random.default_rng(10)
        s = rng.standard_normal(100)
        report = metrics.align_permutation([s], [s + 0.01])
        assert report.permutation == (0,)

    def test_matches_brute_force_transcription(self):
        rng = np.random.default_rng(11)
        refs = [rng.standard_normal(200) for _ in range(3)]
        ests = [
            refs[1] + 0.4 * rng.standard_normal(200),
            refs[2] + 0.7 * rng.standard_normal(200),
            refs[0] + 0.2 * rng.standard_normal(200),
        ]
        report = metrics.align_permutation(refs, ests)

        best, best_total = None, -np.inf
        for perm in itertools.permutations(range(3)):
            total = sum(_loop_sdr_projection(refs[r], ests[perm[r]], 1) for r in range(3))
            if total > best_total:
                best, best_total = perm, total
        assert report.permutation == best

    def test_total_beats_identity_assignment(self):
        rng = np.random.default_rng(12)
        refs = [rng.standard_normal(150) for _ in range(2)]
        ests = [refs[1], refs[0]]
        report = metrics.align_permutation(refs, ests)
        identity_total = sum(_loop_sdr_projection(refs[r], ests[r], 1) for r in range(2))
        assert sum(report.per_source_sdr) >= identity_total

    def test_improvement_against_mixture(self):
        rng = np.random.default_rng(13)
        refs = [rng.standard_normal(300) for _ in range(2)]
        mixture = refs[0] + refs[1]
        report = metrics.align_permutation(refs, [refs[0], refs[1]], mixture=mixture)
        assert report.baseline_sdr is not None
        assert report.mean_improvement_db > 0.0

    def test_silent_estimate_is_not_a_perfect_score(self):
        rng = np.random.default_rng(12)
        r, q = rng.standard_normal(1000), rng.standard_normal(1000)
        report = metrics.align_permutation(
            [r, q], [np.zeros(1000), r], taps=16, mixture=r + q
        )
        assert report.permutation == (1, 0)
        assert report.per_source_sdr == [metrics.CAP_DB, -metrics.CAP_DB]

    def test_source_count_cap(self):
        with pytest.raises(ValueError):
            metrics.align_permutation([np.ones(4)] * 9, [np.ones(4)] * 9)

    @pytest.mark.parametrize(
        "change, message",
        [
            (("estimates", 1, np.ones((1000, 2))),
             r"estimate 1 has shape \(1000, 2\), expected \(1000,\)"),
            (("mixture", None, np.ones(999)), "mixture has 999 samples, expected 1000"),
            (("references", 2, np.ones(1001)), "reference 2 has 1001 samples, expected 1000"),
            (("estimates", 0, np.full(1000, np.nan)), "estimate 0 has non-finite samples"),
        ],
        ids=["stereo-estimate", "short-mixture", "long-reference", "nan-estimate"],
    )
    def test_signal_shapes_checked_before_scoring(self, monkeypatch, change, message):
        rng = np.random.default_rng(14)
        signals = {
            "references": [rng.standard_normal(1000) for _ in range(3)],
            "estimates": [rng.standard_normal(1000) for _ in range(3)],
            "mixture": rng.standard_normal(1000),
        }
        kind, index, bad = change
        if index is None:
            signals[kind] = bad
        else:
            signals[kind][index] = bad

        def no_scoring(*args):
            raise AssertionError("a pair was scored before the inputs were checked")

        monkeypatch.setattr(metrics, "_projection_scores", no_scoring)
        with pytest.raises(ValueError, match=message):
            metrics.align_permutation(
                signals["references"], signals["estimates"], taps=16,
                mixture=signals["mixture"],
            )

    def test_ill_conditioned_reference_is_named(self):
        # the slow sinusoid of test_near_singular_normal_equations_rejected,
        # as the second of two references
        k = np.arange(2048)
        slow = np.sin(2 * np.pi * k / 4096)
        noise = np.random.default_rng(15).standard_normal(2048)
        with pytest.raises(
            IllConditionedProjectionError,
            match=r"^reference 1: projection normal equations ill-conditioned \(taps=512\)$",
        ):
            metrics.align_permutation([noise, slow], [slow, noise], taps=512)
        # the same check on one reference, without estimates
        with pytest.raises(
            IllConditionedProjectionError,
            match=r"^slow\.wav: projection normal equations ill-conditioned \(taps=512\)$",
        ):
            metrics.check_reference("slow.wav", slow, taps=512)
        metrics.check_reference("noise.wav", noise, taps=512)

    def test_zero_reference_is_named(self):
        noise = np.random.default_rng(16).standard_normal(64)
        message = r"^reference 0 is all-zero over the 64 scored samples$"
        with pytest.raises(ZeroReferenceError, match=message):
            metrics.align_permutation([np.zeros(64), noise], [noise, noise], taps=4)
        # check_reference rejects what align_permutation rejects, including a
        # reference whose energy underflows to zero
        tiny = np.full(64, 1e-200)
        with pytest.raises(ZeroReferenceError, match=message):
            metrics.align_permutation([tiny], [noise], taps=4)
        for silent in (np.zeros(64), tiny):
            with pytest.raises(ZeroReferenceError,
                               match=r"^silent\.wav is all-zero over the 64 scored samples$"):
                metrics.check_reference("silent.wav", silent, taps=4)

    def test_empty_reference_is_all_zero(self):
        with pytest.raises(ZeroReferenceError,
                           match=r"^reference 0 is all-zero over the 0 scored samples$"):
            metrics.align_permutation([np.zeros(0)], [np.zeros(0)], taps=4)

    def test_strided_signals_score_as_their_copies(self):
        # the CLI scores one channel of multichannel arrays: strided columns
        rng = np.random.default_rng(18)
        refs = rng.standard_normal((4000, 3))
        ests = refs[:, ::-1] + 0.5 * rng.standard_normal((4000, 3))
        mixture = rng.standard_normal((4000, 2))[:, 0]
        strided = metrics.align_permutation(list(refs.T), list(ests.T), taps=64,
                                            mixture=mixture)
        copied = metrics.align_permutation([x.copy() for x in refs.T],
                                           [x.copy() for x in ests.T], taps=64,
                                           mixture=mixture.copy())
        assert strided.per_source_sdr == copied.per_source_sdr
        assert strided.baseline_sdr == copied.baseline_sdr

    @pytest.mark.parametrize("with_mixture", [False, True], ids=["no-mixture", "mixture"])
    def test_batched_scores_match_single_pair(self, with_mixture):
        rng = np.random.default_rng(17)
        refs = [rng.standard_normal(700) for _ in range(3)]
        ests = [refs[(r + 1) % 3] + 0.5 * rng.standard_normal(700) for r in range(3)]
        mixture = sum(refs) if with_mixture else None
        taps = 16
        report = metrics.align_permutation(refs, ests, taps=taps, mixture=mixture)
        assert report.permutation == (2, 0, 1)
        for r, e in enumerate(report.permutation):
            single = one_pair(refs[r], ests[e], taps)
            assert report.per_source_sdr[r] == pytest.approx(single, abs=1e-12)
        if with_mixture:
            for r in range(3):
                single = one_pair(refs[r], mixture, taps)
                assert report.baseline_sdr[r] == pytest.approx(single, abs=1e-12)
        else:
            assert report.baseline_sdr is None
