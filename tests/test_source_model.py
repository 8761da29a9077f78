import math

import numpy as np
import pytest

from tilrma.source_model import (
    FLOOR,
    NmfFactors,
    convert_domain,
    init_factors,
    recompute_scale,
    scale_floor,
    sigma_squared,
    update_activations,
    update_bases,
)


def random_factors(rng, num_bins, num_frames, rank, p):
    return NmfFactors(
        0.1 + rng.random((num_bins, rank)), 0.1 + rng.random((rank, num_frames)), p
    )


def random_estimate(rng, num_bins, num_frames):
    return rng.standard_normal((num_bins, num_frames)) + 1j * rng.standard_normal(
        (num_bins, num_frames)
    )


def _refit_objective(sigma_p_model, target, p):
    """Discrepancy the domain-conversion refit minimizes.

    Per slot: (2/p) log(sigma^p) + target^(2/p) / sigma^2, minimized exactly
    at sigma^p = target.
    """
    sig_sq = sigma_squared(sigma_p_model, p)
    data_sq = target ** (2.0 / p)
    return float(np.sum((2.0 / p) * np.log(sigma_p_model) + data_sq / sig_sq))


def source_cost_oracle(y_slice, basis, activation, nu, p):
    # independent transcription of the per-source data term, plain loops
    total = 0.0
    bins, frames = y_slice.shape
    for i in range(bins):
        for j in range(frames):
            sp = max(sum(basis[i, l] * activation[l, j] for l in range(basis.shape[1])),
                     scale_floor(p))
            sig_sq = sp ** (2.0 / p)
            power = abs(y_slice[i, j]) ** 2
            if math.isinf(nu):
                total += math.log(sp) + power / sp
            else:
                total += (1.0 + nu / 2.0) * math.log(1.0 + (2.0 / nu) * power / sig_sq)
                total += (2.0 / p) * math.log(sp)
    return total


class TestRecomputeScale:
    def test_single_product(self):
        f = NmfFactors([[2.0]], [[3.0]], 2.0)
        assert recompute_scale(f) == pytest.approx(6.0, rel=0, abs=0)

    def test_zero_row_is_floored(self):
        f = NmfFactors([[0.0], [1.0]], [[1.0, 2.0]], 2.0)
        out = recompute_scale(f)
        assert np.all(out[0] == FLOOR)
        assert np.array_equal(out[1], [1.0, 2.0])

    def test_amplitude_domain_floor_keeps_sigma_sq_above_floor(self):
        f = NmfFactors([[0.0]], [[0.0]], 1.0)
        out = recompute_scale(f)
        assert out[0, 0] == scale_floor(1.0)
        assert out[0, 0] ** 2 >= FLOOR * (1 - 1e-15)

    def test_random_matches_double_loop(self):
        rng = np.random.default_rng(0)
        f = random_factors(rng, 4, 5, 2, 2.0)
        out = recompute_scale(f)
        for i in range(4):
            for j in range(5):
                direct = sum(f.basis[i, l] * f.activation[l, j] for l in range(2))
                assert out[i, j] == pytest.approx(direct, rel=1e-15)


class TestUpdateBases:
    def test_gaussian_fixed_point(self):
        rng = np.random.default_rng(1)
        f = random_factors(rng, 6, 7, 2, 2.0)
        sp = recompute_scale(f)
        y = np.sqrt(sp) * np.exp(2j * np.pi * rng.random(sp.shape))  # |y|^2 == sigma^2
        out = update_bases(f, y, sp, math.inf)
        assert np.allclose(out.basis, f.basis, rtol=1e-12)

    def test_scalar_instance_matches_transcription(self):
        t, v = 0.7, 1.3
        y = 0.9 + 0.4j
        nu, p = 5.0, 1.5
        sp = t * v
        sig_sq = sp ** (2.0 / p)
        power = abs(y) ** 2
        weight = 1.0 / (nu / (nu + 2.0) * sig_sq + 2.0 / (nu + 2.0) * power)
        expected = t * ((power * weight * sp**-1 * v) / (sp**-1 * v)) ** (p / (p + 2.0))

        f = NmfFactors([[t]], [[v]], p)
        out = update_bases(f, np.array([[y]]), recompute_scale(f), nu)
        assert out.basis[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_update_exponent_values(self):
        # with L=I=J=1 and |y|^2 = 4 sigma^2 the update ratio is 4^(p/(p+2))
        for p, expected in ((2.0, 4.0 ** 0.5), (1.0, 4.0 ** (1.0 / 3.0))):
            f = NmfFactors([[0.5]], [[0.8]], p)
            sp = recompute_scale(f)
            y = np.array([[2.0 * float(sp[0, 0]) ** (1.0 / p)]], dtype=complex)
            out = update_bases(f, y, sp, math.inf)
            assert out.basis[0, 0] / 0.5 == pytest.approx(expected, rel=1e-12)

    def test_cost_does_not_increase(self):
        rng = np.random.default_rng(2)
        nu, p = 5.0, 1.0
        f = random_factors(rng, 8, 10, 2, p)
        y = random_estimate(rng, 8, 10)
        sp = recompute_scale(f)
        before = source_cost_oracle(y, f.basis, f.activation, nu, p)
        out = update_bases(f, y, sp, nu)
        after = source_cost_oracle(y, out.basis, out.activation, nu, p)
        assert after <= before + 1e-10 * abs(before)

    def test_floor_preserved_on_silent_input(self):
        f = NmfFactors(np.full((3, 2), 0.5), np.full((2, 4), 0.5), 2.0)
        out = update_bases(f, np.zeros((3, 4), complex), recompute_scale(f), 10.0)
        assert np.all(out.basis >= FLOOR)


class TestUpdateActivations:
    def test_gaussian_fixed_point(self):
        rng = np.random.default_rng(3)
        f = random_factors(rng, 6, 7, 2, 2.0)
        sp = recompute_scale(f)
        y = np.sqrt(sp) * np.exp(2j * np.pi * rng.random(sp.shape))
        out = update_activations(f, y, sp, math.inf)
        assert np.allclose(out.activation, f.activation, rtol=1e-12)

    def test_scalar_instance_matches_transcription(self):
        t, v = 1.1, 0.4
        y = -0.3 + 1.2j
        nu, p = 3.0, 1.0
        sp = t * v
        sig_sq = sp ** (2.0 / p)
        power = abs(y) ** 2
        weight = 1.0 / (nu / (nu + 2.0) * sig_sq + 2.0 / (nu + 2.0) * power)
        expected = v * ((power * weight * sp**-1 * t) / (sp**-1 * t)) ** (p / (p + 2.0))

        f = NmfFactors([[t]], [[v]], p)
        out = update_activations(f, np.array([[y]]), recompute_scale(f), nu)
        assert out.activation[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_cost_does_not_increase(self):
        rng = np.random.default_rng(4)
        nu, p = 5.0, 1.0
        f = random_factors(rng, 8, 10, 2, p)
        y = random_estimate(rng, 8, 10)
        before = source_cost_oracle(y, f.basis, f.activation, nu, p)
        out = update_activations(f, y, recompute_scale(f), nu)
        after = source_cost_oracle(y, out.basis, out.activation, nu, p)
        assert after <= before + 1e-10 * abs(before)


class TestGaussianLimitReduction:
    def test_matches_separately_coded_isnmf(self):
        rng = np.random.default_rng(5)
        f = random_factors(rng, 7, 9, 3, 2.0)
        y = random_estimate(rng, 7, 9)
        power = np.abs(y) ** 2
        r = recompute_scale(f)

        ours = update_bases(f, y, r, math.inf)
        isnmf_basis = f.basis * np.sqrt(
            ((power / r**2) @ f.activation.T) / ((1.0 / r) @ f.activation.T)
        )
        assert np.allclose(ours.basis, np.maximum(isnmf_basis, FLOOR), rtol=1e-12)

        ours2 = update_activations(f, y, r, math.inf)
        isnmf_act = f.activation * np.sqrt(
            (f.basis.T @ (power / r**2)) / (f.basis.T @ (1.0 / r))
        )
        assert np.allclose(ours2.activation, np.maximum(isnmf_act, FLOOR), rtol=1e-12)


class TestMmSequenceMonotonicity:
    @pytest.mark.parametrize("nu,p", [(math.inf, 2.0), (1.0, 1.0), (10.0, 1.5)])
    def test_full_update_sequence(self, nu, p):
        rng = np.random.default_rng(6)
        f = random_factors(rng, 8, 10, 2, p)
        y = random_estimate(rng, 8, 10)
        costs = [source_cost_oracle(y, f.basis, f.activation, nu, p)]
        for _ in range(5):
            f = update_bases(f, y, recompute_scale(f), nu)
            costs.append(source_cost_oracle(y, f.basis, f.activation, nu, p))
            f = update_activations(f, y, recompute_scale(f), nu)
            costs.append(source_cost_oracle(y, f.basis, f.activation, nu, p))
        costs = np.array(costs)
        assert np.all(costs[1:] <= costs[:-1] + 1e-10 * np.abs(costs[:-1]))


class TestInitFactors:
    def test_seed_determinism(self):
        a = init_factors(5, 6, 2, seed=42)
        b = init_factors(5, 6, 2, seed=42)
        assert np.array_equal(a.basis, b.basis)
        assert np.array_equal(a.activation, b.activation)

    def test_range(self):
        f = init_factors(50, 60, 3, seed=0)
        for arr in (f.basis, f.activation):
            assert np.all(arr > 0.0) and np.all(arr <= 1.0)
            assert np.all(arr >= FLOOR)

    def test_different_seeds_differ(self):
        a = init_factors(5, 6, 2, seed=1)
        b = init_factors(5, 6, 2, seed=2)
        assert not np.array_equal(a.basis, b.basis)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            init_factors(5, 6, 0, seed=0)


class TestConvertDomain:
    def test_same_exponent_is_identity(self):
        rng = np.random.default_rng(7)
        f = random_factors(rng, 4, 5, 2, 2.0)
        sp = recompute_scale(f)
        out_f, out_sp = convert_domain(f, sp, 2.0)
        assert out_f is f and out_sp is sp

    def test_rank_one_exact_power(self):
        rng = np.random.default_rng(8)
        f = random_factors(rng, 4, 5, 1, 2.0)
        sp = recompute_scale(f)
        _, converted = convert_domain(f, sp, 1.0)
        expected = (f.basis @ f.activation) ** 0.5
        assert np.allclose(converted, expected, rtol=1e-12)

    def test_refit_reduces_reconstruction_error(self):
        rng = np.random.default_rng(9)
        f = random_factors(rng, 8, 10, 3, 2.0)
        sp = recompute_scale(f)
        new_p = 1.0
        exponent = new_p / f.p
        seed_factors = NmfFactors(f.basis**exponent, f.activation**exponent, new_p)
        target = sp**exponent
        pre = _refit_objective(recompute_scale(seed_factors), target, new_p)
        out_f, out_target = convert_domain(f, sp, new_p)
        post = _refit_objective(recompute_scale(out_f), out_target, new_p)
        assert post <= pre + 1e-10 * abs(pre)

    def test_p_validation(self):
        f = NmfFactors([[1.0]], [[1.0]], 2.0)
        with pytest.raises(ValueError):
            convert_domain(f, recompute_scale(f), 2.5)
