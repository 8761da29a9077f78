import math
import tracemalloc

import numpy as np
import pytest

from tilrma.source_model import (
    FLOOR,
    _t_weight,
    _update_factor,
    _weighted_power,
    convert_domain,
    init_factors,
    recompute_scale,
    scale_floor,
    sigma_squared,
    update_factors,
)


def random_factors(rng, num_bins, num_frames, rank):
    """(basis, activation) of one source."""
    return 0.1 + rng.random((num_bins, rank)), 0.1 + rng.random((rank, num_frames))


def scalar_factors(t, v):
    return np.array([[t]], dtype=float), np.array([[v]], dtype=float)


def planes(like):
    """Work planes for the factor updates, shaped for a (bins, frames) operand."""
    return np.empty((2,) + like.shape)


def update_role(role, basis, activation, power, sigma_p, p, nu, scratch):
    """The update of one factor, as ``update_factors`` calls the rule for it;
    returns that factor."""
    if role == "basis":
        _update_factor(basis, activation, power, sigma_p, p, nu, scratch)
        return basis
    _update_factor(activation.T, basis.T, power.T, sigma_p.T, p, nu, scratch.transpose(0, 2, 1))
    return activation


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
        assert recompute_scale(*scalar_factors(2.0, 3.0), 2.0) == pytest.approx(6.0, rel=0, abs=0)

    def test_zero_row_is_floored(self):
        out = recompute_scale(np.array([[0.0], [1.0]]), np.array([[1.0, 2.0]]), 2.0)
        assert np.all(out[0] == FLOOR)
        assert np.array_equal(out[1], [1.0, 2.0])

    def test_amplitude_domain_floor_keeps_sigma_sq_above_floor(self):
        out = recompute_scale(*scalar_factors(0.0, 0.0), 1.0)
        assert out[0, 0] == scale_floor(1.0)
        assert out[0, 0] ** 2 >= FLOOR * (1 - 1e-15)

    def test_random_matches_double_loop(self):
        rng = np.random.default_rng(0)
        t, v = random_factors(rng, 4, 5, 2)
        out = recompute_scale(t, v, 2.0)
        for i in range(4):
            for j in range(5):
                direct = sum(t[i, l] * v[l, j] for l in range(2))
                assert out[i, j] == pytest.approx(direct, rel=1e-15)


ROLES = ["basis", "activation"]


class UpdateRuleChecks:
    """The checks of the factor update rule, run in one role by each subclass.

    The activation's update is the basis update with bins and frames
    exchanged, so both roles take every check.
    """

    role = None
    fixed_point_seed = cost_seed = None
    scalar_case = None  # (t, v, y, nu, p)

    def test_gaussian_fixed_point(self):
        rng = np.random.default_rng(self.fixed_point_seed)
        t, v = random_factors(rng, 6, 7, 2)
        sp = recompute_scale(t, v, 2.0)
        y = np.sqrt(sp) * np.exp(2j * np.pi * rng.random(sp.shape))  # |y|^2 == sigma^2
        t0, v0 = t.copy(), v.copy()
        update_role(self.role, t, v, np.abs(y) ** 2, sp, 2.0, math.inf, planes(sp))
        assert np.allclose(t, t0, rtol=1e-12)
        assert np.allclose(v, v0, rtol=1e-12)

    def test_scalar_instance_matches_transcription(self):
        t, v, y, nu, p = self.scalar_case
        sp = t * v
        sig_sq = sp ** (2.0 / p)
        power = abs(y) ** 2
        weight = 1.0 / (nu / (nu + 2.0) * sig_sq + 2.0 / (nu + 2.0) * power)
        factor, partner = (t, v) if self.role == "basis" else (v, t)
        expected = factor * (
            (power * weight * sp**-1 * partner) / (sp**-1 * partner)
        ) ** (p / (p + 2.0))

        basis, activation = scalar_factors(t, v)
        sp = recompute_scale(basis, activation, p)
        updated = update_role(self.role, basis, activation, np.array([[power]]), sp, p, nu,
                              planes(sp))
        assert updated[0, 0] == pytest.approx(expected, rel=1e-12)

    def test_update_exponent_values(self):
        # with L=I=J=1 and |y|^2 = 4 sigma^2 the update ratio is 4^(p/(p+2))
        for p, expected in ((2.0, 4.0 ** 0.5), (1.0, 4.0 ** (1.0 / 3.0))):
            t, v = scalar_factors(0.5, 0.8)
            before = {"basis": 0.5, "activation": 0.8}[self.role]
            sp = recompute_scale(t, v, p)
            y = np.array([[2.0 * float(sp[0, 0]) ** (1.0 / p)]], dtype=complex)
            updated = update_role(self.role, t, v, np.abs(y) ** 2, sp, p, math.inf, planes(sp))
            assert updated[0, 0] / before == pytest.approx(expected, rel=1e-12)

    def test_cost_does_not_increase(self):
        rng = np.random.default_rng(self.cost_seed)
        nu, p = 5.0, 1.0
        t, v = random_factors(rng, 8, 10, 2)
        y = random_estimate(rng, 8, 10)
        sp = recompute_scale(t, v, p)
        before = source_cost_oracle(y, t, v, nu, p)
        update_role(self.role, t, v, np.abs(y) ** 2, sp, p, nu, planes(sp))
        after = source_cost_oracle(y, t, v, nu, p)
        assert after <= before + 1e-10 * abs(before)

    def test_floor_preserved_on_silent_input(self):
        t, v = np.full((3, 2), 0.5), np.full((2, 4), 0.5)
        sp = recompute_scale(t, v, 2.0)
        updated = update_role(self.role, t, v, np.zeros((3, 4)), sp, 2.0, 10.0, planes(sp))
        assert np.all(updated >= FLOOR)


class TestUpdateBases(UpdateRuleChecks):
    role = "basis"
    fixed_point_seed, cost_seed = 1, 2
    scalar_case = (0.7, 1.3, 0.9 + 0.4j, 5.0, 1.5)


class TestUpdateActivations(UpdateRuleChecks):
    role = "activation"
    fixed_point_seed, cost_seed = 3, 4
    scalar_case = (1.1, 0.4, -0.3 + 1.2j, 3.0, 1.0)


class TestGaussianLimitReduction:
    def test_matches_separately_coded_isnmf(self):
        rng = np.random.default_rng(5)
        t, v = random_factors(rng, 7, 9, 3)
        y = random_estimate(rng, 7, 9)
        power = np.abs(y) ** 2
        r = recompute_scale(t, v, 2.0)

        ours = t.copy()
        update_role("basis", ours, v, power, r, 2.0, math.inf, planes(r))
        isnmf_basis = t * np.sqrt(((power / r**2) @ v.T) / ((1.0 / r) @ v.T))
        assert np.allclose(ours, np.maximum(isnmf_basis, FLOOR), rtol=1e-12)

        ours2 = v.copy()
        update_role("activation", t, ours2, power, r, 2.0, math.inf, planes(r))
        isnmf_act = v * np.sqrt((t.T @ (power / r**2)) / (t.T @ (1.0 / r)))
        assert np.allclose(ours2, np.maximum(isnmf_act, FLOOR), rtol=1e-12)


class TestGaussianFastPath:
    # at nu=inf the weight skips 0 * |y|^2 and the factor 1 + 2/nu = 1; both
    # change no bit for finite |y|^2 >= 0, zeros included
    @pytest.fixture
    def operands(self):
        rng = np.random.default_rng(31)
        sigma_p = 10.0 ** rng.uniform(-12, 6, (40, 50))
        power = 10.0 ** rng.uniform(-14, 8, (40, 50))
        power[::3] = 0.0
        return sigma_p, power

    def test_weight_is_the_general_formula_bitwise(self, operands):
        sig_sq, power = operands
        general = 1.0 / (sig_sq + (2.0 / math.inf) * power)
        assert _t_weight(sig_sq, power, math.inf).tobytes() == general.tobytes()

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0])
    @pytest.mark.parametrize("planes", [1, 2])
    def test_update_plane_is_the_general_formula_bitwise(self, operands, p, planes):
        sigma_p, power = operands
        nu = math.inf
        inv_weight = 1.0 / (sigma_squared(sigma_p, p) + (2.0 / nu) * power) * (1.0 + 2.0 / nu)
        general = power * inv_weight / sigma_p
        ours = _weighted_power(power, sigma_p, p, nu, np.empty((planes,) + power.shape))
        assert ours.tobytes() == general.tobytes()


class TestMmSequenceMonotonicity:
    @pytest.mark.parametrize("nu,p", [(math.inf, 2.0), (1.0, 1.0), (10.0, 1.5)])
    def test_full_update_sequence(self, nu, p):
        rng = np.random.default_rng(6)
        t, v = random_factors(rng, 8, 10, 2)
        y = random_estimate(rng, 8, 10)
        scratch = np.empty((2,) + y.shape)
        costs = [source_cost_oracle(y, t, v, nu, p)]
        for _ in range(5):
            for role in ROLES:
                update_role(role, t, v, np.abs(y) ** 2, recompute_scale(t, v, p), p, nu, scratch)
                costs.append(source_cost_oracle(y, t, v, nu, p))
        costs = np.array(costs)
        assert np.all(costs[1:] <= costs[:-1] + 1e-10 * np.abs(costs[:-1]))


class TestUpdateFactors:
    def test_in_place_in_scratch_planes(self):
        rng = np.random.default_rng(11)
        num_bins, num_frames, nu, p = 64, 400, 5.0, 1.0
        t, v = random_factors(rng, num_bins, num_frames, 2)
        power = np.abs(random_estimate(rng, num_bins, num_frames)) ** 2
        sp = recompute_scale(t, v, p)
        scratch = planes(sp)
        # the same step on copies, one half at a time
        t_ref, v_ref, sp_ref = t.copy(), v.copy(), sp.copy()
        for role in ROLES:
            update_role(role, t_ref, v_ref, power, sp_ref, p, nu, planes(sp))
            sp_ref = recompute_scale(t_ref, v_ref, p)
        tracemalloc.start()
        try:
            assert update_factors(t, v, power, sp, p, nu, scratch) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < num_bins * num_frames * 8, peak
        assert t.tobytes() == t_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
        assert sp.tobytes() == sp_ref.tobytes()


class TestInitFactors:
    def test_seed_determinism(self):
        a = init_factors(2, 5, 6, 2, seed=42)
        b = init_factors(2, 5, 6, 2, seed=42)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_range(self):
        for arr in init_factors(2, 50, 60, 3, seed=0):
            assert np.all(arr > 0.0) and np.all(arr <= 1.0)
            assert np.all(arr >= FLOOR)

    def test_different_seeds_differ(self):
        a = init_factors(2, 5, 6, 2, seed=1)
        b = init_factors(2, 5, 6, 2, seed=2)
        assert not np.array_equal(a[0], b[0])

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            init_factors(2, 5, 6, 0, seed=0)

    def test_each_source_draws_from_its_own_spawned_stream(self):
        # pins the seeding scheme: a seed gives the factors it always gave
        num_sources, num_bins, num_frames, num_bases, seed = 3, 5, 7, 2, 123
        basis, activation = init_factors(num_sources, num_bins, num_frames, num_bases, seed)
        assert basis.shape == (num_sources, num_bins, num_bases)
        assert activation.shape == (num_sources, num_bases, num_frames)
        streams = np.random.SeedSequence(seed).spawn(num_sources)
        for n in range(num_sources):
            rng = np.random.default_rng(streams[n])
            expected_basis = 1.0 - (1.0 - FLOOR) * rng.random((num_bins, num_bases))
            expected_activation = 1.0 - (1.0 - FLOOR) * rng.random((num_bases, num_frames))
            assert basis[n].tobytes() == expected_basis.tobytes()
            assert activation[n].tobytes() == expected_activation.tobytes()


class TestConvertDomain:
    def test_same_exponent_is_identity(self):
        rng = np.random.default_rng(7)
        t, v = random_factors(rng, 4, 5, 2)
        sp = recompute_scale(t, v, 2.0)
        t0, v0, sp0 = t.copy(), v.copy(), sp.copy()
        convert_domain(t, v, sp, 2.0, 2.0, 10, planes(sp))
        assert t.tobytes() == t0.tobytes()
        assert v.tobytes() == v0.tobytes()
        assert sp.tobytes() == sp0.tobytes()

    def test_rank_one_exact_power(self):
        rng = np.random.default_rng(8)
        t, v = random_factors(rng, 4, 5, 1)
        expected = (t @ v) ** 0.5
        sp = recompute_scale(t, v, 2.0)
        convert_domain(t, v, sp, 2.0, 1.0, 10, planes(sp))
        assert np.allclose(sp, expected, rtol=1e-12)

    def test_refit_reduces_reconstruction_error(self):
        rng = np.random.default_rng(9)
        t, v = random_factors(rng, 8, 10, 3)
        p, new_p = 2.0, 1.0
        sp = recompute_scale(t, v, p)
        exponent = new_p / p
        target = sp**exponent
        pre = _refit_objective(recompute_scale(t**exponent, v**exponent, new_p), target, new_p)
        convert_domain(t, v, sp.copy(), p, new_p, 10, planes(sp))
        post = _refit_objective(recompute_scale(t, v, new_p), target, new_p)
        assert post <= pre + 1e-10 * abs(pre)

    def test_refit_in_scratch_planes_leaves_its_scale_in_sigma_p(self):
        rng = np.random.default_rng(10)
        num_bins, num_frames = 64, 400
        t, v = random_factors(rng, num_bins, num_frames, 2)
        sp = recompute_scale(t, v, 2.0)
        scratch = np.empty((2, num_bins, num_frames))
        tracemalloc.start()
        try:
            convert_domain(t, v, sp, 2.0, 1.0, 3, scratch)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < num_bins * num_frames * 8, peak
        assert sp.tobytes() == recompute_scale(t, v, 1.0).tobytes()

    def test_p_validation(self):
        t, v = scalar_factors(1.0, 1.0)
        sp = recompute_scale(t, v, 2.0)
        with pytest.raises(ValueError):
            convert_domain(t, v, sp, 2.0, 2.5, 10, planes(sp))
