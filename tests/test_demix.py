import math

import numpy as np
import pytest
import synthetic

from tilrma import demix, engine
from tilrma.engine import HyperParams, cost_value
from tilrma.errors import DegenerateSourceError, SingularMatrixError
from tilrma.source_model import recompute_scale, scale_floor


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def covariance_of_bin(x_frames, y, sigma_sq, nu):
    # the stacked covariance of a one-bin stack; x_frames is (channels, frames)
    stats = demix.outer_products(x_frames.T[None])
    return demix.weighted_covariance(stats, np.abs(y[None]) ** 2, sigma_sq[None], nu)[0]


def ip_update_of_bin(w_mat, cov, n):
    w, singular = demix.ip_update(w_mat[None], cov[None], n)
    assert not singular[0]
    return w[0]


def head_residual_of_bin(w_mat, cov_list):
    return max(
        demix.head_residual(w_mat[None], cov[None], n) for n, cov in enumerate(cov_list)
    )


def covariance_oracle(x_frames, y, sigma_sq, nu):
    # direct transcription: auxiliary alpha substituted into the weighted
    # covariance, one frame at a time
    channels, frames = x_frames.shape
    out = np.zeros((channels, channels), dtype=complex)
    for j in range(frames):
        x = x_frames[:, j]
        if math.isinf(nu):
            weight = 1.0 / sigma_sq[j]
            gain = 1.0
        else:
            alpha = 1.0 + (2.0 / nu) * abs(y[j]) ** 2 / sigma_sq[j]
            weight = 1.0 / (alpha * sigma_sq[j])
            gain = 1.0 + 2.0 / nu
        out += gain * weight * np.outer(x, np.conj(x))
    return out / frames


class TestWeightedCovariance:
    def test_gaussian_unit_scale_is_sample_covariance(self):
        rng = np.random.default_rng(0)
        x = random_complex(rng, 2, 16)
        out = covariance_of_bin(x, np.zeros(16, complex), np.ones(16), math.inf)
        expected = (x @ x.conj().T) / 16
        assert np.allclose(out, expected, rtol=1e-13)

    def test_single_frame_arithmetic(self):
        x = np.array([[1.0], [0.0]], dtype=complex)
        out = covariance_of_bin(x, np.zeros(1, complex), np.ones(1), 2.0)
        assert np.allclose(out, [[2.0, 0.0], [0.0, 0.0]], atol=0)

    def test_random_matches_transcription(self):
        rng = np.random.default_rng(1)
        x = random_complex(rng, 3, 20)
        y = random_complex(rng, 20)
        sigma_sq = 0.5 + rng.random(20)
        for nu in (1.0, 7.5, math.inf):
            ours = covariance_of_bin(x, y, sigma_sq, nu)
            oracle = covariance_oracle(x, y, sigma_sq, nu)
            assert np.max(np.abs(ours - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_hermitian_psd(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = random_complex(rng, 3, 12)
            y = random_complex(rng, 12)
            sigma_sq = 0.1 + rng.random(12)
            u = covariance_of_bin(x, y, sigma_sq, 3.0)
            assert np.max(np.abs(u - u.conj().T)) <= 1e-12 * np.max(np.abs(u))
            eigs = np.linalg.eigvalsh(u)
            assert eigs.min() >= -1e-10 * np.real(np.trace(u))

    def test_stack_matches_each_bin(self):
        rng = np.random.default_rng(14)
        x = random_complex(rng, 4, 3, 10)
        y = random_complex(rng, 4, 10)
        sigma_sq = 0.5 + rng.random((4, 10))
        for nu in (2.0, math.inf):
            stats = demix.outer_products(x.transpose(0, 2, 1))
            ours = demix.weighted_covariance(stats, np.abs(y) ** 2, sigma_sq, nu)
            for i in range(4):
                oracle = covariance_oracle(x[i], y[i], sigma_sq[i], nu)
                assert np.max(np.abs(ours[i] - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_weights_spanning_1e12_in_one_bin(self):
        # sigma^2 from 1e-12 to 1 within each bin: the real weighted sum keeps
        # the frame-by-frame oracle's accuracy
        rng = np.random.default_rng(17)
        x = random_complex(rng, 3, 3, 40)
        y = random_complex(rng, 3, 40)
        sigma_sq = 10.0 ** rng.uniform(-12.0, 0.0, (3, 40))
        sigma_sq[:, 0], sigma_sq[:, 1] = 1e-12, 1.0
        stats = demix.outer_products(x.transpose(0, 2, 1))
        for nu in (1.0, 10.0, math.inf):
            ours = demix.weighted_covariance(stats, np.abs(y) ** 2, sigma_sq, nu)
            for i in range(3):
                oracle = covariance_oracle(x[i], y[i], sigma_sq[i], nu)
                assert np.max(np.abs(ours[i] - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_gaussian_limit_matches_conventional(self):
        rng = np.random.default_rng(3)
        x = random_complex(rng, 2, 24)
        r = 0.2 + rng.random(24)  # conventional variance r = sigma^2
        ours = covariance_of_bin(x, random_complex(rng, 24), r, math.inf)
        conventional = sum(
            np.outer(x[:, j], np.conj(x[:, j])) / r[j] for j in range(24)
        ) / 24
        assert np.max(np.abs(ours - conventional)) <= 1e-12 * np.max(np.abs(conventional))


class TestOuterProducts:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_every_slot_unpacks_to_the_outer_product(self, m):
        rng = np.random.default_rng(18 + m)
        obs = random_complex(rng, 3, 5, m)
        stats = demix.outer_products(obs)
        assert stats.shape == (3, 5, m * m) and stats.dtype == np.float64
        rows, cols = np.triu_indices(m, 1)
        for i in range(3):
            for j in range(5):
                # the documented column order: |x_m|^2, then (Re, Im) of x_a x_b^* per a < b
                unpacked = np.diag(stats[i, j, :m]).astype(complex)
                upper = stats[i, j, m::2] + 1j * stats[i, j, m + 1::2]
                unpacked[rows, cols] = upper
                unpacked[cols, rows] = np.conj(upper)
                outer = np.outer(obs[i, j], obs[i, j].conj())
                assert np.max(np.abs(unpacked - outer)) <= 1e-15 * np.max(np.abs(outer))

    def test_run_state_carries_them_and_finalize_releases_them(self):
        scene = synthetic.make_scene(0, num_bins=9, num_frames=16)
        spec = synthetic.scene_spectrogram(scene)
        hp = HyperParams(nu=5.0, p=1.0, num_bases=2, iterations=1)
        state = engine._init_state(spec, hp, hp.p)
        assert not hasattr(state, "obs_t")
        assert np.array_equal(state.stats, demix.outer_products(state.obs))
        engine._iterate(state, hp.nu, hp.p, 1)
        engine._finalize(state, spec, hp, started=0.0, stage_boundary=None)
        assert state.stats is None and state.power is None and state.sigma_p is None


class TestIpUpdate:
    def test_identity_case(self):
        w = ip_update_of_bin(np.eye(2, dtype=complex), np.eye(2, dtype=complex), 1)
        assert np.allclose(w, [0.0, 1.0], atol=1e-15)

    def test_postcondition_unit_quadratic_form(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            x = random_complex(rng, 3, 10)
            u = (x @ x.conj().T) / 10
            w_mat = random_complex(rng, 3, 3)
            for n in range(3):
                w = ip_update_of_bin(w_mat, u, n)
                quad = np.real(np.conj(w) @ u @ w)
                assert quad == pytest.approx(1.0, abs=1e-10)


    def test_singular_bins_are_flagged_not_raised(self):
        rng = np.random.default_rng(15)
        x = random_complex(rng, 4, 3, 10)
        stats = demix.outer_products(x.transpose(0, 2, 1))
        cov = demix.weighted_covariance(stats, np.zeros((4, 10)), np.ones((4, 10)), math.inf)
        cov[1] = 0.0  # W U is exactly singular: LAPACK fails on this bin
        cov[3] = 1e-310 * np.eye(3)  # solvable, but the quadratic form collapses
        w_stack = random_complex(rng, 4, 3, 3)
        w, singular = demix.ip_update(w_stack, cov, 2)
        assert singular.tolist() == [False, True, False, True]
        for i in (0, 2):
            assert np.allclose(w[i], ip_update_of_bin(w_stack[i], cov[i], 2), rtol=1e-12)
            quad = np.real(np.conj(w[i]) @ cov[i] @ w[i])
            assert quad == pytest.approx(1.0, abs=1e-10)


class TestHeadResidual:
    def test_identity_fixed_point(self):
        eye = np.eye(2, dtype=complex)
        assert head_residual_of_bin(eye, [eye, eye]) == 0.0

    def test_diagonal_after_update(self):
        rng = np.random.default_rng(5)
        x = random_complex(rng, 2, 12)
        u = (x @ x.conj().T) / 12
        w_mat = random_complex(rng, 2, 2)
        w = ip_update_of_bin(w_mat, u, 0)
        w_mat[0, :] = np.conj(w)
        covs = [u, u]
        rows = w_mat.conj()
        diag = abs(np.conj(rows[0]) @ (covs[0] @ rows[0]) - 1.0)
        assert diag <= 1e-10

    def test_random_state_positive(self):
        rng = np.random.default_rng(6)
        w_mat = random_complex(rng, 2, 2)
        x = random_complex(rng, 2, 12)
        u = (x @ x.conj().T) / 12
        assert head_residual_of_bin(w_mat, [u, u]) > 0.0


def build_state(rng, num_bins=5, num_frames=8, num_sources=2, p=2.0):
    # the power |y|^2 is laid out (sources, bins, frames), like sigma^p
    w_stack = random_complex(rng, num_bins, num_sources, num_sources)
    y = random_complex(rng, num_bins, num_frames, num_sources)
    power = np.moveaxis(np.abs(y) ** 2, 2, 0)
    basis = np.empty((num_sources, num_bins, 2))
    activation = np.empty((num_sources, 2, num_frames))
    for t, v in zip(basis, activation):
        t[...] = 0.1 + rng.random(t.shape)
        v[...] = 0.1 + rng.random(v.shape)
    sigma_p = recompute_scale(basis, activation, p)
    return w_stack, power, basis, activation, sigma_p


class TestNormalize:
    def test_unit_power_is_fixed_point(self):
        rng = np.random.default_rng(7)
        w_stack, power, basis, _, sigma_p = build_state(rng)
        for n in range(2):
            power[n] /= np.mean(power[n])
        w0, power0, s0 = w_stack.copy(), power.copy(), sigma_p.copy()
        eta = [demix.normalize(w_stack, power, sigma_p, basis, 2.0, n) for n in range(2)]
        assert np.allclose(eta, 1.0, atol=1e-12)
        assert np.allclose(w_stack, w0, rtol=1e-12)
        assert np.allclose(power, power0, rtol=1e-12)
        assert np.allclose(sigma_p, s0, rtol=1e-12)

    def test_inverse_scaling_restores_state(self):
        rng = np.random.default_rng(8)
        n, p = 0, 2.0
        w_stack, power, basis, _, sigma_p = build_state(rng, p=p)
        for k in range(2):  # reach unit power first
            demix.normalize(w_stack, power, sigma_p, basis, p, k)
        w0, power0, s0, b0 = w_stack.copy(), power.copy(), sigma_p.copy(), basis.copy()

        w_stack[:, n, :] *= 2.0
        power[n] *= 2.0**2
        sigma_p[n] *= 2.0**p
        basis[n] *= 2.0**p
        eta = [demix.normalize(w_stack, power, sigma_p, basis, p, k) for k in range(2)]
        assert eta[n] == pytest.approx(2.0, rel=1e-12)
        assert np.allclose(w_stack, w0, rtol=1e-12)
        assert np.allclose(power, power0, rtol=1e-12)
        assert np.allclose(sigma_p, s0, rtol=1e-12)
        assert np.allclose(basis[n], b0[n], rtol=1e-12)

    @pytest.mark.parametrize(
        "nu,p,floored",
        [
            pytest.param(math.inf, 2.0, False, id="inf-2.0"),
            pytest.param(4.0, 1.0, False, id="4.0-1.0"),
            # a collapsed basis row holds sigma^p at scale_floor(p), and eta > 1
            # must scale those slots like every other one
            pytest.param(1.0, 1.0, True, id="1.0-1.0-floored-row"),
        ],
    )
    def test_cost_invariance(self, nu, p, floored):
        rng = np.random.default_rng(9)
        w_stack, power, basis, activation, sigma_p = build_state(rng, p=p)
        if floored:
            basis[0, 1] = 0.0
            sigma_p = recompute_scale(basis, activation, p)
            assert np.all(sigma_p[0, 1] == scale_floor(p))
            power *= 3.0**2 / np.mean(power)
        before = cost_value(w_stack, power, sigma_p, nu, p)
        for n in range(2):
            demix.normalize(w_stack, power, sigma_p, basis, p, n)
        after = cost_value(w_stack, power, sigma_p, nu, p)
        assert after == pytest.approx(before, rel=1e-9)

    def test_degenerate_source_raises(self):
        rng = np.random.default_rng(10)
        w_stack, power, basis, _, sigma_p = build_state(rng)
        power[1] = 0.0
        with pytest.raises(DegenerateSourceError, match="source 1"):
            demix.normalize(w_stack, power, sigma_p, basis, 2.0, 1)

    def test_other_sources_are_untouched(self):
        rng = np.random.default_rng(12)
        w_stack, power, basis, activation, sigma_p = build_state(rng, num_sources=3, p=1.0)
        power *= 5.0  # so that eta is not 1
        w0, power0, s0 = w_stack.copy(), power.copy(), sigma_p.copy()
        b0, a0 = basis.copy(), activation.copy()
        n = 1
        demix.normalize(w_stack, power, sigma_p, basis, 1.0, n)
        others = [0, 2]
        assert w_stack[:, others].tobytes() == w0[:, others].tobytes()
        assert power[others].tobytes() == power0[others].tobytes()
        assert sigma_p[others].tobytes() == s0[others].tobytes()
        assert basis[others].tobytes() == b0[others].tobytes()
        assert activation.tobytes() == a0.tobytes()
        assert not np.array_equal(w_stack[:, n], w0[:, n])


class TestBackProject:
    def test_single_channel_restores_observation(self):
        rng = np.random.default_rng(11)
        x = random_complex(rng, 4, 6, 1)
        w_stack = random_complex(rng, 4, 1, 1)
        y = np.einsum("inm,ijm->ijn", w_stack, x)
        image = demix.back_project(y, demix.mixing_column(w_stack, 0), 0)
        assert np.max(np.abs(image - x)) <= 1e-12 * np.max(np.abs(x))

    def test_completeness(self):
        rng = np.random.default_rng(12)
        x = random_complex(rng, 5, 7, 2)
        w_stack = random_complex(rng, 5, 2, 2)
        y = np.einsum("inm,ijm->ijn", w_stack, x)
        total = sum(demix.back_project(y, demix.mixing_column(w_stack, n), n) for n in range(2))
        assert np.max(np.abs(total - x)) <= 1e-10 * max(1.0, np.max(np.abs(x)))

    def test_singular_bin_is_named(self):
        rng = np.random.default_rng(16)
        w_stack = random_complex(rng, 5, 2, 2)
        w_stack[2] = [[1.0, 2.0], [2.0, 4.0]]
        w_stack[4] = 0.0
        with pytest.raises(SingularMatrixError, match=r"^bin 2: "):
            demix.mixing_column(w_stack, 0)

    def test_random_matches_direct_formula(self):
        rng = np.random.default_rng(13)
        w_stack = random_complex(rng, 3, 2, 2)
        y = random_complex(rng, 3, 4, 2)
        for n in range(2):
            image = demix.back_project(y, demix.mixing_column(w_stack, n), n)
            for i in range(3):
                inv = np.linalg.inv(w_stack[i])
                for j in range(4):
                    masked = np.zeros(2, complex)
                    masked[n] = y[i, j, n]
                    expected = inv @ masked
                    assert np.max(np.abs(image[i, j] - expected)) <= 1e-10


class TestRidge:
    def test_ridge_perturbation_scale(self):
        u = np.diag([2.0, 0.0]).astype(complex)
        out = demix.ridge_covariance(u)
        assert out[1, 1] == pytest.approx(1e-12 * 1.0, rel=1e-12)
        assert out[0, 0] == pytest.approx(2.0 + 1e-12, rel=1e-12)

    def test_stack_loads_each_bin_by_its_own_trace(self):
        stack = np.array([np.diag([2.0, 0.0]), np.diag([0.0, 6.0])], dtype=complex)
        out = demix.ridge_covariance(stack)
        assert np.allclose(np.diagonal(out - stack, axis1=1, axis2=2),
                           [[1e-12, 1e-12], [3e-12, 3e-12]], rtol=1e-3, atol=0)


class TestSolveColumn:
    def test_identity(self):
        assert np.array_equal(demix.solve_unit(np.eye(3)[None], 2)[0], np.eye(3)[:, 2])

    def test_diagonal(self):
        out = demix.solve_unit(np.diag([2.0, 5.0])[None], 0)[0]
        assert np.allclose(out, [0.5, 0.0], atol=0)

    def test_random_residual(self):
        rng = np.random.default_rng(3)
        m = random_complex(rng, 5, 4, 4)
        for n in range(4):
            v = demix.solve_unit(m, n)
            for i in range(5):
                resid = m[i] @ v[i] - np.eye(4)[:, n]
                assert np.linalg.norm(resid) <= 1e-10 * np.linalg.norm(v[i]) * np.linalg.norm(m[i])

    def test_singular_bins_come_back_nan(self):
        rng = np.random.default_rng(4)
        m = random_complex(rng, 4, 2, 2)
        m[1] = 0.0
        v = demix.solve_unit(m, 0)
        assert np.all(np.isnan(v[1]))
        assert np.all(np.isfinite(np.delete(v, 1, axis=0)))
        for i in (0, 2, 3):
            assert np.array_equal(v[i], np.linalg.solve(m[i], np.eye(2)[:, 0]))
