import math

import numpy as np
import pytest
import synthetic


class TestGenLowRankSource:
    def test_moment_matches_variance(self):
        # E|s|^2 / (T V) is unit-mean regardless of the slot variance, so
        # averaging the ratio over many slots checks the moment contract
        values, basis, activation = synthetic.gen_low_rank_source(100, 100, 2, rng=0)
        variance = basis @ activation
        ratio = np.abs(values) ** 2 / variance
        assert np.mean(ratio) == pytest.approx(1.0, abs=0.05)

    def test_circularity(self):
        values, basis, activation = synthetic.gen_low_rank_source(100, 100, 2, rng=1)
        variance = basis @ activation
        pseudo = np.mean(values**2 / variance)  # non-conjugate second moment
        assert abs(pseudo) <= 0.05

    def test_seed_determinism(self):
        a = synthetic.gen_low_rank_source(8, 9, 2, rng=42)
        b = synthetic.gen_low_rank_source(8, 9, 2, rng=42)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            synthetic.gen_low_rank_source(4, 5, 6, rng=0)


class TestGenMixture:
    def test_identity_mixing_passes_sources_through(self):
        rng = np.random.default_rng(0)
        sources = rng.standard_normal((4, 6, 2)) + 1j * rng.standard_normal((4, 6, 2))
        mixing = np.tile(np.eye(2, dtype=complex), (4, 1, 1))
        observation = np.einsum("imn,ijn->ijm", mixing, sources)
        assert np.array_equal(observation, sources)

    def test_mixing_identity_is_exact(self):
        scene = synthetic.make_scene(3, num_bins=17, num_frames=20)
        # bitwise: the observation IS the product, no noise added
        rebuilt = np.einsum("imn,ijn->ijm", scene.mixing, scene.sources)
        assert np.array_equal(scene.observation, rebuilt)
        # and the per-bin loop transcription agrees to rounding
        for i in range(17):
            direct = scene.sources[i] @ scene.mixing[i].T
            assert np.allclose(scene.observation[i], direct, rtol=1e-13)

    def test_true_inverse_demixing_recovers_sources(self):
        scene = synthetic.make_scene(4, num_bins=9, num_frames=12)
        recovered = np.stack(
            [scene.observation[i] @ np.linalg.inv(scene.mixing[i]).T for i in range(9)]
        )
        assert np.max(np.abs(recovered - scene.sources)) <= 1e-12 * np.max(
            np.abs(scene.sources)
        )

    def test_condition_clamp(self):
        rng = np.random.default_rng(5)
        sources = rng.standard_normal((5, 6, 2)) + 0j
        for seed in range(100):
            scene = synthetic.gen_mixture(sources, seed)
            conds = [np.linalg.cond(scene.mixing[i]) for i in range(5)]
            assert max(conds) <= synthetic.MAX_MIXING_CONDITION + 1e-9

    def test_instantaneous_mixing_is_real_and_shared(self):
        rng = np.random.default_rng(6)
        sources = rng.standard_normal((5, 6, 2)) + 0j
        scene = synthetic.gen_mixture(sources, 7)
        assert np.all(scene.mixing.imag == 0)
        assert all(np.array_equal(scene.mixing[i], scene.mixing[0]) for i in range(5))


class TestSceneIo:
    def test_spectrogram_wrapper_shapes(self):
        scene = synthetic.make_scene(12)
        spec = synthetic.scene_spectrogram(scene)
        assert spec.values.shape == (129, 128, 2)
        assert spec.num_samples > 0


class TestTangentInequality:
    def test_singleton_equality_at_origin(self):
        lhs, rhs, holds = synthetic.check_tangent_inequality([1.0], 1.0)
        assert lhs == rhs == 0.0 and holds

    def test_equality_at_optimal_lambda(self):
        lhs, rhs, holds = synthetic.check_tangent_inequality([1.0, 2.0], 3.0)
        assert holds
        assert lhs == pytest.approx(math.log(3.0), rel=1e-15)
        assert rhs == pytest.approx(lhs, abs=1e-12)

    def test_fuzz_never_violated(self):
        rng = np.random.default_rng(0)
        for _ in range(10000):
            z = rng.random(int(rng.integers(1, 6))) * 10.0 ** rng.uniform(-3, 3)
            lam = float(rng.random() * 10.0 ** rng.uniform(-3, 3))
            lhs, rhs, holds = synthetic.check_tangent_inequality(z, lam)
            assert holds, (z, lam, lhs, rhs)

    def test_positive_inputs_required(self):
        with pytest.raises(ValueError):
            synthetic.check_tangent_inequality([0.0], 1.0)


class TestJensenInequality:
    def test_singleton_equality(self):
        lhs, rhs, holds = synthetic.check_jensen_inequality([2.0], [1.0], 1.5)
        assert holds and lhs == pytest.approx(rhs, abs=1e-12)

    def test_symmetric_optimum(self):
        lhs, rhs, holds = synthetic.check_jensen_inequality([1.0, 1.0], [0.5, 0.5], 2.0)
        assert holds
        assert lhs == pytest.approx(0.5, rel=1e-15)
        assert rhs == pytest.approx(0.5, rel=1e-12)

    def test_equality_at_proportional_weights(self):
        z = np.array([0.3, 1.2, 2.5])
        mu = z / z.sum()
        lhs, rhs, holds = synthetic.check_jensen_inequality(z, mu, 1.0)
        assert holds and lhs == pytest.approx(rhs, rel=1e-12)

    def test_fuzz_never_violated(self):
        rng = np.random.default_rng(1)
        for _ in range(10000):
            z = rng.random(int(rng.integers(1, 6))) * 10.0 ** rng.uniform(-3, 3)
            mu = rng.random(z.shape[0]) + 1e-3
            mu /= mu.sum()
            p = float(rng.choice([1.0, 1.5, 2.0]))
            lhs, rhs, holds = synthetic.check_jensen_inequality(z, mu, p)
            assert holds, (z, mu, p, lhs, rhs)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            synthetic.check_jensen_inequality([1.0, 1.0], [0.4, 0.4], 2.0)


class TestMajorizerTouch:
    def test_degenerate_all_coincide(self):
        report = synthetic.check_majorizer_touch(
            0, nu=2.0, p=1.0, num_bins=1, num_frames=1, num_sources=1, rank=1
        )
        assert report.touch_ok
        assert report.tangent_at_touch == pytest.approx(report.cost, rel=1e-12)
        assert report.jensen_at_touch == pytest.approx(report.cost, rel=1e-12)

    def test_perturbed_alpha_strictly_increases_surrogate(self):
        demixing, estimates, basis, activation = synthetic.random_state(3)
        factors = (basis, activation, 1.5)
        alpha, beta, _ = synthetic.optimal_auxiliaries(estimates, *factors, nu=4.0)
        at_touch = synthetic.majorizer_tangent(demixing, estimates, *factors, 4.0, alpha, beta)
        perturbed = synthetic.majorizer_tangent(
            demixing, estimates, *factors, 4.0, alpha * 1.1, beta
        )
        assert perturbed > at_touch

    def test_hundred_random_states(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            nu = float(rng.choice([1.0, 2.0, 5.0, 10.0, 100.0]))
            p = float(rng.choice([1.0, 1.5, 2.0]))
            report = synthetic.check_majorizer_touch(int(rng.integers(1 << 31)), nu, p)
            assert report.touch_ok, (nu, p, report)
            assert report.dominance_ok, (nu, p, report)

    def test_gaussian_has_no_surrogate(self):
        demixing, estimates, basis, activation = synthetic.random_state(0)
        factors = (basis, activation, 1.5)
        alpha, beta, _ = synthetic.optimal_auxiliaries(estimates, *factors, nu=2.0)
        with pytest.raises(ValueError):
            synthetic.majorizer_tangent(demixing, estimates, *factors, math.inf, alpha, beta)


class TestOracleSuite:
    def test_small_suite_passes(self):
        report = synthetic.run_oracle_suite(seed=0, samples=500, touch_states=10)
        assert report["ok"]
        assert report["tangent_violations"] == 0
        assert report["jensen_violations"] == 0
        assert report["touch_failures"] == 0
