import math
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import synthetic
from synthetic import cost_value

from tilrma import engine
from tilrma.engine import HyperParams, log_abs_det
from tilrma.errors import SingularMatrixError, TilrmaError
from tilrma.source_model import init_factors
from tilrma.stft import ComplexSpectrogram


# Gaps allowed between the engine and the per-bin reference loop over 20
# iterations (t model, M=3, seed 3): measured 1.3e-12 for max |dW| and
# 4.2e-14 for the relative cost, so each bound leaves a margin above 100x.
W_GAP_BOUND = 1e-9
COST_GAP_BOUND = 1e-11


def small_scene_spec(seed, num_bins=33, num_frames=48, num_sources=2):
    scene = synthetic.make_scene(seed, num_bins=num_bins, num_frames=num_frames,
                                 num_sources=num_sources)
    return scene, synthetic.scene_spectrogram(scene)


def power_of(y):
    # |y|^2 laid out (sources, bins, frames), as the engine carries it
    return np.moveaxis(np.abs(y) ** 2, 2, 0)


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def cofactor_det_3x3(m):
    # independent oracle: direct cofactor expansion
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def cost_oracle(w_stack, y, sigma_p, nu, p):
    # independent transcription of the full negative log-likelihood
    num_bins, num_frames, num_sources = y.shape
    total = 0.0
    for i in range(num_bins):
        total += -2.0 * num_frames * math.log(abs(np.linalg.det(w_stack[i])))
    for n in range(num_sources):
        for i in range(num_bins):
            for j in range(num_frames):
                sp = sigma_p[n, i, j]
                power = abs(y[i, j, n]) ** 2
                if math.isinf(nu):
                    total += math.log(sp) + power / sp
                else:
                    sig_sq = sp ** (2.0 / p)
                    total += (1.0 + nu / 2.0) * math.log(1.0 + (2.0 / nu) * power / sig_sq)
                    total += (2.0 / p) * math.log(sp)
    return total


class TestHyperParams:
    def test_gaussian_requires_power_domain(self):
        with pytest.raises(ValueError):
            HyperParams(nu=math.inf, p=1.0, num_bases=2)

    def test_nu_must_be_positive(self):
        with pytest.raises(ValueError):
            HyperParams(nu=0.0, p=2.0, num_bases=2)

    def test_p_range(self):
        with pytest.raises(ValueError):
            HyperParams(nu=5.0, p=2.5, num_bases=2)

    def test_schedule_must_fit_inside_run(self):
        with pytest.raises(ValueError):
            HyperParams(nu=5.0, p=1.0, num_bases=2, iterations=100, gaussian_iters=100)

    @pytest.mark.parametrize("field", ["num_bases", "iterations", "gaussian_iters",
                                       "refit_iters", "seed"])
    @pytest.mark.parametrize("value", [2.5, 2.0, None, True])
    def test_counts_must_be_integers(self, field, value):
        # rejected here, not with a TypeError deep in the run's set-up
        args = {**dict(nu=5.0, p=1.0, num_bases=2, iterations=10), field: value}
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            HyperParams(**args)

    def test_numpy_integer_counts_are_plain_ints(self):
        hp = HyperParams(nu=5.0, p=1.0, num_bases=np.int64(2), iterations=np.int32(10),
                         gaussian_iters=np.int16(4), refit_iters=np.uint8(3), seed=np.int64(7))
        assert hp == HyperParams(nu=5.0, p=1.0, num_bases=2, iterations=10, gaussian_iters=4,
                                 refit_iters=3, seed=7)
        assert all(type(v) is int for k, v in hp.to_json().items() if k not in ("nu", "p"))

    @pytest.mark.parametrize("field, least", [("num_bases", 1), ("iterations", 0),
                                              ("gaussian_iters", 0), ("refit_iters", 0),
                                              ("seed", 0)])
    def test_counts_below_their_least_value_are_rejected(self, field, least):
        args = {**dict(nu=5.0, p=1.0, num_bases=2, iterations=10), field: least - 1}
        message = rf"^{field} must be at least {least}, got {least - 1}$"
        with pytest.raises(ValueError, match=message):
            HyperParams(**args)
        assert getattr(HyperParams(**{**args, field: least}), field) == least

    def test_refit_iters_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="refit_iters"):
            HyperParams(nu=5.0, p=1.0, num_bases=2, iterations=10, gaussian_iters=5,
                        refit_iters=-3)


class TestLogAbsDet:
    def test_identity_is_zero(self):
        for n in (1, 2, 5, 8):
            assert np.array_equal(log_abs_det(np.eye(n)[None]), [0.0])

    def test_diagonal(self):
        out = log_abs_det(np.diag([2.0, 4.0])[None])[0]
        assert out == pytest.approx(np.log(8.0), rel=1e-14)

    def test_random_vs_cofactor_oracle(self):
        rng = np.random.default_rng(17)
        m = random_complex(rng, 50, 3, 3)
        expected = [np.log(abs(cofactor_det_3x3(mat))) for mat in m]
        assert log_abs_det(m) == pytest.approx(expected, rel=1e-10)

    def test_product_rule(self):
        rng = np.random.default_rng(23)
        a = random_complex(rng, 30, 4, 4)
        b = random_complex(rng, 30, 4, 4)
        lhs = log_abs_det(a @ b)
        rhs = log_abs_det(a) + log_abs_det(b)
        assert np.all(np.abs(lhs - rhs) <= 1e-9 * np.maximum(1.0, np.abs(rhs)))

    def test_underflow_raises(self):
        with pytest.raises(SingularMatrixError):
            log_abs_det(np.zeros((1, 2, 2)))

    def test_first_singular_bin_is_named(self):
        rng = np.random.default_rng(29)
        m = random_complex(rng, 6, 2, 2)
        m[3] = [[1.0, 2.0], [2.0, 4.0]]
        m[5] = 0.0
        with pytest.raises(SingularMatrixError, match=r"^bin 3: "):
            log_abs_det(m)


class TestCost:
    def test_zero_state(self):
        w = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
        y = np.zeros((3, 4, 2), complex)
        sigma_p = np.ones((2, 3, 4))
        assert cost_value(w, power_of(y), sigma_p, math.inf, 2.0) == 0.0
        assert cost_value(w, power_of(y), sigma_p, 7.0, 2.0) == 0.0

    def test_large_nu_approaches_gaussian(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        y = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
        sigma_p = 0.5 + rng.random((2, 3, 4))
        near = cost_value(w, power_of(y), sigma_p, 1e9, 2.0)
        exact = cost_value(w, power_of(y), sigma_p, math.inf, 2.0)
        assert near == pytest.approx(exact, rel=1e-6)

    @pytest.mark.parametrize("nu,p", [(math.inf, 2.0), (2.0, 1.0), (8.0, 1.5)])
    def test_matches_transcription(self, nu, p):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        y = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
        sigma_p = 0.5 + rng.random((2, 3, 4))
        ours = cost_value(w, power_of(y), sigma_p, nu, p)
        assert ours == pytest.approx(cost_oracle(w, y, sigma_p, nu, p), rel=1e-10)

    def test_singular_bin_is_named(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
        w[2] = [[1.0, 1j], [1j, -1.0]]  # rank 1
        y = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
        sigma_p = 0.5 + rng.random((2, 4, 3))
        with pytest.raises(SingularMatrixError, match=r"^bin 2: "):
            cost_value(w, power_of(y), sigma_p, 4.0, 1.0)


def reference_t_ilrma(values, num_bases, seed, nu, p, iterations):
    """Independently coded loop over bins and rows: t-model IP and NMF updates.

    Returns the demixing matrices and the cost after every iteration.
    """
    floor = 1e-12
    num_bins, num_frames, num_sources = values.shape
    w_stack = np.tile(np.eye(num_sources, dtype=complex), (num_bins, 1, 1))
    basis, activation = init_factors(num_sources, num_bins, num_frames, num_bases, seed)
    scale = [np.maximum(basis[n] @ activation[n], floor ** (p / 2)) for n in range(num_sources)]
    eye = np.eye(num_sources, dtype=complex)
    estimates = np.einsum("inm,ijm->ijn", w_stack, values)
    ws, costs = [], []
    for _ in range(iterations):
        for i in range(num_bins):
            x = values[i].T
            for n in range(num_sources):
                sig_sq = scale[n][i] ** (2 / p)
                weight = 1.0 / (sig_sq + (2 / nu) * np.abs(estimates[i, :, n]) ** 2)
                cov = (1 + 2 / nu) * (x * weight) @ x.conj().T / num_frames
                w = np.linalg.solve(w_stack[i] @ cov, eye[:, n])
                w = w / np.sqrt(np.real(np.conj(w) @ cov @ w))
                w_stack[i, n, :] = np.conj(w)
        estimates = np.einsum("inm,ijm->ijn", w_stack, values)
        for n in range(num_sources):
            power = np.abs(estimates[:, :, n]) ** 2
            for update in ("basis", "activation"):
                sig_sq = scale[n] ** (2 / p)
                inv_weight = 1 / (nu / (nu + 2) * sig_sq + 2 / (nu + 2) * power)
                num = power * inv_weight / scale[n]
                if update == "basis":
                    ratio = (num @ activation[n].T) / ((1 / scale[n]) @ activation[n].T)
                    basis[n] = np.maximum(basis[n] * ratio ** (p / (p + 2)), floor)
                else:
                    ratio = (basis[n].T @ num) / (basis[n].T @ (1 / scale[n]))
                    activation[n] = np.maximum(activation[n] * ratio ** (p / (p + 2)), floor)
                scale[n] = np.maximum(basis[n] @ activation[n], floor ** (p / 2))
        for n in range(num_sources):
            eta = np.sqrt(np.mean(np.abs(estimates[:, :, n]) ** 2))
            w_stack[:, n, :] /= eta
            estimates[:, :, n] /= eta
            scale[n] = scale[n] * eta ** -p
            basis[n] = basis[n] * eta ** -p
        ws.append(w_stack.copy())
        costs.append(cost_oracle(w_stack, estimates, np.stack(scale), nu, p))
    return ws, costs


class TestRun:
    def test_zero_iterations_masks_observation(self):
        _, spec = small_scene_spec(0)
        hp = HyperParams(nu=math.inf, p=2.0, num_bases=2, iterations=0, seed=0)
        res = engine.separate(spec, hp)
        assert res.cost_trace.size == 0
        # W stays identity, so image n is the observation masked to channel n
        for n in range(2):
            expected = np.zeros_like(spec.values)
            expected[:, :, n] = spec.values[:, :, n]
            assert np.max(np.abs(res.image(n).values - expected)) <= 1e-12

    def test_bitwise_determinism(self):
        _, spec = small_scene_spec(1)
        hp = HyperParams(nu=4.0, p=1.0, num_bases=2, iterations=8, seed=7)
        a = engine.separate(spec, hp)
        b = engine.separate(spec, hp)
        assert np.array_equal(a.cost_trace, b.cost_trace)
        assert np.array_equal(a.demixing, b.demixing)

    def test_monotone_cost_and_improvement(self):
        scene, spec = small_scene_spec(3)
        hp = HyperParams(nu=math.inf, p=2.0, num_bases=2, iterations=60, seed=0)
        res = engine.separate(spec, hp)
        trace = res.cost_trace
        assert np.all(trace[1:] <= trace[:-1] + 1e-10 * np.abs(trace[:-1]) + 1e-10)
        assert trace[-1] < trace[0]

    def test_completeness_of_images(self):
        _, spec = small_scene_spec(4)
        hp = HyperParams(nu=6.0, p=1.0, num_bases=2, iterations=10, seed=0)
        res = engine.separate(spec, hp)
        total = np.sum([res.image(n).values for n in range(res.num_sources)], axis=0)
        assert np.max(np.abs(total - spec.values)) <= 1e-10

    def test_matches_per_bin_reference_loop(self):
        # t model, three sources: the stacked sweep against a loop that
        # solves each bin's system on its own
        nu, p, iterations = 5.0, 1.0, 20
        _, spec = small_scene_spec(3, num_sources=3)
        state = engine._init_state(spec, HyperParams(nu=nu, p=p, num_bases=2, seed=3), p)
        ours = []
        for _ in range(iterations):
            engine._iterate(state, nu, p, 1)
            ours.append(state.demixing.copy())
        ref_w, ref_cost = reference_t_ilrma(spec.values, 2, 3, nu, p, iterations)
        w_gap = max(np.max(np.abs(a - b)) for a, b in zip(ours, ref_w))
        cost_gap = np.max(np.abs(np.array(state.cost_trace) - ref_cost) / np.abs(ref_cost))
        assert w_gap <= W_GAP_BOUND, w_gap
        assert cost_gap <= COST_GAP_BOUND, cost_gap

    @pytest.mark.parametrize("nu,p", [(math.inf, 2.0), (10.0, 1.0)])
    def test_band_limited_input_names_the_first_silent_bin(self, nu, p):
        scene = synthetic.make_scene(0)
        scene.observation[100:] = 0.0
        spec = synthetic.scene_spectrogram(scene)
        hp = HyperParams(nu=nu, p=p, num_bases=2, iterations=3, seed=0)
        with pytest.raises(SingularMatrixError, match=r"iteration 0: bin 100, source 0"):
            engine.separate(spec, hp)

    def test_errors_carry_iteration_context(self):
        _, spec = small_scene_spec(1, num_bins=9, num_frames=12)
        values = spec.values.copy()
        values[0] = 0.0  # a silent bin; the channels stay independent
        silent_bin = ComplexSpectrogram(values, spec.config, spec.num_samples)
        hp = HyperParams(nu=math.inf, p=2.0, num_bases=2, iterations=1, seed=0)
        with pytest.raises(TilrmaError, match=r"iteration 0: bin 0"):
            engine.separate(silent_bin, hp)

    @pytest.mark.parametrize(
        "defect,message",
        [
            ("duplicated", r"^channel 2 duplicates channel\(s\) 1 "),
            ("silent", r"^silent channel\(s\) 1: "),
            ("all-silent", r"^silent channel\(s\) 1, 2: "),
        ],
    )
    def test_dependent_channels_are_rejected_before_iterating(self, defect, message):
        scene = synthetic.make_scene(0)
        if defect == "duplicated":
            scene.observation[:, :, 1] = scene.observation[:, :, 0]
        else:
            scene.observation[:, :, 0] = 0.0
            if defect == "all-silent":
                scene.observation[:, :, 1] = 0.0
        spec = synthetic.scene_spectrogram(scene)
        hp = HyperParams(nu=10.0, p=1.0, num_bases=2, iterations=3, seed=0)
        with pytest.raises(TilrmaError, match=message):
            engine.separate(spec, hp)

    @pytest.mark.parametrize("scale", [1e-200, 1e160])
    def test_channel_check_is_level_free(self, scale):
        # independent channels pass at any level: no Gram entry over- or underflows
        scene = synthetic.make_scene(0, num_bins=33, num_frames=48)
        engine._check_channel_rank(scene.observation * scale)

    def test_power_matches_demixed_observation(self):
        # the cached |y|^2 must equal |W_i x_ij|^2 of the current W after
        # every iteration, t model and Gaussian
        _, spec = small_scene_spec(2, num_sources=3)
        for nu, p, steps in ((5.0, 1.0, 10), (math.inf, 2.0, 1)):
            state = engine._init_state(spec, HyperParams(nu=nu, p=p, num_bases=2, seed=2), p)
            for _ in range(steps):
                engine._iterate(state, nu, p, 1)
                y = np.einsum("inm,ijm->ijn", state.demixing, state.obs)
                assert np.allclose(state.power, power_of(y), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("num_bins", [1, 2, 7])
    def test_power_refresh_splits_bins_to_fit_its_planes(self, num_bins):
        # three sources: a pair of planes holds y of num_bins // 3 bins, and
        # of none when there are fewer bins than sources
        _, spec = small_scene_spec(2, num_sources=3)
        spec = SimpleNamespace(values=np.ascontiguousarray(spec.values[:num_bins]))
        whole = engine._init_state(spec, HyperParams(nu=5.0, p=1.0, num_bases=2), 1.0)
        whole.demixing[:] = random_complex(np.random.default_rng(1), num_bins, 3, 3)
        with ThreadPoolExecutor(1) as pool:
            split = engine._init_state(spec, HyperParams(nu=5.0, p=1.0, num_bases=2), 1.0,
                                       pool=pool, workers=2)
            split.demixing[:] = whole.demixing
            engine._refresh_power(split)
        engine._refresh_power(whole)
        assert split.power.tobytes() == whole.power.tobytes()
        y = whole.obs @ whole.demixing.transpose(0, 2, 1)
        assert np.allclose(whole.power, power_of(y), rtol=1e-12, atol=0)

    def test_metadata_carries_reproduction_info(self):
        _, spec = small_scene_spec(5)
        hp = HyperParams(nu=2.0, p=1.0, num_bases=2, iterations=3, seed=11)
        res = engine.separate(spec, hp)
        md = res.metadata
        assert md["nu"] == 2.0 and md["p"] == 1.0 and md["seed"] == 11
        assert md["iterations"] == 3 and md["num_bases"] == 2
        assert md["head_residual"] >= 0.0
        assert md["elapsed_seconds"] > 0.0

    def test_one_stream_is_rejected(self):
        _, spec = small_scene_spec(6)
        mono = ComplexSpectrogram(spec.values[:, :, :1], spec.config, spec.num_samples)
        hp = HyperParams(nu=5.0, p=1.0, num_bases=2, iterations=3)
        with pytest.raises(TilrmaError, match="^separation needs at least two channels$"):
            engine.separate(mono, hp)


class TestTwoStage:
    def test_identity_switch_equals_single_stage(self):
        _, spec = small_scene_spec(7)
        hp2 = HyperParams(nu=math.inf, p=2.0, num_bases=2, iterations=30, seed=3,
                          gaussian_iters=15)
        hp1 = HyperParams(nu=math.inf, p=2.0, num_bases=2, iterations=30, seed=3)
        two = engine.separate(spec, hp2)
        one = engine.separate(spec, hp1)
        assert np.array_equal(two.cost_trace, one.cost_trace)

    def test_stagewise_monotonicity_and_boundary(self):
        _, spec = small_scene_spec(8)
        hp = HyperParams(nu=3.0, p=1.0, num_bases=2, iterations=40, seed=0,
                         gaussian_iters=20, refit_iters=5)
        res = engine.separate(spec, hp)
        b = res.metadata["stage_boundary"]
        assert b == 20
        assert res.cost_trace.size == 40
        for seg in (res.cost_trace[:b], res.cost_trace[b:]):
            assert np.all(seg[1:] <= seg[:-1] + 1e-10 * np.abs(seg[:-1]) + 1e-10)
        kinds = [e["kind"] for e in res.metadata["events"]]
        assert "stage_boundary" in kinds

    def test_separate_dispatches_on_schedule(self):
        _, spec = small_scene_spec(9)
        hp = HyperParams(nu=3.0, p=1.0, num_bases=2, iterations=10, seed=0,
                         gaussian_iters=5, refit_iters=2)
        res = engine.separate(spec, hp)
        assert res.metadata["stage_boundary"] == 5
        res_single = engine.separate(spec, HyperParams(nu=3.0, p=1.0, num_bases=2,
                                                       iterations=10, seed=0))
        assert res_single.metadata["stage_boundary"] is None


def separate_on(monkeypatch, workers, spec, hp):
    """``engine.separate`` with its pool forced to ``workers`` threads.

    Pooled runs switch threads every microsecond, so tasks interleave as
    finely as they can.
    """
    monkeypatch.setattr(engine, "_worker_count", lambda: workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6 if workers > 1 else interval)
    try:
        return engine.separate(spec, hp)
    finally:
        sys.setswitchinterval(interval)


POOL_CASES = {
    "t-3-sources": (dict(seed=3, num_sources=3), dict(nu=5.0, p=1.0, iterations=10)),
    "gaussian": (dict(seed=4), dict(nu=math.inf, p=2.0, iterations=10)),
    "two-stage-refit": (dict(seed=8), dict(nu=10.0, p=1.5, iterations=12,
                                           gaussian_iters=5, refit_iters=3)),
    # p=2 keeps the Gaussian stage's exponent: the refit returns at once
    "two-stage-same-p": (dict(seed=5), dict(nu=10.0, p=2.0, iterations=12,
                                            gaussian_iters=5, refit_iters=3)),
}


class TestPool:
    @pytest.mark.parametrize("case", sorted(POOL_CASES))
    def test_thread_count_changes_no_bit(self, monkeypatch, case):
        scene_args, hp_args = POOL_CASES[case]
        _, spec = small_scene_spec(**scene_args)
        hp = HyperParams(num_bases=2, seed=1, **hp_args)
        one = separate_on(monkeypatch, 1, spec, hp)
        three = separate_on(monkeypatch, 3, spec, hp)
        assert (one.metadata["workers"], three.metadata["workers"]) == (1, 3)
        assert three.demixing.tobytes() == one.demixing.tobytes()
        assert [three.image(n).values.tobytes() for n in range(three.num_sources)] == [
            one.image(n).values.tobytes() for n in range(one.num_sources)]
        assert three.cost_trace.tobytes() == one.cost_trace.tobytes()
        assert three.metadata["events"] == one.metadata["events"]
        assert three.metadata["head_residual"] == one.metadata["head_residual"]

    def test_worker_count_is_capped(self, monkeypatch):
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: set(range(64)))
        assert engine._worker_count() == engine.MAX_WORKERS
        monkeypatch.setattr(engine.os, "sched_getaffinity", lambda pid: {0})
        assert engine._worker_count() == 1

    def test_worker_count_without_affinity_mask(self, monkeypatch):
        monkeypatch.delattr(engine.os, "sched_getaffinity")
        monkeypatch.setattr(engine.os, "cpu_count", lambda: 64)
        assert engine._worker_count() == engine.MAX_WORKERS
        monkeypatch.setattr(engine.os, "cpu_count", lambda: None)
        assert engine._worker_count() == 1

    def test_no_thread_outlives_separate(self, monkeypatch):
        before = set(threading.enumerate())
        _, spec = small_scene_spec(2)
        separate_on(monkeypatch, 3, spec, HyperParams(nu=5.0, p=1.0, num_bases=2, iterations=3))
        assert set(threading.enumerate()) == before
        values = spec.values.copy()
        values[0] = 0.0  # a silent bin: the first sweep raises
        silent = ComplexSpectrogram(values, spec.config, spec.num_samples)
        with pytest.raises(SingularMatrixError):
            separate_on(monkeypatch, 3, silent, HyperParams(nu=5.0, p=1.0, num_bases=2,
                                                            iterations=3))
        assert set(threading.enumerate()) == before

    def test_one_worker_starts_no_thread(self, monkeypatch):
        real_update = engine.update_factors
        threads = []

        def counting_update(*args):
            threads.append(threading.active_count())
            return real_update(*args)

        monkeypatch.setattr(engine, "update_factors", counting_update)
        before = threading.active_count()
        _, spec = small_scene_spec(2)
        res = separate_on(monkeypatch, 1, spec, HyperParams(nu=5.0, p=1.0, num_bases=2,
                                                            iterations=3))
        assert res.metadata["workers"] == 1
        assert threads == [before] * 6

    def test_error_in_a_pooled_task_names_its_iteration(self, monkeypatch):
        real_update = engine.update_factors
        calls = []
        both_sources = threading.Barrier(2, timeout=30)

        def failing_update(*args):
            calls.append(None)
            if len(calls) > 4:  # the third iteration of a two-source run
                # each thread holds one source until the other arrives, so a
                # pool thread runs one of them
                both_sources.wait()
                if threading.current_thread().name.startswith("tilrma"):
                    raise TilrmaError("source model failed in a pool thread")
            return real_update(*args)

        monkeypatch.setattr(engine, "update_factors", failing_update)
        _, spec = small_scene_spec(5)
        with pytest.raises(TilrmaError, match=r"^iteration 2: source model failed in a pool"):
            separate_on(monkeypatch, 3, spec, HyperParams(nu=5.0, p=1.0, num_bases=2,
                                                          iterations=5))

    def test_first_failure_in_item_order_is_raised_after_every_task(self):
        finished = []
        lent = set()

        def task(k, planes):
            finished.append(k)
            lent.add(id(planes.base))
            if k in (1, 4):
                raise TilrmaError(f"item {k}")
            return k

        with ThreadPoolExecutor(2) as pool:
            state = SimpleNamespace(pool=pool, work=np.zeros((3, 2, 1, 1)))
            with pytest.raises(TilrmaError, match="^item 1$"):
                engine._run(state, task, range(6))
            assert engine._run(state, lambda k, planes: k * k, range(5)) == [0, 1, 4, 9, 16]
        assert sorted(finished) == list(range(6))
        assert lent == {id(state.work)}  # every task got a pair of the run's planes

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_each_thread_has_one_pair_of_planes(self, monkeypatch, workers):
        shapes = []
        real_finalize = engine._finalize

        def finalize(state, *args, **kwargs):
            shapes.append(state.work.shape)
            return real_finalize(state, *args, **kwargs)

        monkeypatch.setattr(engine, "_finalize", finalize)
        _, spec = small_scene_spec(2, num_sources=3)
        separate_on(monkeypatch, workers, spec, HyperParams(nu=5.0, p=1.0, num_bases=2,
                                                            iterations=2))
        assert shapes == [(workers, 2, spec.num_bins, spec.num_frames)]

    def test_pool_adds_at_most_its_threads_planes_to_the_memory_peak(self, monkeypatch):
        # each added worker brings its own pair of planes; up to M workers
        # the run holds no more planes than that
        _, spec = small_scene_spec(6, num_bins=65, num_frames=96, num_sources=3)
        hp = HyperParams(nu=5.0, p=1.0, num_bases=2, iterations=4)
        peaks = {}
        for workers in (1, 2, 3):
            tracemalloc.start()
            try:
                separate_on(monkeypatch, workers, spec, hp)
                peaks[workers] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        plane = 65 * 96 * 8
        for workers in (2, 3):
            assert peaks[workers] <= peaks[1] + (2 * (workers - 1) + 1) * plane, peaks


class TestMemoryCheck:
    @staticmethod
    def stub(monkeypatch, files):
        monkeypatch.setattr(engine, "_read_text", files.get)

    @staticmethod
    def cgroup(limit, used=5000, cache=0):
        """Files of a cgroup that may still allocate ``limit`` bytes, whose
        use of ``used`` bytes is ``cache`` bytes of page cache beyond that."""
        stat = f"anon {used}\nfile {cache}\nactive_file {cache // 4}\n" \
               f"inactive_file {cache - cache // 4}\nshmem 0\n"
        return {engine.CGROUP_MEMORY_MAX: f"{limit + used}\n",
                engine.CGROUP_MEMORY_CURRENT: f"{used + cache}\n",
                engine.CGROUP_MEMORY_STAT: stat}

    def test_limit_is_the_smaller_of_available_memory_and_the_cgroup_limit(self, monkeypatch):
        meminfo = "MemTotal:        8000 kB\nMemAvailable:    3000 kB\n"
        self.stub(monkeypatch, {engine.MEMINFO: meminfo, **self.cgroup(2048000)})
        assert engine._memory_limit() == 2048000
        self.stub(monkeypatch, {engine.MEMINFO: meminfo, **self.cgroup(9999999)})
        assert engine._memory_limit() == 3000 * 1024
        # the page cache within the cgroup's use is room the kernel reclaims
        self.stub(monkeypatch, self.cgroup(2048000, cache=900000))
        assert engine._memory_limit() == 2048000
        # a cgroup limit without its current use, or without the page cache
        # within it, is taken whole
        self.stub(monkeypatch, {engine.MEMINFO: meminfo, engine.CGROUP_MEMORY_MAX: "2048000\n"})
        assert engine._memory_limit() == 2048000
        self.stub(monkeypatch, {engine.CGROUP_MEMORY_MAX: "2048000\n",
                                engine.CGROUP_MEMORY_CURRENT: "2000000\n"})
        assert engine._memory_limit() == 2048000
        # a cgroup already over its limit has no room left
        files = self.cgroup(0, used=3000000)
        files[engine.CGROUP_MEMORY_MAX] = "2048000\n"
        self.stub(monkeypatch, files)
        assert engine._memory_limit() == 0

    @pytest.mark.parametrize("files", [
        {},
        {engine.CGROUP_MEMORY_MAX: "max\n"},
        {engine.CGROUP_MEMORY_MAX: "max\n", engine.CGROUP_MEMORY_CURRENT: "5000\n"},
        {engine.MEMINFO: "MemTotal:        8000 kB\n", engine.CGROUP_MEMORY_MAX: "max\n"},
    ], ids=["no-files", "cgroup-max", "cgroup-max-with-use", "no-available-line"])
    def test_no_known_limit_skips_the_check(self, monkeypatch, files):
        self.stub(monkeypatch, files)
        assert engine._memory_limit() is None
        _, spec = small_scene_spec(2)
        res = engine.separate(spec, HyperParams(nu=5.0, p=1.0, num_bases=2, iterations=1))
        assert res.cost_trace.size == 1

    def test_run_that_does_not_fit_is_refused_before_it_starts(self, monkeypatch):
        _, spec = small_scene_spec(2, num_sources=3)
        per_slot = engine._run_bytes_per_slot(3, 2)
        # the caller's observation is already allocated and is not counted
        assert per_slot == 8 * 9 + 16 * 3 + 16 * 2
        needed = per_slot * spec.num_bins * spec.num_frames
        limit = per_slot * spec.num_bins * 20  # room for 20 of the 48 frames
        self.stub(monkeypatch, self.cgroup(limit))
        monkeypatch.setattr(engine, "_init_state", None)  # nothing may be allocated
        seconds = 20 * spec.config.shift_samples / spec.config.sample_rate_hz
        with pytest.raises(TilrmaError, match=rf"^separation needs {needed} bytes .* but "
                                              rf"{limit} are available; about {seconds:.1f} s "):
            separate_on(monkeypatch, 2, spec, HyperParams(nu=5.0, p=1.0, num_bases=2,
                                                          iterations=1))

    def test_run_that_just_fits_is_not_refused(self, monkeypatch):
        _, spec = small_scene_spec(2, num_sources=3)
        needed = engine._run_bytes_per_slot(3, 1) * spec.num_bins * spec.num_frames
        self.stub(monkeypatch, self.cgroup(needed))
        res = separate_on(monkeypatch, 1, spec, HyperParams(nu=5.0, p=1.0, num_bases=2,
                                                            iterations=1))
        assert res.cost_trace.size == 1

    def test_run_is_not_refused_for_the_cgroups_page_cache(self, monkeypatch):
        # a long-lived cgroup's use sits near its limit, most of it page cache
        _, spec = small_scene_spec(2, num_sources=3)
        needed = engine._run_bytes_per_slot(3, 1) * spec.num_bins * spec.num_frames
        files = self.cgroup(needed, cache=50 * needed)
        assert int(files[engine.CGROUP_MEMORY_MAX]) < int(files[engine.CGROUP_MEMORY_CURRENT])
        self.stub(monkeypatch, files)
        res = separate_on(monkeypatch, 1, spec, HyperParams(nu=5.0, p=1.0, num_bases=2,
                                                            iterations=1))
        assert res.cost_trace.size == 1
        self.stub(monkeypatch, self.cgroup(needed - 1, cache=50 * needed))
        with pytest.raises(TilrmaError, match=rf"^separation needs {needed} bytes "):
            separate_on(monkeypatch, 1, spec, HyperParams(nu=5.0, p=1.0, num_bases=2,
                                                          iterations=1))

    def test_fortran_ordered_spectrogram_is_stored_c_contiguous(self, monkeypatch):
        # the spectrogram owns the copy, so the run allocates no observation of its own
        _, spec = small_scene_spec(2, num_sources=3)
        fortran = ComplexSpectrogram(np.asfortranarray(spec.values), spec.config,
                                     spec.num_samples)
        assert fortran.values.flags.c_contiguous and fortran.values.dtype == np.complex128
        assert np.array_equal(fortran.values, spec.values)
        per_slot = engine._run_bytes_per_slot(3, 1)
        needed = per_slot * spec.num_bins * spec.num_frames
        hp = HyperParams(nu=5.0, p=1.0, num_bases=2, iterations=1)
        self.stub(monkeypatch, self.cgroup(needed - 1))
        with pytest.raises(TilrmaError, match=rf"^separation needs {needed} bytes "
                                              rf"\({per_slot} per bin and frame"):
            separate_on(monkeypatch, 1, fortran, hp)
        self.stub(monkeypatch, self.cgroup(needed))
        assert separate_on(monkeypatch, 1, fortran, hp).cost_trace.size == 1
