"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy criteria run the full 200-iteration protocol on seeded synthetic
scenes (frequency bins x frames = 129 x 128, two sources, rank-2 models),
so this module takes a few minutes; everything is deterministic.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest
import synthetic

from tilrma import cli, demix, engine, metrics
from tilrma.engine import HyperParams, TwoStageSchedule, cost_value
from tilrma.source_model import init_factors, update_factors
from tilrma.stft import ComplexSpectrogram, StftConfig, analyze, synthesize

SEEDS = range(10)
CONFIGS = [(math.inf, 2.0), (1.0, 1.0), (2.0, 1.0), (10.0, 1.0), (100.0, 2.0)]
FLOOR_SLACK = 1e-10


def report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}{tail}")
    assert ok, f"criterion {num}: {name}{tail}"


def monotone(trace):
    trace = np.asarray(trace)
    bound = trace[:-1] + FLOOR_SLACK * np.abs(trace[:-1]) + FLOOR_SLACK
    return bool(np.all(trace[1:] <= bound))


def run_scene(seed, nu, p, iterations=200, schedule=None):
    scene = synthetic.make_scene(seed)
    spec = synthetic.scene_spectrogram(scene)
    hp = HyperParams(nu=nu, p=p, num_bases=2, iterations=iterations, seed=seed,
                     schedule=schedule)
    return scene, spec, engine.separate(spec, hp)


@pytest.fixture(scope="module")
def gauss_runs():
    return {seed: run_scene(seed, math.inf, 2.0) for seed in SEEDS}


def improvement_db(scene, spec, result):
    cfg, ns = spec.config, spec.num_samples
    refs = [
        synthesize(ComplexSpectrogram(synthetic.truth_image(scene, n), cfg, ns))[:, 0]
        for n in range(scene.num_sources)
    ]
    ests = [synthesize(result.image(n))[:, 0] for n in range(result.num_sources)]
    mix = synthesize(spec)[:, 0]
    rep = metrics.align_permutation(refs, ests, taps=1, mixture=mix)
    return rep.mean_improvement_db


def test_criterion_1_monotone_convergence(gauss_runs):
    failures = []
    for seed in SEEDS:
        for nu, p in CONFIGS:
            if math.isinf(nu):
                _, _, result = gauss_runs[seed]
            else:
                _, _, result = run_scene(seed, nu, p)
            if len(result.cost_trace) != 200 or not monotone(result.cost_trace):
                failures.append((seed, nu, p))
    report(1, "monotone convergence over 10 seeds x 5 configs", not failures,
           f"failures: {failures}" if failures else "50/50 traces monotone")


def reference_gaussian_ilrma(values, num_bases, seed, iterations):
    """Independently coded conventional loop: Gaussian cost, ISNMF updates."""
    floor = 1e-12
    num_bins, num_frames, num_channels = values.shape
    num_sources = num_channels
    w_stack = np.tile(np.eye(num_sources, dtype=complex), (num_bins, 1, 1))
    basis, activation = init_factors(num_sources, num_bins, num_frames, num_bases, seed)
    variance = [np.maximum(basis[n] @ activation[n], floor) for n in range(num_sources)]
    eye = np.eye(num_sources, dtype=complex)
    trajectory = []
    for _ in range(iterations):
        for i in range(num_bins):
            x = values[i].T
            for n in range(num_sources):
                cov = (x / variance[n][i][None, :]) @ x.conj().T / num_frames
                w = np.linalg.solve(w_stack[i] @ cov, eye[:, n])
                w = w / np.sqrt(np.real(np.conj(w) @ cov @ w))
                w_stack[i, n, :] = np.conj(w)
        estimates = np.einsum("inm,ijm->ijn", w_stack, values)
        for n in range(num_sources):
            power = np.abs(estimates[:, :, n]) ** 2
            basis[n] = np.maximum(
                basis[n] * np.sqrt(((power / variance[n] ** 2) @ activation[n].T)
                                   / ((1.0 / variance[n]) @ activation[n].T)),
                floor,
            )
            variance[n] = np.maximum(basis[n] @ activation[n], floor)
            activation[n] = np.maximum(
                activation[n] * np.sqrt((basis[n].T @ (power / variance[n] ** 2))
                                        / (basis[n].T @ (1.0 / variance[n]))),
                floor,
            )
            variance[n] = np.maximum(basis[n] @ activation[n], floor)
        for n in range(num_sources):
            eta = np.sqrt(np.mean(np.abs(estimates[:, :, n]) ** 2))
            w_stack[:, n, :] /= eta
            estimates[:, :, n] /= eta
            variance[n] = np.maximum(variance[n] / eta**2, floor)
            basis[n] = np.maximum(basis[n] / eta**2, floor)
        trajectory.append(w_stack.copy())
    return trajectory


def test_criterion_2_gaussian_limit_equivalence():
    seed, iterations = 3, 50
    scene = synthetic.make_scene(seed)
    spec = synthetic.scene_spectrogram(scene)
    hp = HyperParams(nu=math.inf, p=2.0, num_bases=2, iterations=1, seed=seed)
    state = engine._init_state(spec, hp, 2.0)
    ours = []
    for _ in range(iterations):
        engine._iterate(state, math.inf, 2.0, 1)
        ours.append(state.demixing.copy())
    reference = reference_gaussian_ilrma(spec.values, 2, seed, iterations)
    worst = max(np.max(np.abs(a - b)) for a, b in zip(ours, reference))
    report(2, "Gaussian-limit equivalence with conventional loop", worst <= 1e-8,
           f"max trajectory gap {worst:.2e} over {iterations} iterations")


def test_criterion_3_majorizer_oracle_suite():
    out = synthetic.run_oracle_suite(seed=0, samples=10000, touch_states=100)
    report(
        3,
        "tangent/Jensen fuzz and surrogate touch conditions",
        out["ok"],
        f"{out['tangent_violations']}+{out['jensen_violations']} inequality violations, "
        f"{out['touch_failures']} touch failures",
    )


def test_criterion_4_ip_postcondition_and_head_diagnostic(monkeypatch):
    quad_errors = []
    original = demix.ip_update

    def checked(w_stack, cov, n):
        w, singular = original(w_stack, cov, n)
        quad = np.real(np.einsum("bi,bij,bj->b", np.conj(w), cov, w))
        quad_errors.extend(np.abs(quad[~singular] - 1.0))
        return w, singular

    monkeypatch.setattr(demix, "ip_update", checked)
    scene = synthetic.make_fixed_point_scene(0)
    spec = synthetic.scene_spectrogram(scene)
    engine.separate(spec, HyperParams(nu=5.0, p=1.0, num_bases=1, iterations=5, seed=0))
    monkeypatch.setattr(demix, "ip_update", original)
    post_ok = max(quad_errors) <= 1e-10

    below = 0
    residuals = []
    for seed in SEEDS:
        scene = synthetic.make_fixed_point_scene(seed)
        spec = synthetic.scene_spectrogram(scene)
        res = engine.separate(spec, HyperParams(nu=math.inf, p=2.0, num_bases=1,
                                                iterations=200, seed=seed))
        residuals.append(res.metadata["head_residual"])
        below += residuals[-1] < 1e-6
    report(
        4,
        "IP postcondition and head-system residual",
        post_ok and below >= 8,
        f"max |w^H U w - 1| = {max(quad_errors):.2e} over {len(quad_errors)} updates; "
        f"{below}/10 seeds below 1e-6 (median residual {np.median(residuals):.2e})",
    )


def test_criterion_5_structural_identities():
    scene = synthetic.make_scene(2)
    spec = synthetic.scene_spectrogram(scene)
    nu, p = 5.0, 1.0
    hp = HyperParams(nu=nu, p=p, num_bases=2, iterations=1, seed=2)
    state = engine._init_state(spec, hp, p)
    worst_invariance = 0.0
    worst_completeness = 0.0
    for k in range(50):
        engine._ip_sweep(state, nu, p, k)
        engine._refresh_power(state)
        for n in range(2):
            update_factors(state.basis[n], state.activation[n], state.power[n],
                           state.sigma_p[n], p, nu, state.work[0])
        before = cost_value(state.demixing, state.power, state.sigma_p, nu, p)
        for n in range(2):
            demix.normalize(state.demixing, state.power, state.sigma_p, state.basis, p, n)
        after = cost_value(state.demixing, state.power, state.sigma_p, nu, p)
        worst_invariance = max(worst_invariance, abs(after - before) / abs(before))
        y = np.einsum("inm,ijm->ijn", state.demixing, state.obs)
        total = sum(demix.back_project(y, demix.mixing_column(state.demixing, n), n)
                    for n in range(2))
        worst_completeness = max(
            worst_completeness, float(np.max(np.abs(total - state.obs)))
        )
    ok = worst_invariance <= 1e-9 and worst_completeness <= 1e-10
    report(
        5,
        "normalization cost-invariance and back-projection completeness",
        ok,
        f"worst invariance {worst_invariance:.2e}, worst completeness "
        f"{worst_completeness:.2e} over 50 iterations",
    )


def test_criterion_6_separation_quality(gauss_runs):
    gauss = [improvement_db(*gauss_runs[seed]) for seed in SEEDS]
    heavy = [improvement_db(*run_scene(seed, 100.0, 1.0)) for seed in SEEDS]
    med_gauss = float(np.median(gauss))
    med_heavy = float(np.median(heavy))
    ok = med_gauss >= 10.0 and abs(med_heavy - med_gauss) <= 3.0
    report(
        6,
        "desk-scale separation quality",
        ok,
        f"median SI-SDR improvement: gaussian {med_gauss:.2f} dB, "
        f"nu=100/p=1 {med_heavy:.2f} dB",
    )


def test_criterion_7_two_stage_schedule(gauss_runs):
    _, _, single = gauss_runs[1]
    _, _, staged = run_scene(
        1, math.inf, 2.0, schedule=TwoStageSchedule(gaussian_iters=100, refit_iters=10)
    )
    identity_gap = float(np.max(np.abs(staged.cost_trace - single.cost_trace)))
    identity_ok = identity_gap <= 1e-12 * max(1.0, float(np.max(np.abs(single.cost_trace))))

    stage_failures = []
    for nu in (1.0, 2.0, 10.0):
        for p in (1.0, 2.0):
            _, _, res = run_scene(
                1, nu, p, schedule=TwoStageSchedule(gaussian_iters=100, refit_iters=10)
            )
            boundary = res.metadata["stage_boundary"]
            if not monotone(res.cost_trace[boundary:]):
                stage_failures.append((nu, p))
    ok = identity_ok and not stage_failures
    report(
        7,
        "two-stage schedule",
        ok,
        f"identity-switch gap {identity_gap:.2e}; stage-2 violations: {stage_failures}",
    )


def test_criterion_8_protocol_replication_mode(tmp_path):
    # structural verification: the CLI exposes the reference protocol exactly
    parser = cli.build_parser()
    args = parser.parse_args(["separate", "x.wav"])
    defaults_ok = (
        args.window_ms == 512.0
        and args.shift_ms == 128.0
        and args.iters == 200
        and cli.PRESET_BASES == {"music": 5, "speech": 2}
        and args.taps == 512
    )
    cfg = StftConfig(16000.0)
    stft_ok = cfg.window_samples == 8192 and cfg.shift_samples == 2048

    data_dir = os.environ.get("TILRMA_PROTOCOL_DIR")
    if data_dir:
        mixture = Path(data_dir) / "mixture.wav"
        refs = sorted(Path(data_dir).glob("ref*.wav"))
        improvements = []
        for seed in range(10):
            out = tmp_path / f"protocol_{seed}"
            code = cli.main(
                ["separate", str(mixture), "--preset", "music", "--iters", "200",
                 "--seed", str(seed), "--refs", *map(str, refs), "--out", str(out)]
            )
            assert code == 0
            import json

            rep = json.loads((out / "result.json").read_text())
            improvements.append(rep["evaluation"]["mean_improvement_db"])
        detail = f"protocol run on user data: mean improvement {np.mean(improvements):.2f} dB"
    else:
        detail = "protocol defaults verified; dataset replication skipped (set TILRMA_PROTOCOL_DIR to run)"
    report(8, "protocol replication mode", defaults_ok and stft_ok, detail)


def test_criterion_9_numerical_kernel_checks():
    # STFT round trip
    cfg = StftConfig(8000.0, 64.0, 16.0)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((6 * cfg.window_samples, 2))
    back = synthesize(analyze(x, cfg))
    w = cfg.window_samples
    err = back[w:-w] - x[w:-w]
    round_trip = float(np.sqrt(np.mean(err**2) / np.mean(x[w:-w] ** 2)))

    # determinant vs cofactor expansion, solve residuals
    det_gap = 0.0
    solve_resid = 0.0
    for k in range(25):
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        direct = (
            m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
            - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
            + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
        )
        det_gap = max(
            det_gap,
            abs(engine.log_abs_det(m[None])[0] - math.log(abs(direct)))
            / abs(math.log(abs(direct))),
        )
        v = demix.solve_unit(m[None], k % 3)[0]
        solve_resid = max(solve_resid, float(np.linalg.norm(m @ v - np.eye(3)[:, k % 3])))

    # constructed-SNR check for the scale-invariant metric
    ref = rng.standard_normal(4000)
    noise = rng.standard_normal(4000)
    noise -= (noise @ ref) / (ref @ ref) * ref
    gain = np.linalg.norm(ref) / (np.linalg.norm(noise) * 10 ** 0.5)
    estimate = ref + gain * noise
    snr_gap = abs(metrics.align_permutation([ref], [estimate]).per_source_sdr[0] - 10.0)

    ok = round_trip <= 1e-8 and det_gap <= 1e-10 and solve_resid <= 1e-10 and snr_gap <= 0.1
    report(
        9,
        "numerical kernel checks",
        ok,
        f"round trip {round_trip:.2e}, det gap {det_gap:.2e}, "
        f"solve residual {solve_resid:.2e}, SNR gap {snr_gap:.3f} dB",
    )
