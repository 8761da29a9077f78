"""Tests of the benchmark's own code: inputs, independent checks, span accounting.

    python3 -m pytest bench/tests -q
"""

import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import mixture  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# -- inputs ------------------------------------------------------------------

def test_mixture_is_deterministic_per_seed():
    a = mixture.make_mixture(3, 2, 0.5)
    b = mixture.make_mixture(3, 2, 0.5)
    assert np.array_equal(a.samples, b.samples)
    assert np.array_equal(a.references, b.references)


def test_mixture_differs_across_seeds():
    a = mixture.make_mixture(3, 2, 0.5)
    b = mixture.make_mixture(4, 2, 0.5)
    assert not np.allclose(a.samples, b.samples)


def test_mixture_shape_and_references():
    mix = mixture.make_mixture(0, 3, 0.5)
    assert mix.samples.shape == (8000, 3)
    assert mix.references.shape == (3, 8000)
    assert np.max(np.abs(mix.samples)) == pytest.approx(mixture.PEAK, rel=1e-6)
    # the reference images add up to the reference channel (up to float32 rounding)
    gap = mix.references.sum(axis=0) - mix.samples[:, mixture.REFERENCE_CHANNEL]
    assert np.max(np.abs(gap)) < 1e-7


def test_wav_round_trip(tmp_path):
    samples = mixture.make_mixture(1, 2, 0.1).samples
    path = tmp_path / "x.wav"
    mixture.write_float32_wav(path, samples, 16000)
    back, rate = mixture.read_float_wav(path)
    assert rate == 16000
    assert np.array_equal(back, samples)  # samples are float32-exact already


# -- independent projection SDR ----------------------------------------------

def test_projection_sdr_closed_form():
    ref = np.array([[1.0, 0.0, 0.0, 0.0]])
    # delays 0 and 1 of the reference span [1, 2, 0, 0]; the rest, [0, 0, 3, 0], is error
    est = np.array([[1.0, 2.0, 3.0, 0.0]])
    assert checks.projection_sdr(ref, est, 2)[0, 0] == pytest.approx(10 * math.log10(5 / 9))
    # one tap: only [1, 0, 0, 0] is allowed, the error is [0, 2, 3, 0]
    assert checks.projection_sdr(ref, est, 1)[0, 0] == pytest.approx(10 * math.log10(1 / 13))
    # a filtered reference inside the allowed taps scores the cap
    assert checks.projection_sdr(ref, est, 3)[0, 0] == checks.CAP_DB


def test_projection_sdr_matches_least_squares():
    rng = np.random.default_rng(0)
    length, taps = 300, 8
    ref = rng.standard_normal(length)
    est = np.convolve(ref, rng.standard_normal(3))[:length] + 0.3 * rng.standard_normal(length)
    delayed = np.zeros((length + taps - 1, taps))
    for d in range(taps):
        delayed[d:d + length, d] = ref
    target = np.concatenate([est, np.zeros(taps - 1)])
    coef = np.linalg.lstsq(delayed, target, rcond=None)[0]
    proj = delayed @ coef
    want = 10 * np.log10(proj @ proj / ((target - proj) @ (target - proj)))
    assert checks.projection_sdr([ref], [est], taps)[0, 0] == pytest.approx(want, abs=1e-9)


def _scene(seed=0, length=2000, taps=32):
    rng = np.random.default_rng(seed)
    refs = rng.standard_normal((2, length))
    estimates = refs + 0.1 * rng.standard_normal((2, length))
    mix = refs.sum(axis=0)
    scores = checks.projection_sdr(refs, estimates, taps)
    baseline = checks.projection_sdr(refs, [mix], taps)[:, 0]
    return refs, estimates, mix, scores, baseline


def _report(scores, baseline):
    perm = checks.best_permutation(scores)
    return SimpleNamespace(permutation=perm,
                           per_source_sdr=[scores[r, e] for r, e in enumerate(perm)],
                           baseline_sdr=list(baseline),
                           mean_improvement_db=checks.sdr_gain(scores, baseline, perm))


def test_evaluation_check_accepts_the_programs_report():
    from tilrma import metrics

    refs, estimates, mix, scores, baseline = _scene()
    report = metrics.align_permutation(list(refs), list(estimates[::-1]), taps=32, mixture=mix)
    assert checks.check_evaluation(report, scores[:, ::-1], baseline) == []


def test_evaluation_check_rejects_swapped_sources():
    refs, estimates, mix, scores, baseline = _scene()
    report = _report(scores, baseline)
    swapped = checks.projection_sdr(refs, estimates[::-1], 32)
    assert checks.check_evaluation(report, swapped, baseline)


def test_evaluation_check_rejects_perturbed_source():
    refs, estimates, mix, scores, baseline = _scene()
    report = _report(scores, baseline)
    estimates[1] += 0.01 * np.random.default_rng(1).standard_normal(estimates.shape[1])
    assert checks.check_evaluation(report, checks.projection_sdr(refs, estimates, 32), baseline)


def test_evaluation_check_rejects_wrong_gain():
    _, _, _, scores, baseline = _scene()
    report = _report(scores, baseline)
    report.mean_improvement_db += 1e-3
    assert checks.check_evaluation(report, scores, baseline)


# -- output checks -----------------------------------------------------------

def _outputs(seed=0, length=1000, channels=2):
    rng = np.random.default_rng(seed)
    outputs = [rng.standard_normal((length, channels)).astype(np.float32).astype(np.float64)
               for _ in range(channels)]
    return outputs, np.sum(outputs, axis=0)


def test_completeness_accepts_float32_outputs():
    outputs, mix = _outputs()
    assert checks.check_completeness(outputs, mix, 10) == []


def test_completeness_rejects_perturbed_source():
    outputs, mix = _outputs()
    outputs[0][500, 1] += 1e-4
    assert checks.check_completeness(outputs, mix, 10)


def test_completeness_ignores_the_edges():
    outputs, mix = _outputs()
    outputs[0][5, 0] += 1.0
    assert checks.check_completeness(outputs, mix, 10) == []


def test_shape_check_rejects_count_length_and_nan():
    outputs, _ = _outputs()
    assert checks.check_shapes(outputs, 2, 1000, 2) == []
    assert checks.check_shapes(outputs[:1], 2, 1000, 2)
    assert checks.check_shapes([outputs[0], outputs[1][:-1]], 2, 1000, 2)
    bad = [outputs[0], outputs[1].copy()]
    bad[1][3, 0] = np.nan
    assert checks.check_shapes(bad, 2, 1000, 2)


def test_cost_check_rejects_rising_trace():
    assert checks.check_cost_trace([5.0, 4.0, 3.0], None, 3) == []
    assert checks.check_cost_trace([5.0, 4.0, 4.5], None, 3)
    assert checks.check_cost_trace([5.0, 4.0, 3.0], None, 4)  # wrong length
    assert checks.check_cost_trace([5.0, float("nan"), 3.0], None, 3)


def test_cost_check_splits_at_the_stage_boundary():
    # the objective changes at the boundary, so a jump there is allowed
    assert checks.check_cost_trace([5.0, 4.0, 9.0, 8.0], 2, 4) == []
    assert checks.check_cost_trace([5.0, 4.0, 9.0, 9.5], 2, 4)


def test_cost_check_uses_criterion_1_slack():
    base = -1e6
    assert checks.check_cost_trace([base, base + 0.5e-10 * 1e6], None, 2) == []
    assert checks.check_cost_trace([base, base + 2e-10 * 1e6], None, 2)


# -- spans -------------------------------------------------------------------

def test_self_times_of_a_hand_built_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
        ["b", 6.0, 6.5, 3],
    ]
    totals = spans.self_times(tree)
    assert totals["root"] == pytest.approx([10.0, 3.0, 1])
    assert totals["a"] == pytest.approx([7.0, 5.5, 2])
    assert totals["b"] == pytest.approx([1.5, 1.5, 2])
    assert sum(entry[1] for entry in totals.values()) == pytest.approx(10.0)


def test_tracer_wraps_every_binding_and_restores():
    import tilrma
    from tilrma import cli, stft

    original = stft.analyze
    tracer = spans.Tracer()
    names = tracer.install(tilrma)
    try:
        assert "stft.analyze" in names
        assert stft.analyze is not original
        assert tilrma.analyze is stft.analyze and cli.analyze is stft.analyze
        signal = np.random.default_rng(0).standard_normal(4096)
        tracer.span("op", lambda: tilrma.analyze(signal, stft.StftConfig(16000.0, 64.0, 16.0)))
    finally:
        tracer.uninstall()
    assert stft.analyze is original and tilrma.analyze is original and cli.analyze is original
    recorded = tracer.drain()
    # analyze calls the public default_frame_count, which nests under it
    assert [span[0] for span in recorded] == ["op", "stft.analyze", "stft.default_frame_count"]
    assert [span[3] for span in recorded] == [-1, 0, 1]


# -- benchmark description ---------------------------------------------------

def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert list(layer) == run.per_layer_names()
    for name, unit in layer.items():
        assert unit == run.UNITS[name.rsplit(".", 1)[1]]
