"""Benchmark of ``tilrma separate`` and its evaluation on seeded mixtures.

    python3 bench/run.py --workload paper-music --seed 1 --seconds 55 --trace 0

Run from the repository root.  Each round separates one seeded mixture
through ``tilrma.cli.main`` (one *separate* operation), then scores the
written outputs with ``metrics.align_permutation`` (one *evaluate*
operation), and checks both against the benchmark's own code.  Rounds
repeat until the next one would overrun ``--seconds``.  The last line of
standard output is a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics of a traced run with ``--trace 1``.  See README.md next to this
file for the workloads, metrics and reference figures.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

# One BLAS thread, set before numpy loads: with OpenBLAS's default of two on
# a two-core host, some processes have been seen to run every BLAS call many
# times slower for their whole life (README.md, "BLAS threads").
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

import checks  # noqa: E402
import mixture  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TAPS = 512
SETUP_FIRST = 3
ENGINE_SEED = "0"


@dataclass(frozen=True)
class Workload:
    """Input shape and ``tilrma separate`` flags of one workload."""

    channels: int
    duration_s: float
    window_ms: int
    shift_ms: int
    iterations: int
    model_flags: tuple

    def cli_args(self, wav, out_dir):
        return ["separate", str(wav), "--window-ms", str(self.window_ms),
                "--shift-ms", str(self.shift_ms), "--iters", str(self.iterations),
                "--seed", ENGINE_SEED, *self.model_flags, "--out", str(out_dir)]

    @property
    def margin(self):
        """Samples at either end left out of the completeness check: one window."""
        return self.window_ms * mixture.SAMPLE_RATE // 1000


WORKLOADS = {
    # 4097 bins x 81 frames, M=2: Gaussian stage, domain switch, t stage
    "paper-music": Workload(2, 10.0, 512, 128, 8, (
        "--preset", "music", "--two-stage", "--stage1-iters", "4", "--refit-iters", "10",
        "--nu", "10", "--p", "1")),
    # 513 bins x 627 frames, M=3 (3! permutations in evaluation)
    "speech-3src": Workload(3, 10.0, 64, 16, 20, (
        "--preset", "speech", "--nu", "10", "--p", "1")),
}

END_TO_END = {"setup_s": "s", "separate_s": "s", "evaluate_s": "s",
              "sdr_gain_db": "dB", "peak_rss_mb": "MB"}

_ALL = ("s", "self_s", "calls")
# traced function -> fields reported per round
LAYER_FUNCTIONS = {
    "cli.main": ("s",),
    "demix.weighted_covariance": _ALL,
    "demix.ip_update": _ALL,
    "demix.ridge_covariance": ("calls",),
    "linalg.solve_column": _ALL,
    "engine.cost": _ALL,
    "linalg.log_abs_det": _ALL,
    "demix.back_project": _ALL,
    "linalg.invert": _ALL,
    "demix.head_residual": _ALL,
    "source_model.update_bases": _ALL,
    "source_model.update_activations": _ALL,
    "source_model.recompute_scale": _ALL,
    "source_model.convert_domain": _ALL,
    "demix.normalize": _ALL,
    "stft.analyze": _ALL,
    "stft.synthesize": _ALL,
    "wavio.read_wav": _ALL,
    "wavio.write_wav": _ALL,
    "metrics.sdr_projection": _ALL,
    "metrics.align_permutation": ("self_s",),
}
# module -> functions whose self time is reported under their own name instead
MODULE_SELF = {"engine": ("engine.cost", "engine.cost_value"), "cli": ()}
UNITS = {"s": "s", "self_s": "s", "calls": "count"}


def per_layer_names():
    names = [f"{fn}.{field}" for fn, fields in LAYER_FUNCTIONS.items() for field in fields]
    return names + [f"{module}.self_s" for module in MODULE_SELF]


def load_program():
    """Import ``tilrma`` from this checkout's ``src``, and nowhere else."""
    if not (SRC / "tilrma" / "__init__.py").is_file():
        sys.exit(f"error: no tilrma package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tilrma
    from tilrma import cli, metrics

    if Path(tilrma.__file__).resolve().parent != SRC / "tilrma":
        sys.exit(f"error: imported tilrma from {tilrma.__file__}, not from {SRC}")
    return tilrma, cli, metrics


def time_import():
    """Seconds for ``import tilrma`` in a fresh interpreter (numpy included)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import tilrma; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


class Setup:
    """Timed set-up: ``import tilrma`` in a fresh interpreter, then input preparation.

    It runs SETUP_FIRST times before the first round and once after each
    round, so its samples spread over the run; ``seconds`` is the median
    import time plus the median preparation time.
    """

    def __init__(self, workload, seed, work):
        self.workload, self.seed = workload, seed
        self.wav = work / "mixture.wav"
        self.imports, self.prepares = [], []
        self.mix = None
        self.repeatable = True  # every preparation gave the same samples

    def sample(self):
        self.imports.append(time_import())
        start = time.perf_counter()
        mix = mixture.make_mixture(self.seed, self.workload.channels, self.workload.duration_s)
        mixture.write_float32_wav(self.wav, mix.samples, mix.rate)
        self.prepares.append(time.perf_counter() - start)
        if self.mix is None:
            self.mix = mix
        self.repeatable &= np.array_equal(mix.samples, self.mix.samples)

    @property
    def seconds(self):
        return statistics.median(self.imports) + statistics.median(self.prepares)


def read_outputs(out_dir):
    report = json.loads((out_dir / "result.json").read_text())
    outputs = [mixture.read_float_wav(path)[0] for path in report["sources"]]
    return report, outputs


def check_separation(workload, mix, report, outputs):
    ref = mixture.REFERENCE_CHANNEL
    problems = checks.check_shapes(outputs, workload.channels, mix.samples.shape[0],
                                   workload.channels)
    if not problems:
        problems += checks.check_completeness(outputs, mix.samples, workload.margin)
    problems += checks.check_cost_trace(report["cost_trace"], report["stage_boundary"],
                                        workload.iterations)
    return problems, [out[:, ref] for out in outputs] if not problems else None


class Round:
    """One separate and one evaluate operation with their checks.

    ``wrong`` counts operations whose output a check rejected; an operation
    the program reported as failed is not counted there.
    """

    def __init__(self, workload, mix, wav, cli, metrics, tracer):
        self.workload, self.mix, self.wav = workload, mix, wav
        self.cli, self.metrics, self.tracer = cli, metrics, tracer
        self.wrong = 0

    def _reject(self, operation, problems):
        for problem in problems:
            print(f"{operation} check failed: {problem}", file=sys.stderr)
        self.wrong += bool(problems)

    def _call(self, name, function, *args, **kwargs):
        if self.tracer is None:
            return function(*args, **kwargs)
        return self.tracer.span(name, function, *args, **kwargs)

    def separate(self, out_dir):
        """Returns (seconds, estimates at the reference channel or None)."""
        args = self.workload.cli_args(self.wav, out_dir)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = self._call("bench.separate", lambda: self.cli.main(args))
        except Exception:  # the program failed; count it and keep measuring
            traceback.print_exc()
            return time.perf_counter() - start, None
        elapsed = time.perf_counter() - start
        if code != 0:
            print(f"separate exited {code}", file=sys.stderr)
            return elapsed, None
        try:
            report, outputs = read_outputs(out_dir)
        except (OSError, ValueError, KeyError) as exc:
            self._reject("separate", [f"outputs unreadable: {exc}"])
            return elapsed, None
        problems, estimates = check_separation(self.workload, self.mix, report, outputs)
        self._reject("separate", problems)
        return elapsed, estimates

    def evaluate(self, estimates):
        """Returns (seconds, independent SDR gain or None on failure)."""
        refs = list(self.mix.references)
        mix_ref = self.mix.samples[:, mixture.REFERENCE_CHANNEL]
        start = time.perf_counter()
        try:
            report = self._call("bench.evaluate", lambda: self.metrics.align_permutation(
                refs, estimates, taps=TAPS, mixture=mix_ref))
        except Exception:  # the program failed; count it and keep measuring
            traceback.print_exc()
            return time.perf_counter() - start, None
        elapsed = time.perf_counter() - start
        scores = checks.projection_sdr(refs, estimates, TAPS)
        baseline = checks.projection_sdr(refs, [mix_ref], TAPS)[:, 0]
        problems = checks.check_evaluation(report, scores, baseline)
        self._reject("evaluate", problems)
        if problems:
            return elapsed, None
        return elapsed, checks.sdr_gain(scores, baseline, checks.best_permutation(scores))


def layer_metrics(totals, rounds, present):
    """Per-round per-layer values from span totals {name: [s, self_s, calls]}."""
    out = {}
    field_index = {"s": 0, "self_s": 1, "calls": 2}
    for fn, fields in LAYER_FUNCTIONS.items():
        for field in fields:
            value = totals.get(fn, [0.0, 0.0, 0])[field_index[field]] / rounds
            out[f"{fn}.{field}"] = {"value": value, "unit": UNITS[field]}
    for module, excluded in MODULE_SELF.items():
        value = sum(entry[1] for name, entry in totals.items()
                    if name.startswith(module + ".") and name not in excluded)
        out[f"{module}.self_s"] = {"value": value / rounds, "unit": "s"}
    absent = sorted(fn for fn in LAYER_FUNCTIONS if fn not in present)
    return out, absent


def accumulate(tracer, totals):
    """Fold one operation's spans into ``totals``; False if self times miss its wall time."""
    recorded = tracer.drain()
    root = recorded[0]
    op_totals = spans.self_times(recorded)
    self_sum = sum(entry[1] for entry in op_totals.values())
    wall = root[2] - root[1]
    for name, entry in op_totals.items():
        into = totals.setdefault(name, [0.0, 0.0, 0])
        for k in range(3):
            into[k] += entry[k]
    return abs(self_sum - wall) <= 1e-6 * wall + 1e-6


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tilrma, cli, metrics = load_program()
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = Setup(workload, args.seed, work)
        for _ in range(SETUP_FIRST):
            setup.sample()
        accounted = True
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            present = tracer.install(tilrma)
        job = Round(workload, setup.mix, setup.wav, cli, metrics, tracer)

        separate_s, evaluate_s, gains, totals = [], [], [], {}
        attempted = failed = rounds = 0
        started, longest = time.perf_counter(), 0.0
        while rounds == 0 or time.perf_counter() - started + longest <= args.seconds:
            round_start = time.perf_counter()
            out_dir = work / "out"
            shutil.rmtree(out_dir, ignore_errors=True)
            elapsed, estimates = job.separate(out_dir)
            attempted += 2
            separate_s.append(elapsed)
            if tracer is not None:
                accounted &= accumulate(tracer, totals)
            if estimates is None:
                failed += 2
            else:
                elapsed, gain = job.evaluate(estimates)
                evaluate_s.append(elapsed)
                if tracer is not None:
                    accounted &= accumulate(tracer, totals)
                if gain is None:
                    failed += 1
                else:
                    gains.append(gain)
            setup.sample()
            rounds += 1
            longest = max(longest, time.perf_counter() - round_start)
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(f"# workload={args.workload} seed={args.seed} rounds={rounds} "
          f"blas_threads={BLAS_THREADS} numpy={np.__version__} trace={args.trace} "
          f"separate_s={[round(t, 3) for t in separate_s]} "
          f"evaluate_s={[round(t, 3) for t in evaluate_s]}")
    if args.trace:
        values, absent = layer_metrics(totals, rounds, present)
        if absent:
            print(f"# absent from the program (reported as 0): {' '.join(absent)}")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        medians = {
            "setup_s": setup.seconds,
            "separate_s": statistics.median(separate_s),
            "evaluate_s": statistics.median(evaluate_s) if evaluate_s else 0.0,
            "sdr_gain_db": statistics.median(gains) if gains else 0.0,
            "peak_rss_mb": peak_mb,
        }
        values = {name: {"value": medians[name], "unit": unit}
                  for name, unit in END_TO_END.items()}
    if not accounted:
        print("# traced self times do not sum to an operation's wall time", file=sys.stderr)
    correct = setup.repeatable and accounted and job.wrong == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
