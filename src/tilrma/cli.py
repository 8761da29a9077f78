"""Command-line interface: ``tilrma separate``, which separates a multichannel
WAV file and, given references, scores the result.

Defaults mirror the reference experimental protocol: 512 ms Hamming window
with a 128 ms shift, 200 iterations, basis counts of five (music) or two
(speech) behind ``--preset``, and 100 Gaussian iterations behind
``--two-stage``.
"""

import argparse
import json
import logging
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import engine, metrics, wavio
from .engine import HyperParams
from .errors import TilrmaError
from .stft import StftConfig, analyze, synthesize

RESULT_SCHEMA_VERSION = 2

PRESET_BASES = {"music": 5, "speech": 2}

# Gaussian iterations of --two-stage, as in the reference protocol
STAGE1_ITERS = 100

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tilrma",
        description="Determined blind source separation with a heavy-tailed "
        "low-rank source model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sep = sub.add_parser("separate", help="separate a multichannel WAV file")
    sep.add_argument("input", help="multichannel WAV file (as many channels as sources)")
    sep.add_argument("--nu", type=float, default=math.inf,
                     help="degrees of freedom; 'inf' selects the Gaussian model")
    sep.add_argument("--p", type=float, default=2.0, help="NMF domain exponent in [1, 2]")
    sep.add_argument("--bases", type=int, default=None,
                     help="NMF bases per source (overrides --preset)")
    sep.add_argument("--preset", choices=sorted(PRESET_BASES), default="speech",
                     help="basis-count preset (music: 5, speech: 2)")
    sep.add_argument("--iters", type=int, default=200)
    sep.add_argument("--two-stage", action="store_true",
                     help="Gaussian warm-up before the configured model")
    sep.add_argument("--stage1-iters", type=int, default=None,
                     help=f"Gaussian-stage iterations; needs --two-stage (default {STAGE1_ITERS})")
    sep.add_argument("--refit-iters", type=int, default=None,
                     help="NMF refit rounds at the switch; needs --two-stage (default 10)")
    sep.add_argument("--seed", type=int, default=0)
    sep.add_argument("--window-ms", type=float, default=512.0)
    sep.add_argument("--shift-ms", type=float, default=128.0)
    sep.add_argument("--refs", nargs="+", default=None,
                     help="per-source reference WAVs; enables SDR evaluation")
    sep.add_argument("--taps", type=int, default=512,
                     help="allowed-distortion filter length for SDR")
    sep.add_argument("--ref-channel", type=int, default=1,
                     help="1-based reference channel for evaluation")
    sep.add_argument("--out", default="tilrma-out")

    return parser


def _build_hyper(args):
    """The run's ``HyperParams``; raises ``ValueError`` for an invalid value."""
    stage1 = STAGE1_ITERS if args.stage1_iters is None else args.stage1_iters
    refit = {} if args.refit_iters is None else {"refit_iters": args.refit_iters}
    return HyperParams(
        nu=args.nu,
        p=args.p,
        num_bases=args.bases if args.bases is not None else PRESET_BASES[args.preset],
        iterations=args.iters,
        gaussian_iters=stage1 if args.two_stage else 0,
        **refit,
        seed=args.seed,
    )


def _environment():
    """numpy's version, its BLAS library and the BLAS thread settings: a run
    reproduces bitwise only where all three match."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas["name"], "version": blas["version"]}
    except (TypeError, KeyError):  # numpy before 1.26, or a build that names no BLAS
        blas = None
    return {
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARIABLES},
    }


def cmd_separate(args, hyper):
    samples, rate = wavio.read_wav(args.input)
    num_channels = samples.shape[1]
    ref_channel = args.ref_channel - 1
    if ref_channel >= num_channels:
        raise TilrmaError(f"reference channel {args.ref_channel} out of range")
    if not np.all(np.isfinite(samples)):
        raise TilrmaError("input samples must be finite")
    # evaluation inputs are checked before separating, so a bad one leaves no output
    refs = []
    if args.refs:
        if len(args.refs) != num_channels:
            raise TilrmaError("need exactly one reference per source")
        for path in args.refs:
            ref, ref_rate = wavio.read_wav(path)
            if ref_rate != rate:
                raise TilrmaError(
                    f"reference {path} is at {ref_rate:g} Hz, the input at {rate:g} Hz"
                )
            ref_channels = ref.shape[1]
            if ref_channels == 1:
                refs.append(ref[:, 0])  # a mono reference serves any channel
            elif ref_channel < ref_channels:
                refs.append(ref[:, ref_channel])
            else:
                raise TilrmaError(
                    f"reference {path} has {ref_channels} channels; --ref-channel "
                    f"{args.ref_channel} needs a mono reference or at least "
                    f"{args.ref_channel} channels"
                )
        length = min(min(len(r) for r in refs), samples.shape[0])
        refs = [r[:length] for r in refs]
        for path, ref in zip(args.refs, refs):
            metrics.check_reference(f"reference {path}", ref, args.taps)

    stft = StftConfig(rate, args.window_ms, args.shift_ms)

    started = time.perf_counter()
    spec = analyze(samples, stft)
    # of the input, only the reference channel's scored span is kept
    mixture = samples[:length, ref_channel].copy() if refs else None
    del samples
    result = engine.separate(spec, hyper)
    del spec  # the engine has formed y; the observation is not needed again
    # created only now, so an input the engine rejects leaves no directory behind
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    # one source at a time: its image, its signal and its file
    source_paths = []
    estimates = []
    for n in range(result.num_sources):
        signal = synthesize(result.image(n))
        path = out_dir / f"source_{n + 1}.wav"
        wavio.write_wav(path, signal, rate, "float32")
        source_paths.append(str(path))
        if refs:
            estimates.append(signal[:length, ref_channel].copy())
        del signal

    report = {
        "schema_version": RESULT_SCHEMA_VERSION,
        "input": str(args.input),
        "sample_rate_hz": rate,
        "num_channels": num_channels,
        "stft": {
            "window_ms": stft.window_length_ms,
            "shift_ms": stft.shift_ms,
            "window_samples": stft.window_samples,
            "shift_samples": stft.shift_samples,
        },
        "hyperparams": hyper.to_json(),
        "sources": source_paths,
        "cost_trace": [float(c) for c in result.cost_trace],
        "stage_boundary": result.metadata["stage_boundary"],
        "head_residual": result.metadata["head_residual"],
        "events": result.metadata["events"],
        "timings": {
            "engine_seconds": result.metadata["elapsed_seconds"],
            "workers": result.metadata["workers"],
            "total_seconds": time.perf_counter() - started,
        },
        "environment": _environment(),
    }

    if refs:
        eval_report = metrics.align_permutation(refs, estimates, taps=args.taps,
                                                mixture=mixture)
        report["evaluation"] = {
            "taps": args.taps,
            "reference_channel": args.ref_channel,
            "permutation": list(eval_report.permutation),
            "per_source_sdr_db": eval_report.per_source_sdr,
            "baseline_sdr_db": eval_report.baseline_sdr,
            "mean_improvement_db": eval_report.mean_improvement_db,
        }

    result_path = out_dir / "result.json"
    result_path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {len(source_paths)} sources and {result_path}")
    return 0


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    if not args.two_stage and (
            args.stage1_iters is not None or args.refit_iters is not None):
        parser.error("--stage1-iters and --refit-iters need --two-stage")
    floors = [("--taps", args.taps), ("--ref-channel", args.ref_channel)]
    if args.stage1_iters is not None:  # 0 would be a one-stage run
        floors.append(("--stage1-iters (gaussian_iters)", args.stage1_iters))
    for flag, value in floors:
        if value < 1:
            parser.error(f"{flag} must be at least 1, got {value}")
    try:
        StftConfig.check_durations(args.window_ms, args.shift_ms)
        hyper = _build_hyper(args)
    except ValueError as exc:  # checked before any input is read
        parser.error(str(exc))
    try:
        return cmd_separate(args, hyper)
    except (TilrmaError, OSError, ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
