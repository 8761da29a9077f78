"""End-to-end separation: initialization, the iteration loop, cost tracking,
the optional Gaussian-then-heavy-tailed schedule, and final back-projection.

``separate`` is the one entry point.  The Gaussian model is the t model at
nu=inf, so both stages of a schedule run the same updates; only the cost
keeps a Gaussian form, because its t form is inf * 0 there.

One iteration runs, in order: demixing-row updates for every source, each
across all frequency bins at once, power refresh, basis update, scale
refresh, activation update, scale refresh, unit-power rescaling.  Each piece
is a majorization-minimization step conditioned on a freshly touched
surrogate, so the cost recorded after every iteration never increases within
a stage.  All of it sees y = W x only through the real power |y|^2 that the
run state carries; y exists only in the power refresh and the back-projection.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import demix
from .errors import SingularMatrixError, TilrmaError
from .source_model import (
    NmfFactors,
    convert_domain,
    init_factors,
    recompute_scale,
    sigma_squared,
    update_activations,
    update_bases,
)
from .stft import ComplexSpectrogram

# Relative eigenvalue below which the channel Gram counts as rank-deficient.
RANK_TOLERANCE = 1e-12


@dataclass(frozen=True)
class TwoStageSchedule:
    """Run the Gaussian model first, then switch to the configured one.

    The late-stage model starts from factors pretrained on the early
    stage's output, which keeps heavy-tailed settings away from the poor
    local optima they tend to find from scratch.
    """

    gaussian_iters: int = 100
    refit_iters: int = 10


@dataclass(frozen=True)
class HyperParams:
    """Everything that determines a run besides the observation itself."""

    nu: float
    p: float
    num_bases: int
    iterations: int = 200
    schedule: TwoStageSchedule | None = None
    seed: int = 0

    def __post_init__(self):
        if not self.nu > 0:
            raise ValueError("nu must be positive (inf selects the Gaussian model)")
        if not 1.0 <= self.p <= 2.0:
            raise ValueError("p must lie in [1, 2]")
        if math.isinf(self.nu) and self.p != 2.0:
            raise ValueError("the Gaussian model (nu=inf) is only defined for p=2")
        if self.num_bases < 1:
            raise ValueError("num_bases must be at least 1")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        if self.schedule is not None:
            if not 0 < self.schedule.gaussian_iters < self.iterations:
                raise ValueError("gaussian_iters must lie strictly inside the run length")
            if self.schedule.refit_iters < 0:
                raise ValueError("refit_iters must be nonnegative")

    def to_json(self):
        """The hyperparameters as a JSON-ready dict, with ``inf`` spelled as a string."""
        return {
            "nu": "inf" if math.isinf(self.nu) else self.nu,
            "p": self.p,
            "num_bases": self.num_bases,
            "iterations": self.iterations,
            "seed": self.seed,
            "schedule": None
            if self.schedule is None
            else {
                "gaussian_iters": self.schedule.gaussian_iters,
                "refit_iters": self.schedule.refit_iters,
            },
        }


@dataclass
class RunState:
    """Mutable state owned by the engine during a run."""

    obs: np.ndarray        # (bins, frames, channels)
    stats: np.ndarray      # (bins, frames, M^2), real; demix.outer_products(obs)
    demixing: np.ndarray   # (bins, sources, sources); row n of W_i is w_n^H
    power: np.ndarray      # (sources, bins, frames), |y|^2 with y_ij = W_i x_ij
    factors: list          # per-source NmfFactors
    sigma_p: np.ndarray    # (sources, bins, frames)
    cost_trace: list = field(default_factory=list)
    events: list = field(default_factory=list)


@dataclass
class SeparationResult:
    """Back-projected images plus everything needed to reproduce the run."""

    images: list           # per-source ComplexSpectrogram, (bins, frames, channels)
    demixing: np.ndarray
    cost_trace: np.ndarray
    metadata: dict


def log_abs_det(demixing):
    """log|det W_i| of every bin, as a (bins,) array.

    Raises
    ------
    SingularMatrixError
        Naming the first bin whose determinant is zero or not finite,
        instead of returning -inf.
    """
    sign, logdet = np.linalg.slogdet(demixing)
    bad = (sign == 0) | ~np.isfinite(logdet)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise SingularMatrixError(f"bin {i}: demixing matrix is singular")
    return logdet


def cost_value(demixing, power, sigma_p, nu, p):
    """Negative log-likelihood with additive constants dropped.

    ``power`` holds |y|^2 of every source, (sources, bins, frames), like ``sigma_p``.
    Gaussian (nu=inf, p=2): sum(log r + |y|^2 / r) - 2J sum_i log|det W_i|.
    Otherwise: sum((1 + nu/2) log(1 + (2/nu) |y|^2 / sigma^2) + (2/p) log sigma^p)
    minus the same determinant term.
    """
    total = -2.0 * power.shape[2] * float(np.sum(log_abs_det(demixing)))
    for pw, sp in zip(power, sigma_p):
        if math.isinf(nu):
            total += float(np.sum(np.log(sp) + pw / sp))
        else:
            total += float(
                np.sum(
                    (1.0 + nu / 2.0) * np.log1p((2.0 / nu) * pw / sigma_squared(sp, p))
                    + (2.0 / p) * np.log(sp)
                )
            )
    return total


def cost(state, nu, p):
    """Cost of a run state (see ``cost_value``)."""
    return cost_value(state.demixing, state.power, state.sigma_p, nu, p)


def _demixed(state):
    """y_ij = W_i x_ij for every bin and frame, (bins, frames, sources)."""
    return state.obs @ state.demixing.transpose(0, 2, 1)


def _refresh_power(state):
    state.power[...] = np.moveaxis(np.abs(_demixed(state)) ** 2, 2, 0)


def _covariance(state, n, nu, p):
    """Weighted covariances of source n in every bin, (bins, M, M)."""
    return demix.weighted_covariance(
        state.stats, state.power[n], sigma_squared(state.sigma_p[n], p), nu
    )


def _ip_sweep(state, nu, p, iteration):
    """Update rows n = 0..M-1 of W in turn, each across all bins at once.

    Bins are independent, so every bin sees the same sequence of row
    updates as a sweep over that bin alone.
    """
    for n in range(state.demixing.shape[1]):
        cov = _covariance(state, n, nu, p)
        w, singular = demix.ip_update(state.demixing, cov, n)
        if singular.any():
            w[singular] = _ridge_retry(state, cov, n, np.flatnonzero(singular), iteration)
        state.demixing[:, n, :] = np.conj(w)


def _ridge_retry(state, cov, n, bins, iteration):
    """Row-n filters of the given bins from ridge-loaded covariances."""
    state.events.extend(
        {"kind": "ridge_recovery", "iteration": iteration, "bin": int(i), "source": n}
        for i in bins
    )
    w, singular = demix.ip_update(state.demixing[bins], demix.ridge_covariance(cov[bins]), n)
    if singular.any():
        i = int(bins[np.argmax(singular)])
        raise SingularMatrixError(
            f"bin {i}, source {n}: unrecoverable after ridge "
            "(singular system or collapsed quadratic form)"
        )
    return w


def _update_sources(state, nu):
    """Basis then activation update of every source, each followed by a scale refresh."""
    for n, factors in enumerate(state.factors):
        factors = update_bases(factors, state.power[n], state.sigma_p[n], nu)
        state.sigma_p[n] = recompute_scale(factors)
        factors = update_activations(factors, state.power[n], state.sigma_p[n], nu)
        state.sigma_p[n] = recompute_scale(factors)
        state.factors[n] = factors


def _iterate(state, nu, p, iterations, start_iteration=0):
    for k in range(iterations):
        try:
            _ip_sweep(state, nu, p, start_iteration + k)
            _refresh_power(state)
            _update_sources(state, nu)
            demix.normalize(state.demixing, state.power, state.sigma_p, state.factors)
            state.cost_trace.append(cost(state, nu, p))
        except TilrmaError as exc:
            raise type(exc)(f"iteration {start_iteration + k}: {exc}") from exc


def _init_state(spec, hp, p, initial_factors=None):
    values = np.ascontiguousarray(spec.values, dtype=np.complex128)
    num_bins, num_frames, num_sources = values.shape
    demixing = np.tile(np.eye(num_sources, dtype=np.complex128), (num_bins, 1, 1))
    if initial_factors is None:
        streams = np.random.SeedSequence(hp.seed).spawn(num_sources)
        factors = [
            init_factors(num_bins, num_frames, hp.num_bases, streams[n], p=p)
            for n in range(num_sources)
        ]
    else:
        _check_initial_factors(initial_factors, values.shape, hp.num_bases, p)
        factors = [
            NmfFactors(f.basis.copy(), f.activation.copy(), f.p) for f in initial_factors
        ]
    state = RunState(
        obs=values,
        stats=demix.outer_products(values),
        demixing=demixing,
        power=np.empty((num_sources, num_bins, num_frames)),
        factors=factors,
        sigma_p=np.stack([recompute_scale(f) for f in factors]),
    )
    _refresh_power(state)
    return state


def _check_channel_rank(values):
    """Reject channels that are silent or copies of one another.

    The M x M channel Gram is taken of the peak-normalized spectrogram, so no
    input level overflows or underflows it.  When its smallest eigenvalue is
    at most RANK_TOLERANCE times the largest, W is singular in every bin; the
    message names the silent channels, or else those in the null direction.
    """
    flat = values.reshape(-1, values.shape[2]) / (np.max(np.abs(values)) or 1.0)
    gram = flat.T @ flat.conj()
    eigvals, eigvecs = np.linalg.eigh(gram)
    if eigvals[0] > RANK_TOLERANCE * eigvals[-1]:
        return
    energy = np.real(np.diag(gram))
    silent = np.flatnonzero(energy <= RANK_TOLERANCE * np.max(energy)) + 1
    if silent.size:
        raise TilrmaError(
            f"silent channel(s) {', '.join(str(k) for k in silent)}: separation needs "
            "as many independent channels as sources; drop or replace the dead channel"
        )
    null = np.abs(eigvecs[:, 0])
    involved = np.flatnonzero(null >= 0.1 * np.max(null)) + 1
    copy, others = involved[-1], involved[:-1]
    if not others.size:
        others = np.setdiff1d(np.arange(1, null.size + 1), copy)
    raise TilrmaError(
        f"channel {copy} duplicates channel(s) {', '.join(str(k) for k in others)} "
        "(it is a linear combination of them): separation needs as many "
        "independent channels as sources; drop or replace the duplicated channel"
    )


def _check_initial_factors(initial_factors, shape, num_bases, p):
    """Raise ValueError naming the source whose factors do not fit the run."""
    num_bins, num_frames, num_sources = shape
    if len(initial_factors) != num_sources:
        raise ValueError(
            f"need one initial NmfFactors per channel ({num_sources}), "
            f"got {len(initial_factors)}"
        )
    shapes = ((num_bins, num_bases), (num_bases, num_frames))
    for n, f in enumerate(initial_factors):
        if (f.basis.shape, f.activation.shape) != shapes:
            raise ValueError(
                f"initial factors of source {n}: basis {f.basis.shape} and activation "
                f"{f.activation.shape}, expected {shapes[0]} and {shapes[1]}"
            )
        if f.p != p:
            raise ValueError(
                f"initial factors of source {n}: p={f.p}, but the first stage runs p={p}"
            )


def _finalize(state, spec, hp, started, stage_boundary):
    # the covariances, the power, the scales and the outer products are all
    # released before the images exist
    head_residual = max(
        demix.head_residual(state.demixing, _covariance(state, n, hp.nu, hp.p), n)
        for n in range(len(state.factors))
    )
    state.power = state.stats = state.sigma_p = None
    y = _demixed(state)
    images = [
        ComplexSpectrogram(
            demix.back_project(state.demixing, y, n),
            spec.config,
            spec.num_samples,
        )
        for n in range(len(state.factors))
    ]
    metadata = {
        **hp.to_json(),
        "stage_boundary": stage_boundary,
        "events": list(state.events),
        "head_residual": head_residual,
        "elapsed_seconds": time.perf_counter() - started,
    }
    return SeparationResult(
        images=images,
        demixing=state.demixing,
        cost_trace=np.asarray(state.cost_trace),
        metadata=metadata,
    )


def separate(spec, hp, initial_factors=None):
    """Separate a determined multichannel spectrogram.

    Without ``hp.schedule`` the run is one stage of ``hp.iterations``
    iterations under (hp.nu, hp.p).  With it, stage one runs
    ``hp.schedule.gaussian_iters`` iterations of the Gaussian model
    (nu=inf, p=2); the factors are then converted to hp.p and refit, and
    stage two continues with (hp.nu, hp.p) for the remaining iterations.
    The cost trace covers both stages; the objective changes at the
    boundary, which the metadata reports, so each stage is monotone only
    on its own.

    Parameters
    ----------
    spec: ComplexSpectrogram
        Observation with as many streams as sources to extract.
    hp: HyperParams
    initial_factors: list of NmfFactors, optional
        One per source, in place of the seeded random initialization of
        the first stage: basis (bins, hp.num_bases), activation
        (hp.num_bases, frames) and that stage's p.  The demixing matrices
        always start at identity.

    Returns
    -------
    SeparationResult

    Raises
    ------
    TilrmaError
        If a channel is silent or a linear combination of the others.
    ValueError
        If ``initial_factors`` does not fit the observation or the first stage.
    """
    started = time.perf_counter()
    _check_channel_rank(spec.values)
    sched = hp.schedule
    boundary = 0 if sched is None else sched.gaussian_iters
    state = _init_state(spec, hp, hp.p if sched is None else 2.0, initial_factors)
    if sched is not None:
        _iterate(state, math.inf, 2.0, boundary)
        for n, factors in enumerate(state.factors):
            converted, _ = convert_domain(
                factors, state.sigma_p[n], hp.p, refit_iters=sched.refit_iters
            )
            if converted is not factors:
                state.factors[n] = converted
                state.sigma_p[n] = recompute_scale(converted)
        state.events.append({"kind": "stage_boundary", "iteration": boundary})
    _iterate(state, hp.nu, hp.p, hp.iterations - boundary, start_iteration=boundary)
    return _finalize(state, spec, hp, started, stage_boundary=boundary or None)
