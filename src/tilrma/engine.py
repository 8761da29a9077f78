"""End-to-end separation: initialization, the iteration loop, cost tracking,
the optional Gaussian-then-heavy-tailed schedule, and final back-projection.

``separate`` is the one entry point.  The Gaussian model is the t model at
nu=inf, so both stages of a schedule run the same updates; only the cost
keeps a Gaussian form, because its t form is inf * 0 there.

One iteration runs, in order: demixing-row updates for every source, each
across all frequency bins at once, power refresh, then per source a basis
update, scale refresh, activation update, scale refresh, unit-power
rescaling and cost term.  Each piece is a majorization-minimization step
conditioned on a freshly touched surrogate, so the cost recorded after every
iteration never increases within a stage.  All of it sees y = W x only
through the real power |y|^2 that the run state carries; y exists only in
the power refresh and the back-projection.  The result holds y and column n
of every W_i^-1 for each source, and builds one source's image when asked,
so a caller that writes the sources in turn holds one image at a time.

Work that is independent across sources or bins runs on a thread pool with
one thread per CPU the process may use, at most MAX_WORKERS (numpy releases
the interpreter lock inside its array loops and BLAS calls).  The sweep's
weighted covariances run a source and a block of bins per task (the row
solves that use them stay sequential), the power refresh a block of bins
per task, and the source step, the domain refit and the head residual one
task per source.  Each thread owns two work planes of (bins, frames) reals
and lends them to every task it runs.  Every task does the same arithmetic
in the same order as a serial run and writes only its own slice of the run
state and its thread's planes, so the output is byte-identical for any
thread count.  With one CPU the calling thread runs every task itself.

A run holds, per bin and frame, the observation (16M bytes at M sources),
its outer products (8M^2), the power and the scales (16M) and the work
planes (16 per worker).  Before it allocates any of it, ``separate`` checks
what it allocates, all but the caller's observation, against the memory the
process may still use.
"""

import itertools
import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import asdict, dataclass, field

import numpy as np

from . import demix
from .errors import SingularMatrixError, TilrmaError
from .source_model import (
    convert_domain,
    init_factors,
    recompute_scale,
    sigma_squared,
    update_factors,
)
from .stft import ComplexSpectrogram, StftConfig

# Relative eigenvalue below which the channel Gram counts as rank-deficient.
RANK_TOLERANCE = 1e-12

# Most workers a run uses, the calling thread included: the largest count at
# which separation time and peak memory have been measured.
MAX_WORKERS = 2

# Bin-frame slots per block of the channel check's Gram.
RANK_BLOCK = 1 << 16

# Read, never written, for the memory the process may still use: the kernel's
# estimate of memory available without swapping, and the cgroup v2 limit, use
# and the page cache within that use.
MEMINFO = "/proc/meminfo"
CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"
CGROUP_MEMORY_CURRENT = "/sys/fs/cgroup/memory.current"
CGROUP_MEMORY_STAT = "/sys/fs/cgroup/memory.stat"


@dataclass(frozen=True)
class HyperParams:
    """Everything that determines a run besides the observation itself.

    With ``gaussian_iters`` at 0 the run is one stage under (nu, p).  Above
    0, the run first takes that many iterations of the Gaussian model, then
    converts the factors to p, refits them by ``refit_iters`` rounds and
    goes on under (nu, p).  The late stage starts from factors pretrained
    on the early stage's output, which keeps heavy-tailed settings away
    from the poor local optima they tend to find from scratch.
    """

    nu: float
    p: float
    num_bases: int
    iterations: int = 200
    gaussian_iters: int = 0
    refit_iters: int = 10
    seed: int = 0

    def __post_init__(self):
        for name, least in (("num_bases", 1), ("iterations", 0), ("gaussian_iters", 0),
                            ("refit_iters", 0), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")
            object.__setattr__(self, name, int(value))  # numpy integers as plain ints
        if not self.nu > 0:
            raise ValueError("nu must be positive (inf selects the Gaussian model)")
        if not 1.0 <= self.p <= 2.0:
            raise ValueError("p must lie in [1, 2]")
        if math.isinf(self.nu) and self.p != 2.0:
            raise ValueError("the Gaussian model (nu=inf) is only defined for p=2")
        if self.gaussian_iters and not 0 < self.gaussian_iters < self.iterations:
            raise ValueError("gaussian_iters must be 0 (one stage) or lie strictly inside "
                             f"the run length, got {self.gaussian_iters} of {self.iterations}")

    def to_json(self):
        """The fields as a JSON-ready dict, with ``inf`` spelled as a string;
        ``HyperParams(**{**h, "nu": float(h["nu"])})`` rebuilds them."""
        return {**asdict(self), "nu": "inf" if math.isinf(self.nu) else self.nu}


@dataclass
class RunState:
    """Mutable state owned by the engine during a run.

    Each per-source quantity is one array with the source axis first.  The
    domain exponent p is not stored: each stage passes its own to every phase.
    """

    obs: np.ndarray        # (bins, frames, channels)
    stats: np.ndarray      # (bins, frames, M^2), real; demix.outer_products(obs)
    demixing: np.ndarray   # (bins, sources, sources); row n of W_i is w_n^H
    power: np.ndarray      # (sources, bins, frames), |y|^2 with y_ij = W_i x_ij
    basis: np.ndarray      # (sources, bins, bases), T of every source
    activation: np.ndarray  # (sources, bases, frames), V of every source
    sigma_p: np.ndarray    # (sources, bins, frames), floored T @ V, rescaled since
    # (workers, 2, bins, frames): two work planes per thread, lent to every
    # pooled task it runs; a pair holds one complex value per bin and frame,
    # which the power refresh fills with y a block of bins at a time
    work: np.ndarray
    pool: ThreadPoolExecutor | None = None  # helper threads; unused at one worker
    cost_trace: list = field(default_factory=list)
    events: list = field(default_factory=list)


@dataclass
class SeparationResult:
    """The demixed signals, the back-projection columns and everything needed
    to reproduce the run.

    ``image(n)`` builds source n's multichannel image on demand, so a caller
    that handles the sources in turn holds one image at a time.  The images
    sum to the observation.
    """

    demixed: np.ndarray    # (bins, frames, sources), y_ij = W_i x_ij
    mixing: list           # per source n, column n of every W_i^-1, (bins, channels)
    demixing: np.ndarray   # (bins, sources, sources)
    cost_trace: np.ndarray
    metadata: dict
    config: StftConfig     # of the observation, for its images
    num_samples: int

    @property
    def num_sources(self):
        return self.demixed.shape[2]

    def image(self, n):
        """Source n back-projected to every channel, as a ``ComplexSpectrogram``."""
        return ComplexSpectrogram(demix.back_project(self.demixed, self.mixing[n], n),
                                  self.config, self.num_samples)


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


def _determinant_term(demixing, num_frames):
    return -2.0 * num_frames * float(np.sum(log_abs_det(demixing)))


def _source_cost(power, sigma_p, nu, p, scratch):
    """Data term of one source, summed over its bins and frames.

    Gaussian (nu=inf, p=2): sum(log r + |y|^2 / r).  Otherwise:
    sum((1 + nu/2) log(1 + (2/nu) |y|^2 / sigma^2) + (2/p) log sigma^p).
    With ``_determinant_term`` added over the sources, this is the negative
    log-likelihood with additive constants dropped.  It is formed in the two
    (bins, frames) planes of ``scratch``, in the order the formulas spell out.
    """
    a, b = scratch
    if math.isinf(nu):
        # log r + |y|^2 / r
        np.log(sigma_p, out=a)
        a += np.divide(power, sigma_p, out=b)
        return float(np.sum(a))
    # (1 + nu/2) log(1 + (2/nu) |y|^2 / sigma^2) + (2/p) log sigma^p
    sig_sq = sigma_squared(sigma_p, p, out=a)
    np.multiply(2.0 / nu, power, out=b)
    b /= sig_sq
    np.log1p(b, out=b)
    b *= 1.0 + nu / 2.0
    np.log(sigma_p, out=a)
    a *= 2.0 / p
    b += a
    return float(np.sum(b))


def _worker_count():
    """Workers of a run, the calling thread included: the CPUs in this process's
    affinity mask (all CPUs where the platform has none), at most MAX_WORKERS."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # macOS and Windows
        cpus = os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


def _run(state, task, items):
    """``[task(item, planes) for item in items]``, shared by the calling thread and the pool.

    Each thread claims the next unclaimed item until none is left, so a
    thread that is slow to wake or to run leaves its share to the others.
    ``planes`` is the running thread's pair of work planes: ``state.work[0]``
    for the calling thread, the next pair for each pool thread.  Every task
    finishes before the first failure, in item order, is raised, so no task
    still writes into the run state when the caller sees it.
    """
    items = list(items)
    outcomes = [None] * len(items)
    claims = itertools.count()  # next() runs under the interpreter lock: one claim per item

    def drain(planes):
        while (k := next(claims)) < len(items):
            try:
                outcomes[k] = task(items[k], planes), None
            except Exception as exc:  # raised below, in item order
                outcomes[k] = None, exc

    helpers = [state.pool.submit(drain, planes) for planes in state.work[1:]]
    drain(state.work[0])
    wait(helpers)
    for helper in helpers:
        helper.result()
    for _, exc in outcomes:
        if exc is not None:
            raise exc
    return [value for value, _ in outcomes]


def _sources(state):
    return range(len(state.basis))


def _bin_blocks(num_bins, parts):
    """``parts`` contiguous slices of the bins, of sizes within one of each other."""
    edges = [num_bins * k // parts for k in range(parts + 1)]
    return [slice(a, b) for a, b in zip(edges, edges[1:]) if b > a]


def _refresh_power(state):
    """Set ``state.power`` to |W_i x_ij|^2, a block of bins per task.

    A pair of work planes holds bins x frames complex values, so each task
    forms y of at most bins // M bins in its thread's planes, then squares
    its magnitude into each source's contiguous slice of ``state.power``
    (squaring in place through a strided view would copy it), and the
    refresh allocates nothing.  The blocks come in a multiple of the worker
    count, which keeps the threads evenly loaded.  Each bin's product is the
    same for any split of the bins.
    """
    num_bins, _, m = state.obs.shape
    fitting = -(-num_bins // max(num_bins // m, 1))  # fewest blocks the planes hold
    parts = -(-fitting // len(state.work)) * len(state.work)

    def refresh(bins, planes):
        obs = state.obs[bins]
        held = planes.reshape(-1).view(np.complex128)
        # fewer bins than sources: a one-bin block does not fit, and matmul allocates
        y = held[:obs.size].reshape(obs.shape) if obs.size <= held.size else None
        y = np.matmul(obs, state.demixing[bins].transpose(0, 2, 1), out=y)
        for n, power in enumerate(state.power[:, bins]):
            np.absolute(y[:, :, n], out=power)
            np.square(power, out=power)

    _run(state, refresh, _bin_blocks(num_bins, parts))


def _covariance(state, n, nu, p, planes, bins=slice(None)):
    """Weighted covariances of source n in the given bins, (bins, M, M), formed
    in the given pair of work planes."""
    work = planes[:, bins]
    sig_sq = sigma_squared(state.sigma_p[n, bins], p, out=work[0])
    return demix.weighted_covariance(state.stats[bins], state.power[n, bins], sig_sq, nu,
                                     scratch=work[1])


def _ip_sweep(state, nu, p, iteration):
    """Update rows n = 0..M-1 of W in turn, each across all bins at once.

    Bins are independent, so every bin sees the same sequence of row
    updates as a sweep over that bin alone.  Source n's covariances depend
    on |y_n|^2 and its scale, which the sweep does not change, so all of
    them are formed up front, on the pool: a source and a block of bins
    per task, which keeps the threads evenly loaded when the sources do
    not divide among them.
    """
    covs = np.empty((len(state.basis),) + state.demixing.shape, dtype=np.complex128)

    def covariance(task, planes):
        n, bins = task
        covs[n, bins] = _covariance(state, n, nu, p, planes, bins)

    blocks = _bin_blocks(state.obs.shape[0], len(state.work))
    _run(state, covariance, [(n, bins) for n in _sources(state) for bins in blocks])
    for n, cov in enumerate(covs):
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


def _source_step(state, nu, p):
    """One NMF step, rescaling and cost term per source; returns the cost,
    the determinant term plus each source's term in source order."""

    def step(n, planes):
        update_factors(state.basis[n], state.activation[n], state.power[n], state.sigma_p[n],
                       p, nu, planes)
        demix.normalize(state.demixing, state.power, state.sigma_p, state.basis, p, n)
        return _source_cost(state.power[n], state.sigma_p[n], nu, p, planes)

    terms = _run(state, step, _sources(state))
    total = _determinant_term(state.demixing, state.power.shape[2])
    for term in terms:
        total += term
    return total


def _switch_domain(state, p, new_p, refit_iters):
    """Convert every source's scale model from exponent p to new_p, refitting its factors."""

    def refit(n, planes):
        convert_domain(state.basis[n], state.activation[n], state.sigma_p[n], p, new_p,
                       refit_iters, planes)

    _run(state, refit, _sources(state))


def _iterate(state, nu, p, iterations, start_iteration=0):
    for k in range(iterations):
        try:
            _ip_sweep(state, nu, p, start_iteration + k)
            _refresh_power(state)
            state.cost_trace.append(_source_step(state, nu, p))
        except TilrmaError as exc:
            raise type(exc)(f"iteration {start_iteration + k}: {exc}") from exc


def _init_state(spec, hp, p, pool=None, workers=1):
    num_bins, num_frames, num_sources = spec.values.shape
    demixing = np.tile(np.eye(num_sources, dtype=np.complex128), (num_bins, 1, 1))
    basis, activation = init_factors(num_sources, num_bins, num_frames, hp.num_bases, hp.seed)
    state = RunState(
        obs=spec.values,
        stats=demix.outer_products(spec.values),
        demixing=demixing,
        power=np.empty((num_sources, num_bins, num_frames)),
        basis=basis,
        activation=activation,
        sigma_p=recompute_scale(basis, activation, p),
        work=np.empty((workers, 2, num_bins, num_frames)),
        pool=pool,
    )
    _refresh_power(state)
    return state


def _check_channel_rank(values):
    """Reject channels that are silent or copies of one another, in the
    C-contiguous complex128 ``values`` of a ``ComplexSpectrogram``.

    The M x M channel Gram is summed over blocks of bins, each scaled by the
    power of two that brings the largest real or imaginary part into
    [0.5, 1).  That scaling is exact, so no input level overflows or
    underflows the Gram, and no copy is larger than a block.  When its
    smallest eigenvalue is at most RANK_TOLERANCE times the largest, W is
    singular in every bin; the message names the silent channels, or else
    those in the null direction.
    """
    num_bins, num_frames, m = values.shape
    parts = values.view(np.float64)
    _, exponent = math.frexp(max(np.max(parts), -np.min(parts)))
    step = max(RANK_BLOCK // num_frames, 1)
    gram = np.zeros((m, m), dtype=np.complex128)
    for start in range(0, num_bins, step):
        block = np.ldexp(parts[start:start + step], -exponent).view(np.complex128)
        block = block.reshape(-1, m)
        gram += block.T @ block.conj()
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


def _read_text(path):
    """The text of a file, or None where it cannot be read."""
    try:
        with open(path, encoding="ascii") as handle:
            return handle.read()
    except (OSError, ValueError):
        return None


def _memory_limit():
    """Bytes the process may still allocate, or None where the platform does not say.

    The smaller of ``MemAvailable`` in MEMINFO and the cgroup's
    CGROUP_MEMORY_MAX less what it holds: CGROUP_MEMORY_CURRENT less the page
    cache, ``active_file`` and ``inactive_file`` in CGROUP_MEMORY_STAT, which
    the kernel reclaims under pressure and ``MemAvailable`` counts as
    available (shared memory is on neither list).  The limit is taken whole
    where either file cannot be read; a file that is absent or unreadable,
    and a limit of ``max``, set no bound.
    """
    limits = []
    for line in (_read_text(MEMINFO) or "").splitlines():
        if line.startswith("MemAvailable:"):  # "MemAvailable:  7771384 kB"
            limits.append(int(line.split()[1]) * 1024)
    cap = (_read_text(CGROUP_MEMORY_MAX) or "max").strip()
    if cap.isdigit():
        stat = [line.split() for line in (_read_text(CGROUP_MEMORY_STAT) or "").splitlines()]
        cache = [int(value) for key, value in stat if key in ("active_file", "inactive_file")]
        used = (_read_text(CGROUP_MEMORY_CURRENT) or "").strip()
        held = int(used) - sum(cache) if used.isdigit() and len(cache) == 2 else 0
        limits.append(max(int(cap) - max(held, 0), 0))
    return min(limits, default=None)


def _run_bytes_per_slot(num_sources, workers):
    """Bytes per bin and frame that a run allocates: the outer products, the
    power and the scales, and two work planes per worker, but not the caller's
    observation.  The output stage allocates less: once the rest is released,
    y and one image take 32M bytes per slot, below 8M^2 + 16M + 16 for any M.
    """
    m = num_sources
    return 8 * m * m + 16 * m + 16 * workers


def _check_memory(spec, workers):
    """Raise ``TilrmaError`` when the run cannot fit in the memory the process may still use."""
    limit = _memory_limit()
    if limit is None:
        return
    per_slot = _run_bytes_per_slot(spec.num_streams, workers)
    needed = per_slot * spec.num_bins * spec.num_frames
    if needed <= limit:
        return
    frames = limit // (per_slot * spec.num_bins)
    seconds = frames * spec.config.shift_samples / spec.config.sample_rate_hz
    raise TilrmaError(
        f"separation needs {needed} bytes ({per_slot} per bin and frame over "
        f"{spec.num_bins} bins and {spec.num_frames} frames) but {limit} are available; "
        f"about {seconds:.1f} s of input fit at this window, shift and channel count"
    )


def _finalize(state, spec, hp, started):
    # the covariances, the power, the scales, the outer products and the work
    # planes are all released before y exists, and the observation once it does
    def residual(n, planes):
        return demix.head_residual(state.demixing,
                                   _covariance(state, n, hp.nu, hp.p, planes), n)

    head_residual = max(_run(state, residual, _sources(state)))
    workers = len(state.work)
    state.power = state.stats = state.sigma_p = state.work = None
    y = state.obs @ state.demixing.transpose(0, 2, 1)  # y_ij = W_i x_ij, (bins, frames, sources)
    state.obs = None
    # solved for every source before any image exists, so a singular W
    # raises before the caller writes anything
    mixing = [demix.mixing_column(state.demixing, n) for n in _sources(state)]
    metadata = {
        **hp.to_json(),
        "stage_boundary": hp.gaussian_iters or None,
        "events": list(state.events),
        "head_residual": head_residual,
        "workers": workers,
        "elapsed_seconds": time.perf_counter() - started,
    }
    return SeparationResult(
        demixed=y,
        mixing=mixing,
        demixing=state.demixing,
        cost_trace=np.asarray(state.cost_trace),
        metadata=metadata,
        config=spec.config,
        num_samples=spec.num_samples,
    )


def separate(spec, hp):
    """Separate a determined multichannel spectrogram.

    With ``hp.gaussian_iters`` at 0 the run is one stage of
    ``hp.iterations`` iterations under (hp.nu, hp.p).  Above 0, stage one
    runs that many iterations of the Gaussian model (nu=inf, p=2); the
    factors are then converted to hp.p and refit, and stage two continues
    with (hp.nu, hp.p) for the remaining iterations.
    The cost trace covers both stages; the objective changes at the
    boundary, which the metadata reports, so each stage is monotone only
    on its own.

    Parameters
    ----------
    spec: ComplexSpectrogram
        Observation with as many streams as sources to extract, at least two.
    hp: HyperParams

    Returns
    -------
    SeparationResult

    Raises
    ------
    TilrmaError
        If there is one stream, a channel is silent or a linear combination
        of the others, or the run needs more memory than the process may use.
    """
    started = time.perf_counter()
    if spec.num_streams < 2:
        raise TilrmaError("separation needs at least two channels")
    workers = _worker_count()
    _check_memory(spec, workers)
    _check_channel_rank(spec.values)
    boundary = hp.gaussian_iters
    # the calling thread is one of the workers; leaving the block joins the
    # others, however the run ends.  At one worker nothing is submitted, so
    # the executor starts no thread.
    with ThreadPoolExecutor(max(workers - 1, 1), thread_name_prefix="tilrma") as pool:
        state = _init_state(spec, hp, 2.0 if boundary else hp.p, pool=pool, workers=workers)
        if boundary:
            _iterate(state, math.inf, 2.0, boundary)
            _switch_domain(state, 2.0, hp.p, hp.refit_iters)
            state.events.append({"kind": "stage_boundary", "iteration": boundary})
        _iterate(state, hp.nu, hp.p, hp.iterations - boundary, start_iteration=boundary)
        return _finalize(state, spec, hp, started)
