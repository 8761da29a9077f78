"""Synthetic scenes and numeric oracles for the optimization's provable
properties, for the test suite.

A scene is seeded low-rank sources mixed through one well-conditioned real
matrix shared by every bin, with the observation the exact product; the
acceptance suite and the engine tests separate such scenes.

The separation code substitutes all auxiliary variables analytically, so
nothing in the production path ever materializes them.  This module keeps
them observable: it evaluates the exact cost (``cost_value``, the engine's
per-iteration sum as a function of a state) together with its two
surrogate bounds (tangent-line and Jensen) at explicit auxiliary settings,
so the touch conditions and the dominance chain that underpin the
convergence guarantee can be checked numerically on random states, as
acceptance criterion 3 does.
"""
import math
from dataclasses import dataclass

import numpy as np

from tilrma.engine import _determinant_term, _source_cost
from tilrma.source_model import recompute_scale
from tilrma.stft import ComplexSpectrogram, StftConfig

MAX_MIXING_CONDITION = 100.0


@dataclass
class SyntheticScene:
    """Ground truth plus observation, with the mixing identity exact."""

    sources: np.ndarray           # (bins, frames, sources)
    mixing: np.ndarray            # (bins, channels, sources)
    observation: np.ndarray       # (bins, frames, channels)

    @property
    def num_sources(self):
        return self.sources.shape[2]


def gen_low_rank_source(num_bins, num_frames, rank, rng):
    """One source drawn from the low-rank model.

    Draws positive basis/activation uniform on [0.1, 1.1), then samples each
    slot from a circular complex Gaussian whose variance is the low-rank
    product at that slot.

    Returns
    -------
    (values, basis, activation): the (bins, frames) spectrogram and the
    ground-truth factors that generated it.
    """
    if rank > min(num_bins, num_frames):
        raise ValueError("rank must not exceed min(bins, frames)")
    rng = np.random.default_rng(rng)
    basis = 0.1 + rng.random((num_bins, rank))
    activation = 0.1 + rng.random((rank, num_frames))
    variance = basis @ activation
    noise = rng.standard_normal((num_bins, num_frames, 2))
    values = np.sqrt(variance / 2.0) * (noise[:, :, 0] + 1j * noise[:, :, 1])
    return values, basis, activation


def _well_conditioned(rng, shape):
    for _ in range(1000):
        mat = rng.uniform(-1.0, 1.0, size=shape)
        if np.linalg.cond(mat) <= MAX_MIXING_CONDITION:
            return mat
    raise RuntimeError("failed to draw a well-conditioned mixing matrix")


def gen_mixture(sources, seed):
    """Mix per-bin source vectors through one random real matrix shared by
    every bin.

    The matrix is redrawn until its condition number is at most 100; the
    observation is the exact per-bin product, with no added noise.
    """
    sources = np.asarray(sources, dtype=np.complex128)
    num_bins, _, num_sources = sources.shape
    rng = np.random.default_rng(seed)
    flat = _well_conditioned(rng, (num_sources, num_sources))
    mixing = np.tile(flat.astype(np.complex128), (num_bins, 1, 1))
    observation = np.einsum("imn,ijn->ijm", mixing, sources)
    return SyntheticScene(sources, mixing, observation)


def make_scene(seed, num_bins=129, num_frames=128, num_sources=2, rank=2):
    """Low-rank sources plus a random mixing matrix, all from one seed."""
    streams = np.random.SeedSequence(seed).spawn(num_sources + 1)
    sources = np.empty((num_bins, num_frames, num_sources), dtype=np.complex128)
    for n in range(num_sources):
        sources[:, :, n] = gen_low_rank_source(num_bins, num_frames, rank, streams[n])[0]
    return gen_mixture(sources, streams[-1])


def make_fixed_point_scene(seed, num_bins=129, num_frames=128, num_sources=2):
    """Scene whose joint optimum is exactly representable, for convergence checks.

    Source magnitudes equal sqrt of a rank-1 positive product (random phases),
    so a rank-1 model can fit them with zero residual error and the iteration
    can actually reach a fixed point instead of circling sampling noise.
    """
    streams = np.random.SeedSequence(seed).spawn(num_sources + 1)
    sources = np.empty((num_bins, num_frames, num_sources), dtype=np.complex128)
    for n in range(num_sources):
        rng = np.random.default_rng(streams[n])
        basis = 0.1 + rng.random((num_bins, 1))
        activation = 0.1 + rng.random((1, num_frames))
        phase = np.exp(2j * np.pi * rng.random((num_bins, num_frames)))
        sources[:, :, n] = np.sqrt(basis @ activation) * phase
    return gen_mixture(sources, streams[-1])


def scene_config(scene, sample_rate_hz=16000.0):
    """An analysis configuration consistent with the scene's bin count."""
    window = 2 * (scene.sources.shape[0] - 1)
    if window % 4 != 0:
        raise ValueError("bin count must be a multiple of 4 plus 1")
    window_ms = 1000.0 * window / sample_rate_hz
    return StftConfig(sample_rate_hz, window_ms, window_ms / 4.0)


def sample_count_for_frames(num_frames, cfg):
    """A signal length that maps to exactly ``num_frames`` frames.

    Used to attach a consistent time-domain length to spectrograms that
    were built directly (synthetic scenes) rather than by ``analyze``.
    """
    n = num_frames * cfg.shift_samples - cfg.window_samples // 2
    if n <= 0:
        raise ValueError(f"frame count {num_frames} too small for this window")
    return n


def scene_spectrogram(scene, cfg=None):
    """The scene's observation wrapped for the separation engine."""
    cfg = cfg or scene_config(scene)
    num_samples = sample_count_for_frames(scene.observation.shape[1], cfg)
    return ComplexSpectrogram(scene.observation, cfg, num_samples)


def truth_image(scene, n):
    """Multichannel spectrogram image of ground-truth source n."""
    return scene.sources[:, :, n, None] * scene.mixing[:, None, :, n]


# ---------------------------------------------------------------------------
# inequality and majorizer oracles
# ---------------------------------------------------------------------------

def check_tangent_inequality(z, lam):
    """log(sum z) <= (sum z - lam)/lam + log lam, with equality at lam = sum z.

    Returns (lhs, rhs, holds).
    """
    z = np.asarray(z, dtype=np.float64)
    if np.any(z <= 0) or lam <= 0:
        raise ValueError("tangent inequality requires positive inputs")
    total = float(np.sum(z))
    lhs = math.log(total)
    rhs = (total - lam) / lam + math.log(lam)
    return lhs, rhs, lhs <= rhs + 1e-12


def check_jensen_inequality(z, mu, p):
    """(sum z)^(-2/p) <= sum mu^(2/p+1) z^(-2/p) for weights mu summing to 1.

    Equality holds exactly when mu is proportional to z.  Returns
    (lhs, rhs, holds).
    """
    z = np.asarray(z, dtype=np.float64)
    mu = np.asarray(mu, dtype=np.float64)
    if np.any(z <= 0) or np.any(mu <= 0):
        raise ValueError("Jensen inequality requires positive inputs")
    if abs(float(np.sum(mu)) - 1.0) > 1e-12:
        raise ValueError("weights must sum to one")
    if not 1.0 <= p <= 2.0:
        raise ValueError("p must lie in [1, 2]")
    e = 2.0 / p
    lhs = float(np.sum(z)) ** (-e)
    rhs = float(np.sum(mu ** (e + 1.0) * z ** (-e)))
    # slack scales with the values: both sides can reach 1e6 and beyond,
    # where an absolute 1e-12 would sit below one ulp
    return lhs, rhs, lhs <= rhs + 1e-12 * max(1.0, abs(lhs))


def cost_value(demixing, power, sigma_p, nu, p):
    """Negative log-likelihood with additive constants dropped, summed from the
    engine's own terms as ``engine._source_step`` sums them.

    ``power`` holds |y|^2 of every source, (sources, bins, frames), like ``sigma_p``.
    Gaussian (nu=inf, p=2): sum(log r + |y|^2 / r) - 2J sum_i log|det W_i|.
    Otherwise: sum((1 + nu/2) log(1 + (2/nu) |y|^2 / sigma^2) + (2/p) log sigma^p)
    minus the same determinant term.
    """
    total = _determinant_term(demixing, power.shape[2])
    scratch = np.empty((2,) + power.shape[1:])
    for pw, sp in zip(power, sigma_p):
        total += _source_cost(pw, sp, nu, p, scratch)
    return total


def optimal_auxiliaries(power, basis, activation, p, nu):
    """Auxiliary settings at which both surrogate bounds touch the cost.

    ``power`` holds |y|^2 of every source, (sources, bins, frames);
    ``basis`` and ``activation`` are the factor stacks, (sources, bins,
    rank) and (sources, rank, frames), in domain exponent p.  Returns
    (alpha, beta, gamma) with shapes (bins, frames, sources) for the first
    two and (bins, frames, sources, rank) for gamma.
    """
    num_sources, num_bins, num_frames = power.shape
    rank = basis.shape[2]
    alpha = np.empty((num_bins, num_frames, num_sources))
    beta = np.empty_like(alpha)
    gamma = np.empty((num_bins, num_frames, num_sources, rank))
    for n, (t, v) in enumerate(zip(basis, activation)):
        model = t @ v
        sig_sq = model ** (2.0 / p)
        alpha[:, :, n] = 1.0 + (2.0 / nu) * power[n] / sig_sq
        beta[:, :, n] = model
        gamma[:, :, n, :] = t[:, None, :] * v.T[None, :, :] / model[:, :, None]
    return alpha, beta, gamma


def _surrogate(demixing, power, basis, activation, p, nu, alpha, beta, bound):
    """The body both surrogates share.

    ``bound(n, t, v, model, scaled)`` returns the surrogate's bound on
    scaled * sigma^-2 for source n with factors t and v, where
    scaled = (2/nu) |y|^2.
    """
    if math.isinf(nu):
        raise ValueError("the surrogate bounds are defined for finite nu")
    num_frames = power.shape[2]
    total = _determinant_term(demixing, num_frames)
    half = 1.0 + nu / 2.0
    for n, (t, v) in enumerate(zip(basis, activation)):
        model = t @ v
        inner = 1.0 + bound(n, t, v, model, (2.0 / nu) * power[n])
        a = alpha[:, :, n]
        b = beta[:, :, n]
        total += float(
            np.sum(
                half * ((inner - a) / a + np.log(a))
                + 2.0 / (p * b) * (model - b)
                + (2.0 / p) * np.log(b)
            )
        )
    return total


def majorizer_tangent(demixing, power, basis, activation, p, nu, alpha, beta):
    """Surrogate obtained by tangent-line bounds on both log terms."""
    def bound(n, t, v, model, scaled):
        return scaled / model ** (2.0 / p)

    return _surrogate(demixing, power, basis, activation, p, nu, alpha, beta, bound)


def majorizer_jensen(demixing, power, basis, activation, p, nu, alpha, beta, gamma):
    """Surrogate with the coupled sigma^-2 term additionally split by Jensen."""
    def bound(n, t, v, model, scaled):
        e = 2.0 / p
        tv = t[:, None, :] * v.T[None, :, :]  # (bins, frames, rank)
        return scaled * np.sum(gamma[:, :, n, :] ** (e + 1.0) * tv ** (-e), axis=2)

    return _surrogate(demixing, power, basis, activation, p, nu, alpha, beta, bound)


@dataclass
class MajorizerTouchReport:
    cost: float
    tangent_at_touch: float
    jensen_at_touch: float
    tangent_gap_rel: float
    jensen_gap_rel: float
    touch_ok: bool
    dominance_ok: bool


def random_state(seed, num_bins=4, num_frames=5, num_sources=2, rank=2):
    """Small random (W, |Y|^2, basis, activation) tuple for oracle checks.

    |Y|^2 is (sources, bins, frames), the power of circular complex Gaussian
    estimates; the factor stacks are (sources, bins, rank) and (sources,
    rank, frames), each source's basis drawn before its activation.
    """
    rng = np.random.default_rng(seed)
    demixing = rng.standard_normal((num_bins, num_sources, num_sources, 2))
    demixing = demixing[..., 0] + 1j * demixing[..., 1]
    parts = rng.standard_normal((num_bins, num_frames, num_sources, 2))
    power = np.moveaxis(parts[..., 0] ** 2 + parts[..., 1] ** 2, 2, 0)
    basis = np.empty((num_sources, num_bins, rank))
    activation = np.empty((num_sources, rank, num_frames))
    for t, v in zip(basis, activation):
        t[...] = 0.1 + rng.random(t.shape)
        v[...] = 0.1 + rng.random(v.shape)
    return demixing, power, basis, activation


def check_majorizer_touch(seed, nu, p, num_bins=4, num_frames=5, num_sources=2, rank=2,
                          tol=1e-10):
    """Verify touch equalities and the dominance chain on one random state.

    At the optimal auxiliaries both surrogates must coincide with the cost
    to ``tol`` (relative); at perturbed auxiliaries the chain
    cost <= tangent surrogate <= Jensen surrogate must hold.
    """
    demixing, power, basis, activation = random_state(seed, num_bins, num_frames,
                                                      num_sources, rank)
    sigma_p = recompute_scale(basis, activation, p)
    exact = cost_value(demixing, power, sigma_p, nu, p)
    alpha, beta, gamma = optimal_auxiliaries(power, basis, activation, p, nu)
    tangent = majorizer_tangent(demixing, power, basis, activation, p, nu, alpha, beta)
    jensen = majorizer_jensen(demixing, power, basis, activation, p, nu, alpha, beta, gamma)

    scale = max(1.0, abs(exact))
    tangent_gap = abs(tangent - exact) / scale
    jensen_gap = abs(jensen - tangent) / scale
    touch_ok = tangent_gap <= tol and jensen_gap <= tol

    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    alpha_pert = alpha * (1.0 + 0.5 * rng.random(alpha.shape))
    beta_pert = beta * (0.5 + 0.4 * rng.random(beta.shape))
    gamma_pert = gamma * (0.2 + rng.random(gamma.shape))
    gamma_pert /= np.sum(gamma_pert, axis=3, keepdims=True)
    tangent_pert = majorizer_tangent(demixing, power, basis, activation, p, nu, alpha_pert,
                                     beta_pert)
    jensen_pert = majorizer_jensen(demixing, power, basis, activation, p, nu, alpha_pert,
                                   beta_pert, gamma_pert)
    slack = tol * scale
    dominance_ok = exact <= tangent_pert + slack and tangent_pert <= jensen_pert + slack

    return MajorizerTouchReport(
        exact, tangent, jensen, tangent_gap, jensen_gap, touch_ok, dominance_ok
    )


def run_oracle_suite(seed=0, samples=10000, touch_states=100):
    """Fuzz each inequality ``samples`` times and the touch conditions on
    ``touch_states`` random states; returns a summary dict."""
    rng = np.random.default_rng(seed)
    tangent_fail = 0
    for _ in range(samples):
        z = rng.random(int(rng.integers(1, 6))) * 10.0 ** rng.uniform(-3, 3)
        lam = float(rng.random() * 10.0 ** rng.uniform(-3, 3))
        _, _, ok = check_tangent_inequality(z, lam)
        tangent_fail += 0 if ok else 1
    jensen_fail = 0
    for _ in range(samples):
        z = rng.random(int(rng.integers(1, 6))) * 10.0 ** rng.uniform(-3, 3)
        mu = rng.random(z.shape[0]) + 1e-3
        mu /= mu.sum()
        p = float(rng.choice([1.0, 1.5, 2.0]))
        _, _, ok = check_jensen_inequality(z, mu, p)
        jensen_fail += 0 if ok else 1
    touch_fail = 0
    for k in range(touch_states):
        nu = float(rng.choice([1.0, 2.0, 5.0, 10.0, 100.0]))
        p = float(rng.choice([1.0, 1.5, 2.0]))
        report = check_majorizer_touch(int(rng.integers(1 << 31)), nu, p)
        if not (report.touch_ok and report.dominance_ok):
            touch_fail += 1
    return {
        "tangent_samples": samples,
        "tangent_violations": tangent_fail,
        "jensen_samples": samples,
        "jensen_violations": jensen_fail,
        "touch_states": touch_states,
        "touch_failures": touch_fail,
        "ok": tangent_fail == 0 and jensen_fail == 0 and touch_fail == 0,
    }
