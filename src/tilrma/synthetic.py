"""Synthetic scene generation and numeric oracles for the optimization's
provable properties.

The separation code substitutes all auxiliary variables analytically, so
nothing in the production path ever materializes them.  This module keeps
them observable: it evaluates the exact cost together with its two
surrogate bounds at explicit auxiliary settings, so the touch conditions
and the dominance chain that underpin the convergence guarantee can be
checked numerically on random states.
"""

import math
from dataclasses import dataclass

import numpy as np

from .engine import cost_value, log_abs_det
from .source_model import NmfFactors, recompute_scale
from .stft import ComplexSpectrogram, StftConfig, sample_count_for_frames

MAX_MIXING_CONDITION = 100.0


@dataclass
class SyntheticScene:
    """Ground truth plus observation, with the mixing identity exact."""

    sources: np.ndarray           # (bins, frames, sources)
    mixing: np.ndarray            # (bins, channels, sources)
    observation: np.ndarray       # (bins, frames, channels)
    seed: int
    truth_basis: np.ndarray       # (sources, bins, rank)
    truth_activation: np.ndarray  # (sources, rank, frames)

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


def _well_conditioned(rng, shape, complex_entries):
    for _ in range(1000):
        mat = rng.uniform(-1.0, 1.0, size=shape)
        if complex_entries:
            mat = mat + 1j * rng.uniform(-1.0, 1.0, size=shape)
        if np.linalg.cond(mat) <= MAX_MIXING_CONDITION:
            return mat
    raise RuntimeError("failed to draw a well-conditioned mixing matrix")


def gen_mixture(sources, mixing_kind, seed, truth_basis=None, truth_activation=None):
    """Mix per-bin source vectors through a random mixing system.

    ``mixing_kind`` is "instantaneous" (one real matrix shared by every
    bin) or "smooth" (per-bin matrices interpolated between two complex
    endpoints, a stand-in for slowly varying convolutive mixing).  All
    matrices are redrawn until their condition number is at most 100; the
    observation is the exact per-bin product, with no added noise.
    """
    sources = np.asarray(sources, dtype=np.complex128)
    num_bins, num_frames, num_sources = sources.shape
    rng = np.random.default_rng(seed)
    seed_record = int(seed) if isinstance(seed, (int, np.integer)) else -1
    if mixing_kind == "instantaneous":
        flat = _well_conditioned(rng, (num_sources, num_sources), complex_entries=False)
        mixing = np.tile(flat.astype(np.complex128), (num_bins, 1, 1))
    elif mixing_kind == "smooth":
        for _ in range(1000):
            lo = _well_conditioned(rng, (num_sources, num_sources), complex_entries=True)
            hi = _well_conditioned(rng, (num_sources, num_sources), complex_entries=True)
            tau = np.linspace(0.0, 1.0, num_bins)[:, None, None]
            mixing = (1.0 - tau) * lo + tau * hi
            if max(np.linalg.cond(mixing[i]) for i in range(num_bins)) <= MAX_MIXING_CONDITION:
                break
        else:
            raise RuntimeError("failed to draw a well-conditioned mixing path")
    else:
        raise ValueError(f"unknown mixing kind: {mixing_kind!r}")

    observation = np.einsum("imn,ijn->ijm", mixing, sources)
    if truth_basis is None:
        truth_basis = np.zeros((num_sources, num_bins, 0))
    if truth_activation is None:
        truth_activation = np.zeros((num_sources, 0, num_frames))
    return SyntheticScene(
        sources,
        mixing,
        observation,
        seed_record,
        np.asarray(truth_basis),
        np.asarray(truth_activation),
    )


def make_scene(seed, num_bins=129, num_frames=128, num_sources=2, rank=2,
               mixing_kind="instantaneous"):
    """Low-rank sources plus a random mixing system, all from one seed."""
    streams = np.random.SeedSequence(seed).spawn(num_sources + 1)
    sources = np.empty((num_bins, num_frames, num_sources), dtype=np.complex128)
    basis = np.empty((num_sources, num_bins, rank))
    activation = np.empty((num_sources, rank, num_frames))
    for n in range(num_sources):
        sources[:, :, n], basis[n], activation[n] = gen_low_rank_source(
            num_bins, num_frames, rank, streams[n]
        )
    scene = gen_mixture(sources, mixing_kind, streams[-1], basis, activation)
    scene.seed = int(seed)
    return scene


def make_fixed_point_scene(seed, num_bins=129, num_frames=128, num_sources=2):
    """Scene whose joint optimum is exactly representable, for convergence checks.

    Source magnitudes equal sqrt of a rank-1 positive product (random phases),
    so a rank-1 model can fit them with zero residual error and the iteration
    can actually reach a fixed point instead of circling sampling noise.
    """
    streams = np.random.SeedSequence(seed).spawn(num_sources + 1)
    sources = np.empty((num_bins, num_frames, num_sources), dtype=np.complex128)
    basis = np.empty((num_sources, num_bins, 1))
    activation = np.empty((num_sources, 1, num_frames))
    for n in range(num_sources):
        rng = np.random.default_rng(streams[n])
        basis[n] = 0.1 + rng.random((num_bins, 1))
        activation[n] = 0.1 + rng.random((1, num_frames))
        phase = np.exp(2j * np.pi * rng.random((num_bins, num_frames)))
        sources[:, :, n] = np.sqrt(basis[n] @ activation[n]) * phase
    scene = gen_mixture(sources, "instantaneous", streams[-1], basis, activation)
    scene.seed = int(seed)
    return scene


def scene_config(scene, sample_rate_hz=16000.0):
    """An analysis configuration consistent with the scene's bin count."""
    window = 2 * (scene.sources.shape[0] - 1)
    if window % 4 != 0:
        raise ValueError("bin count must be a multiple of 4 plus 1")
    window_ms = 1000.0 * window / sample_rate_hz
    return StftConfig(sample_rate_hz, window_ms, window_ms / 4.0)


def scene_spectrogram(scene, cfg=None):
    """The scene's observation wrapped for the separation engine."""
    cfg = cfg or scene_config(scene)
    num_samples = sample_count_for_frames(scene.observation.shape[1], cfg)
    return ComplexSpectrogram(scene.observation, cfg, num_samples)


def truth_image(scene, n):
    """Multichannel spectrogram image of ground-truth source n."""
    return scene.sources[:, :, n, None] * scene.mixing[:, None, :, n]


def save_scene(path, scene):
    """Serialize losslessly to an .npz container."""
    np.savez(
        path,
        sources=scene.sources,
        mixing=scene.mixing,
        observation=scene.observation,
        seed=np.int64(scene.seed),
        truth_basis=scene.truth_basis,
        truth_activation=scene.truth_activation,
    )


def load_scene(path):
    with np.load(path) as data:
        return SyntheticScene(
            data["sources"],
            data["mixing"],
            data["observation"],
            int(data["seed"]),
            data["truth_basis"],
            data["truth_activation"],
        )


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


def _det_term(demixing, num_frames):
    return -2.0 * num_frames * float(np.sum(log_abs_det(demixing)))


def optimal_auxiliaries(power, factors, nu):
    """Auxiliary settings at which both surrogate bounds touch the cost.

    ``power`` holds |y|^2 of every source, (sources, bins, frames).  Returns
    (alpha, beta, gamma) with shapes (bins, frames, sources) for the first
    two and (bins, frames, sources, rank) for gamma.
    """
    num_sources, num_bins, num_frames = power.shape
    rank = factors[0].num_bases
    alpha = np.empty((num_bins, num_frames, num_sources))
    beta = np.empty_like(alpha)
    gamma = np.empty((num_bins, num_frames, num_sources, rank))
    for n, fac in enumerate(factors):
        model = fac.basis @ fac.activation
        sig_sq = model ** (2.0 / fac.p)
        alpha[:, :, n] = 1.0 + (2.0 / nu) * power[n] / sig_sq
        beta[:, :, n] = model
        gamma[:, :, n, :] = (
            fac.basis[:, None, :] * fac.activation.T[None, :, :] / model[:, :, None]
        )
    return alpha, beta, gamma


def majorizer_tangent(demixing, power, factors, nu, alpha, beta):
    """Surrogate obtained by tangent-line bounds on both log terms."""
    if math.isinf(nu):
        raise ValueError("the surrogate bounds are defined for finite nu")
    num_frames = power.shape[2]
    total = _det_term(demixing, num_frames)
    half = 1.0 + nu / 2.0
    for n, fac in enumerate(factors):
        p = fac.p
        model = fac.basis @ fac.activation
        sig_sq = model ** (2.0 / p)
        inner = 1.0 + (2.0 / nu) * power[n] / sig_sq
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


def majorizer_jensen(demixing, power, factors, nu, alpha, beta, gamma):
    """Surrogate with the coupled sigma^-2 term additionally split by Jensen."""
    if math.isinf(nu):
        raise ValueError("the surrogate bounds are defined for finite nu")
    num_frames = power.shape[2]
    total = _det_term(demixing, num_frames)
    half = 1.0 + nu / 2.0
    for n, fac in enumerate(factors):
        p = fac.p
        e = 2.0 / p
        model = fac.basis @ fac.activation
        tv = fac.basis[:, None, :] * fac.activation.T[None, :, :]  # (bins, frames, rank)
        split = np.sum(gamma[:, :, n, :] ** (e + 1.0) * tv ** (-e), axis=2)
        inner = 1.0 + (2.0 / nu) * power[n] * split
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


@dataclass
class MajorizerTouchReport:
    cost: float
    tangent_at_touch: float
    jensen_at_touch: float
    tangent_gap_rel: float
    jensen_gap_rel: float
    touch_ok: bool
    dominance_ok: bool


def random_state(seed, num_bins=4, num_frames=5, num_sources=2, rank=2, p=1.5):
    """Small random (W, |Y|^2, factors) tuple for oracle checks; |Y|^2 is
    (sources, bins, frames), the power of circular complex Gaussian estimates."""
    rng = np.random.default_rng(seed)
    demixing = rng.standard_normal((num_bins, num_sources, num_sources, 2))
    demixing = demixing[..., 0] + 1j * demixing[..., 1]
    parts = rng.standard_normal((num_bins, num_frames, num_sources, 2))
    power = np.moveaxis(parts[..., 0] ** 2 + parts[..., 1] ** 2, 2, 0)
    factors = [
        NmfFactors(
            0.1 + rng.random((num_bins, rank)), 0.1 + rng.random((rank, num_frames)), p
        )
        for _ in range(num_sources)
    ]
    return demixing, power, factors


def check_majorizer_touch(seed, nu, p, num_bins=4, num_frames=5, num_sources=2, rank=2,
                          tol=1e-10):
    """Verify touch equalities and the dominance chain on one random state.

    At the optimal auxiliaries both surrogates must coincide with the cost
    to ``tol`` (relative); at perturbed auxiliaries the chain
    cost <= tangent surrogate <= Jensen surrogate must hold.
    """
    demixing, power, factors = random_state(seed, num_bins, num_frames, num_sources, rank, p)
    sigma_p = np.stack([recompute_scale(f) for f in factors])
    exact = cost_value(demixing, power, sigma_p, nu, p)
    alpha, beta, gamma = optimal_auxiliaries(power, factors, nu)
    tangent = majorizer_tangent(demixing, power, factors, nu, alpha, beta)
    jensen = majorizer_jensen(demixing, power, factors, nu, alpha, beta, gamma)

    scale = max(1.0, abs(exact))
    tangent_gap = abs(tangent - exact) / scale
    jensen_gap = abs(jensen - tangent) / scale
    touch_ok = tangent_gap <= tol and jensen_gap <= tol

    rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
    alpha_pert = alpha * (1.0 + 0.5 * rng.random(alpha.shape))
    beta_pert = beta * (0.5 + 0.4 * rng.random(beta.shape))
    gamma_pert = gamma * (0.2 + rng.random(gamma.shape))
    gamma_pert /= np.sum(gamma_pert, axis=3, keepdims=True)
    tangent_pert = majorizer_tangent(demixing, power, factors, nu, alpha_pert, beta_pert)
    jensen_pert = majorizer_jensen(demixing, power, factors, nu, alpha_pert, beta_pert, gamma_pert)
    slack = tol * scale
    dominance_ok = exact <= tangent_pert + slack and tangent_pert <= jensen_pert + slack

    return MajorizerTouchReport(
        exact, tangent, jensen, tangent_gap, jensen_gap, touch_ok, dominance_ok
    )


def run_oracle_suite(seed=0, tangent_samples=10000, jensen_samples=10000, touch_states=100):
    """Fuzz the inequalities and touch conditions; returns a summary dict."""
    rng = np.random.default_rng(seed)
    tangent_fail = 0
    for _ in range(tangent_samples):
        z = rng.random(int(rng.integers(1, 6))) * 10.0 ** rng.uniform(-3, 3)
        lam = float(rng.random() * 10.0 ** rng.uniform(-3, 3))
        _, _, ok = check_tangent_inequality(z, lam)
        tangent_fail += 0 if ok else 1
    jensen_fail = 0
    for _ in range(jensen_samples):
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
        "tangent_samples": tangent_samples,
        "tangent_violations": tangent_fail,
        "jensen_samples": jensen_samples,
        "jensen_violations": jensen_fail,
        "touch_states": touch_states,
        "touch_failures": touch_fail,
        "ok": tangent_fail == 0 and jensen_fail == 0 and touch_fail == 0,
    }
