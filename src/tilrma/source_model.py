"""Per-source low-rank scale model and its multiplicative updates.

Each source n carries a nonnegative factorization of its scale tensor,
``sigma^p = T @ V`` with basis T (bins x bases) and activation V
(bases x frames).  The domain exponent p in [1, 2] selects what the
factorization models (p=2: power spectrogram, p=1: amplitude).  Updates
are majorization-minimization steps under a heavy-tailed source
likelihood with ``nu`` degrees of freedom, and take a source's estimate y
only as its real power |y|^2.  The Gaussian (Itakura-Saito) model is the
case ``nu = inf``, not a large finite value: nu=inf makes 2/nu exactly 0, so
the t-model formulas reduce to the Gaussian ones bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

# Applied to T and V after every factor update, and through scale_floor to
# sigma^p at every refresh: the update rules divide by all three, and zeros
# would otherwise propagate.
FLOOR = 1e-12


def scale_floor(p):
    """Floor for the sigma^p tensor, chosen so a floored slot has sigma^2 = FLOOR.

    It keeps sigma^2 strictly positive, so the 1/sigma^2 weights of the
    demixing covariances and the update rules never divide by zero.  It
    does not bound the spread of those weights within one bin, nor the
    conditioning of the covariances built from them.  At p=2 this is
    FLOOR itself.
    """
    return FLOOR ** (p / 2.0)


@dataclass
class NmfFactors:
    """Nonnegative basis/activation pair with its domain exponent."""

    basis: np.ndarray       # (num_bins, num_bases)
    activation: np.ndarray  # (num_bases, num_frames)
    p: float

    def __post_init__(self):
        if not 1.0 <= self.p <= 2.0:
            raise ValueError(f"domain exponent p must lie in [1, 2], got {self.p}")
        self.basis = np.asarray(self.basis, dtype=np.float64)
        self.activation = np.asarray(self.activation, dtype=np.float64)


def init_factors(num_bins, num_frames, num_bases, seed, p=2.0):
    """Draw factors i.i.d. uniform on (FLOOR, 1], reproducibly from ``seed``."""
    if num_bases < 1:
        raise ValueError("need at least one basis")
    rng = np.random.default_rng(seed)
    span = 1.0 - FLOOR
    basis = 1.0 - span * rng.random((num_bins, num_bases))
    activation = 1.0 - span * rng.random((num_bases, num_frames))
    return NmfFactors(basis, activation, p)


def recompute_scale(factors, out=None):
    """sigma^p tensor (bins x frames) for one source, floored; written to ``out`` if given."""
    scale = np.matmul(factors.basis, factors.activation, out=out)
    return np.maximum(scale, scale_floor(factors.p), out=scale)


def sigma_squared(sigma_p, p, out=None):
    """sigma^2 from the stored sigma^p tensor; ``sigma_p`` itself at p=2, else in ``out``."""
    if p == 2.0:
        return sigma_p
    return np.power(sigma_p, 2.0 / p, out=out)


def _t_weight(sig_sq, power, nu, out=None):
    """1 / (sigma^2 + (2/nu) |y|^2), the MM weight of the t model; 1/sigma^2 at nu=inf.

    ``out`` may be ``sig_sq`` only at nu=inf.
    """
    if math.isinf(nu):
        # the general form adds 0 * |y|^2 = +0 to sigma^2, which changes no bit
        # for finite |y|^2 >= 0: skipping it saves two full-size passes
        return np.reciprocal(sig_sq, out=out)
    weight = np.multiply(2.0 / nu, power, out=out)
    weight += sig_sq
    return np.reciprocal(weight, out=weight)


def _weighted_power(power, sigma_p, p, nu, scratch):
    """|y|^2 (1 + 2/nu) / (sigma^2 + (2/nu) |y|^2) / sigma^p, in ``scratch[-1]``.

    This is the plane an MM factor update takes its numerator from.
    ``scratch`` is two (bins, frames) planes, or one where nu is inf or p is
    2: then sigma^2 and the weight share a plane or sigma^2 needs none.
    """
    sig_sq = sigma_squared(sigma_p, p, out=scratch[0])
    weighted = _t_weight(sig_sq, power, nu, out=scratch[-1])
    if not math.isinf(nu):  # the factor is exactly 1 at nu=inf
        weighted *= 1.0 + 2.0 / nu
    np.multiply(power, weighted, out=weighted)
    return np.divide(weighted, sigma_p, out=weighted)


def _scratch(scratch, like):
    return np.empty((2,) + like.shape) if scratch is None else scratch


def update_bases(factors, power, sigma_p, nu, scratch=None):
    """One multiplicative basis update for a single source.

    Parameters
    ----------
    factors: NmfFactors
    power: ndarray (bins, frames)
        |y|^2 of this source's current estimate.
    sigma_p: ndarray (bins, frames)
        Current scale tensor of this source: the ``recompute_scale`` output
        for ``factors``, possibly rescaled since by ``demix.normalize``,
        which scales floored slots along with the rest.
    nu: float
        Degrees of freedom; ``inf`` selects the Gaussian rule.
    scratch: ndarray (2, bins, frames), optional
        Work planes, in place of fresh ones; see ``_weighted_power``.

    Returns
    -------
    NmfFactors with the updated basis (activation shared, not copied).
    """
    p = factors.p
    scratch = _scratch(scratch, power)
    ratio_num = _weighted_power(power, sigma_p, p, nu, scratch) @ factors.activation.T
    ratio_den = np.divide(1.0, sigma_p, out=scratch[0]) @ factors.activation.T
    basis = factors.basis * (ratio_num / ratio_den) ** (p / (p + 2.0))
    return NmfFactors(np.maximum(basis, FLOOR), factors.activation, p)


def update_activations(factors, power, sigma_p, nu, scratch=None):
    """Mirror of ``update_bases`` with the bin and frame roles swapped."""
    p = factors.p
    scratch = _scratch(scratch, power)
    ratio_num = factors.basis.T @ _weighted_power(power, sigma_p, p, nu, scratch)
    ratio_den = factors.basis.T @ np.divide(1.0, sigma_p, out=scratch[0])
    activation = factors.activation * (ratio_num / ratio_den) ** (p / (p + 2.0))
    return NmfFactors(factors.basis, np.maximum(activation, FLOOR), p)


def update_factors(factors, power, sigma_p, nu, scratch=None):
    """One NMF step of a single source: basis update, scale refresh,
    activation update, scale refresh.

    ``sigma_p`` is refreshed in place after each half, so on return it is
    ``recompute_scale`` of the returned factors.  ``power``, ``nu`` and
    ``scratch`` are as in ``update_bases``.
    """
    factors = update_bases(factors, power, sigma_p, nu, scratch)
    recompute_scale(factors, out=sigma_p)
    factors = update_activations(factors, power, sigma_p, nu, scratch)
    recompute_scale(factors, out=sigma_p)
    return factors


def convert_domain(factors, sigma_p, new_p, refit_iters=10, scratch=None):
    """Re-express the scale model in a new domain exponent, refitting in place.

    The scale tensor converts exactly, ``sigma^new_p = (sigma^p)^(new_p/p)``.
    The factors cannot convert exactly for L > 1, so they are seeded with the
    elementwise power of the old factors and refit to the converted tensor by
    ``refit_iters`` rounds of ``update_factors`` in the Gaussian limit, with
    ``target^(2/new_p)`` as the power they fit (so the refit objective is
    minimized exactly where the model meets the target).

    The target is taken from ``sigma_p``, which then holds ``recompute_scale``
    of the returned factors.  ``scratch``, two (bins, frames) planes for the
    refit's power and its update temporaries, saves fresh ones.  At an
    unchanged exponent ``factors`` itself is returned and ``sigma_p`` left as is.
    """
    if not 1.0 <= new_p <= 2.0:
        raise ValueError(f"domain exponent p must lie in [1, 2], got {new_p}")
    if new_p == factors.p:
        return factors

    exponent = new_p / factors.p
    if scratch is None:
        scratch = np.empty((2,) + sigma_p.shape)
    # target^(2/new_p), formed over the target, makes the fixed point sit at
    # T @ V = target
    power = np.maximum(sigma_p, scale_floor(factors.p), out=scratch[0])
    power **= exponent
    power = sigma_squared(power, new_p, out=power)
    refit = NmfFactors(
        np.maximum(factors.basis**exponent, FLOOR),
        np.maximum(factors.activation**exponent, FLOOR),
        new_p,
    )
    # nu=inf keeps the refit free of the dof parameter, and its updates to
    # one work plane
    recompute_scale(refit, out=sigma_p)
    for _ in range(refit_iters):
        refit = update_factors(refit, power, sigma_p, math.inf, scratch[1:])
    return refit
