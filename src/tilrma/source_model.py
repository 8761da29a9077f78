"""Per-source low-rank scale model and its multiplicative updates.

Each source n carries a nonnegative factorization of its scale tensor,
``sigma^p = T @ V`` with basis T (bins x bases) and activation V
(bases x frames).  The domain exponent p in [1, 2] selects what the
factorization models (p=2: power spectrogram, p=1: amplitude).  Updates
are majorization-minimization steps under a heavy-tailed source
likelihood with ``nu`` degrees of freedom.  The Gaussian (Itakura-Saito)
model is the case ``nu = inf``, not a large finite value: nu=inf makes 2/nu
exactly 0, so the t-model formulas reduce to the Gaussian ones bit for bit.
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

    @property
    def num_bases(self):
        return self.basis.shape[1]


def init_factors(num_bins, num_frames, num_bases, seed, p=2.0):
    """Draw factors i.i.d. uniform on (FLOOR, 1], reproducibly from ``seed``."""
    if num_bases < 1:
        raise ValueError("need at least one basis")
    rng = np.random.default_rng(seed)
    span = 1.0 - FLOOR
    basis = 1.0 - span * rng.random((num_bins, num_bases))
    activation = 1.0 - span * rng.random((num_bases, num_frames))
    return NmfFactors(basis, activation, p)


def recompute_scale(factors):
    """sigma^p tensor (bins x frames) for one source, floored."""
    return np.maximum(factors.basis @ factors.activation, scale_floor(factors.p))


def sigma_squared(sigma_p, p):
    """sigma^2 from the stored sigma^p tensor."""
    if p == 2.0:
        return sigma_p
    return sigma_p ** (2.0 / p)


def _t_weight(sig_sq, power, nu):
    """1 / (sigma^2 + (2/nu) |y|^2), the MM weight of the t model; 1/sigma^2 at nu=inf."""
    # in place: the Gaussian updates run this too, so each pass is one fewer allocation
    weight = (2.0 / nu) * power
    weight += sig_sq
    return np.reciprocal(weight, out=weight)


def _inv_weight(sigma_p, power, p, nu):
    # 1 / (nu/(nu+2) sigma^2 + 2/(nu+2) |y|^2)
    weight = _t_weight(sigma_squared(sigma_p, p), power, nu)
    weight *= 1.0 + 2.0 / nu
    return weight


def update_bases(factors, y_slice, sigma_p, nu):
    """One multiplicative basis update for a single source.

    Parameters
    ----------
    factors: NmfFactors
    y_slice: ndarray (bins, frames), complex
        Current estimate of this source's spectrogram.
    sigma_p: ndarray (bins, frames)
        Current scale tensor of this source: the ``recompute_scale`` output
        for ``factors``, possibly rescaled since by ``demix.normalize``,
        which scales floored slots along with the rest.
    nu: float
        Degrees of freedom; ``inf`` selects the Gaussian rule.

    Returns
    -------
    NmfFactors with the updated basis (activation shared, not copied).
    """
    p = factors.p
    power = np.abs(y_slice) ** 2
    ratio_num = (power * _inv_weight(sigma_p, power, p, nu) / sigma_p) @ factors.activation.T
    ratio_den = (1.0 / sigma_p) @ factors.activation.T
    basis = factors.basis * (ratio_num / ratio_den) ** (p / (p + 2.0))
    return NmfFactors(np.maximum(basis, FLOOR), factors.activation, p)


def update_activations(factors, y_slice, sigma_p, nu):
    """Mirror of ``update_bases`` with the bin and frame roles swapped."""
    p = factors.p
    power = np.abs(y_slice) ** 2
    ratio_num = factors.basis.T @ (power * _inv_weight(sigma_p, power, p, nu) / sigma_p)
    ratio_den = factors.basis.T @ (1.0 / sigma_p)
    activation = factors.activation * (ratio_num / ratio_den) ** (p / (p + 2.0))
    return NmfFactors(factors.basis, np.maximum(activation, FLOOR), p)


def convert_domain(factors, sigma_p, new_p, refit_iters=10):
    """Re-express the scale model in a new domain exponent.

    The scale tensor converts exactly, ``sigma^new_p = (sigma^p)^(new_p/p)``.
    The factors cannot convert exactly for L > 1, so they are seeded with the
    elementwise power of the old factors and refit to the converted tensor by
    ``refit_iters`` multiplicative rounds of ``update_bases``/``update_activations``
    in the Gaussian limit, using the converted tensor's amplitude as pseudo-data
    (so the refit objective is minimized exactly where the model meets the target).

    Returns
    -------
    (NmfFactors, ndarray): refit factors and the converted scale tensor.
    """
    if not 1.0 <= new_p <= 2.0:
        raise ValueError(f"domain exponent p must lie in [1, 2], got {new_p}")
    if new_p == factors.p:
        return factors, sigma_p

    exponent = new_p / factors.p
    target = np.maximum(sigma_p, scale_floor(factors.p)) ** exponent
    out = NmfFactors(
        np.maximum(factors.basis**exponent, FLOOR),
        np.maximum(factors.activation**exponent, FLOOR),
        new_p,
    )
    # pseudo-data with |y|^2 = target^(2/new_p) makes the fixed point sit at
    # T @ V = target; nu=inf keeps the refit free of the dof parameter
    pseudo = np.sqrt(target ** (2.0 / new_p)).astype(np.complex128)
    scale = recompute_scale(out)
    for _ in range(refit_iters):
        out = update_bases(out, pseudo, scale, math.inf)
        scale = recompute_scale(out)
        out = update_activations(out, pseudo, scale, math.inf)
        scale = recompute_scale(out)
    return out, target
