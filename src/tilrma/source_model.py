"""Per-source low-rank scale model and its multiplicative updates.

Each source n carries a nonnegative factorization of its scale tensor,
``sigma^p = T @ V`` with basis T (bins x bases) and activation V
(bases x frames).  A run keeps every source's factors as two stacks,
``basis`` (sources, bins, bases) and ``activation`` (sources, bases,
frames); the updates take one source's slices and change them in place.
The domain exponent p in [1, 2] selects what the factorization models
(p=2: power spectrogram, p=1: amplitude); it is the run's, and passed to
every function that needs it.  Updates are majorization-minimization steps
under a heavy-tailed source likelihood with ``nu`` degrees of freedom, and
take a source's estimate y only as its real power |y|^2.  The Gaussian
(Itakura-Saito) model is the case ``nu = inf``, not a large finite value:
nu=inf makes 2/nu exactly 0, so the t-model formulas reduce to the Gaussian
ones bit for bit.
"""

import math

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


def init_factors(num_sources, num_bins, num_frames, num_bases, seed):
    """Every source's factors, i.i.d. uniform on (FLOOR, 1], reproducibly from ``seed``.

    Source n draws its basis, then its activation, from stream n of
    ``SeedSequence(seed).spawn(num_sources)``.  Returns the stacks
    (basis, activation), (sources, bins, bases) and (sources, bases, frames).
    """
    basis = np.empty((num_sources, num_bins, num_bases))
    activation = np.empty((num_sources, num_bases, num_frames))
    span = 1.0 - FLOOR
    for stream, t, v in zip(np.random.SeedSequence(seed).spawn(num_sources), basis, activation):
        rng = np.random.default_rng(stream)
        t[...] = 1.0 - span * rng.random(t.shape)
        v[...] = 1.0 - span * rng.random(v.shape)
    return basis, activation


def recompute_scale(basis, activation, p, out=None):
    """sigma^p = T @ V, floored; written to ``out`` if given.

    Takes one source's factors, (bins, frames) out, or the stacks of all
    sources, (sources, bins, frames) out.
    """
    scale = np.matmul(basis, activation, out=out)
    return np.maximum(scale, scale_floor(p), out=scale)


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


def _update_factor(factor, other, power, sigma_p, p, nu, scratch):
    """The multiplicative update of a (rows, bases) factor against its
    (bases, columns) partner, in place and floored; ``power``, ``sigma_p`` and
    the ``scratch`` planes are (rows, columns).  The products are formed
    bases-first: the activation's, on transposed views, is then the faster order.
    """
    ratio = other @ _weighted_power(power, sigma_p, p, nu, scratch).T
    ratio /= other @ np.divide(1.0, sigma_p, out=scratch[0]).T
    ratio **= p / (p + 2.0)
    factor *= ratio.T
    np.maximum(factor, FLOOR, out=factor)


def update_factors(basis, activation, power, sigma_p, p, nu, scratch):
    """One NMF step of a single source, in place: basis update, scale
    refresh, activation update, scale refresh.

    The activation update is the basis update with bins and frames
    exchanged, so both take ``_update_factor``, and each factor is floored.
    ``basis`` is (bins, bases), ``activation`` (bases, frames), and ``power``,
    |y|^2 of the source's estimate, and ``sigma_p``, its scale tensor, are
    (bins, frames).  ``sigma_p`` is the ``recompute_scale`` output for the
    factors, possibly rescaled since by ``demix.normalize``, which scales
    floored slots along with the rest; it is refreshed in place after each
    half, so on return it is ``recompute_scale`` of the updated factors.
    ``scratch`` is two (bins, frames) work planes; see ``_weighted_power``.
    """
    _update_factor(basis, activation, power, sigma_p, p, nu, scratch)
    recompute_scale(basis, activation, p, out=sigma_p)
    _update_factor(activation.T, basis.T, power.T, sigma_p.T, p, nu, scratch.transpose(0, 2, 1))
    recompute_scale(basis, activation, p, out=sigma_p)


def convert_domain(basis, activation, sigma_p, p, new_p, refit_iters, scratch):
    """Re-express one source's scale model in a new domain exponent, in place.

    The scale tensor converts exactly, ``sigma^new_p = (sigma^p)^(new_p/p)``.
    The factors cannot convert exactly for L > 1, so each is raised to the
    power new_p/p and refit to the converted tensor by ``refit_iters``
    rounds of ``update_factors`` in the Gaussian limit, with
    ``target^(2/new_p)`` as the power they fit (so the refit objective is
    minimized exactly where the model meets the target).

    The target is taken from ``sigma_p``, which then holds ``recompute_scale``
    of the refit factors.  ``scratch`` is two (bins, frames) planes, for the
    refit's power and its update temporaries.  At an unchanged exponent
    nothing changes.
    """
    if new_p == p:
        return

    exponent = new_p / p
    # target^(2/new_p), formed over the target, makes the fixed point sit at
    # T @ V = target
    power = np.maximum(sigma_p, scale_floor(p), out=scratch[0])
    power **= exponent
    power = sigma_squared(power, new_p, out=power)
    for factor in (basis, activation):
        factor **= exponent
        np.maximum(factor, FLOOR, out=factor)
    # nu=inf keeps the refit free of the dof parameter, and its updates to
    # one work plane
    recompute_scale(basis, activation, new_p, out=sigma_p)
    for _ in range(refit_iters):
        update_factors(basis, activation, power, sigma_p, new_p, math.inf, scratch[1:])
