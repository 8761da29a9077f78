"""Spatial half of the separation: weighted covariances, iterative-projection
row updates, per-source rescaling, and back-projection to source images.

Frequency bins are mutually independent, so every operation here takes the
whole stack of bins at once, one source or one demixing row at a time: the
matrices of all bins go through one stacked numpy call.  Only ``back_project``
takes the complex estimates y; the rest takes their real power |y|^2.  A bin
whose matrix LAPACK cannot factor, or whose result is not finite, is flagged
or named in a ``SingularMatrixError``; numpy's ``LinAlgError`` never escapes.

The observation enters the covariances only through its outer products
x_ij x_ij^H, which do not change during a run.  ``outer_products`` stores
them once as M^2 real coordinates per slot, and ``weighted_covariance`` is
then one real weighted sum over frames per source, unpacked into the
Hermitian M x M result.
"""

import math

import numpy as np

from .errors import DegenerateSourceError, SingularMatrixError
from .source_model import _t_weight

# Sources whose average power drops below this are considered collapsed.
DEGENERATE_POWER = 1e-150

# An IP rescaling by a quadratic form below this is treated as singular.
PIVOT_FLOOR = 1e-300


def solve_unit(mats, n):
    """Solve mats[i] v_i = e_n in every bin, without forming an inverse.

    A stacked ``numpy.linalg.solve`` raises for the whole stack when one
    matrix is exactly singular; only then is the stack walked bin by bin.

    Parameters
    ----------
    mats: ndarray (bins, M, M), complex
    n: int
        Index of the unit vector.

    Returns
    -------
    ndarray (bins, M); NaN in the bins LAPACK found singular.
    """
    rhs = np.zeros(mats.shape[:2] + (1,), dtype=np.complex128)
    rhs[:, n] = 1.0
    try:
        return np.linalg.solve(mats, rhs)[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(mats.shape[:2], np.nan, dtype=np.complex128)
        for i, (mat, col) in enumerate(zip(mats, rhs)):
            try:
                out[i] = np.linalg.solve(mat, col)[:, 0]
            except np.linalg.LinAlgError:
                pass  # stays NaN; the caller's finiteness check flags the bin
        return out


def outer_products(obs):
    """Real coordinates of every outer product x_ij x_ij^H, (bins, frames, M^2).

    Column m < M holds |x_m|^2; then, for each pair a < b in row-major order
    (``np.triu_indices(M, 1)``), two columns hold Re and Im of x_a x_b^*.
    Together they fix the Hermitian matrix x x^H: entry (a, b) above the
    diagonal is Re + i Im of its pair, and entry (b, a) its conjugate.

    Parameters
    ----------
    obs: ndarray (bins, frames, M), complex
    """
    num_bins, num_frames, m = obs.shape
    stats = np.empty((num_bins, num_frames, m * m))
    # filled column by column: no (bins, frames, pairs) complex temporaries
    for a in range(m):
        np.square(obs[..., a].real, out=stats[..., a])
        stats[..., a] += np.square(obs[..., a].imag)
    for k, (a, b) in enumerate(zip(*np.triu_indices(m, 1))):
        prod = obs[..., a] * obs[..., b].conj()
        stats[..., m + 2 * k] = prod.real
        stats[..., m + 2 * k + 1] = prod.imag
    return stats


def weighted_covariance(stats, power, sigma_sq, nu, scratch=None):
    """Weighted sample covariances of one source in every bin.

    U_i = (1 + 2/nu)/J sum_j weight_ij x_ij x_ij^H, formed as one real
    product of the weights with the run-constant coordinates of
    ``outer_products`` and unpacked into the Hermitian result.

    Parameters
    ----------
    stats: ndarray (bins, frames, M^2), real
        ``outer_products`` of the observation.
    power: ndarray (bins, frames)
        |y|^2 of this source's current estimate.
    sigma_sq: ndarray (bins, frames)
        Squared scale of this source.
    nu: float
        Degrees of freedom; ``inf`` gives (1/J) sum x x^H / sigma^2 exactly.
    scratch: ndarray (bins, frames), optional
        Plane for the weights, in place of a fresh one.

    Returns
    -------
    ndarray (bins, M, M), complex, Hermitian positive semidefinite.
    """
    # sigma_sq > 0 is a caller contract.  The source model floors sigma^p
    # where it produces it; after ``normalize`` a floored slot holds
    # eta^-p times the floor, so sigma_sq may sit below FLOOR.
    w = _t_weight(sigma_sq, power, nu, out=scratch)
    coords = (w[:, None, :] @ stats)[:, 0, :]
    coords *= (1.0 + 2.0 / nu) / stats.shape[1]
    m = math.isqrt(stats.shape[2])
    diag = np.arange(m)
    rows, cols = np.triu_indices(m, 1)
    cov = np.empty((stats.shape[0], m, m), dtype=np.complex128)
    cov[:, diag, diag] = coords[:, :m]
    re, im = coords[:, m::2], coords[:, m + 1::2]
    cov[:, rows, cols] = re + 1j * im
    cov[:, cols, rows] = re - 1j * im
    return cov


def ip_update(w_stack, cov, n):
    """Iterative-projection update of demixing row n in every bin.

    Solves (W_i U_i) w_i = e_n, then rescales so that w_i^H U_i w_i = 1.
    The returned vectors are the new filters; the caller stores their
    conjugates as row n.

    Returns
    -------
    (w, singular): ndarray (bins, M) of filters, and a boolean (bins,) mask
    of the bins where W U could not be solved (a LAPACK failure or a
    non-finite solution) or the quadratic form collapsed below
    ``PIVOT_FLOOR``.  Their rows in ``w`` are meaningless; the caller is
    expected to retry them with ridge-loaded covariances.
    """
    w = solve_unit(w_stack @ cov, n)
    w[~np.all(np.isfinite(w), axis=1)] = 0.0  # a zero quadratic form flags these
    quad = np.real(np.sum(np.conj(w) * (cov @ w[:, :, None])[:, :, 0], axis=1))
    singular = ~(quad >= PIVOT_FLOOR)
    w /= np.sqrt(np.where(singular, 1.0, quad))[:, None]
    return w, singular


def ridge_covariance(cov):
    """Covariances with a small diagonal load, for singular-system recovery.

    Takes one (M, M) matrix or a (bins, M, M) stack; each matrix is loaded
    by 1e-12 times its mean diagonal.
    """
    n = cov.shape[-1]
    eps = 1e-12 * np.real(np.trace(cov, axis1=-2, axis2=-1)) / n
    return cov + eps[..., None, None] * np.eye(n)


def head_residual(w_stack, cov, n):
    """max over bins and k of |w_k^H U_n w_n - delta_kn|, a fixed-point diagnostic.

    ``cov`` holds source n's weighted covariances, (bins, M, M).
    """
    # rows of W are w_k^H, so W U_n w_n stacks w_k^H U_n w_n over k
    vals = w_stack @ (cov @ np.conj(w_stack[:, n, :, None]))
    vals[:, n] -= 1.0
    return float(np.max(np.abs(vals)))


def normalize(w_stack, power, sigma_p, factors, n):
    """Rescale source n to unit average power, in place.

    Applies w <- w/eta, power <- power eta^-2, sigma^p <- sigma^p eta^-p,
    T <- T eta^-p to source n alone, with eta the RMS of its y; ``power`` is
    |y|^2, (sources, bins, frames).  The cost function is invariant under this
    rescaling; it only fixes the scale ambiguity between W and the source model.

    The scaling is exact, with no floor re-applied: a slot of sigma^p or T
    that sat at its floor holds eta^-p times that floor afterwards, until the
    next ``recompute_scale`` or factor update floors it again.  Clamping here
    would not scale with eta and would change the cost.

    Returns the float eta; raises ``DegenerateSourceError`` if the source's
    average power has collapsed to zero.
    """
    eta = math.sqrt(np.mean(power[n]))
    if eta < DEGENERATE_POWER:
        raise DegenerateSourceError(f"source {n} has (near-)zero power")
    p = factors[n].p
    w_stack[:, n, :] /= eta
    power[n] *= eta ** -2.0
    sigma_p[n] *= eta ** (-p)
    factors[n].basis *= eta ** (-p)
    return eta


def back_project(w_stack, y_values, n):
    """Multichannel image of source n.

    y_hat_ij = W_i^-1 (e_n o y_ij) reduces to y_ij,n times column n of
    W_i^-1, since the masked vector has a single nonzero entry; that column
    is the solution of W_i v = e_n.

    Returns
    -------
    ndarray (bins, frames, channels), complex.

    Raises
    ------
    SingularMatrixError
        Naming the first bin whose demixing matrix has no finite solution.
    """
    mix_col = solve_unit(w_stack, n)
    bad = ~np.all(np.isfinite(mix_col), axis=1)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        raise SingularMatrixError(f"bin {i}: demixing matrix has no finite inverse")
    return y_values[:, :, n, None] * mix_col[:, None, :]
