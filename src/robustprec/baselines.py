"""Classical downlink precoders used as comparison points.

Three families: regularized channel inversion (plain and error-aware),
leakage-ratio eigenbeams, and the alternating sum-MSE descent. All act on
explicit channel matrices (or posterior means) rather than on covariance
statistics, so they carry one stream per receive antenna.
"""
from __future__ import annotations

import numpy as np

from .det_equiv import _weighted_total
from .errors import NumericalError
from .mm_precoder import _mm_loop, mu_bisection, normalize_power
from .operators import _beam_matrix, hermitize, tx_gain_diag


def perfect_csi_rate(channels, precoders, weights, sigma2_z):
    """Weighted sum rate (nats) for known channels and linear precoding;
    a total that overflows is a NumericalError."""
    rates = []
    for k, h in enumerate(channels):
        m_k = h.shape[0]
        cov = sigma2_z * np.eye(m_k, dtype=complex)
        for l, p in enumerate(precoders):
            if l != k:
                hp = h @ p
                cov = cov + hp @ hp.conj().T
        hp = h @ precoders[k]
        full = cov + hp @ hp.conj().T
        rates.append(np.linalg.slogdet(full)[1] - np.linalg.slogdet(cov)[1])
    total = _weighted_total(weights, rates, "the known-channel weighted sum rate")
    return float(total.real)


def rzf(channels, p_total, sigma2_z):
    """Regularized zero-forcing from stacked channel rows.

    Hermitian regularizer K sigma2_z / p_total; the result is split into
    per-user column blocks and rescaled once so the total power is p_total
    (NumericalError when every channel is zero).
    """
    k_users = len(channels)
    h = np.vstack(channels)
    reg = k_users * sigma2_z / p_total
    gram = h @ h.conj().T + reg * np.eye(h.shape[0])
    g = np.linalg.solve(gram, h).conj().T
    sizes = [c.shape[0] for c in channels]
    return normalize_power(np.split(g, np.cumsum(sizes)[:-1], axis=1), p_total)


def slnr(channels, p_total, sigma2_z):
    """Per-user leakage-ratio eigenbeams with a uniform power split.

    User k transmits along the top generalized eigenvectors x of its own
    Gram matrix A against noise plus everyone else's, B: A x = lambda B x,
    reduced to a standard problem by the Cholesky factor B = L L^H, so
    x = L^-H y for the eigenvectors y of L^-1 A L^-H.  Columns are unit
    vectors scaled so each user spends p_total / K.  Raises NumericalError
    when B is not numerically positive definite (noise far below the Gram
    matrices' round-off): its Cholesky factor fails, or the reduction is
    not finite.
    """
    k_users = len(channels)
    grams = [h.conj().T @ h for h in channels]
    out = []
    for k, h in enumerate(channels):
        m_k, m_t = h.shape
        den = (sigma2_z * m_k * k_users / p_total) * np.eye(m_t, dtype=complex)
        for l in range(k_users):
            if l != k:
                den = den + grams[l]
        try:
            low = np.linalg.cholesky(hermitize(den))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"slnr: user {k}'s leakage matrix is not "
                                 f"positive definite ({exc})") from exc
        half = np.linalg.solve(low, grams[k])  # L^-1 A
        reduced = np.linalg.solve(low, half.conj().T)  # L^-1 A^H L^-H
        if not np.isfinite(reduced).all():
            raise NumericalError(f"slnr: user {k}'s leakage matrix is not "
                                 "positive definite (its reduction is not "
                                 "finite)")
        _, vecs = np.linalg.eigh(hermitize(reduced))
        # eigh is ascending
        top = np.linalg.solve(low.conj().T, vecs[:, ::-1][:, :m_k])
        top = top / np.linalg.norm(top, axis=0, keepdims=True)
        out.append(np.sqrt(p_total / (k_users * m_k)) * top)
    return out


def wmmse_step(channels, precoders, weights, sigma2_z, p_total,
               tol_power=1e-6):
    """One alternating sum-MSE update: receive filters, MSE weights, then
    the power-constrained transmit update through the shared bisection.

    Returns (new_precoders, mu).
    """
    k_users = len(channels)
    filters, mse_w = [], []
    for k, h in enumerate(channels):
        m_k = h.shape[0]
        cov = sigma2_z * np.eye(m_k, dtype=complex)
        for p in precoders:
            hp = h @ p
            cov = cov + hp @ hp.conj().T
        hp = h @ precoders[k]
        g = np.linalg.solve(cov, hp)
        err = hermitize(np.eye(hp.shape[1], dtype=complex) - hp.conj().T @ g)
        filters.append(g)
        mse_w.append(np.linalg.inv(err))
    shared = None
    rhs = []
    for k, h in enumerate(channels):
        hg = h.conj().T @ filters[k]
        term = weights[k] * hermitize(hg @ mse_w[k] @ hg.conj().T)
        shared = term if shared is None else shared + term
        rhs.append(weights[k] * hg @ mse_w[k])
    mu, new_p = mu_bisection(rhs, [shared] * k_users, p_total,
                             tol_power=tol_power)
    return new_p, mu


def wmmse(channels, p_total, sigma2_z, weights, iters=100, tol_power=1e-6):
    """Alternating sum-MSE precoding from a regularized-inversion start.

    Deterministic given its inputs. Runs the MM ascent loop on the
    known-channel weighted sum rate, stopping when it moves by less than
    1e-8 (relative), and returns that loop's MMReport.
    """
    def evaluate(precoders, states):
        return perfect_csi_rate(channels, precoders, weights, sigma2_z), (), None

    def update(precoders, states, aux):
        new_p, mu = wmmse_step(channels, precoders, weights, sigma2_z,
                               p_total, tol_power=tol_power)
        return mu, new_p

    return _mm_loop(evaluate, update, rzf(channels, p_total, sigma2_z),
                    iters, 1e-8)


def robust_rzf(posterior, n, p_total, sigma2_z, load_scale=1.0):
    """Error-aware regularized inversion of the block-n posterior means.

    The channel-uncertainty Gram sum_k E[err_k^H err_k] joins the noise
    regularizer, which is what the transmit-MSE objective prescribes; with
    no uncertainty it collapses to plain rzf on the means.  Zero means (a
    zero-mean posterior) leave nothing to invert: NumericalError.
    """
    k_users = posterior.n_users
    means = [posterior.mean(k, n) for k in range(k_users)]
    m_t = means[0].shape[1]
    h = np.vstack(means)
    reg = k_users * sigma2_z / p_total
    load = sum(tx_gain_diag(posterior.kernel(k, n), np.eye(len(means[k])))
               for k in range(k_users))
    gram = h.conj().T @ h + reg * np.eye(m_t) + load_scale * _beam_matrix(load)
    g = np.linalg.solve(hermitize(gram), h.conj().T)
    sizes = [m.shape[0] for m in means]
    return normalize_power(np.split(g, np.cumsum(sizes)[:-1], axis=1), p_total)
