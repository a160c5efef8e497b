"""Classical downlink precoders used as comparison points.

Three families: regularized channel inversion (plain and error-aware),
leakage-ratio eigenbeams, and the alternating sum-MSE descent. All act on
explicit channel matrices (or posterior means) rather than on covariance
statistics, so they carry one stream per receive antenna.
"""
from __future__ import annotations

import numpy as np

from .errors import NumericalError
from .mm_precoder import mu_bisection, normalize_power
from .operators import hermitize, mean_quadratic_tx


def _split_columns(g, sizes):
    out, start = [], 0
    for s in sizes:
        out.append(g[:, start:start + s])
        start += s
    return out


def perfect_csi_rate(channels, precoders, weights, sigma2_z):
    """Weighted sum rate (nats) for known channels and linear precoding."""
    total = 0.0
    for k, h in enumerate(channels):
        m_k = h.shape[0]
        cov = sigma2_z * np.eye(m_k, dtype=complex)
        for l, p in enumerate(precoders):
            if l != k:
                hp = h @ p
                cov = cov + hp @ hp.conj().T
        hp = h @ precoders[k]
        full = cov + hp @ hp.conj().T
        total += weights[k] * (np.linalg.slogdet(full)[1]
                               - np.linalg.slogdet(cov)[1])
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
    return normalize_power(_split_columns(g, [c.shape[0] for c in channels]),
                           p_total)


def slnr(channels, p_total, sigma2_z):
    """Per-user leakage-ratio eigenbeams with a uniform power split.

    User k transmits along the top generalized eigenvectors of its own
    Gram matrix against noise plus everyone else's; columns are unit
    vectors scaled so each user spends p_total / K.  Raises NumericalError
    when that denominator is not numerically positive definite (noise far
    below the Gram matrices' round-off).
    """
    from scipy.linalg import eigh

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
            _, vecs = eigh(hermitize(grams[k]), hermitize(den))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"slnr: user {k}'s leakage matrix is not "
                                 f"positive definite ({exc})") from exc
        top = vecs[:, ::-1][:, :m_k]  # eigh is ascending
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

    Deterministic given its inputs. Stops when the known-channel weighted
    sum rate moves by less than 1e-8 (relative). Returns (precoders, rates).
    """
    precoders = rzf(channels, p_total, sigma2_z)
    rates = [perfect_csi_rate(channels, precoders, weights, sigma2_z)]
    for _ in range(iters):
        precoders, _ = wmmse_step(channels, precoders, weights, sigma2_z,
                                  p_total, tol_power=tol_power)
        rates.append(perfect_csi_rate(channels, precoders, weights, sigma2_z))
        if abs(rates[-1] - rates[-2]) <= 1e-8 * (1 + abs(rates[-1])):
            break
    return precoders, rates


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
    gram = h.conj().T @ h + reg * np.eye(m_t)
    for k in range(k_users):
        m_k = means[k].shape[0]
        gram = gram + load_scale * mean_quadratic_tx(
            posterior.kernel(k, n), np.eye(m_k, dtype=complex))
    g = np.linalg.solve(hermitize(gram), h.conj().T)
    return normalize_power(_split_columns(g, [m.shape[0] for m in means]),
                           p_total)
