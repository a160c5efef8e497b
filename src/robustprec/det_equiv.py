"""Deterministic-equivalent (DE) per-user rate evaluation.

The expected data rate E[logdet(I + R^-1 H P P^H H^H)] under the posterior
channel law is approximated by a deterministic expression driven by a small
coupled fixed point.  Per user the fixed point carries two gain matrices
(transmit side m_t x m_t, receive side m_k x m_k) and their resolvent-type
companions; the rate then has two algebraically equivalent forms that must
agree at the solution, which doubles as a convergence diagnostic.

For a zero-variance posterior the operators vanish and both forms collapse
to the exact logdet, so the evaluation is exact under perfect CSI.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FixedPointError
from .operators import (
    hermitize,
    interference_covariance,
    mean_quadratic_rx,
    mean_quadratic_tx,
)

__all__ = [
    "DEState",
    "inverse_sqrt_psd",
    "solve_fixed_point",
    "de_rate_form1",
    "de_rate_form2",
    "de_weighted_sum_rate",
    "DESumRate",
]


def inverse_sqrt_psd(r, floor_scale=1e-14):
    """Hermitian inverse square root of a Hermitian PSD matrix.

    r must be Hermitian: only its lower triangle is read.  Eigenvalues are
    floored at floor_scale * trace / m to keep nearly singular covariances
    invertible without changing well-scaled ones.
    """
    vals, vecs = np.linalg.eigh(r)
    floor = max(floor_scale * np.trace(r).real / r.shape[0], 1e-300)
    vals = np.maximum(vals, floor)
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def _logdet(m):
    return float(np.linalg.slogdet(m)[1])


def _rel_change(new, old):
    return np.linalg.norm(new - old) / max(np.linalg.norm(new), 1e-300)


@dataclass
class DEState:
    """Converged fixed-point quantities for one (user, block, precoder set).

    tx_gain: m_t x m_t effective transmit-side gain; the DE rate reads
        logdet(I + tx_gain P P^H) + correction terms.
    rx_gain: m_k x m_k effective receive-side signal covariance.
    stream_factor / rx_factor: d x d and m_k x m_k correction factors whose
        logdets enter the two rate forms.
    stream_mse: (I + P^H tx_gain P)^-1, the DE of the per-stream MSE matrix.
    rx_mse: whitened receive-side counterpart of stream_mse.
    """

    tx_gain: np.ndarray
    rx_gain: np.ndarray
    stream_factor: np.ndarray
    rx_factor: np.ndarray
    stream_mse: np.ndarray
    rx_mse: np.ndarray
    iterations: int
    residual: float


def solve_fixed_point(posterior, p, r, k, n, tol=1e-9, max_iter=500, init=None,
                      trace=None):
    """Solve the per-user DE fixed point by damped sweeps.

    One sweep maps the carried resolvents (stream_mse, rx_mse) through the
    correction factors to fresh gain matrices and back.  The residual is the
    relative Frobenius change of the gains between sweeps; when it grows the
    next carry is blended halfway with the previous one (damping 0.5).

    init: warm start from a previous DEState.  trace: list collecting
    (sweep, residual) rows.  Raises FixedPointError if tol is not reached
    within max_iter sweeps.
    """
    kern = posterior.kernel(k, n)
    mean = posterior.mean(k, n)
    d = p.shape[1]
    m_k = kern.m_k
    eye_d = np.eye(d, dtype=complex)
    eye_m = np.eye(m_k, dtype=complex)
    l = inverse_sqrt_psd(r)
    lm = l @ mean

    if init is not None:
        g, gt = init.stream_mse, init.rx_mse
        if g.shape != (d, d):
            g = eye_d
    else:
        g, gt = eye_d, eye_m

    tx_prev = rx_prev = None
    res = res_prev = np.inf
    for sweep in range(1, max_iter + 1):
        e_tx = mean_quadratic_tx(kern, l @ gt @ l)
        e_rx = mean_quadratic_rx(kern, p @ g @ p.conj().T)

        stream_factor = eye_d + p.conj().T @ e_tx @ p
        rx_factor = eye_m + l @ e_rx @ l
        tx_gain = hermitize(e_tx + lm.conj().T @ np.linalg.solve(rx_factor, lm))
        mp = mean @ p
        rx_gain = hermitize(e_rx + mp @ np.linalg.solve(stream_factor, mp.conj().T))
        g_new = np.linalg.inv(eye_d + p.conj().T @ tx_gain @ p)
        gt_new = np.linalg.inv(eye_m + l @ rx_gain @ l)

        if tx_prev is not None:
            res = max(_rel_change(tx_gain, tx_prev), _rel_change(rx_gain, rx_prev))
        tx_prev, rx_prev = tx_gain, rx_gain
        if trace is not None:
            trace.append((sweep, res))
        if res <= tol:
            return DEState(tx_gain, rx_gain, stream_factor, rx_factor,
                           g_new, gt_new, sweep, res)
        if res > res_prev:
            g = 0.5 * (g + g_new)
            gt = 0.5 * (gt + gt_new)
        else:
            g, gt = g_new, gt_new
        res_prev = res
    raise FixedPointError(
        f"DE fixed point: residual {res:.3e} > tol {tol:.1e} after {max_iter} sweeps")


def de_rate_form1(state, posterior, p, r, k, n):
    """DE rate, transmit-side form (nats); clamped at 0."""
    kern = posterior.kernel(k, n)
    l = inverse_sqrt_psd(r)
    d = p.shape[1]
    e_rx = mean_quadratic_rx(kern, p @ state.stream_mse @ p.conj().T)
    t_rx = hermitize(l @ state.rx_mse @ l)
    term1 = _logdet(np.eye(d) + p.conj().T @ state.tx_gain @ p)
    term2 = _logdet(np.eye(kern.m_k) + l @ e_rx @ l)
    term3 = np.trace(e_rx @ t_rx).real
    return max(term1 + term2 - term3, 0.0)


def de_rate_form2(state, posterior, p, r, k, n):
    """DE rate, receive-side form (nats); agrees with form 1 at the solution."""
    kern = posterior.kernel(k, n)
    l = inverse_sqrt_psd(r)
    d = p.shape[1]
    e_tx = mean_quadratic_tx(kern, l @ state.rx_mse @ l)
    pgp = hermitize(p @ state.stream_mse @ p.conj().T)
    term1 = _logdet(np.eye(kern.m_k) + l @ state.rx_gain @ l)
    term2 = _logdet(np.eye(d) + p.conj().T @ e_tx @ p)
    term3 = np.trace(pgp @ e_tx).real
    return max(term1 + term2 - term3, 0.0)


class DESumRate(NamedTuple):
    total: float
    rates: list
    states: list
    covariances: list


def de_weighted_sum_rate(posterior, precoders, weights, sigma2_z, n,
                         tol=1e-9, max_iter=500, init_states=None):
    """Weighted DE sum rate at block n for a full precoder set.

    Solves one fixed point per user (optionally warm-started from
    init_states) and sums the form-1 rates.  Also returns the per-user
    states and interference covariances for reuse by the optimizers.
    """
    k_users = len(precoders)
    states, rates, covs = [], [], []
    total = 0.0
    for k in range(k_users):
        r = interference_covariance(posterior, precoders, k, n, sigma2_z)
        init = init_states[k] if init_states is not None else None
        state = solve_fixed_point(posterior, precoders[k], r, k, n,
                                  tol=tol, max_iter=max_iter, init=init)
        rate = de_rate_form1(state, posterior, precoders[k], r, k, n)
        states.append(state)
        rates.append(rate)
        covs.append(r)
        total += weights[k] * rate
    return DESumRate(total, rates, states, covs)
