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

from .errors import FixedPointError, NumericalError
from .operators import (
    hermitize,
    interference_covariance,
    mean_quadratic_rx,
    mean_quadratic_tx,
)


def inverse_sqrt_psd(r):
    """Hermitian inverse square root of a Hermitian PSD matrix.

    r must be Hermitian: only its lower triangle is read.  Eigenvalues are
    floored at 1e-14 * trace / m to keep nearly singular covariances
    invertible without changing well-scaled ones.
    """
    vals, vecs = np.linalg.eigh(r)
    floor = max(1e-14 * np.trace(r).real / r.shape[0], 1e-300)
    vals = np.maximum(vals, floor)
    return (vecs / np.sqrt(vals)) @ vecs.conj().T


def _logdet(m):
    return float(np.linalg.slogdet(m)[1])


def _rel_change(new, old):
    return np.linalg.norm(new - old) / max(np.linalg.norm(new), 1e-300)


@dataclass
class DEState:
    """Converged fixed-point quantities for one (user, block, precoder set).

    The general solver fills it with matrices; the beam-domain solver, for
    zero-mean posteriors, with the diagonals of the same quantities as
    per-beam (transmit side) and per-receive-dimension vectors.

    tx_gain: m_t x m_t effective transmit-side gain; the DE rate reads
        logdet(I + tx_gain P P^H) + correction terms.  A property: it is
        held_tx_gain while the state holds the matrix, else rebuilt.
    rx_gain: m_k x m_k effective receive-side signal covariance.
    stream_mse: (I + P^H tx_gain P)^-1, the DE of the per-stream MSE matrix
        (per beam, 1 off the active support, in the beam domain).
    rx_mse: whitened receive-side counterpart of stream_mse.
    iterations, residual: sweeps taken and the final residual.
    whitener: R^-1/2 of the interference covariance the general solver
        whitened with, read by the rate forms; None in the beam domain.
    tx_factors: what the general solver's last sweep built tx_gain from
        (None in the beam domain): (kernel, L G L, L M, F^-1 L M) with L
        the whitener, G the receive-side resolvent that entered the sweep,
        M the posterior mean and F the sweep's receive-side factor, so
        tx_gain = hermitize(E[H~^H L G L H~] + (L M)^H F^-1 L M).  A held
        state (held_tx_gain None), as de_weighted_sum_rate returns, keeps
        these O(m_k m_t) factors alone, and each read of tx_gain rebuilds
        the m_t x m_t matrix by the sweep's own operations, so every bit
        matches.
    """

    held_tx_gain: np.ndarray
    rx_gain: np.ndarray
    stream_mse: np.ndarray
    rx_mse: np.ndarray
    iterations: int
    residual: float
    whitener: np.ndarray = None
    tx_factors: tuple = None

    @property
    def tx_gain(self):
        if self.held_tx_gain is not None:
            return self.held_tx_gain
        kern, c_rx, lm, sol = self.tx_factors
        return _tx_gain(mean_quadratic_tx(kern, c_rx), lm, sol)


def _tx_gain(e_tx, lm, sol):
    """The transmit-side gain from its remainder term e_tx and the factors
    of its mean term."""
    return hermitize(e_tx + lm.conj().T @ sol)


def _damped_sweeps(sweep, cold, init, tol, max_iter, gains=None):
    """The sweep loop and damping rule of both DE solvers.

    sweep(stream_mse, rx_mse) maps the carried resolvents to fresh
    (tx_gain, rx_gain, stream_mse, rx_mse).  Sweep 1 starts from the
    resolvents of the DEState init when given (a warm start), else from
    cold, a (stream_mse, rx_mse) pair.  The residual is the relative
    Frobenius change of the gains between sweeps; sweep 1 is measured
    against gains when given, else its residual is infinite.  The next
    carry is the proposed one blended halfway with the current one (damping
    0.5) when the residual grew, or when the proposed step reverses the last
    one (negative real inner product) while the residual fell by less than
    10%, which is how a slowly shrinking two-cycle shows.  Raises
    FixedPointError if tol is not reached within max_iter sweeps, or if a
    sweep meets a singular matrix.
    """
    carry = cold if init is None else (init.stream_mse, init.rx_mse)
    res = res_prev = np.inf
    step_prev = None
    for it in range(1, max_iter + 1):
        try:
            tx_gain, rx_gain, *proposed = sweep(*carry)
        except np.linalg.LinAlgError as e:
            raise FixedPointError(f"DE fixed point: sweep {it} failed: {e}") from None
        if gains is not None:
            with np.errstate(over="ignore", invalid="ignore"):  # FixedPointError reports it
                res = max(_rel_change(tx_gain, gains[0]), _rel_change(rx_gain, gains[1]))
        gains = tx_gain, rx_gain
        if res <= tol:
            return DEState(tx_gain, rx_gain, *proposed, it, res)
        step = [new - old for new, old in zip(proposed, carry)]
        reverses = step_prev is not None and res > 0.9 * res_prev and sum(
            np.vdot(a, b).real for a, b in zip(step_prev, step)) < 0
        if res > res_prev or reverses:
            carry = [0.5 * (old + new) for old, new in zip(carry, proposed)]
        else:
            carry = proposed
        step_prev, res_prev = step, res
    raise FixedPointError(
        f"DE fixed point: residual {res:.3e} > tol {tol:.1e} after {max_iter} sweeps")


def solve_fixed_point(posterior, p, r, k, n, tol=1e-9, max_iter=500, init=None):
    """Solve the per-user DE fixed point by damped sweeps.

    One sweep maps the carried resolvents (stream_mse, rx_mse) through the
    correction factors to fresh gain matrices and back; the loop and its
    damping are _damped_sweeps'.

    init: warm start from a previous DEState of the same shapes.  Raises
    FixedPointError if tol is not reached within max_iter sweeps, or if a
    sweep meets a singular matrix.
    """
    kern = posterior.kernel(k, n)
    mean = posterior.mean(k, n)
    eye_d = np.eye(p.shape[1], dtype=complex)
    eye_m = np.eye(kern.m_k, dtype=complex)
    l = inverse_sqrt_psd(r)
    lm = l @ mean
    mp = mean @ p

    factors = None  # the last sweep's, which built the returned tx_gain

    def sweep(g, gt):
        nonlocal factors
        c_rx = l @ gt @ l
        e_tx = mean_quadratic_tx(kern, c_rx)
        e_rx = mean_quadratic_rx(kern, p @ g @ p.conj().T)
        stream_factor = eye_d + p.conj().T @ e_tx @ p
        rx_factor = eye_m + l @ e_rx @ l
        factors = kern, c_rx, lm, np.linalg.solve(rx_factor, lm)
        tx_gain = _tx_gain(e_tx, lm, factors[3])
        rx_gain = hermitize(e_rx + mp @ np.linalg.solve(stream_factor, mp.conj().T))
        return (tx_gain, rx_gain, np.linalg.inv(eye_d + p.conj().T @ tx_gain @ p),
                np.linalg.inv(eye_m + l @ rx_gain @ l))

    state = _damped_sweeps(sweep, (eye_d, eye_m), init, tol, max_iter)
    state.whitener, state.tx_factors = l, factors
    return state


def de_rate_form1(state, posterior, p, k, n):
    """DE rate, transmit-side form (nats); clamped at 0."""
    kern = posterior.kernel(k, n)
    l = state.whitener
    d = p.shape[1]
    e_rx = mean_quadratic_rx(kern, p @ state.stream_mse @ p.conj().T)
    t_rx = hermitize(l @ state.rx_mse @ l)
    term1 = _logdet(np.eye(d) + p.conj().T @ state.tx_gain @ p)
    term2 = _logdet(np.eye(kern.m_k) + l @ e_rx @ l)
    term3 = np.trace(e_rx @ t_rx).real
    return max(term1 + term2 - term3, 0.0)


def de_rate_form2(state, posterior, p, k, n):
    """DE rate, receive-side form (nats); agrees with form 1 at the solution."""
    kern = posterior.kernel(k, n)
    l = state.whitener
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
                         init_states=None):
    """Weighted DE sum rate at block n for a full precoder set.

    Solves one fixed point per user (optionally warm-started from
    init_states) and sums the form-1 rates.  Also returns the per-user
    states, held with their transmit gains as factors (form 1 is scored
    first, from the matrix in hand), and interference covariances for reuse
    by the optimizers.
    """
    k_users = len(precoders)
    states, rates, covs = [], [], []
    for k in range(k_users):
        r = interference_covariance(posterior, precoders, k, n, sigma2_z)
        init = init_states[k] if init_states is not None else None
        state = solve_fixed_point(posterior, precoders[k], r, k, n, init=init)
        rate = de_rate_form1(state, posterior, precoders[k], k, n)
        state.held_tx_gain = None  # tx_factors rebuild it
        states.append(state)
        rates.append(rate)
        covs.append(r)
    total = _weighted_total(weights, rates, f"the DE weighted sum rate at block {n}")
    return DESumRate(total, rates, states, covs)


def _weighted_total(weights, rates, what):
    """sum_k weights[k] * rates[k], added in user order.  A total that is
    not finite is a NumericalError naming what overflowed."""
    total = 0.0
    with np.errstate(over="ignore"):  # the NumericalError below reports it
        for w, rate in zip(weights, rates):
            total += w * rate
    if not np.isfinite(total):
        raise NumericalError(f"{what} is not finite (a weighted sum overflowed)")
    return total
