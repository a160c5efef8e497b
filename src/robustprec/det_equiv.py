"""Deterministic-equivalent (DE) per-user rate evaluation.

The expected data rate E[logdet(I + R^-1 H P P^H H^H)] under the posterior
channel law is approximated by a deterministic expression driven by a small
coupled fixed point.  Per user the fixed point carries two gain matrices
(transmit side m_t x m_t, receive side m_k x m_k) and their resolvent-type
companions.  The rate is scored in its transmit-side form (form 1); the
receive-side form, which agrees with it at the solution, is kept only as
the tests' cross-check.

For a zero-variance posterior the operators vanish and the rate collapses
to the exact logdet, so the evaluation is exact under perfect CSI.

The solver and form 1 work in beam coordinates: with p~ = V^H p formed once
per solve, the receive-side remainder is read from p~ by
operators._beam_rx_moment, as the interference covariances are, and the
transmit-side one is held as its beam diagonal g.  A sweep's products are
d x d and m_k x m_k and cost O(m_t (m_k + d)^2), and a solve holds no
m_t x m_t matrix; its tx_gain is rebuilt from tx_factors on read.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import FixedPointError, NumericalError
from .operators import (
    _beam_rx_moment,
    _to_beams,
    hermitize,
    interference_covariance,
    mean_quadratic_tx,
    tx_gain_diag,
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

    The general solver fills it with matrices but holds no m_t x m_t one:
    its sweep runs in beam coordinates, so held_tx_gain is None and tx_gain
    is rebuilt from tx_factors on each read.  The beam-domain solver, for
    zero-mean posteriors, fills it with the diagonals of the same quantities
    as per-beam (transmit side) and per-receive-dimension vectors, and holds
    its tx_gain.

    tx_gain: m_t x m_t effective transmit-side gain; the DE rate reads
        logdet(I + tx_gain P P^H) + correction terms.  A property: it is
        held_tx_gain when the state holds one, else rebuilt.
    rx_gain: m_k x m_k effective receive-side signal covariance.
    stream_mse: (I + P^H tx_gain P)^-1, the DE of the per-stream MSE matrix
        (per beam, 1 off the active support, in the beam domain), which
        form 1 and both MM updates' rate gradient tx_gain P stream_mse read.
    rx_mse: whitened receive-side counterpart of stream_mse.
    iterations, residual: sweeps taken and the final residual.
    whitener: R^-1/2 of the interference covariance the general solver
        whitened with, read by the rate forms; None in the beam domain.
    tx_factors: what the general solver's last sweep built tx_gain from
        (None in the beam domain): (kernel, L G L, L M, F^-1 L M) with L
        the whitener, G the receive-side resolvent that entered the sweep,
        M the posterior mean and F the sweep's receive-side factor, so
        tx_gain = hermitize(E[H~^H L G L H~] + (L M)^H F^-1 L M).  These
        O(m_k m_t) factors are all the state keeps of it; tx_gain alone
        reads them, rebuilding the matrix bit for bit alike on each read.
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
        return hermitize(mean_quadratic_tx(kern, c_rx) + lm.conj().T @ sol)


def _damped_sweeps(sweep, cold, init, tol, max_iter, gains=None,
                   tx_change=_rel_change):
    """The sweep loop and damping rule of both DE solvers.

    sweep(stream_mse, rx_mse) maps the carried resolvents to fresh
    (tx_gain, rx_gain, stream_mse, rx_mse).  Sweep 1 starts from the
    resolvents of the DEState init when given (a warm start), else from
    cold, a (stream_mse, rx_mse) pair.  The residual is the relative
    Frobenius change of the gains between sweeps, the transmit gain's as
    tx_change(new, old) reads it from what sweep returns; sweep 1 is
    measured against gains when given, else its residual is infinite.  The
    next carry is the proposed one blended halfway with the current one
    (damping 0.5) when the residual grew, or when the proposed step reverses
    the last one (negative real inner product) while the residual fell by
    less than 10%, which is how a slowly shrinking two-cycle shows.  Raises
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
                res = max(tx_change(tx_gain, gains[0]), _rel_change(rx_gain, gains[1]))
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


def _beam_tx_change(q):
    """tx_change of the beam sweep, whose transmit gain is the pair (g, m)
    with tx_gain = V diag(g) V^H + q m q^H, for q the orthonormal factor of
    (L M)^H = q r, so that (L M)^H F^-1 L M = q (r F^-1 L M q) q^H.

    V is unitary, so ||tx_gain||_F = ||diag(g) + w m w^H||_F with
    w = V^H q, whose square is g.g + 2 g.Re diag(w m w^H) + ||m||_F^2 for
    real g and any m: the relative change of the m_t x m_t gain in
    O(m_t m_k^2).  A square that overflows is taken again with (g, m)
    scaled by the exact power of two that brings their largest entry below
    1, so the norm stays finite wherever the gain is.
    """
    w = _to_beams(q)

    def sq_norm(g, m):
        diag = np.einsum("ij,ij->i", w @ m, w.conj()).real
        return g @ g + 2 * (g @ diag) + np.vdot(m, m).real

    def norm(g, m):
        sq, scale = sq_norm(g, m), 1.0
        if not np.isfinite(sq):
            scale = np.ldexp(1.0, -np.frexp(max(np.abs(g).max(), np.abs(m).max()))[1])
            sq = sq_norm(scale * g, scale * m)
        return np.sqrt(max(sq, 0.0)) / scale

    def change(new, old):
        diff = norm(new[0] - old[0], new[1] - old[1])
        return diff / max(norm(*new), 1e-300)

    return change


def solve_fixed_point(posterior, p, r, k, n, tol=1e-9, max_iter=500, init=None):
    """Solve the per-user DE fixed point by damped sweeps.

    One sweep maps the carried resolvents (stream_mse, rx_mse) through the
    correction factors to fresh gains and back; the loop and its damping
    are _damped_sweeps'.  The sweep runs in beam coordinates and the state
    holds no m_t x m_t matrix (see DEState); the residual is the relative
    change of the transmit gain all the same, computed by _beam_tx_change.

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
    lmp = lm @ p
    pt = _to_beams(p)
    q, upper = np.linalg.qr(lm.conj().T)

    factors = None  # the last sweep's, which built the returned tx_gain

    def sweep(g, gt):
        nonlocal factors
        c_rx = l @ gt @ l
        gain = tx_gain_diag(kern, c_rx)
        e_rx = _beam_rx_moment(kern, pt, g)
        quad = (pt.conj().T * gain) @ pt  # p^H e_tx p
        rx_factor = eye_m + l @ e_rx @ l
        factors = kern, c_rx, lm, np.linalg.solve(rx_factor, lm)
        tx_quad = quad + lmp.conj().T @ (factors[3] @ p)
        rx_gain = hermitize(e_rx + mp @ np.linalg.solve(eye_d + quad, mp.conj().T))
        return ((gain, upper @ factors[3] @ q), rx_gain,
                np.linalg.inv(eye_d + tx_quad),
                np.linalg.inv(eye_m + l @ rx_gain @ l))

    state = _damped_sweeps(sweep, (eye_d, eye_m), init, tol, max_iter,
                           tx_change=_beam_tx_change(q))
    state.held_tx_gain = None  # the pair (g, m); tx_factors rebuild it
    state.whitener, state.tx_factors = l, factors
    return state


def de_rate_form1(state, posterior, p, k, n):
    """DE rate, transmit-side form (nats); clamped at 0.

    Its first term, logdet(I + P^H tx_gain P), is read as -logdet(stream_mse),
    so it forms no m_t x m_t matrix and reads no tx_factors."""
    kern = posterior.kernel(k, n)
    l = state.whitener
    e_rx = _beam_rx_moment(kern, _to_beams(p), state.stream_mse)
    t_rx = hermitize(l @ state.rx_mse @ l)
    term1 = -_logdet(state.stream_mse)
    term2 = _logdet(np.eye(kern.m_k) + l @ e_rx @ l)
    term3 = np.trace(e_rx @ t_rx).real
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
    states, which hold their transmit gains as factors, and interference
    covariances for reuse by the optimizers.
    """
    k_users = len(precoders)
    states, rates, covs = [], [], []
    for k in range(k_users):
        r = interference_covariance(posterior, precoders, k, n, sigma2_z)
        init = init_states[k] if init_states is not None else None
        state = solve_fixed_point(posterior, precoders[k], r, k, n, init=init)
        states.append(state)
        rates.append(de_rate_form1(state, posterior, precoders[k], k, n))
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
