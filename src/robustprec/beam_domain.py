"""Beam-domain power allocation for the zero-mean (statistics-only) regime.

When the posterior mean is zero, stationary precoders align with the
transmit basis up to a permutation, so the design collapses to allocating
power over ordered beams.  Every iterate quantity is then a vector indexed
by beam (transmit side) or receive dimension, the fixed point solves with
scalar arithmetic, and the power-constrained update inverts elementwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import dft_matrix
from .det_equiv import _damped_sweeps, _weighted_total
from .mm_precoder import _mm_loop, mu_bisection


def beam_order(omega):
    """Beams sorted by total coupled power (column sums), strongest first.

    Ties break toward the lower beam index (stable sort).
    """
    totals = np.asarray(omega).sum(axis=0)
    return np.argsort(-totals, kind="stable")


def beam_fixed_point(omega, q_own, r, tol=1e-9, init=None):
    """Solve the diagonal fixed point for one user.

    omega: coupling profile (m_k x m_t), q_own: own power per beam (m_t,),
    r: interference-plus-noise level per receive dimension (m_k,).  Returns
    a DEState of per-beam and per-receive-dimension vectors; init warm
    starts from such a state.  A sweep reads only the carried rx_mse.
    """
    m_k, m_t = omega.shape

    def sweep(stream_mse, rx_mse):
        tx_gain = omega.T @ (rx_mse / r)
        stream_mse = 1.0 / (1.0 + q_own * tx_gain)
        rx_gain = omega @ (q_own * stream_mse)
        return tx_gain, rx_gain, stream_mse, 1.0 / (1.0 + rx_gain / r)

    return _damped_sweeps(sweep, (np.ones(m_t), np.ones(m_k)), init, tol, 500,
                          gains=(np.zeros(m_t), np.zeros(m_k)))


def beam_rate(state, q_own, r):
    """Rate (nats) from a converged diagonal state."""
    val = (float(np.sum(np.log1p(q_own * state.tx_gain)))
           + float(np.sum(np.log1p(state.rx_gain / r)))
           - float(np.sum(state.rx_gain * state.rx_mse / r)))
    return max(val, 0.0)


@dataclass
class BeamAllocation:
    """Beam selections and per-beam amplitudes for every user: orders[k]
    ranks user k's m_t beams, and its precoder puts gains[k] on the leading
    ones, as columns of the shared basis dft_matrix(m_t)."""

    orders: list
    gains: list

    def active_beams(self, k):
        return self.orders[k][: len(self.gains[k])]

    def beam_powers(self, k):
        """Own power per beam as a full-length vector."""
        q = np.zeros(len(self.orders[k]))
        q[self.active_beams(k)] = np.abs(self.gains[k]) ** 2
        return q

    @property
    def precoders(self):
        v = dft_matrix(len(self.orders[0]))
        return [v[:, self.active_beams(k)] * np.asarray(g)
                for k, g in enumerate(self.gains)]


def beam_surrogate_diagonals(omegas, weights, alloc, states, q_full, r):
    """The shared-shaping update's surrogate at the current allocation, in
    elementwise form.

    q_full[k] is user k's power per beam and r[k] its interference-plus-noise
    level per receive dimension, both as evaluated at alloc, and states[k]
    its converged beam_fixed_point state there.  Returns (rhs, shapings),
    mu_bisection's inputs: per user, the active beams' weighted signal less
    the weighted self term, times the current gains, as a column; and the
    diagonal matrix of the weight-summed leakage on those beams.
    """
    rhs, leakage = [], []
    for k, w in enumerate(weights):
        lam_a = omegas[k].T @ (1.0 / r[k])
        gamma = states[k].tx_gain
        leakage.append(lam_a - gamma)
        g2, gq = gamma * gamma, gamma * q_full[k]  # g2 inf at tiny budgets
        own = np.where(np.isfinite(g2), g2 * q_full[k] / (1.0 + gq),
                       gamma * (gq / (1.0 + gq)))
        num = (w * lam_a - w * own)[alloc.active_beams(k)] * alloc.gains[k]
        rhs.append(num[:, None])
    shared = sum(w * c for w, c in zip(weights, leakage))
    return rhs, [np.diag(shared[alloc.active_beams(k)])
                 for k in range(len(rhs))]


def canonical_allocation(stats, cfg):
    """Deterministic beam-aligned starting point: each user's d_k strongest
    beams at a flat gain spending the full budget."""
    omegas = [np.asarray(s.omega, dtype=float) for s in stats]
    orders = [beam_order(om) for om in omegas]
    scale = math.sqrt(cfg.p_total / sum(cfg.d_k))
    return BeamAllocation(orders, [scale * np.ones(d) for d in cfg.d_k])


def beam_power_allocation(stats, cfg, iters=50, obj_tol=1e-8,
                          score_last=True):
    """Statistics-only precoder design: power allocation over ordered beams.

    Uses each user's coupling profile directly (posterior mean treated as
    zero), so one run serves every data block.  Starts from
    canonical_allocation.  Returns the allocation and an MMReport whose
    precoders are the exported beam-aligned matrices.  score_last False
    stops right after the last update, without scoring the final iterate.
    """
    k_users = len(stats)
    omegas = [np.asarray(s.omega, dtype=float) for s in stats]
    weights = cfg.weights
    start = canonical_allocation(stats, cfg)

    def evaluate(gains, states):
        states = states or [None] * k_users
        alloc = BeamAllocation(start.orders, gains)
        q_full = [alloc.beam_powers(k) for k in range(k_users)]
        q_sum = np.sum(q_full, axis=0)
        rates, r = [], []
        for k in range(k_users):
            r.append(cfg.sigma2_z + omegas[k] @ (q_sum - q_full[k]))
            states[k] = beam_fixed_point(omegas[k], q_full[k], r[k],
                                         init=states[k])
            rates.append(beam_rate(states[k], q_full[k], r[k]))
        total = _weighted_total(weights, rates,
                                "the beam-domain weighted sum rate")
        return total, states, (alloc, q_full, r)

    @np.errstate(over="ignore", invalid="ignore")  # a bisection error reports it
    def update(gains, states, aux):
        alloc, q_full, r = aux
        mu, cols = mu_bisection(*beam_surrogate_diagonals(
            omegas, weights, alloc, states, q_full, r), cfg.p_total)
        return mu, [np.abs(c[:, 0]) for c in cols]

    report = _mm_loop(evaluate, update, start.gains, iters, obj_tol,
                      score_last=score_last)
    alloc = BeamAllocation(start.orders, report.precoders)
    report.precoders = alloc.precoders
    return alloc, report
