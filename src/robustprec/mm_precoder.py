"""Minorize-maximize precoder optimization of the DE weighted sum rate.

Each iteration freezes per-user receive statistics at the current precoders,
builds a concave quadratic surrogate from three DE matrices per user

  * a signal gain matrix (expected channel gram whitened by interference),
  * a self penalty from the curvature of the user's own rate,
  * a leakage penalty for the damage the user's power does to the others,

and maximizes the surrogate in closed form up to a water-level style
multiplier found by bisection on the sum power.  mm_full shapes the update
per user; mm_shared replaces the per-user shaping with one shared matrix
(plus a PSD gap correction), cutting the large-matrix work per iteration to
a single eigendecomposition.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .det_equiv import de_weighted_sum_rate
from .errors import BisectionError, NumericalError
from .operators import expected_gram, hermitize

__all__ = [
    "total_power",
    "normalize_power",
    "signal_gain",
    "self_penalty",
    "self_penalty_lowrank",
    "leakage_penalty",
    "update_shaping",
    "penalty_gap",
    "mu_bisection",
    "MMReport",
    "mm_full",
    "mm_shared",
]

_MU_BRACKET_CAP = 2.0 ** 60
_BISECT_CAP = 500


def total_power(precoders):
    """Sum of tr(P_k P_k^H) over users."""
    return float(sum(np.sum(np.abs(p) ** 2) for p in precoders))


def normalize_power(precoders, p_total):
    """Jointly rescale a precoder set to the exact power budget."""
    cur = total_power(precoders)
    if cur <= 0:
        raise NumericalError("cannot normalize an all-zero precoder set")
    scale = math.sqrt(p_total / cur)
    return [scale * p for p in precoders]


def signal_gain(posterior, r, k, n):
    """Expected whitened channel gram E[H^H R^-1 H] at block n."""
    r_inv = hermitize(np.linalg.inv(r))
    return hermitize(expected_gram(posterior, k, n, r_inv))


def self_penalty(gain, state, p):
    """Own-rate curvature penalty: gain - (I + tx_gain P P^H)^-1 tx_gain."""
    m_t = gain.shape[0]
    lhs = np.eye(m_t, dtype=complex) + state.tx_gain @ (p @ p.conj().T)
    return hermitize(gain - np.linalg.solve(lhs, state.tx_gain))


def self_penalty_lowrank(gain, state, p):
    """self_penalty via the inversion lemma: only a d x d system is solved."""
    d = p.shape[1]
    gp = state.tx_gain @ p
    core = np.eye(d, dtype=complex) + p.conj().T @ gp
    return hermitize(gain - state.tx_gain + gp @ np.linalg.solve(core, gp.conj().T))


def leakage_penalty(posterior, state, r, k, n):
    """Penalty this user's transmit power inflicts on the others' rates.

    E[H^H (R^-1 - (R + rx_gain)^-1) H]; PSD since the bracket is a
    difference of inverses ordered by rx_gain >= 0.
    """
    diff = hermitize(np.linalg.inv(r) - np.linalg.inv(r + state.rx_gain))
    return hermitize(expected_gram(posterior, k, n, diff))


def update_shaping(weights, self_pens, leak_pens, k):
    """Per-user quadratic shaping: own self penalty plus others' leakage."""
    d = weights[k] * self_pens[k]
    for l in range(len(weights)):
        if l != k:
            d = d + weights[l] * leak_pens[l]
    return d


def penalty_gap(weight, self_pen, leak_pen):
    """w * (leakage - self): moving this to the numerator side lets one
    shared shaping matrix serve every user's update."""
    return weight * (leak_pen - self_pen)


def _spectral(shaping):
    lam, q = np.linalg.eigh(shaping)
    return np.maximum(lam, 0.0), q


def _power_at(data, mu):
    total = 0.0
    for lam, row in data:
        den = (lam + mu) ** 2
        live = den > 0
        if np.any(row[~live] > 0):
            return np.inf
        total += float(np.sum(row[live] / den[live]))
    return total


def _stacked_power_at(data):
    """_power_at for mu > 0 as one array expression over all users.

    Needs spectra of one length and no NaN: with lam >= 0 and mu > 0 every
    denominator is positive, so nothing is masked, and each row sum sees
    the per-user sum's values in its order.  None when that does not hold.
    """
    if len({lam.shape for lam, _ in data}) != 1:
        return None
    lam = np.stack([lam for lam, _ in data])
    rows = np.stack([row for _, row in data])
    if not np.all(lam >= 0):
        return None

    def power(mu):
        total = 0.0
        for s in np.sum(rows / (lam + mu) ** 2, axis=1):
            total += float(s)
        return total
    return power


def mu_bisection(rhs_list, shaping_list, p_total, tol_power=1e-6):
    """Smallest multiplier meeting the sum power budget, and the precoders.

    Solves P_k = (D_k + mu I)^-1 rhs_k with mu = 0 if that already fits the
    budget, otherwise the mu making the total power equal p_total to
    tol_power relative.  Shaping matrices must be Hermitian (only their
    lower triangles are read); each is eigendecomposed once (repeated
    objects are cached), so each probe costs O(m_t d) per user, and a
    probe at mu > 0 is one array expression when every spectrum has the
    same length.  The returned power never exceeds the budget: bisection
    keeps the feasible side of the bracket.
    """
    specs = {}
    data, basis = [], []
    for rhs, shaping in zip(rhs_list, shaping_list):
        key = id(shaping)
        if key not in specs:
            specs[key] = _spectral(shaping)
        lam, q = specs[key]
        coef = q.conj().T @ rhs
        data.append((lam, np.sum(np.abs(coef) ** 2, axis=1)))
        basis.append((lam, q, coef))

    def build(mu):
        out = []
        for lam, q, coef in basis:
            den = lam + mu
            scale = np.zeros_like(lam)
            np.divide(1.0, den, out=scale, where=den > 0)
            out.append(q @ (scale[:, None] * coef))
        return out

    if _power_at(data, 0.0) <= p_total:
        return 0.0, build(0.0)

    probe = _stacked_power_at(data) or (lambda mu: _power_at(data, mu))
    lo, hi = 0.0, 1.0
    p_hi = probe(hi)
    while p_hi > p_total:
        lo, hi = hi, 2.0 * hi
        if hi > _MU_BRACKET_CAP:
            raise BisectionError("power bisection failed to bracket the multiplier")
        p_hi = probe(hi)
    for _ in range(_BISECT_CAP):
        if p_hi >= p_total * (1.0 - tol_power):
            return hi, build(hi)
        mid = 0.5 * (lo + hi)
        p_mid = probe(mid)
        if p_mid > p_total:
            lo = mid
        else:
            hi, p_hi = mid, p_mid
    raise BisectionError("power bisection did not reach the requested tolerance")


@dataclass
class MMReport:
    """Trace of one MM run.

    objective[i] is the DE weighted sum rate of the precoders after i
    updates (index 0 is the initial set), so it has updates + 1 entries.
    mu_trace/power_trace align with the updates.  de_trace has one
    (update, user, sweeps, residual) row per fixed-point solve.
    """

    precoders: list
    objective: list
    mu_trace: list
    power_trace: list
    updates: int
    converged: bool
    de_trace: list


def _mm_loop(evaluate, update, x, iters, obj_tol):
    """The MM ascent under mm_full, mm_shared and beam_power_allocation.

    evaluate(x, states) scores the iterate x, warm-starting from the
    previous evaluation's per-user solver states (None at first), and
    returns (objective, states, aux); update(x, states, aux) takes one
    surrogate step and returns (mu, x).  Stops after iters updates or when
    the relative objective change falls below obj_tol.  The report's
    precoders field holds the final iterate.
    """
    objective, mu_trace, power_trace, de_trace = [], [], [], []
    states = None
    converged = False
    updates = 0
    while True:
        total, states, aux = evaluate(x, states)
        objective.append(total)
        de_trace.extend((updates, k, s.iterations, s.residual)
                        for k, s in enumerate(states))
        if len(objective) > 1 and abs(objective[-1] - objective[-2]) <= obj_tol * (1 + abs(objective[-1])):
            converged = True
            break
        if updates >= iters:
            break
        mu, x = update(x, states, aux)
        updates += 1
        mu_trace.append(mu)
        power_trace.append(total_power(x))
    return MMReport(x, objective, mu_trace, power_trace, updates, converged,
                    de_trace)


def _de_ascent(posterior, cfg, n, init, iters, step_fn, obj_tol):
    def evaluate(precoders, states):
        res = de_weighted_sum_rate(posterior, precoders, cfg.weights, cfg.sigma2_z, n,
                                   init_states=states)
        return res.total, res.states, res.covariances

    return _mm_loop(evaluate, step_fn, [np.array(p, dtype=complex) for p in init],
                    iters, obj_tol)


def mm_full(posterior, cfg, n, init, iters=30, obj_tol=1e-8, tol_power=1e-6):
    """MM ascent with per-user update shaping.

    init: starting precoder set (e.g. canonical_allocation's precoders or a
    previous block's solution).  Stops after iters updates or when the
    relative objective change falls below obj_tol.  tol_power is the budget
    tolerance of the inner multiplier bisection; it bounds how far each
    update can fall short of the exact constrained maximizer, so runs that
    must certify ascent to a slack tighter than ~tol_power should lower it.
    """
    weights = cfg.weights
    k_users = posterior.n_users

    def step(precoders, states, covs):
        gains = [signal_gain(posterior, covs[k], k, n) for k in range(k_users)]
        selfs = [self_penalty(gains[k], states[k], precoders[k]) for k in range(k_users)]
        leaks = [leakage_penalty(posterior, states[k], covs[k], k, n) for k in range(k_users)]
        shapings = [update_shaping(weights, selfs, leaks, k) for k in range(k_users)]
        rhs = [weights[k] * gains[k] @ precoders[k] for k in range(k_users)]
        return mu_bisection(rhs, shapings, cfg.p_total, tol_power=tol_power)

    return _de_ascent(posterior, cfg, n, init, iters, step, obj_tol)


def mm_shared(posterior, cfg, n, init, iters=30, obj_tol=1e-8, tol_power=1e-6):
    """MM ascent with one shared shaping matrix per iteration.

    The per-user shaping is replaced by the weighted sum of all leakage
    penalties, compensated by a gap term on the numerator side, so a single
    m_t x m_t eigendecomposition (and only d x d solves per user) serves the
    whole update.
    """
    weights = cfg.weights
    k_users = posterior.n_users

    def step(precoders, states, covs):
        gains = [signal_gain(posterior, covs[k], k, n) for k in range(k_users)]
        selfs = [self_penalty_lowrank(gains[k], states[k], precoders[k])
                 for k in range(k_users)]
        leaks = [leakage_penalty(posterior, states[k], covs[k], k, n) for k in range(k_users)]
        shared = None
        for k in range(k_users):
            term = weights[k] * leaks[k]
            shared = term if shared is None else shared + term
        rhs = [(weights[k] * gains[k] + penalty_gap(weights[k], selfs[k], leaks[k]))
               @ precoders[k] for k in range(k_users)]
        return mu_bisection(rhs, [shared] * k_users, cfg.p_total,
                            tol_power=tol_power)

    return _de_ascent(posterior, cfg, n, init, iters, step, obj_tol)
