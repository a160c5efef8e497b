"""Minorize-maximize precoder optimization of the DE weighted sum rate.

Each iteration freezes per-user receive statistics at the current precoders,
builds a concave quadratic surrogate from three DE matrices per user

  * a signal gain matrix (expected channel gram whitened by interference),
  * a self penalty from the curvature of the user's own rate,
  * a leakage penalty for the damage the user's power does to the others,

and maximizes the surrogate in closed form up to a water-level style
multiplier found by bisection on the sum power.  mm_full shapes the update
per user; mm_shared replaces the per-user shaping with one shared matrix
(plus a gap correction on the numerator side), cutting the large-matrix
work per iteration to a single eigendecomposition.

Memory: the users' DE states hold their transmit gains as O(m_k m_t)
factors (det_equiv.DEState), so an mm_full update holds K m_t x m_t
matrices, the shapings: each leakage penalty is added into the other
users' shapings as soon as it is formed, and the shapings are handed to
the multiplier search one at a time, each released right after its
eigendecomposition.  An mm_shared update holds the one shared shaping.
Signal gains, rebuilt transmit gains, self penalties and leakage penalties
live one user at a time.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .det_equiv import de_weighted_sum_rate
from .errors import BisectionError, NumericalError
from .operators import expected_gram, hermitize

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
    if not math.isfinite(scale):
        raise NumericalError(f"cannot scale precoder power {cur!r} to {p_total!r}")
    return [scale * p for p in precoders]


def signal_gain(posterior, r, k, n):
    """Expected whitened channel gram E[H^H R^-1 H] at block n."""
    r_inv = hermitize(np.linalg.inv(r))
    return hermitize(expected_gram(posterior, k, n, r_inv))


def self_penalty(gain, state, p):
    """Own-rate curvature penalty: gain - (I + tx_gain P P^H)^-1 tx_gain."""
    m_t = gain.shape[0]
    tx_gain = state.tx_gain
    lhs = np.eye(m_t, dtype=complex) + tx_gain @ (p @ p.conj().T)
    return hermitize(gain - np.linalg.solve(lhs, tx_gain))


def self_penalty_lowrank(gain, state, p):
    """self_penalty via the inversion lemma: only a d x d system is solved."""
    d = p.shape[1]
    tx_gain = state.tx_gain
    gp = tx_gain @ p
    core = np.eye(d, dtype=complex) + p.conj().T @ gp
    return hermitize(gain - tx_gain + gp @ np.linalg.solve(core, gp.conj().T))


def leakage_penalty(posterior, state, r, k, n):
    """Penalty this user's transmit power inflicts on the others' rates.

    E[H^H (R^-1 - (R + rx_gain)^-1) H]; PSD since the bracket is a
    difference of inverses ordered by rx_gain >= 0.
    """
    diff = hermitize(np.linalg.inv(r) - np.linalg.inv(r + state.rx_gain))
    return hermitize(expected_gram(posterior, k, n, diff))


def _power_probe(data):
    """Total power as a function of mu, one array expression over every
    user's (spectrum, row weights): rows are padded with entries adding
    exactly 0 (lam 1, weight 0), a zero denominator adds 0 under a zero
    weight and makes the power infinite otherwise, and the row sums add in
    user order."""
    width = max(lam.size for lam, _ in data)
    lams = np.ones((len(data), width))
    rows = np.zeros((len(data), width))
    for k, (lam, row) in enumerate(data):
        lams[k, :lam.size] = lam
        rows[k, :row.size] = row
    positive = rows > 0

    @np.errstate(over="ignore", invalid="ignore")  # a bisection error reports it
    def power(mu):
        den = (lams + mu) ** 2
        live = den > 0
        if (positive & ~live).any():
            return np.inf
        terms = np.divide(rows, den, out=np.zeros_like(den), where=live)
        return float(np.add.accumulate(terms.sum(axis=1))[-1])
    return power


def _eigenbases(rhs_list, shaping_list):
    """Per user (spectrum, eigenvectors, eigenvectors^H rhs) of its shaping.

    Only the last shaping is held, to tell a repeat by identity: an object
    held can be no other's id, and the one before is let go before the
    next eigendecomposition.
    """
    basis, last = [], None
    for rhs, shaping in zip(rhs_list, shaping_list):
        if shaping is not last:
            last = shaping
            lam, q = np.linalg.eigh(shaping)
            lam = np.maximum(lam, 0.0)
        basis.append((lam, q, q.conj().T @ rhs))
    return basis


def mu_bisection(rhs_list, shaping_list, p_total, tol_power=1e-6):
    """Smallest multiplier meeting the sum power budget, and the precoders.

    Solves P_k = (D_k + mu I)^-1 rhs_k with mu = 0 if that already fits the
    budget, otherwise the mu making the total power equal p_total to
    tol_power relative.  Shaping matrices must be Hermitian (only their
    lower triangles are read); each is eigendecomposed once (one object
    repeated in a row, a shaping shared by every user, once for the run),
    so each probe is one array expression of O(m_t d) per user.
    shaping_list may be an iterator, read once in user order: one that
    hands each shaping over lets it go right after its eigendecomposition.
    The returned power never exceeds the budget: bisection keeps the
    feasible side of the bracket.
    """
    basis = _eigenbases(rhs_list, shaping_list)

    def build(mu):
        out = []
        for lam, q, coef in basis:
            den = lam + mu
            scale = np.zeros_like(lam)
            np.divide(1.0, den, out=scale, where=den > 0)
            out.append(q @ (scale[:, None] * coef))
        return out

    with np.errstate(over="ignore"):  # a bisection error reports it
        probe = _power_probe([(lam, np.sum(np.abs(coef) ** 2, axis=1))
                              for lam, _, coef in basis])
    if probe(0.0) <= p_total:
        return 0.0, build(0.0)
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
    updates (index 0 is the initial set), so it has updates + 1 entries;
    a run told not to score its last iterate (score_last=False, as the
    experiment designs run) stops after its last update and has updates
    entries unless it converged first.  mu_trace/power_trace align with
    the updates.  de_trace has one (update, user, sweeps, residual) row per
    fixed-point solve.
    """

    precoders: list
    objective: list
    mu_trace: list
    power_trace: list
    updates: int
    converged: bool
    de_trace: list


def _mm_loop(evaluate, update, x, iters, obj_tol, start=None,
             score_last=True):
    """The ascent of mm_full, mm_shared, beam_power_allocation and wmmse.

    evaluate(x, states) scores the iterate x, warm-starting from the
    previous evaluation's per-user solver states (None at first; empty
    when it solves no fixed point), and returns (objective, states, aux);
    update(x, states, aux) takes one surrogate step and returns (mu, x).
    start, when given, stands in for the first evaluate(x, None):
    start(cold) returns the evaluation of x held in a memo (the harness's
    Slot.starts), making it with cold() inside this call if none is held.
    Stops after iters updates or when the relative objective change falls
    below obj_tol; with score_last False it stops right after the last
    update, without scoring the final iterate.  The report's precoders
    field holds the final iterate.
    """
    objective, mu_trace, power_trace, de_trace = [], [], [], []
    cold = lambda: evaluate(x, None)
    total, states, aux = cold() if start is None else start(cold)
    converged = False
    updates = 0
    while True:
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
        if updates >= iters and not score_last:
            break
        total, states, aux = evaluate(x, states)
    return MMReport(x, objective, mu_trace, power_trace, updates, converged,
                    de_trace)


def _de_ascent(posterior, cfg, n, init, iters, step_fn, obj_tol, start=None,
               score_last=True):
    def evaluate(precoders, states):
        res = de_weighted_sum_rate(posterior, precoders, cfg.weights, cfg.sigma2_z, n,
                                   init_states=states)
        return res.total, res.states, res.covariances

    return _mm_loop(evaluate, step_fn, [np.array(p, dtype=complex) for p in init],
                    iters, obj_tol, start, score_last)


def mm_full(posterior, cfg, n, init, iters=30, obj_tol=1e-8, tol_power=1e-6,
            start=None, score_last=True):
    """MM ascent with per-user update shaping.

    init: starting precoder set (e.g. canonical_allocation's precoders or a
    previous block's solution).  Stops after iters updates or when the
    relative objective change falls below obj_tol.  tol_power is the budget
    tolerance of the inner multiplier bisection; it bounds how far each
    update can fall short of the exact constrained maximizer, so runs that
    must certify ascent to a slack tighter than ~tol_power should lower it.
    start (which supplies init's first DE evaluation) and score_last (False:
    do not score the final iterate) are _mm_loop's.
    """
    weights = cfg.weights
    k_users = posterior.n_users

    def step(precoders, states, covs):
        # user k's shaping: w_k self_k, then + w_l leak_l for l != k in
        # user order, each leakage penalty added as soon as it is formed
        shapings, rhs = [], []
        for k in range(k_users):
            gain = signal_gain(posterior, covs[k], k, n)
            shapings.append(weights[k] * self_penalty(gain, states[k], precoders[k]))
            rhs.append(weights[k] * gain @ precoders[k])
        for l in range(k_users):
            leak = weights[l] * leakage_penalty(posterior, states[l], covs[l], l, n)
            for k in range(k_users):
                if k != l:
                    shapings[k] += leak
        del gain, leak  # the search reads them only through shapings and rhs
        # handed over one at a time: each shaping goes once the search has
        # its eigenvectors
        return mu_bisection(rhs, (shapings.pop(0) for _ in rhs), cfg.p_total,
                            tol_power=tol_power)

    return _de_ascent(posterior, cfg, n, init, iters, step, obj_tol, start,
                      score_last)


def mm_shared(posterior, cfg, n, init, iters=30, obj_tol=1e-8, tol_power=1e-6,
              start=None, score_last=True):
    """MM ascent with one shared shaping matrix per iteration.

    The per-user shaping is replaced by the weighted sum of all leakage
    penalties, compensated by the gap w_k (leak_k - self_k) on user k's
    numerator side, so a single m_t x m_t eigendecomposition (and only
    d x d solves per user) serves the whole update.  Arguments as in mm_full.
    """
    weights = cfg.weights
    k_users = posterior.n_users

    def step(precoders, states, covs):
        shared, rhs = None, []
        for k in range(k_users):
            gain = signal_gain(posterior, covs[k], k, n)
            self_pen = self_penalty_lowrank(gain, states[k], precoders[k])
            leak = leakage_penalty(posterior, states[k], covs[k], k, n)
            if shared is None:
                shared = weights[k] * leak
            else:
                shared += weights[k] * leak
            rhs.append((weights[k] * gain + weights[k] * (leak - self_pen))
                       @ precoders[k])
        del gain, self_pen, leak  # the search reads only shared and rhs
        return mu_bisection(rhs, [shared] * k_users, cfg.p_total,
                            tol_power=tol_power)

    return _de_ascent(posterior, cfg, n, init, iters, step, obj_tol, start,
                      score_last)
