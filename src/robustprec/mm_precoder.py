"""Minorize-maximize precoder optimization of the DE weighted sum rate.

Each iteration maximizes a concave quadratic surrogate that touches the DE
weighted sum rate at the current precoders, where its gradient is the
rate's, G_k.  Both designs take the step P_k <- (D_k + mu I)^-1 (D_k P_k +
G_k), with mu found by bisection on the sum power, and differ only in D_k.
mm_shared gives every user S = sum_l w_l leak_l, the weighted leakage
penalties (the damage each user's power does to the others' rates), so one
m_t x m_t eigendecomposition serves the update; mm_full gives user k
D_k = S + w_k X_k, X_k its own-rate curvature beyond its leakage penalty.

Memory: the DE states hold their transmit gains as O(m_k m_t) factors
(det_equiv.DEState), each rebuilt once per update.  An mm_full update holds
its K m_t x m_t shapings: each weighted leakage penalty is added into every
shaping as soon as it is formed, and the multiplier search takes them one
at a time, releasing each after its eigendecomposition.  An mm_shared
update holds only S.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .det_equiv import de_weighted_sum_rate
from .errors import BisectionError, NumericalError
from .operators import expected_gram, hermitize

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
    """Expected whitened channel gram E[H^H R^-1 H] at block n.  No design
    calls it: tests read it as an oracle, and perfbench traces its name."""
    r_inv = hermitize(np.linalg.inv(r))
    return hermitize(expected_gram(posterior, k, n, r_inv))


def self_penalty(gain, state, p):
    """Own-rate curvature penalty: gain - (I + tx_gain P P^H)^-1 tx_gain,
    by the inversion lemma, so only a d x d system is solved.  No design
    calls it: tests read it as an oracle, and perfbench traces its name."""
    tx_gain = state.tx_gain
    gp = tx_gain @ p
    core = np.eye(p.shape[1], dtype=complex) + p.conj().T @ gp
    return hermitize(gain - tx_gain + gp @ np.linalg.solve(core, gp.conj().T))


self_penalty_lowrank = self_penalty  # its former name, which perfbench traces


def leakage_penalty(posterior, state, r, k, n):
    """Penalty this user's transmit power inflicts on the others' rates.

    E[H^H (R^-1 - (R + rx_gain)^-1) H]; PSD since the bracket is a
    difference of inverses ordered by rx_gain >= 0.
    """
    diff = hermitize(np.linalg.inv(r) - np.linalg.inv(r + state.rx_gain))
    return hermitize(expected_gram(posterior, k, n, diff))


def own_curvature(posterior, state, r, k, n, tx_gain, tp):
    """User k's own-rate curvature beyond its leakage penalty, self_penalty
    - leakage_penalty = E[H^H (R + rx_gain)^-1 H] - T + (T P) Phi (T P)^H for
    T = tx_gain (the caller's rebuild of it), tp = T P and Phi = stream_mse."""
    out = expected_gram(posterior, k, n,
                        hermitize(np.linalg.inv(r + state.rx_gain)))
    out -= tx_gain
    out += (tp @ state.stream_mse) @ tp.conj().T
    return hermitize(out)


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
        base = lams + mu
        den = base ** 2
        live = base > 0
        if (positive & ~live).any():
            return np.inf
        terms = np.divide(rows, den, out=np.zeros_like(den), where=den > 0)
        # a square that over- or underflows would read 0 or infinite power
        edge = live & ((den == 0) | (den == np.inf))
        terms[edge] = rows[edge] / base[edge] / base[edge]
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
    The returned power never exceeds the budget, also where the probe's
    squares over- or underflow: bisection keeps the feasible side of the
    bracket, which doubles mu from 1 up to the bound the data give: the
    clipped spectra are >= 0, so the power at mu is at most
    sum_k ||rhs_k||^2 / mu^2, and past 4 times the mu where that meets
    p_total, or if that is not finite, the bracket is a BisectionError.  So
    is a NaN in a shaping or right-hand side.
    """
    basis = _eigenbases(rhs_list, shaping_list)
    if any(np.isnan(lam).any() or np.isnan(coef).any() for lam, _, coef in basis):
        # the probe would skip such rows and hand back NaN precoders
        raise BisectionError("power bisection: a shaping or right-hand side is NaN")

    def build(mu):
        out = []
        for lam, q, coef in basis:
            den = lam + mu
            scale = np.zeros_like(lam)
            np.divide(1.0, den, out=scale, where=den > 0)
            out.append(q @ (scale[:, None] * coef))
        return out

    with np.errstate(over="ignore"):  # a bisection error reports it
        data = [(lam, np.sum(np.abs(coef) ** 2, axis=1)) for lam, _, coef in basis]
        probe = _power_probe(data)
        limit = 4.0 * np.sqrt(sum(row.sum() for _, row in data)) / np.sqrt(p_total)
    if probe(0.0) <= p_total:
        return 0.0, build(0.0)
    lo, hi = 0.0, 1.0
    p_hi = probe(hi)
    while not p_hi <= p_total:  # a NaN power brackets nothing either
        lo, hi = hi, 2.0 * hi
        if not hi <= limit < np.inf:
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


def _mm_step(posterior, cfg, n, tol_power, per_user):
    """The update of mm_full (per_user) and mm_shared.  User k's right-hand
    side is w_k (leak_k P_k + T_k P_k Phi_k), which is S P_k + G_k, plus
    w_k X_k P_k when per_user."""
    weights, users = cfg.weights, range(posterior.n_users)

    def step(precoders, states, covs):
        # rhs[k]: T_k P_k Phi_k (+ X_k P_k), then w_k (leak_k P_k + that);
        # owns: the w_k X_k of mm_full, which the leakage penalties join
        rhs, owns = [], []
        for k, (p, state) in enumerate(zip(precoders, states)):
            t = state.tx_gain
            tp = t @ p
            rhs.append(tp @ state.stream_mse)
            if per_user:
                own = own_curvature(posterior, state, covs[k], k, n, t, tp)
                rhs[k] += own @ p
                own *= weights[k]
                owns.append(own)
            del t  # a rebuild only this user reads
        for l in users:
            leak = leakage_penalty(posterior, states[l], covs[l], l, n)
            rhs[l] = weights[l] * (leak @ precoders[l] + rhs[l])
            leak *= weights[l]
            if owns:
                for shaping in owns:
                    shaping += leak
            else:  # mm_shared's one shaping begins as user 0's penalty
                owns.append(leak)
            del leak  # gone before the next one is formed
        # mm_full hands its shapings over one at a time: each goes once the
        # search has its eigenvectors
        shapings = ((owns.pop(0) for _ in rhs) if per_user
                    else owns * len(rhs))
        return mu_bisection(rhs, shapings, cfg.p_total, tol_power=tol_power)

    return step


def mm_full(posterior, cfg, n, init, iters=30, obj_tol=1e-8, tol_power=1e-6,
            start=None, score_last=True):
    """MM ascent with per-user update shaping D_k = S + w_k X_k.

    init: starting precoder set (e.g. canonical_allocation's precoders or a
    previous block's solution).  Stops after iters updates or when the
    relative objective change falls below obj_tol.  tol_power is the budget
    tolerance of the inner multiplier bisection; it bounds how far each
    update can fall short of the exact constrained maximizer, so runs that
    must certify ascent to a slack tighter than ~tol_power should lower it.
    start (which supplies init's first DE evaluation) and score_last (False:
    do not score the final iterate) are _mm_loop's.
    """
    return _de_ascent(posterior, cfg, n, init, iters,
                      _mm_step(posterior, cfg, n, tol_power, True), obj_tol,
                      start, score_last)


def mm_shared(posterior, cfg, n, init, iters=30, obj_tol=1e-8, tol_power=1e-6,
              start=None, score_last=True):
    """MM ascent with one shared shaping S = sum_l w_l leak_l, so one m_t x
    m_t eigendecomposition serves each update.  Arguments as in mm_full."""
    return _de_ascent(posterior, cfg, n, init, iters,
                      _mm_step(posterior, cfg, n, tol_power, False), obj_tol,
                      start, score_last)
