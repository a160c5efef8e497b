"""Shared builders for the test suite."""
import math
import tracemalloc
from contextlib import contextmanager

import numpy as np
from hypothesis import strategies as st

from robustprec.baselines import perfect_csi_rate, rzf, wmmse_step
from robustprec.channel import (
    BeamProfile,
    crandn,
    dft_matrix,
    draw_slot,
    generate_synthetic_stats,
    orthogonal_pilots,
    uplink_observation,
)
from robustprec.config import SystemConfig, noise_from_snr
from robustprec.det_equiv import _damped_sweeps, inverse_sqrt_psd, tx_apply
from robustprec.errors import BisectionError
from robustprec.evaluation import MCRate
from robustprec.mm_precoder import (
    _BISECT_CAP,
    _de_ascent,
    leakage_penalty,
    mu_bisection,
    own_curvature,
)
from robustprec.operators import (
    expected_gram,
    hermitize,
    interference_covariance,
    mean_quadratic_rx,
    mean_quadratic_tx,
    tx_gain_diag,
)
from robustprec.posterior import PosteriorModel, build_posterior


def rand_hermitian_psd(rng, m, scale=1.0):
    a = crandn(rng, m, m)
    return scale * (a @ a.conj().T) / m


def rand_hermitian(rng, m):
    a = crandn(rng, m, m)
    return 0.5 * (a + a.conj().T)


def hermitize_oracle(c):
    """operators.hermitize as one expression, (C + C^H)/2."""
    return 0.5 * (c + c.conj().T)


def mean_quadratic_tx_oracle(kernel, c_rx):
    """operators.mean_quadratic_tx by the dense product v diag(g) v^H."""
    v = dft_matrix(kernel.m_t)
    return (v * tx_gain_diag(kernel, c_rx)) @ v.conj().T


def de_rate_form2(state, posterior, p, k, n):
    """The DE rate in its receive-side form (nats), clamped at 0: the
    cross-check of det_equiv.de_rate_form1, which it equals at the
    solution."""
    kern = posterior.kernel(k, n)
    l = state.whitener
    d = p.shape[1]
    e_tx = mean_quadratic_tx(kern, l @ state.rx_mse @ l)
    pgp = hermitize(p @ state.stream_mse @ p.conj().T)
    term1 = float(np.linalg.slogdet(np.eye(kern.m_k) + l @ state.rx_gain @ l)[1])
    term2 = float(np.linalg.slogdet(np.eye(d) + p.conj().T @ e_tx @ p)[1])
    term3 = np.trace(pgp @ e_tx).real
    return max(term1 + term2 - term3, 0.0)


def dense_fixed_point(posterior, p, r, k, n, tol=1e-9, max_iter=500):
    """det_equiv.solve_fixed_point by the dense sweep, which forms and holds
    the m_t x m_t transmit gain every sweep and measures its change as a
    matrix, and the form-1 rate of its state scored densely as well.
    Returns (state, rate); the state holds the matrix as its tx_gain."""
    kern = posterior.kernel(k, n)
    mean = posterior.mean(k, n)
    eye_d = np.eye(p.shape[1], dtype=complex)
    eye_m = np.eye(kern.m_k, dtype=complex)
    l = inverse_sqrt_psd(r)
    lm = l @ mean
    mp = mean @ p

    def sweep(g, gt):
        e_tx = mean_quadratic_tx(kern, l @ gt @ l)
        e_rx = mean_quadratic_rx(kern, p @ g @ p.conj().T)
        quad = p.conj().T @ e_tx @ p
        tx_gain = hermitize(e_tx + lm.conj().T @ np.linalg.solve(
            eye_m + l @ e_rx @ l, lm))
        rx_gain = hermitize(e_rx + mp @ np.linalg.solve(eye_d + quad,
                                                        mp.conj().T))
        return (tx_gain, rx_gain, np.linalg.inv(eye_d + p.conj().T @ tx_gain @ p),
                np.linalg.inv(eye_m + l @ rx_gain @ l))

    state = _damped_sweeps(sweep, (eye_d, eye_m), None, tol, max_iter)
    e_rx = mean_quadratic_rx(kern, p @ state.stream_mse @ p.conj().T)
    rate = (float(np.linalg.slogdet(eye_d + p.conj().T @ state.tx_gain @ p)[1])
            + float(np.linalg.slogdet(eye_m + l @ e_rx @ l)[1])
            - np.trace(e_rx @ hermitize(l @ state.rx_mse @ l)).real)
    return state, max(rate, 0.0)


def tx_gain_matrix(state):
    """The m_t x m_t transmit gain T = V (diag(g) + w m w^H) V^H of a DE
    state, formed by dense products."""
    v = dft_matrix(len(state.tx_gain))
    t = (v * state.tx_gain) @ v.conj().T
    if state.tx_mean is not None:
        w, m = state.tx_mean
        q = v @ w
        t = t + q @ m @ q.conj().T
    return t


def to_antennas(x):
    """V x V^H: a beam-coordinate m_t x m_t matrix in antenna coordinates."""
    v = dft_matrix(len(x))
    return v @ x @ v.conj().T


def self_penalty_oracle(gain, state, p):
    """mm_precoder.self_penalty by the full m_t x m_t solve:
    gain - (I + T P P^H)^-1 T."""
    t = tx_gain_matrix(state)
    lhs = np.eye(gain.shape[0], dtype=complex) + t @ (p @ p.conj().T)
    return hermitize(gain - np.linalg.solve(lhs, t))


def own_curvature_oracle(posterior, state, r, k, n, p):
    """mm_precoder.own_curvature with T formed:
    E[H^H (R + rx_gain)^-1 H] - T + (T P) Phi (T P)^H."""
    t = tx_gain_matrix(state)
    tp = t @ p
    out = expected_gram(posterior, k, n,
                        hermitize(np.linalg.inv(r + state.rx_gain)))
    return hermitize(out - t + (tp @ state.stream_mse) @ tp.conj().T)


def relerr(got, want):
    denom = max(np.linalg.norm(want), 1e-300)
    return np.linalg.norm(np.asarray(got) - np.asarray(want)) / denom


def small_cfg(m_t=8, m_k=(2, 2), d_k=None, n_b=3, sigma2_z=0.1, p_total=1.0, seed=0):
    return SystemConfig(m_t=m_t, m_k=m_k, d_k=d_k, n_b=n_b, sigma2_z=sigma2_z,
                        p_total=p_total, seed=seed)


def make_instance(cfg, rng, alphas=0.9, band_width=None, lognorm_sigma=0.4, decay=0.0):
    """Stats + true slot + pilots + posterior for one random scenario."""
    if band_width is None:
        band_width = max(2, cfg.m_t // 2)
    profile = BeamProfile(band_width=band_width, lognorm_sigma=lognorm_sigma,
                          decay=decay, alphas=alphas)
    stats = generate_synthetic_stats(cfg, profile, rng)
    slot = draw_slot(stats, cfg.n_b, rng)
    pilots = orthogonal_pilots(cfg.m_k, cfg.block_len)
    y = uplink_observation([blocks[0] for blocks in slot], pilots, cfg.uplink_noise, rng)
    post = build_posterior(y, pilots, stats, cfg.uplink_noise)
    return stats, slot, pilots, post


@st.composite
def small_scenarios(draw):
    """Parameters of a small random scenario: m_t 1-8, 1-3 users with 1-3
    receive antennas, d_k <= min(m_k, m_t), an SNR in {-30, 0, 10, 40, 80}
    dB, an aging coefficient in {0, 0.5, 0.9, 1}, a band width and a seed."""
    m_t = draw(st.integers(1, 8))
    m_k = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    return dict(m_t=m_t, m_k=m_k,
                d_k=tuple(draw(st.integers(1, min(m, m_t))) for m in m_k),
                snr_db=draw(st.sampled_from([-30, 0, 10, 40, 80])),
                alphas=draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
                band_width=draw(st.integers(1, m_t)),
                seed=draw(st.integers(0, 2**32 - 1)))


def scenario_instance(s):
    """(cfg, stats, posterior, random precoder set spending p_total) of one
    small_scenarios draw; block 2 is its only data block."""
    cfg = SystemConfig(m_t=s["m_t"], m_k=s["m_k"], d_k=s["d_k"], n_b=2,
                       sigma2_z=noise_from_snr(s["snr_db"]))
    rng = np.random.default_rng(s["seed"])
    stats, _, _, post = make_instance(cfg, rng, alphas=s["alphas"],
                                      band_width=s["band_width"])
    return cfg, stats, post, random_precoder_set(rng, cfg.m_t, cfg.d_k,
                                                 cfg.p_total)


def zero_mean_posterior(stats):
    """Oracle posterior with no instantaneous CSI: zero means, full prior
    variance.

    Intended for data blocks n >= 2, where the variance profile equals the
    prior power profile exactly (aging coefficient forced to 0).
    """
    mean1 = [np.zeros((s.m_k, s.m_t), dtype=complex) for s in stats]
    return PosteriorModel(list(stats), 0.0, mean1).assuming(0.0)


def verify_beam_structure(precoders, v, tol=1e-10):
    """Oracle of the zero-mean result: every precoder column rides a single
    transmit beam.

    Returns (ok, worst) where worst is the largest off-beam share of any
    column's squared norm; zero columns pass.
    """
    worst = 0.0
    for p in precoders:
        x = v.conj().T @ p
        power = np.abs(x) ** 2
        norms = power.sum(axis=0)
        for j, nrm in enumerate(norms):
            if nrm <= 0:
                continue
            off = 1.0 - power[:, j].max() / nrm
            worst = max(worst, float(off))
    return worst <= tol, worst


def random_precoder_set(rng, m_t, d_list, p_total):
    ps = [crandn(rng, m_t, d) for d in d_list]
    scale = math.sqrt(p_total / sum(np.sum(np.abs(p) ** 2) for p in ps))
    return [scale * p for p in ps]


def crandn_oracle(rng, *shape):
    """crandn as a complex expression of the real-part draws, then the
    imaginary-part draws."""
    return np.sqrt(0.5) * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def sample_oracle(post, k, n, rng, size):
    """PosteriorModel.sample as one expression, mean + u ((amp o W) v^H),
    with numpy's stacked (one BLAS call per draw) products."""
    amp = np.sqrt(post.var_profile(k, n))
    w = crandn_oracle(rng, size, *amp.shape)
    v = dft_matrix(post.stats[k].m_t)
    return post.mean(k, n) + post.stats[k].u @ ((amp * w) @ v.conj().T)


def sylvester_logdets(hp, r):
    """logdet(I_d + W^H W) per draw of hp = HP, with W = L^-1 HP and
    R = L L^H: monte_carlo_rate's per-draw score, with stacked products and
    fresh arrays (its Gram matrix is (W^H W)^T, of the same determinant)."""
    w = hp.transpose(0, 2, 1) @ np.linalg.inv(np.linalg.cholesky(r)).T
    gram = w @ w.conj().transpose(0, 2, 1)
    return np.linalg.slogdet(np.eye(hp.shape[2]) + gram)[1]


def two_logdets(hp, r):
    """logdet(R + (HP)(HP)^H) - logdet(R) per draw of hp = HP: the same
    rate, which loses its precision at high SNR with d_k < m_k."""
    full = r + hp @ hp.conj().transpose(0, 2, 1)
    return np.linalg.slogdet(full)[1] - float(np.linalg.slogdet(r)[1])


def monte_carlo_rate_oracle(posterior, precoders, weights, sigma2_z, n, rng,
                            n_samples, batch=256, logdets=sylvester_logdets):
    """monte_carlo_rate on sample_oracle draws, each scored by logdets, with
    stacked products and fresh arrays for every intermediate; the same
    batches and summation order."""
    per_user, variances = [], []
    for k in range(posterior.n_users):
        r = interference_covariance(posterior, precoders, k, n, sigma2_z)
        p = precoders[k]
        acc, acc_sq, left = 0.0, 0.0, n_samples
        while left > 0:
            b = min(batch, left)
            vals = logdets(sample_oracle(posterior, k, n, rng, b) @ p, r)
            acc += float(np.sum(vals))
            acc_sq += float(np.sum(vals * vals))
            left -= b
        mean = acc / n_samples
        per_user.append(mean)
        variances.append(max(acc_sq / n_samples - mean * mean, 0.0)
                         * n_samples / max(n_samples - 1, 1))
    total = float(np.dot(weights, per_user))
    stderr = float(np.sqrt(np.dot(np.square(weights), variances) / n_samples))
    return MCRate(total, stderr)


@contextmanager
def traced_heap():
    """Trace Python heap allocations over the block (tracemalloc); yields a
    function that returns the (current, peak) traced bytes, net of what was
    traced when the block began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        yield lambda: tuple(b - base for b in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()


def same_bits(a, b):
    """Equal shapes and equal bit patterns (complex128 arrays)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def power_oracle(data, mu):
    """The total power at mu with a Python loop over the users' (spectrum,
    row weights): each user masks its zero denominators (a masked positive
    weight makes the power infinite) and sums on its own, and the users'
    sums add in order."""
    total = 0.0
    for lam, row in data:
        den = (lam + mu) ** 2
        live = den > 0
        if np.any(row[~live] > 0):
            return np.inf
        total += float(np.sum(row[live] / den[live]))
    return total


def mu_bisection_oracle(rhs_list, shaping_list, p_total, tol_power=1e-6):
    """mu_bisection with power_oracle's per-user loop at every probe."""
    specs, data, basis = {}, [], []
    for rhs, shaping in zip(rhs_list, shaping_list):
        if id(shaping) not in specs:
            lam, q = np.linalg.eigh(shaping)
            specs[id(shaping)] = np.maximum(lam, 0.0), q
        lam, q = specs[id(shaping)]
        coef = q.conj().T @ rhs
        data.append((lam, np.sum(np.abs(coef) ** 2, axis=1)))
        basis.append((lam, q, coef))

    def power(mu):
        return power_oracle(data, mu)

    with np.errstate(over="ignore"):
        limit = 4.0 * np.sqrt(sum(row.sum() for _, row in data)) / np.sqrt(p_total)

    def build(mu):
        out = []
        for lam, q, coef in basis:
            den = lam + mu
            scale = np.zeros_like(lam)
            np.divide(1.0, den, out=scale, where=den > 0)
            out.append(q @ (scale[:, None] * coef))
        return out

    if power(0.0) <= p_total:
        return 0.0, build(0.0)
    lo, hi = 0.0, 1.0
    p_hi = power(hi)
    while not p_hi <= p_total:
        lo, hi = hi, 2.0 * hi
        if not (np.isfinite(limit) and hi <= limit):
            raise BisectionError("no bracket")
        p_hi = power(hi)
    for _ in range(_BISECT_CAP):
        if p_hi >= p_total * (1.0 - tol_power):
            return hi, build(hi)
        mid = 0.5 * (lo + hi)
        p_mid = power(mid)
        if p_mid > p_total:
            lo = mid
        else:
            hi, p_hi = mid, p_mid
    raise BisectionError("no convergence")


def wmmse_oracle(channels, p_total, sigma2_z, weights, iters=100,
                 tol_power=1e-6):
    """baselines.wmmse as its own loop: rzf start, wmmse_step updates, stop
    at iters updates or a known-channel rate change below 1e-8 (relative).
    Returns (precoders, rates, mus)."""
    precoders = rzf(channels, p_total, sigma2_z)
    rates = [perfect_csi_rate(channels, precoders, weights, sigma2_z)]
    mus = []
    for _ in range(iters):
        precoders, mu = wmmse_step(channels, precoders, weights, sigma2_z,
                                   p_total, tol_power=tol_power)
        mus.append(mu)
        rates.append(perfect_csi_rate(channels, precoders, weights, sigma2_z))
        if abs(rates[-1] - rates[-2]) <= 1e-8 * (1 + abs(rates[-1])):
            break
    return precoders, rates, mus


def mm_ascent_oracle(posterior, cfg, n, init, iters, shared, obj_tol=1e-8,
                     tol_power=1e-6):
    """mm_full (shared=False) or mm_shared (shared=True) with an update that
    lists all K own curvatures and leakage penalties at once, then forms
    every shaping (or the one shared shaping) and right-hand side from
    those lists, all in beam coordinates: the precoders go in as V^H P and
    come back as V times the search's result."""
    weights = cfg.weights
    users = range(posterior.n_users)
    v = dft_matrix(cfg.m_t)

    def step(antenna, states, covs):
        precoders = [v.conj() @ p for p in antenna]  # v is symmetric
        tps = [tx_apply(states[k], precoders[k]) for k in users]
        owns = [own_curvature(posterior, states[k], covs[k], k, n, tps[k])
                for k in users]
        leaks = [leakage_penalty(posterior, states[k], covs[k], k, n)
                 for k in users]
        # the gradient of user k's DE rate, T_k P_k Phi_k, and for mm_full
        # the own curvature's step X_k P_k
        grads = [tps[k] @ states[k].stream_mse for k in users]
        if not shared:
            grads = [grads[k] + owns[k] @ precoders[k] for k in users]
        rhs = [weights[k] * (leaks[k] @ precoders[k] + grads[k])
               for k in users]
        weighted = [weights[l] * leaks[l] for l in users]
        if shared:
            total = weighted[0]
            for term in weighted[1:]:
                total = total + term
            shapings = [total] * len(users)
        else:
            shapings = []
            for k in users:
                d = weights[k] * owns[k]
                for term in weighted:
                    d = d + term
                shapings.append(d)
        mu, out = mu_bisection(rhs, shapings, cfg.p_total, tol_power=tol_power)
        return mu, [v @ x for x in out]

    return _de_ascent(posterior, cfg, n, init, iters, step, obj_tol)
