"""Shared builders for the test suite."""
import math

import numpy as np

from robustprec.channel import (
    BeamProfile,
    crandn,
    draw_slot,
    generate_synthetic_stats,
    orthogonal_pilots,
    uplink_observation,
)
from robustprec.config import SystemConfig
from robustprec.errors import BisectionError
from robustprec.evaluation import MCRate
from robustprec.mm_precoder import _BISECT_CAP, _MU_BRACKET_CAP
from robustprec.operators import interference_covariance
from robustprec.posterior import PosteriorModel, build_posterior


def j0_series(x, terms=60):
    """Independent Bessel J0 oracle: power series sum (-x^2/4)^k / (k!)^2."""
    total, term = 0.0, 1.0
    for k in range(terms):
        total += term
        term *= -(x * x) / 4.0 / ((k + 1) * (k + 1))
    return total


def rand_hermitian_psd(rng, m, scale=1.0):
    a = crandn(rng, m, m)
    return scale * (a @ a.conj().T) / m


def rand_hermitian(rng, m):
    a = crandn(rng, m, m)
    return 0.5 * (a + a.conj().T)


def hermitize_oracle(c):
    """operators.hermitize as one expression, (C + C^H)/2."""
    return 0.5 * (c + c.conj().T)


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
    return post.mean(k, n) + post.stats[k].u @ ((amp * w) @ post.stats[k].v.conj().T)


def monte_carlo_rate_oracle(posterior, precoders, weights, sigma2_z, n, rng,
                            n_samples, batch=256):
    """monte_carlo_rate on sample_oracle draws, with stacked products and
    fresh arrays for every intermediate; the same batches and summation
    order."""
    per_user, variances = [], []
    for k in range(posterior.n_users):
        r = interference_covariance(posterior, precoders, k, n, sigma2_z)
        base = float(np.linalg.slogdet(r)[1])
        p = precoders[k]
        acc, acc_sq, left = 0.0, 0.0, n_samples
        while left > 0:
            b = min(batch, left)
            hp = sample_oracle(posterior, k, n, rng, b) @ p
            full = r + hp @ hp.conj().transpose(0, 2, 1)
            vals = np.linalg.slogdet(full)[1] - base
            acc += float(np.sum(vals))
            acc_sq += float(np.sum(vals * vals))
            left -= b
        mean = acc / n_samples
        per_user.append(mean)
        variances.append(max(acc_sq / n_samples - mean * mean, 0.0)
                         * n_samples / (n_samples - 1))
    total = float(np.dot(weights, per_user))
    stderr = float(np.sqrt(np.dot(np.square(weights), variances) / n_samples))
    return MCRate(total, stderr)


def same_bits(a, b):
    """Equal shapes and equal bit patterns (complex128 arrays)."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def mu_bisection_oracle(rhs_list, shaping_list, p_total, tol_power=1e-6):
    """mu_bisection with a Python loop over the users at every probe: each
    user's power masks the zero denominators and sums on its own, and the
    users' sums add in order."""
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
        total = 0.0
        for lam, row in data:
            den = (lam + mu) ** 2
            live = den > 0
            if np.any(row[~live] > 0):
                return np.inf
            total += float(np.sum(row[live] / den[live]))
        return total

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
    while p_hi > p_total:
        lo, hi = hi, 2.0 * hi
        if hi > _MU_BRACKET_CAP:
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
