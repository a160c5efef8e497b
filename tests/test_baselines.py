"""Baseline precoder tests.

Independent oracles: singular vectors for the single-user leakage design, a
tiny-noise zero-forcing limit for regularized inversion, and — the load-bearing
one — exact step agreement between the alternating sum-MSE update and the
posterior-based MM update when the posterior collapses onto the true channel.
"""
import numpy as np
import pytest
from numpy.random import default_rng

from helpers import make_instance, random_precoder_set, small_cfg
from robustprec.baselines import (
    perfect_csi_rate,
    robust_rzf,
    rzf,
    slnr,
    wmmse,
    wmmse_step,
)
from robustprec.channel import crandn
from robustprec.config import SystemConfig
from robustprec.errors import NumericalError
from robustprec.mm_precoder import mm_full, total_power
from robustprec.posterior import zero_mean_posterior


def _channels(seed, k=3, m_k=2, m_t=8):
    rng = default_rng(seed)
    return [crandn(rng, m_k, m_t) for _ in range(k)]


def _exact_posterior(seed=7, m_t=8, m_k=(2, 2, 2), weights=None):
    """Posterior whose mean is the true channel and whose spread is zero:
    noiseless uplink plus a fully correlated block process."""
    cfg = SystemConfig(m_t=m_t, m_k=m_k, n_b=2, sigma2_z=0.1, sigma2_bs=0.0,
                       weights=weights or (1.0,) * len(m_k))
    rng = default_rng(seed)
    stats, slot, pilots, post = make_instance(cfg, rng, alphas=1.0)
    return cfg, post, [post.mean(k, 2) for k in range(len(m_k))]


def test_rzf_shapes_and_power():
    chans = _channels(0)
    pre = rzf(chans, 2.0, 0.1)
    assert [p.shape for p in pre] == [(8, 2)] * 3
    assert abs(total_power(pre) - 2.0) <= 1e-12


def test_rzf_cancels_interference_at_tiny_noise():
    chans = _channels(1)
    pre = rzf(chans, 1.0, 1e-12)
    for k, h in enumerate(chans):
        own = np.linalg.norm(h @ pre[k])
        for l in range(3):
            if l != k:
                assert np.linalg.norm(h @ pre[l]) <= 1e-6 * own


def test_slnr_single_user_rides_right_singular_vectors():
    h = _channels(2, k=1)[0]
    pre = slnr([h], 1.0, 0.05)[0]
    _, svals, vh = np.linalg.svd(h)
    for i in range(h.shape[0]):
        # i-th right singular vector is vh[i].conj(); overlap is sesquilinear
        overlap = abs(vh[i] @ pre[:, i]) / np.linalg.norm(pre[:, i])
        assert overlap >= 1 - 1e-9
    # descending singular-value order
    gains = np.linalg.norm(h @ pre, axis=0)
    assert np.all(np.diff(gains) <= 1e-12)


def test_slnr_uniform_power_split():
    chans = _channels(3)
    pre = slnr(chans, 3.0, 0.1)
    for p in pre:
        assert abs(np.sum(np.abs(p) ** 2) - 1.0) <= 1e-12


def test_wmmse_ascends_known_channel_rate_and_beats_inversion():
    chans = _channels(4)
    weights = [1.0, 1.5, 0.7]
    # tol_power below the ascent slack so the inner bisection's budget
    # shortfall cannot mask the monotonicity guarantee
    pre, rates = wmmse(chans, 1.0, 0.1, weights, iters=60, tol_power=1e-11)
    r = np.array(rates)
    assert np.all(np.diff(r) >= -1e-8 * (1 + np.abs(r[1:])))
    assert r[-1] > r[0] + 1e-3
    assert abs(total_power(pre) - 1.0) <= 1e-6


def test_wmmse_step_matches_posterior_update_at_exact_csi():
    # when the posterior is a point mass on the true channel, one MM update
    # of the deterministic objective and one sum-MSE update coincide
    for seed in range(3):
        cfg, post, chans = _exact_posterior(seed=seed, weights=(1.0, 1.5, 0.7))
        init = random_precoder_set(default_rng(100 + seed), cfg.m_t, cfg.d_k,
                                   cfg.p_total)
        stepped, _ = wmmse_step(chans, init, cfg.weights, cfg.sigma2_z,
                                cfg.p_total)
        rep = mm_full(post, cfg, 2, init, iters=1, obj_tol=0.0)
        for a, b in zip(stepped, rep.precoders):
            assert np.abs(a - b).max() <= 1e-8


def test_robust_rzf_collapses_to_plain_rzf_without_uncertainty():
    cfg, post, chans = _exact_posterior(seed=11)
    plain = rzf(chans, cfg.p_total, cfg.sigma2_z)
    aware = robust_rzf(post, 2, cfg.p_total, cfg.sigma2_z)
    for a, b in zip(plain, aware):
        assert np.abs(a - b).max() <= 1e-10


def test_robust_rzf_loading_reacts_to_uncertainty():
    cfg = small_cfg(m_t=8, m_k=(2, 2, 2), n_b=2, sigma2_z=0.1)
    rng = default_rng(12)
    stats, slot, pilots, post = make_instance(cfg, rng, alphas=0.7)
    aware = robust_rzf(post, 2, cfg.p_total, cfg.sigma2_z)
    naive = rzf([post.mean(k, 2) for k in range(3)], cfg.p_total, cfg.sigma2_z)
    assert abs(total_power(aware) - cfg.p_total) <= 1e-12
    gap = max(np.abs(a - b).max() for a, b in zip(aware, naive))
    assert gap > 1e-3  # the loading path is live


def test_robust_rzf_on_zero_mean_posterior_raises_numerical_error():
    cfg = small_cfg(m_t=8, m_k=(2, 2), n_b=2, sigma2_z=0.1)
    stats, slot, pilots, post = make_instance(cfg, default_rng(13),
                                                 alphas=0.9)
    with pytest.raises(NumericalError, match="all-zero"):
        robust_rzf(zero_mean_posterior(stats), 2, cfg.p_total,
                   cfg.sigma2_z)


def test_perfect_csi_rate_single_user_oracle():
    h = _channels(5, k=1)[0]
    p = rzf([h], 1.0, 0.1)[0]
    hp = h @ p
    expect = np.linalg.slogdet(np.eye(2) + hp @ hp.conj().T / 0.1)[1]
    got = perfect_csi_rate([h], [p], [1.0], 0.1)
    assert abs(got - expect) <= 1e-12
