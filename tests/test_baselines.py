"""Baseline precoder tests.

Independent oracles: singular vectors for the single-user leakage design, a
tiny-noise zero-forcing limit for regularized inversion, and — the load-bearing
one — exact step agreement between the alternating sum-MSE update and the
posterior-based MM update when the posterior collapses onto the true channel.
"""
import numpy as np
import pytest
from numpy.random import default_rng

from helpers import (
    make_instance,
    random_precoder_set,
    relerr,
    same_bits,
    small_cfg,
    wmmse_oracle,
    zero_mean_posterior,
)
from robustprec import baselines
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
from robustprec.operators import mean_quadratic_tx


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


def test_slnr_without_a_positive_definite_leakage_is_a_numerical_error():
    # 300 dB: the noise term is far below the others' rank-2 Gram's
    # round-off, so the generalized eigenproblem has no definite side
    with pytest.raises(NumericalError, match="slnr"):
        slnr(_channels(4, k=2), 1.0, 1e-30)


@pytest.mark.parametrize("snr_db", [10, 60])
def test_slnr_columns_are_top_generalized_eigenvectors(snr_db):
    # user k's columns x solve A x = lambda B x, A its own Gram matrix and
    # B noise plus the others' Gram matrices, with lambda descending
    chans, p_total = _channels(5, k=3, m_k=2, m_t=8), 2.0
    sigma2_z = p_total * 10.0 ** (-snr_db / 10)
    pre = slnr(chans, p_total, sigma2_z)
    grams = [h.conj().T @ h for h in chans]
    for k, x in enumerate(pre):
        m_k = chans[k].shape[0]
        b = (sigma2_z * m_k * len(chans) / p_total) * np.eye(8) + sum(
            g for l, g in enumerate(grams) if l != k)
        ax, bx = grams[k] @ x, b @ x
        lam = np.real(np.sum(x.conj() * ax, axis=0)
                      / np.sum(x.conj() * bx, axis=0))
        # the normwise backward error |Ax - lambda Bx| / ((|A| + |lambda| |B|)
        # |x|): about 1e-16 here, where |Ax - lambda Bx| / |Ax| is about
        # 1e-10 at 60 dB for any solver, B's condition number being about 1e6
        resid = np.linalg.norm(ax - lam * bx, axis=0) / (
            (np.linalg.norm(grams[k], 2) + lam * np.linalg.norm(b, 2))
            * np.linalg.norm(x, axis=0))
        assert np.all(resid <= 1e-10)
        assert np.all(np.diff(lam) < 0)
        # unit columns before the uniform power split
        scale = np.sqrt(p_total / (len(chans) * m_k))
        assert np.allclose(np.linalg.norm(x, axis=0) / scale, 1.0,
                           rtol=0, atol=1e-12)


def test_wmmse_ascends_known_channel_rate_and_beats_inversion():
    chans = _channels(4)
    weights = [1.0, 1.5, 0.7]
    # tol_power below the ascent slack so the inner bisection's budget
    # shortfall cannot mask the monotonicity guarantee
    rep = wmmse(chans, 1.0, 0.1, weights, iters=60, tol_power=1e-11)
    r = np.array(rep.objective)
    assert np.all(np.diff(r) >= -1e-8 * (1 + np.abs(r[1:])))
    assert r[-1] > r[0] + 1e-3
    assert abs(total_power(rep.precoders) - 1.0) <= 1e-6


@pytest.mark.parametrize("iters, converged", [(0, False), (500, True),
                                               (3, False)])
def test_wmmse_runs_the_ascent_loop_as_its_own_loop_did(iters, converged):
    # iters 0 returns the rzf start, 500 stops on the rate tolerance and
    # 3 stops at the update cap
    chans = _channels(4)
    weights = [1.0, 1.5, 0.7]
    rep = wmmse(chans, 1.0, 0.1, weights, iters=iters)
    pre, rates, mus = wmmse_oracle(chans, 1.0, 0.1, weights, iters=iters)
    assert rep.converged is converged
    assert rep.updates == len(mus) == len(rates) - 1
    assert rep.updates < iters if converged else rep.updates == iters
    assert rep.objective == rates
    assert rep.mu_trace == mus
    assert all(same_bits(p, q) for p, q in zip(rep.precoders, pre))
    assert rep.de_trace == []


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


@pytest.mark.parametrize("m_t", [8, 64])
def test_robust_rzf_loads_one_beam_matrix_of_the_summed_diagonals(
        monkeypatch, m_t):
    # the users' error Grams E[err_k^H err_k] enter as one V diag(g) V^H of
    # their summed beam diagonals, where each was its own mean_quadratic_tx
    cfg = small_cfg(m_t=m_t, m_k=(2, 1, 2), n_b=2, sigma2_z=0.1)
    _, _, _, post = make_instance(cfg, default_rng(14), alphas=0.7)
    real, loads = baselines._beam_matrix, []

    def record(g):
        loads.append(real(g))
        return loads[-1]

    monkeypatch.setattr(baselines, "_beam_matrix", record)
    robust_rzf(post, 2, cfg.p_total, cfg.sigma2_z)
    want = sum(mean_quadratic_tx(post.kernel(k, 2), np.eye(m, dtype=complex))
               for k, m in enumerate(cfg.m_k))
    (load,) = loads
    assert relerr(load, want) <= 1e-12


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
