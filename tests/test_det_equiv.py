import numpy as np
import pytest

from robustprec.beam_domain import canonical_allocation
from robustprec.channel import BeamProfile, generate_synthetic_stats
from robustprec.config import SystemConfig, at_noise, noise_from_snr
from robustprec.det_equiv import (
    de_rate_form1,
    de_rate_form2,
    de_weighted_sum_rate,
    inverse_sqrt_psd,
    solve_fixed_point,
)
from robustprec.errors import FixedPointError
from robustprec.evaluation import experiment_statistics, prepare_slot
from robustprec.operators import (
    hermitize,
    interference_covariance,
    mean_quadratic_rx,
    mean_quadratic_tx,
)
from robustprec.posterior import build_posterior

from helpers import (
    make_instance,
    rand_hermitian_psd,
    random_precoder_set,
    relerr,
    small_cfg,
    zero_mean_posterior,
)


def picard_reference(posterior, p, r, k, n, beta=0.3, iters=5000, tol=1e-13):
    """Independent fixed-point iteration, different sweep order, heavy damping.

    Starts from zero gains, computes the resolvents first and relaxes the
    gain updates; used only as a cross-check oracle for the solver.
    """
    kern = posterior.kernel(k, n)
    mean = posterior.mean(k, n)
    d = p.shape[1]
    m_k = kern.m_k
    l = inverse_sqrt_psd(r)
    lm = l @ mean
    tx = np.zeros((p.shape[0], p.shape[0]), dtype=complex)
    rx = np.zeros((m_k, m_k), dtype=complex)
    for _ in range(iters):
        g = np.linalg.inv(np.eye(d) + p.conj().T @ tx @ p)
        gt = np.linalg.inv(np.eye(m_k) + l @ rx @ l)
        t_rx = hermitize(l @ gt @ l)
        pgp = hermitize(p @ g @ p.conj().T)
        e_tx = mean_quadratic_tx(kern, t_rx)
        e_rx = mean_quadratic_rx(kern, pgp)
        phi = np.eye(d) + p.conj().T @ e_tx @ p
        phit = np.eye(m_k) + l @ e_rx @ l
        tx_new = e_tx + lm.conj().T @ np.linalg.solve(phit, lm)
        rx_new = e_rx + (mean @ p) @ np.linalg.solve(phi, (mean @ p).conj().T)
        step = max(np.linalg.norm(tx_new - tx) / max(np.linalg.norm(tx_new), 1e-300),
                   np.linalg.norm(rx_new - rx) / max(np.linalg.norm(rx_new), 1e-300))
        tx = (1 - beta) * tx + beta * tx_new
        rx = (1 - beta) * rx + beta * rx_new
        if step < tol:
            break
    return tx, rx


def mc_rate(posterior, p, r, k, n, n_samples, rng):
    """Sample-average rate E[logdet(I + R^-1 H P P^H H^H)] (nats)."""
    l = inverse_sqrt_psd(r)
    h = posterior.sample(k, n, rng, size=n_samples)
    lhp = (l @ h) @ p
    gram = lhp.conj().transpose(0, 2, 1) @ lhp
    eye = np.eye(p.shape[1])
    return float(np.mean(np.linalg.slogdet(eye + gram)[1].real))


def _instance(rng, m_t=8, m_k=(2, 2), alphas=0.8, sigma2_z=0.1, **kw):
    cfg = small_cfg(m_t=m_t, m_k=m_k, n_b=3, sigma2_z=sigma2_z)
    _, _, _, post = make_instance(cfg, rng, alphas=alphas, **kw)
    precoders = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    return cfg, post, precoders


def test_inverse_sqrt_psd():
    rng = np.random.default_rng(0)
    r = rand_hermitian_psd(rng, 4) + 0.1 * np.eye(4)
    l = inverse_sqrt_psd(r)
    assert np.allclose(l @ r @ l, np.eye(4), atol=1e-10)
    assert np.allclose(l, l.conj().T, atol=1e-12)


def test_fixed_point_agrees_with_independent_picard():
    rng = np.random.default_rng(1)
    cfg, post, precoders = _instance(rng)
    k, n = 0, 2
    r = interference_covariance(post, precoders, k, n, cfg.sigma2_z)
    state = solve_fixed_point(post, precoders[k], r, k, n, tol=1e-12)
    tx_ref, rx_ref = picard_reference(post, precoders[k], r, k, n)
    assert np.linalg.norm(state.tx_gain - tx_ref) < 1e-6 * max(np.linalg.norm(tx_ref), 1e-300)
    assert np.linalg.norm(state.rx_gain - rx_ref) < 1e-6 * max(np.linalg.norm(rx_ref), 1e-300)


def test_rate_forms_agree():
    rng = np.random.default_rng(2)
    for seed in range(5):
        cfg, post, precoders = _instance(np.random.default_rng(seed + 10))
        k, n = seed % 2, 2
        r = interference_covariance(post, precoders, k, n, cfg.sigma2_z)
        state = solve_fixed_point(post, precoders[k], r, k, n, tol=1e-11)
        r1 = de_rate_form1(state, post, precoders[k], k, n)
        r2 = de_rate_form2(state, post, precoders[k], k, n)
        assert abs(r1 - r2) <= 1e-6 * max(abs(r1), 1e-12)


def test_exact_under_perfect_csi():
    # zero posterior variance: DE equals logdet(I + R^-1 H P P^H H^H) exactly
    rng = np.random.default_rng(3)
    cfg = small_cfg(m_t=8, m_k=(2, 2), n_b=3, sigma2_z=0.2)
    from robustprec.channel import uplink_observation
    stats, slot, pilots, _ = make_instance(cfg, rng, alphas=1.0)
    y = uplink_observation([b[0] for b in slot], pilots, 0.0, rng)
    post = build_posterior(y, pilots, stats, 0.0)
    precoders = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    for k in range(2):
        r = interference_covariance(post, precoders, k, 2, cfg.sigma2_z)
        state = solve_fixed_point(post, precoders[k], r, k, 2)
        assert state.iterations <= 3
        h = post.mean(k, 2)
        m = np.eye(2) + np.linalg.solve(r, h @ precoders[k] @ precoders[k].conj().T @ h.conj().T)
        want = float(np.linalg.slogdet(m)[1].real)
        got = de_rate_form1(state, post, precoders[k], k, 2)
        assert abs(got - want) < 1e-9 * max(abs(want), 1e-12)


def test_zero_precoder_gives_zero_rate():
    rng = np.random.default_rng(4)
    cfg, post, precoders = _instance(rng)
    p0 = [np.zeros_like(p) for p in precoders]
    res = de_weighted_sum_rate(post, p0, cfg.weights, cfg.sigma2_z, 2)
    assert res.total == 0.0
    assert all(s.iterations <= 3 for s in res.states)


def test_null_channel_state():
    # zero mean and zero variance: all gains vanish, rate 0
    rng = np.random.default_rng(5)
    cfg = small_cfg(m_t=8, m_k=(2,), n_b=2)
    stats, _, _, _ = make_instance(cfg, rng, alphas=1.0)
    post = zero_mean_posterior(stats)
    post.stats = [post.stats[0]]
    kern_zero = post.var_profile(0, 2) * 0.0
    import dataclasses
    post.stats[0] = dataclasses.replace(post.stats[0], amp=kern_zero)
    p = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    r = interference_covariance(post, p, 0, 2, cfg.sigma2_z)
    state = solve_fixed_point(post, p[0], r, 0, 2)
    assert np.all(state.tx_gain == 0)
    assert np.all(state.rx_gain == 0)
    assert de_rate_form1(state, post, p[0], 0, 2) == 0.0


def test_de_matches_monte_carlo_small():
    rng = np.random.default_rng(6)
    cfg = small_cfg(m_t=16, m_k=(2, 2, 2, 2), n_b=3, sigma2_z=0.1)
    _, _, _, post = make_instance(cfg, rng, alphas=0.85)
    precoders = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    for k in (0, 2):
        r = interference_covariance(post, precoders, k, 2, cfg.sigma2_z)
        state = solve_fixed_point(post, precoders[k], r, k, 2)
        de = de_rate_form1(state, post, precoders[k], k, 2)
        mc = mc_rate(post, precoders[k], r, k, 2, 10_000, rng)
        assert abs(de - mc) / abs(mc) < 0.03


def test_de_accuracy_improves_with_dimension():
    # relative DE-vs-MC error shrinks as the system dimensions grow jointly
    # (receive side scaled with the array; the logdet dimension must grow for
    # the asymptotic regime to bite, a fixed 2x2 rate saturates at its floor)
    errs = {}
    for m_t in (8, 32):
        m = m_t // 4
        tot = 0.0
        for i in range(20):
            rng = np.random.default_rng(100 + i)
            cfg = small_cfg(m_t=m_t, m_k=(m, m), n_b=2, sigma2_z=0.1)
            profile = BeamProfile(band_width=m_t, lognorm_sigma=0.5, alphas=0.9)
            stats = generate_synthetic_stats(cfg, profile, rng)
            post = zero_mean_posterior(stats)
            precoders = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
            r = interference_covariance(post, precoders, 0, 2, cfg.sigma2_z)
            state = solve_fixed_point(post, precoders[0], r, 0, 2)
            de = de_rate_form1(state, post, precoders[0], 0, 2)
            mc = mc_rate(post, precoders[0], r, 0, 2, 20_000, rng)
            tot += abs(de - mc) / abs(mc)
        errs[m_t] = tot / 20
    assert errs[32] <= errs[8]


def test_warm_start_cuts_sweeps():
    rng = np.random.default_rng(7)
    cfg, post, precoders = _instance(rng)
    r = interference_covariance(post, precoders, 0, 2, cfg.sigma2_z)
    cold = solve_fixed_point(post, precoders[0], r, 0, 2, tol=1e-10)
    warm = solve_fixed_point(post, precoders[0], r, 0, 2, tol=1e-10, init=cold)
    assert warm.iterations <= 3
    assert warm.iterations <= cold.iterations
    assert relerr(warm.tx_gain, cold.tx_gain) < 1e-8


@pytest.mark.parametrize("snr_db", [40.0, 80.0])
def test_rank_one_high_snr_two_cycle_is_damped_to_convergence(snr_db):
    # zero-mean rank-one statistics at high SNR: undamped sweeps alternate
    # in a two-cycle that shrinks by under 0.5% per sweep
    cfg = at_noise(SystemConfig(m_t=8, m_k=(1, 1), n_b=2), noise_from_snr(snr_db))
    stats = experiment_statistics(cfg, BeamProfile(band_width=1, alphas=0.0))
    post = prepare_slot(cfg, stats, 0)[1]
    precoders = canonical_allocation(stats, cfg).precoders
    res = de_weighted_sum_rate(post, precoders, cfg.weights, cfg.sigma2_z, 2)
    for k, state in enumerate(res.states):
        assert state.iterations <= 60
        form2 = de_rate_form2(state, post, precoders[k], k, 2)
        assert abs(res.rates[k] - form2) <= 1e-12 * res.rates[k]


def test_solver_raises_on_max_iter():
    rng = np.random.default_rng(8)
    cfg, post, precoders = _instance(rng)
    r = interference_covariance(post, precoders, 0, 2, cfg.sigma2_z)
    with pytest.raises(FixedPointError):
        solve_fixed_point(post, precoders[0], r, 0, 2, max_iter=1)


def test_solver_trace_records_residuals():
    rng = np.random.default_rng(9)
    cfg, post, precoders = _instance(rng)
    r = interference_covariance(post, precoders, 0, 2, cfg.sigma2_z)
    rows = []
    state = solve_fixed_point(post, precoders[0], r, 0, 2, trace=rows)
    assert len(rows) == state.iterations
    assert rows[-1][1] == state.residual
    # residuals eventually decrease below tolerance
    assert rows[-1][1] <= 1e-9
