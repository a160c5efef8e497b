"""Beam-domain power allocation tests.

Core oracle: on a zero-mean posterior the whole vector-arithmetic pipeline
must reproduce, step for step, the full-matrix shared-shaping MM run started
from the same beam-aligned precoders — every matrix in that run is diagonal
in the transmit basis, so the two implementations compute the same object.
"""
import numpy as np
from numpy.random import default_rng

from helpers import (
    make_instance,
    random_precoder_set,
    relerr,
    small_cfg,
    verify_beam_structure,
    zero_mean_posterior,
)
from robustprec.beam_domain import (
    BeamAllocation,
    beam_fixed_point,
    beam_order,
    beam_power_allocation,
    beam_rate,
    beam_surrogate_diagonals,
    canonical_allocation,
)
from robustprec.channel import UserStatistics, crandn, dft_matrix
from robustprec.config import SystemConfig
from robustprec.det_equiv import de_weighted_sum_rate
from robustprec.mm_precoder import mm_full, mm_shared, mu_bisection
from robustprec.operators import basis_diag


def _zero_mean_setup(seed=21, m_t=8, m_k=(2, 2, 2), sigma2_z=0.1):
    cfg = small_cfg(m_t=m_t, m_k=m_k, n_b=3, sigma2_z=sigma2_z)
    rng = default_rng(seed)
    stats, slot, pilots, post = make_instance(cfg, rng, alphas=0.9)
    return cfg, stats, zero_mean_posterior(stats)


def _canonical_alloc(stats, cfg):
    alloc = canonical_allocation(stats, cfg)
    # structural sanity of the public helper
    assert [len(g) for g in alloc.gains] == list(cfg.d_k)
    assert abs(sum(np.sum(g ** 2) for g in alloc.gains) - cfg.p_total) < 1e-12
    return alloc


def test_beam_order_sorts_by_total_power():
    omega = np.array([[0.2, 1.0, 0.1], [0.3, 2.0, 0.1]])
    assert list(beam_order(omega)) == [1, 0, 2]
    # all-equal columns: identity (ties break toward the lower index)
    assert list(beam_order(np.ones((2, 4)))) == [0, 1, 2, 3]
    tied = np.array([[0.5, 0.7, 0.5], [0.5, 0.1, 0.5]])
    assert list(beam_order(tied)) == [0, 2, 1]
    rng = default_rng(0)
    om = rng.uniform(0.0, 1.0, (3, 7))
    totals = om.sum(axis=0)[beam_order(om)]
    assert np.all(np.diff(totals) <= 0)


def test_diagonal_fixed_point_matches_general_solver():
    cfg, stats, zm = _zero_mean_setup()
    omegas = [np.asarray(s.omega, float) for s in stats]
    v = dft_matrix(cfg.m_t)
    orders = [beam_order(om) for om in omegas]
    rng = default_rng(1)
    gains = [0.2 + 0.6 * rng.random(d) for d in cfg.d_k]
    alloc = BeamAllocation(v, orders, gains)
    alloc = BeamAllocation(v, orders, [g * np.sqrt(cfg.p_total / sum(
        float(np.sum(np.square(gg))) for gg in gains)) for g in gains])
    res = de_weighted_sum_rate(zm, alloc.precoders, cfg.weights, cfg.sigma2_z, 2)
    q_full = [alloc.beam_powers(k) for k in range(3)]
    q_sum = np.sum(q_full, axis=0)
    total = 0.0
    for k in range(3):
        r = cfg.sigma2_z + omegas[k] @ (q_sum - q_full[k])
        st = beam_fixed_point(omegas[k], q_full[k], r)
        gamma_general = basis_diag(v, res.states[k].tx_gain).real
        assert np.abs(st.tx_gain - gamma_general).max() < 1e-6
        rate_k = beam_rate(st, q_full[k], r)
        assert abs(rate_k - res.rates[k]) < 1e-6 * (1 + res.rates[k])
        total += rate_k
    assert abs(total - res.total) < 1e-6 * res.total


def test_structure_checker_accepts_aligned_rejects_random():
    cfg, stats, _ = _zero_mean_setup()
    alloc = _canonical_alloc(stats, cfg)
    ok, worst = verify_beam_structure(alloc.precoders, dft_matrix(cfg.m_t), 1e-10)
    assert ok and worst <= 1e-10
    rng = default_rng(2)
    loose = [crandn(rng, cfg.m_t, d) for d in cfg.d_k]
    ok_rand, worst_rand = verify_beam_structure(loose, dft_matrix(cfg.m_t), 1e-3)
    assert not ok_rand and worst_rand > 0.1
    # zero columns pass
    ok_zero, worst_zero = verify_beam_structure(
        [np.zeros((cfg.m_t, 2))], dft_matrix(cfg.m_t), 1e-10)
    assert ok_zero and worst_zero == 0.0


def test_allocation_run_matches_matrix_shared_update():
    # the decisive cross-check: same trajectory as the full-matrix shared
    # MM run started from the canonical beam-aligned precoders
    cfg, stats, zm = _zero_mean_setup()
    alloc0 = _canonical_alloc(stats, cfg)
    matrix_run = mm_shared(zm, cfg, 2, alloc0.precoders, iters=25, obj_tol=0.0)
    _, vector_run = beam_power_allocation(stats, cfg, iters=25, obj_tol=0.0)
    assert len(matrix_run.objective) == len(vector_run.objective)
    for a, b in zip(matrix_run.objective, vector_run.objective):
        assert abs(a - b) < 1e-7 * (1 + abs(a))
    for pa, pb in zip(matrix_run.precoders, vector_run.precoders):
        assert np.abs(pa - pb).max() < 1e-8


def test_allocation_ascends_structured_and_feasible():
    cfg, stats, _ = _zero_mean_setup()
    alloc, rep = beam_power_allocation(stats, cfg, iters=50, obj_tol=0.0)
    obj = np.array(rep.objective)
    assert np.all(np.diff(obj) >= -1e-8 * (1 + np.abs(obj[1:])))
    assert obj[-1] > obj[0]
    ok, worst = verify_beam_structure(rep.precoders, dft_matrix(cfg.m_t), 1e-10)
    assert ok, worst
    for mu, pw in zip(rep.mu_trace, rep.power_trace):
        assert pw <= cfg.p_total * (1 + 1e-9)
        if mu > 1e-9:
            assert abs(pw - cfg.p_total) <= 1e-6 * cfg.p_total


def test_beam_warm_start_from_converged_state():
    cfg, stats, _ = _zero_mean_setup()
    omegas = [np.asarray(s.omega, float) for s in stats]
    alloc = canonical_allocation(stats, cfg)
    q_full = [alloc.beam_powers(k) for k in range(3)]
    q_sum = np.sum(q_full, axis=0)
    for k in range(3):
        r = cfg.sigma2_z + omegas[k] @ (q_sum - q_full[k])
        cold = beam_fixed_point(omegas[k], q_full[k], r, tol=1e-12)
        warm = beam_fixed_point(omegas[k], q_full[k], r, tol=1e-12, init=cold)
        assert warm.iterations <= 2
        assert relerr(warm.tx_gain, cold.tx_gain) <= 1e-12
        assert relerr(warm.rx_gain, cold.rx_gain) <= 1e-12


def test_allocation_stationarity_at_convergence():
    cfg, stats, _ = _zero_mean_setup()
    omegas = [np.asarray(s.omega, float) for s in stats]
    alloc, rep = beam_power_allocation(stats, cfg, iters=2000, obj_tol=1e-13)
    q_full = [alloc.beam_powers(k) for k in range(3)]
    q_sum = np.sum(q_full, axis=0)
    r = [cfg.sigma2_z + omegas[k] @ (q_sum - q_full[k]) for k in range(3)]
    states = [beam_fixed_point(omegas[k], q_full[k], r[k]) for k in range(3)]
    _, cols = mu_bisection(*beam_surrogate_diagonals(
        omegas, cfg.weights, alloc, states, q_full, r), cfg.p_total)
    residual = max(np.linalg.norm(np.abs(c[:, 0]) - g) / np.linalg.norm(g)
                   for c, g in zip(cols, alloc.gains))
    assert residual <= 1e-5


def test_uniform_single_user_equal_power_matches_scalar_oracle():
    m_t, m_k, d = 8, 2, 2
    cfg = SystemConfig(m_t=m_t, m_k=(m_k,), d_k=(d,), n_b=2, sigma2_z=0.05)
    u = np.linalg.qr(crandn(default_rng(5), m_k, m_k))[0]
    stats = [UserStatistics.from_profile(u, np.ones((m_k, m_t)), 0.9)]
    alloc, rep = beam_power_allocation(stats, cfg, iters=400, obj_tol=1e-13)
    g = alloc.gains[0]
    assert np.ptp(g) <= 1e-9 * g.mean()  # symmetric problem: equal loading

    # independent scalar reduction at the converged per-beam power (the
    # bisection leaves the total within 1e-6 of the budget, not exactly on it)
    q = float(g[0]) ** 2
    assert abs(d * q - cfg.p_total) <= 1e-6 * cfg.p_total
    s2 = cfg.sigma2_z
    g_tl, mse = 0.0, 1.0
    for _ in range(20000):
        g_tl = m_k * mse / s2
        g_rx = d * q / (1.0 + q * g_tl)
        new_mse = 1.0 / (1.0 + g_rx / s2)
        if abs(new_mse - mse) < 1e-15:
            mse = new_mse
            break
        mse = new_mse
    g_rx = d * q / (1.0 + q * g_tl)
    oracle = (d * np.log1p(q * g_tl) + m_k * np.log1p(g_rx / s2)
              - m_k * g_rx * mse / s2)
    # a tightly converged vector solve must hit the scalar value ...
    omega = np.ones((m_k, m_t))
    q_vec = alloc.beam_powers(0)
    st = beam_fixed_point(omega, q_vec, np.full(m_k, s2), tol=1e-13)
    assert abs(beam_rate(st, q_vec, np.full(m_k, s2)) - oracle) <= 1e-9 * oracle
    # ... and the run's recorded objective (solver tol 1e-9) lands close by
    assert abs(rep.objective[-1] - oracle) <= 1e-5 * oracle


def test_vanishing_budget_yields_zero_allocation():
    cfg, stats, _ = _zero_mean_setup()
    tiny = SystemConfig(m_t=cfg.m_t, m_k=cfg.m_k, n_b=cfg.n_b,
                        sigma2_z=cfg.sigma2_z, p_total=1e-12)
    alloc, rep = beam_power_allocation(stats, tiny, iters=10)
    assert rep.objective[-1] <= 1e-9
    for g in alloc.gains:
        assert np.all(g <= 1e-5)


def test_beam_relabeling_permutes_gains_and_keeps_objective():
    cfg, stats, _ = _zero_mean_setup(seed=31)
    perm = default_rng(3).permutation(cfg.m_t)
    relabeled = [UserStatistics.from_profile(s.u, np.asarray(s.omega)[:, perm], s.alpha)
                 for s in stats]
    a1, r1 = beam_power_allocation(stats, cfg, iters=40)
    a2, r2 = beam_power_allocation(relabeled, cfg, iters=40)
    assert abs(r1.objective[-1] - r2.objective[-1]) <= 1e-10 * abs(r1.objective[-1])
    for k in range(len(stats)):
        # beam j of the relabeled problem is original beam perm[j]; only the
        # active prefix is determined (out-of-band beams tie at zero power)
        d = len(a1.gains[k])
        assert np.array_equal(perm[a2.orders[k][:d]], a1.orders[k][:d])
        assert np.allclose(a2.gains[k], a1.gains[k], rtol=1e-8, atol=1e-12)


def test_matrix_mm_at_zero_mean_lands_on_beam_structure():
    # single-stream users: converged precoder columns must ride one beam each
    cfg = SystemConfig(m_t=8, m_k=(2, 2, 2), d_k=(1, 1, 1), n_b=3, sigma2_z=0.1)
    rng = default_rng(4)
    stats, slot, pilots, post = make_instance(cfg, rng, alphas=0.9)
    zm = zero_mean_posterior(stats)
    init = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    rep = mm_full(zm, cfg, 2, init, iters=300, obj_tol=0.0)
    ok, worst = verify_beam_structure(rep.precoders, dft_matrix(cfg.m_t), 1e-8)
    assert ok, worst

    # multi-stream users: the *gram* is beam-diagonal even though columns
    # may stay mixed inside the active beam set
    cfg2, stats2, zm2 = _zero_mean_setup()
    init2 = random_precoder_set(default_rng(3), cfg2.m_t, cfg2.d_k, cfg2.p_total)
    rep2 = mm_full(zm2, cfg2, 2, init2, iters=400, obj_tol=0.0)
    v2 = dft_matrix(cfg2.m_t)
    for p in rep2.precoders:
        x = v2.conj().T @ p
        gram = np.abs(x @ x.conj().T)
        off = 1.0 - np.trace(gram) / gram.sum()
        assert off <= 1e-4
