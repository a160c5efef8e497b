"""MM precoder tests.

Oracles: a sample-level surrogate bound (receivers and error weights frozen
at the expansion point must lower-bound the averaged rate, with equality at
the expansion point), closed-form waterfilling for the single-user
perfect-CSI case, and a scalar closed form for the power multiplier.
"""
import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.random import default_rng

from helpers import (
    make_instance,
    mu_bisection_oracle,
    random_precoder_set,
    relerr,
    same_bits,
    small_cfg,
)
from robustprec import baselines, beam_domain, mm_precoder
from robustprec.beam_domain import beam_power_allocation, canonical_allocation
from robustprec.channel import (
    BeamProfile,
    crandn,
    draw_slot,
    generate_synthetic_stats,
    orthogonal_pilots,
    uplink_observation,
)
from robustprec.det_equiv import solve_fixed_point
from robustprec.errors import BisectionError
from robustprec.mm_precoder import (
    leakage_penalty,
    mm_full,
    mm_shared,
    mu_bisection,
    normalize_power,
    penalty_gap,
    self_penalty,
    self_penalty_lowrank,
    signal_gain,
    total_power,
    update_shaping,
)
from robustprec.operators import interference_covariance
from robustprec.posterior import build_posterior


def _instance(seed, m_t=8, m_k=(2, 2, 2), alphas=0.9, sigma2_z=0.1, n_b=3):
    cfg = small_cfg(m_t=m_t, m_k=m_k, n_b=n_b, sigma2_z=sigma2_z)
    rng = default_rng(seed)
    stats, slot, pilots, post = make_instance(cfg, rng, alphas=alphas)
    return cfg, rng, post


def _surrogate_pieces(cfg, post, precoders, n):
    k_users = post.n_users
    covs = [interference_covariance(post, precoders, k, n, cfg.sigma2_z)
            for k in range(k_users)]
    states = [solve_fixed_point(post, precoders[k], covs[k], k, n)
              for k in range(k_users)]
    gains = [signal_gain(post, covs[k], k, n) for k in range(k_users)]
    selfs = [self_penalty(gains[k], states[k], precoders[k]) for k in range(k_users)]
    leaks = [leakage_penalty(post, states[k], covs[k], k, n) for k in range(k_users)]
    return covs, states, gains, selfs, leaks


def _min_eig(a):
    return float(np.linalg.eigvalsh(a).min())


# ---------------------------------------------------------------------------
# penalty matrices: dual routes and structure


def test_self_penalty_routes_agree():
    cfg, rng, post = _instance(0)
    p = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    _, states, gains, selfs, _ = _surrogate_pieces(cfg, post, p, 2)
    for k in range(3):
        lowrank = self_penalty_lowrank(gains[k], states[k], p[k])
        assert relerr(lowrank, selfs[k]) < 1e-8


def test_penalty_matrices_are_psd_and_ordered():
    for seed in range(4):
        cfg, rng, post = _instance(seed)
        p = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
        _, _, gains, selfs, leaks = _surrogate_pieces(cfg, post, p, 2)
        w = cfg.weights
        scale = max(np.linalg.norm(g) for g in gains)
        for k in range(3):
            assert _min_eig(selfs[k]) > -1e-10 * scale
            assert _min_eig(leaks[k]) > -1e-10 * scale
            # both penalties are dominated by the signal gain matrix, so the
            # shared-shaping numerator w*gain + gap stays PSD even though the
            # gap itself is indefinite
            assert _min_eig(gains[k] - selfs[k]) > -1e-10 * scale
            assert _min_eig(gains[k] - leaks[k]) > -1e-10 * scale
            gap = penalty_gap(w[k], selfs[k], leaks[k])
            assert relerr(gap, gap.conj().T) < 1e-10
            assert _min_eig(w[k] * gains[k] + gap) > -1e-10 * scale
            shaping = update_shaping(w, selfs, leaks, k)
            assert _min_eig(shaping) > -1e-10 * scale


def test_perfect_csi_collapses_penalty_gap():
    # no estimation noise, no aging: self and leakage penalties coincide
    cfg = small_cfg(m_t=6, m_k=(2, 2), n_b=2, sigma2_z=0.2)
    cfg = replace(cfg, sigma2_bs=0.0)
    rng = default_rng(5)
    profile = BeamProfile(band_width=4, lognorm_sigma=0.3, alphas=1.0)
    stats = generate_synthetic_stats(cfg, profile, rng)
    slot = draw_slot(stats, cfg.n_b, rng)
    pilots = orthogonal_pilots(cfg.m_k, cfg.block_len)
    y = uplink_observation([b[0] for b in slot], pilots, 0.0, rng)
    post = build_posterior(y, pilots, stats, 0.0)
    p = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    _, _, gains, selfs, leaks = _surrogate_pieces(cfg, post, p, 2)
    for k in range(2):
        assert relerr(leaks[k], selfs[k]) < 1e-6


# ---------------------------------------------------------------------------
# sample-level surrogate bound (independent of the DE machinery)


def test_sample_surrogate_lower_bounds_rate():
    # Freeze per-sample MMSE receivers and error weights at p0. The
    # resulting quadratic must sit below the sampled average rate for every
    # probe precoder set, with equality at p0. Holds per sample, so the
    # draw count does not limit the check's precision.
    cfg = small_cfg(m_t=6, m_k=(2, 2), n_b=3, sigma2_z=0.2)
    rng = default_rng(12)
    stats, slot, pilots, post = make_instance(cfg, rng, alphas=0.85)
    n, n_draws = 2, 300
    k_users = post.n_users
    w = cfg.weights
    draws = [post.sample(k, n, rng, size=n_draws) for k in range(k_users)]
    p0 = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)

    def avg_rate(ps):
        total = 0.0
        for k in range(k_users):
            h = draws[k]
            inter = sum(ps[l] @ ps[l].conj().T for l in range(k_users) if l != k)
            hi = h @ inter @ h.conj().transpose(0, 2, 1)
            r = hi + cfg.sigma2_z * np.eye(cfg.m_k[k])
            hp = h @ ps[k]
            gram = hp @ hp.conj().transpose(0, 2, 1)
            sign, logdet = np.linalg.slogdet(r + gram)
            sign0, logdet0 = np.linalg.slogdet(r)
            total += w[k] * float(np.mean(logdet - logdet0))
        return total

    # receivers / weights at p0, per sample
    frozen = []
    for k in range(k_users):
        h = draws[k]
        inter = sum(p0[l] @ p0[l].conj().T for l in range(k_users) if l != k)
        r_full = (h @ (inter + p0[k] @ p0[k].conj().T) @ h.conj().transpose(0, 2, 1)
                  + cfg.sigma2_z * np.eye(cfg.m_k[k]))
        hp = h @ p0[k]
        g0 = np.linalg.solve(r_full, hp)
        e0 = np.eye(cfg.d_k[k]) - hp.conj().transpose(0, 2, 1) @ g0
        e0 = 0.5 * (e0 + e0.conj().transpose(0, 2, 1))
        w0 = np.linalg.inv(e0)
        frozen.append((g0, w0))

    def surrogate(ps):
        total = 0.0
        for k in range(k_users):
            h = draws[k]
            g0, w0 = frozen[k]
            d = cfg.d_k[k]
            gh = g0.conj().transpose(0, 2, 1) @ h
            resid = np.eye(d) - gh @ ps[k]
            theta = resid @ resid.conj().transpose(0, 2, 1)
            for l in range(k_users):
                if l != k:
                    cross = gh @ ps[l]
                    theta = theta + cross @ cross.conj().transpose(0, 2, 1)
            theta = theta + cfg.sigma2_z * (g0.conj().transpose(0, 2, 1) @ g0)
            sign, logdet_w = np.linalg.slogdet(w0)
            val = logdet_w + d - np.einsum("sij,sji->s", w0, theta).real
            total += w[k] * float(np.mean(val))
        return total

    f0, g0val = avg_rate(p0), surrogate(p0)
    assert abs(f0 - g0val) < 1e-9 * (1 + abs(f0))
    for trial in range(6):
        probe = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
        blend = normalize_power(
            [0.7 * a + 0.3 * b for a, b in zip(p0, probe)], cfg.p_total)
        for ps in (probe, blend):
            assert surrogate(ps) <= avg_rate(ps) + 1e-9 * (1 + abs(avg_rate(ps)))


# ---------------------------------------------------------------------------
# power multiplier search


def test_mu_bisection_scalar_oracle():
    # zero shaping, scalar target a: power(mu) = |a|^2 / mu^2 = budget
    a = 3.0 - 4.0j
    rhs = [np.array([[a]])]
    shaping = [np.zeros((1, 1))]
    for p_total in (1.0, 4.0, 0.25):
        mu, ps = mu_bisection(rhs, shaping, p_total)
        assert abs(mu - abs(a) / math.sqrt(p_total)) < 1e-5 * abs(mu)
        assert total_power(ps) <= p_total * (1 + 1e-9)
        assert abs(total_power(ps) - p_total) < 1e-6 * p_total


def test_mu_bisection_inactive_constraint():
    rng = default_rng(0)
    d = np.eye(3)
    rhs = [0.01 * crandn(rng, 3, 2)]
    mu, ps = mu_bisection(rhs, [d], 10.0)
    assert mu == 0.0
    assert np.allclose(ps[0], rhs[0])


def test_mu_bisection_feasibility_and_tightness():
    rng = default_rng(1)
    for trial in range(8):
        k = 3
        rhs = [crandn(rng, 6, 2) for _ in range(k)]
        shapings = [np.diag(rng.uniform(0.0, 2.0, 6)).astype(complex) for _ in range(k)]
        p_total = 0.5
        mu, ps = mu_bisection(rhs, shapings, p_total)
        got = total_power(ps)
        assert got <= p_total * (1 + 1e-9)
        assert mu > 0
        assert abs(got - p_total) <= 1e-6 * p_total
        # power is strictly decreasing in mu: half the multiplier overshoots
        spec = [np.linalg.eigh(s) for s in shapings]
        over = sum(
            np.sum(np.abs(q.conj().T @ r) ** 2 / (lam[:, None] + 0.5 * mu) ** 2)
            for (lam, q), r in zip(spec, rhs))
        assert over > p_total


def test_mu_bisection_shared_object_matches_copies():
    rng = default_rng(2)
    shared = np.diag(rng.uniform(0.1, 1.0, 5)).astype(complex)
    rhs = [crandn(rng, 5, 2) for _ in range(3)]
    mu_a, ps_a = mu_bisection(rhs, [shared] * 3, 1.0)
    mu_b, ps_b = mu_bisection(rhs, [shared.copy() for _ in range(3)], 1.0)
    assert mu_a == mu_b
    for a, b in zip(ps_a, ps_b):
        assert np.allclose(a, b)


def _captured_bisections(monkeypatch, module, run):
    """The (args, kwargs) of every mu_bisection call that run() makes
    through module's global."""
    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        return mu_bisection(*args, **kwargs)

    monkeypatch.setattr(module, "mu_bisection", record)
    run()
    return calls


# mm_full and mm_shared probe with spectra of one length (stacked probes);
# alg3 with d_k = (2, 1) gives users 2 and 1 active beams (the per-user loop)
@pytest.mark.parametrize("source, d_k", [
    ("mm_full", (2, 2)), ("mm_shared", (2, 2)), ("wmmse", (2, 2)),
    ("alg3", (2, 2)), ("alg3", (2, 1)),
])
def test_mu_bisection_matches_the_per_user_loop_bit_for_bit(
        monkeypatch, source, d_k):
    cfg = small_cfg(m_t=8, m_k=(2, 2), d_k=d_k, n_b=2, sigma2_z=0.1)
    stats, slot, _, post = make_instance(cfg, default_rng(21), alphas=0.9)
    init = canonical_allocation(stats, cfg).precoders
    runs = {
        "mm_full": (mm_precoder, lambda: mm_full(post, cfg, 2, init, iters=6)),
        "mm_shared": (mm_precoder,
                      lambda: mm_shared(post, cfg, 2, init, iters=6)),
        "wmmse": (baselines, lambda: baselines.wmmse(
            [b[0] for b in slot], cfg.p_total, cfg.sigma2_z, cfg.weights)),
        "alg3": (beam_domain,
                 lambda: beam_power_allocation(stats, cfg, iters=6)),
    }
    calls = _captured_bisections(monkeypatch, *runs[source])
    if d_k == (2, 1):
        assert all(len({r.shape[0] for r in a[0]}) == 2 for a, _ in calls)
    mus = []
    for args, kwargs in calls:
        mu, ps = mu_bisection(*args, **kwargs)
        mu_want, ps_want = mu_bisection_oracle(*args, **kwargs)
        assert mu == mu_want
        assert all(same_bits(p, q) for p, q in zip(ps, ps_want))
        mus.append(mu)
    assert max(mus) > 0  # the budget binds, so probes at mu > 0 ran


@pytest.mark.parametrize("k_users, m", [(3, 8), (4, 32), (16, 128)])
def test_stacked_probe_has_the_per_user_sums_bits(k_users, m):
    # the power at mu > 0 decides every bracket step, so it must not move
    rng = default_rng(m)
    data = []
    for _ in range(k_users):
        lam = np.maximum(rng.standard_normal(m), 0.0)  # about half are 0
        data.append((lam, rng.exponential(size=m) * rng.uniform(1e-3, 1e3)))
    probe = mm_precoder._stacked_power_at(data)
    for mu in np.geomspace(1e-9, 1e9, 61):
        assert probe(mu) == mm_precoder._power_at(data, mu)
    assert mm_precoder._stacked_power_at(data[:1] + [(
        np.zeros(m - 1), np.ones(m - 1))]) is None  # unequal lengths


def test_mu_bisection_all_zero_rhs():
    mu, ps = mu_bisection([np.zeros((4, 2))], [np.eye(4)], 1.0)
    assert mu == 0.0
    assert total_power(ps) == 0.0


def test_mu_bisection_unbracketable_raises():
    rhs = [np.full((1, 1), 1e200)]
    with np.errstate(over="ignore"), pytest.raises(BisectionError):
        mu_bisection(rhs, [np.zeros((1, 1))], 1.0)


# ---------------------------------------------------------------------------
# the two MM algorithms


@pytest.mark.parametrize("algorithm", [mm_full, mm_shared])
def test_mm_objective_is_nondecreasing(algorithm):
    for seed in (0, 1, 2):
        cfg, rng, post = _instance(seed, sigma2_z=0.1)
        init = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
        rep = algorithm(post, cfg, 2, init, iters=20)
        obj = np.array(rep.objective)
        slack = 1e-8 * (1 + np.abs(obj[1:]))
        assert np.all(np.diff(obj) >= -slack)
        assert obj[-1] > obj[0]
        assert len(obj) == rep.updates + 1


@pytest.mark.parametrize("algorithm", [mm_full, mm_shared])
def test_mm_power_trace_feasible(algorithm):
    cfg, rng, post = _instance(3)
    init = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    rep = algorithm(post, cfg, 2, init, iters=12)
    for mu, pw in zip(rep.mu_trace, rep.power_trace):
        assert pw <= cfg.p_total * (1 + 1e-9)
        if mu > 1e-9:
            assert abs(pw - cfg.p_total) <= 1e-6 * cfg.p_total


def test_mm_early_exit_flags_convergence():
    cfg, rng, post = _instance(4)
    init = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    rep = mm_full(post, cfg, 2, init, iters=200, obj_tol=1e-4)
    assert rep.converged
    assert rep.updates < 200
    tail = abs(rep.objective[-1] - rep.objective[-2])
    assert tail <= 1e-4 * (1 + abs(rep.objective[-1]))


def test_mm_de_trace_records_sweeps():
    cfg, rng, post = _instance(5)
    init = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    rep = mm_full(post, cfg, 2, init, iters=3)
    trace = rep.de_trace
    assert len(trace) == (rep.updates + 1) * post.n_users
    iters_seen = {row[0] for row in trace}
    assert 0 in iters_seen
    for row in trace:
        assert row[3] < 1e-9  # every recorded solve hit the requested tol


def test_single_user_perfect_csi_reaches_waterfilling():
    # closed-form oracle: SVD power loading with a bisected water level
    cfg = small_cfg(m_t=6, m_k=(3,), n_b=2, sigma2_z=0.1)
    cfg = replace(cfg, sigma2_bs=0.0)
    rng = default_rng(3)
    profile = BeamProfile(band_width=4, lognorm_sigma=0.4, alphas=1.0)
    stats = generate_synthetic_stats(cfg, profile, rng)
    slot = draw_slot(stats, cfg.n_b, rng)
    pilots = orthogonal_pilots(cfg.m_k, cfg.block_len)
    y = uplink_observation([b[0] for b in slot], pilots, 0.0, rng)
    post = build_posterior(y, pilots, stats, 0.0)
    h = slot[0][1]

    s = np.linalg.svd(h, compute_uv=False)
    gain = s ** 2 / cfg.sigma2_z
    lo, hi = 1e-14, 1e14
    for _ in range(200):
        nu = math.sqrt(lo * hi)
        if np.maximum(1.0 / nu - 1.0 / gain, 0.0).sum() > cfg.p_total:
            lo = nu
        else:
            hi = nu
    loading = np.maximum(1.0 / hi - 1.0 / gain, 0.0)
    oracle = float(np.sum(np.log1p(loading * gain)))

    init = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    rep = mm_full(post, cfg, 2, init, iters=150, obj_tol=0.0)
    assert abs(rep.objective[-1] - oracle) <= 1e-6 * oracle


def test_single_user_full_and_shared_share_fixed_points():
    # The two updates differ step by step (the shared variant adds a PSD
    # proximal term), but any fixed point of one is a fixed point of the
    # other, so long runs from one init land on the same objective.
    cfg = small_cfg(m_t=8, m_k=(3,), n_b=3, sigma2_z=0.1)
    rng = default_rng(11)
    stats, slot, pilots, post = make_instance(cfg, rng, alphas=0.85)
    init = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    ra = mm_full(post, cfg, 2, init, iters=120, obj_tol=0.0)
    rb = mm_shared(post, cfg, 2, init, iters=120, obj_tol=0.0)
    assert abs(ra.objective[-1] - rb.objective[-1]) <= 2e-3 * abs(ra.objective[-1])
    # and explicitly: one step of each from the full variant's limit stays put
    p_star = ra.precoders
    one_full = mm_full(post, cfg, 2, p_star, iters=1, obj_tol=0.0)
    one_shared = mm_shared(post, cfg, 2, p_star, iters=1, obj_tol=0.0)
    move_full = sum(np.linalg.norm(a - b) for a, b in zip(one_full.precoders, p_star))
    move_shared = sum(np.linalg.norm(a - b) for a, b in zip(one_shared.precoders, p_star))
    assert move_full < 5e-3
    assert move_shared < 5e-3


def test_zero_aging_decouples_blocks():
    # alpha = 0 posterior has zero mean at data blocks: the MM problem is
    # identical for every data block, so runs from one init coincide
    cfg = small_cfg(m_t=6, m_k=(2, 2), n_b=4, sigma2_z=0.2)
    rng = default_rng(9)
    stats, slot, pilots, post = make_instance(cfg, rng, alphas=0.0)
    init = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    r2 = mm_full(post, cfg, 2, init, iters=6)
    r3 = mm_full(post, cfg, 3, init, iters=6)
    assert np.allclose(r2.objective, r3.objective, rtol=1e-10, atol=1e-12)
    for a, b in zip(r2.precoders, r3.precoders):
        assert np.allclose(a, b)
