"""MM precoder tests.

Oracles: a sample-level surrogate bound (receivers and error weights frozen
at the expansion point must lower-bound the averaged rate, with equality at
the expansion point), closed-form waterfilling for the single-user
perfect-CSI case, and a scalar closed form for the power multiplier.
"""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from numpy.random import default_rng

from helpers import (
    make_instance,
    mm_ascent_oracle,
    mu_bisection_oracle,
    power_oracle,
    random_precoder_set,
    relerr,
    same_bits,
    scenario_instance,
    self_penalty_oracle,
    small_cfg,
    small_scenarios,
    traced_heap,
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
from robustprec.errors import BisectionError, NumericalError
from robustprec.mm_precoder import (
    leakage_penalty,
    mm_full,
    mm_shared,
    mu_bisection,
    normalize_power,
    own_curvature,
    self_penalty,
    signal_gain,
    total_power,
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
        full = self_penalty_oracle(gains[k], states[k], p[k])
        assert relerr(selfs[k], full) < 1e-8


@pytest.mark.parametrize("m_t", [8, 64])
def test_the_gap_times_the_precoder_is_the_rate_gradient(m_t):
    # the MM updates' right-hand side: (gain - self_penalty) P is
    # tx_gain P stream_mse by the inversion lemma, and mm_full's own term
    # is self_penalty - leakage_penalty with no signal gain formed, on both
    # branches of mean_quadratic_tx
    cfg, rng, post = _instance(m_t, m_t=m_t)
    p = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    covs, states, gains, selfs, leaks = _surrogate_pieces(cfg, post, p, 2)
    for k, state in enumerate(states):
        tx_gain = state.tx_gain
        tp = tx_gain @ p[k]
        assert relerr((gains[k] - selfs[k]) @ p[k],
                      tp @ state.stream_mse) <= 1e-12
        own = own_curvature(post, state, covs[k], k, 2, tx_gain, tp)
        assert relerr(own, selfs[k] - leaks[k]) <= 1e-12


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
            gap = w[k] * (leaks[k] - selfs[k])
            assert relerr(gap, gap.conj().T) < 1e-10
            assert _min_eig(w[k] * gains[k] + gap) > -1e-10 * scale
            shaping = w[k] * selfs[k] + sum(w[l] * leaks[l] for l in range(3)
                                            if l != k)
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


def test_mu_bisection_brackets_a_multiplier_above_2_to_the_60():
    # a tiny budget against a large target puts the multiplier at |a| /
    # sqrt(p_total), past the 2^60 that once capped the bracket; the bound
    # the data give, sqrt(|a|^2 / p_total), lets the doubling go on
    rhs, shaping = [np.array([[1e21]])], [np.zeros((1, 1))]
    for p_total in (1.0, 1e-20):
        mu, ps = mu_bisection(rhs, shaping, p_total)
        assert mu > 2.0 ** 60
        assert abs(mu - 1e21 / math.sqrt(p_total)) < 1e-5 * mu
        assert abs(total_power(ps) - p_total) < 1e-6 * p_total
        mu_want, ps_want = mu_bisection_oracle(rhs, shaping, p_total)
        assert mu == mu_want and same_bits(ps[0], ps_want[0])


def test_mu_bisection_meets_a_tiny_budget_against_huge_shapings():
    # eigenvalues near 1e162 square past the largest double: the probe read
    # 0 power for their rows and handed back the mu = 0 precoders, which
    # spend about 1400 times a 1e-160 budget
    rng = default_rng(4)
    shapings, rhs = [], []
    for _ in range(3):
        q = np.linalg.qr(crandn(rng, 6, 6))[0]
        lam = rng.uniform(1.0, 3.0, 6) * 1e162
        shapings.append((q * lam) @ q.conj().T)
        rhs.append(1e83 * crandn(rng, 6, 2))
    p_total = 1e-160
    mu, ps = mu_bisection(rhs, shapings, p_total)
    assert mu > 0
    assert total_power(ps) <= p_total
    assert abs(total_power(ps) - p_total) <= 1e-6 * p_total


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
    through module's global, with the shapings as a list: mm_full hands
    them over one at a time, which a replay cannot read again."""
    calls = []

    def record(rhs, shapings, *args, **kwargs):
        args = (rhs, list(shapings), *args)
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


# the equal-length spectra of the MM designs, and unequal rows shorter than
# 8 (alg3's active beams), whose padding cannot regroup a row sum
@pytest.mark.parametrize("sizes", [(8,) * 3, (32,) * 4, (128,) * 16,
                                   (7, 1, 4, 2, 5)],
                         ids=["3-8", "4-32", "16-128", "unequal"])
def test_power_probe_matches_the_per_user_oracle(sizes):
    # the power at mu > 0 decides every bracket step, so it must not move
    rng = default_rng(sum(sizes))
    data = []
    for m in sizes:
        lam = np.maximum(rng.standard_normal(m), 0.0)  # about half are 0
        data.append((lam, rng.exponential(size=m) * rng.uniform(1e-3, 1e3)))
    probe = mm_precoder._power_probe(data)
    for mu in np.geomspace(1e-9, 1e9, 61):
        assert probe(mu) == power_oracle(data, mu)
    # at mu = 0 a zero eigenvalue under a positive weight makes the power
    # infinite, and one under a zero weight adds nothing
    assert probe(0.0) == power_oracle(data, 0.0) == np.inf
    for k in range(len(sizes)):
        cut = [(lam, np.where(lam > 0, row, 0.0)) if l >= k else (lam, row)
               for l, (lam, row) in enumerate(data)]
        got, want = mm_precoder._power_probe(cut)(0.0), power_oracle(cut, 0.0)
        assert (got == np.inf) == (want == np.inf) == (k > 0)
        assert got == want or abs(got - want) <= 1e-13 * want


def test_normalize_power_refuses_a_scale_that_overflows():
    # a 1e200 budget over a power of 2e-200 overflows the scale, which turns
    # every entry into inf or NaN
    with pytest.raises(NumericalError, match="cannot scale"):
        normalize_power([np.full((2, 1), 1e-100)], 1e200)
    assert total_power(normalize_power([np.full((2, 1), 1e-100)], 1e100)) > 0


def test_mu_bisection_all_zero_rhs():
    mu, ps = mu_bisection([np.zeros((4, 2))], [np.eye(4)], 1.0)
    assert mu == 0.0
    assert total_power(ps) == 0.0


def test_mu_bisection_unbracketable_raises():
    rhs = [np.full((1, 1), 1e200)]
    with np.errstate(over="ignore"), pytest.raises(BisectionError):
        mu_bisection(rhs, [np.zeros((1, 1))], 1.0)


def test_an_overflowing_power_probe_fails_to_bracket():
    # a 1e200 shaping over a 1e200 right-hand side makes the probe inf / inf
    # at every mu; that NaN power ended the bracket at once and left the
    # bisection 500 probes that could never meet the budget
    with np.errstate(over="ignore"), pytest.raises(
            BisectionError, match="failed to bracket"):
        mu_bisection([np.full((1, 1), 1e200)], [np.full((1, 1), 1e200)], 1.0)


@pytest.mark.parametrize("where", ["shaping", "rhs"])
def test_mu_bisection_with_a_nan_input_raises(where):
    # a NaN shaping or right-hand side once left its user out of the power
    # probe and came back as a NaN precoder
    shapings = [np.eye(4, dtype=complex), np.eye(4, dtype=complex)]
    rhs = [np.ones((4, 1), dtype=complex), np.ones((4, 1), dtype=complex)]
    (shapings if where == "shaping" else rhs)[1][1, 0] = np.nan
    with pytest.raises(BisectionError, match="NaN"):
        mu_bisection(rhs, shapings, 1.0)


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


@pytest.mark.parametrize("algorithm", [mm_full, mm_shared])
def test_mm_matches_the_all_users_update_bit_for_bit(algorithm):
    # one user at a time holds its gain and self penalty; the sums, and so
    # every bit of the report, are those of the update that lists all K
    cfg = replace(small_cfg(m_t=8, m_k=(3, 2, 2), d_k=(3, 1, 2), n_b=3),
                  weights=(1.0, 0.4, 2.5))
    rng = default_rng(21)
    stats, slot, pilots, post = make_instance(cfg, rng, alphas=0.85)
    init = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    got = algorithm(post, cfg, 2, init, iters=5, obj_tol=0.0)
    want = mm_ascent_oracle(post, cfg, 2, init, 5, algorithm is mm_shared,
                            obj_tol=0.0)
    assert got.updates == want.updates == 5
    assert all(same_bits(a, b) for a, b in zip(got.precoders, want.precoders))
    for field in ("objective", "mu_trace", "power_trace"):
        assert (np.array(getattr(got, field)).view(np.uint64).tolist()
                == np.array(getattr(want, field)).view(np.uint64).tolist())


# mm_shared keeps its earlier 3.5 case next to the 0.9 bound that now holds
@pytest.mark.parametrize("algorithm, units",
                         [(mm_full, 5.0), (mm_shared, 3.5), (mm_shared, 0.9)])
def test_mm_update_holds_one_users_gain_and_self_penalty(algorithm, units):
    # peak heap of a whole ascent in K m_t^2 complex entries: an update that
    # lists every user's gain, self penalty and leakage penalty at once
    # peaks at 6.3 (mm_full) and 4.7 (mm_shared); one user at a time, at
    # 3.6 and 2.7 while the DE states kept their transmit gains, and at 1.8
    # and 1.2 with the states held as factors.  mm_shared, which forms no
    # signal gain or self penalty, peaks at 0.79 (1.04 when it formed both)
    cfg = small_cfg(m_t=64, m_k=(2,) * 8, n_b=3)
    rng = default_rng(0)
    stats, slot, pilots, post = make_instance(cfg, rng)
    init = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    algorithm(post, cfg, 2, init, iters=2, obj_tol=0.0)  # warm-up
    with traced_heap() as heap:
        algorithm(post, cfg, 2, init, iters=2, obj_tol=0.0)
        peak = heap()[1]
    assert peak < units * post.n_users * cfg.m_t ** 2 * 16


@pytest.mark.parametrize("algorithm", [mm_full, mm_shared])
def test_mm_forms_no_signal_gain_or_self_penalty(monkeypatch, algorithm):
    def forbidden(*args):
        raise AssertionError("an MM update formed a signal gain or self "
                             "penalty")

    monkeypatch.setattr(mm_precoder, "signal_gain", forbidden)
    monkeypatch.setattr(mm_precoder, "self_penalty", forbidden)
    cfg, rng, post = _instance(4)
    init = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    assert algorithm(post, cfg, 2, init, iters=3, obj_tol=0.0).updates == 3


def _update_memory_instance():
    """(cfg, posterior, init, unit) of the memory tests: m_t = 64, K = 8
    users with m_k = 2, block 2, the canonical start, and the
    unit K m_t^2 complex entries in bytes."""
    cfg = small_cfg(m_t=64, m_k=(2,) * 8, n_b=2)
    stats, _, _, post = make_instance(cfg, default_rng(3))
    init = canonical_allocation(stats, cfg).precoders
    return cfg, post, init, post.n_users * cfg.m_t ** 2 * 16


def test_mm_full_drops_its_leakage_penalties_before_the_multiplier_search(
        monkeypatch):
    # heap in K m_t^2 complex entries over one update (iters=1; the
    # evaluations on either side peak lower).  Into the multiplier search
    # the update brings the shapings alone (1.2): with the DE states'
    # transmit gains too it held 2.2 and peaked at 3.4, and with the
    # leakage penalties as well, 3.2 and 4.4
    cfg, post, init, unit = _update_memory_instance()
    mm_full(post, cfg, 2, init, iters=1)  # warm-up
    held = []

    def record(*args, **kwargs):
        held.append(heap()[0])
        return mu_bisection(*args, **kwargs)

    monkeypatch.setattr(mm_precoder, "mu_bisection", record)
    with traced_heap() as heap:
        mm_full(post, cfg, 2, init, iters=1)
        peak = heap()[1]
    assert len(held) == 1
    assert held[0] < 2.6 * unit
    assert peak < 4.0 * unit


@pytest.mark.parametrize("algorithm", [mm_full, mm_shared])
def test_mm_ascent_holds_its_de_states_without_m_t_square_matrices(
        monkeypatch, algorithm):
    # what each DE evaluation leaves for the next update (the states and
    # interference covariances) takes 0.09 K m_t^2 complex entries; when
    # every state kept its m_t x m_t transmit gain it took 1.02
    cfg, post, init, unit = _update_memory_instance()
    algorithm(post, cfg, 2, init, iters=2)  # warm-up
    real, held, states = mm_precoder.de_weighted_sum_rate, [], []

    def record(*args, **kwargs):
        before = heap()[0]
        res = real(*args, **kwargs)
        held.append(heap()[0] - before)
        states.extend(res.states)
        return res

    monkeypatch.setattr(mm_precoder, "de_weighted_sum_rate", record)
    with traced_heap() as heap:
        algorithm(post, cfg, 2, init, iters=2)
    assert len(held) == 3 and len(states) == 3 * post.n_users
    assert max(held) < 0.2 * unit
    square = (cfg.m_t, cfg.m_t)
    for state in states:
        arrays = [*vars(state).values(), *state.tx_factors]
        assert not any(isinstance(a, np.ndarray) and a.shape == square
                       for a in arrays)


def test_mm_full_multiplier_search_holds_about_k_m_t_square_entries(
        monkeypatch):
    # heap in K m_t^2 complex entries: the search begins holding the K
    # shapings (1.16; 2.22 with the DE states' transmit gains and all
    # shapings kept through it), and each shaping leaves right after its
    # eigendecomposition while its eigenvectors stay (peak 1.46; 3.39)
    cfg, post, init, unit = _update_memory_instance()
    mm_full(post, cfg, 2, init, iters=1)  # warm-up
    search = []

    def record(*args, **kwargs):
        tracemalloc.reset_peak()
        entry = heap()[0]
        out = mu_bisection(*args, **kwargs)
        search.append((entry, heap()[1]))
        return out

    monkeypatch.setattr(mm_precoder, "mu_bisection", record)
    with traced_heap() as heap:
        mm_full(post, cfg, 2, init, iters=1)
    (entry, peak), = search
    assert entry < 1.3 * unit
    assert peak < 1.6 * unit


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


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(s=small_scenarios())
def test_mm_objective_falls_no_more_than_the_budget_slack(s):
    # the matrix ascents at tol_power 1e-9 keep test_04's slack; alg3's
    # bisection runs at the default tol_power 1e-6, so its slack is wider
    cfg, stats, post, precoders = scenario_instance(s)
    runs = [(lambda: mm_full(post, cfg, 2, precoders, iters=6, obj_tol=0.0,
                             tol_power=1e-9), 1e-8),
            (lambda: mm_shared(post, cfg, 2, precoders, iters=6, obj_tol=0.0,
                               tol_power=1e-9), 1e-8),
            (lambda: beam_power_allocation(stats, cfg, iters=6,
                                           obj_tol=0.0)[1], 1e-6)]
    for run, slack in runs:
        try:
            obj = run().objective
        except NumericalError:
            continue
        for i in range(1, len(obj)):
            assert obj[i] >= obj[i - 1] - slack * (1 + abs(obj[i - 1])), (
                slack, i, obj)
