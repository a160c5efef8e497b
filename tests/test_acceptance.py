"""End-to-end acceptance suite.

Each test below checks one release criterion at its stated tolerance and
prints a single ``[criterion NN PASS]`` line with the measured margins when it
succeeds (visible with ``pytest -s``; pytest's own PASSED/FAILED line in
``pytest -v`` output is the per-criterion verdict).  Quantities that the
criteria ask to be *reported* rather than asserted (the beam-structure witness
of the full solver, the aging-gap ratio) are surfaced as warnings so they also
appear in a captured run.

Scenario sizes are desk scale (at most 32 transmit antennas); every test is
seeded and deterministic.
"""

import json
import warnings

import numpy as np
from numpy.random import SeedSequence, default_rng

from helpers import (
    make_instance,
    random_precoder_set,
    small_cfg,
    verify_beam_structure,
    zero_mean_posterior,
)
from robustprec import cli
from robustprec.baselines import robust_rzf, rzf, slnr, wmmse, wmmse_step
from robustprec.beam_domain import (
    beam_power_allocation,
    canonical_allocation,
)
from robustprec.channel import (
    BeamProfile,
    crandn,
    dft_matrix,
    draw_slot,
    orthogonal_pilots,
    uplink_observation,
)
from robustprec.config import SystemConfig, noise_from_snr
from robustprec.det_equiv import de_weighted_sum_rate
from robustprec.evaluation import (
    ExperimentPlan,
    experiment_statistics,
    monte_carlo_rate,
    prepare_slot,
    run_slot_experiment,
)
from robustprec.mm_precoder import mm_full, mm_shared, total_power
from robustprec.operators import OperatorKernel, mean_quadratic_rx, mean_quadratic_tx
from robustprec.posterior import build_posterior, delta_profile, xi2_profile


def _passed(num, detail):
    print(f"[criterion {num:02d} PASS] {detail}")


def _reported(detail):
    # Surfaced as a warning so the value shows up even in captured runs.
    warnings.warn(f"[reported] {detail}", stacklevel=2)
    print(f"[reported] {detail}")


def _assert_budget(precoders, p_total, num=None):
    power = total_power(precoders)
    assert power <= p_total * (1.0 + 1e-9), f"budget violated: {power} > {p_total}"
    return power


def _assert_report_power(report, p_total):
    """Budget + complementary-slackness bounds for every update of an MM run."""
    for mu, power in zip(report.mu_trace, report.power_trace):
        assert power <= p_total * (1.0 + 1e-9)
        if mu > 1e-9:
            assert abs(power - p_total) <= 1e-6 * p_total


# ---------------------------------------------------------------------------
# 1. Closed-form second-moment operators vs sampling, plus adjoint identity.
# ---------------------------------------------------------------------------


def test_01_quadratic_operators_match_sampling_and_adjoint():
    cfg = SystemConfig(m_t=8, m_k=(2,), n_b=2, sigma2_z=0.1, seed=31)
    prof = BeamProfile(band_width=5, lognorm_sigma=0.4, alphas=0.9)
    stats = experiment_statistics(cfg, prof)[0]
    kern = OperatorKernel(stats.u, dft_matrix(cfg.m_t), stats.omega)
    rng = default_rng(SeedSequence([41]))

    n_draws = 100_000
    amp = np.sqrt(kern.var_profile)
    core = amp * crandn(rng, n_draws, kern.m_k, kern.m_t)
    h = np.matmul(kern.u, core) @ kern.v.conj().T

    c_tx = crandn(rng, kern.m_t, kern.m_t)
    c_tx = c_tx @ c_tx.conj().T
    sampled_rx = np.matmul(h @ c_tx, h.conj().transpose(0, 2, 1)).mean(axis=0)
    exact_rx = mean_quadratic_rx(kern, c_tx)
    err_rx = np.linalg.norm(sampled_rx - exact_rx) / np.linalg.norm(exact_rx)

    c_rx = crandn(rng, kern.m_k, kern.m_k)
    c_rx = c_rx @ c_rx.conj().T
    hc = np.matmul(h.conj().transpose(0, 2, 1), c_rx)
    sampled_tx = np.matmul(hc, h).mean(axis=0)
    exact_tx = mean_quadratic_tx(kern, c_rx)
    err_tx = np.linalg.norm(sampled_tx - exact_tx) / np.linalg.norm(exact_tx)

    assert err_rx <= 0.02 and err_tx <= 0.02

    worst = 0.0
    for _ in range(100):
        a = crandn(rng, kern.m_k, kern.m_k)
        a = a + a.conj().T
        a /= np.linalg.norm(a)
        b = crandn(rng, kern.m_t, kern.m_t)
        b = b + b.conj().T
        b /= np.linalg.norm(b)
        lhs = np.trace(a @ mean_quadratic_rx(kern, b))
        rhs = np.trace(mean_quadratic_tx(kern, a) @ b)
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-10

    _passed(
        1,
        f"operator sampling error rx={err_rx:.4%} tx={err_tx:.4%} (<=2%), "
        f"adjoint identity worst {worst:.2e} (<=1e-10) over 100 pairs",
    )


# ---------------------------------------------------------------------------
# 2. Posterior variance conservation and achieved estimator error.
# ---------------------------------------------------------------------------


def test_02_posterior_conservation_and_estimator_error():
    rng = default_rng(SeedSequence([57]))
    worst = 0.0
    for _ in range(60):
        m_k = int(rng.integers(1, 4))
        m_t = int(rng.integers(2, 17))
        omega = rng.uniform(0.0, 4.0, size=(m_k, m_t))
        omega[rng.uniform(size=omega.shape) < 0.25] = 0.0
        sigma2 = float(rng.choice([0.0, 1e-3, 0.1, 1.0, 10.0]))
        alpha = float(rng.choice([0.0, 0.3, 0.9, 0.999, 1.0]))
        n = int(rng.choice([2, 3, 7]))
        delta = delta_profile(omega, sigma2)
        xi2 = xi2_profile(omega, alpha, sigma2, n)
        gap = np.abs(xi2 + alpha ** (2 * (n - 1)) * delta * omega - omega)
        worst = max(worst, float(gap.max()))
    assert worst <= 1e-12

    cfg = SystemConfig(m_t=8, m_k=(2,), n_b=2, sigma2_z=0.1, sigma2_bs=0.2, seed=9)
    prof = BeamProfile(band_width=4, lognorm_sigma=0.4, alphas=0.9)
    stats = experiment_statistics(cfg, prof)
    v = dft_matrix(cfg.m_t)
    pilots = orthogonal_pilots(cfg.m_k, cfg.block_len)
    slot_rng = default_rng(SeedSequence([123]))
    n_slots = 10_000
    acc = np.zeros((cfg.m_k[0], cfg.m_t))
    post = None
    for _ in range(n_slots):
        blocks = draw_slot(stats, cfg.n_b, slot_rng)
        y = uplink_observation([blocks[0][0]], pilots, cfg.uplink_noise, slot_rng)
        post = build_posterior(y, pilots, stats, cfg.uplink_noise)
        err = stats[0].u.conj().T @ (post.mean(0, 2) - blocks[0][1]) @ v
        acc += np.abs(err) ** 2
    mse = acc / n_slots
    xi2 = post.var_profile(0, 2)
    mask = xi2 > 1e-6 * xi2.max()
    rel = np.abs(mse[mask] - xi2[mask]) / xi2[mask]
    assert rel.max() <= 0.03

    _passed(
        2,
        f"conservation residual {worst:.2e} (<=1e-12) over 60 grids; "
        f"estimator MSE off by at most {rel.max():.3%} (<=3%) over {n_slots} slots",
    )


# ---------------------------------------------------------------------------
# 3. Deterministic rate vs Monte Carlo at scale.
# ---------------------------------------------------------------------------


def test_03_deterministic_rate_matches_sampling_at_scale():
    errs = []
    for inst in range(20):
        cfg = SystemConfig(m_t=32, m_k=(2,) * 4, n_b=2, sigma2_z=0.1, seed=1000 + inst)
        prof = BeamProfile(band_width=16, lognorm_sigma=0.4, alphas=0.9)
        stats = experiment_statistics(cfg, prof)
        _, post = prepare_slot(cfg, stats, 0)
        pre = random_precoder_set(
            default_rng(SeedSequence([2000 + inst])), cfg.m_t, cfg.d_k, cfg.p_total
        )
        de = de_weighted_sum_rate(post, pre, cfg.weights, cfg.sigma2_z, 2).total
        mc, = monte_carlo_rate(
            post, [pre], cfg.weights, cfg.sigma2_z, 2,
            default_rng(SeedSequence([3000 + inst])), 10_000,
        )
        rel = abs(de - mc.total) / mc.total
        errs.append(rel)
        assert rel <= 0.03, f"instance {inst}: relative gap {rel:.4%}"

    _passed(
        3,
        f"deterministic vs 10^4-sample rate: max gap {max(errs):.4%}, "
        f"median {np.median(errs):.4%} (<=3%) over 20 instances at m_t=32, K=4",
    )


# ---------------------------------------------------------------------------
# 4. Surrogate ascent and convergence speed of both iterative designs.
# ---------------------------------------------------------------------------


def test_04_surrogate_ascent_and_convergence_speed():
    worst_ratio = {0: 1.0, 10: 1.0}
    checked = 0
    for snr_db, it_budget in ((0, 5), (10, 15)):
        for seed in range(10):
            cfg = SystemConfig(
                m_t=32, m_k=(2,) * 4, n_b=2,
                sigma2_z=noise_from_snr(snr_db), seed=seed,
            )
            prof = BeamProfile(band_width=16, lognorm_sigma=0.4, alphas=0.9)
            stats = experiment_statistics(cfg, prof)
            _, post = prepare_slot(cfg, stats, 0)
            init = canonical_allocation(stats, cfg).precoders
            for solver in (mm_full, mm_shared):
                # tol_power well below the ascent slack so the inner
                # bisection's budget shortfall cannot mask the MM guarantee
                rep = solver(post, cfg, 2, init, iters=50, obj_tol=0.0,
                             tol_power=1e-9)
                obj = rep.objective
                assert len(obj) == 51
                for i in range(1, len(obj)):
                    slack = 1e-8 * (1.0 + abs(obj[i - 1]))
                    assert obj[i] >= obj[i - 1] - slack, (
                        f"{solver.__name__} seed={seed} snr={snr_db}: "
                        f"step {i} fell by {obj[i - 1] - obj[i]:.3e}"
                    )
                ratio = obj[it_budget] / obj[50]
                worst_ratio[snr_db] = min(worst_ratio[snr_db], ratio)
                assert ratio >= 0.99, (
                    f"{solver.__name__} seed={seed}: value after {it_budget} "
                    f"iterations is {ratio:.4f} of the 50-iteration value"
                )
                _assert_report_power(rep, cfg.p_total)
                checked += 1

    _passed(
        4,
        f"ascent within slack on {checked} runs; after 5 iterations at 0 dB the "
        f"objective is >= {worst_ratio[0]:.4f} of the 50-iteration value, after "
        f"15 at 10 dB >= {worst_ratio[10]:.4f} (>=0.99 required)",
    )


# ---------------------------------------------------------------------------
# 5. Exact-CSI reduction: one full-solver step equals one sum-MSE step.
# ---------------------------------------------------------------------------


def test_05_exact_csi_step_matches_iterative_mmse_design():
    worst = 0.0
    for seed in range(10):
        cfg = small_cfg(m_t=8, m_k=(2, 2, 2), n_b=2, sigma2_z=0.1, seed=seed)
        cfg = SystemConfig(
            m_t=cfg.m_t, m_k=cfg.m_k, n_b=cfg.n_b, sigma2_z=cfg.sigma2_z,
            sigma2_bs=0.0, weights=(1.0, 1.5, 0.7), seed=seed,
        )
        rng = default_rng(SeedSequence([seed, 77]))
        _, _, _, post = make_instance(cfg, rng, alphas=1.0)
        channels = [post.mean(k, 2) for k in range(cfg.n_users)]
        init = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
        stepped, _ = wmmse_step(channels, init, cfg.weights, cfg.sigma2_z, cfg.p_total)
        rep = mm_full(post, cfg, 2, init, iters=1, obj_tol=0.0)
        diff = max(
            np.abs(a - b).max() for a, b in zip(rep.precoders, stepped)
        )
        worst = max(worst, diff)
        assert diff <= 1e-8, f"seed {seed}: step mismatch {diff:.3e}"

    _passed(
        5,
        f"zero-spread, no-aging posterior: full-solver step equals the "
        f"weighted-MMSE step to {worst:.2e} (<=1e-8) over 10 seeds",
    )


# ---------------------------------------------------------------------------
# 6. Full vs shared-shaping solver on the mixed-aging scenario.
# ---------------------------------------------------------------------------


def test_06_full_and_shared_shaping_agree_on_mixed_aging():
    cfg = SystemConfig(
        m_t=32, m_k=(2,) * 6, n_b=2, sigma2_z=noise_from_snr(10.0), seed=42
    )
    prof = BeamProfile(band_width=16, lognorm_sigma=0.4, alphas=(0.999,) * 3 + (0.9,) * 3)
    stats = experiment_statistics(cfg, prof)
    gaps = []
    for slot in range(3):
        _, post = prepare_slot(cfg, stats, slot)
        init = canonical_allocation(stats, cfg).precoders
        rep1 = mm_full(post, cfg, 2, init, iters=30)
        rep2 = mm_shared(post, cfg, 2, init, iters=30)
        _assert_report_power(rep1, cfg.p_total)
        _assert_report_power(rep2, cfg.p_total)
        f1, f2 = rep1.objective[-1], rep2.objective[-1]
        gap = abs(f1 - f2) / max(f1, f2)
        gaps.append(gap)
        assert gap <= 0.02, f"slot {slot}: final rates differ by {gap:.4%}"

    _passed(
        6,
        f"half users aging 0.999 / half 0.9: final sum-rates of the two solvers "
        f"differ by at most {max(gaps):.3e} relative (<=2%) over 3 slots",
    )


# ---------------------------------------------------------------------------
# 7. Statistics-only allocation vs the full solver at zero posterior mean,
#    plus beam-structure checks (asserted for the allocation, reported for
#    the full solver's converged output).
# ---------------------------------------------------------------------------


def test_07_statistics_only_allocation_matches_zero_mean_solver():
    cfg = SystemConfig(
        m_t=16, m_k=(2,) * 4, n_b=2, sigma2_z=noise_from_snr(10.0), seed=13
    )
    prof = BeamProfile(band_width=8, lognorm_sigma=0.4, alphas=0.9)
    stats = experiment_statistics(cfg, prof)
    v = dft_matrix(cfg.m_t)
    zm = zero_mean_posterior(stats)

    alloc, rep3 = beam_power_allocation(stats, cfg, iters=100)
    _assert_report_power(rep3, cfg.p_total)
    f3 = rep3.objective[-1]

    init = canonical_allocation(stats, cfg).precoders
    rep1 = mm_full(zm, cfg, 2, init, iters=100)
    f1 = rep1.objective[-1]
    gap_structured = abs(f3 - f1) / max(f3, f1)
    assert gap_structured <= 0.02

    rep1r = mm_full(
        zm, cfg, 2,
        random_precoder_set(default_rng(SeedSequence([99])), cfg.m_t, cfg.d_k, cfg.p_total),
        iters=100,
    )
    gap_random = abs(f3 - rep1r.objective[-1]) / max(f3, rep1r.objective[-1])
    assert gap_random <= 0.02

    ok3, worst3 = verify_beam_structure(alloc.precoders, v, tol=1e-10)
    assert ok3, f"allocation output lost beam structure: worst {worst3:.3e}"

    ok1, worst1 = verify_beam_structure(rep1.precoders, v, tol=1e-4)
    gram_off = 0.0
    for p in rep1.precoders:
        g = v.conj().T @ p @ p.conj().T @ v
        gram_off = max(
            gram_off, np.abs(g - np.diag(np.diag(g))).max() / np.abs(np.diag(g)).max()
        )
    _reported(
        f"beam-structure witness of the full solver at zero mean (tol=1e-4): "
        f"per-column ok={ok1}, worst off-beam mass {worst1:.3e}; beam-domain "
        f"gram off-diagonal {gram_off:.3e} (column mixing inside equal-power "
        f"beam pairs is a free unitary gauge, so the gram is the invariant)"
    )

    cfg1 = SystemConfig(
        m_t=16, m_k=(1,) * 4, n_b=2, sigma2_z=noise_from_snr(10.0), seed=13
    )
    stats1 = experiment_statistics(cfg1, prof)
    rep_single = mm_full(
        zero_mean_posterior(stats1), cfg1, 2,
        canonical_allocation(stats1, cfg1).precoders, iters=100,
    )
    ok_s, worst_s = verify_beam_structure(rep_single.precoders, v, tol=1e-4)
    _reported(
        f"single-stream witness (tol=1e-4): ok={ok_s}, worst {worst_s:.3e}"
    )
    assert ok_s

    _passed(
        7,
        f"statistics-only allocation within {max(gap_structured, gap_random):.3e} "
        f"of the zero-mean full solver (<=2%; structured init {gap_structured:.3e}, "
        f"random init {gap_random:.3e}); allocation beam structure exact to 1e-10",
    )


# ---------------------------------------------------------------------------
# 8. Ordering against inversion baselines under aging, and growth of the gain.
# ---------------------------------------------------------------------------


def test_08_aging_aware_design_beats_inversion_baselines():
    means = {}
    for alpha in (0.99, 0.95, 0.8):
        cfg = SystemConfig(
            m_t=16, m_k=(1,) * 8, n_b=3, sigma2_z=noise_from_snr(10.0), seed=7
        )
        prof = BeamProfile(band_width=6, lognorm_sigma=0.4, alphas=alpha)
        res = run_slot_experiment(
            cfg, prof, ExperimentPlan(algorithms=("alg1", "robust-rzf", "rzf"),
                                      n_slots=50, n_mc=500, mm_iters=15),
        )
        assert not res.failed_slots
        means[alpha] = {a: res.mean_rate(a) for a in ("alg1", "robust-rzf", "rzf")}

    m8 = means[0.8]
    assert m8["alg1"] >= m8["robust-rzf"] >= m8["rzf"], f"ordering violated: {m8}"

    gains = [means[a]["alg1"] - means[a]["rzf"] for a in (0.99, 0.95, 0.8)]
    assert gains[0] < gains[1] < gains[2], f"gain not growing as aging worsens: {gains}"

    _passed(
        8,
        f"at aging 0.8: alg1 {m8['alg1']:.3f} >= robust-rzf {m8['robust-rzf']:.3f} "
        f">= rzf {m8['rzf']:.3f} nats over 50 slots; gain over rzf grows "
        f"{gains[0]:.3f} -> {gains[1]:.3f} -> {gains[2]:.3f} as aging drops "
        f"0.99 -> 0.95 -> 0.8",
    )


# ---------------------------------------------------------------------------
# 9. Graceful degradation with aging strength.
# ---------------------------------------------------------------------------


def test_09_rate_degrades_monotonically_with_aging():
    alphas = (0.999, 0.99, 0.95, 0.9, 0.8, 0.0)
    rates = {}
    for alpha in alphas:
        cfg = SystemConfig(
            m_t=16, m_k=(2,) * 4, n_b=3, sigma2_z=noise_from_snr(20.0), seed=5
        )
        prof = BeamProfile(band_width=8, lognorm_sigma=0.4, alphas=alpha)
        res = run_slot_experiment(
            cfg, prof, ExperimentPlan(algorithms=("alg1",), n_slots=10,
                                      n_mc=500, mm_iters=15)
        )
        assert not res.failed_slots
        rates[alpha] = res.mean_rate("alg1")

    seq = [rates[a] for a in alphas]
    for i in range(len(seq) - 1):
        assert seq[i] >= seq[i + 1] - 1e-9, (
            f"rate increased when aging worsened: {alphas[i]}->{alphas[i+1]}: "
            f"{seq[i]:.4f} -> {seq[i+1]:.4f}"
        )

    ratio = (rates[0.8] - rates[0.0]) / (rates[0.999] - rates[0.0])
    _reported(
        f"aging-gap ratio (rate(0.8)-rate(0)) / (rate(0.999)-rate(0)) = {ratio:.4f} "
        f"(rates {', '.join(f'{a}:{rates[a]:.3f}' for a in alphas)})"
    )

    _passed(
        9,
        f"mean rate nonincreasing over aging grid {alphas} at 20 dB "
        f"({seq[0]:.3f} down to {seq[-1]:.3f} nats); gap ratio {ratio:.4f}",
    )


# ---------------------------------------------------------------------------
# 10. Power-budget feasibility across every algorithm.
# ---------------------------------------------------------------------------


def test_10_power_budget_feasibility_across_algorithms():
    # The same budget and complementary-slackness bounds are asserted
    # throughout the unit suites; this test sweeps all seven designs on one
    # instance.
    cfg = SystemConfig(
        m_t=16, m_k=(2,) * 4, n_b=2, sigma2_z=noise_from_snr(10.0), seed=17
    )
    prof = BeamProfile(band_width=8, lognorm_sigma=0.4, alphas=0.9)
    stats = experiment_statistics(cfg, prof)
    blocks, post = prepare_slot(cfg, stats, 0)
    first = [b[0] for b in blocks]
    p = cfg.p_total

    init = canonical_allocation(stats, cfg).precoders
    rep1 = mm_full(post, cfg, 2, init, iters=20)
    rep2 = mm_shared(post, cfg, 2, init, iters=20)
    _, rep3 = beam_power_allocation(stats, cfg, iters=20)
    for rep in (rep1, rep2, rep3):
        _assert_report_power(rep, p)
        _assert_budget(rep.precoders, p)

    checked = {"alg1": True, "alg2": True, "alg3": True}
    for name, pre in (
        ("rzf", rzf(first, p, cfg.sigma2_z)),
        ("slnr", slnr(first, p, cfg.sigma2_z)),
        ("robust-rzf", robust_rzf(post, 2, p, cfg.sigma2_z)),
    ):
        power = _assert_budget(pre, p)
        assert abs(power - p) <= 1e-9 * p, f"{name}: normalized power {power}"
        checked[name] = True

    wp, _ = wmmse(first, p, cfg.sigma2_z, weights=cfg.weights, iters=50)
    _assert_budget(wp, p)
    stepped, mu = wmmse_step(first, wp, cfg.weights, cfg.sigma2_z, p)
    power = _assert_budget(stepped, p)
    if mu > 1e-9:
        assert abs(power - p) <= 1e-6 * p
    checked["wmmse"] = True

    _passed(
        10,
        f"budget <= {p} within 1e-9 relative for {sorted(checked)} "
        f"(every iterate of the three designs checked via multiplier/power "
        f"traces, equality to 1e-6 whenever the multiplier is active)",
    )


# ---------------------------------------------------------------------------
# 11. Manifest reruns reproduce output bytes.
# ---------------------------------------------------------------------------


def _run_cli(args):
    code = cli.main([str(a) for a in args])
    assert code == 0, f"cli exited {code} for {args}"


def _compare_trees(dir_a, dir_b):
    names_a = sorted(f.name for f in dir_a.iterdir())
    names_b = sorted(f.name for f in dir_b.iterdir())
    assert names_a == names_b
    diffs = []
    for name in names_a:
        if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
            diffs.append(name)
    assert not diffs, f"outputs differ between runs: {diffs}"
    return names_a


def test_11_manifest_rerun_is_byte_identical(tmp_path):
    config = {
        "system": {
            "m_t": 8, "m_k": [2, 2], "n_b": 2, "sigma2_z": 0.1,
            "seed": 3, "snr_db": [0.0, 10.0],
        },
        "profile": {"band_width": 4, "lognorm_sigma": 0.4, "alphas": 0.9},
        "experiment": {
            "algorithms": ["alg1", "rzf"], "n_slots": 2, "n_mc": 100,
            "mm_iters": 5, "assumed_alphas": [1.0, 0.8],
        },
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")

    total = 0
    for sub, extra in (("sweep", []), ("converge", ["--algorithms", "alg1,alg3", "--trace"]),
                       ("mismatch", [])):
        first = tmp_path / f"{sub}_a"
        second = tmp_path / f"{sub}_b"
        _run_cli([sub, "-c", cfg_path, "--out-dir", first, *extra])
        _run_cli([sub, "-c", first / "run_manifest.json", "--out-dir", second])
        names = _compare_trees(first, second)
        total += len(names)

    _passed(
        11,
        f"sweep, converge and mismatch reruns from their manifests reproduced "
        f"all {total} output files byte-for-byte",
    )
