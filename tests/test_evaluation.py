"""Experiment-harness tests: sampling estimator, seeding discipline,
record bookkeeping, and the mismatch/sweep wrappers."""
import numpy as np
import pytest
from numpy.random import default_rng

from helpers import (
    make_instance,
    monte_carlo_rate_oracle,
    random_precoder_set,
    small_cfg,
)
from robustprec.baselines import perfect_csi_rate
from robustprec.channel import BeamProfile
from robustprec.config import SystemConfig
from robustprec.errors import ConfigError, NumericalError
from robustprec.det_equiv import de_weighted_sum_rate
from robustprec import evaluation
from robustprec.evaluation import (
    ALGORITHMS,
    ExperimentPlan,
    alpha_mismatch_study,
    monte_carlo_rate,
    run_slot_experiment,
    sweep_snr,
)


def _profile(width=4, alphas=0.9):
    return BeamProfile(band_width=width, lognorm_sigma=0.4, alphas=alphas)


def test_monte_carlo_is_exact_when_posterior_is_a_point_mass():
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=2, sigma2_z=0.1, sigma2_bs=0.0)
    rng = default_rng(0)
    stats, slot, pilots, post = make_instance(cfg, rng, alphas=1.0)
    pre = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    mc = monte_carlo_rate(post, pre, cfg.weights, cfg.sigma2_z, 2,
                          default_rng(1), n_samples=7)
    chans = [post.mean(k, 2) for k in range(2)]
    exact = perfect_csi_rate(chans, pre, cfg.weights, cfg.sigma2_z)
    assert abs(mc.total - exact) <= 1e-9 * (1 + abs(exact))


# 600 draws at batch 256 end in a remainder batch of 88; m_k = 1 is the
# single-row stack that must stay a per-draw vector product
@pytest.mark.parametrize("m_k, d", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_monte_carlo_keeps_the_per_draw_loops_bits(m_k, d):
    cfg = small_cfg(m_t=16, m_k=(m_k, m_k, m_k), d_k=(d, d, d), n_b=2,
                    sigma2_z=0.1)
    rng = default_rng(10 * m_k + d)
    _, _, _, post = make_instance(cfg, rng, alphas=0.8)
    pre = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    args = (post, pre, cfg.weights, cfg.sigma2_z, 2)
    got = monte_carlo_rate(*args, default_rng(5), n_samples=600, batch=256)
    want = monte_carlo_rate_oracle(*args, default_rng(5), n_samples=600,
                                   batch=256)
    assert got.total == want.total
    assert got.stderr == want.stderr


def test_monte_carlo_tracks_deterministic_equivalent():
    cfg = small_cfg(m_t=8, m_k=(2, 2), n_b=2, sigma2_z=0.1)
    rng = default_rng(3)
    stats, slot, pilots, post = make_instance(cfg, rng, alphas=0.9)
    pre = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    de = de_weighted_sum_rate(post, pre, cfg.weights, cfg.sigma2_z, 2)
    mc = monte_carlo_rate(post, pre, cfg.weights, cfg.sigma2_z, 2,
                          default_rng(4), n_samples=8000)
    assert abs(mc.total - de.total) <= 0.05 * de.total


def test_experiment_records_shape_and_reproducibility():
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=3, sigma2_z=0.1, seed=5)
    algs = ALGORITHMS
    kw = dict(profile=_profile(), plan=ExperimentPlan(
        algorithms=algs, n_slots=2, n_mc=200, mm_iters=10))
    res = run_slot_experiment(cfg, **kw)
    assert not res.failed_slots
    assert len(res.records) == len(algs) * 2 * 2  # algs x blocks x slots
    again = run_slot_experiment(cfg, **kw)
    for a, b in zip(res.records, again.records):
        assert a == b  # bitwise reproducible, dataclass equality on floats
    assert res.mean_rate("alg1") > 0


def test_scoring_streams_do_not_depend_on_algorithm_list():
    # common random numbers: adding algorithms must not move existing scores
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=3, sigma2_z=0.1, seed=6)
    kw = dict(n_slots=2, n_mc=150, mm_iters=5)
    solo = run_slot_experiment(cfg, _profile(), ExperimentPlan(
        algorithms=("rzf",), **kw))
    both = run_slot_experiment(cfg, _profile(), ExperimentPlan(
        algorithms=("rzf", "alg1"), **kw))
    solo_rates = [(r.slot, r.block, r.rate) for r in solo.records]
    both_rates = [(r.slot, r.block, r.rate) for r in both.records
                  if r.algorithm == "rzf"]
    assert solo_rates == both_rates


def test_mismatch_with_true_aging_reproduces_plain_run():
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=3, sigma2_z=0.1, seed=7)
    kw = dict(algorithms=("alg1", "robust-rzf"), n_slots=2, n_mc=150,
              mm_iters=5)
    plain = run_slot_experiment(cfg, _profile(alphas=0.85),
                                ExperimentPlan(**kw))
    (alpha, matched), = alpha_mismatch_study(
        cfg, _profile(alphas=0.85),
        ExperimentPlan(assumed_alphas=(0.85,), **kw))
    assert alpha == 0.85
    for a, b in zip(plain.records, matched.records):
        assert (a.algorithm, a.slot, a.block) == (b.algorithm, b.slot, b.block)
        assert abs(a.rate - b.rate) <= 1e-9 * (1 + abs(a.rate))


def test_error_load_scale_moves_robust_rzf_only():
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=2, sigma2_z=0.1, seed=9)
    kw = dict(algorithms=("robust-rzf", "rzf"), n_slots=1, n_mc=100)
    loaded = run_slot_experiment(cfg, _profile(alphas=0.7),
                                 ExperimentPlan(load_scale=1.0, **kw))
    unloaded = run_slot_experiment(cfg, _profile(alphas=0.7),
                                   ExperimentPlan(load_scale=0.0, **kw))
    robust = [(a.rate, b.rate) for a, b in zip(loaded.records, unloaded.records)
              if a.algorithm == "robust-rzf"]
    other = [(a.rate, b.rate) for a, b in zip(loaded.records, unloaded.records)
             if a.algorithm != "robust-rzf"]
    assert any(abs(x - y) > 1e-6 for x, y in robust)
    assert all(x == y for x, y in other)


def test_snr_sweep_shares_slots_and_orders_points():
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=2, sigma2_z=1.0, seed=8,
                       snr_db=(0.0, 10.0))
    out = sweep_snr(cfg, _profile(), ExperimentPlan(
        algorithms=("alg1",), n_slots=2, n_mc=150, mm_iters=5))
    assert [snr for snr, _ in out] == [0.0, 10.0]
    low, high = out[0][1], out[1][1]
    assert high.mean_rate("alg1") > low.mean_rate("alg1")


def test_failed_slots_are_skipped_and_reported(monkeypatch):
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=2, sigma2_z=0.1, seed=9)
    calls = {"n": 0}
    real = evaluation.mm_full

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise NumericalError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation, "mm_full", flaky)
    res = run_slot_experiment(cfg, _profile(), ExperimentPlan(
        algorithms=("alg1",), n_slots=3, n_mc=100, mm_iters=3))
    assert res.failed_slots == [0]
    assert {r.slot for r in res.records} == {1, 2}


def test_one_algorithms_failure_keeps_the_others_rates(monkeypatch):
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=3, sigma2_z=0.1, seed=9)

    def boom(*args, **kwargs):
        raise NumericalError("injected failure")

    kw = dict(n_slots=2, n_mc=50, mm_iters=3)
    solo = run_slot_experiment(cfg, _profile(), ExperimentPlan(
        algorithms=("rzf",), **kw))
    monkeypatch.setattr(evaluation, "mm_full", boom)
    monkeypatch.setattr(evaluation, "mm_shared", boom)
    res = run_slot_experiment(cfg, _profile(), ExperimentPlan(
        algorithms=("alg1", "rzf", "alg2"), **kw))
    assert res.failed_slots == [0, 1]  # each failing slot listed once
    assert res.records == solo.records


# 80 dB with alpha = 1: round-off asymmetry of ill-conditioned covariances
# once escaped as an untyped ValueError from a Hermitian check
@pytest.mark.parametrize("m_k, band_width, sigma2_bs, alg", [
    (4, 8, 0.0, "rzf"), (4, 8, 0.0, "wmmse"), (4, 8, 0.0, "robust-rzf"),
    (4, 1, None, "alg1"), (4, 1, None, "alg2"), (1, 1, None, "slnr"),
    (1, 8, 0.0, "alg1"),
])
def test_high_snr_exact_aging_gives_finite_rates(m_k, band_width, sigma2_bs,
                                                 alg):
    cfg = SystemConfig(m_t=8, m_k=(m_k, m_k), n_b=2, sigma2_bs=sigma2_bs)
    (_, res), = sweep_snr(cfg, BeamProfile(band_width=band_width, alphas=1.0),
                          ExperimentPlan((alg,), snr_db=(80.0,), n_slots=2,
                                         n_mc=32, mm_iters=4))
    assert res.failed_slots == []
    assert len(res.records) == 2
    assert all(np.isfinite(r.rate) for r in res.records)


@pytest.mark.parametrize("snr_db", [40.0, 80.0])
@pytest.mark.parametrize("alg", ["alg1", "alg2"])
def test_rank_one_zero_mean_high_snr_mm_designs_give_finite_rates(alg, snr_db):
    cfg = SystemConfig(m_t=8, m_k=(1, 1), n_b=2)
    (_, res), = sweep_snr(cfg, BeamProfile(band_width=1, alphas=0.0),
                          ExperimentPlan((alg,), snr_db=(snr_db,), n_slots=2,
                                         n_mc=32, mm_iters=4))
    assert res.failed_slots == []
    assert len(res.records) == 2
    assert all(np.isfinite(r.rate) for r in res.records)


def test_configuration_errors():
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=3, sigma2_z=0.1)
    with pytest.raises(ConfigError, match="unknown algorithm"):
        run_slot_experiment(cfg, _profile(), ExperimentPlan(("alg9",)))
    lowrank = SystemConfig(m_t=8, m_k=(2, 2), d_k=(1, 1), n_b=3, sigma2_z=0.1)
    with pytest.raises(ConfigError, match="d_k == m_k"):
        run_slot_experiment(lowrank, _profile(), ExperimentPlan(("rzf",)))
    pilots_only = SystemConfig(m_t=8, m_k=(2, 2), n_b=1, sigma2_z=0.1)
    with pytest.raises(ConfigError, match="n_b >= 2"):
        run_slot_experiment(pilots_only, _profile(), ExperimentPlan())
    with pytest.raises(ConfigError, match="profile"):
        run_slot_experiment(cfg, None, ExperimentPlan())
    with pytest.raises(ConfigError, match="SNR"):
        sweep_snr(cfg, _profile(), ExperimentPlan(snr_db=()))
    with pytest.raises(ConfigError, match="assumed_alphas"):
        alpha_mismatch_study(cfg, _profile(), ExperimentPlan())


# every check of a plan lives in ExperimentPlan, so a library call gets the
# same typed error as the CLI; a bare string is not a list of names
@pytest.mark.parametrize("key, value", [
    ("algorithms", "alg1"),
    ("algorithms", 5),
    ("algorithms", [["alg1"]]),
    ("algorithms", []),
    ("algorithms", ("rzf", "rzf")),
    ("n_mc", 0),
    ("mc_batch", 0),
    ("n_slots", True),
    ("load_scale", -1),
    ("assumed_alphas", (1.5,)),
])
def test_malformed_plan_is_a_config_error_naming_the_key(key, value):
    with pytest.raises(ConfigError, match=f"experiment.{key}"):
        ExperimentPlan(**{key: value})
