"""Experiment-harness tests: sampling estimator, seeding discipline,
record bookkeeping, and the mismatch/sweep wrappers."""
import weakref

import numpy as np
import pytest
from numpy.random import default_rng

from helpers import (
    make_instance,
    monte_carlo_rate_oracle,
    random_precoder_set,
    same_bits,
    small_cfg,
)
from robustprec.baselines import perfect_csi_rate
from robustprec.beam_domain import canonical_allocation
from robustprec.channel import BeamProfile
from robustprec.config import SystemConfig, at_noise, noise_from_snr
from robustprec.errors import ConfigError, NumericalError
from robustprec.posterior import PosteriorModel
from robustprec.det_equiv import de_weighted_sum_rate
from robustprec import evaluation, mm_precoder
from robustprec.evaluation import (
    ALGORITHM_TABLE,
    ALGORITHMS,
    ExperimentPlan,
    Slot,
    alpha_mismatch_study,
    convergence_study,
    experiment_statistics,
    monte_carlo_rate,
    prepare_slot,
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
    mc, = monte_carlo_rate(post, [pre], cfg.weights, cfg.sigma2_z, 2,
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
    args = (cfg.weights, cfg.sigma2_z, 2)
    got, = monte_carlo_rate(post, [pre], *args, default_rng(5), n_samples=600,
                            batch=256)
    want = monte_carlo_rate_oracle(post, pre, *args, default_rng(5),
                                   n_samples=600, batch=256)
    assert got.total == want.total
    assert got.stderr == want.stderr


def test_designs_scored_together_keep_their_solo_bits():
    # one pass of draws scores all three designs; each must get the total
    # and stderr it gets scored alone (600 draws: a last batch of 88)
    cfg = small_cfg(m_t=16, m_k=(2, 2, 2), n_b=3, sigma2_z=0.1)
    rng = default_rng(12)
    _, _, _, post = make_instance(cfg, rng, alphas=0.8)
    designs = [random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
               for _ in range(3)]
    args = (cfg.weights, cfg.sigma2_z, 3)
    together = monte_carlo_rate(post, designs, *args, default_rng(7),
                                n_samples=600, batch=256)
    assert len(together) == 3
    for pre, got in zip(designs, together):
        solo, = monte_carlo_rate(post, [pre], *args, default_rng(7),
                                 n_samples=600, batch=256)
        want = monte_carlo_rate_oracle(post, pre, *args, default_rng(7),
                                       n_samples=600, batch=256)
        assert got.total == solo.total == want.total
        assert got.stderr == solo.stderr == want.stderr


def test_a_score_that_lost_its_precision_is_nan_beside_a_valid_one():
    # 150 dB with m_k > d_k: the canonical start's log-determinants lose
    # all precision (determinant signs far from 1; it scored a finite 147
    # nats before the check), while a random set in the same call stays
    # valid and keeps the bits it gets scored alone
    cfg = SystemConfig(m_t=6, m_k=(3, 1), d_k=(1, 1), n_b=3, seed=468,
                       weights=(1, 3))
    cfg = at_noise(cfg, noise_from_snr(150, cfg.p_total))
    stats = experiment_statistics(cfg, BeamProfile(
        band_width=2, lognorm_sigma=3.0, alphas=0.99))
    _, post = prepare_slot(cfg, stats, 0)
    lost = canonical_allocation(stats, cfg).precoders
    kept = random_precoder_set(default_rng(3), cfg.m_t, cfg.d_k, cfg.p_total)
    args = (cfg.weights, cfg.sigma2_z, 2)
    bad, good = monte_carlo_rate(post, [lost, kept], *args, default_rng(0),
                                 n_samples=8)
    assert np.isnan(bad.total) and np.isnan(bad.stderr)
    solo, = monte_carlo_rate(post, [kept], *args, default_rng(0), n_samples=8)
    assert np.isfinite(good.total)
    assert (good.total, good.stderr) == (solo.total, solo.stderr)


def test_monte_carlo_tracks_deterministic_equivalent():
    cfg = small_cfg(m_t=8, m_k=(2, 2), n_b=2, sigma2_z=0.1)
    rng = default_rng(3)
    stats, slot, pilots, post = make_instance(cfg, rng, alphas=0.9)
    pre = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    de = de_weighted_sum_rate(post, pre, cfg.weights, cfg.sigma2_z, 2)
    mc, = monte_carlo_rate(post, [pre], cfg.weights, cfg.sigma2_z, 2,
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


def test_alpha_free_designs_share_one_pass_of_draws(monkeypatch):
    # per slot and block, alg2 is scored on its own pass and alg3, rzf, slnr
    # and wmmse on one shared pass; each still gets the records it gets
    # when it runs alone
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=3, sigma2_z=0.1, seed=11)
    kw = dict(n_slots=2, n_mc=96, mc_batch=64, mm_iters=4,
              assumed_alphas=(1.0, 0.5))
    free = ("alg3", "rzf", "slnr", "wmmse")
    alone = {a: alpha_mismatch_study(cfg, _profile(), ExperimentPlan(
        algorithms=(a,), **kw)) for a in free}
    calls = []
    real = PosteriorModel.sample

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(PosteriorModel, "sample", counted)
    out = alpha_mismatch_study(cfg, _profile(), ExperimentPlan(
        algorithms=("alg2",) + free, **kw))
    # passes x slots x blocks x users x batches
    assert len(calls) == 2 * 2 * 2 * 2 * 2
    for i, (alpha, result) in enumerate(out):
        assert result.failed_slots == []
        for a in free:
            assert alone[a][i][0] == alpha
            assert [r for r in result.records
                    if r.algorithm == a] == alone[a][i][1].records


def test_an_alpha_free_score_failure_stays_first_before_a_later_design(
        monkeypatch):
    # rzf is scored after the slot's last design, yet its invalid score
    # (a NaN design) is applied in plan order, before alg1's design failure
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=3, sigma2_z=0.1, seed=9)

    def nan_rzf(chans, *args, **kwargs):
        return [np.full((cfg.m_t, 2), np.nan + 0j) for _ in chans]

    def fail(*args, **kwargs):
        raise NumericalError("injected mm_full failure")

    kw = dict(n_slots=2, n_mc=50, mm_iters=3)
    solo = run_slot_experiment(cfg, _profile(), ExperimentPlan(
        algorithms=("alg2",), **kw))
    monkeypatch.setattr(evaluation, "rzf", nan_rzf)
    monkeypatch.setattr(evaluation, "mm_full", fail)
    with np.errstate(invalid="ignore"):
        res = run_slot_experiment(cfg, _profile(), ExperimentPlan(
            algorithms=("rzf", "alg1", "alg2"), **kw))
    assert res.failed_slots == [0, 1]
    assert str(res.first_error) == ("rzf: the Monte Carlo score of slot 0 is "
                                    "not valid (a log-determinant lost its "
                                    "precision)")
    assert res.records == solo.records


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


def test_mismatch_points_equal_one_point_runs():
    # the study designs every point before scoring and shares its draws;
    # each point must still equal a study of that point alone
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=3, sigma2_z=0.1, seed=11)
    kw = dict(algorithms=("alg2", "alg3", "robust-rzf", "rzf", "slnr",
                          "wmmse"), n_slots=2, n_mc=96, mm_iters=4,
              mc_batch=64)
    out = alpha_mismatch_study(cfg, _profile(alphas=0.9), ExperimentPlan(
        assumed_alphas=(1.0, 0.5, 0.9), **kw))
    assert [a for a, _ in out] == [1.0, 0.5, 0.9]
    for alpha, result in out:
        (_, alone), = alpha_mismatch_study(
            cfg, _profile(alphas=0.9),
            ExperimentPlan(assumed_alphas=(alpha,), **kw))
        assert len(result.records) == 6 * 2 * 2
        assert result.records == alone.records
        assert result.failed_slots == alone.failed_slots == []


def _slot(cfg, profile, plan, alpha):
    first, post = prepare_slot(cfg, experiment_statistics(cfg, profile), 0)
    return Slot(cfg, first, post.assuming(alpha), plan, {})


def test_reads_alpha_matches_what_each_design_reads():
    # the harness designs an entry once for every point and every block
    # unless it reads alpha, so the table's fact must match what the design
    # does
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=3, sigma2_z=0.1, seed=3)
    plan = ExperimentPlan(mm_iters=4)
    for alg, entry in ALGORITHM_TABLE.items():
        one, half = (evaluation._algorithm_designs(alg, _slot(
            cfg, _profile(alphas=0.9), plan, a)) for a in (1.0, 0.5))
        same = [same_bits(p, q) for ps, qs in zip(one, half)
                for p, q in zip(ps, qs)]
        assert all(same) == (not entry.reads_alpha), alg
        assert (one[0] is one[1]) == (not entry.reads_alpha), alg
    assert {a for a, e in ALGORITHM_TABLE.items() if not e.reads_alpha} == {
        "alg3", "rzf", "slnr", "wmmse"}


# the budget binds here (two updates, not converged), so the ascent scores
# a final iterate that the design does not
_BINDING = dict(cfg=SystemConfig(m_t=8, m_k=(2, 2), n_b=2, sigma2_z=0.1,
                                 seed=3),
                plan=ExperimentPlan(algorithms=("alg1", "alg2"), mm_iters=2))


@pytest.mark.parametrize("alg", ["alg1", "alg2"])
def test_mm_design_is_the_ascent_without_its_final_score(alg):
    cfg, plan = _BINDING["cfg"], _BINDING["plan"]
    slot = _slot(cfg, _profile(), plan, 0.9)
    entry = ALGORITHM_TABLE[alg]
    design = entry.design(slot, 2, None)
    _, report = entry.ascent(slot, 2, None)
    assert (report.updates, report.converged) == (plan.mm_iters, False)
    assert len(report.objective) == report.updates + 1
    assert all(same_bits(p, q) for p, q in zip(design, report.precoders))
    for name, _, traced in convergence_study(cfg, _profile(), plan):
        assert (traced.updates, traced.converged) == (plan.mm_iters, False)
        assert len(traced.objective) == traced.updates + 1, name


def _recorded_evaluations(monkeypatch):
    """Per DE evaluation of an MM ascent: (cold, how many cold evaluations
    made so far are still alive, seen through their first user's state)."""
    calls, colds = [], []
    real = mm_precoder.de_weighted_sum_rate

    def record(*args, init_states=None, **kwargs):
        calls.append((init_states is None,
                      sum(ref() is not None for ref in colds)))
        out = real(*args, init_states=init_states, **kwargs)
        if init_states is None:
            colds.append(weakref.ref(out.states[0]))
        return out

    monkeypatch.setattr(mm_precoder, "de_weighted_sum_rate", record)
    return calls, colds


@pytest.mark.parametrize("algorithms", [("alg1",), ("alg1", "alg3", "rzf"),
                                        ("alg1", "alg2")])
def test_mm_designs_share_one_cold_start_and_skip_the_final_score(
        monkeypatch, algorithms):
    cfg = _BINDING["cfg"]
    kw = dict(n_slots=2, n_mc=32, mm_iters=3)
    key = lambda r: (r.algorithm, r.slot, r.block)
    alone = sorted((r for a in algorithms for r in run_slot_experiment(
        cfg, _profile(), ExperimentPlan(algorithms=(a,), **kw)).records),
        key=key)
    calls, colds = _recorded_evaluations(monkeypatch)
    res = run_slot_experiment(cfg, _profile(),
                              ExperimentPlan(algorithms=algorithms, **kw))
    assert sorted(res.records, key=key) == alone
    # per slot: one cold start, then updates 1 and 2 of each ascent are
    # scored warm and update 3 is not scored at all.  The point holds the
    # start until the next slot begins, and nothing holds it after the run.
    warm = 4 if "alg2" in algorithms else 2
    assert calls == ([(True, 0)] + [(False, 1)] * warm) * 2
    assert all(ref() is None for ref in colds)


def test_mm_designs_share_one_cold_start_per_mismatch_point(monkeypatch):
    cfg = _BINDING["cfg"]
    kw = dict(algorithms=("alg1", "alg2"), n_slots=2, n_mc=32, mm_iters=3)
    alphas = (1.0, 0.5)
    alone = [alpha_mismatch_study(cfg, _profile(), ExperimentPlan(
        assumed_alphas=(a,), **kw))[0] for a in alphas]
    calls, colds = _recorded_evaluations(monkeypatch)
    out = alpha_mismatch_study(cfg, _profile(), ExperimentPlan(
        assumed_alphas=alphas, **kw))
    assert out == alone
    # per slot: alg1 makes each point's cold start, alg2 reads it
    point = [True, False, False]
    assert [cold for cold, _ in calls] == (point * 2 + [False] * 4) * 2
    assert all(ref() is None for ref in colds)


def _study(cfg, algorithms, alphas=(1.0, 0.5, 0.9)):
    return alpha_mismatch_study(cfg, _profile(alphas=0.9), ExperimentPlan(
        algorithms=algorithms, assumed_alphas=alphas, n_slots=2, n_mc=64,
        mm_iters=4))


def test_alpha_free_failure_drops_its_slot_at_every_point(monkeypatch):
    # one slnr design serves every point, so its failure in slot 0 drops
    # slnr's slot-0 rates everywhere and is every point's first_error
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=3, sigma2_z=0.1, seed=11)
    slot0 = _slot(cfg, _profile(alphas=0.9), ExperimentPlan(), 1.0).first
    real = evaluation.slnr

    def slnr_failing_in_slot_0(chans, *args, **kwargs):
        if all(np.array_equal(h, h0) for h, h0 in zip(chans, slot0)):
            raise NumericalError("injected slnr failure")
        return real(chans, *args, **kwargs)

    others = ("alg2", "rzf")
    alone = {a: _study(cfg, others, (a,))[0][1] for a in (1.0, 0.5, 0.9)}
    monkeypatch.setattr(evaluation, "slnr", slnr_failing_in_slot_0)
    out = _study(cfg, others + ("slnr",))
    error = out[0][1].first_error
    assert str(error) == "injected slnr failure"
    for alpha, result in out:
        assert result.failed_slots == [0]
        assert result.first_error is error
        assert [(r.slot, r.block) for r in result.records
                if r.algorithm == "slnr"] == [(1, 2), (1, 3)]
        assert [r for r in result.records
                if r.algorithm != "slnr"] == alone[alpha].records


def test_alpha_free_designs_run_once_per_slot(monkeypatch):
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=3, sigma2_z=0.1, seed=11)
    calls = {}

    def counted(name):
        real = getattr(evaluation, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("wmmse", "beam_power_allocation"):
        monkeypatch.setattr(evaluation, name, counted(name))
    out = _study(cfg, ("alg3", "wmmse"))
    assert calls == {"wmmse": 2, "beam_power_allocation": 2}  # n_slots each
    for _, result in out:
        assert result.records == out[0][1].records


def test_one_points_failure_keeps_the_other_points_rates():
    # robust-rzf cannot invert a zero-mean design posterior (assumed
    # alpha 0): only that point's robust-rzf rates go, and only that point
    # lists the slots
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=3, seed=4)
    kw = dict(algorithms=("alg1", "robust-rzf"), n_slots=2, n_mc=64,
              mm_iters=4)
    (a0, zero), (a9, aged) = alpha_mismatch_study(
        cfg, BeamProfile(band_width=4), ExperimentPlan(
            assumed_alphas=(0.0, 0.9), **kw))
    assert (a0, a9) == (0.0, 0.9)
    assert zero.failed_slots == [0, 1]
    assert "all-zero precoder set" in str(zero.first_error)
    assert {r.algorithm for r in zero.records} == {"alg1"}
    assert len(zero.records) == 2 * 2
    assert aged.failed_slots == []
    assert aged.first_error is None
    assert len(aged.records) == 2 * 2 * 2
    for alpha, result in ((0.0, zero), (0.9, aged)):
        (_, alone), = alpha_mismatch_study(
            cfg, BeamProfile(band_width=4),
            ExperimentPlan(assumed_alphas=(alpha,), **kw))
        assert result.records == alone.records
        assert result.failed_slots == alone.failed_slots


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
    assert str(res.first_error) == "injected failure"
    assert {r.slot for r in res.records} == {1, 2}


def test_one_algorithms_failure_keeps_the_others_rates(monkeypatch):
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=3, sigma2_z=0.1, seed=9)

    def boom(name):
        def fail(*args, **kwargs):
            raise NumericalError(f"injected {name} failure")
        return fail

    kw = dict(n_slots=2, n_mc=50, mm_iters=3)
    solo = run_slot_experiment(cfg, _profile(), ExperimentPlan(
        algorithms=("rzf",), **kw))
    monkeypatch.setattr(evaluation, "mm_full", boom("mm_full"))
    monkeypatch.setattr(evaluation, "mm_shared", boom("mm_shared"))
    res = run_slot_experiment(cfg, _profile(), ExperimentPlan(
        algorithms=("alg1", "rzf", "alg2"), **kw))
    assert res.failed_slots == [0, 1]  # each failing slot listed once
    assert str(res.first_error) == "injected mm_full failure"
    assert res.records == solo.records


def test_a_linalg_error_in_a_design_is_a_numerical_error_naming_it(
        monkeypatch):
    # a singular matrix that no solver types itself drops that algorithm's
    # slot like any NumericalError, in the runner and in convergence_study
    cfg = SystemConfig(m_t=8, m_k=(2, 2), n_b=3, sigma2_z=0.1, seed=9)
    kw = dict(n_slots=1, n_mc=50, mm_iters=3)
    solo = run_slot_experiment(cfg, _profile(), ExperimentPlan(
        algorithms=("rzf",), **kw))

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(evaluation, "mm_full", singular)
    res = run_slot_experiment(cfg, _profile(), ExperimentPlan(
        algorithms=("alg1", "rzf"), **kw))
    assert res.failed_slots == [0]
    assert type(res.first_error) is NumericalError
    assert str(res.first_error) == ("alg1, block 2: linear algebra failed: "
                                    "Singular matrix")
    assert res.records == solo.records
    with pytest.raises(NumericalError, match="^alg1, block 2: .*Singular"):
        convergence_study(cfg, _profile(), ExperimentPlan(
            algorithms=("alg1",), **kw))


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
