"""Monte Carlo experiment harness.

One experiment draws user statistics once, then per slot: channel blocks,
an uplink pilot observation, the posterior, one precoder design per
requested algorithm, and posterior-sampled rate scores.  Scoring reuses the
same stream seed for every algorithm at a given (slot, block), so designs
are compared under common random numbers.  An algorithm whose design does
not read the assumed aging coefficient is designed once per slot for all
points of a mismatch study.  One key in _run_points groups designs into
passes of draws; Slot.starts shares a point's MM cold start.
Seeds derive from the config seed through SeedSequence spawn keys, never
from global state, which makes every run reproducible bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from numpy.random import SeedSequence, default_rng

from .baselines import robust_rzf, rzf, slnr, wmmse
from .beam_domain import beam_power_allocation, canonical_allocation
from .channel import (
    draw_slot,
    generate_synthetic_stats,
    orthogonal_pilots,
    uplink_observation,
)
from .config import _cast, _values, at_noise, noise_from_snr
from .errors import ConfigError, NumericalError
from .mm_precoder import mm_full, mm_shared
from .operators import interference_covariance
from .posterior import _stack_matmul, build_posterior


class Algorithm(NamedTuple):
    """What the harness and the CLI need to know about one design."""

    full_rank: bool   # one stream per receive antenna, so d_k must equal m_k
    # the design reads the block-n design-side posterior, so it is made per
    # point of a mismatch study and per data block; one that does not is
    # made once per slot for every point and block
    reads_alpha: bool
    design: object    # design(slot, n, warm) -> precoders for data block n
    # an MM ascent, which `converge` can trace: ascent(slot, n, warm,
    # score_last=True) -> (beam allocation or None, MMReport); None otherwise
    ascent: object = None


class Slot(NamedTuple):
    """Design inputs of one point of one slot: first = true block-1
    channels, post = the design-side posterior (post.stats its
    statistics), plan = the ExperimentPlan being run.

    The design of an MM ascent stops after its last update: it does not
    score the final iterate, which only `converge` (the ascent) reads.
    starts, a dict that lives as long as the point, holds per data block n
    the cold DE evaluation of the canonical start that its MM ascents
    share; an evaluation that raised is never held.
    """

    cfg: object
    first: list
    post: object
    plan: object
    starts: dict


def _mm_ascent(runner, s, n, warm, score_last):
    start = None
    if warm is None:
        warm = canonical_allocation(s.post.stats, s.cfg).precoders
        start = lambda cold: (s.starts[n] if n in s.starts
                              else s.starts.setdefault(n, cold()))
    return None, runner(s.post, s.cfg, n, warm, iters=s.plan.mm_iters,
                        start=start, score_last=score_last)


def _ascent_entry(reads_alpha, ascent):
    return Algorithm(False, reads_alpha,
                     lambda s, n, warm: ascent(s, n, warm, False)[1].precoders,
                     ascent)


# Each design or ascent call names its function as a module global at call
# time, so a wrapper installed over that global (a profiler, a test) sees
# the call.  warm is the same algorithm's design for the previous block,
# or None.
ALGORITHM_TABLE = {
    "alg1": _ascent_entry(True, lambda s, n, warm, score_last=True:
                          _mm_ascent(mm_full, s, n, warm, score_last)),
    "alg2": _ascent_entry(True, lambda s, n, warm, score_last=True:
                          _mm_ascent(mm_shared, s, n, warm, score_last)),
    # alg3 reads only the coupling profile omega; the inversion baselines
    # read only the true block-1 channels
    "alg3": _ascent_entry(False, lambda s, n, warm, score_last=True:
                          beam_power_allocation(s.post.stats, s.cfg,
                                                iters=s.plan.mm_iters,
                                                score_last=score_last)),
    "rzf": Algorithm(True, False, lambda s, n, warm: rzf(
        s.first, s.cfg.p_total, s.cfg.sigma2_z)),
    "slnr": Algorithm(True, False, lambda s, n, warm: slnr(
        s.first, s.cfg.p_total, s.cfg.sigma2_z)),
    "wmmse": Algorithm(True, False, lambda s, n, warm: wmmse(
        s.first, s.cfg.p_total, s.cfg.sigma2_z, s.cfg.weights).precoders),
    "robust-rzf": Algorithm(True, True, lambda s, n, warm: robust_rzf(
        s.post, n, s.cfg.p_total, s.cfg.sigma2_z,
        load_scale=s.plan.load_scale)),
}
ALGORITHMS = tuple(ALGORITHM_TABLE)


@dataclass(frozen=True)
class ExperimentPlan:
    """What an experiment runs: the "experiment" section of a config.

    algorithms are ALGORITHM_TABLE names, each at most once, run over
    n_slots independent slots; mm_iters is the update budget of the MM
    designs alg1, alg2 and alg3 (wmmse keeps its own); n_mc is the Monte
    Carlo draws per score, mc_batch at a time; snr_db overrides the
    system's sweep points (sweep_points, which only sweep_snr and
    validate-config read); assumed_alphas are a mismatch study's
    design-side aging coefficients; trace makes converge write DE traces;
    load_scale scales the error load of robust-rzf.  The point lists are
    checked, not converted, so a manifest echoes them as written.
    """

    algorithms: tuple = ("alg1",)
    n_slots: int = 10
    n_mc: int = 2000
    mm_iters: int = 30
    mc_batch: int = 256
    snr_db: tuple = None
    assumed_alphas: tuple = None
    trace: bool = False
    load_scale: float = 1.0

    def __post_init__(self):
        ok = lambda name, val: object.__setattr__(self, name, val)
        for key in ("n_slots", "n_mc", "mm_iters", "mc_batch"):
            ok(key, _cast(getattr(self, key), int, f"experiment.{key}"))
            if getattr(self, key) < 1:
                raise ConfigError(f"experiment.{key} must be a positive integer")
        if not isinstance(self.trace, bool):
            raise ConfigError("experiment.trace must be a boolean")
        ok("load_scale", _cast(self.load_scale, float, "experiment.load_scale"))
        if self.load_scale < 0:
            raise ConfigError("experiment.load_scale must be a number >= 0")
        if self.snr_db is not None:
            _values(self.snr_db, "experiment.snr_db")
        if self.assumed_alphas is not None and not all(
                0 <= a <= 1 for a in _values(self.assumed_alphas,
                                             "experiment.assumed_alphas")):
            raise ConfigError("experiment.assumed_alphas must be a list of "
                              "numbers in [0, 1]")
        algorithms = self.algorithms
        if (not isinstance(algorithms, (list, tuple)) or not algorithms
                or not all(isinstance(a, str) for a in algorithms)):
            raise ConfigError("experiment.algorithms must be a non-empty list "
                              f"of algorithm names; got {algorithms!r}")
        for a in algorithms:
            if a not in ALGORITHM_TABLE:
                raise ConfigError(f"unknown algorithm {a!r}; choose from "
                                  f"{', '.join(ALGORITHMS)}")
        if len(set(algorithms)) < len(algorithms):
            raise ConfigError("experiment.algorithms must name each algorithm "
                              f"once; got {algorithms!r}")
        ok("algorithms", tuple(algorithms))

    def check(self, cfg):
        """Raise ConfigError for what this plan cannot run on cfg: n_b < 2,
        or a full-rank design with d_k != m_k."""
        if cfg.n_b < 2:
            raise ConfigError("experiments need n_b >= 2 (block 1 is pilots)")
        for a in self.algorithms:
            if ALGORITHM_TABLE[a].full_rank and cfg.d_k != cfg.m_k:
                raise ConfigError(f"{a} requires d_k == m_k")


class MCRate(NamedTuple):
    total: float
    stderr: float


# slogdet's sign is exactly 1 for a Hermitian positive-definite matrix, and
# its computed distance from 1 tracks the determinant's round-off: at most
# 6e-4 where rates are sound (120 dB with d_k < m_k), 0.93 or more where
# the log-determinant has lost all precision (150 dB with d_k < m_k).
_SIGN_TOL = 1e-3


@dataclass(frozen=True)
class RateRecord:
    algorithm: str
    slot: int
    block: int
    rate: float
    stderr: float


@dataclass
class ExperimentResult:
    records: list = field(default_factory=list)
    failed_slots: list = field(default_factory=list)
    first_error: NumericalError = None  # what dropped the first failed slot

    def mean_rate(self, algorithm):
        vals = [r.rate for r in self.records if r.algorithm == algorithm]
        if not vals:
            raise KeyError(f"no records for {algorithm!r}")
        return float(np.mean(vals))


def monte_carlo_rate(posterior, designs, weights, sigma2_z, n, rng,
                     n_samples, batch=256):
    """Posterior-averaged weighted sum rate of each precoder set in designs
    by sampling, in nats; one MCRate per set.

    Interference is treated as Gaussian noise with its posterior-expected
    covariance (the same matrix the deterministic evaluation uses), so only
    the desired channel is drawn: each user's rate averages
    logdet(R + (HP)(HP)^H) - logdet(R) over posterior samples of H.
    Draws are batched; matrices stay (batch, m_k, m_k).  Each batch is
    drawn once and scores every design, so all designs see the same draws,
    and each design's result is the one it would get scored alone.

    A set whose base or draw log-determinant is not finite, or whose
    determinant sign is off 1 by more than _SIGN_TOL (the logdet has lost
    its precision), scores MCRate(nan, nan).
    """
    n_samples = int(n_samples)
    per_user = [[] for _ in designs]
    variances = [[] for _ in designs]
    valid = [True] * len(designs)
    for k in range(posterior.n_users):
        covs = [interference_covariance(posterior, pre, k, n, sigma2_z)
                for pre in designs]
        bases = [np.linalg.slogdet(r) for r in covs]
        acc, acc_sq = [0.0] * len(designs), [0.0] * len(designs)
        left = n_samples
        while left > 0:
            b = min(batch, left)
            draws = posterior.sample(k, n, rng, size=b)
            for i, pre in enumerate(designs):
                hp = _stack_matmul(draws, pre[k])
                full = hp @ hp.conj().transpose(0, 2, 1)
                full += covs[i]
                signs, vals = np.linalg.slogdet(full)
                # |sign - 1| <= _SIGN_TOL for a sign of modulus 1 (or 0),
                # read off the real part: no batch-sized temporaries
                valid[i] &= bool(np.all(signs.real >= 1 - _SIGN_TOL**2 / 2))
                vals -= bases[i].logabsdet
                acc[i] += float(np.sum(vals))
                acc_sq[i] += float(np.sum(vals * vals))
            left -= b
        for i in range(len(designs)):
            valid[i] &= (bool(abs(bases[i].sign - 1) <= _SIGN_TOL)
                         and math.isfinite(acc[i]))
            mean = acc[i] / n_samples
            per_user[i].append(mean)
            if n_samples > 1:
                variances[i].append(max(acc_sq[i] / n_samples - mean * mean,
                                        0.0) * n_samples / (n_samples - 1))
            else:
                variances[i].append(0.0)
    # users are sampled independently, so weighted variances add
    return [MCRate(float(np.dot(weights, means)),
                   float(np.sqrt(np.dot(np.square(weights), var) / n_samples)))
            if ok else MCRate(math.nan, math.nan)
            for means, var, ok in zip(per_user, variances, valid)]


def _dispatch(alg, n, call, *args):
    """call(*args) for algorithm alg at block n, with a numpy LinAlgError
    (a singular matrix no solver types itself) raised as a NumericalError
    naming both."""
    try:
        return call(*args)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{alg}, block {n}: linear algebra failed: "
                             f"{exc}") from exc


def _algorithm_designs(alg, inputs):
    """One algorithm's precoders for every data block of a slot: one design
    per block if it reads alpha, else one design for them all."""
    entry, prev, out = ALGORITHM_TABLE[alg], None, []
    for n in range(2, inputs.cfg.n_b + 1):
        if prev is None or entry.reads_alpha:
            prev = _dispatch(alg, n, entry.design, inputs, n, prev)
        out.append(prev)
    return out


def experiment_statistics(cfg, profile):
    """The user statistics an experiment runs on, drawn once from the
    profile under the config seed."""
    if profile is None:
        raise ConfigError("a beam profile is required")
    stats_rng = default_rng(SeedSequence([cfg.seed, 0]))
    return generate_synthetic_stats(cfg, profile, stats_rng)


def prepare_slot(cfg, stats, slot):
    """(true block-1 channels, posterior) for one slot index, on the same
    seed stream the experiment harness uses."""
    pilots = orthogonal_pilots(cfg.m_k, cfg.block_len)
    rng_ch = default_rng(SeedSequence([cfg.seed, 1, slot]))
    # Only block 1 is returned, but blocks 2..n_b are drawn all the same:
    # each user's draws advance rng_ch before the next user's block 1 and
    # the uplink noise, so dropping them would move every rate.
    first = [b[0] for b in draw_slot(stats, cfg.n_b, rng_ch)]
    y = uplink_observation(first, pilots, cfg.uplink_noise, rng_ch)
    return first, build_posterior(y, pilots, stats, cfg.uplink_noise)


def _score(cfg, plan, post, slot, designed, outcomes):
    """Score each (alg, group, per-block designs) of designed on one pass of
    the slot's draws per data block, and append (group, its records, or the
    NumericalError of a score that is not valid) to outcomes[alg]."""
    rows = [[] for _ in designed]
    for j, n in enumerate(range(2, cfg.n_b + 1)):
        rng_mc = default_rng(SeedSequence([cfg.seed, 2, slot, n]))
        rates = monte_carlo_rate(
            post, [d[j] for _, _, d in designed], cfg.weights, cfg.sigma2_z,
            n, rng_mc, plan.n_mc, batch=plan.mc_batch)
        for (alg, _, _), row, mc in zip(designed, rows, rates):
            row.append(RateRecord(alg, slot, n, mc.total, mc.stderr))
    for (alg, group, _), row in zip(designed, rows):
        if any(math.isnan(rec.rate) for rec in row):
            row = NumericalError(
                f"{alg}: the Monte Carlo score of slot {slot} is not valid "
                "(a log-determinant lost its precision)")
        outcomes[alg].append((group, row))


def _run_points(cfg, profile, plan, assumed_alphas):
    """The plan's slots, designed once per design-side aging coefficient
    (None: the slot's own posterior) and scored under the truth; one
    ExperimentResult per coefficient.

    Per slot, the algorithms are designed in plan order, each point's
    design covering all its data blocks; one that does not read alpha is
    designed once for every point.  Each design joins the pass of draws
    its key names: its algorithm if it reads alpha, else the one pass of
    all that do not.  Every pass is scored after the slot's last design.
    Outcomes are then applied in plan order: a NumericalError, or a Monte
    Carlo score that is not valid at any block of the slot, drops the
    rates of that algorithm for the slot at the points its design serves,
    lists the slot once in each such point's failed_slots, and is kept as
    a point's first_error if it is the first.
    """
    plan.check(cfg)
    stats = experiment_statistics(cfg, profile)
    results = [ExperimentResult() for _ in assumed_alphas]
    for slot in range(plan.n_slots):
        first, score_post = prepare_slot(cfg, stats, slot)
        points = [Slot(cfg, first, score_post if a is None
                       else score_post.assuming(a), plan, {})
                  for a in assumed_alphas]
        outcomes = {alg: [] for alg in plan.algorithms}
        passes = {}
        for alg in plan.algorithms:
            reads_alpha = ALGORITHM_TABLE[alg].reads_alpha
            # the points each design serves: its own, or all of them
            groups = ([[i] for i in range(len(points))] if reads_alpha
                      else [range(len(points))])
            for group in groups:
                try:
                    designs = _algorithm_designs(alg, points[group[0]])
                except NumericalError as exc:
                    outcomes[alg].append((group, exc))
                else:
                    passes.setdefault(alg if reads_alpha else None, []).append(
                        (alg, group, designs))
        for designed in passes.values():
            _score(cfg, plan, score_post, slot, designed, outcomes)
        failed = [None] * len(points)
        for alg in plan.algorithms:
            for group, out in outcomes[alg]:
                for i in group:
                    if isinstance(out, NumericalError):
                        failed[i] = failed[i] or out
                    else:
                        results[i].records.extend(out)
        for result, exc in zip(results, failed):
            if exc is not None:
                result.failed_slots.append(slot)
                result.first_error = result.first_error or exc
    return results


def run_slot_experiment(cfg, profile, plan):
    """Design and score precoders over the plan's independent slots, each
    design on the slot's own posterior (alpha_mismatch_study designs under
    an assumed aging coefficient).

    When a solver fails numerically, only that algorithm's rates for the
    slot are dropped; each slot with such a failure is listed once in
    failed_slots, and the first such error is kept as first_error.
    """
    return _run_points(cfg, profile, plan, [None])[0]


def sweep_points(cfg, plan):
    """[(snr, sigma2_z)] for each SNR point of the plan (or, when it sets
    none, of the system), with SNR = p_total / sigma2_z; a point with no
    usable noise variance is a ConfigError."""
    return [(float(snr), noise_from_snr(snr, cfg.p_total))
            for snr in (cfg.snr_db if plan.snr_db is None else plan.snr_db)]


def sweep_snr(cfg, profile, plan):
    """run_slot_experiment at each of the sweep_points; returns
    [(snr, result)].

    Every point is checked before any runs.  The uplink noise tracks the
    downlink noise unless the config pins sigma2_bs.  Slot seeds repeat
    across points, so curves share channel realizations.
    """
    points = sweep_points(cfg, plan)
    if not points:
        raise ConfigError("no SNR points given (set snr_db)")
    return [(snr, run_slot_experiment(at_noise(cfg, noise), profile, plan))
            for snr, noise in points]


def alpha_mismatch_study(cfg, profile, plan):
    """Design under each of the plan's assumed aging coefficients, score
    under the truth.

    Returns [(assumed_alpha, result)].  Statistics and slot channels repeat
    across points, so the only thing that moves is the design-side model.
    """
    if not plan.assumed_alphas:
        raise ConfigError("mismatch needs experiment.assumed_alphas")
    alphas = [float(a) for a in plan.assumed_alphas]
    return list(zip(alphas, _run_points(cfg, profile, plan, alphas)))


def convergence_study(cfg, profile, plan):
    """Each of the plan's MM ascents (an algorithm without one is a
    ConfigError) on slot 0's posterior, designing block 2 from its canonical
    start; returns [(algorithm, beam allocation or None, MMReport)]."""
    plan.check(cfg)
    supported = [a for a in ALGORITHMS if ALGORITHM_TABLE[a].ascent]
    bad = [a for a in plan.algorithms if a not in supported]
    if bad:
        raise ConfigError(f"converge supports {', '.join(supported)}; "
                          f"got {bad[0]!r}")
    stats = experiment_statistics(cfg, profile)
    first, posterior = prepare_slot(cfg, stats, 0)
    slot = Slot(cfg, first, posterior, plan, {})
    return [(alg, *_dispatch(alg, 2, ALGORITHM_TABLE[alg].ascent, slot, 2,
                             None))
            for alg in plan.algorithms]
