"""Monte Carlo experiment harness.

One experiment draws user statistics once, then per slot: channel blocks,
an uplink pilot observation, the posterior, one precoder design per
requested algorithm, and posterior-sampled rate scores.  Scoring reuses the
same stream seed for every algorithm at a given (slot, block), so designs
are compared under common random numbers; the designs of one algorithm at
every point of a mismatch study are scored on one pass of those draws, and
an algorithm whose design does not read the assumed aging coefficient is
designed and scored once per slot for all points.
Seeds derive from the config seed through SeedSequence spawn keys, never
from global state, which makes every run reproducible bit for bit.
"""
from __future__ import annotations

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
    slot_wide: bool   # one design serves every data block of a slot
    # the design reads the design-side aging coefficient; one that does not
    # is the same at every point of a mismatch study
    reads_alpha: bool
    design: object    # design(slot, n, warm) -> precoders for data block n
    # an MM ascent, which `converge` can trace: ascent(slot, n, warm) ->
    # (beam allocation or None, MMReport); None otherwise
    ascent: object = None


class Slot(NamedTuple):
    """Design inputs of one slot: first = true block-1 channels, post = the
    design-side posterior (post.stats its statistics), plan = the
    ExperimentPlan being run."""

    cfg: object
    first: list
    post: object
    plan: object


def _mm_ascent(runner, s, n, warm):
    if warm is None:
        warm = canonical_allocation(s.post.stats, s.cfg).precoders
    return None, runner(s.post, s.cfg, n, warm, iters=s.plan.mm_iters)


def _ascent_entry(slot_wide, reads_alpha, ascent):
    return Algorithm(False, slot_wide, reads_alpha,
                     lambda s, n, warm: ascent(s, n, warm)[1].precoders,
                     ascent)


# Each design or ascent call names its function as a module global at call
# time, so a wrapper installed over that global (a profiler, a test) sees
# the call.  warm is the same algorithm's design for the previous block,
# or None.
ALGORITHM_TABLE = {
    "alg1": _ascent_entry(False, True, lambda s, n, warm: _mm_ascent(
        mm_full, s, n, warm)),
    "alg2": _ascent_entry(False, True, lambda s, n, warm: _mm_ascent(
        mm_shared, s, n, warm)),
    # alg3 reads only the coupling profile omega; the inversion baselines
    # read only the true block-1 channels
    "alg3": _ascent_entry(True, False, lambda s, n, warm:
                          beam_power_allocation(s.post.stats, s.cfg,
                                                iters=s.plan.mm_iters)),
    "rzf": Algorithm(True, True, False, lambda s, n, warm: rzf(
        s.first, s.cfg.p_total, s.cfg.sigma2_z)),
    "slnr": Algorithm(True, True, False, lambda s, n, warm: slnr(
        s.first, s.cfg.p_total, s.cfg.sigma2_z)),
    "wmmse": Algorithm(True, True, False, lambda s, n, warm: wmmse(
        s.first, s.cfg.p_total, s.cfg.sigma2_z, s.cfg.weights)[0]),
    "robust-rzf": Algorithm(True, False, True, lambda s, n, warm: robust_rzf(
        s.post, n, s.cfg.p_total, s.cfg.sigma2_z,
        load_scale=s.plan.load_scale)),
}
ALGORITHMS = tuple(ALGORITHM_TABLE)


@dataclass(frozen=True)
class ExperimentPlan:
    """What an experiment runs: the "experiment" section of a config.

    algorithms are ALGORITHM_TABLE names, each at most once, run over
    n_slots independent slots; mm_iters is the update budget of the
    iterative designs; n_mc is the Monte Carlo draws per score, mc_batch at
    a time; snr_db overrides the system's sweep points; assumed_alphas are a
    mismatch study's design-side aging coefficients; trace makes converge
    write DE traces; load_scale scales the error load of robust-rzf.  The
    point lists are checked, not converted, so a manifest echoes them as
    written.
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
        an SNR point (the plan's, or else the system's) with no usable noise
        variance, or a full-rank design with d_k != m_k."""
        if cfg.n_b < 2:
            raise ConfigError("experiments need n_b >= 2 (block 1 is pilots)")
        for snr in cfg.snr_db if self.snr_db is None else self.snr_db:
            noise_from_snr(snr, cfg.p_total)
        for a in self.algorithms:
            if ALGORITHM_TABLE[a].full_rank and cfg.d_k != cfg.m_k:
                raise ConfigError(f"{a} requires d_k == m_k")


class MCRate(NamedTuple):
    total: float
    stderr: float


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
    """
    n_samples = int(n_samples)
    per_user = [[] for _ in designs]
    variances = [[] for _ in designs]
    for k in range(posterior.n_users):
        covs = [interference_covariance(posterior, pre, k, n, sigma2_z)
                for pre in designs]
        bases = [float(np.linalg.slogdet(r)[1]) for r in covs]
        acc, acc_sq = [0.0] * len(designs), [0.0] * len(designs)
        left = n_samples
        while left > 0:
            b = min(batch, left)
            draws = posterior.sample(k, n, rng, size=b)
            for i, pre in enumerate(designs):
                hp = _stack_matmul(draws, pre[k])
                full = hp @ hp.conj().transpose(0, 2, 1)
                full += covs[i]
                vals = np.linalg.slogdet(full)[1]
                vals -= bases[i]
                acc[i] += float(np.sum(vals))
                acc_sq[i] += float(np.sum(vals * vals))
            left -= b
        for i in range(len(designs)):
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
            for means, var in zip(per_user, variances)]


def _algorithm_designs(alg, inputs):
    """One algorithm's precoders for every data block of a slot."""
    entry, prev, out = ALGORITHM_TABLE[alg], None, []
    for n in range(2, inputs.cfg.n_b + 1):
        if prev is None or not entry.slot_wide:
            prev = entry.design(inputs, n, prev)
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
    """Channel blocks and posterior for one slot index, on the same seed
    stream the experiment harness uses."""
    pilots = orthogonal_pilots(cfg.m_k, cfg.block_len)
    rng_ch = default_rng(SeedSequence([cfg.seed, 1, slot]))
    # Callers read only block 1, but blocks 2..n_b are drawn all the same:
    # each user's draws advance rng_ch before the next user's block 1 and
    # the uplink noise, so dropping them would move every rate.
    blocks = draw_slot(stats, cfg.n_b, rng_ch)
    y = uplink_observation([b[0] for b in blocks], pilots, cfg.uplink_noise,
                           rng_ch)
    posterior = build_posterior(y, pilots, stats, cfg.uplink_noise)
    return blocks, posterior


def _run_points(cfg, profile, plan, assumed_alphas):
    """The plan's slots, designed once per design-side aging coefficient
    (None: the slot's own posterior) and scored under the truth; one
    ExperimentResult per coefficient.

    Per slot and algorithm, every point designs all its data blocks first;
    then each block's designs are scored together on one pass of that
    block's draws.  An algorithm that does not read alpha is designed and
    scored once per slot, and its records are copied to every point.  A
    NumericalError drops the rates of that algorithm for the slot at the
    points its design serves, lists the slot once in each such point's
    failed_slots, and is kept as a point's first_error if it is the first.
    """
    plan.check(cfg)
    stats = experiment_statistics(cfg, profile)
    results = [ExperimentResult() for _ in assumed_alphas]
    for slot in range(plan.n_slots):
        blocks, score_post = prepare_slot(cfg, stats, slot)
        first = [b[0] for b in blocks]
        points = [Slot(cfg, first, score_post if a is None
                       else score_post.assuming(a), plan)
                  for a in assumed_alphas]
        failed = [None] * len(points)
        for alg in plan.algorithms:
            # the points each design serves: its own, or all of them
            groups = ([[i] for i in range(len(points))]
                      if ALGORITHM_TABLE[alg].reads_alpha
                      else [range(len(points))])
            designs = []
            for group in groups:
                try:
                    designs.append(
                        (group, _algorithm_designs(alg, points[group[0]])))
                except NumericalError as exc:
                    for i in group:
                        failed[i] = failed[i] or exc
            if not designs:
                continue
            for j, n in enumerate(range(2, cfg.n_b + 1)):
                rng_mc = default_rng(SeedSequence([cfg.seed, 2, slot, n]))
                rates = monte_carlo_rate(
                    score_post, [d[j] for _, d in designs], cfg.weights,
                    cfg.sigma2_z, n, rng_mc, plan.n_mc, batch=plan.mc_batch)
                for (group, _), mc in zip(designs, rates):
                    for i in group:
                        results[i].records.append(
                            RateRecord(alg, slot, n, mc.total, mc.stderr))
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


def sweep_snr(cfg, profile, plan):
    """run_slot_experiment at each SNR point of the plan (or, when it sets
    none, of the system); returns [(snr, result)].

    The noise follows SNR = p_total / sigma2_z; the uplink noise tracks it
    unless the config pins sigma2_bs.  Slot seeds repeat across points, so
    curves share channel realizations.
    """
    points = tuple(cfg.snr_db if plan.snr_db is None else plan.snr_db)
    if not points:
        raise ConfigError("no SNR points given (set snr_db)")
    out = []
    for snr in points:
        sub = at_noise(cfg, noise_from_snr(snr, cfg.p_total))
        out.append((float(snr), run_slot_experiment(sub, profile, plan)))
    return out


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
