"""Robust linear precoding for the massive MIMO downlink under imperfect,
aging channel state information.

Layers: channel statistics and slot simulation (`channel`), the pilot-based
posterior model (`posterior`), quadratic-expectation operators (`operators`),
deterministic rate evaluation (`det_equiv`), the three precoder optimizers
(`mm_precoder`, `beam_domain`), classical baselines (`baselines`), the
Monte Carlo experiment harness (`evaluation`), and a batch CLI (`cli`).
"""
from importlib.metadata import PackageNotFoundError, version

try:
    __version__ = version("robustprec")
except PackageNotFoundError:  # running from a source tree
    __version__ = "0.0.0+src"

from .baselines import perfect_csi_rate, robust_rzf, rzf, slnr, wmmse
from .beam_domain import (
    BeamAllocation,
    beam_power_allocation,
    canonical_allocation,
)
from .channel import (
    BeamProfile,
    UserStatistics,
    dft_matrix,
    draw_slot,
    generate_synthetic_stats,
    jakes_correlation,
    orthogonal_pilots,
    uplink_observation,
)
from .config import SystemConfig, at_noise, noise_from_snr
from .det_equiv import DEState, de_weighted_sum_rate, solve_fixed_point
from .errors import BisectionError, ConfigError, FixedPointError, NumericalError
from .evaluation import (
    ALGORITHMS,
    ExperimentPlan,
    ExperimentResult,
    RateRecord,
    alpha_mismatch_study,
    experiment_statistics,
    monte_carlo_rate,
    prepare_slot,
    run_slot_experiment,
    sweep_snr,
)
from .matio import read_complex_csv, write_complex_csv
from .mm_precoder import MMReport, mm_full, mm_shared, mu_bisection
from .posterior import PosteriorModel, build_posterior

__all__ = [
    "__version__",
    "ALGORITHMS",
    "BeamAllocation",
    "BeamProfile",
    "BisectionError",
    "ConfigError",
    "DEState",
    "ExperimentPlan",
    "ExperimentResult",
    "FixedPointError",
    "MMReport",
    "NumericalError",
    "PosteriorModel",
    "RateRecord",
    "SystemConfig",
    "UserStatistics",
    "alpha_mismatch_study",
    "at_noise",
    "beam_power_allocation",
    "build_posterior",
    "canonical_allocation",
    "de_weighted_sum_rate",
    "dft_matrix",
    "draw_slot",
    "experiment_statistics",
    "generate_synthetic_stats",
    "jakes_correlation",
    "mm_full",
    "prepare_slot",
    "mm_shared",
    "monte_carlo_rate",
    "mu_bisection",
    "noise_from_snr",
    "orthogonal_pilots",
    "perfect_csi_rate",
    "read_complex_csv",
    "robust_rzf",
    "run_slot_experiment",
    "rzf",
    "slnr",
    "solve_fixed_point",
    "sweep_snr",
    "uplink_observation",
    "wmmse",
    "write_complex_csv",
]
