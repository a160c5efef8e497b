"""System-level dimensions, powers and noise levels.

A SystemConfig describes one downlink scenario: array size, user antenna
counts, stream counts, slot structure and the power/noise bookkeeping that
every solver and experiment shares.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .errors import ConfigError


def _cast(value, cast, name):
    """value as cast (int or float), never rounded; a bool, a string, a
    non-finite number or a fraction for int is a ConfigError naming the key."""
    try:
        if isinstance(value, (bool, str)):
            raise TypeError
        out = cast(value)
        if not (out == value if cast is int else math.isfinite(out)):
            raise ValueError
        return out
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if cast is int else "a finite number"
        raise ConfigError(f"{name} must be {kind}; got {value!r}") from None


def _values(value, name, cast=float, n=None):
    """A list-valued key as a tuple of cast entries.

    With n given, a scalar is broadcast to n entries (one per user) and a
    list must have exactly n; without n the value must be a list.
    """
    if isinstance(value, str) or not hasattr(value, "__len__"):
        if n is None:
            raise ConfigError(f"{name} must be a list; got {value!r}")
        value = [value] * n
    vals = tuple(_cast(v, cast, name) for v in value)
    if n is not None and len(vals) != n:
        raise ConfigError(f"{name} must have one entry per user ({n}), got {len(vals)}")
    return vals


@dataclass(frozen=True)
class SystemConfig:
    """Scenario description.

    m_t: transmit antennas (= transmit beams).
    m_k: receive antennas per user; the user count is len(m_k).
    d_k: streams per user, defaults to m_k.
    n_b: blocks per slot; block 1 carries the uplink pilots.
    block_len: pilot symbols per block, defaults to sum(m_k).
    p_total: downlink sum power budget.
    weights: per-user rate weights, default all ones.
    sigma2_z: downlink noise variance per receive antenna.
    sigma2_bs: uplink noise variance; None means "track sigma2_z".
    snr_db: sweep points, with SNR = p_total / sigma2_z.
    """

    m_t: int
    m_k: tuple
    d_k: tuple = None
    n_b: int = 7
    block_len: int = None
    p_total: float = 1.0
    weights: tuple = None
    sigma2_z: float = 1.0
    sigma2_bs: float = None
    snr_db: tuple = ()
    seed: int = 0

    def __post_init__(self):
        ok = lambda name, val: object.__setattr__(self, name, val)
        ok("m_t", _cast(self.m_t, int, "m_t"))
        if self.m_t < 1:
            raise ConfigError("m_t must be a positive integer")
        m_k = _values(self.m_k, "m_k", int)
        if not m_k or any(m < 1 for m in m_k):
            raise ConfigError("m_k must be a non-empty list of positive integers")
        ok("m_k", m_k)
        n = len(m_k)
        d_k = _values(m_k if self.d_k is None else self.d_k, "d_k", int, n)
        for d, m in zip(d_k, m_k):
            if not 1 <= d <= min(m, self.m_t):
                raise ConfigError(f"d_k entries must satisfy 1 <= d <= min(m_k, m_t); got {d}")
        ok("d_k", d_k)
        ok("n_b", _cast(self.n_b, int, "n_b"))
        if self.n_b < 1:
            raise ConfigError("n_b must be >= 1")
        block_len = (sum(m_k) if self.block_len is None
                     else _cast(self.block_len, int, "block_len"))
        if block_len < sum(m_k):
            raise ConfigError("pilot capacity exceeded: block_len must be "
                              ">= sum(m_k) for orthogonal pilots")
        ok("block_len", block_len)
        ok("p_total", _cast(self.p_total, float, "p_total"))
        if not self.p_total > 0:
            raise ConfigError("p_total must be > 0")
        w = _values(1.0 if self.weights is None else self.weights, "weights", float, n)
        if any(v < 0 for v in w):
            raise ConfigError("weights must be nonnegative")
        ok("weights", w)
        ok("sigma2_z", _cast(self.sigma2_z, float, "sigma2_z"))
        if not self.sigma2_z > 0:
            raise ConfigError("sigma2_z must be > 0")
        if self.sigma2_bs is not None:
            ok("sigma2_bs", _cast(self.sigma2_bs, float, "sigma2_bs"))
            if self.sigma2_bs < 0:
                raise ConfigError("sigma2_bs must be >= 0")
        ok("snr_db", _values(self.snr_db, "snr_db"))
        ok("seed", _cast(self.seed, int, "seed"))
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")

    @property
    def n_users(self):
        return len(self.m_k)

    @property
    def uplink_noise(self):
        """Uplink pilot noise variance; follows sigma2_z unless pinned."""
        return self.sigma2_z if self.sigma2_bs is None else self.sigma2_bs


def noise_from_snr(snr_db, p_total=1.0):
    """Noise variance for a given SNR point, SNR = p_total / sigma2_z; a
    point whose variance is not a positive finite float is a ConfigError."""
    try:
        out = p_total * 10.0 ** (-float(snr_db) / 10.0)
    except OverflowError:
        out = math.inf
    if not 0.0 < out < math.inf:
        raise ConfigError(f"snr_db {snr_db!r} gives noise variance {out!r}")
    return out


def at_noise(cfg, sigma2_z):
    """Copy of cfg with the downlink noise replaced."""
    return dataclasses.replace(cfg, sigma2_z=float(sigma2_z))
