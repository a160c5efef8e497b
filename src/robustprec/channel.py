"""Jointly correlated MIMO channel model with Gauss-Markov block aging.

A user's channel is an M_k x M_t matrix H = U (A o W) V^H where U is the
user's receive eigenbasis, V the transmit-side unitary DFT (beam) basis,
A a deterministic nonnegative amplitude mask and W iid CN(0,1).  The
elementwise square of A is the beam coupling power profile: entry (i, j)
is the average power the user receives on eigendirection i from beam j.

Across the blocks of a slot the channel ages as a first-order Gauss-Markov
process with per-user coefficient alpha; block 1 carries uplink pilots.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import _cast, _values
from .errors import ConfigError

__all__ = [
    "SPEED_OF_LIGHT",
    "dft_matrix",
    "crandn",
    "jakes_correlation",
    "UserStatistics",
    "BeamProfile",
    "generate_synthetic_stats",
    "sample_channel",
    "evolve_slot",
    "draw_slot",
    "orthogonal_pilots",
    "uplink_observation",
]

SPEED_OF_LIGHT = 299_792_458.0

_DFT_CACHE = {}


def dft_matrix(m):
    """Unitary m x m DFT matrix, entry (p, q) = exp(-2i pi p q / m) / sqrt(m).

    One read-only array per size is shared by every caller.
    """
    mat = _DFT_CACHE.get(m)
    if mat is None:
        p = np.arange(m)
        mat = np.exp(-2j * np.pi * np.outer(p, p) / m) / np.sqrt(m)
        mat.flags.writeable = False
        _DFT_CACHE[m] = mat
    return mat


def crandn(rng, *shape):
    """iid CN(0, 1) array: independent real/imag parts with variance 1/2.

    The real parts are drawn first, then the imaginary parts, both straight
    into one complex array.
    """
    out = np.empty(shape, dtype=complex)
    out.real = rng.standard_normal(shape)
    out.imag = rng.standard_normal(shape)
    out *= np.sqrt(0.5)
    return out


def jakes_correlation(speed_mps, carrier_hz, symbol_time_s):
    """Block-to-block aging coefficient J0(2 pi v f_c T / c), clamped to [0, 1].

    The clamp keeps the Gauss-Markov recursion well defined past the first
    Bessel zero, where the raw correlation would turn negative.
    """
    from scipy.special import j0

    if carrier_hz <= 0 or symbol_time_s <= 0 or speed_mps < 0:
        raise ConfigError("jakes_correlation needs carrier_hz > 0, symbol_time_s > 0, speed_mps >= 0")
    x = 2.0 * np.pi * speed_mps * carrier_hz * symbol_time_s / SPEED_OF_LIGHT
    return float(np.clip(j0(x), 0.0, 1.0))


@dataclass(frozen=True)
class UserStatistics:
    """Second-order statistics of one user's channel.

    u: M_k x M_k receive eigenbasis (unitary).
    amp: M_k x M_t nonnegative amplitude mask; amp * amp is the power profile.
    alpha: Gauss-Markov aging coefficient in [0, 1].
    """

    u: np.ndarray
    amp: np.ndarray
    alpha: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        amp = np.asarray(self.amp, dtype=float)
        if u.ndim != 2 or u.shape[0] != u.shape[1]:
            raise ConfigError("u must be square")
        if amp.ndim != 2 or amp.shape[0] != u.shape[0]:
            raise ConfigError("amp must be m_k x m_t with m_k matching u")
        gram = u.conj().T @ u
        if np.max(np.abs(gram - np.eye(u.shape[0]))) > 1e-10:
            raise ConfigError("u must be unitary (1e-10 tolerance)")
        if np.any(amp < 0):
            raise ConfigError("amplitude mask entries must be nonnegative")
        if not 0.0 <= float(self.alpha) <= 1.0:
            raise ConfigError("alpha must lie in [0, 1]")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "amp", amp)
        object.__setattr__(self, "alpha", float(self.alpha))

    @classmethod
    def from_profile(cls, u, omega, alpha):
        """Build from a power profile; the stored mask is its elementwise sqrt."""
        omega = np.asarray(omega, dtype=float)
        if np.any(omega < 0):
            raise ConfigError("power profile entries must be nonnegative")
        return cls(u=u, amp=np.sqrt(omega), alpha=alpha)

    @property
    def omega(self):
        """Power coupling profile (exact elementwise square of the mask)."""
        return self.amp * self.amp

    @property
    def m_k(self):
        return self.amp.shape[0]

    @property
    def m_t(self):
        return self.amp.shape[1]

    @property
    def v(self):
        """Transmit (beam) basis: the shared read-only dft_matrix(m_t)."""
        return dft_matrix(self.m_t)


@dataclass(frozen=True)
class BeamProfile:
    """Recipe for synthetic user statistics.

    band_width: number of active beams per user (scalar or per-user).
    centers: central beam index per user; None spreads users evenly.
    lognorm_sigma: log-normal perturbation of the per-entry powers.
    decay: exponential power decay per beam of distance from the center.
    alphas: aging coefficient per user (scalar or per-user).
    """

    band_width: object
    centers: tuple = None
    lognorm_sigma: float = 0.0
    decay: float = 0.0
    alphas: object = 1.0

    def resolve(self, cfg):
        """(widths, centers, alphas, lognorm_sigma, decay) for cfg's users; a
        value of the wrong type, length or range is a ConfigError naming it."""
        n = cfg.n_users
        widths = _values(self.band_width, "band_width", int, n)
        if not all(1 <= w <= cfg.m_t for w in widths):
            raise ConfigError(f"band_width must lie in [1, m_t = {cfg.m_t}]; got {widths}")
        alphas = _values(self.alphas, "alphas", float, n)
        if not all(0 <= a <= 1 for a in alphas):
            raise ConfigError(f"alphas must lie in [0, 1]; got {alphas}")
        if self.centers is None:
            centers = [int(round(k * cfg.m_t / n)) % cfg.m_t for k in range(n)]
        else:
            centers = _values(self.centers, "centers", int, n)
        lognorm_sigma = _cast(self.lognorm_sigma, float, "lognorm_sigma")
        decay = _cast(self.decay, float, "decay")
        if lognorm_sigma < 0:
            raise ConfigError("lognorm_sigma must be >= 0")
        if decay < 0:
            raise ConfigError("decay must be >= 0")
        return widths, centers, alphas, lognorm_sigma, decay


def generate_synthetic_stats(cfg, profile, rng):
    """Draw per-user statistics following a beam-band profile.

    Each user gets a random receive eigenbasis and a power profile supported
    on a contiguous (circular) band of beams, with optional exponential decay
    away from the band center and log-normal power perturbation.  Profiles
    are normalized so their entries sum to m_k * m_t.
    """
    widths, centers, alphas, lognorm_sigma, decay = profile.resolve(cfg)
    stats = []
    for k in range(cfg.n_users):
        width, center = widths[k], centers[k] % cfg.m_t
        m = cfg.m_k[k]
        q, _ = np.linalg.qr(crandn(rng, m, m))
        offsets = np.arange(width) - (width - 1) // 2
        cols = (center + offsets) % cfg.m_t
        base = np.exp(-decay * np.abs(offsets))
        omega = np.zeros((m, cfg.m_t))
        block = np.tile(base, (m, 1))
        if lognorm_sigma > 0:
            block = block * np.exp(lognorm_sigma * rng.standard_normal((m, width)))
        omega[:, cols] = block
        omega *= (m * cfg.m_t) / omega.sum()
        stats.append(UserStatistics.from_profile(q, omega, alphas[k]))
    return stats


def sample_channel(stats, rng):
    """One draw H = u (amp o W) v^H with iid CN(0,1) W."""
    w = crandn(rng, *stats.amp.shape)
    return stats.u @ (stats.amp * w) @ stats.v.conj().T


def evolve_slot(stats, n_blocks, rng):
    """Channel blocks 1..n_blocks of one slot under Gauss-Markov aging.

    h[n] = alpha h[n-1] + sqrt(1 - alpha^2) * (fresh draw); alpha = 1 keeps
    the channel bit-identical across blocks, alpha = 0 redraws every block.
    """
    a = stats.alpha
    out = [sample_channel(stats, rng)]
    innov = np.sqrt(max(1.0 - a * a, 0.0))
    for _ in range(1, n_blocks):
        out.append(a * out[-1] + innov * sample_channel(stats, rng))
    return out


def draw_slot(stats, n_blocks, rng):
    """evolve_slot for every user; returns blocks[k][n-1]."""
    return [evolve_slot(s, n_blocks, rng) for s in stats]


def orthogonal_pilots(m_list, block_len):
    """Per-user pilot matrices: disjoint rows of a block_len-point unitary DFT.

    Rows are assigned contiguously in user order, so X_k X_k^H = I and
    X_l X_k^H = 0 for l != k.
    """
    total = sum(m_list)
    if total > block_len:
        raise ConfigError(f"pilot length {block_len} cannot fit {total} orthogonal sequences")
    f = dft_matrix(block_len)
    pilots, offset = [], 0
    for m in m_list:
        pilots.append(f[offset:offset + m, :].copy())
        offset += m
    return pilots


def uplink_observation(first_block_channels, pilots, sigma2_bs, rng):
    """Received uplink pilot signal Y = sum_k H_k^T X_k + noise (m_t x block_len)."""
    if len(first_block_channels) != len(pilots):
        raise ConfigError("one pilot matrix per user is required")
    y = None
    for h, x in zip(first_block_channels, pilots):
        term = h.T @ x
        y = term if y is None else y + term
    if sigma2_bs > 0:
        y = y + np.sqrt(sigma2_bs) * crandn(rng, *y.shape)
    return y
