"""Posterior channel model from one uplink pilot observation.

Conditioned on the block-1 pilots, each user's block-n channel is Gaussian:
a shrunk linear-MMSE mean plus a zero-mean remainder whose beam-domain
entries are independent with a known variance profile.  Estimation error and
aging both land in that remainder, so the per-entry variances satisfy an
exact conservation identity against the prior profile.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .channel import _dft_conj, crandn
from .errors import ConfigError
from .operators import OperatorKernel


def _stack_matmul(a, b):
    """a @ b for a C-contiguous (n, r, c) stack and one (c, d) matrix.

    The stack is folded into n*r rows, so the product is a single GEMM
    rather than one BLAS call per slice; each row sees the same arithmetic,
    so the bits match a @ b.  A single-row stack stays a stacked product:
    numpy takes each slice as a vector product there, whose rounding a GEMM
    does not reproduce.
    """
    n, r, c = a.shape
    if r == 1:
        return a @ b
    return (a.reshape(n * r, c) @ b).reshape(n, r, -1)


def _safe_ratio(num, den):
    out = np.zeros_like(num, dtype=float)
    np.divide(num, den, out=out, where=den > 0)
    return out


def delta_profile(omega, sigma2_bs):
    """Per-entry MMSE shrink factors omega / (omega + sigma2_bs).

    Zero-power entries shrink to 0 even at sigma2_bs = 0 (0/0 -> 0 limit).
    """
    omega = np.asarray(omega, dtype=float)
    return _safe_ratio(omega, omega + sigma2_bs)


def xi2_profile(omega, alpha, sigma2_bs, n):
    """Posterior variance profile at block n >= 1.

    omega - alpha^(2(n-1)) * omega^2 / (omega + sigma2_bs), clamped at 0.
    Estimation noise and aging innovation both feed this term; at alpha = 1
    and sigma2_bs = 0 it vanishes identically.
    """
    if n < 1:
        raise ConfigError("block index n starts at 1")
    omega = np.asarray(omega, dtype=float)
    shrunk = float(alpha) ** (2 * (n - 1)) * _safe_ratio(omega * omega, omega + sigma2_bs)
    return np.maximum(omega - shrunk, 0.0)


def mmse_estimate(y, pilot, stats, sigma2_bs):
    """Linear-MMSE estimate of user k's block-1 channel from the pilot rx Y.

    The estimate is formed beam-wise after despreading with the user's
    pilot; PosteriorModel.mean shrinks it by alpha^(n-1) for block n.
    """
    despread = stats.u.conj().T @ pilot.conj() @ y.T @ stats.v
    delta = delta_profile(stats.omega, sigma2_bs)
    return stats.u @ (delta * despread) @ _dft_conj(stats.m_t).T


@dataclass
class PosteriorModel:
    """Gaussian posterior for all users and data blocks of one slot.

    mean1[k] is user k's block-1 MMSE estimate; the block-n mean is the
    alpha^(n-1)-shrunk copy and the block-n variance profile follows
    xi2_profile.  Block 1 carries the pilots; means and variances are
    answerable for any n >= 1.
    """

    stats: list
    sigma2_bs: float
    mean1: list
    _kernels: dict = field(default_factory=dict, repr=False)

    @property
    def n_users(self):
        return len(self.stats)

    def assuming(self, alpha):
        """These block-1 estimates, which do not depend on alpha, read under
        aging coefficient alpha for every user."""
        return PosteriorModel([replace(s, alpha=alpha) for s in self.stats],
                              self.sigma2_bs, self.mean1)

    def mean(self, k, n):
        """Posterior mean of user k's block-n channel."""
        return float(self.stats[k].alpha) ** (n - 1) * self.mean1[k]

    def var_profile(self, k, n):
        """Beam-domain variance profile of the zero-mean remainder."""
        s = self.stats[k]
        return xi2_profile(s.omega, s.alpha, self.sigma2_bs, n)

    def kernel(self, k, n):
        """Operator kernel of the block-n remainder (cached per (k, n))."""
        key = (k, n)
        kern = self._kernels.get(key)
        if kern is None:
            kern = OperatorKernel(self.stats[k].u, self.var_profile(k, n))
            self._kernels[key] = kern
        return kern

    def sample(self, k, n, rng, size):
        """A new (size, m_k, m_t) batch of posterior draws of user k's
        block-n channel, mean + u ((amp o W) v^H) with iid CN(0,1) W."""
        amp = np.sqrt(self.kernel(k, n).var_profile)
        beams = _stack_matmul(amp * crandn(rng, size, *amp.shape),
                              _dft_conj(self.stats[k].m_t).T)
        return self.stats[k].u @ beams + self.mean(k, n)


def build_posterior(y, pilots, stats, sigma2_bs):
    """Assemble the posterior for one slot from the uplink observation."""
    if len(pilots) != len(stats):
        raise ConfigError("one pilot matrix per user is required")
    mean1 = [mmse_estimate(y, x, s, sigma2_bs) for x, s in zip(pilots, stats)]
    return PosteriorModel(list(stats), float(sigma2_bs), mean1)
