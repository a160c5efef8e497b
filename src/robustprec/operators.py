"""Second-moment channel operators.

For a zero-mean channel remainder H~ = u (sqrt(s) o W) v^H with independent
beam-domain entries of variance s_ij, the conditional second moments

    E[H~ C H~^H]   (receive side)   and   E[H~^H C H~]   (transmit side)

are diagonal in the u / v bases with diagonals that are linear images of the
basis-domain diagonal of C through the variance profile.  These operators
carry all statistical-CSI terms in the rate expressions and solvers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "OperatorKernel",
    "hermitize",
    "basis_diag",
    "rx_gain_diag",
    "tx_gain_diag",
    "mean_quadratic_rx",
    "mean_quadratic_tx",
    "expected_gram",
    "expected_outer",
    "interference_covariance",
]


def hermitize(c):
    """(C + C^H)/2, the Hermitian part of a square matrix.

    The result is exactly Hermitian, and hermitize of an exactly Hermitian
    matrix returns it bit for bit, so callers symmetrize where a product is
    Hermitian only up to round-off and nowhere else.  Nothing is checked:
    the solvers build their matrices Hermitian analytically.  The sum is
    built in its one output array, in the layout 0.5 * (C + C^H) has.
    """
    c = np.asarray(c)
    out = np.conjugate(c.T, order="C")
    out += c
    out *= 0.5
    return out


def basis_diag(basis, c):
    """diag(basis^H C basis) without forming the full product."""
    return np.einsum("ji,ji->i", basis.conj(), c @ basis)


@dataclass(frozen=True)
class OperatorKernel:
    """Kernel (u, v, var_profile) of one user/block channel remainder.

    var_profile is the m_k x m_t matrix of beam-domain entry variances: the
    posterior profile for conditional moments, or the prior power profile for
    the statistical-CSI-only case.
    """

    u: np.ndarray
    v: np.ndarray
    var_profile: np.ndarray

    @property
    def m_k(self):
        return self.var_profile.shape[0]

    @property
    def m_t(self):
        return self.var_profile.shape[1]


def rx_gain_diag(kernel, c_tx):
    """Receive-basis diagonal of E[H~ C H~^H] for the Hermitian part of
    m_t x m_t C."""
    d = basis_diag(kernel.v, hermitize(c_tx)).real
    return kernel.var_profile @ d


def tx_gain_diag(kernel, c_rx):
    """Transmit(beam)-basis diagonal of E[H~^H C H~] for the Hermitian
    part of m_k x m_k C."""
    d = basis_diag(kernel.u, hermitize(c_rx)).real
    return kernel.var_profile.T @ d


def mean_quadratic_rx(kernel, c_tx):
    """E[H~ C H~^H]: m_k x m_k Hermitian PSD for Hermitian PSD C."""
    g = rx_gain_diag(kernel, c_tx)
    return (kernel.u * g) @ kernel.u.conj().T


def mean_quadratic_tx(kernel, c_rx):
    """E[H~^H C H~]: m_t x m_t Hermitian PSD for Hermitian PSD C."""
    g = tx_gain_diag(kernel, c_rx)
    return (kernel.v * g) @ kernel.v.conj().T


def expected_gram(posterior, k, n, c_rx):
    """E[H^H C H] under the posterior: mean^H C mean plus the remainder term."""
    mean = posterior.mean(k, n)
    return mean.conj().T @ c_rx @ mean + mean_quadratic_tx(posterior.kernel(k, n), c_rx)


def expected_outer(posterior, k, n, c_tx):
    """E[H C H^H] under the posterior: mean C mean^H plus the remainder term."""
    mean = posterior.mean(k, n)
    return mean @ c_tx @ mean.conj().T + mean_quadratic_rx(posterior.kernel(k, n), c_tx)


def interference_covariance(posterior, precoders, k, n, sigma2_z):
    """Noise-plus-interference covariance seen by user k in block n.

    sigma2_z I plus the posterior mean of H (sum_{l != k} P_l P_l^H) H^H;
    linearity collapses the per-interferer terms into one operator call.
    """
    m_k = posterior.stats[k].m_k
    cross = None
    for l, p in enumerate(precoders):
        if l == k:
            continue
        term = p @ p.conj().T
        cross = term if cross is None else cross + term
    r = sigma2_z * np.eye(m_k, dtype=complex)
    if cross is not None:
        r = r + expected_outer(posterior, k, n, cross)
    return hermitize(r)
