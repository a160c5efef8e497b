"""Second-moment channel operators.

For a zero-mean channel remainder H~ = u (sqrt(s) o W) v^H with independent
beam-domain entries of variance s_ij, the conditional second moments

    E[H~ C H~^H]   (receive side)   and   E[H~^H C H~]   (transmit side)

are diagonal in the u / v bases with diagonals that are linear images of the
basis-domain diagonal of C through the variance profile.  These operators
carry all statistical-CSI terms in the rate expressions and solvers.

v is the unitary DFT, so v diag(g) v^H is circulant and diag(v^H C v) is
the inverse FFT of C's wrapped-diagonal sums.  From m_t = _FFT_FROM (64)
on, mean_quadratic_tx and rx_gain_diag use those forms, which cost
O(m_t^2) where the dense products with v cost O(m_t^3).  Below it the
dense products are faster, and results there keep their bits.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .channel import _dft_conj, dft_matrix

_FFT_FROM = 64  # the smallest m_t whose v products run by FFT


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
    """Kernel (u, var_profile) of one user/block channel remainder.

    var_profile is the m_k x m_t matrix of beam-domain entry variances: the
    posterior profile for conditional moments, or the prior power profile for
    the statistical-CSI-only case.  The transmit basis is the one every user
    shares, dft_matrix(m_t), so the kernel does not carry it.
    """

    u: np.ndarray
    var_profile: np.ndarray

    @property
    def m_k(self):
        return self.var_profile.shape[0]

    @property
    def m_t(self):
        return self.var_profile.shape[1]


def _wrapped_sums(c):
    """s[δ] = sum of C[a, b] over a − b ≡ δ (mod m), for square m x m C."""
    m = c.shape[0]
    doubled = np.concatenate((c, c), axis=1)
    row, col = doubled.strides
    # row a of the view is C[a, a], C[a, a+1], ... wrapped: t[j] = s[−j]
    t = as_strided(doubled, shape=(m, m), strides=(row + col, col)).sum(axis=0)
    return np.concatenate((t[:1], t[:0:-1]))


def _circulant(f):
    """The m x m matrix with entry (a, b) equal to f[(a − b) mod m]."""
    m = len(f)
    rev = f[::-1]
    doubled = np.concatenate((rev, rev))  # doubled[j] = f[(−1 − j) mod m]
    step = doubled.strides[0]
    return as_strided(doubled[m - 1:], shape=(m, m), strides=(-step, step)).copy()


def rx_gain_diag(kernel, c_tx):
    """Receive-basis diagonal of E[H~ C H~^H] for the Hermitian part of
    m_t x m_t C."""
    m_t = kernel.m_t
    if m_t >= _FFT_FROM:
        # diag(v^H C v) is ifft(s); the Hermitian part's is its real part
        d = np.fft.ifft(_wrapped_sums(c_tx))
    else:
        d = np.einsum("ji,ji->i", _dft_conj(m_t), hermitize(c_tx) @ dft_matrix(m_t))
    return kernel.var_profile @ d.real


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
    m_t = kernel.m_t
    if m_t >= _FFT_FROM:
        return _circulant(np.fft.fft(g) / m_t)
    return (dft_matrix(m_t) * g) @ _dft_conj(m_t).T


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
