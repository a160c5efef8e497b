"""Second-moment channel operators.

For a zero-mean channel remainder H~ = u (sqrt(s) o W) v^H with independent
beam-domain entries of variance s_ij, the conditional second moments

    E[H~ C H~^H]   (receive side)   and   E[H~^H C H~]   (transmit side)

are diagonal in the u / v bases with diagonals that are linear images of the
basis-domain diagonal of C through the variance profile.  These operators
carry all statistical-CSI terms in the rate expressions and solvers.

E[H~ C H~^H] depends on C only through its beam powers diag(v^H C v), for
C = p g p^H the row sums of (p~ g) o conj(p~) with p~ = v^H p.  Its one
owner, _beam_rx_moment, reads them so for the DE sweep, form 1, the
covariances (p the other users' precoders) and mean_quadratic_rx (p = I).

In beam coordinates E[H~^H C H~] is the diagonal tx_gain_diag, which the
MM step reads as it is; _beam_matrix forms v diag(g) v^H by the dense
product for mean_quadratic_tx and robust_rzf's load term.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _dft_conj, dft_matrix


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


def _to_beams(x):
    """v^H x, the rows of x in beam coordinates: v is symmetric, so v^H is
    its conjugate, which channel keeps."""
    return _dft_conj(x.shape[0]) @ x


def _beam_rx_moment(kernel, pt, g=None):
    """E[H~ C H~^H] for C = p g p^H (g = I when None) from pt = v^H p:
    u diag(var_profile @ power) u^H with the beam powers the row sums of
    (pt g) o conj(pt), which are >= 0 for PSD g, so the moment is PSD."""
    power = np.einsum("ij,ij->i", pt if g is None else pt @ g, pt.conj()).real
    return (kernel.u * (kernel.var_profile @ power)) @ kernel.u.conj().T


def tx_gain_diag(kernel, c_rx):
    """Transmit(beam)-basis diagonal of E[H~^H C H~] for the Hermitian
    part of m_k x m_k C."""
    d = basis_diag(kernel.u, hermitize(c_rx)).real
    return kernel.var_profile.T @ d


def mean_quadratic_rx(kernel, c_tx):
    """E[H~ C H~^H] for the Hermitian part of m_t x m_t C: m_k x m_k
    Hermitian, PSD for PSD C."""
    return _beam_rx_moment(kernel, _dft_conj(kernel.m_t), c_tx)


def _beam_matrix(g):
    """v diag(g) v^H for real g, a fresh array."""
    m_t = len(g)
    return (dft_matrix(m_t) * g) @ _dft_conj(m_t).T


def mean_quadratic_tx(kernel, c_rx):
    """E[H~^H C H~]: m_t x m_t Hermitian PSD for Hermitian PSD C."""
    return _beam_matrix(tx_gain_diag(kernel, c_rx))


def expected_gram(posterior, k, n, c_rx):
    """E[H^H C H] under the posterior: mean^H C mean plus the remainder term."""
    mean = posterior.mean(k, n)
    return mean.conj().T @ c_rx @ mean + mean_quadratic_tx(posterior.kernel(k, n), c_rx)


def _beam_gram(posterior, k, n, c_rx):
    """V^H E[H^H C H] V, expected_gram in beam coordinates: (M V)^H C (M V)
    for the posterior mean M, with tx_gain_diag(C) on the diagonal."""
    mh = _to_beams(posterior.mean(k, n).conj().T)  # (M V)^H, v symmetric
    out = mh @ c_rx @ mh.conj().T
    out[np.diag_indices(len(out))] += tx_gain_diag(posterior.kernel(k, n), c_rx)
    return out


def interference_covariance(posterior, precoders, k, n, sigma2_z):
    """Noise-plus-interference covariance seen by user k in block n.

    sigma2_z I plus E[H P P^H H^H] for P the other users' precoders side by
    side: (M P)(M P)^H for the posterior mean M, and the remainder from the
    beam powers of P.  Both terms are PSD by construction (the trace is at
    least m_k sigma2_z), and no m_t x m_t matrix is formed.
    """
    kern = posterior.kernel(k, n)
    r = sigma2_z * np.eye(kern.m_k, dtype=complex)
    others = [p for l, p in enumerate(precoders) if l != k]
    if others:
        p = np.concatenate(others, axis=1)
        mp = posterior.mean(k, n) @ p
        r = r + mp @ mp.conj().T + _beam_rx_moment(kern, _to_beams(p))
    return hermitize(r)
