import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from robustprec.channel import BeamProfile, crandn, dft_matrix, generate_synthetic_stats
from robustprec.operators import (
    OperatorKernel,
    basis_diag,
    expected_gram,
    hermitize,
    interference_covariance,
    mean_quadratic_rx,
    mean_quadratic_tx,
    tx_gain_diag,
)

from helpers import (
    hermitize_oracle,
    make_instance,
    mean_quadratic_tx_oracle,
    rand_hermitian,
    rand_hermitian_psd,
    random_precoder_set,
    relerr,
    same_bits,
    small_cfg,
)


def _kernel(rng, m_k=2, m_t=8, band=6):
    cfg = small_cfg(m_t=m_t, m_k=(m_k,))
    s = generate_synthetic_stats(
        cfg, BeamProfile(band_width=band, lognorm_sigma=0.4, alphas=1.0), rng)[0]
    return OperatorKernel(s.u, s.omega), s


def _draws(kernel, rng, n):
    w = crandn(rng, n, kernel.m_k, kernel.m_t)
    return np.einsum("ab,sbt,ct->sac", kernel.u, np.sqrt(kernel.var_profile) * w,
                     dft_matrix(kernel.m_t).conj())


def test_basis_diag_matches_full_product():
    rng = np.random.default_rng(0)
    v = dft_matrix(8)
    c = rand_hermitian_psd(rng, 8)
    want = np.diag(v.conj().T @ c @ v)
    assert np.allclose(basis_diag(v, c), want, atol=1e-12)


_entries = st.complex_numbers(max_magnitude=1e6, allow_nan=False,
                              allow_infinity=False)
_pairs = st.integers(1, 5).flatmap(
    lambda m: st.tuples(*[arrays(np.complex128, (m, m), elements=_entries)] * 2))
_weights = st.floats(-1e3, 1e3, allow_nan=False)


@settings(deadline=None, derandomize=True)
@given(pair=_pairs, w=st.tuples(_weights, _weights))
def test_hermitize_symmetrizes_exactly(pair, w):
    a, b = pair
    h = hermitize(a)
    assert np.array_equal(h, h.conj().T)  # exactly Hermitian
    skew = a - h  # what was removed is the skew-Hermitian part
    assert np.allclose(skew, -skew.conj().T)
    assert hermitize(h).tobytes() == h.tobytes()  # bitwise idempotent
    # real-weighted sums of its outputs are already Hermitian, value for
    # value (== treats the signed zeros of the complex products alike)
    s = w[0] * h + w[1] * hermitize(b)
    assert np.array_equal(hermitize(s), s)


# the in-place sum adds C^H + C where the expression adds C + C^H; IEEE
# addition commutes, so the bits and the C layout must be the expression's
@pytest.mark.parametrize("m", [2, 32, 128])
@pytest.mark.parametrize("hermitian", [False, True])
def test_hermitize_has_the_expressions_bits(m, hermitian):
    rng = np.random.default_rng(m)
    c = rand_hermitian(rng, m) if hermitian else crandn(rng, m, m)
    for layout in (c, np.asfortranarray(c)):
        got = hermitize(layout)
        assert got.flags.c_contiguous
        assert same_bits(got, hermitize_oracle(layout))


def test_mean_quadratic_operators_match_monte_carlo():
    rng = np.random.default_rng(2)
    kern, _ = _kernel(rng)
    c_tx = rand_hermitian_psd(rng, kern.m_t)
    c_rx = rand_hermitian_psd(rng, kern.m_k)
    h = _draws(kern, rng, 100_000)
    mc_rx = np.einsum("sab,bc,sdc->ad", h, c_tx, h.conj()) / h.shape[0]
    mc_tx = np.einsum("sba,bc,scd->ad", h.conj(), c_rx, h) / h.shape[0]
    assert relerr(mean_quadratic_rx(kern, c_tx), mc_rx) < 0.02
    assert relerr(mean_quadratic_tx(kern, c_rx), mc_tx) < 0.02


def test_operator_outputs_diagonal_in_their_bases():
    rng = np.random.default_rng(3)
    kern, _ = _kernel(rng)
    c_tx = rand_hermitian_psd(rng, kern.m_t)
    out = mean_quadratic_rx(kern, c_tx)
    back = kern.u.conj().T @ out @ kern.u
    assert np.max(np.abs(back - np.diag(np.diag(back)))) < 1e-12
    assert np.all(np.diag(back).real >= -1e-12)
    c_rx = rand_hermitian_psd(rng, kern.m_k)
    out = mean_quadratic_tx(kern, c_rx)
    v = dft_matrix(kern.m_t)
    back = v.conj().T @ out @ v
    assert np.max(np.abs(back - np.diag(np.diag(back)))) < 1e-12


# mean_quadratic_tx runs the dense product at every size, odd ones
# included, with the oracle's bits
@pytest.mark.parametrize("m_t", [8, 63, 64, 65, 128])
def test_operators_match_the_dense_products(m_t):
    rng = np.random.default_rng(m_t)
    kern, _ = _kernel(rng, m_k=3, m_t=m_t, band=min(16, m_t))
    c_rx = rand_hermitian_psd(rng, kern.m_k)
    mq = mean_quadratic_tx(kern, c_rx)
    assert same_bits(mq, mean_quadratic_tx_oracle(kern, c_rx))
    assert np.max(np.abs(mq - mq.conj().T)) <= 1e-14 * np.max(np.abs(mq))


# the identities below hold at a small size and at an odd one past 64
_SIZES = (8, 65)


def test_identity_input_gives_profile_sums():
    rng = np.random.default_rng(4)
    for m_t in _SIZES:
        kern, s = _kernel(rng, m_t=m_t)
        rx = mean_quadratic_rx(kern, np.eye(m_t))
        assert np.allclose(basis_diag(kern.u, rx).real, s.omega.sum(axis=1))
        assert np.allclose(tx_gain_diag(kern, np.eye(kern.m_k)), s.omega.sum(axis=0))


def test_operators_are_linear():
    rng = np.random.default_rng(5)
    for m_t in _SIZES:
        kern, _ = _kernel(rng, m_t=m_t)
        for op, m in ((mean_quadratic_rx, m_t), (mean_quadratic_tx, kern.m_k)):
            a = rand_hermitian_psd(rng, m)
            b = rand_hermitian_psd(rng, m)
            lhs = op(kern, 2.0 * a + 3.0 * b)
            rhs = 2.0 * op(kern, a) + 3.0 * op(kern, b)
            assert np.allclose(lhs, rhs, atol=1e-12)


def test_adjoint_trace_identity():
    # tr(A E[H C H^H]) == tr(E[H^H A H] C) for 100 random Hermitian pairs
    rng = np.random.default_rng(6)
    for m_t in _SIZES:
        kern, _ = _kernel(rng, m_k=3, m_t=m_t)
        worst = 0.0
        for _ in range(100):
            a = rand_hermitian_psd(rng, kern.m_k)
            c = rand_hermitian_psd(rng, m_t)
            lhs = np.trace(a @ mean_quadratic_rx(kern, c)).real
            rhs = np.trace(mean_quadratic_tx(kern, a) @ c).real
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
        assert worst < 1e-10


def test_zero_profile_gives_zero_operator():
    rng = np.random.default_rng(7)
    for m_t in _SIZES:
        kern, _ = _kernel(rng, m_t=m_t)
        kern0 = OperatorKernel(kern.u, np.zeros_like(kern.var_profile))
        assert np.all(mean_quadratic_rx(kern0, rand_hermitian_psd(rng, m_t)) == 0)
        assert np.all(mean_quadratic_tx(kern0, rand_hermitian_psd(rng, kern.m_k)) == 0)


def test_expected_gram_matches_monte_carlo():
    rng = np.random.default_rng(8)
    cfg = small_cfg(m_t=8, m_k=(2, 2), n_b=3, sigma2_z=0.2)
    _, _, _, post = make_instance(cfg, rng, alphas=0.8)
    c_rx = rand_hermitian_psd(rng, 2)
    n = 100_000
    draws = post.sample(0, 2, rng, size=n)
    mc_gram = np.einsum("sba,bc,scd->ad", draws.conj(), c_rx, draws) / n
    assert relerr(expected_gram(post, 0, 2, c_rx), mc_gram) < 0.02


def test_interference_covariance_matches_monte_carlo():
    rng = np.random.default_rng(9)
    cfg = small_cfg(m_t=8, m_k=(2, 2, 2), n_b=3, sigma2_z=0.3)
    _, _, _, post = make_instance(cfg, rng, alphas=0.9)
    precoders = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    k, n = 1, 2
    r = interference_covariance(post, precoders, k, n, cfg.sigma2_z)
    n_mc = 100_000
    draws = post.sample(k, n, rng, size=n_mc)
    acc = cfg.sigma2_z * np.eye(2, dtype=complex)
    for l, p in enumerate(precoders):
        if l == k:
            continue
        hp = draws @ p
        acc = acc + np.einsum("sab,scb->ac", hp, hp.conj()) / n_mc
    assert relerr(r, acc) < 0.02
    # single-user case: pure noise
    r1 = interference_covariance(post, precoders[:1], 0, n, cfg.sigma2_z)
    assert np.allclose(r1, cfg.sigma2_z * np.eye(2), atol=1e-14)


def test_interference_covariance_zero_variance_reduces_to_means():
    rng = np.random.default_rng(10)
    cfg = small_cfg(m_t=8, m_k=(2, 2), n_b=2, sigma2_z=0.5)
    stats, slot, pilots, _ = make_instance(cfg, rng, alphas=1.0)
    from robustprec.channel import uplink_observation
    from robustprec.posterior import build_posterior

    # rebuild with noiseless pilots so the posterior variance is exactly zero
    y = uplink_observation([b[0] for b in slot], pilots, 0.0, rng)
    post0 = build_posterior(y, pilots, stats, 0.0)
    precoders = random_precoder_set(rng, cfg.m_t, cfg.d_k, cfg.p_total)
    r = interference_covariance(post0, precoders, 0, 2, cfg.sigma2_z)
    h = post0.mean(0, 2)
    want = cfg.sigma2_z * np.eye(2) + (h @ precoders[1]) @ (h @ precoders[1]).conj().T
    assert relerr(r, want) < 1e-10
