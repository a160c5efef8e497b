import numpy as np
import pytest

from robustprec.channel import (
    BeamProfile,
    UserStatistics,
    dft_matrix,
    draw_slot,
    generate_synthetic_stats,
    orthogonal_pilots,
    uplink_observation,
)
from robustprec.errors import ConfigError
from robustprec.posterior import (
    build_posterior,
    delta_profile,
    mmse_estimate,
    xi2_profile,
)

from helpers import (
    make_instance,
    relerr,
    same_bits,
    sample_oracle,
    small_cfg,
    zero_mean_posterior,
)


def test_delta_profile_values_and_limits():
    omega = np.array([[1.0, 0.0], [4.0, 0.25]])
    d = delta_profile(omega, 1.0)
    assert np.allclose(d, [[0.5, 0.0], [0.8, 0.2]])
    # noiseless limit: 1 on the support, 0 elsewhere (0/0 -> 0)
    d0 = delta_profile(omega, 0.0)
    assert np.array_equal(d0, np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_xi2_conservation_identity_exact():
    # xi2 + alpha^(2(n-1)) * delta * omega == omega, down to float identity
    rng = np.random.default_rng(0)
    for sigma2 in (0.0, 0.3, 2.0):
        for alpha in (0.0, 0.37, 0.9, 1.0):
            omega = rng.random((3, 8)) * 4
            omega[0, :3] = 0.0
            for n in (1, 2, 5):
                xi2 = xi2_profile(omega, alpha, sigma2, n)
                recon = xi2 + alpha ** (2 * (n - 1)) * delta_profile(omega, sigma2) * omega
                assert np.max(np.abs(recon - omega)) < 1e-12
                assert np.all(xi2 >= 0)


def test_xi2_perfect_csi_vanishes():
    omega = np.random.default_rng(1).random((2, 6))
    for n in (1, 2, 7):
        assert np.max(xi2_profile(omega, 1.0, 0.0, n)) == 0.0


def test_xi2_rejects_bad_block():
    with pytest.raises(ConfigError):
        xi2_profile(np.ones((1, 2)), 0.5, 0.1, 0)


def test_mmse_estimate_noiseless_static_recovers_truth():
    rng = np.random.default_rng(2)
    cfg = small_cfg(m_t=8, m_k=(2, 3), n_b=4, sigma2_z=0.5)
    stats, slot, pilots, _ = make_instance(cfg, rng, alphas=1.0)
    y = uplink_observation([b[0] for b in slot], pilots, 0.0, rng)
    for k, s in enumerate(stats):
        for n in (1, 3):
            est = s.alpha ** (n - 1) * mmse_estimate(y, pilots[k], s, 0.0)
            assert np.allclose(est, slot[k][0], atol=1e-10)


def test_build_posterior_mean_shrinks_with_alpha():
    rng = np.random.default_rng(3)
    cfg = small_cfg(m_t=8, m_k=(2,), n_b=5)
    stats, slot, pilots, post = make_instance(cfg, rng, alphas=0.8)
    base = post.mean(0, 1)
    for n in range(2, cfg.n_b + 1):
        assert np.allclose(post.mean(0, n), 0.8 ** (n - 1) * base, atol=1e-14)
    # variance grows with n for alpha < 1
    v2 = post.var_profile(0, 2)
    v5 = post.var_profile(0, 5)
    assert np.all(v5 >= v2 - 1e-15)


def test_estimation_error_second_moment_matches_xi2():
    # over many slots, the beam-domain entries of (H - mean) have variance xi2
    rng = np.random.default_rng(4)
    cfg = small_cfg(m_t=8, m_k=(2,), n_b=3, sigma2_z=0.2)
    profile = BeamProfile(band_width=6, lognorm_sigma=0.4, alphas=0.85)
    stats = generate_synthetic_stats(cfg, profile, rng)
    v = dft_matrix(cfg.m_t)
    pilots = orthogonal_pilots(cfg.m_k, cfg.block_len)
    s = stats[0]
    n_mc, n_block = 10_000, 3
    acc = np.zeros((s.m_k, cfg.m_t))
    for _ in range(n_mc):
        slot = draw_slot(stats, cfg.n_b, rng)
        y = uplink_observation([b[0] for b in slot], pilots, cfg.uplink_noise, rng)
        est = s.alpha ** (n_block - 1) * mmse_estimate(y, pilots[0], s,
                                                      cfg.uplink_noise)
        err = s.u.conj().T @ (slot[0][n_block - 1] - est) @ v
        acc += np.abs(err) ** 2
    acc /= n_mc
    want = xi2_profile(s.omega, s.alpha, cfg.uplink_noise, n_block)
    assert relerr(acc, want) < 0.03


def test_posterior_orthogonality_of_error_and_estimate():
    rng = np.random.default_rng(5)
    cfg = small_cfg(m_t=8, m_k=(2,), n_b=2)
    _, _, _, post = make_instance(cfg, rng, alphas=0.9)
    n_mc = 10_000
    mean = post.mean(0, 2)
    draws = post.sample(0, 2, rng, size=n_mc)
    err = draws - mean
    cross = np.einsum("sij,ij->s", err, mean.conj())
    se = np.std(cross.real) / np.sqrt(n_mc)
    assert abs(np.mean(cross.real)) < 3 * max(se, 1e-12)


def test_posterior_sample_covariance_matches_xi2_kronecker():
    rng = np.random.default_rng(6)
    cfg = small_cfg(m_t=8, m_k=(2,), n_b=2, sigma2_z=0.3)
    stats, _, _, post = make_instance(cfg, rng, alphas=0.7)
    s = stats[0]
    n = 100_000
    draws = post.sample(0, 2, rng, size=n) - post.mean(0, 2)
    flat = draws.reshape(n, -1)
    emp = flat.T @ flat.conj() / n
    kron = np.kron(s.u, s.v.conj())
    want = (kron * post.var_profile(0, 2).ravel()) @ kron.conj().T
    assert relerr(emp, want) < 0.03


def test_zero_mean_posterior_matches_prior_profile():
    rng = np.random.default_rng(7)
    cfg = small_cfg(m_t=8, m_k=(2, 2))
    profile = BeamProfile(band_width=5, lognorm_sigma=0.3, alphas=0.9)
    stats = generate_synthetic_stats(cfg, profile, rng)
    post = zero_mean_posterior(stats)
    for k, s in enumerate(stats):
        assert np.all(post.mean(k, 2) == 0)
        assert np.allclose(post.var_profile(k, 2), s.omega, atol=1e-14)


def test_build_posterior_rejects_mismatched_pilots():
    rng = np.random.default_rng(8)
    cfg = small_cfg(m_t=8, m_k=(2, 2))
    stats, slot, pilots, _ = make_instance(cfg, rng)
    y = uplink_observation([b[0] for b in slot], pilots, 0.1, rng)
    with pytest.raises(ConfigError):
        build_posterior(y, pilots[:1], stats, 0.1)


# m_k = 1 is the single-row stack that must stay a per-draw vector product
@pytest.mark.parametrize("m_k", [1, 2, 3])
def test_sample_keeps_the_stacked_expressions_bits(m_k):
    cfg = small_cfg(m_t=16, m_k=(m_k, m_k), n_b=3, sigma2_z=0.2)
    _, _, _, post = make_instance(cfg, np.random.default_rng(m_k),
                                     alphas=0.8)
    for k in range(cfg.n_users):
        for size in (256, 88, 256):
            got = post.sample(k, 3, np.random.default_rng(size), size)
            want = sample_oracle(post, k, 3, np.random.default_rng(size), size)
            assert got.flags.c_contiguous
            assert same_bits(got, want)


def test_sample_returns_a_new_array_every_call():
    cfg = small_cfg(m_t=8, m_k=(2,), n_b=2)
    _, _, _, post = make_instance(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    first = post.sample(0, 2, rng, 16)
    kept = first.copy()
    second = post.sample(0, 2, rng, 16)
    assert not np.shares_memory(first, second)
    assert same_bits(first, kept)


def test_assuming_matches_a_posterior_rebuilt_from_the_pilots():
    # the block-1 estimate does not read alpha, so re-reading the posterior
    # under an assumed alpha gives the bits of re-estimating under it
    rng = np.random.default_rng(9)
    cfg = small_cfg(m_t=8, m_k=(2, 3), n_b=4, sigma2_z=0.3)
    stats, slot, pilots, _ = make_instance(cfg, rng, alphas=0.9)
    y = uplink_observation([b[0] for b in slot], pilots, cfg.uplink_noise, rng)
    post = build_posterior(y, pilots, stats, cfg.uplink_noise)
    for alpha in (0.0, 0.5, 1.0):
        got = post.assuming(alpha)
        want = build_posterior(
            y, pilots, [UserStatistics.from_profile(s.u, s.omega, alpha)
                        for s in stats], cfg.uplink_noise)
        for k in range(cfg.n_users):
            for n in range(1, cfg.n_b + 1):
                assert same_bits(got.mean(k, n), want.mean(k, n))
                assert same_bits(got.var_profile(k, n),
                                 want.var_profile(k, n))
