import numpy as np
import pytest

from robustprec.beam_domain import canonical_allocation
from robustprec.channel import (
    SPEED_OF_LIGHT,
    BeamProfile,
    UserStatistics,
    _dft_conj,
    _j0,
    crandn,
    dft_matrix,
    evolve_slot,
    generate_synthetic_stats,
    jakes_correlation,
    orthogonal_pilots,
    sample_channel,
    uplink_observation,
)
from robustprec.config import SystemConfig
from robustprec.errors import ConfigError
from robustprec.posterior import delta_profile, mmse_estimate

from helpers import (
    crandn_oracle,
    j0_series,
    make_instance,
    relerr,
    same_bits,
    small_cfg,
    traced_heap,
)


def test_dft_matrix_unitary_and_convention():
    for m in (1, 4, 7, 16):
        v = dft_matrix(m)
        assert np.allclose(v @ v.conj().T, np.eye(m), atol=1e-12)
        p, q = 2 % m, 3 % m
        want = np.exp(-2j * np.pi * p * q / m) / np.sqrt(m)
        assert abs(v[p, q] - want) < 1e-14
    with pytest.raises(ValueError):
        dft_matrix(8)[0, 0] = 0.0
    # the MMSE estimate is its formula written with the shared basis, bit
    # for bit
    cfg = small_cfg(m_t=8, m_k=(2, 1))
    rng = np.random.default_rng(5)
    stats = generate_synthetic_stats(cfg, BeamProfile(band_width=4), rng)
    y = crandn(rng, cfg.m_t, cfg.block_len)
    v = dft_matrix(cfg.m_t)
    for s, x in zip(stats, orthogonal_pilots(cfg.m_k, cfg.block_len)):
        despread = s.u.conj().T @ x.conj() @ y.T @ v
        delta = delta_profile(s.omega, cfg.uplink_noise)
        assert same_bits(mmse_estimate(y, x, s, cfg.uplink_noise),
                         s.u @ (delta * despread) @ v.conj().T)


def test_the_transmit_basis_and_its_conjugate_are_kept_once_per_size():
    for m in (1, 4, 7, 16):
        conj = _dft_conj(m)
        assert conj is _dft_conj(m) and not conj.flags.writeable
        assert same_bits(conj, dft_matrix(m).conj())
    # no model object carries its own copy: the beam-aligned precoders are
    # columns of the shared basis, bit for bit
    cfg = small_cfg(m_t=8, m_k=(2, 1))
    stats, _, _, _ = make_instance(cfg, np.random.default_rng(3))
    alloc = canonical_allocation(stats, cfg)
    for k, p in enumerate(alloc.precoders):
        assert same_bits(p, dft_matrix(cfg.m_t)[:, alloc.active_beams(k)]
                         * alloc.gains[k])


def test_jakes_against_series_oracle():
    # frozen from the series oracle: v=30 m/s, f_c=2 GHz, T=0.5 ms
    x = 2 * np.pi * 30.0 * 2e9 * 0.5e-3 / SPEED_OF_LIGHT
    want = j0_series(x)
    got = jakes_correlation(30.0, 2e9, 0.5e-3)
    assert abs(got - want) < 1e-12
    assert abs(got - 0.9035825833812838) < 1e-12

    # static user: alpha = 1 exactly
    assert jakes_correlation(0.0, 2e9, 0.5e-3) == 1.0

    # argument at (rounded) first Bessel zero: raw J0 < 0, clamps to 0
    v_zero = 2.404826 * SPEED_OF_LIGHT / (2 * np.pi * 1.0 * 1.0)
    assert jakes_correlation(v_zero, 1.0, 1.0) == 0.0


# scipy.special.j0 at each x, computed once: the package has no scipy
J0_REFERENCE = [
    (0.0, 1.0),
    (0.5, 0.938469807240813),
    (2.404825557695773, -9.586882554916807e-17),
    (5.0, -0.1775967713143383),
    (12.3, 0.11079795030758527),
    (29.9, -0.09781115006606259),
    (30.0, -0.08636798358104031),
    (30.1, -0.0741013723240187),
    (75.5, 0.07109506027151384),
    (1234.5, -0.013550379618034219),
    (98765.4321, 0.0018694734249206722),
]


@pytest.mark.parametrize("x, want", J0_REFERENCE)
def test_j0_matches_reference_values(x, want):
    # both sides of the switch from the quadrature to Hankel's series at 30
    assert abs(_j0(x) - want) <= 1e-14


def test_jakes_rejects_bad_arguments():
    with pytest.raises(ConfigError):
        jakes_correlation(1.0, 0.0, 1.0)
    with pytest.raises(ConfigError):
        jakes_correlation(-1.0, 1e9, 1e-3)
    # a NaN passes every comparison guard and J0(inf) is NaN
    for args in [(np.nan, 2e9, 0.5e-3), (30.0, np.nan, 0.5e-3),
                 (30.0, 2e9, np.inf)]:
        with pytest.raises(ConfigError):
            jakes_correlation(*args)


def test_jakes_with_an_overflowing_argument_is_a_config_error():
    # finite arguments whose product 2 pi v f_c T / c is not finite
    with pytest.raises(ConfigError, match="overflows"):
        jakes_correlation(1e200, 1e200, 1.0)


def test_user_statistics_validation():
    rng = np.random.default_rng(0)
    u = np.linalg.qr(crandn(rng, 2, 2))[0]
    UserStatistics(u=u, amp=np.ones((2, 4)), alpha=0.5)
    with pytest.raises(ConfigError):
        UserStatistics(u=2 * u, amp=np.ones((2, 4)), alpha=0.5)
    with pytest.raises(ConfigError):
        UserStatistics(u=u, amp=-np.ones((2, 4)), alpha=0.5)
    with pytest.raises(ConfigError):
        UserStatistics(u=u, amp=np.ones((2, 4)), alpha=1.5)
    for bad in (np.nan, np.inf):
        with pytest.raises(ConfigError, match="finite"):
            UserStatistics(u=u, amp=np.full((2, 4), bad), alpha=0.5)
    # mask squares exactly to the profile
    s = UserStatistics.from_profile(u, rng.random((2, 4)), 0.3)
    assert np.array_equal(s.omega, s.amp * s.amp)


def test_synthetic_stats_uniform_degenerate_case():
    cfg = small_cfg(m_t=8, m_k=(2, 3))
    profile = BeamProfile(band_width=8, lognorm_sigma=0.0, decay=0.0, alphas=1.0)
    stats = generate_synthetic_stats(cfg, profile, np.random.default_rng(1))
    for s in stats:
        assert np.allclose(s.omega, 1.0, atol=1e-12)


def test_synthetic_stats_normalization_and_bands():
    cfg = small_cfg(m_t=16, m_k=(2, 2, 1))
    profile = BeamProfile(band_width=(4, 6, 3), centers=(0, 8, 12),
                          lognorm_sigma=0.5, decay=0.2, alphas=(0.9, 0.5, 1.0))
    stats = generate_synthetic_stats(cfg, profile, np.random.default_rng(2))
    for s, w in zip(stats, (4, 6, 3)):
        total = s.omega.sum()
        assert abs(total - s.m_k * s.m_t) < 1e-9 * total
        active = np.any(s.omega > 0, axis=0)
        assert active.sum() == w
    # disjoint bands stay disjoint
    assert not np.any(np.any(stats[0].omega > 0, axis=0) & np.any(stats[1].omega > 0, axis=0))


def test_synthetic_stats_band_width_error():
    cfg = small_cfg(m_t=8, m_k=(2,))
    with pytest.raises(ConfigError):
        generate_synthetic_stats(cfg, BeamProfile(band_width=9), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        generate_synthetic_stats(cfg, BeamProfile(band_width=0), np.random.default_rng(0))


@pytest.mark.filterwarnings("error")
def test_synthetic_stats_reject_a_profile_that_overflows():
    # exp(lognorm_sigma * z) overflows once lognorm_sigma * z > 709.8, and
    # the normalization then turns the profile into NaN; the ConfigError
    # alone reports it, with no numpy warning before it
    cfg = small_cfg(m_t=8, m_k=(2, 2))
    with pytest.raises(ConfigError, match="lognorm_sigma = 1000.0 .* user 1"):
        generate_synthetic_stats(cfg, BeamProfile(
            band_width=4, lognorm_sigma=1000.0), np.random.default_rng(1))


def test_synthetic_stats_deterministic_under_seed():
    cfg = small_cfg(m_t=8, m_k=(2, 2))
    profile = BeamProfile(band_width=4, lognorm_sigma=0.3, alphas=0.7)
    a = generate_synthetic_stats(cfg, profile, np.random.default_rng(42))
    b = generate_synthetic_stats(cfg, profile, np.random.default_rng(42))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.u, sb.u)
        assert np.array_equal(sa.amp, sb.amp)


def test_sample_channel_covariance_matches_kronecker_form():
    # cov(vec(H^T)) = (u kron v*) diag(vec(omega^T)) (u kron v*)^H
    rng = np.random.default_rng(3)
    cfg = small_cfg(m_t=8, m_k=(2,))
    profile = BeamProfile(band_width=5, lognorm_sigma=0.4, alphas=1.0)
    s = generate_synthetic_stats(cfg, profile, rng)[0]
    v = dft_matrix(cfg.m_t)
    n = 100_000
    w = crandn(rng, n, s.m_k, cfg.m_t)
    h = np.einsum("ab,sbt,ct->sac", s.u, s.amp * w, v.conj())
    flat = h.reshape(n, -1)  # row-major flatten == vec(H^T)
    emp = flat.T @ flat.conj() / n
    kron = np.kron(s.u, v.conj())
    want = (kron * s.omega.ravel()) @ kron.conj().T
    assert relerr(emp, want) < 0.03


def test_evolve_slot_static_and_memoryless():
    rng = np.random.default_rng(4)
    cfg = small_cfg(m_t=8, m_k=(2,))
    s1 = generate_synthetic_stats(cfg, BeamProfile(band_width=4, alphas=1.0), rng)[0]
    blocks = evolve_slot(s1, 4, rng)
    for b in blocks[1:]:
        assert np.array_equal(b, blocks[0])

    s0 = generate_synthetic_stats(cfg, BeamProfile(band_width=4, alphas=0.0), rng)[0]
    blocks = evolve_slot(s0, 3, rng)
    assert not np.allclose(blocks[0], blocks[1])


def test_evolve_slot_correlation_matches_alpha():
    rng = np.random.default_rng(5)
    alpha = 0.8
    cfg = small_cfg(m_t=8, m_k=(2,))
    s = generate_synthetic_stats(cfg, BeamProfile(band_width=8, lognorm_sigma=0.2,
                                                  alphas=alpha), rng)[0]
    n = 20_000
    num = den = 0.0
    for _ in range(n):
        b = evolve_slot(s, 2, rng)
        num += np.sum(b[1] * b[0].conj()).real
        den += np.sum(np.abs(b[0]) ** 2)
    assert abs(num / den - alpha) < 0.02


def test_orthogonal_pilots_properties():
    pilots = orthogonal_pilots((2, 3, 1), 8)
    for k, x in enumerate(pilots):
        assert np.allclose(x @ x.conj().T, np.eye(x.shape[0]), atol=1e-12)
        for l, x2 in enumerate(pilots):
            if l != k:
                assert np.max(np.abs(x @ x2.conj().T)) < 1e-12
    with pytest.raises(ConfigError):
        orthogonal_pilots((4, 5), 8)


@pytest.mark.parametrize("m, m_list", [(4, (4,)), (7, (2, 1)), (64, (8,)),
                                       (257, (5, 7)), (1000, (40,))])
def test_orthogonal_pilots_are_the_dft_rows_bit_for_bit(m, m_list):
    rows = dft_matrix(m)[:sum(m_list)]
    assert same_bits(np.vstack(orthogonal_pilots(m_list, m)), rows)


def test_orthogonal_pilots_build_only_the_rows_they_hand_out():
    # a 2003-point DFT matrix alone is 64 MB; no other test uses this length
    with traced_heap() as heap:
        orthogonal_pilots((2, 2), 2003)
        peak = heap()[1]
    assert peak < 1_000_000


def test_uplink_observation_noiseless_despread():
    rng = np.random.default_rng(8)
    cfg = small_cfg(m_t=8, m_k=(3,))
    s = generate_synthetic_stats(cfg, BeamProfile(band_width=8), rng)[0]
    h = sample_channel(s, rng)
    (x,) = orthogonal_pilots(cfg.m_k, cfg.block_len)
    y = uplink_observation([h], [x], 0.0, rng)
    assert np.allclose(y @ x.conj().T, h.T, atol=1e-12)


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        SystemConfig(m_t=0, m_k=(1,))
    with pytest.raises(ConfigError):
        SystemConfig(m_t=4, m_k=(2,), d_k=(3,))
    with pytest.raises(ConfigError):
        SystemConfig(m_t=4, m_k=(2, 2), block_len=3)
    with pytest.raises(ConfigError):
        SystemConfig(m_t=4, m_k=(2,), sigma2_z=0.0)
    with pytest.raises(ConfigError):
        SystemConfig(m_t=4, m_k=(2,), weights=(1.0, 2.0))
    cfg = SystemConfig(m_t=4, m_k=(2, 1))
    assert cfg.d_k == (2, 1)
    assert cfg.block_len == 3
    assert cfg.weights == (1.0, 1.0)
    assert cfg.uplink_noise == cfg.sigma2_z


@pytest.mark.parametrize("shape", [(5,), (3, 4), (600, 2, 16)])
def test_crandn_keeps_the_complex_expressions_bits(shape):
    got = crandn(np.random.default_rng(11), *shape)
    assert same_bits(got, crandn_oracle(np.random.default_rng(11), *shape))
