"""Gaussian and Airy packets and the free plane wave, in natural units
(hbar = M = 1) with k0 = 1 (Gaussian, plane wave) and k = 1 (Airy)."""
import math

import numpy as np
import pytest

from abtool.madelung import Constants, decompose, quantum_force
from abtool.wavepackets import (AIRY_WINDOW, GaussianPacketConfig,
                                airy_fields, airy_force_probe_points,
                                airy_wavefield, free_particle_fields,
                                gaussian_consistency, gaussian_delta_gradient,
                                gaussian_fields)
from abtool.numerics import integrate_1d
from oracles import gaussian_wavefield


def fd(f, x, h=1e-6):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestGaussianConfig:
    def test_derived_quantities(self):
        cfg = GaussianPacketConfig(alpha=2.0)
        assert cfg.T == pytest.approx(4.0 / 2.0, rel=1e-15)
        assert cfg.epsilon(0.0) == 2.0
        # eps(T) = alpha sqrt(2)
        assert cfg.epsilon(cfg.T) == pytest.approx(2.0 * math.sqrt(2.0),
                                                   rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianPacketConfig(alpha=0.0)


class TestGaussianFields:
    def test_reference_point(self):
        # at t = 0 the co-moving coordinate x - t is x
        cfg = GaussianPacketConfig(alpha=1.0)
        f = gaussian_fields(cfg, 0.5, 0.0)
        assert f["rho"] == pytest.approx(math.sqrt(2.0 / math.pi)
                                         * math.exp(-0.5), rel=1e-14)
        assert f["xi"] == pytest.approx(1.0, rel=1e-14)
        assert f["F_Q"] == pytest.approx(2.0, rel=1e-14)

    def test_xi_against_fd_oracle(self):
        cfg = GaussianPacketConfig(alpha=1.3)
        t = 0.7
        x0 = 1.1

        def rho(x):
            return gaussian_fields(cfg, x, t)["rho"]

        expected = -0.5 * fd(rho, x0) / rho(x0)
        assert gaussian_fields(cfg, x0, t)["xi"] == pytest.approx(expected,
                                                                  rel=1e-8)

    def test_force_against_fd_oracle(self):
        cfg = GaussianPacketConfig(alpha=1.0)
        x0, t = 0.3, 0.0

        def sqrt_rho(x):
            return math.sqrt(gaussian_fields(cfg, x, t)["rho"])

        h = 3e-4
        def q_of(x):
            lap = (sqrt_rho(x + h) - 2 * sqrt_rho(x) + sqrt_rho(x - h)) / h ** 2
            return -0.5 * lap / sqrt_rho(x)

        oracle = -fd(q_of, x0, 3e-3)
        assert gaussian_fields(cfg, x0, t)["F_Q"] == pytest.approx(oracle,
                                                                   rel=1e-5)

    def test_packet_center(self):
        cfg = GaussianPacketConfig(alpha=1.0)
        t = 0.9
        f = gaussian_fields(cfg, t, t)      # the center moves at u0 = 1
        assert f["eta"] == pytest.approx(1.0, rel=1e-14)
        assert f["xi"] == 0.0
        assert f["F_Q"] == 0.0

    def test_normalization_at_several_times(self):
        cfg = GaussianPacketConfig(alpha=1.0)
        for t in (0.0, cfg.T, 5.0 * cfg.T):
            eps = float(cfg.epsilon(t))
            lo = t - 12.0 * eps
            hi = t + 12.0 * eps
            val = integrate_1d(lambda x: gaussian_fields(cfg, x, t)["rho"],
                               lo, hi)
            assert val == pytest.approx(1.0, abs=1e-10)

    def test_xi_linear_relation(self):
        # xi * eps^2 / 2 recovers the displacement exactly
        cfg = GaussianPacketConfig(alpha=0.8)
        t = 1.3
        xs = np.linspace(-3.0, 4.0, 41)
        f = gaussian_fields(cfg, xs, t)
        eps = cfg.epsilon(t)
        recon = f["xi"] * eps ** 2 / 2.0
        assert np.abs(recon - (xs - t)).max() <= 1e-12


class TestGaussianConsistency:
    def test_residuals_at_spreading_time(self):
        cfg = GaussianPacketConfig(alpha=1.0)
        eps = float(cfg.epsilon(cfg.T))
        grid = np.linspace(cfg.T - 4 * eps, cfg.T + 4 * eps, 200)
        res = gaussian_consistency(cfg, grid, cfg.T)
        assert res["continuity_residual"] <= 1e-6
        assert res["phase_relation_residual"] <= 1e-10
        assert res["decomposition_residual"] <= 1e-12

    def test_continuity_over_times(self):
        cfg = GaussianPacketConfig(alpha=1.0)
        for t in (cfg.T / 2.0, cfg.T, 3.0 * cfg.T):
            eps = float(cfg.epsilon(t))
            grid = np.linspace(t - 4 * eps, t + 4 * eps, 200)
            res = gaussian_consistency(cfg, grid, t)
            assert res["continuity_residual"] <= 1e-6

    def test_time_zero_rejected(self):
        cfg = GaussianPacketConfig()
        with pytest.raises(ValueError):
            gaussian_consistency(cfg, np.linspace(-1, 1, 10), 0.0)

    def test_delta_gradient_closed_form(self):
        cfg = GaussianPacketConfig(alpha=1.1)
        t, x0 = 0.8, 0.45

        def delta(x):
            return gaussian_fields(cfg, x, t)["delta"]

        assert gaussian_delta_gradient(cfg, x0, t) == pytest.approx(
            fd(delta, x0), rel=1e-8)


class TestGaussianWaveField:
    def test_density_matches_closed_form(self):
        cfg = GaussianPacketConfig(alpha=1.0)
        t = 0.6
        field = gaussian_wavefield(cfg, t)
        xs = np.linspace(-2.0, 3.0, 25)
        rho_field = field.density(xs[:, None])
        rho_closed = gaussian_fields(cfg, xs, t)["rho"]
        assert np.abs(rho_field - rho_closed).max() <= 1e-14

    def test_eta_from_decomposition_in_natural_units(self):
        cfg = GaussianPacketConfig(alpha=1.0)
        t = 0.6
        field = gaussian_wavefield(cfg, t)
        x0 = 0.9
        dec = decompose(field, None, Constants(), np.array([x0]))
        closed = gaussian_fields(cfg, x0, t)
        assert dec.eta[0] == pytest.approx(closed["eta"], rel=1e-12)
        assert dec.xi_real[0] == pytest.approx(closed["xi"], rel=1e-12)

    def test_spreading_ratio_doubles_late(self):
        cfg = GaussianPacketConfig(alpha=1.0)
        t = 2000.0 * cfg.T
        ratio = float(cfg.epsilon(2 * t) / cfg.epsilon(t))
        assert ratio == pytest.approx(2.0, abs=1e-5)


class TestAiry:
    def test_real_at_time_zero(self):
        assert airy_wavefield(0.0).amplitude(np.array([[0.5]]))[0].imag == 0.0
        assert airy_fields(np.array([0.5]), 0.0)["eta"][0] == 0.0

    def test_translation_identity(self):
        xs = np.linspace(*AIRY_WINDOW, 200)
        for t in (0.5, 1.2):
            shift = t ** 2 / 2.0
            rho_t = np.abs(airy_wavefield(t).amplitude(xs[:, None])) ** 2
            rho_0 = np.abs(airy_wavefield(0.0).amplitude(
                (xs - shift)[:, None])) ** 2
            assert np.abs(rho_t - rho_0).max() <= 1e-10

    def test_quantum_force_is_the_force_constant(self):
        # the force constant k = 1
        pts = airy_force_probe_points(0.7)
        f = airy_fields(pts, 0.7)
        assert np.abs(f["F_Q"] - 1.0).max() <= 1e-4

    def test_batched_force_matches_the_point_by_point_force(self):
        # airy_fields takes F_Q in one call on all points; one call per
        # point rounds |psi|^2 differently, and the stencils (second
        # difference at 5e-3, first at 5e-2) amplify a rounding unit of rho
        # by about 1e6, so the routes agree to a few 1e-10
        pts = airy_force_probe_points(0.7)
        field = airy_wavefield(0.7)
        single = [quantum_force(field, Constants(), np.array([x]))[0]
                  for x in pts]
        assert np.abs(airy_fields(pts, 0.7)["F_Q"] - single).max() <= 1e-9

    def test_eta_is_kt_over_m(self):
        # k = m = 1
        f = airy_fields(np.array([0.2]), 1.1)
        assert f["eta"][0] == pytest.approx(1.1, rel=1e-14)


class TestFreeParticle:
    def test_values(self):
        f = free_particle_fields(np.linspace(-1, 1, 5), 0.3)
        assert np.all(f["eta"] == 1.0)

    def test_gaussian_limit(self):
        # eta of a very wide packet approaches the free value pointwise
        cfg = GaussianPacketConfig(alpha=1e3)
        got = gaussian_fields(cfg, 0.3, 1.0)["eta"]
        free = free_particle_fields(0.3, 1.0)["eta"]
        assert abs(got - float(free)) <= 1e-4
