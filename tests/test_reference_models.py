"""Hydrogen bound-state currents and the scaling-model zoo."""
import math

import numpy as np
import pytest

from abtool.models import (HydrogenState, box_energy,
                           half_harmonic_energy, hydrogen_fields,
                           hydrogen_radial_parts, hydrogen_theta_parts,
                           linear_airy_model, mass_scaling_fit)
from abtool.numerics import integrate_1d
from oracles import hydrogen_grad_rho

# first negative Airy zero from an independent bisection oracle
Z1 = -2.338107410459767


def hydrogen_rho(state, r, theta):
    """rho = R^2 Theta^2 / (2 pi) from the radial and angular factors."""
    rr = hydrogen_radial_parts(state, r)[0]
    th = hydrogen_theta_parts(state, theta)[0]
    return rr * rr * th * th / (2.0 * math.pi)


def all_states(n_max):
    for n in range(1, n_max + 1):
        for l in range(n):
            for m_l in range(-l, l + 1):
                yield HydrogenState(n, l, m_l)


class TestHydrogenState:
    def test_validation(self):
        with pytest.raises(ValueError):
            HydrogenState(1, 1, 0)
        with pytest.raises(ValueError):
            HydrogenState(2, 1, 2)
        with pytest.raises(ValueError):
            HydrogenState(0, 0, 0)

    def test_ground_radial_closed_form(self):
        st = HydrogenState(1, 0, 0)
        rs = np.linspace(0.1, 5.0, 9)
        assert np.allclose(hydrogen_radial_parts(st, rs)[0], 2.0 * np.exp(-rs),
                           rtol=1e-12)

    def test_radial_normalization_by_quadrature(self):
        for st in all_states(3):
            val = integrate_1d(lambda r: hydrogen_radial_parts(st, r)[0] ** 2 * r ** 2,
                               0.0, 80.0)
            assert val == pytest.approx(1.0, abs=1e-8), (st.n, st.l)

    def test_theta_normalization_by_quadrature(self):
        for st in all_states(3):
            val = integrate_1d(
                lambda th: hydrogen_theta_parts(st, th)[0] ** 2 * np.sin(th),
                0.0, math.pi)
            assert val == pytest.approx(1.0, abs=1e-10), (st.n, st.l, st.m_l)

    def test_full_density_normalization(self):
        for st in all_states(3):
            def radial_part(r):
                return hydrogen_radial_parts(st, r)[0] ** 2 * r ** 2

            def angular_part(th):
                return hydrogen_theta_parts(st, th)[0] ** 2 * np.sin(th)

            total = (integrate_1d(radial_part, 0.0, 80.0)
                     * integrate_1d(angular_part, 0.0, math.pi))
            # the azimuthal factor 1/(2 pi) times 2 pi cancels exactly
            assert total == pytest.approx(1.0, abs=1e-8)


class TestHydrogenFields:
    def test_spherically_symmetric_state(self):
        st = HydrogenState(1, 0, 0)
        f = hydrogen_fields(st, 1.5, 1.0)
        assert np.all(f["J"] == 0.0)
        assert f["D"][1] == pytest.approx(0.0, abs=1e-15)   # no theta part
        assert f["D"][0] != 0.0

    def test_orthogonality_reference_point(self):
        st = HydrogenState(2, 1, 1)
        f = hydrogen_fields(st, 2.0, math.pi / 2.0)
        assert abs(np.dot(f["J"], f["D"])) <= 1e-12

    def test_orthogonality_random_points(self):
        rng = np.random.default_rng(12)
        for st in all_states(3):
            r = 0.2 + 14.0 * rng.random(1000)
            th = 0.1 + (math.pi - 0.2) * rng.random(1000)
            f = hydrogen_fields(st, r, th)
            assert np.abs(np.sum(f["J"] * f["D"], axis=-1)).max() <= 1e-12

    def test_eta_quantization(self):
        st = HydrogenState(2, 1, 1)
        rng = np.random.default_rng(5)
        r = 0.5 + 9.0 * rng.random(50)
        th = 0.2 + (math.pi - 0.4) * rng.random(50)
        f = hydrogen_fields(st, r, th)
        eta = f["J"][..., 2] / hydrogen_rho(st, r, th)   # the current velocity
        assert np.abs(eta * r * np.sin(th) - st.m_l).max() <= 1e-12   # M / hbar = 1

    def test_printed_diffusion_current_equals_density_gradient(self):
        rng = np.random.default_rng(9)
        for st in all_states(3):
            r = 0.4 + 10.0 * rng.random(200)
            th = 0.2 + (math.pi - 0.4) * rng.random(200)
            d_printed = hydrogen_fields(st, r, th)["D"]
            d_gradient = -0.5 * hydrogen_grad_rho(st, r, th)   # -hbar / 2M
            scale = np.abs(d_printed).max()
            assert np.abs(d_printed - d_gradient).max() <= 1e-10 * scale

    def test_density_gradient_against_fd(self):
        st = HydrogenState(3, 2, 1)
        r0, th0 = 3.1, 1.2
        grad = hydrogen_grad_rho(st, r0, th0)
        h = 1e-5
        rho = lambda r, th: hydrogen_rho(st, r, th)
        dr = (rho(r0 + h, th0) - rho(r0 - h, th0)) / (2 * h)
        dth = (rho(r0, th0 + h) - rho(r0, th0 - h)) / (2 * h) / r0
        assert grad[0] == pytest.approx(dr, rel=1e-8)
        assert grad[1] == pytest.approx(dth, rel=1e-8)

    def test_polar_axis_guard(self):
        st = HydrogenState(2, 1, 1)
        with pytest.raises(ValueError):
            hydrogen_fields(st, 1.0, 0.0)
        # m_l = 0 states are fine on the axis
        f = hydrogen_fields(HydrogenState(2, 1, 0), 1.0, 0.0)
        assert np.all(np.isfinite(f["J"])) and np.all(np.isfinite(f["D"]))


class TestLinearAiryModel:
    def test_energy_in_reduced_units(self):
        # hbar = k = 1, m = 1/2 collapses the energy scale to -z_n
        out = linear_airy_model(m=0.5, n=1)
        assert out["E_n"] == pytest.approx(-Z1, abs=1e-10)

    def test_wall_node(self):
        out = linear_airy_model(m=0.5, n=1)
        assert out["rho"](0.0) <= 1e-20

    def test_normalization_within_two_percent(self):
        out = linear_airy_model(m=0.5, n=1)
        val = integrate_1d(out["rho"], 0.0, 20.0)
        assert abs(val - 1.0) <= 0.02
        # the asymptotic normalization sharpens with n
        out5 = linear_airy_model(m=0.5, n=5)
        val5 = integrate_1d(out5["rho"], 0.0, 30.0)
        assert abs(val5 - 1.0) < abs(val - 1.0)

    def test_monotone_decay_past_last_oscillation(self):
        out = linear_airy_model(m=0.5, n=1)
        xs = np.linspace(-Z1 + 0.5, -Z1 + 6.0, 50)
        vals = out["rho"](xs)
        assert np.all(np.diff(vals) < 0.0)

    def test_domain(self):
        out = linear_airy_model(m=0.5, n=1)
        with pytest.raises(ValueError):
            out["rho"](-0.5)
        with pytest.raises(ValueError):
            linear_airy_model(1.0, 0)


class TestClosedFormLevels:
    def test_half_harmonic_ground(self):
        assert half_harmonic_energy(1.0, 0) == 1.5

    def test_box_level(self):
        assert box_energy(1.0, 2) == pytest.approx(2.0 * math.pi ** 2,
                                                        rel=1e-15)

    def test_box_ratios(self):
        e1 = box_energy(1.0, 1)
        for n in (2, 3, 5):
            assert box_energy(1.0, n) / e1 == pytest.approx(n ** 2,
                                                                 rel=1e-14)

    def test_level_validation(self):
        with pytest.raises(ValueError):
            half_harmonic_energy(1.0, -1)
        with pytest.raises(ValueError):
            box_energy(1.0, 0)


class TestMassScaling:
    def test_exponents(self):
        masses = [1.0, 2.0, 4.0, 8.0]
        assert mass_scaling_fit("linear_airy", 1, masses) == pytest.approx(
            -1.0 / 3.0, abs=1e-10)
        assert mass_scaling_fit("half_harmonic", 1, masses) == pytest.approx(
            -0.5, abs=1e-10)
        assert mass_scaling_fit("box", 1, masses) == pytest.approx(
            -1.0, abs=1e-10)

    def test_exponents_level_independent(self):
        masses = [0.5, 1.7, 3.0, 11.0]
        for n in (1, 3):
            assert mass_scaling_fit("box", n, masses) == pytest.approx(
                -1.0, abs=1e-10)

    def test_degenerate_masses_rejected(self):
        with pytest.raises(ValueError):
            mass_scaling_fit("box", 1, [1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            mass_scaling_fit("box", 1, [1.0, 2.0])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind 'quartic'"):
            mass_scaling_fit("quartic", 1, [1.0, 2.0, 4.0])
