"""Velocity-field decomposition, quasi-currents, quantum potential/force,
gauge transforms, loop integrals and the annulus domain."""
import math

import numpy as np
import pytest

from abtool.annulus import (AnnulusConfig, eigenstate, energy_decomposition,
                            solenoid_potential)
from abtool.madelung import (RHO_FLOOR, AnnulusDomain, Constants,
                             DensityFloorError, WaveField, circulation,
                             decompose, gauge_transform, quantum_force,
                             quantum_potential)
from abtool import numerics
from abtool.wavepackets import GaussianPacketConfig
from oracles import (analytic_field, annulus_value_and_gradient,
                     gaussian_wavefield, quasi_currents)

CONSTS = Constants()
CFG = AnnulusConfig()                  # natural units, a=1, b=3, B=1
STATE = eigenstate(CFG, 1, 1)          # lambda=-1/2, nu=1/2
A_SPEC = solenoid_potential(CFG)


def plane_wave(k0):
    def amplitude(p):
        return np.exp(1j * k0 * np.asarray(p, dtype=float)[..., 0])

    def gradient(p):
        return (1j * k0 * amplitude(p))[..., None]

    return analytic_field(amplitude, gradient)


def fd_derivative(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


class TestDecompose:
    def test_plane_wave(self):
        pw = plane_wave(1.3)
        dec = decompose(pw, None, CONSTS, np.array([0.4]))
        assert dec.eta[0] == pytest.approx(1.3, rel=1e-14)
        assert dec.xi_real[0] == pytest.approx(0.0, abs=1e-12)
        assert dec.xi_imag[0] == 0.0

    def test_annulus_state_at_r2(self):
        # eta = m hbar / (M r) e_theta, v_quasi = (m + lambda) hbar / (M r) e_theta
        dec = decompose(STATE, A_SPEC, CFG, np.array([2.0, 0.0]))
        assert dec.eta[0] == pytest.approx(0.0, abs=1e-15)
        assert dec.eta[1] == pytest.approx(0.5, rel=1e-12)
        assert dec.v_quasi[1] == pytest.approx(0.25, rel=1e-12)
        # xi_imag carries (q/Mc) A
        assert dec.xi_imag[1] == pytest.approx(0.25, rel=1e-12)

    def test_real_field_has_zero_eta_and_fd_xi(self):
        def amplitude(p):
            x = np.asarray(p, dtype=float)[..., 0]
            return np.exp(-x ** 2) + 0.0j

        field = WaveField(amplitude, None)
        x0 = 0.37
        dec = decompose(field, None, CONSTS, np.array([x0]))
        assert abs(dec.eta[0]) <= 1e-12

        def rho(x):
            return float(np.exp(-x ** 2) ** 2)

        expected = -(CONSTS.hbar / (2 * CONSTS.mass)) * fd_derivative(rho, x0) / rho(x0)
        assert dec.xi_real[0] == pytest.approx(expected, rel=1e-8)

    def test_gamma_delta_consistency(self):
        # rho * v_quasi equals the directly assembled quasi-current
        pts = np.array([[1.5, 0.3], [2.4, -0.8], [-1.1, 1.9]])
        dec = decompose(STATE, A_SPEC, CFG, pts)
        gamma, delta = quasi_currents(STATE, A_SPEC, CFG, pts)
        assert np.abs(gamma - dec.rho[:, None] * dec.v_quasi).max() <= 1e-12
        assert np.abs(delta - dec.rho[:, None] * dec.w_quasi).max() <= 1e-12

    def test_density_floor(self):
        with pytest.raises(DensityFloorError):
            decompose(STATE, A_SPEC, CFG, np.array([1.0, 0.0]))   # on the wall

    def test_batch_shapes(self):
        pts = np.array([[2.0, 0.0], [0.0, 2.0]])
        dec = decompose(STATE, None, CFG, pts)
        assert dec.rho.shape == (2,)
        assert dec.eta.shape == (2, 2)

    def test_one_radial_evaluation_per_point(self, monkeypatch):
        import abtool.annulus as annulus
        points = {"bessel_j": 0, "bessel_j_pair": 0}

        def counted(name):
            fn = getattr(annulus, name)

            def wrapper(order, x):
                points[name] += np.size(x)
                return fn(order, x)
            return wrapper

        for name in points:
            monkeypatch.setattr(annulus, name, counted(name))
        rng = np.random.default_rng(11)
        r = 1.05 + 1.9 * rng.random(400)
        th = 2 * np.pi * rng.random(400)
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        dec = decompose(STATE, A_SPEC, CFG, pts)
        assert points == {"bessel_j": 0, "bessel_j_pair": 400}

        # the fields are the explicit polar psi* grad psi formulas, bit for
        # bit: R R' r_hat + i (m R^2 / r) theta_hat and rho = R^2
        r = np.hypot(pts[:, 0], pts[:, 1])
        rr, drr = STATE.radial_parts(r)
        unit = pts / r[:, None]
        theta_hat = np.stack([-unit[:, 1], unit[:, 0]], axis=-1)
        rho = rr * rr
        cross = ((rr * drr)[:, None] * unit
                 + 1j * (rr * ((STATE.m * rr) * (1.0 / r)))[:, None] * theta_hat)
        hbar, m = CFG.hbar, CFG.mass
        assert np.array_equal(dec.rho, rho)
        assert np.array_equal(dec.eta, (hbar / m) * cross.imag / rho[:, None])
        assert np.array_equal(dec.xi_real,
                              -(hbar / (2.0 * m)) * (2.0 * cross.real) / rho[:, None])
        assert np.array_equal(dec.gamma, rho[:, None] * dec.v_quasi)


class TestQuasiCurrents:
    def test_orthogonality_at_point(self):
        gamma, delta = quasi_currents(STATE, A_SPEC, CFG, np.array([2.0, 0.0]))
        # gamma tangential, delta radial at theta = 0
        assert abs(gamma[0]) <= 1e-15
        assert abs(delta[1]) <= 1e-15
        assert abs(np.dot(gamma, delta)) <= 1e-15

    def test_reduces_to_plain_current_without_potential(self):
        p = np.array([1.7, 0.6])
        gamma, _ = quasi_currents(STATE, None, CFG, p)
        dec = decompose(STATE, None, CFG, p)
        assert np.abs(gamma - dec.rho * dec.eta).max() <= 1e-14

    def test_delta_finite_near_inner_wall(self):
        # delta = -(hbar/2M) grad rho stays finite as rho -> 0 at the wall
        r = 1.0 + 1e-6
        gamma, delta = quasi_currents(STATE, A_SPEC, CFG, np.array([r, 0.0]))
        assert np.all(np.isfinite(delta))

        def rho_of_x(x):
            return float(STATE.density(np.array([x, 0.0])))

        expected = -(CFG.hbar / (2 * CFG.mass)) * fd_derivative(rho_of_x, r, 1e-8)
        assert delta[0] == pytest.approx(expected, rel=1e-5)

    def test_below_density_floor(self):
        # Gamma and Delta divide by nothing, so they stay defined where rho
        # underflows the decomposition's floor next to the inner wall
        state = eigenstate(CFG, 6, 1)
        p = np.array([[1.0 + 1e-4, 0.0], [0.0, -1.0 - 2e-4]])
        amp, grad = annulus_value_and_gradient(state, p)
        rho = np.abs(amp) ** 2
        assert np.all((0.0 < rho) & (rho < RHO_FLOOR))
        cross = np.conj(amp)[:, None] * grad
        gamma, delta = quasi_currents(state, A_SPEC, CFG, p)
        # to 1e-12 of each point's vector: on the axis x = 0, gamma's y
        # component is exactly 0, and only its rounding through the phase
        # e^{i m theta} is not
        expected_gamma = ((CFG.hbar / CFG.mass) * cross.imag
                          - (CFG.charge / (CFG.mass * CFG.c)) * A_SPEC(p) * rho[:, None])
        expected_delta = -(CFG.hbar / CFG.mass) * cross.real
        for got, want in ((gamma, expected_gamma), (delta, expected_delta)):
            scale = np.hypot(want[:, 0], want[:, 1])[:, None]
            assert np.all(scale > 0.0)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_two_routes_agree_over_sample(self):
        rng = np.random.default_rng(3)
        r = 1.05 + 1.9 * rng.random(500)
        th = 2 * np.pi * rng.random(500)
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        dec = decompose(STATE, A_SPEC, CFG, pts)
        gamma, _ = quasi_currents(STATE, A_SPEC, CFG, pts)
        scale = np.abs(gamma).max()
        assert np.abs(gamma - dec.rho[:, None] * dec.v_quasi).max() <= 1e-10 * scale


class TestQuantumPotential:
    def test_plane_wave_zero(self):
        pw = plane_wave(2.0)
        assert quantum_potential(pw, CONSTS, np.array([0.1])) == pytest.approx(0.0, abs=1e-9)
        assert np.abs(quantum_force(pw, CONSTS, np.array([0.1]))).max() <= 1e-8

    def test_gaussian_force_example(self):
        cfg = GaussianPacketConfig(alpha=1.0)
        field = gaussian_wavefield(cfg, 0.0)
        f = quantum_force(field, CONSTS, np.array([0.3]))
        assert f[0] == pytest.approx(1.2, rel=1e-6)

    def test_force_is_minus_grad_potential(self):
        p = np.array([1.8, 0.7])
        f = quantum_force(STATE, CFG, p)
        h = 1e-2
        grad = np.empty(2)
        for ax in range(2):
            def q_along(t, ax=ax):
                q = p.copy()
                q[ax] = t
                return quantum_potential(STATE, CFG, q)
            grad[ax] = (q_along(p[ax] + h) - q_along(p[ax] - h)) / (2 * h)
        assert np.abs(f + grad).max() <= 1e-4 * max(1.0, np.abs(f).max())

    def test_annulus_against_plain_fd_oracle(self):
        # independent plain second differences of sqrt(rho), no Richardson
        p = np.array([0.0, 2.2])
        got = quantum_potential(STATE, CFG, p)

        def sq(x, y):
            return math.sqrt(float(STATE.density(np.array([x, y]))))

        h = 1e-4
        lap = ((sq(p[0] + h, p[1]) - 2 * sq(*p) + sq(p[0] - h, p[1])) / h ** 2
               + (sq(p[0], p[1] + h) - 2 * sq(*p) + sq(p[0], p[1] - h)) / h ** 2)
        oracle = -(CFG.hbar ** 2 / (2 * CFG.mass)) * lap / sq(*p)
        assert got == pytest.approx(oracle, rel=1e-6)


class TestGaugeTransform:
    def test_constant_lambda_changes_nothing(self):
        gauged = gauge_transform(STATE, lambda p: 4.2 * np.ones(np.asarray(p).shape[:-1]),
                                 CFG, lambda p: np.zeros(np.shape(p)))
        pts = np.array([[1.6, 0.4], [2.2, -1.0]])
        dec0 = decompose(STATE, None, CFG, pts)
        dec1 = decompose(gauged, None, CFG, pts)
        assert np.abs(dec0.eta - dec1.eta).max() <= 1e-9
        assert np.array_equal(gauged.density(pts), STATE.density(pts))
        assert dec1.rho == pytest.approx(dec0.rho, rel=1e-14)

    def test_angular_lambda_shifts_eta(self):
        sigma = 0.6

        def lam(p):
            return sigma * np.arctan2(p[..., 1], p[..., 0])

        def grad_lam(p):
            r_sq = p[..., 0] ** 2 + p[..., 1] ** 2
            return sigma * np.stack([-p[..., 1], p[..., 0]], axis=-1) / r_sq[..., None]

        gauged = gauge_transform(STATE, lam, CFG, grad_lam)
        r = 1.9
        p = np.array([r * math.cos(0.5), r * math.sin(0.5)])
        dec0 = decompose(STATE, None, CFG, p)
        dec1 = decompose(gauged, None, CFG, p)
        shift = dec1.eta - dec0.eta
        e_th = np.array([-math.sin(0.5), math.cos(0.5)])
        expected = (CFG.charge * sigma) / (CFG.mass * CFG.c * r)
        assert np.dot(shift, e_th) == pytest.approx(expected, rel=1e-7)
        assert abs(np.dot(shift, np.array([math.cos(0.5), math.sin(0.5)]))) <= 1e-8

    def test_rho_preserved_exactly(self):
        rng = np.random.default_rng(8)
        r = 1.05 + 1.9 * rng.random(1000)
        th = 2 * np.pi * rng.random(1000)
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        gauged = gauge_transform(STATE, lambda p: 0.31 * p[..., 0], CFG,
                                 lambda p: np.broadcast_to([0.31, 0.0], np.shape(p)))
        assert np.array_equal(gauged.density(pts), STATE.density(pts))


class TestEnergyIdentity:
    def test_annulus_state(self):
        # the Madelung split (M/2) rho |v_quasi|^2 + (M/2) rho |w_quasi|^2,
        # built from decompose's Cartesian fields, against the polar split
        # of energy_decomposition over the same inset annulus
        from abtool.annulus import _energy_domain

        def densities(pts):
            dec = decompose(STATE, A_SPEC, CFG, pts)
            half_rho = 0.5 * CFG.mass * dec.rho
            return np.stack([half_rho * np.sum(dec.v_quasi ** 2, axis=-1),
                             half_rho * np.sum(dec.w_quasi ** 2, axis=-1)],
                            axis=-1)

        rotational, radial = map(float, _energy_domain(CFG).integrate(densities))
        out = energy_decomposition(STATE)
        assert out["residual"] <= 1e-6
        assert rotational == pytest.approx(out["rotational"], rel=1e-10)
        assert radial == pytest.approx(out["radial"], rel=1e-10)
        assert rotational + radial == pytest.approx(out["total"], rel=1e-10)


class TestPhaseWinding:
    def test_integer_winding(self):
        # loop integral of eta . dl over hbar/M: 2 pi times the winding
        eta = lambda pts: decompose(STATE, None, CFG, pts).eta
        w = circulation(eta, (0.0, 0.0), 2.0) / (CFG.hbar / CFG.mass)
        assert w == pytest.approx(2.0 * np.pi * STATE.m, rel=1e-10)


class TestWaveField:
    def test_fd_gradient_matches_analytic(self):
        # a field given without a sample differences its amplitude
        pts = np.array([[1.7, 0.5], [2.3, -1.1], [0.2, 2.1]])
        rho_fd, cross_fd = WaveField(STATE.amplitude).density_and_cross(pts)
        amp, grad = annulus_value_and_gradient(STATE, pts)
        cross = np.conj(amp)[:, None] * grad
        assert np.array_equal(rho_fd, (amp * np.conj(amp)).real)
        assert np.abs(cross_fd - cross).max() <= 1e-6 * np.abs(cross).max()

    def test_invalid_constants(self):
        with pytest.raises(ValueError):
            Constants(hbar=0.0)

    def test_vector_potential_spec_callable(self):
        # a vector potential is any callable p -> A(p); xi_imag = (q/Mc) A
        cfg = Constants(mass=2.0, charge=3.0, c=0.5)
        p = np.array([[2.0, 0.0], [1.5, -1.0]])
        dec = decompose(STATE, lambda q: 0.5 * q, cfg, p)
        assert np.allclose(dec.xi_imag, 3.0 / (2.0 * 0.5) * 0.5 * p, rtol=1e-15)


def gk15_nodes(*edges):
    """GK15 nodes of each panel between successive edges, panel by panel."""
    return np.concatenate([0.5 * (lo + hi) + 0.5 * (hi - lo) * numerics._GK_NODES
                           for lo, hi in zip(edges[:-1], edges[1:])])


class TestDomains:
    def test_annulus_domain_area(self):
        dom = AnnulusDomain(1.0, 3.0)
        val = dom.integrate(lambda pts: np.ones(pts.shape[0]))
        assert val == pytest.approx(8.0 * np.pi, rel=1e-12)

    def test_annulus_vector_integrand(self):
        def g(pts):
            r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
            return np.stack([np.ones_like(r2), r2], axis=-1)
        area, second = AnnulusDomain(1.0, 3.0).integrate(g)
        assert area == pytest.approx(8.0 * np.pi, rel=1e-12)
        assert second == pytest.approx(40.0 * np.pi, rel=1e-12)

    def test_annulus_one_batch_per_refinement(self):
        # a rotation-invariant integrand is sampled on the ray y = 0 only:
        # the first call is the first panel's 15 radii, each later call one
        # bisection, the 30 radii of both halves of a panel not yet split
        calls = []

        def g(pts):
            calls.append(pts.copy())
            return np.sqrt(np.hypot(pts[:, 0], pts[:, 1]) - 1.0)
        AnnulusDomain(1.0, 3.0).integrate(g)
        for pts in calls:
            assert np.all(pts[:, 1] == 0.0)
        radii = [pts[:, 0] for pts in calls]
        assert np.allclose(radii[0], gk15_nodes(1.0, 3.0), rtol=0.0, atol=1e-12)
        assert len(calls) > 1
        leaves = {(1.0, 3.0)}
        for r in radii[1:]:
            split = [(a, b) for a, b in leaves if r.size == 30 and np.allclose(
                r, gk15_nodes(a, 0.5 * (a + b), b), rtol=0.0, atol=1e-12)]
            assert len(split) == 1
            (a, b), = split
            leaves -= {(a, b)}
            leaves |= {(a, 0.5 * (a + b)), (0.5 * (a + b), b)}
