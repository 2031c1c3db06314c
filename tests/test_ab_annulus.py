"""Flux parameter, solenoid potential, bound states, observables, vortex
identities, the scalar-potential twin system, and gauge families."""
import hashlib
import math

import numpy as np
import pytest

from abtool.annulus import (ABState, AnnulusConfig,
                            closed_form_q_and_force, diffusion_velocity,
                            eigenstate, energy_decomposition, flux_parameter,
                            _energy_domain, gauge_family, magnetic_force,
                            angular_momenta, solenoid_current_check,
                            solenoid_potential,
                            system_b_equivalence, vector_potential,
                            vortex_fields)
from abtool.madelung import AnnulusDomain, circulation, decompose
from abtool.checks import _grid_states
from abtool.numerics import MAX_ORDER, bessel_j_zero

CFG = AnnulusConfig()                    # natural units, a=1, b=3, B=1
STATE = eigenstate(CFG, 1, 1)


def fd_curl_z(field_of_point, p, h=1e-2):
    """Richardson central-difference curl (z component) of a plane field."""
    def d(component, axis):
        def along(t):
            q = p.copy()
            q[axis] = t
            return field_of_point(q)[component]
        d_h = (along(p[axis] + h) - along(p[axis] - h)) / (2 * h)
        d_2h = (along(p[axis] + 2 * h) - along(p[axis] - 2 * h)) / (4 * h)
        return (4 * d_h - d_2h) / 3.0
    return d(1, 0) - d(0, 1)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ValueError):
            AnnulusConfig(a=3.0, b=1.0)
        with pytest.raises(ValueError):
            AnnulusConfig(hbar=-1.0)

    def test_derived(self):
        assert CFG.d == 2.0


class TestFluxParameter:
    def test_zero_field(self):
        assert flux_parameter(AnnulusConfig(B=0.0)) == 0.0

    def test_natural_units(self):
        assert flux_parameter(CFG) == -0.5

    def test_quadratic_in_radius(self):
        lam1 = flux_parameter(AnnulusConfig(a=1.0, b=5.0))
        lam2 = flux_parameter(AnnulusConfig(a=2.0, b=5.0))
        assert lam2 == pytest.approx(4.0 * lam1, rel=1e-15)


class TestVectorPotential:
    def test_continuity_at_wall(self):
        inner = vector_potential(CFG, np.array([CFG.a - 1e-12, 0.0]))
        outer = vector_potential(CFG, np.array([CFG.a + 1e-12, 0.0]))
        assert np.abs(inner - outer).max() <= 1e-10
        at_wall = vector_potential(CFG, np.array([CFG.a, 0.0]))
        assert at_wall[1] == pytest.approx(CFG.B * CFG.a / 2.0, rel=1e-15)

    def test_outside_value(self):
        val = vector_potential(CFG, np.array([2.0 * CFG.a, 0.0]))
        assert val[0] == 0.0
        assert val[1] == pytest.approx(CFG.B * CFG.a / 4.0, rel=1e-15)

    def test_curl_by_finite_differences(self):
        def field(p):
            return vector_potential(CFG, p)

        inside = fd_curl_z(field, np.array([0.3, 0.2]))
        outside = fd_curl_z(field, np.array([1.4, 1.1]))
        assert inside == pytest.approx(CFG.B, abs=1e-10)
        assert abs(outside) <= 1e-10

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            vector_potential(CFG, np.array([0.0, 0.0]))


class TestSolenoidCurrentCheck:
    def test_zero_outside(self):
        val = solenoid_current_check(CFG, None, np.array([2.0, 0.0]))
        assert np.abs(val).max() <= 1e-6

    def test_zero_inside(self):
        val = solenoid_current_check(CFG, None, np.array([0.35, 0.2]))
        assert np.abs(val).max() <= 1e-6

    def test_gauge_independent(self):
        p = np.array([1.5, 1.2])
        v0 = solenoid_current_check(CFG, None, p)
        v1 = solenoid_current_check(
            CFG, lambda q: 0.7 * math.atan2(q[1], q[0]), p)
        assert np.abs(v0 - v1).max() <= 1e-8

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            solenoid_current_check(CFG, None, np.array([CFG.a, 0.0]))
        with pytest.raises(ValueError):
            solenoid_current_check(CFG, None, np.array([0.01, 0.0]))
        # the stencil reaches 9 h = 0.045 at its fixed step h = 5e-3
        for side in (-1.0, 1.0):
            with pytest.raises(ValueError):
                solenoid_current_check(CFG, None,
                                       np.array([CFG.a + side * 0.04, 0.0]))
            val = solenoid_current_check(CFG, None,
                                         np.array([CFG.a + side * 0.05, 0.0]))
            assert val.shape == (2,) and np.all(np.isfinite(val))


class TestEigenstate:
    def test_half_integer_reference_state(self):
        assert STATE.lam == -0.5
        assert STATE.nu == 0.5
        assert abs(STATE.tau - math.pi) <= 1e-10
        assert STATE.k == pytest.approx(math.pi / 2.0, abs=1e-10)
        assert STATE.energy == pytest.approx(math.pi ** 2 / 8.0, rel=1e-10)

    def test_normalization_against_trapezoid_oracle(self):
        rg = np.linspace(CFG.a, CFG.b, 200_001)
        rho = STATE.radial_density(rg)
        total = 2.0 * math.pi * np.trapezoid(rho * rg, rg)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_normalization_round_trip_by_annulus_quadrature(self):
        for (m, n) in ((1, 1), (0, 1), (2, 2), (-1, 1)):
            state = eigenstate(CFG, m, n)
            val = CFG.domain().integrate(
                lambda pts: state.radial_density(np.hypot(pts[..., 0], pts[..., 1])))
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_walls(self):
        # psi vanishes identically at both walls for nu > 0
        assert STATE.amplitude(np.array([CFG.a, 0.0])) == 0.0
        assert STATE.amplitude(np.array([CFG.b, 0.0])) == 0.0
        assert STATE.amplitude(np.array([CFG.b + 0.5, 0.0])) == 0.0

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            eigenstate(CFG, 1, 0)
        with pytest.raises(ValueError):
            eigenstate(CFG, 1, 101)

    def test_order_window(self):
        # lambda = -1/2: nu = |m - 1/2|, so m = 50 gives 49.5, m = 51 and
        # m = -50 give 50.5; lambda = 0 reaches nu = 50 itself
        assert eigenstate(CFG, 50, 100).nu == 49.5
        assert eigenstate(AnnulusConfig(B=0.0), 50, 100).nu == MAX_ORDER == 50.0
        for m in (51, -50, 60):
            with pytest.raises(ValueError, match="supported window"):
                eigenstate(CFG, m, 1)

    @pytest.mark.parametrize("m, n", [(1, 100), (13, 1), (31, 1), (50, 1), (50, 100)])
    def test_tau_and_energy_against_mpmath(self, m, n):
        # tau = j_{nu,n} and E = hbar^2 tau^2 / (2 M d^2), checked directly:
        # the L_z theorem holds for any separable profile
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        state = eigenstate(CFG, m, n)
        tau = mp.besseljzero(mp.mpf(state.nu), n)
        energy = CFG.hbar ** 2 * (tau / CFG.d) ** 2 / (2 * CFG.mass)
        assert state.tau == pytest.approx(float(tau), rel=1e-12, abs=0.0)
        assert state.energy == pytest.approx(float(energy), rel=1e-12, abs=0.0)

    def test_tau_is_the_one_cached_zero(self):
        states = list(_grid_states()) + [eigenstate(CFG, 1, 100)]
        for state in states:
            assert state.tau == bessel_j_zero(state.nu, state.n)

    def test_gradient_matches_finite_differences(self):
        p = np.array([1.9, 0.8])
        h = 1e-6
        g = STATE.value_and_gradient(p)[1]
        for ax in range(2):
            q_plus, q_minus = p.copy(), p.copy()
            q_plus[ax] += h
            q_minus[ax] -= h
            fd = (STATE.amplitude(q_plus) - STATE.amplitude(q_minus)) / (2 * h)
            assert g[ax] == pytest.approx(fd, rel=1e-6)


class TestAngularMomenta:
    def test_reference_state(self):
        mom = angular_momenta(STATE)
        assert mom["total"] == pytest.approx(0.5, abs=1e-8)
        assert mom["canonical"] == pytest.approx(1.0, abs=1e-8)
        assert mom["osmotic"] == pytest.approx(-0.5, abs=1e-8)

    def test_zero_field(self):
        cfg0 = AnnulusConfig(B=0.0)
        mom = angular_momenta(eigenstate(cfg0, 2, 1))
        assert mom["total"] == pytest.approx(2.0, abs=1e-8)
        assert mom["canonical"] == pytest.approx(2.0, abs=1e-8)
        assert mom["osmotic"] == pytest.approx(0.0, abs=1e-8)

    def test_pure_flux_momentum(self):
        mom = angular_momenta(eigenstate(CFG, 0, 1))
        assert mom["total"] == pytest.approx(-0.5, abs=1e-8)


class TestEnergyDecomposition:
    def test_residual_reference(self):
        dec = energy_decomposition(STATE)
        assert dec["residual"] <= 1e-6
        assert dec["total"] > 0.0

    def test_no_rotation_without_flux_or_m(self):
        cfg0 = AnnulusConfig(B=0.0)
        dec = energy_decomposition(eigenstate(cfg0, 0, 1))
        assert dec["rotational"] <= 1e-12 * dec["total"]

    @pytest.mark.parametrize("m", range(13))
    def test_default_window_has_no_density_floor(self, m):
        # the split never divides by rho, which underflows next to r = a
        for n in (1, 2):
            assert energy_decomposition(eigenstate(CFG, m, n))["residual"] <= 1e-6

    @pytest.mark.parametrize("m", [6, 10])
    def test_rotational_closed_form(self, m):
        # integral of hbar^2 (m + lambda)^2 rho / (2 M r^2) dA over the same
        # inset annulus, by an independent trapezoid in r
        state = eigenstate(CFG, m, 1)
        dom = _energy_domain(CFG)
        rg = np.linspace(dom.a, dom.b, 200_001)
        expected = 2.0 * math.pi * CFG.hbar ** 2 * (m + state.lam) ** 2 \
            / (2.0 * CFG.mass) * np.trapezoid(state.radial_density(rg) / rg, rg)
        got = energy_decomposition(state)["rotational"]
        assert got == pytest.approx(expected, rel=1e-8)


def observables_digest(states):
    """SHA-256 of each state's normalization and its 7 quadrature
    observables (angular momenta and energy split), as float64 bits."""
    h = hashlib.sha256()
    for state in states:
        mom, dec = angular_momenta(state), energy_decomposition(state)
        h.update(np.array([state.norm, mom["total"], mom["canonical"],
                           mom["osmotic"], dec["rotational"], dec["radial"],
                           dec["total"], dec["residual"]]).tobytes())
    return h.hexdigest()


class TestRotationInvariantIntegrands:
    """`AnnulusDomain.integrate` samples its integrand on the ray y = 0 only,
    so every integrand the observables pass must be rotation invariant:
    at random radii and angles, the rotated values equal the ray values
    within 1e-12 of each column's largest magnitude."""

    def test_observable_integrands(self, monkeypatch):
        seen = []
        original = AnnulusDomain.integrate

        def spy(domain, g):
            seen.append((domain, g))
            return original(domain, g)
        monkeypatch.setattr(AnnulusDomain, "integrate", spy)
        states = [*_grid_states(), eigenstate(CFG, 12, 2), eigenstate(CFG, 50, 5)]
        for state in states:
            angular_momenta(state)
            energy_decomposition(state)
        assert len(seen) == 2 * len(states)
        rng = np.random.default_rng(20)
        for domain, g in seen:
            r = rng.uniform(domain.a, domain.b, 64)
            ray = np.asarray(g(np.stack([r, np.zeros_like(r)], axis=-1)))
            scale = np.abs(ray).max(axis=0)
            for th in rng.uniform(0.0, 2.0 * math.pi, 4):
                turned = np.asarray(g(np.stack([r * math.cos(th), r * math.sin(th)],
                                               axis=-1)))
                assert np.all(np.abs(turned - ray) <= 1e-12 * scale)


class TestPinnedObservables:
    """Quadrature observables pinned bit for bit: one radial GK15 rule on
    the ray y = 0 (`AnnulusDomain.integrate`).  The two wide states reach
    Miller's recurrence past x = 9.25, and a batch that mixes nodes below
    the split changes the series truncation, so these digests also guard
    the batching of a bisected panel's two halves into one integrand call."""

    def test_acceptance_grid(self):
        assert observables_digest(_grid_states()) == (
            "4fd0f542b9281d0d8c959e8be107cdd0313746aa7b6035cd9fc697df6485e4c3")

    @pytest.mark.parametrize("mn,digest", [
        ((12, 2), "93cb1d2dcfbaec706e6fba91f50962fe8df6d58e496a8dc67f47730aefd67624"),
        ((50, 5), "0772577b55b23535240b213ba03c61a928fc9242f90da5039bf436f75efc9418"),
    ], ids=["m12-n2", "m50-n5"])
    def test_wide_states(self, mn, digest):
        assert observables_digest([eigenstate(CFG, *mn)]) == digest


class TestClosedFormQ:
    def test_printed_values(self):
        out = closed_form_q_and_force(STATE, 2.0)
        assert out["Q"] == pytest.approx(-0.03125, rel=1e-14)
        assert out["F_r"] == pytest.approx(-0.03125, rel=1e-14)

    def test_full_cancellation(self):
        cfg = AnnulusConfig(B=2.0)      # lambda = -1 cancels m = 1
        state = eigenstate(cfg, 1, 1)
        out = closed_form_q_and_force(state, 1.7)
        assert out["Q"] == 0.0
        assert out["F_r"] == 0.0

    def test_centripetal_identity_many_radii(self):
        rs = np.linspace(1.05, 2.95, 100)
        out = closed_form_q_and_force(STATE, rs)
        assert np.abs(out["F_r"] - out["centripetal"]).max() <= 1e-15


class TestVortexFields:
    def test_vorticity_value(self):
        out = vortex_fields(CFG, 2.0)
        assert out["omega_in"] == pytest.approx(-1.0, rel=1e-15)

    def test_outside_velocity_matches_decomposition(self):
        out = vortex_fields(CFG, 2.0)
        assert out["dv_out"] == pytest.approx(-0.25, rel=1e-14)
        dec = decompose(STATE, solenoid_potential(CFG), CFG,
                        np.array([2.0, 0.0]))
        # Im(-xi) is the theta component of the diffusion velocity
        assert -dec.xi_imag[1] == pytest.approx(out["dv_out"], rel=1e-12)

    def test_curls(self):
        def dv(p):
            return diffusion_velocity(CFG, p[None, :])[0]

        omega = vortex_fields(CFG, 1.0)["omega_in"]
        assert abs(fd_curl_z(dv, np.array([1.6, 0.9]))) <= 1e-6
        assert fd_curl_z(dv, np.array([0.3, 0.1])) == pytest.approx(omega,
                                                                    abs=1e-6)

    def test_pressure_matches_flux_quantum_potential(self):
        # for m = 0 the closed-form quantum potential is the vortex pressure
        state0 = eigenstate(CFG, 0, 1)
        r = 2.3
        assert vortex_fields(CFG, r)["pressure_analogue"] == pytest.approx(
            closed_form_q_and_force(state0, r)["Q"], rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            vortex_fields(CFG, 0.0)


class TestMagneticForce:
    def test_radial_velocity(self):
        lorentz, vortex = magnetic_force(CFG, np.array([1.0, 0.0, 0.0]),
                                         np.array([0.2, 0.1]))
        assert np.allclose(lorentz, vortex, atol=1e-15)
        # (q/c) e_r x B e_z = -(qB/c) e_theta
        assert lorentz[1] == pytest.approx(-CFG.charge * CFG.B / CFG.c,
                                           rel=1e-15)

    def test_axial_velocity_gives_nothing(self):
        lorentz, vortex = magnetic_force(CFG, np.array([0.0, 0.0, 2.0]),
                                         np.array([0.2, 0.1]))
        assert np.abs(lorentz).max() == 0.0
        assert np.abs(vortex).max() == 0.0

    def test_routes_agree_on_random_velocities(self):
        rng = np.random.default_rng(4)
        cfg = AnnulusConfig(mass=2.3, charge=0.7, c=1.9, B=-1.4)
        p = np.array([0.3, -0.2])
        for _ in range(100):
            v = rng.standard_normal(3)
            lorentz, vortex = magnetic_force(cfg, v, p)
            assert np.abs(lorentz - vortex).max() <= 1e-12

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            magnetic_force(CFG, np.array([1.0, 0.0, 0.0]), np.array([2.0, 0.0]))


class TestCirculation:
    def test_enclosing_loop_value(self):
        lam = flux_parameter(CFG)
        target = 2.0 * math.pi * lam * CFG.hbar / CFG.mass
        got = circulation(lambda pts: diffusion_velocity(CFG, pts),
                          (0.0, 0.0), 2.0)
        assert got == pytest.approx(target, abs=1e-9)
        assert got == pytest.approx(-math.pi, abs=1e-9)

    def test_radius_independence(self):
        vals = [circulation(lambda pts: diffusion_velocity(CFG, pts),
                            (0.0, 0.0), rad)
                for rad in (1.5, 2.0, 2.75)]
        assert max(vals) - min(vals) <= 1e-9

    def test_non_enclosing_loop(self):
        got = circulation(lambda pts: diffusion_velocity(CFG, pts),
                          (2.0, 0.0), 0.3)
        assert abs(got) <= 1e-9

    def test_current_velocity_winding(self):
        def eta_field(pts):
            return decompose(STATE, None, CFG, pts).eta

        got = circulation(eta_field, (0.0, 0.0), 2.0)
        assert got == pytest.approx(2.0 * math.pi * STATE.m * CFG.hbar
                                    / CFG.mass, abs=1e-9)


class TestSystemB:
    def test_printed_example(self):
        out = system_b_equivalence(CFG, 1)
        assert out["F_printed"](2.0) == pytest.approx(0.0, abs=1e-15)
        assert out["F_velocity_form"](2.0) == pytest.approx(-0.03125, rel=1e-14)
        assert out["report"]["forces_agree"] is False

    def test_no_flux(self):
        cfg0 = AnnulusConfig(B=0.0)
        out = system_b_equivalence(cfg0, 1)
        assert out["F_velocity_form"](2.0) == 0.0
        assert out["F_printed"](2.0) != 0.0
        assert out["report"]["forces_agree"] is False

    def test_m_zero(self):
        out = system_b_equivalence(CFG, 0)
        assert out["V_ext"](2.0) == 0.0
        r = 2.0
        lam = flux_parameter(CFG)
        assert out["F_velocity_form"](r) == pytest.approx(
            lam ** 2 * CFG.hbar ** 2 / (CFG.mass * r ** 3), rel=1e-14)
        assert out["report"]["forces_agree"] is False

    def test_effective_order_report(self):
        rep = system_b_equivalence(CFG, 1)["report"]
        assert rep["nu_system_a"] == pytest.approx(0.5)
        # m^2 + m (m + 2 lambda) = 1 + 0 for m=1, lambda=-1/2
        assert rep["nu_sq_system_b"] == pytest.approx(1.0)
        assert rep["nu_match"] is False


class TestGaugeFamily:
    def test_zero_delta(self):
        fam = gauge_family(STATE, (0.0,))
        assert fam["deviations"] == [0.0]

    def test_quadratic_shrinkage(self):
        fam = gauge_family(STATE, (0.2, 0.1, 0.05))
        for ratio in fam["ratios"]:
            assert 3.0 <= ratio <= 5.0

    def test_members_normalized(self):
        fam = gauge_family(STATE, (0.2,))
        for member in fam["members"][0.2]:
            val = CFG.domain().integrate(member.density)
            assert val == pytest.approx(1.0, abs=1e-8)

    def test_members_are_states_of_the_shifted_order(self):
        fam = gauge_family(STATE, (0.0, 0.2))
        assert fam["members"][0.0] == (STATE, STATE)
        for member, nu in zip(fam["members"][0.2], (0.7, 0.3)):
            assert isinstance(member, ABState)
            assert (member.m, member.n, member.lam) == (STATE.m, STATE.n, STATE.lam)
            assert member.nu == pytest.approx(nu, abs=1e-15)
            assert member.tau == bessel_j_zero(member.nu, STATE.n)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            gauge_family(STATE, (0.6,))

    def test_order_past_the_window_rejected(self):
        with pytest.raises(ValueError, match="past nu = 50"):
            gauge_family(eigenstate(AnnulusConfig(B=0.0), 50, 1), (0.5,))
