"""Flux parameter, solenoid potential, bound states, observables, vortex
identities, the scalar-potential twin system, and gauge families."""
import math
from dataclasses import replace

import numpy as np
import pytest

from abtool import annulus, checks
from abtool.annulus import (ABState, AnnulusConfig,
                            closed_form_q_and_force, diffusion_velocity,
                            eigenstate, energy_decomposition, flux_parameter,
                            _energy_domain, gauge_family, magnetic_force,
                            angular_momenta, solenoid_current_check,
                            solenoid_potential,
                            system_b_equivalence, vector_potential,
                            vortex_fields)
from abtool.madelung import (RHO_FLOOR, AnnulusDomain, DensityFloorError,
                             circulation, decompose)
from abtool.checks import _grid_states
from abtool.numerics import MAX_ORDER, bessel_j_zero
from oracles import annulus_value_and_gradient
import pins

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

    @pytest.mark.parametrize("field", ["B", "charge"])
    def test_zero_flux_state_independent_of_call_order(self, field):
        # -0.0 == 0.0, so both configs are one cache key: whichever order
        # builds them, the cached state holds lambda = +0.0 and a +0.0 field
        def bits(state):
            return [math.copysign(1.0, x) for x in
                    (state.lam, state.cfg.B, state.cfg.charge)] + [state.norm.hex()]
        built = []
        try:
            for order in ((0.0, -0.0), (-0.0, 0.0)):
                eigenstate.cache_clear()
                built += [bits(eigenstate(AnnulusConfig(**{field: zero}), 0, 1))
                          for zero in order]
        finally:
            eigenstate.cache_clear()
        assert all(b == built[0] for b in built)
        assert built[0][:3] == [1.0, 1.0, 1.0]

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
        # B = 0.6 and 1.4 give nu = 0.7 and 0.3 at (1, 1), the orders of
        # the gauge family's members at delta = 0.2
        for (cfg, m, n) in ((CFG, 1, 1), (CFG, 0, 1), (CFG, 2, 2), (CFG, -1, 1),
                            (AnnulusConfig(B=0.6), 1, 1),
                            (AnnulusConfig(B=1.4), 1, 1)):
            state = eigenstate(cfg, m, n)
            val = AnnulusDomain(CFG.a, CFG.b).integrate(state.radial_density, state.k)
            assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("B, m, n", [(-0.5, 0, 1), (-0.5, 0, 2), (-0.5, 2, 2),
                                         (1.0, 20, 100), (1.0, 50, 100)])
    def test_norm_against_mpmath(self, B, m, n):
        # B = -1/2 is lambda = 1/4.  1 / N^2 = 2 pi int_a^b J_nu(k (r - a))^2 r dr
        # = 2 pi int_0^tau J_nu(x)^2 (a k + x) dx / k^2.  The x part is
        # tau^2 J_{nu+1}(tau)^2 / 2 at a zero (DLMF 10.22), and
        # int_0^tau J_nu^2 dx = tau^(2 nu + 1) / (4^nu Gamma(nu + 1)^2 (2 nu + 1))
        # 2F3(nu + 1/2, nu + 1/2; nu + 3/2, nu + 1, 2 nu + 1; -tau^2), the
        # termwise integral of J_nu^2's power series (DLMF 10.8)
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        cfg = AnnulusConfig(B=B)
        state = eigenstate(cfg, m, n)
        nu, tau = mp.mpf(state.nu), mp.mpf(state.tau)
        k = tau / cfg.d
        j_squared = (tau ** (2 * nu + 1) / (4 ** nu * mp.gamma(nu + 1) ** 2 * (2 * nu + 1))
                     * mp.hyp2f3(nu + 0.5, nu + 0.5, nu + 1.5, nu + 1, 2 * nu + 1, -tau ** 2))
        x_part = tau ** 2 * mp.besselj(nu + 1, tau) ** 2 / 2
        norm = 1 / mp.sqrt(2 * mp.pi * (cfg.a * k * j_squared + x_part) / k ** 2)
        assert state.norm == pytest.approx(float(norm), rel=1e-14, abs=0.0)

    def test_walls(self):
        # psi vanishes identically at both walls for nu > 0
        assert STATE.amplitude(np.array([CFG.a, 0.0])) == 0.0
        assert STATE.amplitude(np.array([CFG.b, 0.0])) == 0.0
        assert STATE.amplitude(np.array([CFG.b + 0.5, 0.0])) == 0.0

    @pytest.mark.parametrize("cfg, m", [(AnnulusConfig(B=0.0), 0), (CFG, 1),
                                        (AnnulusConfig(B=0.0), 1)])
    def test_radial_parts_at_and_outside_the_walls(self, cfg, m):
        # nu = 0, 1/2, 1: R and R' are +0.0 at r = b and outside [a, b), even
        # where the unmasked series would give J_0(0) = 1; at r = a, R is
        # N J_nu(0) and R' is returned as 0 whatever the order
        state = eigenstate(cfg, m, 1)
        rr, drr = state.radial_parts(np.array([cfg.b, 0.0, cfg.a / 2, cfg.b + 1.0]))
        for v in (*rr, *drr):
            assert v == 0.0 and math.copysign(1.0, v) == 1.0
        r_a, dr_a = state.radial_parts(np.array([cfg.a]))
        assert r_a[0] == (state.norm if state.nu == 0.0 else 0.0)
        assert dr_a[0] == 0.0

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            eigenstate(CFG, 1, 0)
        with pytest.raises(ValueError):
            eigenstate(CFG, 1, 101)

    def test_non_integral_indices(self):
        # a non-integral index has no state (m = 1.5 would carry the order
        # of 1.5 under the label m = 1); an integral float is that
        # integer's state, from its cache entry
        for m, n in ((1.5, 1), (1, 2.5), (math.nan, 1), (1, math.inf)):
            with pytest.raises(ValueError, match=rf"state \({m}, {n}\): m and n"):
                eigenstate(CFG, m, n)
        assert eigenstate(CFG, 2.0, 1.0) is eigenstate(CFG, 2, 1)

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
        g = annulus_value_and_gradient(STATE, p)[1]
        for ax in range(2):
            q_plus, q_minus = p.copy(), p.copy()
            q_plus[ax] += h
            q_minus[ax] -= h
            fd = (STATE.amplitude(q_plus) - STATE.amplitude(q_minus)) / (2 * h)
            assert g[ax] == pytest.approx(fd, rel=1e-6)


def grid_and_wide_states():
    """The 30 acceptance-grid states, then (12, 2) and (50, 5) at B = 1."""
    return [*_grid_states(), eigenstate(CFG, 12, 2), eigenstate(CFG, 50, 5)]


def node_radii(state):
    """The interior nodes of R, then the walls a and b."""
    cfg = state.cfg
    return [*(cfg.a + bessel_j_zero(state.nu, j) / state.k
              for j in range(1, state.n)), cfg.a, cfg.b]


def polar_test_radii(state, rng):
    """64 random radii in the annulus, then radii 1e-6 and 1e-8 on either
    side of every node and wall that lie inside it."""
    cfg = state.cfg
    near = [r + side * gap for r in node_radii(state)
            for side in (-1.0, 1.0) for gap in (1e-6, 1e-8)]
    return np.concatenate([rng.uniform(cfg.a, cfg.b, 64),
                           [r for r in near if cfg.a < r < cfg.b]])


def generic_sample(state, pts):
    """rho and psi* grad psi through the complex amplitude and gradient."""
    amp, grad = annulus_value_and_gradient(state, pts)
    return (amp * np.conj(amp)).real, np.conj(amp)[:, None] * grad


class TestPolarFieldSample:
    """An annulus state forms rho and psi* grad psi from R and R' in the
    polar frame (`ABState.sample`), never through e^{i m theta}.
    These tests check it against the generic route through the phase
    (`oracles.annulus_value_and_gradient`)."""

    def test_matches_generic_route(self):
        rng = np.random.default_rng(21)
        for state in grid_and_wide_states():
            r = polar_test_radii(state, rng)
            th = rng.uniform(0.0, 2.0 * math.pi, r.size)
            pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
            rho, cross = state.sample(pts, None)[:2]
            rho_g, cross_g = generic_sample(state, pts)
            assert np.all(np.abs(rho - rho_g) <= 1e-14 * rho_g.max())
            for part, part_g in ((cross.real, cross_g.real),
                                 (cross.imag, cross_g.imag)):
                scale = np.abs(part_g).max(axis=0)
                assert np.all(np.abs(part - part_g) <= 1e-14 * scale)

    def test_ray_bits(self):
        # on y = 0 the polar route rounds as the generic one does: m R^2 / r
        # is rounded as complex division by r rounds it, R ((m R) (1/r))
        rng = np.random.default_rng(22)
        for state in grid_and_wide_states():
            r = polar_test_radii(state, rng)
            pts = np.stack([r, np.zeros_like(r)], axis=-1)
            rho, cross = state.sample(pts, None)[:2]
            rho_g, cross_g = generic_sample(state, pts)
            assert np.array_equal(rho, rho_g)
            assert np.array_equal(cross.real, cross_g.real)
            assert np.array_equal(cross.imag, cross_g.imag)

    def test_angular_momentum_next_to_nodes(self):
        # M r v_quasi,theta = hbar (m + lambda) at every point: the imaginary
        # part of psi* grad psi carries no rounding of the radial part R R'
        rng = np.random.default_rng(23)
        for state in grid_and_wide_states():
            cfg = state.cfg
            r = polar_test_radii(state, rng)
            th = rng.uniform(0.0, 2.0 * math.pi, r.size)
            pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
            pts = pts[state.density(pts) > RHO_FLOOR]
            dec = decompose(state, solenoid_potential(cfg), cfg, pts)
            v = dec.v_quasi
            lz = cfg.mass * (pts[:, 0] * v[:, 1] - pts[:, 1] * v[:, 0])
            assert np.abs(lz - cfg.hbar * (state.m + state.lam)).max() <= 1e-13

    def test_density_floor(self):
        # at a node of a grid state (R at its rounded radius is one rounding
        # of R' away from 0; at (50, 5) R' is steep enough to leave rho
        # there near 1e-29), at r = a where J_nu(0) = 0 for nu > 0, and
        # outside
        grid = list(_grid_states())
        for state in grid_and_wide_states():
            cfg = state.cfg
            nodes = node_radii(state)[:-2] if state in grid else []
            radii = [*nodes, cfg.b, cfg.b + 0.5, 0.5 * cfg.a]
            if state.nu > 0.0:
                radii.append(cfg.a)
            for r in radii:
                for p in ([r, 0.0], [0.0, r], [-r, 0.0], [0.0, -r]):
                    with pytest.raises(DensityFloorError):
                        decompose(state, None, cfg, np.array(p))


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
        # over the same inset annulus, by an independent trapezoid in r: the
        # integrals of hbar^2 (m + lambda)^2 rho / (2 M r^2) dA and of
        # hbar^2 R'^2 / 2M dA, and the total is their sum
        state = eigenstate(CFG, m, 1)
        dom = _energy_domain(CFG)
        rg = np.linspace(dom.a, dom.b, 200_001)
        scale = 2.0 * math.pi * CFG.hbar ** 2 / (2.0 * CFG.mass)
        rotational = scale * (m + state.lam) ** 2 \
            * np.trapezoid(state.radial_density(rg) / rg, rg)
        radial = scale * np.trapezoid(state.radial_parts(rg)[1] ** 2 * rg, rg)
        got = energy_decomposition(state)
        assert got["rotational"] == pytest.approx(rotational, rel=1e-8)
        assert got["radial"] == pytest.approx(radial, rel=1e-8)
        assert got["total"] == pytest.approx(rotational + radial, rel=1e-8)

    def test_exact_nodes_next_to_the_inner_wall(self, monkeypatch):
        # at (50, 5), nu = 49.5: R ~ (r - a)^nu underflows to exactly 0 at
        # the inset inner wall, and to subnormals just past it; the split
        # divides by neither R nor rho, so its densities stay finite there
        seen = []
        original = AnnulusDomain.integrate

        def spy(domain, g, k):
            seen.append((domain, g))
            return original(domain, g, k)
        monkeypatch.setattr(AnnulusDomain, "integrate", spy)
        state = eigenstate(CFG, 50, 5)
        energy_decomposition(state)
        (domain, g), = seen
        r = domain.a + np.linspace(0.0, 1e-6, 1001)
        rows = g(r)
        modulus = np.abs(state.radial_parts(r)[0])
        node = modulus == 0.0
        subnormal = (0.0 < modulus) & (modulus < np.finfo(float).tiny)
        assert node[0] and subnormal.any() and not (node | subnormal).all()
        assert np.all(np.isfinite(rows))
        assert np.all(rows[node] == 0.0)


OBSERVABLES = pins.PinSet("observables")


def observables(states):
    """Record of each state's normalization and its 7 quadrature observables
    (angular momenta and energy split)."""
    parts = {}
    for state in states:
        mom, dec = angular_momenta(state), energy_decomposition(state)
        # + 0.0: the cached state of B = 0.0 and of B = -0.0 is one, with
        # whichever sign of lambda = 0 was built first
        label = f"m{state.m}_n{state.n}_lam{state.lam + 0.0:g}"
        parts.update({f"{label}.{key}": value for key, value in [
            ("norm", state.norm), ("Lz_total", mom["total"]),
            ("Lz_canonical", mom["canonical"]), ("Lz_osmotic", mom["osmotic"]),
            ("E_rotational", dec["rotational"]), ("E_radial", dec["radial"]),
            ("E_total", dec["total"]), ("E_residual", dec["residual"])]})
    return pins.arrays(parts)


OBSERVABLES.add("acceptance_grid", lambda: observables(_grid_states()))
WIDE_STATES = [OBSERVABLES.add(f"m{m}_n{n}",
                               lambda m=m, n=n: observables([eigenstate(CFG, m, n)]))
               for m, n in [(12, 2), (50, 5)]]


def moment_z(vec, pts):
    """(pts x vec)_z: r times vec's theta component."""
    return pts[:, 0] * vec[:, 1] - pts[:, 1] * vec[:, 0]


def angular_columns(cfg, pts, dec):
    """M r Gamma_theta, M r rho eta_theta and M r rho Im(-xi)_theta from
    Cartesian fields."""
    canonical = dec.rho[:, None] * dec.eta
    diffusion = -dec.rho[:, None] * dec.xi_imag
    return cfg.mass * np.stack([moment_z(dec.gamma, pts),
                                moment_z(canonical, pts),
                                moment_z(diffusion, pts)], axis=-1)


def energy_columns(cfg, pts, dec):
    """(M/2) rho |v_quasi|^2, (M/2) rho |w_quasi|^2 and their sum."""
    half_rho = 0.5 * cfg.mass * dec.rho
    rotational = half_rho * np.sum(dec.v_quasi ** 2, axis=-1)
    radial = half_rho * np.sum(dec.w_quasi ** 2, axis=-1)
    return np.stack([rotational, radial, rotational + radial], axis=-1)


class TestRadialIntegrands:
    """The observables integrate functions of r written in the polar frame
    (`AnnulusDomain.integrate`).  At random radii and angles where
    rho > RHO_FLOOR, each equals the density built from `decompose`'s
    Cartesian fields within 1e-12 of each column's largest magnitude."""

    def test_observable_integrands(self, monkeypatch):
        seen = []
        original = AnnulusDomain.integrate

        def spy(domain, g, k):
            seen.append((domain, g))
            return original(domain, g, k)
        # built first: a state not in eigenstate's cache integrates its norm
        states = grid_and_wide_states()
        monkeypatch.setattr(AnnulusDomain, "integrate", spy)
        for state in states:
            angular_momenta(state)
            energy_decomposition(state)
        assert len(seen) == 2 * len(states)
        rng = np.random.default_rng(20)
        for k, (domain, g) in enumerate(seen):
            state, cartesian = states[k // 2], (angular_columns, energy_columns)[k % 2]
            cfg = state.cfg
            r = rng.uniform(domain.a, domain.b, 256)
            th = rng.uniform(0.0, 2.0 * math.pi, r.size)
            pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
            keep = state.density(pts) > RHO_FLOOR
            assert keep.sum() >= 64
            r, pts = r[keep], pts[keep]
            want = cartesian(cfg, pts,
                             decompose(state, solenoid_potential(cfg), cfg, pts))
            got = np.asarray(g(r))
            assert got.shape == want.shape
            scale = np.abs(want).max(axis=0)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)


class TestQuadratureCost:
    def test_grid_sweep_integrand_calls(self, monkeypatch):
        # the radial rule starts from panels graded toward the inner wall and
        # at most BULK_SPAN wide in k (r - a), so every integral converges in
        # its first call: 60 calls for the 30 states' angular momenta and
        # energy split (96 from the graded panels alone, 460 from one panel)
        calls = []
        original = ABState.radial_parts

        def counted(state, r):
            calls.append(r.size)
            return original(state, r)
        states = list(_grid_states())
        monkeypatch.setattr(ABState, "radial_parts", counted)
        for state in states:
            angular_momenta(state)
            energy_decomposition(state)
        assert len(calls) == 2 * len(states) == 60

    @pytest.mark.parametrize("m, n", [(12, 2), (50, 5), (20, 100), (50, 100)])
    def test_wide_window(self, monkeypatch, m, n):
        # up to n = 100 the bulk panels resolve the state: each integral
        # takes at most 2 integrand calls (one at every state measured), and
        # the angular-momentum theorem and the energy split hold
        state = eigenstate(CFG, m, n)
        calls = []
        original = ABState.radial_parts

        def counted(state, r):
            calls.append(r.size)
            return original(state, r)
        monkeypatch.setattr(ABState, "radial_parts", counted)
        mom = angular_momenta(state)
        assert len(calls) <= 2
        calls.clear()
        dec = energy_decomposition(state)
        assert len(calls) <= 2
        hbar = CFG.hbar
        for key, want in [("total", m + state.lam), ("canonical", m),
                          ("osmotic", state.lam)]:
            assert mom[key] == pytest.approx(hbar * want, abs=1e-8 * hbar)
        assert dec["residual"] <= 1e-12


class TestPinnedObservables:
    """Quadrature observables pinned bit for bit: one radial GK15 rule of
    functions of r (`AnnulusDomain.integrate`).  The two wide states reach
    Miller's recurrence past x = 9.25."""

    def test_acceptance_grid(self):
        OBSERVABLES.check("acceptance_grid")

    @pytest.mark.parametrize("name", WIDE_STATES, ids=["m12-n2", "m50-n5"])
    def test_wide_states(self, name):
        OBSERVABLES.check(name)


class TestFluxQuantumSweep:
    """(m, lambda) and (m + N, lambda - N) are one state up to the singular
    gauge e^{i N theta} (Byers & Yang, PRL 7 (1961) 46).  The gauge-invariant
    observables read the signed order s = m + lambda, exact in floats at
    these fluxes, so they keep their bits; the canonical and osmotic parts
    carry the shift."""

    @pytest.mark.parametrize("N", [1, 1000, 10 ** 6, 10 ** 8])
    def test_shifted_states(self, N):
        for state in grid_and_wide_states():
            cfg, m = state.cfg, state.m
            far = eigenstate(replace(cfg, B=cfg.B + 2.0 * N), m + N, state.n)
            assert (far.s, far.lam) == (state.s, state.lam - N)
            mom, mom_n = angular_momenta(state), angular_momenta(far)
            assert mom_n["total"] == mom["total"]
            assert energy_decomposition(far) == energy_decomposition(state)
            for key, want in [("canonical", m + N), ("osmotic", far.lam)]:
                want *= cfg.hbar
                assert abs(mom_n[key] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("B", [1000.0, 2000.0])
    def test_order_zero_at_large_flux(self, B):
        # lambda = -500 and -1000: s = 0, where the total once came out of
        # an integrand that cancelled a canonical part of size |lambda|
        lam = flux_parameter(AnnulusConfig(B=B))
        for n in (1, 2):
            state = eigenstate(AnnulusConfig(B=B), -int(lam), n)
            mom = angular_momenta(state)
            assert state.nu == 0.0 and mom["total"] == 0.0
            assert mom["canonical"] == pytest.approx(-lam, rel=1e-12)
            assert mom["osmotic"] == pytest.approx(lam, rel=1e-12)
            assert energy_decomposition(state)["rotational"] == 0.0

    def test_check_1_sees_the_sign_of_a(self, monkeypatch):
        # the total reads s, and the osmotic part still reads A
        rule = annulus._a_theta_over_r
        monkeypatch.setattr(annulus, "_a_theta_over_r",
                            lambda cfg, r: -rule(cfg, r))
        result = checks.check_angular_momentum()
        assert not result.passed
        assert result.details["worst_osmotic"] == pytest.approx(1.0, rel=1e-8)
        assert result.details["worst_total"] <= 1e-8


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

    def test_centripetal_at_tiny_mass(self):
        # v is near 1e300 and v^2 past the float range; -(M v)(v / r) is not
        state = eigenstate(AnnulusConfig(mass=1e-300), 1, 1)
        out = closed_form_q_and_force(state, np.linspace(1.05, 2.95, 100))
        assert np.all(np.isfinite(out["centripetal"]))
        assert np.all(np.abs(out["F_r"] - out["centripetal"])
                      <= 1e-15 * np.abs(out["F_r"]))


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
    def test_quadratic_shrinkage(self):
        fam = gauge_family(STATE)
        for ratio in fam["ratios"]:
            assert 3.0 <= ratio <= 5.0

    def test_negative_order_rejected(self):
        # lambda = -0.9, so nu = |1 + lambda| = 0.1 < 0.2
        state = eigenstate(AnnulusConfig(B=1.8), 1, 1)
        with pytest.raises(ValueError):
            gauge_family(state)

    def test_order_past_the_window_rejected(self):
        with pytest.raises(ValueError, match="past nu = 50"):
            gauge_family(eigenstate(AnnulusConfig(B=0.0), 50, 1))
