"""Velocity-field decomposition, quasi-currents, quantum potential/force,
gauge transforms, loop integrals and the annulus domain."""
import functools
import math

import numpy as np
import pytest

from abtool.annulus import (WALL_MARGIN_FRACTION, AnnulusConfig, eigenstate,
                            energy_decomposition, solenoid_potential,
                            vector_potential)
from abtool.madelung import (BULK_SPAN, RHO_FLOOR, WALL_HALVINGS, AnnulusDomain,
                             Constants, DensityFloorError, WaveField,
                             circulation, decompose, gauge_transform,
                             quantum_force, quantum_potential)
from abtool import madelung, numerics
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

    @pytest.mark.parametrize("A", [None, A_SPEC], ids=["no-A", "solenoid"])
    @pytest.mark.parametrize("p", [[[0.0, 0.0], [2.0, 0.0]], [0.0, 0.0]],
                             ids=["batch", "point"])
    def test_origin_rejected_by_the_floor(self, A, p):
        # x / r and 1 / r are 0 / 0 and 1 / 0 at the origin; the floor, not
        # a numpy warning (an error in this suite), is what reaches the caller
        with pytest.raises(DensityFloorError):
            decompose(STATE, A, CFG, np.array(p))

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
        # the radii that reach R and R' and those that reach the solenoid
        # rule are one array: r = hypot(x, y) is formed once
        radii = []
        rule, parts = annulus._a_theta_over_r, annulus.ABState.radial_parts
        monkeypatch.setattr(annulus, "_a_theta_over_r",
                            lambda cfg, r: radii.append(r) or rule(cfg, r))
        monkeypatch.setattr(annulus.ABState, "radial_parts",
                            lambda state, r: radii.append(r) or parts(state, r))
        rng = np.random.default_rng(11)
        r = 1.05 + 1.9 * rng.random(400)
        th = 2 * np.pi * rng.random(400)
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        dec = decompose(STATE, A_SPEC, CFG, pts)
        assert points == {"bessel_j": 0, "bessel_j_pair": 400}
        assert len(radii) == 2 and radii[0] is radii[1]

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

    def test_potential_at_the_sample_radii(self):
        # a solenoid potential evaluated at the sample's radii is
        # vector_potential at p bit for bit, for a batch and for one point,
        # and for a solenoid other than the state's; any other callable is
        # called at p
        coef = CFG.charge / (CFG.mass * CFG.c)
        rng = np.random.default_rng(12)
        r = 1.05 + 1.9 * rng.random(50)
        th = 2 * np.pi * rng.random(50)
        pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)
        other = AnnulusConfig(B=3.0, a=1.5)
        for p in (pts, pts[0]):
            for cfg in (CFG, other):
                dec = decompose(STATE, solenoid_potential(cfg), CFG, p)
                assert dec.xi_imag.shape == p.shape
                assert np.array_equal(dec.xi_imag, coef * vector_potential(cfg, p))
            seen = []
            dec = decompose(STATE, lambda q: seen.append(q) or 0.5 * q, CFG, p)
            assert len(seen) == 1 and np.array_equal(seen[0], p)
            assert np.array_equal(dec.xi_imag, coef * (0.5 * p))

    def test_any_other_partial_of_the_potential_is_called_at_p(self):
        # only solenoid_potential's form, cfg bound positionally, shares the
        # sample's radii, and gives the lambda's xi_imag; a keyword partial
        # is called at p, which fails as calling it does (p binds to cfg),
        # not inside the shortcut
        pts = np.array([[1.5, 0.4], [-2.0, 1.1], [0.3, -2.6]])
        ref = decompose(STATE, lambda q: vector_potential(CFG, q), CFG, pts)
        dec = decompose(STATE, solenoid_potential(CFG), CFG, pts)
        assert np.array_equal(dec.xi_imag, ref.xi_imag)
        spec = functools.partial(vector_potential, cfg=CFG)
        for call in (lambda: spec(pts), lambda: decompose(STATE, spec, CFG, pts)):
            with pytest.raises(TypeError, match="multiple values for argument 'cfg'"):
                call()


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

        def densities(r):
            # on the ray at angle 1, since the split is rotation invariant
            pts = np.stack([r * math.cos(1.0), r * math.sin(1.0)], axis=-1)
            dec = decompose(STATE, A_SPEC, CFG, pts)
            half_rho = 0.5 * CFG.mass * dec.rho
            return np.stack([half_rho * np.sum(dec.v_quasi ** 2, axis=-1),
                             half_rho * np.sum(dec.w_quasi ** 2, axis=-1)],
                            axis=-1)

        rotational, radial = map(float, _energy_domain(CFG).integrate(densities,
                                                                       STATE.k))
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
        rho_fd, cross_fd = WaveField(STATE.amplitude).sample(pts, None)[:2]
        amp, grad = annulus_value_and_gradient(STATE, pts)
        cross = np.conj(amp)[:, None] * grad
        assert np.array_equal(rho_fd, (amp * np.conj(amp)).real)
        assert np.abs(cross_fd - cross).max() <= 1e-6 * np.abs(cross).max()

    def test_invalid_constants(self):
        with pytest.raises(ValueError):
            Constants(hbar=0.0)

    @pytest.mark.parametrize("kind", [Constants, AnnulusConfig])
    @pytest.mark.parametrize("name", ["hbar", "mass", "c"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 10 ** 400])
    def test_non_finite_constants(self, kind, name, value):
        # a non-finite mass made beta^2 = hbar / 2M nan or 0, unseen by any
        # other check, and an integer past the float range overflowed there
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            kind(**{name: value})

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
        val = dom.integrate(np.ones_like, 0.0)
        assert val == pytest.approx(8.0 * np.pi, rel=1e-12)

    def test_annulus_vector_integrand(self):
        def g(r):
            return np.stack([np.ones_like(r), r ** 2], axis=-1)
        area, second = AnnulusDomain(1.0, 3.0).integrate(g, 0.0)
        assert area == pytest.approx(8.0 * np.pi, rel=1e-12)
        assert second == pytest.approx(40.0 * np.pi, rel=1e-12)

    def test_annulus_one_batch_per_refinement(self):
        # the integrand is a function of r alone: at k d = BULK_SPAN the
        # first call is the GK15 nodes of the 25 initial panels graded toward
        # r = a, ending at a + d 2^-k for k = 24 ... 1, and each later call
        # one bisection, the 30 radii of both halves of a panel not yet split
        # (sin(20 r) is not resolved by those panels)
        radii = []

        def g(r):
            radii.append(r.copy())
            return np.sqrt(r - 1.0) * np.sin(20.0 * r)
        AnnulusDomain(1.0, 3.0).integrate(g, BULK_SPAN / 2.0)
        edges = [1.0, *(1.0 + 2.0 * 0.5 ** k for k in range(24, 0, -1)), 3.0]
        assert radii[0].size == 25 * 15
        assert np.allclose(radii[0], gk15_nodes(*edges), rtol=0.0, atol=1e-12)
        assert len(radii) > 1
        leaves = set(zip(edges[:-1], edges[1:]))
        for r in radii[1:]:
            split = [(a, b) for a, b in leaves if r.size == 30 and np.allclose(
                r, gk15_nodes(a, 0.5 * (a + b), b), rtol=0.0, atol=1e-12)]
            assert len(split) == 1
            (a, b), = split
            leaves -= {(a, b)}
            leaves |= {(a, 0.5 * (a + b)), (0.5 * (a + b), b)}

    @pytest.mark.parametrize("a, b, k", [
        (1.0, 3.0, 0.0), (1.0, 3.0, 0.7), (1.0, 3.0, 1.0),   # k d <= BULK_SPAN
        (1.0, 3.0, 2.0), (1.0, 3.0, math.pi / 2.0 + 3.0), (1.0, 3.0, 185.3),
        (1.0 + 2e-7, 3.0 - 2e-7, 9.0), (0.25, 0.5, 37.0), (1e-3, 1e3, 0.01)])
    def test_break_points(self, a, b, k):
        # strictly increasing inside (a, b); the bulk splits d into M equal
        # panels, each at most BULK_SPAN / k wide (up to rounding); below the
        # first bulk point the points are the wall grading a + d 2^-j,
        # j = 24 ... 1, as the rule made it alone, and at k d <= BULK_SPAN
        # they are all of it: 25 panels
        points = madelung._break_points(a, b, k)
        edges = np.array([a, *points, b])
        assert np.all(np.diff(edges) > 0.0)
        d = b - a
        bulk = max(1, math.ceil(k * d / BULK_SPAN))
        if k > 0.0:
            assert np.diff(edges).max() <= (BULK_SPAN / k) * (1.0 + 1e-14)
        graded = a + d * 0.5 ** np.arange(WALL_HALVINGS, 0, -1)
        graded = graded[(np.diff(graded, prepend=a) > 0.0) & (graded < b)]
        first = a + d / bulk
        below = np.array([p for p in points if p < first])
        assert np.array_equal(below, graded[graded < first])
        assert len(points) - below.size == bulk - 1
        if k * d <= BULK_SPAN:
            assert np.array_equal(points, graded) and len(points) + 1 == 25

    def test_finest_panel_inside_the_wall_margin(self):
        # the energy integrals start WALL_MARGIN_FRACTION d inside the walls;
        # the radial rule's finest initial panel is narrower than that inset
        assert 0.5 ** WALL_HALVINGS <= WALL_MARGIN_FRACTION

    def test_wall_singularity_does_not_settle(self):
        # (r - 1)^-1/2 is integrable but GK15 settles on it too slowly: the
        # panel at r = 1 is bisected until its halves' outer nodes would round
        # onto the wall, where the integrand divides by zero (a warning, an
        # error under this suite), and stops there with its best estimate
        radii = []

        def g(r):
            radii.append(r.copy())
            return (r - 1.0) ** -0.5
        with pytest.raises(numerics.NonConvergenceError) as err:
            AnnulusDomain(1.0, 3.0).integrate(g, 0.0)
        assert min(r.min() for r in radii) > 1.0
        exact = 2.0 * math.pi * (10.0 / 3.0) * math.sqrt(2.0)
        assert err.value.best_estimate == pytest.approx(exact, rel=1e-8)
        assert 0.0 < err.value.error_bound <= 1e-7

    def test_annulus_few_ulps_wide(self):
        # break points that round onto a or onto each other are dropped
        a = 1.0
        b = a + 4.0 * math.ulp(a)
        assert AnnulusDomain(a, b).integrate(np.ones_like, 0.0) == pytest.approx(
            math.pi * (b * b - a * a), rel=1e-12)
