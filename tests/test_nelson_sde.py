"""Drift fields, the Euler-Maruyama sampler, and its goodness-of-fit
statistics.  Full-budget sampling lives in the acceptance suite; these runs
are sized for seconds, with the statistics calibrated on iid draws from the
inverse-CDF oracle sampler."""
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest

from abtool import sde
from abtool.annulus import AnnulusConfig, eigenstate, solenoid_potential
from abtool.madelung import RHO_FLOOR
from abtool.numerics import RandomStream, bessel_j, bessel_j_zero, bessel_log_table
from abtool.sde import (SdeConfig, Trajectory, angular_uniformity_test,
                        drifts, ergodic_angular_momentum, radial_target,
                        rejection_fraction, simulate, stationarity_test,
                        target_radial_sampler)
import pins
from oracles import analytic_field, annulus_value_and_gradient

CFG = AnnulusConfig()
STATE = eigenstate(CFG, 1, 1)
A_SPEC = solenoid_potential(CFG)


def on_x_axis(r):
    """Radii r as one trajectory on the positive x axis; its radii are r bit
    for bit, since hypot(r, 0) == r."""
    return [Trajectory(positions=np.column_stack([r, 0 * r]))]


def on_unit_circle(theta):
    """Angles theta as one trajectory of points on the unit circle."""
    return [Trajectory(positions=np.column_stack([np.cos(theta), np.sin(theta)]))]


def small_run(seed=7, steps=4000, n_traj=8, burn_in=500):
    return simulate(STATE, SdeConfig(dt=1e-3, steps=steps, burn_in=burn_in,
                                     n_trajectories=n_traj, seed=seed))


class TestSdeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SdeConfig(dt=0.0)
        with pytest.raises(ValueError):
            SdeConfig(burn_in=10, steps=10)
        with pytest.raises(ValueError):
            SdeConfig(n_trajectories=0)
        for seed in (-1, 2 ** 64):
            with pytest.raises(ValueError):
                SdeConfig(seed=seed)
        assert SdeConfig(seed=2 ** 64 - 1).seed == 2 ** 64 - 1

    @pytest.mark.parametrize("dt", [math.nan, math.inf, 10 ** 400])
    def test_non_finite_dt(self, dt):
        # accepted, nan or inf aborted every trajectory without an error, and
        # an integer past the float range overflowed in simulate
        with pytest.raises(ValueError, match="^dt must be finite"):
            SdeConfig(dt=dt)

    @pytest.mark.parametrize("dt,stride", [
        (0.9, 22),          # about 20 time units
        (0.1, 38),          # capped at a 400th of the 15200 pooled samples
        (5e-324, 38),       # capped, where 20 / dt is inf
    ])
    def test_chi2_thin(self, dt, stride):
        cfg = SdeConfig(dt=dt, steps=2000, burn_in=100, n_trajectories=8)
        assert sde.chi2_thin(cfg) == stride


class TestDrifts:
    def test_plane_wave(self):
        k0 = 1.7

        def amplitude(p):
            return np.exp(1j * k0 * np.asarray(p, float)[..., 0])

        def gradient(p):
            return (1j * k0 * amplitude(p))[..., None]

        pw = analytic_field(amplitude, gradient)
        out = drifts(pw, None, CFG, np.array([0.3]))
        assert out["forward"][0] == pytest.approx(k0, rel=1e-12)
        assert out["backward"][0] == pytest.approx(k0, rel=1e-12)

    def test_osmotic_vanishes_at_density_peak(self):
        # locate the density maximum radius with a dense-grid oracle
        rg = np.linspace(CFG.a + 1e-6, CFG.b - 1e-6, 400_001)
        r_star = rg[np.argmax(STATE.radial_density(rg))]
        out = drifts(STATE, A_SPEC, CFG, np.array([r_star, 0.0]))
        u = 0.5 * (out["forward"] - out["backward"])
        assert abs(u[0]) <= 1e-4          # radial component ~ grid resolution
        # the full drift is then purely tangential
        b = out["forward"]
        assert abs(b[0]) <= 1e-4
        assert b[1] == pytest.approx(STATE.m * CFG.hbar / (CFG.mass * r_star),
                                     rel=1e-6)

    def test_forward_backward_identities(self):
        pts = [np.array([1.3, 0.2]), np.array([2.6, -0.9]),
               np.array([-1.7, 1.4])]
        from abtool.madelung import decompose
        for p in pts:
            out = drifts(STATE, A_SPEC, CFG, p)
            dec = decompose(STATE, A_SPEC, CFG, p)
            assert np.abs(out["forward"] + out["backward"]
                          - 2.0 * dec.eta).max() <= 1e-12
            assert np.abs(out["forward"] - out["backward"]
                          - 2.0 * (-dec.xi_real)).max() <= 1e-12


class TestSimulate:
    def test_deterministic(self):
        t1 = small_run(seed=11)
        t2 = small_run(seed=11)
        for a, b in zip(t1, t2):
            assert np.array_equal(a.positions, b.positions)
            assert a.rejected_steps == b.rejected_steps

    def test_seed_changes_output(self):
        t1 = small_run(seed=11)
        t2 = small_run(seed=12)
        assert not np.array_equal(t1[0].positions, t2[0].positions)

    def test_positions_inside_domain(self):
        for t in small_run():
            r = t.radii()
            assert np.all(r > CFG.a)
            assert np.all(r < CFG.b)
            assert np.all(STATE.density(t.positions) > 0.0)

    def test_retained_length_and_metadata(self):
        cfg = SdeConfig(dt=1e-3, steps=3000, burn_in=600, n_trajectories=3,
                        seed=2)
        out = simulate(STATE, cfg)
        assert len(out) == 3
        for t in out:
            assert isinstance(t, Trajectory)
            assert t.positions.shape == (2400, 2)
            assert not t.aborted

    def test_trajectory_independent_of_ensemble_size(self, monkeypatch):
        # starts next to the inner wall make every trajectory draw from its
        # retry stream, so both of its streams are compared
        z0 = (CFG.a + 1e-12) * np.exp(2j * np.pi * np.arange(4) / 4)
        runs = []
        for n_traj in (3, 4):
            start_at(monkeypatch, z0[:n_traj])
            runs.append(simulate(STATE, SdeConfig(
                dt=1e-3, steps=3000, burn_in=600, n_trajectories=n_traj, seed=9)))
        for three, four in zip(*runs):
            assert three.rejected_steps > 0
            assert np.array_equal(three.positions, four.positions)
            assert three.rejected_steps == four.rejected_steps

    def test_rejects_a_bare_wave_field(self):
        field = analytic_field(STATE.amplitude,
                               lambda p: annulus_value_and_gradient(STATE, p)[1])
        with pytest.raises(TypeError, match="ABState"):
            simulate(field, SdeConfig(steps=10, burn_in=0, n_trajectories=1))

    def test_zero_mean_angular_displacement_without_drift(self):
        # B = 0, m = 0: no angular drift, displacement sums to zero in law
        cfg0 = AnnulusConfig(B=0.0)
        state0 = eigenstate(cfg0, 0, 1)
        out = simulate(state0, SdeConfig(dt=1e-3, steps=6000, burn_in=500,
                                         n_trajectories=24, seed=5))
        total = []
        for t in out:
            ang = np.unwrap(t.angles())
            total.append(ang[-1] - ang[0])
        total = np.array(total)
        stderr = total.std(ddof=1) / math.sqrt(len(total))
        assert abs(total.mean()) <= 4.0 * stderr

    def test_rejections_are_rare(self):
        cfg = SdeConfig(dt=1e-3, steps=4000, burn_in=500, n_trajectories=8,
                        seed=7)
        out = simulate(STATE, cfg)
        assert rejection_fraction(out, cfg) < 0.01


TRAJECTORIES = pins.PinSet("trajectories")


def recorded(run, *args):
    """The producer of `run(*args)`'s trajectory record."""
    return lambda: pins.trajectories(run(*args))


def short_run(mn, n_traj, seed):
    return simulate(eigenstate(CFG, *mn), SdeConfig(
        dt=1e-3, steps=600, burn_in=100, n_trajectories=n_traj, seed=seed))


def order_zero_run():
    # nu = 0, (m, n) = (0, 1) without flux: the Bessel kernels and the
    # table lookup at order 0, over enough steps to reject near r = a
    return simulate(eigenstate(AnnulusConfig(B=0.0), 0, 1), SdeConfig(
        dt=1e-3, steps=2000, burn_in=200, n_trajectories=16, seed=21))


def halving_cascade_run():
    # one rounding unit above r = a: every trajectory redraws from its
    # retry stream through several halvings on its first steps
    with pytest.MonkeyPatch.context() as m:
        start_at(m, np.nextafter(CFG.a, np.inf) * np.exp(2j * np.pi * np.arange(5) / 5))
        return simulate(STATE, SdeConfig(dt=1e-3, steps=300, burn_in=0,
                                         n_trajectories=5, seed=8))


WALL_ANGLES = np.exp(1j * np.array([0.0, 0.5 * np.pi, np.pi]))


def aborted_run(mn, seed):
    # 20 halvings are too few to recover one rounding unit above r = a,
    # so the wall starts abort on their first step (21 levels of 5
    # draws) and stay where they are, while the mid-annulus starts
    # between them run on
    z0 = np.empty(6, dtype=complex)
    z0[0::2] = np.nextafter(CFG.a, np.inf) * WALL_ANGLES
    z0[1::2] = 0.5 * (CFG.a + CFG.b) * WALL_ANGLES
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sde, "_HALVING_LIMIT", 20)
        start_at(m, z0)
        return simulate(eigenstate(CFG, *mn), SdeConfig(
            dt=1e-3, steps=400, burn_in=0, n_trajectories=6, seed=seed))


def short_run_cases(cases):
    """The pins of short runs of (m, n), n_trajectories and seed; a test id
    leaves the digest to the ledger, so a moved pin keeps its id."""
    params = []
    for i, (mn, n_traj, seed) in enumerate(cases):
        name = TRAJECTORIES.add(f"short_run_m{mn[0]}_n{mn[1]}_seed{seed}",
                                recorded(short_run, mn, n_traj, seed))
        params.append(pytest.param(name, id=f"mn{i}-{n_traj}-{seed}-rejected{i}"))
    return params


def aborted_cases(cases):
    """The pins of aborted runs of (m, n) and seed."""
    params = []
    for i, (mn, seed) in enumerate(cases):
        name = TRAJECTORIES.add(f"aborted_m{mn[0]}_n{mn[1]}_seed{seed}",
                                recorded(aborted_run, mn, seed))
        params.append(pytest.param(name, mn, seed, id=f"mn{i}-{seed}"))
    return params


SHORT_RUNS = short_run_cases([((1, 1), 5, 11), ((1, 1), 4, 12), ((1, 1), 4, 13),
                              ((1, 2), 6, 3), ((0, 1), 6, 4), ((1, 5), 7, 5),
                              ((2, 1), 6, 6)])
ABORTED_RUNS = aborted_cases([((1, 1), 8), ((1, 5), 5)])
TRAJECTORIES.add("order_zero_run", recorded(order_zero_run))
TRAJECTORIES.add("halving_cascade", recorded(halving_cascade_run))


class TestPinnedBits:
    """Sampler output pinned bit for bit.  Each run crosses two 128- and
    256-step noise chunks and ends on a short one; the digests were computed
    before the step kernel and the noise draw were rewritten to reuse their
    buffers, which must not move a bit.  Each trajectory's rejected count is
    a ledger value."""

    @pytest.mark.parametrize("name", SHORT_RUNS)
    def test_short_runs(self, name):
        TRAJECTORIES.check(name)

    def test_order_zero_run(self):
        TRAJECTORIES.check("order_zero_run")

    def test_halving_cascade_from_the_inner_wall(self):
        TRAJECTORIES.check("halving_cascade")

    @pytest.mark.parametrize("name,mn,seed", ABORTED_RUNS)
    def test_aborted_trajectories_freeze(self, name, mn, seed):
        out = aborted_run(mn, seed)
        assert [t.aborted for t in out] == [True, False] * 3
        assert [t.rejected_steps for t in out] == [105, 0] * 3
        for t, z in zip(out[0::2], np.nextafter(CFG.a, np.inf) * WALL_ANGLES):
            assert np.all(t.positions == [z.real, z.imag])
        TRAJECTORIES.check(name, pins.trajectories(out))

    def test_retry_blocks_keep_the_bits(self, monkeypatch):
        # one redraw per refill against the default block of the other
        # tests: the (1, 5) run and the inner-wall cascade, whose 205
        # redraws a trajectory cross several default refills
        monkeypatch.setattr(sde, "_RETRY_BLOCK", 2)
        TRAJECTORIES.check("short_run_m1_n5_seed5")
        TRAJECTORIES.check("halving_cascade")


class TestRadialTarget:
    def test_cdf_monotone_normalized(self):
        rg, pdf, cdf = radial_target(STATE)
        assert cdf[0] == 0.0
        assert cdf[-1] == pytest.approx(1.0, abs=1e-14)
        assert np.all(np.diff(cdf) >= 0.0)

    def test_oracle_sampler_matches_target_moments(self):
        samples = target_radial_sampler(STATE, RandomStream(21), 200_000)
        rg, pdf, _ = radial_target(STATE)
        mean_target = np.trapezoid(rg * pdf, rg)
        assert samples.mean() == pytest.approx(mean_target, abs=3e-3)

    def test_ks_of_oracle_samples_is_small(self):
        samples = target_radial_sampler(STATE, RandomStream(22), 100_000)
        assert stationarity_test(on_x_axis(samples), STATE)["ks_distance"] <= 0.01


class TestStationarityStatistics:
    def test_oracle_calibration_p_values(self):
        # iid draws from the target: p uniform, > 0.01 in at least 98 of 100
        hits = 0
        for rep in range(100):
            samples = target_radial_sampler(STATE, RandomStream(1000 + rep),
                                            20_000)
            out = stationarity_test(on_x_axis(samples), STATE, bins=40)
            if out["p_value"] > 0.01:
                hits += 1
        assert hits >= 98

    def test_power_against_wrong_target(self):
        wrong = eigenstate(CFG, 1, 2)     # n = 2 radial profile
        samples = target_radial_sampler(STATE, RandomStream(77), 20_000)
        out = stationarity_test(on_x_axis(samples), wrong, bins=40)
        assert out["p_value"] < 1e-6
        assert out["ks_distance"] > 0.05

    def test_expected_counts_enforced(self, monkeypatch):
        samples = target_radial_sampler(STATE, RandomStream(5), 10_000)
        binned, real = [], np.histogram

        def histogram(a, bins):
            binned.append(len(bins) - 1)
            return real(a, bins=bins)

        monkeypatch.setattr(np, "histogram", histogram)
        stationarity_test(on_x_axis(samples), STATE, bins=4000)
        monkeypatch.undo()
        # bins shrink so each keeps >= 20 expected
        assert binned == [10_000 // 20]

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            stationarity_test(on_x_axis(np.ones(100)), STATE)

    def test_ks_shrinks_with_sample_size(self):
        # KS of iid samples scales like 1/sqrt(N): median over 10 seeds
        # shrinks by at least 1.5x when N grows 4x
        small, large = [], []
        for rep in range(10):
            s1 = target_radial_sampler(STATE, RandomStream(300 + rep), 20_000)
            s2 = target_radial_sampler(STATE, RandomStream(400 + rep), 80_000)
            small.append(stationarity_test(on_x_axis(s1), STATE)["ks_distance"])
            large.append(stationarity_test(on_x_axis(s2), STATE)["ks_distance"])
        assert np.median(small) / np.median(large) >= 1.5

    def test_angular_uniformity_calibrated(self):
        rng = RandomStream(55)
        angles = (rng.uniforms(20_000) * 2.0 - 1.0) * np.pi
        out = angular_uniformity_test(on_unit_circle(angles), bins=16)
        assert out["p_value"] > 0.01

    def test_angular_uniformity_detects_clustering(self):
        rng = RandomStream(56)
        angles = (rng.uniforms(20_000) - 0.5) * np.pi   # half circle only
        out = angular_uniformity_test(on_unit_circle(angles), bins=16)
        assert out["p_value"] < 1e-10


class TestErgodicAverage:
    def test_small_run_matches_theorem(self):
        out = small_run(seed=3, steps=6000, n_traj=8, burn_in=1000)
        est = ergodic_angular_momentum(out, STATE)
        target = CFG.hbar * (STATE.m + STATE.lam)
        assert est["value"] == pytest.approx(target, rel=1e-10)
        assert est["stderr"] >= 0.0

    def test_zero_field_gives_m(self):
        cfg0 = AnnulusConfig(B=0.0)
        state0 = eigenstate(cfg0, 1, 1)
        out = simulate(state0, SdeConfig(dt=1e-3, steps=4000, burn_in=500,
                                         n_trajectories=4, seed=9))
        est = ergodic_angular_momentum(out, state0)
        assert est["value"] == pytest.approx(1.0, rel=1e-10)

    def test_thinning_changes_nothing_for_constant_observable(self):
        out = small_run(seed=3, steps=4000, n_traj=4, burn_in=500)
        full = ergodic_angular_momentum(out, STATE, thin=1)
        thin = ergodic_angular_momentum(out, STATE, thin=7)
        assert thin["value"] == pytest.approx(full["value"], rel=1e-9)


# (m, B) giving each order nu = |m + lambda| with lambda = -B/2 (a = 1)
ORDER_STATES = {0.0: (0, 0.0), 0.25: (1, 1.5), 0.5: (1, 1.0), 1.5: (2, 1.0),
                3.5: (-3, 1.0), 12.5: (-12, 1.0)}
TABLE_CASES = [(nu, n) for nu in (0.0, 0.25, 0.5, 1.5, 3.5) for n in (1, 2, 5)]
# (r - a)^{25/2} keeps R^2 below the floor over a band 0.08 wide at the wall
EDGE_CASES = TABLE_CASES + [(12.5, 1)]


def order_state(nu, n):
    m, B = ORDER_STATES[nu]
    state = eigenstate(AnnulusConfig(B=B), m, n)
    assert state.nu == pytest.approx(nu, abs=1e-15)
    return state


def series_error(nu, x):
    """|bessel_j(nu, x) - J_nu(x)| with J_nu from mpmath."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    exact = np.array([float(mp.besselj(nu, mp.mpf(float(v)))) for v in x])
    return np.abs(bessel_j(nu, x) - exact)


def series_rounding(state, r, zeros):
    """Rounding of |R| that either route inherits from the series J.

    The exact route evaluates the series at x = k (r - a): error e(x).  The
    table puts its pole at the series' zero j, which sits e(j) / |J'(j)|
    from the true one, so its |J| is off by |J(x)| e(j) / (|J'(j)| |x - j|)
    (e(j) next to the node).  e is measured against mpmath."""
    x = np.clip(state.k * (r - state.cfg.a), 0.0, state.tau)
    j = zeros[np.abs(x[:, None] - zeros).argmin(axis=1)]
    slope = np.abs(bessel_j(state.nu + 1.0, j))          # |J'(j)|
    gap = np.abs(x - j)
    shift = np.full_like(x, np.inf)       # on the series' zero: no bound
    off = gap > 0.0
    shift[off] = (np.abs(bessel_j(state.nu, x[off]))
                  * series_error(state.nu, j[off]) / (slope[off] * gap[off]))
    return state.norm * (series_error(state.nu, x) + shift)


def near_wall_and_nodes(state, rel_offsets, rng, uniform=200):
    """Radii: uniform in (a, b) plus both sides of the inner wall and of
    every node r = a + j_k / k at the given offsets (fractions of d)."""
    cfg = state.cfg
    nodes = np.array([cfg.a] + [cfg.a + bessel_j_zero(state.nu, i) / state.k
                                for i in range(1, state.n + 1)])
    off = cfg.d * np.asarray(rel_offsets)
    r = np.concatenate([rng.uniform(cfg.a, cfg.b, uniform)]
                       + [node + sign * off for node in nodes for sign in (-1, 1)])
    return r, nodes


def kernel_on(state, dt, z):
    """A step kernel sized for the points z, with its (ok, step) on them."""
    kernel = sde._SeparableStepKernel(state, dt, z.size)
    ok, step = np.empty(z.size, dtype=bool), np.empty(z.size, dtype=complex)
    kernel(z, ok, step)
    return kernel, ok, step


def both_sides_of_the_annulus(state):
    """97 points on both sides of the annulus, fixed by a seed."""
    cfg = state.cfg
    rng = np.random.default_rng(17)
    r = rng.uniform(cfg.a - 0.1, cfg.b + 0.1, 97)
    return r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, r.size))


# ok and step where ok of `kernel_on` at the 97 points of
# `both_sides_of_the_annulus`, by (nu, n) of `order_state`; the nu = 1/2
# digests were computed before the kernel kept its scratch.  At nu = 0 the
# order / x term adds +0.0, and (1/4, 2) takes the row of pole terms at an
# order that is not a half-integer
STEP_FACTORS = pins.PinSet("step_factors")
STEP_CASES = [(0.5, 1), (0.5, 5), (0.0, 1), (0.25, 2)]


def step_factors_at(nu, n):
    state = order_state(nu, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        _, ok, step = kernel_on(state, 1e-3, both_sides_of_the_annulus(state))
    return pins.step_factors(ok, step)


for case in STEP_CASES:
    STEP_FACTORS.add("nu{}_n{}".format(*case), partial(step_factors_at, *case))


class TestSeparableKernel:
    """The table kernel against the exact series route `radial_parts`."""

    @pytest.mark.parametrize("nu,n", TABLE_CASES)
    def test_drift_matches_exact_route(self, nu, n):
        state = order_state(nu, n)
        cfg = state.cfg
        rng = np.random.default_rng(int(40 * nu) + n)
        r, nodes = near_wall_and_nodes(state, np.logspace(-6, -1, 16) * 1.0001, rng)
        r = r[(r > cfg.a) & (r < cfg.b)]
        r = r[np.abs(r[:, None] - nodes).min(axis=1) > 1e-6 * cfg.d]
        z = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, r.size))
        kernel, ok, step = kernel_on(state, 1.0, z)
        rr, drr = state.radial_parts(r)
        valid = rr * rr > 10.0 * RHO_FLOOR    # nu = 7/2 dips below it at the wall
        assert ok[valid].all()
        drift = (step - 1.0) * z
        ratio = drr / rr
        coef = cfg.hbar / cfg.mass
        exact = coef * (ratio + 1j * state.m / r) * z / r
        # where the series carries rounding (next to a node, x ~ 10 and
        # beyond) each route inherits it, |R'/R| times the relative rounding
        # of R; the factor 2 covers the second-order terms
        inherited = series_rounding(state, r, kernel.table.zeros) / np.abs(rr)
        tol = (1e-9 * coef * (state.k + np.abs(ratio))
               + 2.0 * coef * np.abs(ratio) * inherited)
        assert np.all((np.abs(drift - exact) <= tol)[valid])

    @pytest.mark.parametrize("nu,n", TABLE_CASES)
    def test_validity_matches_density_floor(self, nu, n):
        state = order_state(nu, n)
        cfg = state.cfg
        rng = np.random.default_rng(int(40 * nu) + n + 100)
        r, _ = near_wall_and_nodes(state, np.logspace(-16, -1, 46), rng)
        r = r[(r > cfg.a - 0.1) & (r < cfg.b + 0.1)]
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel, ok, _ = kernel_on(state, 1e-3, r.astype(complex))
        rho = state.radial_parts(r)[0] ** 2
        inside = (r > cfg.a) & (r < cfg.b)
        exact = inside & (rho > RHO_FLOOR)
        # where the exact rho is within 1e-6 of the floor, or within the
        # series rounding of either route (twice, as above) of it, the
        # decision itself is uncertain
        err = 2.0 * series_rounding(state, r[inside], kernel.table.zeros)
        rho_in = rho[inside]
        rho_err = err * (2.0 * np.sqrt(rho_in) + err)
        decided = ~inside
        decided[inside] = np.abs(rho_in - RHO_FLOOR) > 1e-6 * RHO_FLOOR + rho_err
        assert np.array_equal(ok[decided], exact[decided])
        if nu == 3.5:
            # (r - a)^{7/2} falls below the floor well inside the annulus
            assert np.count_nonzero(inside & ~exact & decided) >= 5

    @pytest.mark.parametrize("nu,n", EDGE_CASES)
    def test_validity_edges_match_the_exact_test(self, nu, n):
        state = order_state(nu, n)
        cfg = state.cfg
        bits = sde._valid_edges(state).view(np.int64)
        around = (bits[:, None] + np.arange(-64, 65)).ravel().view(np.float64)
        r = np.concatenate([around, np.linspace(cfg.a - 0.1, cfg.b + 0.1, 20_001)])
        with np.errstate(divide="ignore", invalid="ignore"):
            _, ok, _ = kernel_on(state, 1e-3, r.astype(complex))
        exact = (r > cfg.a) & (r < cfg.b) & (state.radial_parts(r)[0] ** 2 > RHO_FLOOR)
        ulps = np.abs(r.view(np.int64)[:, None] - bits).min(axis=1)
        differ = (ok != exact) & (ulps > 8)
        # past 8 ulps from an edge the two differ only where the exact test
        # flickers: next to a node at x = k (r - a) of 7 to 10, J's own
        # rounding (twice, as above) reaches the floor's R
        rr = state.radial_parts(r[differ])[0]
        err = 2.0 * state.norm * series_error(nu, state.k * (r[differ] - cfg.a))
        assert np.all(np.abs(rr * rr - RHO_FLOOR) <= err * (2.0 * np.abs(rr) + err))

    @pytest.mark.parametrize("nu,n", [(0.5, 1), (3.5, 5)])
    def test_step_keeps_the_complex_evaluation_order(self, nu, n):
        # the fused step is bit for bit the complex expression it replaced,
        # which is what keeps every trajectory's bits
        state = order_state(nu, n)
        cfg = state.cfg
        rng = np.random.default_rng(9)
        r = rng.uniform(cfg.a + 0.05 * cfg.d, cfg.b, 300)
        z = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, r.size))
        kernel, ok, step = kernel_on(state, 1e-3, z)
        assert ok.all()
        x = (np.abs(z) - cfg.a) * state.k
        dlog = kernel.table.lookup(x, np.empty(z.size), kernel.table.scratch(z.size))
        inv_r = 1.0 / np.abs(z)
        expected = (kernel.radial * dlog + 1j * kernel.angular * inv_r) * inv_r + 1.0
        assert np.array_equal(step.view(np.int64), expected.view(np.int64))

    @pytest.mark.parametrize("nu,n", STEP_CASES)
    def test_interleaved_kernels_keep_their_steps(self, nu, n):
        # two kernels on one state share its cached table; each one's
        # scratch must stay its own, whatever the other does in between
        state = order_state(nu, n)
        z = both_sides_of_the_annulus(state)
        first = sde._SeparableStepKernel(state, 1e-3, z.size)
        second = sde._SeparableStepKernel(state, 1e-3, z.size)
        out = [(np.empty(z.size, dtype=bool), np.empty(z.size, dtype=complex))
               for _ in range(3)]
        with np.errstate(divide="ignore", invalid="ignore"):
            first(z, *out[0])
            second(z[::-1].copy(), *out[1])
            first(z, *out[1])
            second(z[::-1].copy(), *out[2])
        for ok, step in out[:2]:
            STEP_FACTORS.check(f"nu{nu}_n{n}", pins.step_factors(ok, step))

    @pytest.mark.parametrize("nu,n", STEP_CASES)
    def test_a_point_keeps_its_bits_in_any_call(self, nu, n):
        # simulate tests valid proposals and frozen positions again in calls
        # on the whole ensemble, so a point's ok and step must not depend on
        # the other points of its call; at n > 1 they pass the row of poles
        state = order_state(nu, n)
        z = both_sides_of_the_annulus(state)
        with np.errstate(divide="ignore", invalid="ignore"):
            _, ok, step = kernel_on(state, 1e-3, z)
            STEP_FACTORS.check(f"nu{nu}_n{n}", pins.step_factors(ok, step))
            for size in (1, 40):
                for lo in [*range(0, z.size - size, size), z.size - size]:
                    _, ok_c, step_c = kernel_on(state, 1e-3, z[lo:lo + size])
                    assert ok_c.tobytes() == ok[lo:lo + size].tobytes()
                    assert step_c.tobytes() == step[lo:lo + size].tobytes()

    def test_drift_matches_decompose_route(self):
        # b = v + u from `drifts`, the decompose route, which reads no table
        rng = np.random.default_rng(3)
        r = rng.uniform(CFG.a + 1e-3 * CFG.d, CFG.b - 1e-3 * CFG.d, 300)
        z = r * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, r.size))
        _, ok, step = kernel_on(STATE, 1e-3, z)
        b = drifts(STATE, A_SPEC, CFG, np.stack([z.real, z.imag], axis=1))["forward"]
        step_d = 1.0 + 1e-3 * (b[:, 0] + 1j * b[:, 1]) / z
        assert ok.all()
        assert np.abs(step - step_d).max() <= 1e-9 * np.abs(step - 1.0).max()


def start_at(monkeypatch, z0):
    """Make simulate start from the complex points z0 instead of its draws,
    with the kernel's ok and step of them filled in as a start leaves them."""
    def start(state, kernel, stream, ok, step):
        z = np.array(z0, dtype=complex)
        kernel(z, ok, step)
        return z

    monkeypatch.setattr(sde, "_start_positions", start)


class TestStartAndCascade:
    @pytest.mark.parametrize("gap", [7e-8, 1e-12, 0.0])
    def test_start_next_to_inner_wall_recovers(self, monkeypatch, gap):
        # gap 0 means one rounding unit above r = a
        r0 = CFG.a + gap if gap else np.nextafter(CFG.a, np.inf)
        start = r0 * np.exp(2j * np.pi * np.arange(16) / 16)
        start[0] = r0                     # exactly r0 from the wall
        start_at(monkeypatch, start)
        cfg = SdeConfig(dt=1e-3, steps=60, burn_in=10, n_trajectories=16, seed=4)
        out = simulate(STATE, cfg)
        assert not any(t.aborted for t in out)
        for t in out:
            r = t.radii()
            assert np.all((r > CFG.a) & (r < CFG.b))

    def test_start_off_the_mid_radius_node(self):
        # nu = 1/2, n = 2 has a node at r = (a + b)/2; a start there costs
        # each trajectory a deep halving cascade on its first step
        state = eigenstate(CFG, 1, 2)
        cfg = SdeConfig(dt=1e-3, steps=200, burn_in=100, n_trajectories=16, seed=4)
        out = simulate(state, cfg)
        assert not any(t.aborted for t in out)
        assert rejection_fraction(out, cfg) < 0.01


class TestSamplerMemory:
    def test_retained_positions_held_once(self):
        cfg = SdeConfig(dt=1e-3, steps=2000, burn_in=1000, n_trajectories=64, seed=6)
        retained = 64 * 1000 * 2 * 8
        # the radial table is a per-state cache, not memory of the run; the
        # valid edges and the radial target are built inside the run whatever
        # ran before, so the peak is the same in any test order
        bessel_log_table(STATE.nu, STATE.n)
        sde._valid_edges.cache_clear()
        sde.radial_target.cache_clear()
        tracemalloc.start()
        try:
            out = simulate(STATE, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(t.positions.nbytes for t in out) == retained
        assert peak < 2 * retained


class TestStationaritySingleTarget:
    def test_one_target_build_same_bits(self, monkeypatch):
        samples = target_radial_sampler(STATE, RandomStream(31), 20_000)
        builds = []
        real = sde.radial_target

        def counting(*args, **kwargs):
            builds.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(sde, "radial_target", counting)
        out = stationarity_test(on_x_axis(samples), STATE, bins=40, thin=3)
        monkeypatch.undo()
        assert len(builds) == 1
        # the same figures from targets built separately for each statistic
        rg, _, cdf = radial_target(STATE)
        xs = np.sort(samples)
        f = np.interp(xs, rg, cdf)
        n = xs.size
        assert out["ks_distance"] == max(np.abs(np.arange(1, n + 1) / n - f).max(),
                                         np.abs(f - np.arange(0, n) / n).max())
        thinned = samples[::3]
        edges = np.interp(np.linspace(0.0, 1.0, 41), cdf, rg)
        counts, _ = np.histogram(thinned, bins=edges)
        expected = thinned.size / 40
        assert out["chi2"] == float(((counts - expected) ** 2 / expected).sum())


class TestRadialTargetCache:
    def test_built_once_per_state(self, monkeypatch):
        # a state no other test uses, so its target is not cached yet
        state = eigenstate(AnnulusConfig(b=3.5), 1, 1)
        grids = []
        real = type(state).radial_density

        def counting(self, r):
            grids.append(np.size(r))
            return real(self, r)

        monkeypatch.setattr(type(state), "radial_density", counting)
        out = simulate(state, SdeConfig(dt=1e-3, steps=1200, burn_in=200,
                                        n_trajectories=16, seed=3))
        stationarity_test(out, state, bins=20)
        assert grids.count(8193) == 1

    def test_read_only(self):
        for arr in radial_target(STATE):
            with pytest.raises(ValueError):
                arr[0] = 0.0
