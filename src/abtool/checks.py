"""Self-verification suite: every release-gating property of the package,
each evaluated at its stated tolerance with fixed seeds.

`run_all(sde_cfg)` returns one CheckResult per criterion; the CLI `check`
subcommand turns them into a manifest and an exit code, and the test suite
asserts each one individually.  Everything here is deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import annulus, madelung, models, sde, wavepackets
from .annulus import (AnnulusConfig, diffusion_velocity, eigenstate,
                      flux_parameter, gauge_family, magnetic_force,
                      solenoid_current_check, solenoid_potential)
from .madelung import circulation, decompose, gauge_transform
from .numerics import RandomStream, bessel_j_zero, curl_z_fd, integrate_1d
from .wavepackets import AIRY_WINDOW, GaussianPacketConfig, airy_wavefield

GRID_M = (-2, -1, 0, 1, 2)
GRID_N = (1, 2)
GRID_LAMBDA = (0.0, -0.5, 0.25)


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def line(self):
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.name}"


def _config_for_lambda(lam):
    # lambda = -q B a^2 / (2 hbar c); natural units with a = 1 give B = -2 lambda
    return AnnulusConfig(B=-2.0 * lam)


def _grid_states():
    for lam in GRID_LAMBDA:
        cfg = _config_for_lambda(lam)
        for m in GRID_M:
            for n in GRID_N:
                yield eigenstate(cfg, m, n)


def check_angular_momentum():
    """<L_z,tot> = hbar (m + lambda) and <L_z^(zeta)> = hbar lambda by
    quadrature over the full (m, n, lambda) grid, within 1e-8 hbar."""
    tol = 1e-8
    worst = {"total": 0.0, "osmotic": 0.0, "canonical": 0.0}
    for state in _grid_states():
        hbar = state.cfg.hbar
        mom = annulus.angular_momenta(state)
        worst["total"] = max(worst["total"],
                             abs(mom["total"] - hbar * (state.m + state.lam)) / hbar)
        worst["osmotic"] = max(worst["osmotic"],
                               abs(mom["osmotic"] - hbar * state.lam) / hbar)
        worst["canonical"] = max(worst["canonical"],
                                 abs(mom["canonical"] - hbar * state.m) / hbar)
    passed = all(v <= tol for v in worst.values())
    return CheckResult("angular momentum theorem", passed,
                       {"tolerance": tol,
                        **{f"worst_{k}": v for k, v in worst.items()}})


def _annulus_sample_points(cfg, count, seed):
    stream = RandomStream(seed)
    u = stream.uniforms(2 * count).reshape(2, count)
    margin = 1e-3 * cfg.d
    r = cfg.a + margin + (cfg.d - 2 * margin) * u[0]
    th = 2.0 * np.pi * u[1]
    return np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)


def check_orthogonality():
    """Gamma . Delta = 0 at 1e4 points per annulus state and hydrogen
    J . D = 0 at 1e3 points per state with n <= 3, both to 1e-12.

    An identity for separable states: for R(r) e^{i m theta} (and the
    hydrogen R Theta e^{i m phi}) Gamma and J point along the angle and
    Delta and D have no angular component, whatever R, Theta, m, the flux
    or the normalization.  So a fault in R, in the order nu, in the energy
    or in the sign or size of A leaves this check passing."""
    worst_ann = 0.0
    for state in _grid_states():
        cfg = state.cfg
        pts = _annulus_sample_points(cfg, 10_000, seed=42)
        dec = decompose(state, solenoid_potential(cfg), cfg, pts)
        dots = np.abs(np.sum(dec.gamma * dec.delta, axis=-1))
        worst_ann = max(worst_ann, float(dots.max()))

    worst_hyd = max(models.hydrogen_orthogonality().values())
    passed = worst_ann <= 1e-12 and worst_hyd <= 1e-12
    return CheckResult("quasi-current / diffusion-current orthogonality", passed,
                       {"tolerance": 1e-12, "worst_annulus": worst_ann,
                        "worst_hydrogen": worst_hyd})


def check_circulation_vorticity():
    """Circulation of the outside diffusion velocity is 2 pi lambda hbar / M
    on any enclosing loop (three radii, 1e-9), zero on a non-enclosing loop,
    and its finite-difference curl is 0 outside / -qB/Mc inside (1e-6)."""
    cfg = AnnulusConfig()
    lam = flux_parameter(cfg)
    target = 2.0 * np.pi * lam * cfg.hbar / cfg.mass
    dv = lambda pts: diffusion_velocity(cfg, pts)
    circ_errs = []
    for rad in (1.5, 2.0, 2.75):
        got = circulation(dv, (0.0, 0.0), rad)
        circ_errs.append(abs(got - target))
    spread = max(circ_errs)
    non_enclosing = abs(circulation(dv, (2.0, 0.0), 0.3))

    omega = -cfg.charge * cfg.B / (cfg.mass * cfg.c)
    curl_out = abs(curl_z_fd(dv, np.array([1.3, 1.1]), 1e-2))
    curl_in = abs(curl_z_fd(dv, np.array([0.3, 0.2]), 1e-2) - omega)
    passed = (spread <= 1e-9 and non_enclosing <= 1e-9
              and curl_out <= 1e-6 and curl_in <= 1e-6)
    return CheckResult("circulation and vorticity", passed,
                       {"worst_circulation_error": spread,
                        "non_enclosing": non_enclosing,
                        "curl_outside": curl_out, "curl_inside_error": curl_in,
                        "tolerances": [1e-9, 1e-6]})


def check_energy_identity():
    """Integrated |P' psi|^2 / 2M equals the integral of
    (1/2) M rho (v^2 + w^2) within 1e-6 relative on the whole grid.

    Like checks 2 and 5, an identity, here of one polar sample: the
    momentum density |(P - qA/c) psi|^2 is the rotational square plus the
    radial square term by term, so the columns differ by rounding only, and
    no fault outside `energy_decomposition`'s own arithmetic makes this
    check fail."""
    worst = 0.0
    for state in _grid_states():
        dec = annulus.energy_decomposition(state)
        worst = max(worst, dec["residual"])
    return CheckResult("kinetic energy identity", worst <= 1e-6,
                       {"tolerance": 1e-6, "worst_residual": worst})


def check_magnetic_force():
    """(q/c) v x B and -M v x omega agree to 1e-12 on 100 random vectors.

    An identity for omega = -(q B / M c) e_z, the vorticity
    `magnetic_force` forms: -M v x omega is (q/c) v x B term by term, so the
    two routes differ by rounding only, and no fault outside
    `magnetic_force`'s own two lines makes this check fail."""
    cfg = AnnulusConfig(mass=1.7, charge=0.8, c=2.1, B=1.3)
    stream = RandomStream(11)
    vs = stream.normals(300).reshape(100, 3)
    p = np.array([0.2, 0.1])
    worst = 0.0
    for v in vs:
        lorentz, vortex = magnetic_force(cfg, v, p)
        worst = max(worst, float(np.abs(lorentz - vortex).max()))
    return CheckResult("magnetic force two routes", worst <= 1e-12,
                       {"tolerance": 1e-12, "worst_gap": worst})


def check_gaussian_packet():
    """Continuity (1e-6, h=1e-4, 200-point grid), phase relation (1e-10)
    and current-velocity decomposition (1e-12) for the Gaussian packet."""
    worst = {"continuity_residual": 0.0, "phase_relation_residual": 0.0,
             "decomposition_residual": 0.0}
    for _, res in wavepackets.gaussian_report(GaussianPacketConfig()).values():
        for k in worst:
            worst[k] = max(worst[k], res[k])
    passed = (worst["continuity_residual"] <= 1e-6
              and worst["phase_relation_residual"] <= 1e-10
              and worst["decomposition_residual"] <= 1e-12)
    return CheckResult("gaussian packet identities", passed,
                       {"tolerances": [1e-6, 1e-10, 1e-12], **worst})


def check_airy_packet():
    """Non-spreading translation identity (1e-10) and numerically computed
    quantum force equal to the force constant within 1e-4 relative."""
    xs = np.linspace(*AIRY_WINDOW, 160)
    worst_shape = 0.0
    for t in (0.4, 1.0, 1.7):
        shift = t ** 2 / 2.0
        rho_t = np.abs(airy_wavefield(t).amplitude(xs[:, None])) ** 2
        rho_0 = np.abs(airy_wavefield(0.0).amplitude((xs - shift)[:, None])) ** 2
        worst_shape = max(worst_shape, float(np.abs(rho_t - rho_0).max()))
    worst_force = wavepackets.airy_force_report()["max_rel_err"]
    passed = worst_shape <= 1e-10 and worst_force <= 1e-4
    return CheckResult("airy packet", passed,
                       {"translation_identity": worst_shape,
                        "force_rel_error": worst_force,
                        "tolerances": [1e-10, 1e-4]})


def check_nelson_sampler(sde_cfg):
    """Diffusion sampling of the reference state at the sde_cfg budget:
    radial KS distance <= 0.02, angular uniformity chi-square p > 0.01,
    ergodic angular momentum within 2% of hbar (m + lambda), no trajectory
    aborted (`sde.run_statistics`)."""
    cfg = AnnulusConfig()       # lambda = -1/2
    state = eigenstate(cfg, 1, 1)
    stats = sde.run_statistics(sde.simulate(state, sde_cfg), state, sde_cfg)
    if "skipped" in stats:
        raise ValueError(stats["skipped"])
    target = cfg.hbar * (state.m + state.lam)
    erg_rel = abs(stats["ergodic_Lz"] - target) / abs(target)
    passed = (stats["ks_distance"] <= 0.02
              and stats["angular_chi2_p_value"] > 0.01
              and erg_rel <= 0.02 and stats["aborted"] == 0)
    return CheckResult("nelson diffusion sampler", passed,
                       {"ks_distance": stats["ks_distance"],
                        "angular_p_value": stats["angular_chi2_p_value"],
                        "ergodic_Lz": stats["ergodic_Lz"],
                        "ergodic_rel_error": erg_rel,
                        "rejection_fraction": stats["rejection_fraction"],
                        "tolerances": [0.02, 0.01, 0.02]})


def check_gauge_family():
    """Mean-density deviation of the gauge family shrinks quadratically:
    deviation(delta)/deviation(delta/2) in [3, 5] for delta = 0.2, 0.1."""
    cfg = AnnulusConfig()
    state = eigenstate(cfg, 1, 1)   # nu = 1/2
    fam = gauge_family(state)
    ratios = fam["ratios"]
    passed = all(3.0 <= r <= 5.0 for r in ratios)
    return CheckResult("gauge family quadratic mean-density deviation", passed,
                       {"deviations": fam["deviations"], "ratios": ratios,
                        "band": [3.0, 5.0]})


def check_special_functions():
    """Half-integer Bessel zeros at n pi (1e-10, n <= 10), the linear-model
    ground density integrating to 1 within 2%, and the mass-scaling slopes
    at exactly {-1/3, -1/2, -1} (1e-10)."""
    worst_zero = max(abs(bessel_j_zero(0.5, n) - n * np.pi) for n in range(1, 11))
    model = models.linear_airy_model(m=0.5, n=1)
    norm = integrate_1d(model["rho"], 0.0, 20.0)
    slopes = models.mass_scaling_slopes()
    slope_err = max(abs(slopes["linear_airy"] + 1.0 / 3.0),
                    abs(slopes["half_harmonic"] + 0.5),
                    abs(slopes["box"] + 1.0))
    norm_err = abs(norm - 1.0)
    passed = worst_zero <= 1e-10 and norm_err <= 0.02 and slope_err <= 1e-10
    return CheckResult("special-function oracles", passed,
                       {"worst_half_integer_zero_error": worst_zero,
                        "airy_density_norm": norm, "slopes": slopes,
                        "tolerances": [1e-10, 0.02, 1e-10]})


def check_gauge_invariance():
    """Gauge transform preserves rho exactly and Re xi within 1e-8 through
    the finite-difference route; the gauged current velocity decomposes as
    eta_base + Im xi within 1e-10; the solenoid current probe is
    gauge-independent to 1e-8."""
    cfg = AnnulusConfig()
    state = eigenstate(cfg, 1, 1)
    sigma = 0.7

    def lam_fn(p):
        return sigma * np.arctan2(p[..., 1], p[..., 0])

    def grad_lam(p):
        r_sq = p[..., 0] ** 2 + p[..., 1] ** 2
        return sigma * np.stack([-p[..., 1], p[..., 0]], axis=-1) / r_sq[..., None]
    gauged = gauge_transform(state, lam_fn, cfg, grad_lam=grad_lam)

    stream = RandomStream(5)
    u = stream.uniforms(2000).reshape(2, 1000)
    r = cfg.a + 0.05 + (cfg.d - 0.1) * u[0]
    th = -2.5 + 5.0 * u[1]           # clear of the atan2 branch cut
    pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)

    rho_gap = float(np.abs(gauged.density(pts) - state.density(pts)).max())

    fd_field = madelung.WaveField(gauged.amplitude)
    probe = pts[:64]
    dec_fd = decompose(fd_field, None, cfg, probe)
    dec_base = decompose(state, None, cfg, probe)
    xi_gap = float(np.abs(dec_fd.xi_real - dec_base.xi_real).max())

    # eta_gauged = eta_base + (q/Mc) grad(Lambda), and xi_imag is exactly
    # (q/Mc) A with A = grad(Lambda)
    dec_gauged = decompose(gauged, grad_lam, cfg, pts)
    recomposed = decompose(state, grad_lam, cfg, pts).eta + dec_gauged.xi_imag
    eq_gap = float(np.abs(dec_gauged.eta - recomposed).max())

    p0 = np.array([1.5, 1.2])
    j_none = solenoid_current_check(cfg, None, p0)
    j_gauge = solenoid_current_check(cfg, lam_fn, p0)
    lam_gap = float(np.abs(j_none - j_gauge).max())

    passed = (rho_gap == 0.0 and xi_gap <= 1e-8 and eq_gap <= 1e-10
              and lam_gap <= 1e-8)
    return CheckResult("gauge invariance", passed,
                       {"rho_gap": rho_gap, "re_xi_gap_fd": xi_gap,
                        "eta_decomposition_gap": eq_gap,
                        "solenoid_probe_gauge_gap": lam_gap,
                        "tolerances": [0.0, 1e-8, 1e-10, 1e-8]})


def run_all(sde_cfg):
    """All checks in criterion order (determinism is exercised by running
    the CLI twice, not by a function here)."""
    return [
        check_angular_momentum(),
        check_orthogonality(),
        check_circulation_vorticity(),
        check_energy_identity(),
        check_magnetic_force(),
        check_gaussian_packet(),
        check_airy_packet(),
        check_nelson_sampler(sde_cfg),
        check_gauge_family(),
        check_special_functions(),
        check_gauge_invariance(),
    ]
