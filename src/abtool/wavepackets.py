"""Closed-form time-dependent comparison systems in one dimension: the
spreading Gaussian packet, the non-spreading self-accelerating Airy packet,
and the free plane wave.

Units are natural, hbar = M = 1, as for hydrogen and the annulus defaults.
Each system also fixes its unit of length: the Gaussian's is 1/k0, so its
wave number k0 and group velocity u0 = hbar k0 / M are 1; the Airy packet's
is (hbar^2 / (M k))^(1/3), so its force constant k is 1; the plane wave
shares the Gaussian's k0 = 1.

The Gaussian density is rho(x,t) = sqrt(2/pi) (1/eps) exp(-2 (x - t)^2 /
eps^2) with eps(t) = alpha sqrt(1 + 4 t^2 / alpha^4); it integrates to one
at all times.  The printed current velocity u0 + (2 t / eps^2 T)(x - u0 t)
is implemented verbatim and is the continuity-equation flow velocity of
rho.  (With a mass m != 1 the printed form differs from the flow velocity
by the factor m; in these units that case does not arise.)
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .madelung import Constants, WaveField, quantum_force
from .numerics import airy_ai, central_diff


@dataclass(frozen=True)
class GaussianPacketConfig:
    alpha: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError("alpha must be > 0")

    @property
    def T(self):
        """Spreading time alpha^2 / 2."""
        return self.alpha ** 2 / 2.0

    def epsilon(self, t):
        return self.alpha * np.sqrt(1.0 + 4.0 * np.asarray(t, float) ** 2
                                    / self.alpha ** 4)


def gaussian_fields(cfg, x, t):
    """Closed-form {rho, eta, xi, F_Q, delta} for the Gaussian packet."""
    x = np.asarray(x, dtype=float)
    eps = cfg.epsilon(t)
    y = x - t       # the co-moving coordinate x - u0 t
    rho = math.sqrt(2.0 / math.pi) / eps * np.exp(-2.0 * y ** 2 / eps ** 2)
    eta = 1.0 + (2.0 * t / (eps ** 2 * cfg.T)) * y
    xi = 2.0 * y / eps ** 2
    f_q = 4.0 * y / eps ** 4
    delta = (y ** 2 / eps ** 2) * (t / cfg.T) - 0.5 * np.arctan(t / cfg.T)
    return {"rho": rho, "eta": eta, "xi": xi, "F_Q": f_q, "delta": delta}


def gaussian_delta_gradient(cfg, x, t):
    """d delta / dx = 2 (x - t) t / (eps^2 T), closed form."""
    eps = cfg.epsilon(t)
    return 2.0 * (np.asarray(x, float) - t) * t / (eps ** 2 * cfg.T)


_CONTINUITY_STEP = 1e-4


def gaussian_consistency(cfg, grid, t):
    """Residuals of the printed identities over a spatial grid at time t:

    continuity_residual       max |d rho/dt + d(rho eta)/dx|
                              (`numerics.central_diff`, step 1e-4);
    phase_relation_residual   max |xi - (T / t) d delta/dx|;
    decomposition_residual    max |eta - 1 - (t / T) xi|.
    """
    if t == 0.0:
        raise ValueError("phase relation needs t != 0")
    grid = np.asarray(grid, dtype=float)

    def flux_of(xv):
        f = gaussian_fields(cfg, xv, t)
        return f["rho"] * f["eta"]

    drho_dt = central_diff(lambda tv: gaussian_fields(cfg, grid, tv)["rho"], t,
                           _CONTINUITY_STEP)
    dflux_dx = central_diff(flux_of, grid, _CONTINUITY_STEP)
    continuity = np.abs(drho_dt + dflux_dx).max()

    f = gaussian_fields(cfg, grid, t)
    ddelta = gaussian_delta_gradient(cfg, grid, t)
    phase_rel = np.abs(f["xi"] - (cfg.T / t) * ddelta).max()
    decomp = np.abs(f["eta"] - 1.0 - (t / cfg.T) * f["xi"]).max()
    return {"continuity_residual": float(continuity),
            "phase_relation_residual": float(phase_rel),
            "decomposition_residual": float(decomp)}


def gaussian_report(cfg):
    """`gaussian_consistency` at t = T/2, T and 3T, each on 200 points over
    t +- 4 eps(t): {t: (grid, residuals)}."""
    report = {}
    for t in (cfg.T / 2.0, cfg.T, 3.0 * cfg.T):
        eps = float(cfg.epsilon(t))
        grid = np.linspace(t - 4.0 * eps, t + 4.0 * eps, 200)
        report[t] = grid, gaussian_consistency(cfg, grid, t)
    return report


# the x range over which the translation identity of the Airy packet is
# checked
AIRY_WINDOW = (-8.0, 4.0)
# (2 M k / hbar^2)^(1/3), the argument scale of the Airy envelope
_AIRY_SCALE = 2.0 ** (1.0 / 3.0)


def airy_wavefield(t):
    """Berry-Balazs packet Ai[c (x - t^2 / 2)] e^{i t (x - t^2/3)}, c = 2^(1/3),
    as a (non-normalizable) 1-d WaveField snapshot."""

    def amplitude(p):
        xv = np.asarray(p, dtype=float)[..., 0]
        env = airy_ai(_AIRY_SCALE * (xv - t ** 2 / 2.0))
        phase = t * (xv - t ** 2 / 3.0)
        return env * np.exp(1j * phase)

    return WaveField(amplitude)


def airy_force_probe_points(t, count=20):
    """Points x whose scaled envelope argument stays in [-1.8, 3.8], clear
    of the envelope zeros (the leftmost zero sits at about -2.338); quantum
    force stencils need that clearance because |Ai| has kinks at its zeros."""
    u = np.linspace(-1.8, 3.8, count)
    return u / _AIRY_SCALE + t ** 2 / 2.0


def airy_fields(x, t):
    """{rho, eta, F_Q} for the Airy packet at (x, t).

    eta = k t (k = 1) is the exact phase-gradient velocity; F_Q is evaluated
    numerically from the Bohm form (not from its known constant value), so
    the constancy of the quantum force is a genuine check.  Points must
    stay clear of the envelope zeros (see airy_force_probe_points).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    field = airy_wavefield(t)
    psi = field.amplitude(x[:, None])
    rho = (psi * np.conj(psi)).real
    eta = np.full_like(x, t)
    f_q = quantum_force(field, Constants(), x[:, None])[:, 0]
    return {"rho": rho, "eta": eta, "F_Q": f_q}


def airy_force_report():
    """`airy_fields` at the 20 `airy_force_probe_points` of t = 0.7, with
    max |F_Q - 1|, the force's relative error (its constant k is 1):
    {t, x, fields, max_rel_err}."""
    t = 0.7
    x = airy_force_probe_points(t)
    fields = airy_fields(x, t)
    return {"t": t, "x": x, "fields": fields,
            "max_rel_err": float(np.abs(fields["F_Q"] - 1.0).max())}


def free_particle_fields(x, t):
    """{eta} of the plane wave A e^{i(x - t / 2)}: eta = 1 everywhere (its
    dispersive velocity xi is 0).  Non-normalizable."""
    return {"eta": np.full_like(np.asarray(x, dtype=float), 1.0)}
