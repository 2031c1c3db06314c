"""Closed-form time-dependent comparison systems in one dimension: the
spreading Gaussian packet, the non-spreading self-accelerating Airy packet,
and the free plane wave.

The Gaussian density is rho(x,t) = sqrt(2/pi) (1/eps) exp(-2 (x-u0 t)^2 /
eps^2) with eps(t) = alpha sqrt(1 + 4 hbar^2 t^2 / (m^2 alpha^4)); it
integrates to one at all times.  The printed current velocity
u0 + (2 t hbar / eps^2 T)(x - u0 t) is implemented verbatim; in natural
units (m = 1) it coincides with the continuity-equation flow velocity of
rho (for m != 1 the printed form differs from the flow velocity by the
factor m, which the consistency checks expose rather than correct).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .madelung import Constants, WaveField, quantum_force
from .numerics import airy_ai


@dataclass(frozen=True)
class GaussianPacketConfig:
    alpha: float = 1.0
    k0: float = 1.0
    mass: float = 1.0
    hbar: float = 1.0

    def __post_init__(self):
        if self.alpha <= 0.0 or self.mass <= 0.0 or self.hbar <= 0.0:
            raise ValueError("alpha, mass and hbar must be > 0")

    @property
    def u0(self):
        return self.hbar * self.k0 / self.mass

    @property
    def T(self):
        """Spreading time m alpha^2 / (2 hbar)."""
        return self.mass * self.alpha ** 2 / (2.0 * self.hbar)

    def epsilon(self, t):
        return self.alpha * np.sqrt(1.0 + 4.0 * self.hbar ** 2 * np.asarray(t, float) ** 2
                                    / (self.mass ** 2 * self.alpha ** 4))


def gaussian_fields(cfg, x, t):
    """Closed-form {rho, eta, xi, F_Q, delta} for the Gaussian packet."""
    x = np.asarray(x, dtype=float)
    eps = cfg.epsilon(t)
    y = x - cfg.u0 * t
    rho = math.sqrt(2.0 / math.pi) / eps * np.exp(-2.0 * y ** 2 / eps ** 2)
    eta = cfg.u0 + (2.0 * t * cfg.hbar / (eps ** 2 * cfg.T)) * y
    xi = 2.0 * cfg.hbar * y / (cfg.mass * eps ** 2)
    f_q = 4.0 * cfg.hbar ** 2 * y / (cfg.mass * eps ** 4)
    delta = (y ** 2 / eps ** 2) * (t / cfg.T) - 0.5 * np.arctan(t / cfg.T)
    return {"rho": rho, "eta": eta, "xi": xi, "F_Q": f_q, "delta": delta}


def gaussian_delta_gradient(cfg, x, t):
    """d delta / dx = 2 (x - u0 t) t / (eps^2 T), closed form."""
    eps = cfg.epsilon(t)
    return 2.0 * (np.asarray(x, float) - cfg.u0 * t) * t / (eps ** 2 * cfg.T)


def gaussian_wavefield(cfg, t):
    """Snapshot of the normalized packet as a 1-d WaveField.

    The modulus carries the sqrt(alpha/eps)-style prefactor required for
    unit norm (the density above is the contract); phase is
    k0 x - hbar k0^2 t / 2m + delta(x, t).
    """
    eps = float(cfg.epsilon(t))
    pref = (2.0 / math.pi) ** 0.25 / math.sqrt(eps)

    def amplitude(p):
        xv = np.asarray(p, dtype=float)[..., 0]
        y = xv - cfg.u0 * t
        delta = (y ** 2 / eps ** 2) * (t / cfg.T) - 0.5 * math.atan(t / cfg.T)
        phase = cfg.k0 * xv - cfg.hbar * cfg.k0 ** 2 * t / (2.0 * cfg.mass) + delta
        return pref * np.exp(-y ** 2 / eps ** 2) * np.exp(1j * phase)

    def gradient(p):
        xv = np.asarray(p, dtype=float)[..., 0]
        y = xv - cfg.u0 * t
        ddelta = 2.0 * y * t / (eps ** 2 * cfg.T)
        amp = amplitude(p)
        d = amp * (-2.0 * y / eps ** 2 + 1j * (cfg.k0 + ddelta))
        return d[..., None]

    return WaveField(amplitude, gradient, dimension=1)


_CONTINUITY_STEP = 1e-4


def gaussian_consistency(cfg, grid, t):
    """Residuals of the printed identities over a spatial grid at time t:

    continuity_residual       max |d rho/dt + d(rho eta)/dx| (step 1e-4);
    phase_relation_residual   max |xi - (hbar T / m t) d delta/dx|;
    decomposition_residual    max |eta - u0 - (m t / T) xi|.
    """
    if t == 0.0:
        raise ValueError("phase relation needs t != 0")
    grid = np.asarray(grid, dtype=float)
    h = _CONTINUITY_STEP

    def rho_of(xv, tv):
        return gaussian_fields(cfg, xv, tv)["rho"]

    def flux_of(xv, tv):
        f = gaussian_fields(cfg, xv, tv)
        return f["rho"] * f["eta"]

    drho_dt = (rho_of(grid, t + h) - rho_of(grid, t - h)) / (2.0 * h)
    dflux_dx = (flux_of(grid + h, t) - flux_of(grid - h, t)) / (2.0 * h)
    continuity = np.abs(drho_dt + dflux_dx).max()

    f = gaussian_fields(cfg, grid, t)
    ddelta = gaussian_delta_gradient(cfg, grid, t)
    phase_rel = np.abs(f["xi"] - (cfg.hbar * cfg.T / (cfg.mass * t)) * ddelta).max()
    decomp = np.abs(f["eta"] - cfg.u0 - (cfg.mass * t / cfg.T) * f["xi"]).max()
    return {"continuity_residual": float(continuity),
            "phase_relation_residual": float(phase_rel),
            "decomposition_residual": float(decomp)}


@dataclass(frozen=True)
class AiryPacketConfig:
    k: float = 1.0
    mass: float = 1.0
    hbar: float = 1.0
    window: tuple = (-8.0, 4.0)

    def __post_init__(self):
        if self.k <= 0.0 or self.mass <= 0.0 or self.hbar <= 0.0:
            raise ValueError("k, mass and hbar must be > 0")
        if not (self.window[0] < self.window[1]):
            raise ValueError("window must be an increasing pair")

    @property
    def scale(self):
        """(2 m k)^(1/3) / hbar^(2/3), the argument scale of the packet."""
        return (2.0 * self.mass * self.k) ** (1.0 / 3.0) / self.hbar ** (2.0 / 3.0)


def airy_wavefield(cfg, t):
    """Berry-Balazs packet Ai[c (x - k t^2 / 2m)] e^{i k t (x - k t^2/3m)/hbar}
    as a (non-normalizable) 1-d WaveField snapshot."""
    c = cfg.scale

    def amplitude(p):
        xv = np.asarray(p, dtype=float)[..., 0]
        env = airy_ai(c * (xv - cfg.k * t ** 2 / (2.0 * cfg.mass)))
        phase = (cfg.k * t / cfg.hbar) * (xv - cfg.k * t ** 2 / (3.0 * cfg.mass))
        return env * np.exp(1j * phase)

    return WaveField(amplitude, None, dimension=1, fd_step=1e-5)


def airy_force_probe_points(cfg, t, count=20):
    """Points x whose scaled envelope argument stays in [-1.8, 3.8], clear
    of the envelope zeros (the leftmost zero sits at about -2.338); quantum
    force stencils need that clearance because |Ai| has kinks at its zeros."""
    u = np.linspace(-1.8, 3.8, count)
    return u / cfg.scale + cfg.k * t ** 2 / (2.0 * cfg.mass)


def airy_fields(cfg, x, t):
    """{psi, rho, eta, F_Q} for the Airy packet at (x, t).

    eta = k t / m is the exact phase-gradient velocity; F_Q is evaluated
    numerically from the Bohm form (not from its known constant value), so
    the constancy of the quantum force is a genuine check.  Points must
    stay clear of the envelope zeros (see airy_force_probe_points).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    field = airy_wavefield(cfg, t)
    psi = field.amplitude(x[:, None])
    rho = (psi * np.conj(psi)).real
    eta = np.full_like(x, cfg.k * t / cfg.mass)
    consts = Constants(hbar=cfg.hbar, mass=cfg.mass)
    f_q = np.array([quantum_force(field, consts, np.array([xi]))[0]
                    for xi in x])
    return {"psi": psi, "rho": rho, "eta": eta, "F_Q": f_q}


def free_particle_fields(k0, m, hbar, x, t):
    """Plane wave A e^{i(k0 x - hbar k0^2 t / 2m)}: eta = hbar k0 / m, xi = 0.
    Non-normalizable; returned fields are position-independent."""
    x = np.asarray(x, dtype=float)
    eta = np.full_like(x, hbar * k0 / m)
    xi = np.zeros_like(x)
    return {"eta": eta, "xi": xi}
