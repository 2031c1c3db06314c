"""Independent second routes that tests check a program path against.

Each oracle computes a quantity the package also computes, by a different
assembly, from the package's public surface only:

quasi_currents       Gamma and Delta from the momentum density, checked
                     against `madelung.decompose`;
annulus_value_and_gradient
                     psi = R(r) e^{i m theta} and its Cartesian gradient
                     through the phase, checked against the polar sample
                     `ABState.sample`;
hydrogen_grad_rho    grad rho of hydrogen from the log-derivatives of its
                     factors, checked against the printed D of
                     `models.hydrogen_fields`;
gaussian_wavefield   the Gaussian packet as a `madelung.WaveField`, checked
                     against the closed forms of `wavepackets.gaussian_fields`.

`analytic_field` builds a `madelung.WaveField` from a closed-form gradient.

The file is not a test module (pytest collects only `test_*.py`); tests
import it by name.
"""
import math

import numpy as np

from abtool.madelung import WaveField
from abtool.models import hydrogen_radial_parts, hydrogen_theta_parts
from abtool.wavepackets import gaussian_delta_gradient, gaussian_fields


def quasi_currents(psi, A, cfg, p):
    """Quasi-probability and quasi-diffusion currents (Gamma, Delta) at p,
    computed directly from the gauge-covariant momentum density
    (i hbar / 2M)(psi grad psi* - psi* grad psi) - (q/Mc) A rho."""
    p = np.asarray(p, dtype=float)
    rho, cross, _ = psi.sample(p, None)
    hbar, m = cfg.hbar, cfg.mass
    rho_col = rho[..., None]
    gamma = (hbar / m) * cross.imag                      # (i hbar/2M)(psi grad psi* - c.c.)
    if A is not None:
        gamma = gamma - (cfg.charge / (m * cfg.c)) * np.asarray(A(p), dtype=float) * rho_col
    delta = -(hbar / (2.0 * m)) * (2.0 * cross.real)
    return gamma, delta


def annulus_value_and_gradient(state, p):
    """(psi, grad psi) of an annulus state at Cartesian point(s) p, through
    the phase e^{i m theta} that the polar sample never forms."""
    p = np.asarray(p, dtype=float)
    x, y = p[..., 0], p[..., 1]
    r = np.hypot(x, y)
    cos_t, sin_t = x / r, y / r
    rr, drr = state.radial_parts(r)
    phase = np.exp(1j * state.m * np.arctan2(y, x))
    im_over_r = 1j * state.m * rr / r
    gx = (drr * cos_t - im_over_r * sin_t) * phase
    gy = (drr * sin_t + im_over_r * cos_t) * phase
    return rr * phase, np.stack([gx, gy], axis=-1)


def analytic_field(amplitude, gradient):
    """A WaveField whose sample is |psi|^2 and conj(psi) grad psi from the
    callables `amplitude` and `gradient` (the closed-form grad psi)."""
    def density_and_cross(p):
        amp, grad = np.asarray(amplitude(p)), np.asarray(gradient(p))
        return (amp * np.conj(amp)).real, np.conj(amp)[..., None] * grad

    return WaveField(amplitude, density_and_cross)


def hydrogen_grad_rho(state, r, theta):
    """grad(rho) in the spherical basis via log-derivatives of the factors,
    an independent assembly used to cross-check the printed D."""
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    rr, drr = hydrogen_radial_parts(state, r)
    th, dth = hydrogen_theta_parts(state, theta)
    rho = rr * rr * th * th / (2.0 * math.pi)
    shape = np.broadcast(r, theta).shape
    out = np.zeros(shape + (3,))
    out[..., 0] = rho * 2.0 * drr / rr
    out[..., 1] = rho * 2.0 * dth / th / r
    return out


def gaussian_wavefield(cfg, t):
    """Snapshot of the normalized packet as a 1-d WaveField.

    The modulus carries the sqrt(alpha/eps)-style prefactor required for
    unit norm (the density of `gaussian_fields` is the contract); phase is
    x - t / 2 + delta(x, t).
    """
    eps = float(cfg.epsilon(t))
    pref = (2.0 / math.pi) ** 0.25 / math.sqrt(eps)

    def amplitude(p):
        xv = np.asarray(p, dtype=float)[..., 0]
        y = xv - t
        phase = xv - t / 2.0 + gaussian_fields(cfg, xv, t)["delta"]
        return pref * np.exp(-y ** 2 / eps ** 2) * np.exp(1j * phase)

    def gradient(p):
        xv = np.asarray(p, dtype=float)[..., 0]
        y = xv - t
        ddelta = gaussian_delta_gradient(cfg, xv, t)
        d = amplitude(p) * (-2.0 * y / eps ** 2 + 1j * (1.0 + ddelta))
        return d[..., None]

    return analytic_field(amplitude, gradient)
