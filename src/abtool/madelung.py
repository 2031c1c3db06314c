"""Hydrodynamic decomposition of a wavefunction into velocity fields.

Given a complex field psi and an optional vector potential A (any callable
p -> A(p) on point arrays, in units of B*length), this module extracts the
probability density rho = |psi|^2, the current velocity
eta = (hbar/M) Im(psi* grad psi)/rho, the dispersive velocity
xi = -(hbar/2M) grad(rho)/rho + i (q/Mc) A, the osmotic velocity zeta = -xi,
the quasi-currents Gamma = rho v and Delta = -(hbar/2M) grad rho, and the
Bohm quantum potential/force.  Phase is never unwrapped: every phase-derived
quantity comes from Im(psi* grad psi)/rho, so multivalued e^{i m theta}
phases are handled without branch cuts.

Every velocity field starts from one field sample: rho and psi* grad psi at
float point arrays, as the field forms them (`density_and_cross`).  A
WaveField takes conj(psi) grad psi and |psi|^2 (or the density it was given:
a gauge transform passes the base field's through) from one
`value_and_gradient` call; an annulus state R(r) e^{i m theta} takes them
from R and R' in the polar frame, where its phase cancels, and never forms
it.

Points are numpy arrays whose last axis is the spatial dimension: shape
(dim,) for one point or (N, dim) for a batch.  All returned vectors follow
the shape of the input.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import gradient_fd, integrate_1d, laplacian_fd

RHO_FLOOR = 1e-30
_QUANTUM_STEP = 5e-3
# the step of a WaveField's gradient when none is given
_FD_STEP = 1e-6


class DensityFloorError(ValueError):
    """Raised when a decomposition is requested at a (near-)nodal point.

    Nodal sets are measure zero; samplers are expected to exclude such
    points explicitly rather than receive infinities.
    """


@dataclass(frozen=True)
class Constants:
    """Physical constants, Gaussian-CGS symbolically; defaults are the
    natural mode hbar = M = q = c = 1."""
    hbar: float = 1.0
    mass: float = 1.0
    charge: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "c"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0")

    @property
    def beta_sq(self):
        """Diffusion coefficient hbar / 2M."""
        return self.hbar / (2.0 * self.mass)


class WaveField:
    """A complex-valued wavefunction with point evaluation and gradient.

    `amplitude` maps points to complex values; its spatial dimension is the
    last axis of the points it is given.  `gradient`, when omitted, is
    `numerics.gradient_fd` of `amplitude` with step 1e-6.
    `density` defaults to |amplitude|^2 but may be supplied separately (a
    gauge transform reuses the base field's density, which is unchanged by
    construction).
    """

    def __init__(self, amplitude, gradient=None, density=None):
        self._amp = amplitude
        self._grad = gradient
        self._rho = density

    def amplitude(self, p):
        return self._amp(np.asarray(p, dtype=float))

    def value_and_gradient(self, p):
        p = np.asarray(p, dtype=float)
        if self._grad is None:
            return self._amp(p), gradient_fd(self._amp, p, _FD_STEP)
        return self._amp(p), self._grad(p)

    def density(self, p):
        if self._rho is not None:
            return self._rho(np.asarray(p, dtype=float))
        amp = self.amplitude(p)
        return (amp * np.conj(amp)).real

    def density_and_cross(self, p):
        """(rho, psi* grad psi) at p from one `value_and_gradient` call: rho
        is the density given at construction, else |psi|^2."""
        amp, grad = map(np.asarray, self.value_and_gradient(p))
        rho = (amp * np.conj(amp)).real if self._rho is None else self._rho(p)
        return np.asarray(rho), np.conj(amp)[..., None] * grad


@dataclass(frozen=True)
class VelocityDecomposition:
    """All velocity fields at a point (or point batch).

    xi is stored as a (real vector, imaginary vector) pair; zeta = -xi.
    gamma = rho * v_quasi and delta = rho * w_quasi hold by construction.
    """
    rho: np.ndarray
    eta: np.ndarray
    xi_real: np.ndarray
    xi_imag: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray
    v_quasi: np.ndarray
    w_quasi: np.ndarray


def _check_floor(rho):
    bad = np.atleast_1d(rho) <= RHO_FLOOR
    if bad.any():
        raise DensityFloorError(
            f"density below floor {RHO_FLOOR:g} at {int(bad.sum())} point(s); "
            "exclude near-nodal points before decomposing")


def decompose(psi, A, cfg, p):
    """Full velocity decomposition of psi at point(s) p.

    With A = None the quasi fields coincide with the plain current and
    dispersive fields.  Raises DensityFloorError at near-nodal points.
    """
    p = np.asarray(p, dtype=float)
    rho, cross = psi.density_and_cross(p)
    _check_floor(rho)
    hbar, m = cfg.hbar, cfg.mass
    rho_col = rho[..., None]
    eta = (hbar / m) * cross.imag / rho_col
    grad_rho = 2.0 * cross.real
    xi_real = -(hbar / (2.0 * m)) * grad_rho / rho_col
    if A is not None:
        a_val = np.asarray(A(p), dtype=float)
        xi_imag = (cfg.charge / (m * cfg.c)) * a_val
    else:
        xi_imag = np.zeros_like(eta)
    v_quasi = eta - xi_imag                              # eta + Im(-xi)
    w_quasi = xi_real
    gamma = rho_col * v_quasi
    delta = rho_col * w_quasi
    return VelocityDecomposition(rho=rho, eta=eta, xi_real=xi_real,
                                 xi_imag=xi_imag, gamma=gamma, delta=delta,
                                 v_quasi=v_quasi, w_quasi=w_quasi)


def _moment_z(vec, arm):
    """(arm x vec)_z: |arm| times vec's e_theta component about arm's origin."""
    return arm[..., 0] * vec[..., 1] - arm[..., 1] * vec[..., 0]


def quantum_potential(psi, cfg, p):
    """Bohm quantum potential Q = -(hbar^2/2M) laplacian(sqrt rho)/sqrt rho,
    second derivatives by Richardson-extrapolated central differences of
    step 5e-3."""
    p = np.asarray(p, dtype=float)
    rho0 = psi.density(p)
    _check_floor(rho0)
    lap = laplacian_fd(lambda q: np.sqrt(psi.density(q)), p, _QUANTUM_STEP)
    return -(cfg.hbar ** 2 / (2.0 * cfg.mass)) * lap / np.sqrt(rho0)


def quantum_force(psi, cfg, p):
    """Quantum force -grad Q by central differences of quantum_potential,
    at ten times its step."""
    return -gradient_fd(lambda q: quantum_potential(psi, cfg, q), p,
                        10.0 * _QUANTUM_STEP)


def gauge_transform(psi, lam, cfg, grad_lam):
    """psi -> e^{i q Lambda / (hbar c)} psi, for the gauge function
    lam = Lambda and its gradient grad_lam, both callables on point arrays.

    The density callable of the base field is passed through, so rho is
    preserved exactly.  The gradient picks up i (q / hbar c) grad(Lambda) psi.
    """
    coef = cfg.charge / (cfg.hbar * cfg.c)

    def amplitude(p):
        return np.exp(1j * coef * np.asarray(lam(p))) * psi.amplitude(p)

    def gradient(p):
        phase = np.asarray(np.exp(1j * coef * np.asarray(lam(p))))
        amp, base = psi.value_and_gradient(p)
        amp, base = np.asarray(amp), np.asarray(base)
        gl = np.asarray(grad_lam(p), dtype=float)
        extra = 1j * coef * gl * amp[..., None]
        return phase[..., None] * (base + extra)

    return WaveField(amplitude, gradient, density=psi.density)


# ---------------------------------------------------------------------------
# Integration domain: an annulus in the 2-d polar measure r dr dtheta.
# Integrands take Cartesian point batches.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnnulusDomain:
    a: float
    b: float

    def integrate(self, g):
        """Integral of g, (M, 2) points -> (M,) or (M, k) values, in the
        measure r dr dtheta.  Precondition: g is rotation invariant, as every
        annulus observable of a state R(r) e^{i m theta} is, so its theta
        factor is exactly 2 pi: GK15 (`integrate_1d`) of 2 pi r g(r, 0), one
        g call per refinement on the ray y = 0 (15 radii, then 30 per split)."""
        def radial(rv):
            pts = np.stack([rv, np.zeros_like(rv)], axis=-1)
            return (np.asarray(g(pts), dtype=float).T * (2.0 * np.pi * rv)).T

        return integrate_1d(radial, self.a, self.b)


def _momentum_density(amp, grad, a_val, cfg):
    """|(P - (q/c)A) psi|^2 from the amplitude, gradient and vector potential
    (None: no field) at the same points."""
    pop = -1j * cfg.hbar * grad
    if a_val is not None:
        pop = pop - (cfg.charge / cfg.c) * a_val * amp[..., None]
    return np.sum((pop * np.conj(pop)).real, axis=-1)


def _energy_densities(psi, A, cfg, pts):
    """Columns (1/2) M rho v_quasi^2, (1/2) M rho w_quasi^2 and the raw
    |P' psi|^2 / 2M at pts from one `value_and_gradient` call.

    The split uses the unit phase u = psi*/|psi|, so nothing divides by rho:
    (1/2) M rho v_quasi^2 = (hbar^2/2M) |Im(u grad psi) - (q/hbar c) A |psi||^2
    and (1/2) M rho w_quasi^2 = (hbar^2/2M) (Re u grad psi)^2.  The raw
    column is a separate route through the momentum operator.
    """
    amp, grad = map(np.asarray, psi.value_and_gradient(pts))
    cross = np.conj(amp)[..., None] * grad
    a_val = None if A is None else np.asarray(A(pts), dtype=float)
    modulus = np.abs(amp)[..., None]
    # u grad psi; where psi is exactly 0, its limit across the nodal line:
    # real, with components |d psi / dx_i|
    node = modulus == 0.0
    u_grad = cross / np.where(node, 1.0, modulus)
    if node.any():
        u_grad = np.where(node, np.abs(grad), u_grad)
    rotation = u_grad.imag
    if a_val is not None:
        coef = cfg.charge / (cfg.hbar * cfg.c)
        rotation = rotation - coef * a_val * modulus
    scale = cfg.hbar ** 2 / (2.0 * cfg.mass)
    return np.stack([scale * np.sum(rotation ** 2, axis=-1),
                     scale * np.sum(u_grad.real ** 2, axis=-1),
                     _momentum_density(amp, grad, a_val, cfg) / (2.0 * cfg.mass)],
                    axis=-1)


def integrated_energy_identity(psi, A, cfg, domain):
    """{rotational, radial, total, residual}: the kinetic energy over the
    domain split into its quasi-current (rotational) and dispersive (radial)
    parts, the total from the raw momentum density |P' psi|^2 / 2M, and the
    relative residual |total - rotational - radial| / |total|.  The identity
    holds pointwise; the split and the total follow independent code paths.
    """
    rotational, radial, total = map(float, domain.integrate(
        lambda pts: _energy_densities(psi, A, cfg, pts)))
    residual = abs(total - rotational - radial) / abs(total)
    return {"rotational": rotational, "radial": radial, "total": total,
            "residual": residual}


def circulation(field, center, radius):
    """Line integral of a vector field p -> v(p) counter-clockwise around the
    circle of the given center and radius: the adaptive GK15 rule
    (`numerics.integrate_1d`) over the angle on [0, 2 pi]."""
    center = np.asarray(center, dtype=float)

    def tangential(th):
        arm = radius * np.stack([np.cos(th), np.sin(th)], axis=-1)
        return _moment_z(np.asarray(field(center + arm), dtype=float), arm)

    return integrate_1d(tangential, 0.0, 2.0 * np.pi)

