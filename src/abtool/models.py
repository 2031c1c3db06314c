"""Reference systems: hydrogen bound-state currents and the one-dimensional
bound-model zoo (linear potential / Airy levels, half-harmonic well, box)
with mass-scaling exponents.

Units are atomic, a0 = hbar = M = 1.  The one-dimensional models keep the
mass m as an argument, for the mass-scaling fits, and fix their own unit of
length so that their parameter is 1: the linear potential's force constant
k, the half-oscillator's spring constant k and the box length L.

Hydrogen conventions: R_{n,l} normalized with integral R^2 r^2 dr = 1,
Theta_l^m with integral Theta^2 sin(theta) dtheta = 1, azimuthal factor
1/sqrt(2 pi), so rho = R^2 Theta^2 / (2 pi) and the probability current is
J = e_phi m_l hbar rho / (M r sin theta).  Vectors are returned in the
spherical basis (e_r, e_theta, e_phi).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (RandomStream, airy_ai, airy_ai_zero, assoc_laguerre,
                       assoc_legendre)


@dataclass(frozen=True)
class HydrogenState:
    n: int
    l: int
    m_l: int

    def __post_init__(self):
        if self.n < 1 or not (0 <= self.l < self.n) or abs(self.m_l) > self.l:
            raise ValueError("need n >= 1, 0 <= l < n, |m_l| <= l")
        if self.l > 4:
            raise ValueError("l > 4 outside the supported range")


def _radial_norm(state):
    n, l = state.n, state.l
    return math.sqrt((2.0 / n) ** 3
                     * math.factorial(n - l - 1)
                     / (2.0 * n * math.factorial(n + l)))


def hydrogen_radial_parts(state, r):
    """(R_{n,l}(r), dR/dr), physics normalization, sharing one Laguerre
    evaluation at x = 2r/n; dL_p^q(x)/dx = -L_{p-1}^{q+1}(x)."""
    r = np.asarray(r, dtype=float)
    n, l = state.n, state.l
    x = 2.0 * r / n
    p = n - l - 1
    lag = assoc_laguerre(p, 2 * l + 1, x)
    dlag = -assoc_laguerre(p - 1, 2 * l + 2, x)
    scale = _radial_norm(state) * np.exp(-x / 2.0)
    core = (-0.5 * x ** l * lag
            + (l * x ** (l - 1) * lag if l >= 1 else 0.0)
            + x ** l * dlag)
    return scale * x ** l * lag, (2.0 / n) * scale * core


def _theta_norm(l, m):
    return math.sqrt((2.0 * l + 1.0) / 2.0
                     * math.factorial(l - m) / math.factorial(l + m))


def hydrogen_theta_parts(state, theta):
    """(Theta_l^{|m_l|}(theta), dTheta/dtheta), normalized against
    sin(theta) d theta.  dP_l^m/dx = (l x P_l^m - (l + m) P_{l-1}^m) / (x^2 - 1)
    at x = cos(theta), away from x = +-1."""
    theta = np.asarray(theta, dtype=float)
    l, m = state.l, abs(state.m_l)
    x = np.cos(theta)
    sin_t = np.sin(theta)
    norm = _theta_norm(l, m)
    plm = assoc_legendre(l, m, x)
    plm1 = assoc_legendre(l - 1, m, x)
    with np.errstate(divide="ignore", invalid="ignore"):
        dval = norm * ((l * x * plm - (l + m) * plm1) / (x * x - 1.0)) * (-sin_t)
    # on the polar axis the theta derivative vanishes for the m = 0 states
    # (m != 0 states are rejected there before reaching this)
    return norm * plm, np.where(sin_t == 0.0, 0.0, dval)


def hydrogen_fields(state, r, theta):
    """{J, D} at (r, theta), in the spherical basis.

    J and D follow the printed bound-current expressions; D is built from
    the derivative of R^2 and Theta^2 with the -hbar/(4 pi m) prefactor,
    which under the density convention above equals -(hbar/2m) grad(rho).
    """
    r = np.asarray(r, dtype=float)
    theta = np.asarray(theta, dtype=float)
    sin_t = np.sin(theta)
    if state.m_l != 0 and np.any(sin_t == 0.0):
        raise ValueError("J diverges on the polar axis for m_l != 0")
    rr, drr = hydrogen_radial_parts(state, r)
    th, dth = hydrogen_theta_parts(state, theta)
    rho = rr * rr * th * th / (2.0 * math.pi)

    shape = np.broadcast(r, theta).shape
    j_vec = np.zeros(shape + (3,))
    d_vec = np.zeros(shape + (3,))
    coef = -1.0 / (4.0 * math.pi)
    d_vec[..., 0] = coef * (2.0 * rr * drr) * th * th
    d_vec[..., 1] = coef * (1.0 / r) * rr * rr * (2.0 * th * dth)
    if state.m_l != 0:
        j_vec[..., 2] = state.m_l / (r * sin_t) * rho
    return {"J": j_vec, "D": d_vec}


def hydrogen_orthogonality():
    """max |J . D| of each state with n <= 3 over 1000 points drawn from
    stream 7 in 0.2 <= r <= 14.2, 0.1 <= theta <= pi - 0.1: {state: value}.
    J has only an e_phi component and D none, so every value is 0."""
    stream = RandomStream(7)
    report = {}
    for n in range(1, 4):
        for l in range(n):
            for m_l in range(-l, l + 1):
                st = HydrogenState(n, l, m_l)
                u = stream.uniforms(2000).reshape(2, 1000)
                f = hydrogen_fields(st, 0.2 + 14.0 * u[0],
                                    0.1 + (np.pi - 0.2) * u[1])
                report[st] = float(np.abs(np.sum(f["J"] * f["D"], axis=-1)).max())
    return report


# ---------------------------------------------------------------------------
# Bound models with closed-form levels, and their mass-scaling exponents.
# ---------------------------------------------------------------------------

def linear_airy_model(m, n):
    """Linear potential V = k x on x > 0, k = 1, with an infinite wall at
    the origin.

    rho_n(x) = c (pi / sqrt(-z_n)) Ai(c x + z_n)^2 with c the packet scale
    (2 m k)^(1/3) included so the density integrates to ~1 (the sqrt(-z_n)
    normalization is asymptotic in n, ~1% off at n = 1); the level is
    E_n = -z_n (k^2 / 2m)^(1/3), exact.
    """
    if n < 1 or n > 20:
        raise ValueError("n must be in 1..20")
    z_n = airy_ai_zero(n)
    c = (2.0 * m) ** (1.0 / 3.0)

    def rho(x):
        x = np.asarray(x, dtype=float)
        if np.any(x < 0.0):
            raise ValueError("density is defined on x >= 0")
        return c * math.pi / math.sqrt(-z_n) * airy_ai(c * x + z_n) ** 2

    energy = -z_n * (1.0 / (2.0 * m)) ** (1.0 / 3.0)
    return {"rho": rho, "E_n": energy}


def half_harmonic_energy(m, n):
    """Half-oscillator (V = k x^2 / 2 on x > 0, k = 1, wall at 0):
    E_n = (2n + 3/2) sqrt(k/m), n = 0, 1, 2, ..."""
    if n < 0:
        raise ValueError("n must be >= 0")
    return (2.0 * n + 1.5) * math.sqrt(1.0 / m)


def box_energy(m, n):
    """Infinite box of length L = 1: E_n = n^2 pi^2 / (2 m L^2), n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n ** 2 * math.pi ** 2 / (2.0 * m)


# E_n(mass, n) of each bound model
_LEVELS = {
    "linear_airy": lambda mass, n: linear_airy_model(mass, n)["E_n"],
    "half_harmonic": half_harmonic_energy,
    "box": box_energy,
}


def mass_scaling_fit(model_kind, n, masses):
    """Least-squares slope of log E_n against log m.

    The closed-form levels are exact power laws in the mass, so the fit
    recovers -1/3 (linear/Airy), -1/2 (half-harmonic) or -1 (box) to
    round-off.
    """
    masses = np.asarray(masses, dtype=float)
    if masses.size < 3:
        raise ValueError("need at least 3 masses")
    if np.unique(masses).size < 2:
        raise ValueError("degenerate mass list")
    if model_kind not in _LEVELS:
        raise ValueError(f"unknown model kind {model_kind!r}")
    log_m = np.log(masses)
    log_e = np.log([_LEVELS[model_kind](m, n) for m in masses])
    lm = log_m - log_m.mean()
    return float(np.dot(lm, log_e - log_e.mean()) / np.dot(lm, lm))


def mass_scaling_slopes():
    """`mass_scaling_fit` of the ground level of each bound model over the
    masses 1, 2, 4 and 8: {kind: slope}."""
    return {kind: mass_scaling_fit(kind, 1, [1.0, 2.0, 4.0, 8.0])
            for kind in _LEVELS}
