"""Charged particle bound between two coaxial cylinders with a solenoid flux
through the inner one: eigenstates, flux parameter, vector potential,
observables, vorticity/vortex identities and gauge families.

Geometry: inner radius a (solenoid wall), outer radius b, uniform field
B e_z inside r < a, zero field outside.  The bound states are
N J_nu(tau (r-a)/d) e^{i m theta} with nu = |m + lambda|, d = b - a and tau
the n-th positive zero of J_nu; the flux parameter is
lambda = -q B a^2 / (2 hbar c).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache, partial

import numpy as np

from . import madelung
from .madelung import (AnnulusDomain,
                       decompose)  # noqa: F401 (benchmark/spans.py wraps it here)
from .numerics import (bessel_j, bessel_j_pair, bessel_j_zero, curl_z_fd,
                       gradient_fd, integrate_1d)


@dataclass(frozen=True)
class AnnulusConfig(madelung.Constants):
    """Physical constants plus solenoid/annulus geometry (natural units by
    default).  B may carry either sign, and a zero B or charge is stored
    as +0.0; 0 < a < b."""
    B: float = 1.0
    a: float = 1.0
    b: float = 3.0

    def __post_init__(self):
        super().__post_init__()
        for name in ("charge", "B"):    # -0.0 == 0.0: one cache key, one state
            if getattr(self, name) == 0.0:
                object.__setattr__(self, name, 0.0)
        if not (0.0 < self.a < self.b):
            raise ValueError("need 0 < a < b")
        try:
            finite = math.isfinite(flux_parameter(self))
        except OverflowError:       # a ** 2 past the float range
            finite = False
        if not finite:
            raise ValueError("the flux parameter -q B a^2 / (2 hbar c) is not a "
                             f"finite number (B = {self.B!r}, a = {self.a!r}, "
                             f"b = {self.b!r})")
        try:
            self.hbar ** 2              # the energy and the closed-form Q
        except OverflowError:
            raise ValueError(f"hbar^2 is past the float range (hbar = "
                             f"{self.hbar!r})") from None

    @property
    def d(self):
        return self.b - self.a


def flux_parameter(cfg):
    """lambda = -q B a^2 / (2 hbar c); lambda = 0 is +0.0."""
    return -cfg.charge * cfg.B * cfg.a ** 2 / (2.0 * cfg.hbar * cfg.c) + 0.0


def _a_theta_over_r(cfg, r):
    """A_theta / r of the solenoid at radii r: B a^2 / (2 r^2) outside
    (r >= a), B / 2 inside; the two branches agree at r = a."""
    return np.where(r >= cfg.a, cfg.B * cfg.a ** 2 / (2.0 * r * r), cfg.B / 2.0)


def _solenoid_at(cfg, p, r):
    """The solenoid A at Cartesian point(s) p of radii r = hypot(x, y),
    written as (A_theta / r) (-y, x)."""
    coef = _a_theta_over_r(cfg, r)
    out = np.empty(p.shape)
    np.multiply(-coef, p[..., 1], out=out[..., 0])
    np.multiply(coef, p[..., 0], out=out[..., 1])
    return out


def vector_potential(cfg, p):
    """Solenoid vector potential at Cartesian point(s) p.

    A = (B a^2 / 2r) e_theta outside (r >= a), (B r / 2) e_theta inside.
    r = 0 is rejected.
    """
    p = np.asarray(p, dtype=float)
    r = np.hypot(p[..., 0], p[..., 1])
    if np.any(r == 0.0):
        raise ValueError("vector potential is ambiguous at r = 0")
    return _solenoid_at(cfg, p, r)


def solenoid_potential(cfg):
    """The solenoid A as a callable p -> A(p): `vector_potential` of cfg."""
    return partial(vector_potential, cfg)


def diffusion_velocity(cfg, p):
    """Velocity due to diffusion Im(-xi) = -(q/Mc) A as a Cartesian vector.

    Rotational-vortex profile inside the solenoid, irrotational outside.
    """
    return -(cfg.charge / (cfg.mass * cfg.c)) * vector_potential(cfg, p)


_CURL_STEP = 5e-3


def solenoid_current_check(cfg, lam, p):
    """Finite-difference curl(curl(A + grad Lambda)) at p, step 5e-3.

    Gauge invariant (grad Lambda drops out up to finite-difference error)
    and zero in both open regions for the ideal solenoid.  The stencil must
    not straddle r = 0 or r = a.
    """
    h = _CURL_STEP
    p = np.asarray(p, dtype=float)
    r = float(np.hypot(p[0], p[1]))
    reach = 9.0 * h     # nested Richardson stencils reach +-6h per axis
    if r <= reach or abs(r - cfg.a) <= reach:
        raise ValueError("point too close to r = 0 or r = a for the stencil")

    def a_prime(q):
        base = vector_potential(cfg, q)
        return base if lam is None else base + gradient_fd(lam, q, h)

    # curl of (w e_z) in the plane: (dw/dy, -dw/dx)
    dw = gradient_fd(lambda q: curl_z_fd(a_prime, q, h), p, h)
    return np.array([dw[1], -dw[0]])


# ---------------------------------------------------------------------------
# Bound eigenstates.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ABState:
    """One bound state of the annulus, usable as a WaveField.  It forms rho
    and psi* grad psi from R and R' in the polar frame, where the phase
    e^{i m theta} cancels (`sample`)."""
    cfg: AnnulusConfig
    m: int
    n: int
    lam: float
    nu: float
    tau: float
    k: float
    norm: float

    @property
    def energy(self):
        """hbar^2 k^2 / 2M from the Helmholtz form of the radial problem."""
        return self.cfg.hbar ** 2 * self.k ** 2 / (2.0 * self.cfg.mass)

    def radial_parts(self, r):
        """(R, R'): the normalized radial profile and its derivative, sharing
        the Bessel evaluations; J' = (nu/x) J - J_{nu+1}.  Both are zero at
        r = b and outside the walls, where x = 0: R is masked (J_0(0) = 1), R'
        is not (nu J_nu(0) and J_{nu+1}(0) are +0.0).  R'(a) is returned as 0,
        not N k / 2 (nu = 1) or infinite (nu < 1); no caller reads it, as the
        density floor rejects r = a for nu > 0 and quadrature nodes never
        reach a wall."""
        r = np.asarray(r, dtype=float)
        inside = (r >= self.cfg.a) & (r < self.cfg.b)
        x = np.where(inside, self.k * (r - self.cfg.a), 0.0)
        j, jp1 = bessel_j_pair(self.nu, x)
        jp = self.nu / np.where(x > 0.0, x, 1.0) * j - jp1
        return self.norm * np.where(inside, j, 0.0), self.norm * self.k * jp

    def amplitude(self, p):
        p = np.asarray(p, dtype=float)
        r = np.hypot(p[..., 0], p[..., 1])
        theta = np.arctan2(p[..., 1], p[..., 0])
        return self.radial_parts(r)[0] * np.exp(1j * self.m * theta)

    def sample(self, p, A):
        """(R^2, R R' r_hat + i (m R^2 / r) theta_hat, A(p) or None) at point
        array(s) p from one `radial_parts` call, so the imaginary part holds
        no rounding of the radial one.  r_hat = (x/r, y/r), and m R^2 / r is
        rounded as complex division by r rounds it, R ((m R) (1/r)): on
        y = 0 the result is conj(psi) grad psi bit for bit.  A
        `solenoid_potential` is evaluated at this r, any other A at p.  At r = 0,
        outside the annulus, the divisions give nan quietly: R = 0 there, so
        the density floor rejects the point."""
        x, y = p[..., 0], p[..., 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.hypot(x, y)
            rr, drr = self.radial_parts(r)
            cos_t, sin_t = x / r, y / r
            radial, azimuthal = rr * drr, rr * ((self.m * rr) * (1.0 / r))
            cross = np.empty(p.shape, dtype=complex)
            np.multiply(radial, cos_t, out=cross.real[..., 0])
            np.multiply(radial, sin_t, out=cross.real[..., 1])
            np.multiply(-azimuthal, sin_t, out=cross.imag[..., 0])
            np.multiply(azimuthal, cos_t, out=cross.imag[..., 1])
            rho = rr * rr
            del rr, drr, cos_t, sin_t, radial, azimuthal    # before A is built
            if isinstance(A, partial) and A.func is vector_potential \
                    and len(A.args) == 1 and not A.keywords:
                return rho, cross, _solenoid_at(*A.args, p, r)
        return rho, cross, None if A is None else A(p)

    def density(self, p):
        p = np.asarray(p, dtype=float)
        return self.radial_density(np.hypot(p[..., 0], p[..., 1]))

    def radial_density(self, r):
        rr = self.radial_parts(r)[0]
        return rr * rr


def _radial_profile(cfg, nu, n):
    """(tau, k, N) for order nu: N normalizes the 2-d polar integral of
    N^2 J^2 to one (the angular factor contributes 2 pi exactly)."""
    tau = bessel_j_zero(nu, n)
    k = tau / cfg.d

    def unusable(what):
        return ValueError(f"the radial normalization integral {what} "
                          f"(a = {cfg.a!r}, b = {cfg.b!r})")

    def weight(r):
        s = r - cfg.a
        if s.min() < 0.0:
            # an annulus a few ulps thick: a node of a bisected panel rounded
            # below a, where J_nu has no value
            raise unusable("has a node below a")
        return bessel_j(nu, k * s) ** 2 * r

    radial_int = integrate_1d(weight, cfg.a, cfg.b)
    if not 0.0 < radial_int < math.inf:
        raise unusable(f"is {float(radial_int)}, not a positive finite number")
    return tau, k, 1.0 / math.sqrt(2.0 * math.pi * radial_int)


@lru_cache(maxsize=256)
def eigenstate(cfg, m, n):
    """Bound state (m, n): nu = |m + lambda| and tau the n-th zero of J_nu.
    m and n are integral (2.0 is the state 2); `bessel_j_zero` raises
    ValueError outside its supported window, nu <= numerics.MAX_ORDER and
    1 <= n <= 100."""
    if not (float(m).is_integer() and float(n).is_integer()):
        raise ValueError(f"state ({m!r}, {n!r}): m and n must be integers")
    lam = flux_parameter(cfg)
    nu = abs(m + lam)
    tau, k, norm = _radial_profile(cfg, nu, n)
    state = ABState(cfg=cfg, m=int(m), n=int(n), lam=lam, nu=nu, tau=tau,
                    k=k, norm=norm)
    try:
        finite = math.isfinite(state.energy)
    except OverflowError:       # a square past the float range
        finite = False
    if not finite:
        raise ValueError(f"the energy hbar^2 k^2 / 2M of state ({m}, {n}) is not "
                         f"finite (hbar = {cfg.hbar!r}, mass = {cfg.mass!r})")
    return state


# ---------------------------------------------------------------------------
# Observables by quadrature.
# ---------------------------------------------------------------------------

def angular_momenta(state):
    """{total, canonical, osmotic} z angular momenta by quadrature.

    total  = integral of M r Gamma_theta, Gamma = rho v_quasi, whose theta
             component is (hbar/M) m R^2 / r - (q/Mc) A_theta R^2;
    osmotic = integral of M r rho Im(-xi)_theta = M r (-(q/Mc) A_theta) R^2;
    canonical = total - osmotic.  No formula substitution: the integrands
    are functions of r from one `radial_parts` call, and never divide by
    rho."""
    cfg = state.cfg

    def moments(r):
        rr = state.radial_parts(r)[0]
        diffusion = (-(cfg.charge / (cfg.mass * cfg.c))
                     * (_a_theta_over_r(cfg, r) * r) * (rr * rr))
        out = np.empty((r.size, 2))
        np.add((cfg.hbar / cfg.mass) * (rr * ((state.m * rr) * (1.0 / r))),
               diffusion, out=out[:, 0])                        # Gamma_theta
        out[:, 1] = diffusion
        out *= r[:, None]
        return np.multiply(cfg.mass, out, out=out)

    total, osmotic = map(float, AnnulusDomain(cfg.a, cfg.b).integrate(
        moments, state.k))
    return {"total": total, "canonical": total - osmotic, "osmotic": osmotic}


WALL_MARGIN_FRACTION = 1e-7


def _energy_domain(cfg):
    """Annulus inset by a small wall margin for energy integrals.

    The bound-state ansatz goes like (r-a)^nu at the inner wall, so its
    kinetic-energy density behaves like (r-a)^(2 nu - 2) there and the
    energy integrals diverge logarithmically (or worse) for nu <= 1/2.
    The decomposition identity checked here holds pointwise, hence on any
    common domain; the inset only regularizes the absolute values, and the
    reported residual is insensitive to it.
    """
    margin = WALL_MARGIN_FRACTION * cfg.d
    return AnnulusDomain(cfg.a + margin, cfg.b - margin)


def energy_decomposition(state):
    """{rotational, radial, total, residual}: the kinetic energy split into
    its quasi-current (rotational) and dispersive (radial) parts, the total
    |(P - qA/c) psi|^2 / 2M, and the residual |total - rotational - radial|
    / |total|.

    The densities are functions of r from one `radial_parts` call, so one
    radial rule integrates them (`AnnulusDomain.integrate`).  In the polar
    frame the split is its definition, (M/2) rho |v_quasi|^2 and
    (M/2) rho |w_quasi|^2 with rho = R^2: rotational
    (hbar^2/2M) (R (m/r - (q/hbar c) A_theta))^2 and radial
    (hbar^2/2M) R'^2, so nothing divides by rho and a node is no special
    point.  The total is written apart: it squares the polar components of
    (P - qA/c) psi, hbar R' and hbar (m R)/r - (q/c) A_theta R.  Integrals
    run over the wall-inset annulus (see _energy_domain): for nu <= 1/2 the
    radial energy is not integrable up to the inner wall, so only the
    identity between the columns is contractual."""
    cfg, m = state.cfg, state.m
    flux = cfg.charge / (cfg.hbar * cfg.c)
    scale = cfg.hbar ** 2 / (2.0 * cfg.mass)

    def densities(r):
        rr, drr = state.radial_parts(r)
        a_theta = _a_theta_over_r(cfg, r) * r
        azimuthal = (cfg.hbar * ((m * rr) * (1.0 / r))
                     - (cfg.charge / cfg.c) * a_theta * rr)
        out = np.empty((r.size, 3))
        np.square(rr * (m / r - flux * a_theta), out=out[:, 0])
        np.square(drr, out=out[:, 1])
        out[:, :2] *= scale
        np.divide((cfg.hbar * drr) ** 2 + azimuthal ** 2, 2.0 * cfg.mass,
                  out=out[:, 2])
        return out

    rotational, radial, total = map(float, _energy_domain(cfg).integrate(
        densities, state.k))
    return {"rotational": rotational, "radial": radial, "total": total,
            "residual": abs(total - rotational - radial) / abs(total)}


def closed_form_q_and_force(state, r):
    """Closed forms on a < r < b: quantum potential
    Q = -hbar^2 (m+lambda)^2 / (2 M r^2), its force F_r = -hbar^2
    (m+lambda)^2/(M r^3), and the centripetal check -M v_quasi^2 / r."""
    cfg = state.cfg
    r = np.asarray(r, dtype=float)
    ml = state.m + state.lam
    q_pot = -cfg.hbar ** 2 * ml ** 2 / (2.0 * cfg.mass * r ** 2)
    f_r = -cfg.hbar ** 2 * ml ** 2 / (cfg.mass * r ** 3)
    v = ml * cfg.hbar / (cfg.mass * r)
    centripetal = -(cfg.mass * v) * (v / r)     # M v^2 / r overflows on v^2
    return {"Q": q_pot, "F_r": f_r, "centripetal": centripetal}


def vortex_fields(cfg, r):
    """Vorticity and the outside vortex velocity at radius r.

    omega_in = -(q B / M c) (z component, uniform inside); the diffusion
    velocity is omega r / 2 inside (rotational vortex) and
    dv_out = omega a^2 / (2 r) outside (irrotational);
    pressure_analogue = -(1/2) M dv_out^2, which coincides with the flux part
    of the quantum potential.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("r must be > 0")
    omega = -cfg.charge * cfg.B / (cfg.mass * cfg.c)
    dv_out = 0.5 * omega * cfg.a ** 2 / r
    pressure = -0.5 * cfg.mass * dv_out ** 2
    return {"omega_in": omega, "dv_out": dv_out,
            "pressure_analogue": pressure}


def magnetic_force(cfg, v, p):
    """Two routes to the magnetic force at a point inside the solenoid:
    (q/c) v x B and -M v x omega with omega = -(q B / M c) e_z.  They are
    algebraically identical; both are returned."""
    p = np.asarray(p, dtype=float)
    if np.hypot(p[0], p[1]) >= cfg.a:
        raise ValueError("magnetic_force applies inside the solenoid (r < a)")
    v3 = np.zeros(3)
    v3[:np.asarray(v).shape[0]] = v
    b_vec = np.array([0.0, 0.0, cfg.B])
    omega_vec = np.array([0.0, 0.0, -cfg.charge * cfg.B / (cfg.mass * cfg.c)])
    lorentz = (cfg.charge / cfg.c) * np.cross(v3, b_vec)
    vortex = -cfg.mass * np.cross(v3, omega_vec)
    return lorentz, vortex


def system_b_equivalence(cfg, m):
    """Evaluate the three printed expressions for the scalar-potential twin
    system: V_ext = hbar^2 m (m+2 lambda)/(2 M r^2), the force in the same
    form, and the force rebuilt from the velocities,
    M (dv^2 + dv . v_i)/r with dv the outside diffusion velocity and
    v_i = m hbar/(M r).

    The report compares the two force expressions at nine radii from 1.1 a
    to 0.96 b and the effective angular order implied by V_ext against
    nu = |m + lambda|, without altering any of the printed formulas.
    """
    lam = flux_parameter(cfg)
    hbar, mass = cfg.hbar, cfg.mass

    def v_ext(r):
        return hbar ** 2 * m * (m + 2.0 * lam) / (2.0 * mass * np.asarray(r, float) ** 2)

    def f_printed(r):
        return hbar ** 2 * m * (m + 2.0 * lam) / (mass * np.asarray(r, float) ** 3)

    def f_velocity_form(r):
        r = np.asarray(r, dtype=float)
        dv = lam * hbar / (mass * r)
        v_i = m * hbar / (mass * r)
        return (mass * dv ** 2 + mass * dv * v_i) / r

    radii = np.linspace(cfg.a * 1.1, cfg.b * 0.96, 9)
    fp = f_printed(radii)
    fv = f_velocity_form(radii)
    gap = np.abs(fp - fv)
    scale = max(np.abs(fp).max(), np.abs(fv).max(), 1e-300)
    nu_a = abs(m + lam)
    nu_b_sq = m * m + m * (m + 2.0 * lam)
    report = {
        "forces_agree": bool(gap.max() <= 1e-12 * scale),
        "nu_system_a": nu_a,
        "nu_sq_system_b": nu_b_sq,
        "nu_match": bool(abs(nu_b_sq - nu_a ** 2) <= 1e-12),
    }
    return {"V_ext": v_ext, "F_printed": f_printed,
            "F_velocity_form": f_velocity_form, "report": report}


# the order offsets of the gauge family, halved from one to the next
GAUGE_DELTAS = (0.2, 0.1, 0.05)


def gauge_family(state):
    """Densities rho_{nu +- delta, n}(r) for each delta of GAUGE_DELTAS,
    each normalized, with the mean-deviation report
    max_r |(rho_+ + rho_-)/2 - rho_nu| and the deviation ratios across
    successive deltas.  An order past numerics.MAX_ORDER raises ValueError
    from `bessel_j_zero`.
    """
    cfg = state.cfg
    if state.nu < max(GAUGE_DELTAS):
        raise ValueError(f"delta {max(GAUGE_DELTAS)} drives the order negative")
    rg = np.linspace(cfg.a, cfg.b, 801)
    base = state.radial_density(rg)

    def member(nu):
        tau, k, norm = _radial_profile(cfg, nu, state.n)
        return replace(state, nu=nu, tau=tau, k=k, norm=norm)

    deviations = []
    for d in GAUGE_DELTAS:
        plus, minus = member(state.nu + d), member(state.nu - d)
        mean = 0.5 * (plus.radial_density(rg) + minus.radial_density(rg))
        deviations.append(float(np.abs(mean - base).max()))
    ratios = [a / b for a, b in zip(deviations, deviations[1:])]
    return {"deltas": list(GAUGE_DELTAS), "deviations": deviations,
            "ratios": ratios}
