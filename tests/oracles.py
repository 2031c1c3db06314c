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
                     against the closed forms of `wavepackets.gaussian_fields`;
bessel_pair_reference
                     (J_nu, J_{nu+1}) by the list-form series router that
                     preceded the in-place Horner pass, checked bit for bit
                     against `numerics.bessel_j_pair`: it restates the
                     series' split and length, and takes the rows past the
                     split from `bessel_j_pair` itself.

`analytic_field` builds a `madelung.WaveField` from a closed-form gradient.

The file is not a test module (pytest collects only `test_*.py`); tests
import it by name.
"""
import math

import numpy as np

from abtool.madelung import WaveField
from abtool.models import hydrogen_radial_parts, hydrogen_theta_parts
from abtool.numerics import bessel_j_pair
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


# numerics' series window and length, restated for the reference, and the
# truncation rule that length is checked against
_SERIES_MAX_X = 9.25
_HALF_SUBNORMAL_X = 2.0 ** -1021
_SERIES_KEPT = 27           # Horner reads c[0] to c[27] at every x
_SERIES_TERMS = 120
_SERIES_REL_TOL = 1e-20 * math.gamma(13.0)


def _series_coeffs_reference(order):
    """c[k] = (-1)^k / (k! Gamma(order + k + 1)) as one float array."""
    c = np.empty(_SERIES_TERMS)
    c[0] = 1.0 / math.gamma(order + 1.0)
    for k in range(1, _SERIES_TERMS):
        c[k] = -c[k - 1] / (k * (order + k))
    return c


def _series_terms_reference(order, ymax):
    """The terms kept for y <= ymax: the next term is below 1e-20 and below
    _SERIES_REL_TOL times the first, and at least eight are kept."""
    c = _series_coeffs_reference(order)
    tol = min(1e-20, _SERIES_REL_TOL * c[0])
    nterms = 8
    t = abs(c[nterms]) * ymax ** nterms if ymax > 0 else 0.0
    while nterms < _SERIES_TERMS - 1 and t > tol:
        nterms += 1
        t *= ymax / (nterms * (order + nterms))
    return nterms


def _horner_series_reference(order, y):
    """Both rows' series sums by Horner, one in-place operator pair per row
    and term, on the terms up to c[_SERIES_KEPT] at every y."""
    coeffs = [_series_coeffs_reference(order), _series_coeffs_reference(order + 1.0)]
    sums = [np.full_like(y, c[_SERIES_KEPT]) for c in coeffs]
    for k in range(_SERIES_KEPT - 1, -1, -1):
        for s, c in zip(sums, coeffs):
            s *= y
            s += c[k]
    return sums


def bessel_pair_reference(order, x):
    """[J_order(x), J_{order+1}(x)] for a 1-d array x >= 0: the series at or
    below x = 9.25, scaled into new arrays; past it, `bessel_j_pair`'s
    Miller rows."""
    inner = None if x.max(initial=0.0) <= _SERIES_MAX_X else x <= _SERIES_MAX_X
    xs = x if inner is None else x[inner]
    half = 0.5 * xs
    y = half * half
    sums = _horner_series_reference(order, y)
    pref = half ** order if order != 0.0 else 1.0
    if order != 0.0 and xs.min(initial=_SERIES_MAX_X) < _HALF_SUBNORMAL_X:
        tiny = xs < _HALF_SUBNORMAL_X
        pref[tiny] = xs[tiny] ** order * 0.5 ** order
    out = [s * pref for s in sums]
    out[1] *= half
    if inner is None:
        return out
    past = ~inner
    full = [np.empty_like(x) for _ in out]
    for j, series, miller in zip(full, out, bessel_j_pair(order, x[past])):
        j[inner] = series
        j[past] = miller
    return full
