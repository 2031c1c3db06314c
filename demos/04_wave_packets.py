#!/usr/bin/env python3
"""Time-dependent comparison systems.

The spreading Gaussian shows how a diffusion term enters the current
velocity (eta = u0 + (t/T)-weighted dispersive part) and how the extra
phase delta encodes it.  The Berry-Balazs Airy packet is the opposite
extreme: a rigidly translating density whose quantum force is exactly the
constant k, so it self-accelerates without spreading.  Units are natural,
hbar = M = 1.
"""
import numpy as np

from abtool import (GaussianPacketConfig, airy_fields, free_particle_fields,
                    gaussian_consistency, gaussian_fields)
from abtool.wavepackets import (AIRY_WINDOW, airy_force_probe_points,
                                airy_wavefield)

g = GaussianPacketConfig(alpha=1.0)
print(f"gaussian packet: alpha = {g.alpha}, k0 = 1.0, spreading time "
      f"T = {g.T}")
print(f"{'t/T':>5} {'eps(t)':>8} {'continuity':>12} {'phase rel.':>12} "
      f"{'decomposition':>14}")
for mult in (0.5, 1.0, 3.0):
    t = mult * g.T
    eps = float(g.epsilon(t))
    grid = np.linspace(t - 4 * eps, t + 4 * eps, 200)
    res = gaussian_consistency(g, grid, t)
    print(f"{mult:5.1f} {eps:8.4f} {res['continuity_residual']:12.2e} "
          f"{res['phase_relation_residual']:12.2e} "
          f"{res['decomposition_residual']:14.2e}")

t = g.T
xs = np.linspace(t - 2, t + 2, 9)
f = gaussian_fields(g, xs, t)
print("\nfields across the packet at t = T:")
for x, eta, xi, fq in zip(xs, f["eta"], f["xi"], f["F_Q"]):
    print(f"  x = {x:6.3f}: eta = {eta:+.4f}, xi = {xi:+.4f}, F_Q = {fq:+.4f}")
print("the current velocity exceeds u0 ahead of the crest and lags behind "
      "it: that surplus is the diffusion term.")

print("\nairy packet: quantum force recovered numerically from the Bohm "
      "form (target: the force constant k = 1):")
pts = airy_force_probe_points(0.7, count=8)
fa = airy_fields(pts, 0.7)
for x, fq in zip(pts, fa["F_Q"]):
    print(f"  x = {x:+7.3f}: F_Q = {fq:.8f}")

print("\nnon-spreading translation check |rho(x,t) - rho(x - k t^2/2, 0)|:")
xs = np.linspace(*AIRY_WINDOW, 400)
for t in (0.5, 1.0, 1.5):
    shift = t ** 2 / 2
    rho_t = np.abs(airy_wavefield(t).amplitude(xs[:, None])) ** 2
    rho_0 = np.abs(airy_wavefield(0.0).amplitude((xs - shift)[:, None])) ** 2
    print(f"  t = {t:3.1f}: max deviation {np.abs(rho_t - rho_0).max():.2e} "
          f"(center moved to {shift:.3f})")

wide = GaussianPacketConfig(alpha=1e3)
eta_wide = gaussian_fields(wide, 0.3, 1.0)["eta"]
eta_free = free_particle_fields(0.3, 1.0)["eta"]
print(f"\nwide-packet limit: eta(alpha=1e3) = {eta_wide:.8f} vs plane wave "
      f"{float(eta_free):.8f} (the diffusion term dies with the gradient)")
