#!/usr/bin/env python3
"""Reference systems: hydrogen currents and the bound-model zoo.

Hydrogen shows the same current/diffusion-current orthogonality as the
annulus; the one-dimensional models (linear potential with its Airy levels,
half-harmonic well, box) show how strongly each level depends on the mass,
summarized by the log-log scaling exponent.
"""
import numpy as np

from abtool import (AnnulusConfig, HydrogenState, eigenstate, hydrogen_fields,
                    linear_airy_model, mass_scaling_fit)
from abtool.annulus import gauge_family
from abtool.models import box_energy, half_harmonic_energy
from abtool.numerics import integrate_1d

print("hydrogen currents (spherical components; J along e_phi, D in the "
      "(e_r, e_theta) plane):")
rng = np.random.default_rng(2)
for (n, l, m_l) in ((1, 0, 0), (2, 1, 0), (2, 1, 1), (3, 2, 1)):
    st = HydrogenState(n, l, m_l)
    r = 0.5 + 8.0 * rng.random(400)
    th = 0.2 + (np.pi - 0.4) * rng.random(400)
    f = hydrogen_fields(st, r, th)
    dot = np.abs(np.sum(f["J"] * f["D"], axis=-1)).max()
    jmax = np.abs(f["J"]).max()
    print(f"  (n,l,m) = ({n},{l},{m_l}): max|J| = {jmax:.4f}, "
          f"max|J.D| = {dot:.1e}")
print("  J .  D = 0 identically: the probability flow circles the axis "
      "while diffusion pushes along the density gradient.\n")

print("linear potential on x > 0 (wall at the origin): Airy levels")
model1 = linear_airy_model(m=0.5, n=1)
print(f"  E_1 = {model1['E_n']:.6f} (= -z_1 in these units)")
norm = integrate_1d(model1["rho"], 0.0, 20.0)
print(f"  asymptotic normalization of rho_1: integral = {norm:.4f} "
      "(about 1% off at n = 1, sharpening with n)")
for n in (2, 5):
    val = integrate_1d(linear_airy_model(0.5, n)["rho"], 0.0, 30.0)
    print(f"  n = {n}: integral = {val:.5f}")

print("\nclosed-form levels (hbar = k = L = 1, m = 1):")
print(f"  half-harmonic: E_0 = {half_harmonic_energy(1.0, 0)}")
print(f"  box:           E_2 = {box_energy(1.0, 2):.6f} (= 2 pi^2)")

masses = [0.5, 1.0, 2.0, 4.0, 8.0]
print("\nmass-scaling exponents d log E / d log m:")
for kind, target in (("linear_airy", "-1/3"), ("half_harmonic", "-1/2"),
                     ("box", "-1")):
    slope = mass_scaling_fit(kind, 1, masses)
    print(f"  {kind:14s}: {slope:+.12f}  (exact {target})")
print("  the more confining the potential, the stronger the mass "
      "dependence of the levels.\n")

print("gauge family of fluid densities around the m = 1 annulus state:")
state = eigenstate(AnnulusConfig(), 1, 1)
fam = gauge_family(state)
for d, dev in zip(fam["deltas"], fam["deviations"]):
    print(f"  delta nu = {d:5.2f}: max |mean(rho_+, rho_-) - rho| = {dev:.6f}")
print(f"  shrink ratios across halved deltas: "
      f"{', '.join(f'{r:.2f}' for r in fam['ratios'])} (quadratic ~ 4)")
print("  the family average reproduces the reference density to second "
      "order in the gauge shift.")
