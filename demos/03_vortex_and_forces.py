#!/usr/bin/env python3
"""The solenoid as a quantum vortex.

Inside the flux tube the diffusion velocity is a rigid rotation (rotational
vortex); outside it decays like 1/r (irrotational vortex).  Its circulation
on any enclosing loop is 2 pi lambda hbar / M, independent of radius, and
the magnetic force is numerically identical to the classical vortex force
-M v x omega with omega = -(q B / M c) e_z.
"""
import numpy as np

from abtool import AnnulusConfig, eigenstate, flux_parameter
from abtool.annulus import (closed_form_q_and_force, diffusion_velocity,
                            magnetic_force, solenoid_current_check,
                            system_b_equivalence, vortex_fields)
from abtool.madelung import circulation

cfg = AnnulusConfig()
lam = flux_parameter(cfg)
vf = vortex_fields(cfg, 2.0)
print(f"flux parameter lambda = {lam:+.3f}")
print(f"vorticity inside the tube: omega = {vf['omega_in']:+.3f} e_z")
print(f"diffusion velocity at r=2 (outside): {vf['dv_out']:+.4f} e_theta")
print(f"vortex pressure analogue at r=2: {vf['pressure_analogue']:+.5f}")

print("\ncirculation of the diffusion velocity (target 2 pi lambda = "
      f"{2*np.pi*lam:+.6f}):")
for rad in (1.3, 2.0, 2.8):
    got = circulation(lambda pts: diffusion_velocity(cfg, pts), (0.0, 0.0), rad)
    print(f"  loop radius {rad:4.1f}: {got:+.9f}")
off = circulation(lambda pts: diffusion_velocity(cfg, pts), (2.0, 0.0), 0.35)
print(f"  off-center loop not enclosing the tube: {off:+.2e}")

print("\nmagnetic force, two routes ((q/c) v x B vs -M v x omega):")
rng = np.random.default_rng(1)
worst = 0.0
for _ in range(5):
    v = rng.standard_normal(3)
    lorentz, vortex = magnetic_force(cfg, v, np.array([0.2, 0.1]))
    worst = max(worst, float(np.abs(lorentz - vortex).max()))
    print(f"  v = [{v[0]:+.3f} {v[1]:+.3f} {v[2]:+.3f}]  ->  "
          f"F = [{lorentz[0]:+.4f} {lorentz[1]:+.4f} {lorentz[2]:+.4f}]")
print(f"  worst route disagreement over draws: {worst:.2e}")

state = eigenstate(cfg, 1, 1)
qf = closed_form_q_and_force(state, 2.0)
print(f"\nquantum potential/force closed forms at r=2 (m=1):")
print(f"  Q = {qf['Q']:+.5f}, F_r = {qf['F_r']:+.5f}, "
      f"centripetal -M v^2/r = {qf['centripetal']:+.5f}")

print("\nideal-solenoid current probe (curl curl of A, gauge invariant):")
for p in (np.array([0.4, 0.2]), np.array([1.7, 1.0])):
    val = solenoid_current_check(cfg, None, p)
    print(f"  at {p}: {val}")

print("\nscalar-potential twin system (printed forms evaluated literally):")
out = system_b_equivalence(cfg, 1)
rep = out["report"]
for r in (1.5, 2.0, 2.5):
    print(f"  r = {r:3.1f}: V_ext = {out['V_ext'](r):+.5f}, "
          f"F_printed = {out['F_printed'](r):+.5f}, "
          f"F from velocities = {out['F_velocity_form'](r):+.5f}")
print(f"  printed force and velocity form agree: {rep['forces_agree']}")
print(f"  effective order^2 implied by V_ext: {rep['nu_sq_system_b']:.3f} "
      f"vs nu^2 = {rep['nu_system_a']**2:.3f} (match: {rep['nu_match']})")
print("  (the three printed expressions are mutually inconsistent; the "
      "report records the discrepancy without altering any of them)")
