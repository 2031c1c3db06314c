#!/usr/bin/env python3
"""The bound state as a literal diffusion process.

Runs the Euler-Maruyama sampler with drift b = v + u and diffusion
coefficient beta^2 = hbar/2M, then checks that the pooled samples reproduce
|psi|^2: a text histogram of the radial marginal against 2 pi r rho(r), the
KS distance, an angular uniformity chi-square, and the ergodic estimate of
the total angular momentum.

This demo uses a reduced budget (0.7 s on a 2-core machine); the
verification suite runs the full one (64 trajectories x 2e5 steps).
"""
import numpy as np

from abtool import AnnulusConfig, eigenstate
from abtool.sde import (SdeConfig, angular_uniformity_test, drifts,
                        ergodic_angular_momentum, radial_target,
                        rejection_fraction, simulate, stationarity_test)

cfg = AnnulusConfig()
state = eigenstate(cfg, 1, 1)

p = np.array([1.8, 0.0])
d = drifts(state, None, cfg, p)
print(f"drifts at r = 1.8: forward b = {d['forward']}, "
      f"backward b* = {d['backward']}")
print("(their half-sum is the current velocity, the half-difference the "
      "osmotic velocity)\n")

run = SdeConfig(dt=1e-3, steps=40_000, burn_in=5_000, n_trajectories=16,
                seed=424242)
print(f"sampling: {run.n_trajectories} trajectories x {run.steps} steps, "
      f"dt = {run.dt}, seed = {run.seed}")
trajectories = simulate(state, run)
print(f"rejected proposals per trajectory-step: "
      f"{rejection_fraction(trajectories, run):.5f}")

radii = np.concatenate([t.radii() for t in trajectories])
rg, pdf, _ = radial_target(state)
hist, edges = np.histogram(radii, bins=24, range=(cfg.a, cfg.b), density=True)
centers = 0.5 * (edges[1:] + edges[:-1])
target = np.interp(centers, rg, pdf)
print("\nradial marginal: sampled || target  (text bars, 2 pi r rho(r))")
for c, h, tgt in zip(centers, hist, target):
    bar = "#" * int(round(28 * h / target.max()))
    mark = "|" if abs(h - tgt) < 0.03 * target.max() else "*"
    print(f"  r = {c:5.2f} {h:7.4f} {tgt:7.4f} {mark} {bar}")

stats = stationarity_test(trajectories, state, bins=24, thin=4000)
ang = angular_uniformity_test(trajectories, bins=12, thin=4000)
erg = ergodic_angular_momentum(trajectories, state)
target_lz = cfg.hbar * state.s
print(f"\nKS distance vs target: {stats['ks_distance']:.4f}")
print(f"radial chi-square p (thinned): {stats['p_value']:.3f}")
print(f"angular uniformity p (thinned): {ang['p_value']:.3f}")
print(f"ergodic <L_z>: {erg['value']:.6f} +- {erg['stderr']:.1e} "
      f"(theorem: {target_lz})")
print("\nthe stationary law of the sampled process is |psi|^2: Born "
      "statistics emerge from the drift-diffusion balance alone.")
