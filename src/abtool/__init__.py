"""Flux-threaded annulus bound states, Madelung velocity-field
decompositions, comparison wave packets, and a Nelson diffusion sampler
whose stationary statistics reproduce |psi|^2."""

__version__ = "0.1.0"

from .annulus import (ABState, AnnulusConfig, diffusion_velocity, eigenstate,
                      flux_parameter, gauge_family, magnetic_force,
                      solenoid_current_check, solenoid_potential,
                      system_b_equivalence, vector_potential, vortex_fields)
from .madelung import (Constants, DensityFloorError, VelocityDecomposition,
                       WaveField, circulation, decompose, gauge_transform,
                       quantum_force, quantum_potential)
from .models import (HydrogenState, box_energy, half_harmonic_energy,
                     hydrogen_fields, linear_airy_model, mass_scaling_fit)
from .numerics import (NonConvergenceError, RandomStream, airy_ai,
                       airy_ai_zero, assoc_laguerre, assoc_legendre, bessel_j,
                       bessel_j_zero, central_diff, central_diff_2nd,
                       integrate_1d)
from .sde import (SdeConfig, Trajectory, drifts, ergodic_angular_momentum,
                  simulate, stationarity_test)
from .wavepackets import (GaussianPacketConfig, airy_fields,
                          free_particle_fields, gaussian_consistency,
                          gaussian_fields)
