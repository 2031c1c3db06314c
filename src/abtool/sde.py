"""Sampling the bound-state diffusion process: forward/backward drifts, an
Euler-Maruyama integrator with diffusion coefficient beta^2 = hbar/2M, and
stationarity statistics against |psi|^2.

The forward process is dX = b(X) dt + sqrt(2 beta^2) dW with b = v + u,
where v is the current velocity and u = (hbar/2M) grad(rho)/rho the osmotic
velocity; |psi|^2 is its stationary density.  Integration is Cartesian (no
polar drift corrections), trajectories carry their own independent variate
streams, and runs are bit-reproducible for a fixed configuration.

Step kernel.  For an annulus state R(r) e^{i m theta} the drift is
b = (hbar/M) [(R'/R) e_r + (m/r) e_theta] and a proposal is valid when
a < r < b and R^2 > RHO_FLOOR.  Validity is one `searchsorted` on the
state's cached valid-interval edges (`_valid_edges`); the drift is one lookup
of its J'/J table (`numerics.BesselLogTable`), with the poles of R'/R at the
wall and at the nodes in closed form.  Against the exact series route
(`ABState.radial_parts`) the drift agrees to 1e-9 (hbar/M)(k + |R'/R|)
wherever that route is itself accurate to this level; next to a node where
the series carries rounding (x = k (r-a) near 9.25), the two routes differ by
that rounding.  The kernel has one call form, `kernel(z, ok, step)`, on the
number of points it was made for: it writes validity and the step factor
into the caller's arrays, and its scratch, with the table's lookup scratch,
is made once (the table is shared through its cache).  A point's bits do
not depend on the other points of its call.  A step's one allocation is the
`searchsorted` index (numpy gives it no out argument), and `simulate`
double-buffers positions and step factors.  Every scalar ufunc operand of a
step is a 0-d float64 array made once per kernel or table, since a ufunc
converts a Python float on every call: on 64 points a kernel call takes
about 9.0 us and a step 13.6 us (2-core Xeon, numpy 2.4).

Noise.  Trajectory i's Gaussian increments come from its main stream
(stream id 2i), _NOISE_CHUNK steps at a time: `variates.NormalBlock` fills
one row of uniforms per stream from that stream's Philox generator and runs
one Box-Muller pass over all rows, bit for bit each stream's own `normals`.

Start.  Radii are drawn from the |psi|^2 radial marginal by inverse CDF with
the `init` stream (angles uniform from the same stream); a start point that
fails the validity test is redrawn from that stream.  The start's last
kernel call leaves the first step factors.

Cascade.  A proposal that fails validity is redrawn from the trajectory's
retry stream (stream id 2i + 1, built at the trajectory's first rejection,
so a run without rejections builds none) up to _MAX_RETRIES = 4 times, then
the step is halved and the retries start again; every redraw round tests
all proposals again in one kernel call.  After 64 halvings (dt 2^-64
~ 5e-20 dt) the trajectory is declared aborted; that depth lets a proposal
one rounding unit from the inner wall, where the osmotic drift ~ nu/(r-a)
throws any longer step out of the annulus, recover.  An aborted trajectory
proposes its own position, which is valid, so it stays frozen with no
further rejection.  A retry stream draws _RETRY_BLOCK = 64 normals at a
time and hands out one complex pair a redraw, the bits of one `normals(2)`
call a redraw.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .annulus import ABState, solenoid_potential
from .madelung import RHO_FLOOR, _moment_z, decompose
from .numerics import (NonConvergenceError, _bisect_floats, bessel_log_table,
                       chi2_sf)
from .variates import NormalBlock, RandomStream

_MAX_RETRIES = 4
_HALVING_LIMIT = 64
_NOISE_CHUNK = 128
_RETRY_BLOCK = 64           # retry normals a trajectory draws at a time
_START_REDRAWS = 100
# the goodness-of-fit statistics need this many pooled samples
_MIN_POOLED = 10_000
# points per decompose call in the L_z average: decompose holds about 240
# bytes a point, so a chunk stays far below the retained positions' size
_ERGODIC_CHUNK = 1_024


@dataclass(frozen=True)
class SdeConfig:
    dt: float = 1e-3
    steps: int = 200_000
    burn_in: int = 20_000
    n_trajectories: int = 64
    seed: int = 20240801

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be > 0")
        if not self.dt <= sys.float_info.max:     # nan, inf or past the floats
            raise ValueError("dt must be finite")
        if not (0 <= self.burn_in < self.steps):
            raise ValueError("need 0 <= burn_in < steps")
        if self.n_trajectories < 1:
            raise ValueError("n_trajectories must be >= 1")
        if not 0 <= self.seed < 2 ** 64:    # the Philox key word
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")


@dataclass
class Trajectory:
    positions: np.ndarray          # retained (post burn-in) points, (n, 2)
    rejected_steps: int = 0
    aborted: bool = False

    def radii(self):
        return np.hypot(self.positions[:, 0], self.positions[:, 1])

    def angles(self):
        return np.arctan2(self.positions[:, 1], self.positions[:, 0])


def drifts(psi, A, cfg, p):
    """Forward/backward drifts at p.

    u = (hbar/2M) grad(rho)/rho (osmotic), v = eta (current velocity);
    b = v + u, b* = v - u.
    """
    dec = decompose(psi, A, cfg, p)
    u = -dec.xi_real
    v = dec.eta
    return {"forward": v + u, "backward": v - u}


# A kernel maps complex positions z = x + i y to (ok, step): ok is the
# validity of each point and step = 1 + dt b(z)/z, so the Euler-Maruyama
# proposal from z is z * step + sigma * xi.  step is meaningful where ok.

class _SeparableStepKernel:
    """Validity and drift for a separable annulus state R(r) e^{i m theta}
    (see the module docstring).

    `kernel(z, ok, step)` writes the validity and step factor of `size`
    points z into the caller's arrays.  Its scratch for r, x = k (r - a) and
    the table lookup is made once, for `size` points, and is its own, since
    the table is shared through its cache."""

    def __init__(self, state, dt, size):
        self.table = bessel_log_table(state.nu, state.n)
        self.edges = _valid_edges(state)
        self.in_lobe = np.arange(self.edges.size + 1) % 2 == 1  # by edges <= r
        self.a, self.k = np.array(state.cfg.a), np.array(state.k)
        self.one = np.array(1.0)
        coef = state.cfg.hbar / state.cfg.mass * dt
        self.radial = np.array(coef * state.k)     # dt u_r = radial * J'/J
        self.angular = np.array(coef * state.m)    # dt v_theta = angular / r
        self._r, self._x = np.empty(size), np.empty(size)
        self._lookup = self.table.scratch(size)

    def __call__(self, z, ok, step):
        r, x = self._r, self._x
        np.abs(z, r)
        # the interval index of each point: a rule that keeps a step inside
        # its lobe compares it with the current point's
        lobe = self.edges.searchsorted(r, side="right")
        self.in_lobe.take(lobe, 0, ok, "clip")
        np.subtract(r, self.a, x)
        np.multiply(x, self.k, x)
        re, im = step.real, step.imag
        self.table.lookup(x, re, self._lookup)
        inv_r = np.divide(self.one, r, r)
        # (radial J'/J + i angular / r) / r + 1 part by part, in the order the
        # complex expression takes, so every step keeps its bits
        np.multiply(self.radial, re, re)
        np.multiply(re, inv_r, re)
        np.add(re, self.one, re)
        np.multiply(self.angular, inv_r, im)
        np.multiply(im, inv_r, im)


@lru_cache(maxsize=64)
def _valid_edges(state):
    """Sorted radii e: a < r < b and R(r)^2 > RHO_FLOOR exactly when
    e[2i] <= r < e[2i+1] for some i.  Built once per state by
    `_bisect_floats` from each pole (wall, node or b) to its lobe's
    middle; where J's rounding makes the test flicker next to a node, an
    edge is one of its switches."""
    cfg = state.cfg
    nodes = cfg.a + bessel_log_table(state.nu, state.n).zeros[:-1] / state.k
    poles = np.concatenate([[cfg.a], nodes, [cfg.b]])
    fail, hold = _bisect_floats(lambda r: state.radial_density(r) > RHO_FLOOR,
                                np.repeat(poles, 2)[1:-1],
                                np.repeat(0.5 * (poles[:-1] + poles[1:]), 2))
    # a lobe runs from its first valid float to its first invalid one
    edges = np.where(np.arange(2 * state.n) % 2 == 0, hold, fail)
    edges.flags.writeable = False
    return edges


def _start_positions(state, kernel, stream, ok, step):
    """ok.size start points: uniform angles and radial-marginal radii from
    `stream`; a point the kernel finds invalid (on a node, or r = a) is
    redrawn from the same stream.  The kernel's ok and step of the returned
    points are left in ok and step."""
    count = ok.size
    theta = 2.0 * np.pi * stream.uniforms(count)
    z = target_radial_sampler(state, stream, count) * np.exp(1j * theta)
    for _ in range(_START_REDRAWS):
        kernel(z, ok, step)
        if ok.all():
            return z
        bad = np.nonzero(~ok)[0]
        z[bad] = (target_radial_sampler(state, stream, bad.size)
                  * np.exp(1j * theta[bad]))
    raise NonConvergenceError(
        f"no valid start point after {_START_REDRAWS} redraws")


def _retry_noise(seed, stream_id):
    """The retry stream's complex normals, one a redraw: the values one
    `normals(2)` a redraw would give, drawn _RETRY_BLOCK normals at a time.
    The stream is built at the first draw."""
    stream = RandomStream(seed, stream_id)
    while True:
        yield from stream.normals(_RETRY_BLOCK).view(complex)


def simulate(state, sde_cfg):
    """Euler-Maruyama sampling of the annulus state's diffusion process.

    Proposals landing outside the annulus or below the density floor are
    resampled with fresh noise up to _MAX_RETRIES times, after which the step
    size is halved (cascade depth 64) before the trajectory is declared
    aborted.  Every trajectory owns two variate streams (main and retry), so
    results are reproducible and independent of how the work is scheduled.
    The trajectories' retained positions are views into one
    (n_trajectories, retained, 2) array.
    """
    if not isinstance(state, ABState):
        raise TypeError(f"simulate samples an ABState, got {type(state).__name__}")
    n_traj = sde_cfg.n_trajectories
    dt = sde_cfg.dt
    sigma = np.sqrt(2.0 * state.cfg.beta_sq * dt)
    kernel = _SeparableStepKernel(state, dt, n_traj)

    retry = [_retry_noise(sde_cfg.seed, 2 * i + 1) for i in range(n_traj)]
    init = RandomStream(sde_cfg.seed, 2 * n_traj)

    kept = np.empty((n_traj, sde_cfg.steps - sde_cfg.burn_in), dtype=complex)
    rejected = np.zeros(n_traj, dtype=int)
    aborted = np.zeros(n_traj, dtype=bool)

    def resample(z, step, prop, new_step, ok):
        """Redraw the invalid proposals in place from the retry stream and
        test every proposal again: after `fails` failures in this step a
        trajectory redraws at the step fraction
        0.5 ** (fails // (_MAX_RETRIES + 1)), so each halving gets
        _MAX_RETRIES redraws; past _HALVING_LIMIT halvings it is marked
        aborted and, like every aborted trajectory, proposes z."""
        fails = np.zeros(n_traj, dtype=int)
        while not ok.all():
            bad = np.nonzero(~ok)[0]
            rejected[bad] += 1
            fails[bad] += 1
            level = fails[bad] // (_MAX_RETRIES + 1)
            aborted[bad[level > _HALVING_LIMIT]] = True
            xi = np.array([next(retry[i]) for i in bad])
            fb = 0.5 ** level
            prop[bad] = (z[bad] * (1.0 + (step[bad] - 1.0) * fb)
                         + sigma * np.sqrt(fb) * xi)
            prop[aborted] = z[aborted]
            kernel(prop, ok, new_step)

    ok, step = np.empty(n_traj, dtype=bool), np.empty(n_traj, dtype=complex)
    # outside the annulus x = k (r - a) can be negative and R'/R undefined;
    # such points are invalid whatever that value is
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        z = _start_positions(state, kernel, init, ok, step)
        # built after the start, whose radial target is the run's other
        # large transient, so the two do not add up in the peak
        normals = NormalBlock(
            [RandomStream(sde_cfg.seed, 2 * i) for i in range(n_traj)], 2 * _NOISE_CHUNK)
        # each step writes the proposal and its step factor into these
        # spares, then swaps them with z and step
        prop, new_step = np.empty_like(z), np.empty_like(step)
        for lo in range(0, sde_cfg.steps, _NOISE_CHUNK):
            block = min(_NOISE_CHUNK, sde_cfg.steps - lo)
            noise = normals.draw(2 * block)     # (n_traj, block)
            noise *= sigma
            for s in range(block):
                np.multiply(z, step, prop)
                np.add(prop, noise[:, s], prop)
                prop[aborted] = z[aborted]
                kernel(prop, ok, new_step)
                if np.count_nonzero(ok) < n_traj:
                    resample(z, step, prop, new_step, ok)
                z, prop = prop, z
                step, new_step = new_step, step
                if lo + s >= sde_cfg.burn_in:
                    kept[:, lo + s - sde_cfg.burn_in] = z

    positions = kept.view(np.float64).reshape(n_traj, -1, 2)
    return [Trajectory(positions=positions[i], rejected_steps=int(rejected[i]),
                       aborted=bool(aborted[i]))
            for i in range(n_traj)]


def rejection_fraction(trajectories, sde_cfg):
    """Rejected proposals per trajectory-step: each redraw counts, so it can
    exceed 1 (156 on the annulus 1 < r < 1.000001)."""
    total = sum(t.rejected_steps for t in trajectories)
    return total / (sde_cfg.steps * sde_cfg.n_trajectories)


# ---------------------------------------------------------------------------
# Radial target distribution and goodness-of-fit statistics.
# ---------------------------------------------------------------------------

def _trapezoid_cdf(r, pdf):
    """Running trapezoid integral of pdf over the grid r, from 0 (not
    normalized)."""
    return np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * np.diff(r))])


@lru_cache(maxsize=64)
def radial_target(state):
    """(r grid, pdf, cdf) for the radial marginal p(r) = 2 pi r rho(r) on
    8193 points; built once per state and read-only."""
    cfg = state.cfg
    rg = np.linspace(cfg.a, cfg.b, 8193)
    pdf = 2.0 * np.pi * rg * state.radial_density(rg)
    cdf = _trapezoid_cdf(rg, pdf)
    pdf = pdf / cdf[-1]
    cdf = cdf / cdf[-1]
    rg.flags.writeable = pdf.flags.writeable = cdf.flags.writeable = False
    return rg, pdf, cdf


def target_radial_sampler(state, stream, count):
    """Direct draws from the radial marginal by inverse CDF (the oracle
    sampler used to calibrate the goodness-of-fit statistics)."""
    rg, _, cdf = radial_target(state)
    u = stream.uniforms(count)
    return np.interp(u, cdf, rg)


def chi2_thin(sde_cfg):
    """Stride between chi-square samples: about 20 time units, so they are
    near independent, but short runs keep at least 400 of their pooled
    samples, enough to bin (their p-values are descriptive only)."""
    pooled = sde_cfg.n_trajectories * (sde_cfg.steps - sde_cfg.burn_in)
    return max(1, int(round(min(20.0 / sde_cfg.dt, pooled // 400))))


def _chi2_on_counts(samples, bins, thin, edges):
    """{chi2, p_value} of the samples thinned by `thin` against equal
    expected counts in the bins edges(nbins) delimits, where nbins is `bins`
    shrunk until every bin expects at least 20 samples."""
    thinned = samples[::thin]
    nbins = int(min(bins, thinned.size // 20))
    if nbins < 2:
        raise ValueError("too few thinned samples for a chi-square")
    counts, _ = np.histogram(thinned, bins=edges(nbins))
    expected = thinned.size / nbins
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return {"chi2": chi2, "p_value": chi2_sf(chi2, nbins - 1)}


def _ks_sup(samples, rg, cdf):
    """KS sup distance of the samples from the CDF tabulated on rg."""
    xs = np.sort(np.asarray(samples, dtype=float))
    f = np.interp(xs, rg, cdf)
    n = xs.size
    above = np.abs(np.arange(1, n + 1) / n - f).max()
    below = np.abs(f - np.arange(0, n) / n).max()
    return float(max(above, below))


def stationarity_test(trajectories, state, bins=40, thin=1):
    """{ks_distance, chi2, p_value} for the radial marginal.

    KS uses every pooled sample.  The chi-square uses equal-probability bins
    (expected count >= 20 enforced by shrinking the bin count) on samples
    thinned by `thin`; for Markov-chain input choose `thin` near the chain's
    correlation time, otherwise the chi-square calibration is meaningless.
    """
    radii = np.concatenate([t.radii() for t in trajectories])
    if radii.size < _MIN_POOLED:
        raise ValueError("need at least 1e4 pooled samples")
    rg, _, cdf = radial_target(state)
    ks = _ks_sup(radii, rg, cdf)
    chi2 = _chi2_on_counts(
        radii, bins, thin,
        lambda nbins: np.interp(np.linspace(0.0, 1.0, nbins + 1), cdf, rg))
    return {"ks_distance": ks, **chi2}


def angular_uniformity_test(trajectories, bins=16, thin=1):
    """Chi-square of the pooled (thinned) angles against the uniform law."""
    return _chi2_on_counts(
        np.concatenate([t.angles() for t in trajectories]), bins, thin,
        lambda nbins: np.linspace(-np.pi, np.pi, nbins + 1))


def ergodic_angular_momentum(trajectories, state, thin=1):
    """Ensemble/time average of M r v_quasi,theta over retained samples,
    with the standard error across trajectory means.

    `thin` strides the retained samples before averaging; consecutive
    positions are strongly correlated, so moderate thinning changes the
    estimate only at the noise level while cutting the evaluation cost.
    The thinned positions of all trajectories are decomposed together, in
    chunks of _ERGODIC_CHUNK points, and each trajectory's mean is taken
    over its slice.
    """
    cfg = state.cfg
    A = solenoid_potential(cfg)
    thinned = [t.positions[::thin] for t in trajectories]
    pts = np.concatenate(thinned)
    lz = np.empty(len(pts))
    for lo in range(0, len(pts), _ERGODIC_CHUNK):
        chunk = pts[lo:lo + _ERGODIC_CHUNK]
        dec = decompose(state, A, cfg, chunk)
        lz[lo:lo + len(chunk)] = cfg.mass * _moment_z(dec.v_quasi, chunk)
    bounds = np.cumsum([0] + [len(x) for x in thinned])
    means = np.array([float(np.sum(lz[lo:hi])) / (hi - lo)
                      for lo, hi in zip(bounds[:-1], bounds[1:])])
    value = float(means.mean())
    stderr = float(means.std(ddof=1) / np.sqrt(len(means))) if len(means) > 1 else 0.0
    return {"value": value, "stderr": stderr}


def run_statistics(trajectories, state, sde_cfg):
    """What a sampler run reports, `check` and `trajectories` alike: the
    ergodic L_z over every 8th retained sample with its stderr, the
    rejection fraction and the aborted count; with at least 1e4 pooled
    samples, the radial KS distance and chi-square (40 bins) and the angular
    chi-square p-value (16 bins), both thinned by `chi2_thin`; with fewer,
    a `skipped` note."""
    erg = ergodic_angular_momentum(trajectories, state, thin=8)
    out = {"ergodic_Lz": erg["value"], "ergodic_Lz_stderr": erg["stderr"],
           "rejection_fraction": rejection_fraction(trajectories, sde_cfg),
           "aborted": sum(t.aborted for t in trajectories)}
    if sum(len(t.positions) for t in trajectories) < _MIN_POOLED:
        out["skipped"] = ("fewer than 1e4 pooled samples; goodness-of-fit "
                          "not meaningful")
        return out
    thin = chi2_thin(sde_cfg)
    stat = stationarity_test(trajectories, state, bins=40, thin=thin)
    ang = angular_uniformity_test(trajectories, bins=16, thin=thin)
    out.update({"ks_distance": stat["ks_distance"], "chi2": stat["chi2"],
                "chi2_p_value": stat["p_value"],
                "angular_chi2_p_value": ang["p_value"]})
    return out
