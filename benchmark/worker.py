"""The timed process of one benchmark run.

    python3 benchmark/worker.py --workload NAME --seed N --seconds S
                                --mode setup|run [--trace 0|1] [--spans PATH]

It imports numpy and abtool and nothing else that computes.  `--mode setup`
measures set-up alone and exits.  `--mode run` sets up, runs the workload's
operations with each one timed, and prints one JSON object: the operation
times, the pace samples taken between them (see `pace`), the work done, peak
memory and what the out-of-process oracle needs to check the outputs.  With `--trace 1` it also records spans around abtool's
layers and reports their totals and the workload's counters, from which
run.py builds the per-layer metrics, instead of caring about speed.

Inputs come from the seed alone and the number of operations from the
workload and `--seconds` alone, so every run with the same arguments does the
same work.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Acceptance grid of `abtool check`: lambda outer, then m, then n.
GRID_LAMBDA = (0.0, -0.5, 0.25)
GRID_M = (-2, -1, 0, 1, 2)
GRID_N = (1, 2)

SDE_DT = 1e-3
SDE_STEPS = 2000
SDE_BURN_IN = 1000
SDE_TRAJECTORIES = 64
ERGODIC_THIN = 8

FIELD_BATCHES = (10_000, 30_000, 100_000)
FIELD_MARGIN = 1e-3          # share of b - a kept clear of each wall
FIELD_SUBSAMPLE = 4          # points per operation handed to the oracle

RADIAL_BINS = 16384          # histogram of sampled radii for the KS check

# Near a node Im(psi* grad psi) / rho picks up float64 rounding from the
# radial gradient, about eps * M r |Re xi| in M r v_quasi,theta.  The L_z
# check allows this many times that on top of its fixed tolerance.
LZ_ROUNDING_EPS = 4


PACE_SMALL = np.linspace(0.1, 3.0, 64)
PACE_LARGE = np.linspace(0.1, 3.0, 60_000)
_PACE_BUF = (np.empty_like(PACE_SMALL), np.empty_like(PACE_LARGE))


def pace():
    """Seconds taken by a fixed computation that does not use abtool: 300
    ufunc steps on 64 points in a Python loop, like the sampler's and the
    quadrature's steps, then a few passes over 60000 points, like
    `field_batches`.  About 2 ms.  The machine's speed drifts by up to 2x
    within seconds; run.py rescales each operation time by the pace measured
    around it, so that the metrics follow abtool and not the machine.

    It writes only into its own buffers: a pace that allocated its arrays
    would run 20% faster once the process had freed large arrays (malloc
    then serves them without fresh pages), so it would follow what abtool
    allocated."""
    small, large = _PACE_BUF
    t = time.perf_counter()
    np.copyto(small, PACE_SMALL)
    for _ in range(300):
        np.sin(small, out=small)
        np.square(small, out=small)
        np.add(small, 1.0, out=small)
        np.sqrt(small, out=small)
    np.multiply(PACE_LARGE, -PACE_LARGE[0], out=large)
    np.exp(large, out=large)
    np.sin(large, out=large)
    np.multiply(large, PACE_LARGE, out=large)
    return time.perf_counter() - t


def grid_states(annulus):
    for lam in GRID_LAMBDA:
        cfg = annulus.AnnulusConfig(B=-2.0 * lam)   # lambda = -B a^2 / 2 with a = 1
        for m in GRID_M:
            for n in GRID_N:
                yield annulus.eigenstate(cfg, m, n)


def state_record(state):
    cfg = state.cfg
    return {"m": state.m, "n": state.n, "lam": state.lam, "nu": state.nu,
            "tau": state.tau, "k": state.k, "norm": state.norm,
            "a": cfg.a, "b": cfg.b, "hbar": cfg.hbar, "mass": cfg.mass}


def warm(madelung, annulus, state):
    """One decomposition on two points: fills the Bessel coefficient caches
    for nu and nu + 1 that every operation reads."""
    cfg = state.cfg
    r = np.array([cfg.a + 0.3 * cfg.d, cfg.a + 0.7 * cfg.d])
    pts = np.stack([r, np.zeros_like(r)], axis=-1)
    madelung.decompose(state, annulus.solenoid_potential(cfg), cfg, pts)


class Trajectories:
    """`sde.simulate` on (m, n) = (1, 1) at lambda = -1/2 with 64
    trajectories, then the statistics `check` computes on its output."""

    unit = "trajectory-steps"
    round_seconds = 0.33

    def setup(self, seed, rounds):
        from abtool import annulus, madelung, sde
        self.sde = sde
        self.state = annulus.eigenstate(annulus.AnnulusConfig(), 1, 1)
        warm(madelung, annulus, self.state)
        self.seeds = [int(s) for s in np.random.SeedSequence(seed).generate_state(
            rounds, dtype=np.uint64)]
        cfg = self.state.cfg
        self.edges = np.linspace(cfg.a, cfg.b, RADIAL_BINS + 1)
        self.counts = np.zeros(RADIAL_BINS, dtype=np.int64)
        self.r_min, self.r_max = np.inf, -np.inf
        self.aborted = 0
        self.rejected = 0
        self.ergodic = []
        self.recorded = 0
        self.first = None            # first operation that did not fail
        self.digest = None
        self.retained_mb = 0.0
        pooled = SDE_TRAJECTORIES * (SDE_STEPS - SDE_BURN_IN)
        self.thin = max(1, min(int(round(20.0 / SDE_DT)), pooled // 400))

    def operations(self):
        return list(range(len(self.seeds)))

    def config(self, i):
        return self.sde.SdeConfig(dt=SDE_DT, steps=SDE_STEPS, burn_in=SDE_BURN_IN,
                                  n_trajectories=SDE_TRAJECTORIES, seed=self.seeds[i])

    def run(self, i):
        sde = self.sde
        trajectories = sde.simulate(self.state, self.config(i))
        stat = sde.stationarity_test(trajectories, self.state, bins=40, thin=self.thin)
        erg = sde.ergodic_angular_momentum(trajectories, self.state, thin=ERGODIC_THIN)
        return trajectories, stat, erg

    def work(self, i):
        return SDE_STEPS * SDE_TRAJECTORIES

    @staticmethod
    def _digest(trajectories):
        h = hashlib.sha256()
        for t in trajectories:
            h.update(t.positions.tobytes())
        return h.hexdigest()

    def record(self, i, out):
        trajectories, _, erg = out
        radii = np.concatenate([t.radii() for t in trajectories])
        self.counts += np.histogram(radii, bins=self.edges)[0]
        self.r_min = min(self.r_min, float(radii.min()))
        self.r_max = max(self.r_max, float(radii.max()))
        self.aborted += sum(t.aborted for t in trajectories)
        self.rejected += sum(t.rejected_steps for t in trajectories)
        self.ergodic.append(erg["value"])
        self.retained_mb = sum(t.positions.nbytes for t in trajectories) / 1e6
        self.recorded += 1
        if self.first is None:
            self.first = i
            self.digest = self._digest(trajectories)

    def finish(self):
        """Untimed: the first recorded operation again, which must repeat bit
        for bit.  Failed operations are left out of every figure."""
        again = (None if self.first is None else
                 self._digest(self.sde.simulate(self.state, self.config(self.first))))
        proposals = self.recorded * SDE_STEPS * SDE_TRAJECTORIES
        return {
            "state": state_record(self.state),
            "edges": [float(self.edges[0]), float(self.edges[-1]), RADIAL_BINS],
            "counts": self.counts.tolist(),
            "expected_samples": self.recorded * SDE_TRAJECTORIES
            * (SDE_STEPS - SDE_BURN_IN),
            "r_min": self.r_min, "r_max": self.r_max,
            "aborted": int(self.aborted),
            "ergodic_lz": self.ergodic,
            "repeat_identical": again is not None and again == self.digest,
        }, {
            "sde.rejected_steps": self.rejected,
            "sde.accept_ratio": proposals / max(1, proposals + self.rejected),
            "sde.retained_mb": self.retained_mb,
        }


class ObservablesGrid:
    """`angular_momenta` and `energy_decomposition` on each of the 30
    acceptance-grid states, in whole sweeps of a fixed order."""

    unit = "grid states"
    round_seconds = 7.4

    def setup(self, seed, rounds):
        from abtool import annulus, madelung
        self.annulus = annulus
        self.states = list(grid_states(annulus))
        for state in self.states:
            warm(madelung, annulus, state)
        self.rounds = rounds
        self.values = {}
        self.repeat_identical = True

    def operations(self):
        return [i for _ in range(self.rounds) for i in range(len(self.states))]

    def run(self, i):
        state = self.states[i]
        return (self.annulus.angular_momenta(state),
                self.annulus.energy_decomposition(state))

    def work(self, i):
        return 1

    def record(self, i, out):
        mom, energy = out
        values = [mom["total"], mom["canonical"], mom["osmotic"],
                  energy["rotational"], energy["radial"], energy["total"],
                  energy["residual"]]
        if i in self.values:
            self.repeat_identical &= self.values[i] == values
        else:
            self.values[i] = values

    def finish(self):
        """The states whose operation did not fail; a state that fails once
        fails in every sweep, so it has no values."""
        keys = ("total", "canonical", "osmotic", "rotational", "radial",
                "kinetic_total", "residual")
        return {
            "wall_margin": self.annulus.WALL_MARGIN_FRACTION,
            "states": [dict(state_record(s), **dict(zip(keys, self.values[i])))
                       for i, s in enumerate(self.states) if i in self.values],
            "repeat_identical": self.repeat_identical,
        }, {}


class FieldBatches:
    """`madelung.decompose` on batches of 1e4, 3e4 and 1e5 random annulus
    points for each of the 30 acceptance-grid states."""

    unit = "points"
    round_seconds = 2.0

    def setup(self, seed, rounds):
        from abtool import annulus, madelung
        self.madelung = madelung
        self.states = list(grid_states(annulus))
        self.potentials = [annulus.solenoid_potential(s.cfg) for s in self.states]
        for state in self.states:
            warm(madelung, annulus, state)
        self.seed = seed
        self.ops = [(i, size) for _ in range(rounds)
                    for i in range(len(self.states)) for size in FIELD_BATCHES]
        self.worst_dot = 0.0
        self.worst_lz = 0.0
        self.sample = []

    def operations(self):
        return list(range(len(self.ops)))

    def prepare(self, op):
        """Untimed: the operation's points, from (seed, operation index)."""
        i, size = self.ops[op]
        cfg = self.states[i].cfg
        rng = np.random.default_rng([self.seed, op])
        u = rng.random((2, size))
        margin = FIELD_MARGIN * cfg.d
        r = cfg.a + margin + (cfg.d - 2.0 * margin) * u[0]
        th = 2.0 * np.pi * u[1]
        self.rng = rng
        self.pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=-1)

    def run(self, op):
        i, _ = self.ops[op]
        state = self.states[i]
        return self.madelung.decompose(state, self.potentials[i], state.cfg, self.pts)

    def work(self, op):
        return self.ops[op][1]

    def record(self, op, dec):
        i, size = self.ops[op]
        state, pts = self.states[i], self.pts
        cfg = state.cfg
        dots = np.abs(np.sum(dec.gamma * dec.delta, axis=-1))
        self.worst_dot = max(self.worst_dot, float(dots.max()))
        r = np.hypot(pts[:, 0], pts[:, 1])
        v_th = (-pts[:, 1] * dec.v_quasi[:, 0] + pts[:, 0] * dec.v_quasi[:, 1]) / r
        lz = cfg.mass * r * v_th
        target = cfg.hbar * (state.m + state.lam)
        rounding = (LZ_ROUNDING_EPS * np.finfo(float).eps * cfg.mass * r
                    * np.hypot(dec.xi_real[:, 0], dec.xi_real[:, 1]))
        excess = np.abs(lz - target) - rounding
        self.worst_lz = max(self.worst_lz, float(excess.max()))
        for j in self.rng.choice(size, FIELD_SUBSAMPLE, replace=False):
            self.sample.append([i, float(pts[j, 0]), float(pts[j, 1]),
                                float(dec.rho[j]), float(dec.xi_real[j, 0]),
                                float(dec.xi_real[j, 1])])
        self.pts = None

    def finish(self):
        return {
            "states": [state_record(s) for s in self.states],
            "worst_gamma_dot_delta": self.worst_dot,
            "worst_lz_excess": self.worst_lz,
            "sample": self.sample,
        }, {}


WORKLOADS = {
    "trajectories_64": Trajectories,
    "observables_grid": ObservablesGrid,
    "field_batches": FieldBatches,
}


def rounds_for(workload, seconds):
    return max(1, int(round(seconds / workload.round_seconds)))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file for the recorded spans (.npz)")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    rounds = rounds_for(workload, args.seconds)
    tracer = None
    sys.path.insert(0, str(SRC))
    pace()
    setup_paces = [pace() for _ in range(3)]
    t0 = time.perf_counter()
    import abtool   # set-up starts at abtool's import, after numpy's
    if Path(abtool.__file__).resolve().parent != SRC / "abtool":
        print(f"abtool imported from {abtool.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    if args.trace:
        sys.path.insert(0, str(HERE))
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    workload.setup(args.seed, rounds)
    setup_s = time.perf_counter() - t0
    setup_paces += [pace() for _ in range(3)]
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "pace_s": statistics.median(setup_paces)}))
        return 0

    # paces[i] is taken just before timed operation i, and the last one after
    # the last operation, so operation i lies between paces[i] and paces[i + 1].
    times, paces, work, failed = [], [], 0, 0
    prepare = getattr(workload, "prepare", None)
    for op in workload.operations():
        if prepare:
            prepare(op)
        before = pace()
        t = time.perf_counter()
        try:
            out = workload.run(op)
        except Exception as exc:   # a failed operation is counted, not fatal
            failed += 1
            print(f"operation {op} failed: {exc!r}", file=sys.stderr)
            continue
        times.append(time.perf_counter() - t)
        paces.append(before)
        work += workload.work(op)
        if tracer:
            tracer.uninstall()
        workload.record(op, out)
        if tracer:
            tracer.install()
        del out

    paces.append(pace())
    if tracer:
        tracer.uninstall()
    checks, counters = workload.finish()
    result = {
        "attempted": len(times) + failed,
        "failed": failed,
        "setup_s": setup_s,
        "op_times": times,
        "paces": paces,
        "work": work,
        "unit": workload.unit,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "foreign_imports": sorted(m for m in ("scipy", "mpmath") if m in sys.modules),
        "checks": dict(checks, workload=args.workload),
    }
    if tracer:
        result["span_totals"] = tracer.totals()
        result["counters"] = counters
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
