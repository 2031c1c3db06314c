"""Span recorder for the traced benchmark run.

The recorder replaces abtool's public functions, and the module-level names
through which its layers call each other, with wrappers that record one span
per call: name, start, end, parent span and a work count (points, steps).
Spans stay in memory until the run ends.  Nothing here changes what abtool
computes; `uninstall` puts every original object back, and `install` the
wrappers again, so the benchmark can pause recording while it checks outputs.
"""
from __future__ import annotations

import time
from array import array

import numpy as np


def _points_of(pos):
    """Work count read from the positional argument at index `pos`."""
    return lambda args, kwargs: int(np.size(args[pos]))


def _decompose_points(args, kwargs):
    p = np.asarray(args[3])
    return int(p.size // p.shape[-1]) if p.ndim else 1


def _normals_count(args, kwargs):
    return int(args[1])


def _simulate_steps(args, kwargs):
    return int(args[1].steps)


def targets():
    """(span name, [(owner, attribute)], work count) for every wrapped call.

    The owners are the module globals and class attributes that callers look
    up at call time, so a call from one layer into another passes through the
    wrapper whichever module made it.
    """
    from abtool import annulus, madelung, numerics, sde

    return [
        ("numerics.bessel_j",
         [(numerics, "bessel_j"), (annulus, "bessel_j")], _points_of(1)),
        ("numerics.bessel_j_pair",
         [(numerics, "bessel_j_pair"), (annulus, "bessel_j_pair")], _points_of(1)),
        ("numerics.bessel_j_zero",
         [(numerics, "bessel_j_zero"), (annulus, "bessel_j_zero")], None),
        ("numerics.integrate_1d",
         [(numerics, "integrate_1d"), (madelung, "integrate_1d"),
          (annulus, "integrate_1d")], None),
        ("numerics.RandomStream.normals",
         [(numerics.RandomStream, "normals")], _normals_count),
        ("annulus.eigenstate", [(annulus, "eigenstate")], None),
        ("annulus.radial_parts", [(annulus.ABState, "radial_parts")], _points_of(1)),
        ("annulus.angular_momenta", [(annulus, "angular_momenta")], None),
        ("annulus.energy_decomposition", [(annulus, "energy_decomposition")], None),
        ("madelung.decompose",
         [(madelung, "decompose"), (annulus, "decompose"), (sde, "decompose")],
         _decompose_points),
        ("madelung.AnnulusDomain.integrate",
         [(madelung.AnnulusDomain, "integrate")], None),
        ("sde.simulate", [(sde, "simulate")], _simulate_steps),
        ("sde.stationarity_test", [(sde, "stationarity_test")], None),
        ("sde.ergodic_angular_momentum", [(sde, "ergodic_angular_momentum")], None),
    ]


class Tracer:
    """In-memory spans; `outer` marks a span with no ancestor of its name."""

    def __init__(self):
        self.names = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.work = array("q")
        self.outer = array("b")
        self._stack = [-1]
        self._depth = []
        self._patches = []
        for span_name, owners, count in targets():
            nid = len(self.names)
            self.names.append(span_name)
            self._depth.append(0)
            for owner, attr in owners:
                original = owner.__dict__[attr]
                self._patches.append(
                    (owner, attr, original, self._wrap(nid, original, count)))

    def _wrap(self, nid, fn, count):
        start, end, name, parent = self.start, self.end, self.name, self.parent
        work, outer, stack, depth = self.work, self.outer, self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            work.append(count(args, kwargs) if count else 0)
            outer.append(depth[nid] == 0)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            depth[nid] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                depth[nid] -= 1
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def arrays(self):
        """Spans as numpy arrays, with durations and self times."""
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": start, "end": end, "parent": parent,
                "work": np.frombuffer(self.work, dtype=np.int64),
                "outer": np.frombuffer(self.outer, dtype=np.int8).astype(bool),
                "duration": dur, "self": dur - child}

    def totals(self):
        """{span name: {calls, work, s, self_s}}; `s` sums only outer spans,
        so a call nested in one of the same name is not counted twice."""
        sp = self.arrays()
        out = {}
        for nid, span_name in enumerate(self.names):
            sel = sp["name"] == nid
            out[span_name] = {
                "calls": int(sel.sum()),
                "work": int(sp["work"][sel].sum()),
                "s": float(sp["duration"][sel & sp["outer"]].sum()),
                "self_s": float(sp["self"][sel].sum()),
            }
        return out

    def save(self, path):
        sp = self.arrays()
        np.savez(path, names=np.array(self.names), name=sp["name"],
                 start=sp["start"], end=sp["end"], parent=sp["parent"],
                 work=sp["work"])
