"""Reproducible random variates: counter-based Philox keyed by
(seed, stream_id) supplies uniforms; normals come from a Box-Muller transform
on top, one pair per pair of uniforms (so `normals` takes even counts), and
the variate construction is fixed by this module, not by numpy internals.
`NormalBlock` draws the normals of many streams at once, bit for bit what
each stream's `normals` would give.

numpy.random (about 6 MB of memory and 12-14 ms to import on a 2-core
Xeon) loads when the first RandomStream is built, not with this module, so a run that never
samples does without it.
"""
from __future__ import annotations

import numpy as np


class RandomStream:
    """Deterministic stream of variates identified by (seed, stream_id).

    seed and stream_id are integers in [0, 2**64).  Streams with the same
    key always reproduce the same sequence; distinct stream_ids are
    statistically independent.  Each worker should own its own instance
    (value semantics, nothing shared).
    """

    def __init__(self, seed, stream_id=0):
        from numpy.random import Generator, Philox
        # one uint64 word each; a list would hold an int >= 2**63 as float64
        key = np.array([int(seed), int(stream_id)], dtype=np.uint64)
        self._gen = Generator(Philox(key=key))

    def normals(self, count):
        """`count` standard normal variates, count even: Box-Muller on
        consecutive pairs of Philox uniforms."""
        if count < 2 or count % 2:
            raise ValueError(f"count must be even and >= 2, got {count}")
        z = self._gen.random(count)
        _box_muller(z, z.view(complex), *np.empty((3, count // 2)))
        return z

    def uniforms(self, count):
        """`count` uniforms on [0, 1)."""
        if count < 1:
            raise ValueError("count must be >= 1")
        return self._gen.random(count)


def _box_muller(u, out, radius, angle, cos):
    """Box-Muller on pairs of consecutive uniforms along u's last axis:
    out[..., j] = z0 + 1j z1 from u[..., 2j] and u[..., 2j + 1].

    Pairing consecutive uniforms makes a stream's normals independent of how
    its draws are batched.  u is read in full before out is written, so out
    may be u's own memory viewed as complex.  radius, angle and cos are
    contiguous scratch of out's shape: log, cos and sin see contiguous
    operands, so they take the same numpy loops, and give the same bits, for
    a single stream and for a block of them."""
    np.subtract(1.0, u[..., 0::2], radius)   # (0, 1]; log never sees zero
    np.log(radius, radius)
    np.multiply(-2.0, radius, radius)
    np.sqrt(radius, radius)
    np.multiply(2.0 * np.pi, u[..., 1::2], angle)
    np.cos(angle, cos)
    np.multiply(radius, cos, out.real)
    np.sin(angle, angle)
    np.multiply(radius, angle, out.imag)


class NormalBlock:
    """Standard normals from several RandomStreams at once, one row per
    stream.

    `draw(count)` returns the next `count` normals x of stream i as row i
    of pairs x[2j] + 1j x[2j + 1], bit for bit the x of that stream's
    `normals(count)`: each row's uniforms come from its stream's Philox
    generator, and one Box-Muller pass covers every row, writing the
    normals over the uniforms.  That buffer and the transform's scratch, up
    to `max_count` normals a row, are kept from call to call.
    """

    def __init__(self, streams, max_count):
        self.streams = list(streams)
        self._max = int(max_count)
        rows = len(self.streams)
        self._u = np.empty(rows * self._max)
        self._work = np.empty((3, rows * (self._max // 2)))

    def draw(self, count):
        """Complex normals of shape (streams, count / 2); a view of the
        block's buffer, overwritten by the next draw."""
        if count % 2 or not 0 < count <= self._max:
            raise ValueError(f"count must be even and in (0, {self._max}]")
        rows, pairs = len(self.streams), count // 2
        u = self._u[:rows * count].reshape(rows, count)
        for row, stream in zip(u, self.streams):
            stream._gen.random(out=row)
        out = u.view(complex)
        _box_muller(u, out, *(w[:rows * pairs].reshape(rows, pairs)
                              for w in self._work))
        return out
