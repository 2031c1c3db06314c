"""Set-up cost of a fresh abtool process.

    python tests/setup_cost.py [--runs N]

Runs N fresh interpreters (default 7) on the `src` tree beside this file and
prints the best of each number over them:

- `import abtool` (numpy already imported);
- building the 30 states of the acceptance grid
  (`checks.GRID_LAMBDA` x `GRID_M` x `GRID_N`), the set-up of the
  `observables_grid` and `field_batches` benchmark workloads;
- a zero at n <= 2 and at n = 100: `bessel_j_zero(nu, n)` averaged over
  the 402 zeros nu = k/4 <= 50, n = 1, 2, then the 201 at n = 100, in a
  process whose zero cache is empty (it still holds what the grid filled in
  the other caches);
- a fresh `bessel_log_table(50, 100)`, its 100 zeros included, with the
  zero, Airy-zero and table caches emptied first: the set-up of a
  wide-window drift table at the top order;
- `airy_ai_zero(1..3)` with the Airy-zero cache emptied first, which
  `abtool models` and check 10 pay once a process;
- `airy_ai` on 200 points over check 7's window `wavepackets.AIRY_WINDOW`,
  [-8, 4] (the left expansion and the series).

Outside Tier-1: it times, it checks nothing.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PROBE = """
import json, time
import numpy
t = time.perf_counter()
import abtool
out = {"import abtool": time.perf_counter() - t}
from abtool import annulus, checks, numerics, wavepackets
t = time.perf_counter()
for lam in checks.GRID_LAMBDA:
    cfg = annulus.AnnulusConfig(B=-2.0 * lam)
    for m in checks.GRID_M:
        for n in checks.GRID_N:
            annulus.eigenstate(cfg, m, n)
out["30 grid states"] = time.perf_counter() - t
numerics._zero.cache_clear()
orders = [k / 4 for k in range(201)]
for label, ns in (("a zero at n <= 2", (1, 2)), ("a zero at n = 100", (100,))):
    t = time.perf_counter()
    for nu in orders:
        for n in ns:
            numerics.bessel_j_zero(nu, n)
    out[label] = (time.perf_counter() - t) / (len(orders) * len(ns))
for cache in (numerics._zero, numerics.airy_ai_zero, numerics.bessel_log_table):
    cache.cache_clear()
t = time.perf_counter()
numerics.bessel_log_table(50.0, 100)
out["table (50, 100)"] = time.perf_counter() - t
numerics.airy_ai_zero.cache_clear()
t = time.perf_counter()
for n in (1, 2, 3):
    numerics.airy_ai_zero(n)
out["Ai zeros 1..3"] = time.perf_counter() - t
xs = numpy.linspace(*wavepackets.AIRY_WINDOW, 200)
t = time.perf_counter()
numerics.airy_ai(xs)
out["Ai at 200 points"] = time.perf_counter() - t
print(json.dumps(out))
"""


def probe():
    out = subprocess.run([sys.executable, "-c", PROBE], check=True, text=True,
                         capture_output=True, env=dict(os.environ, PYTHONPATH=str(SRC)))
    return json.loads(out.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=7)
    runs = [probe() for _ in range(parser.parse_args(argv).runs)]
    print(f"best of {len(runs)} fresh processes, ms (median in brackets)")
    for key in runs[0]:
        times = sorted(1e3 * r[key] for r in runs)
        print(f"{key:18s} {times[0]:8.3f}  ({times[len(times) // 2]:.3f})")


if __name__ == "__main__":
    main()
