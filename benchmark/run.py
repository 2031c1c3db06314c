"""abtool benchmark: one run of one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports abtool from ./src).  A
run is three kinds of fresh process, each with one thread:

* seven set-up processes, which time `import abtool` plus the workload's
  state construction and cache warming; `setup_s` is their median;
* the timed process (worker.py), which sets up and then runs the workload's
  operations, timing each one;
* the oracle (oracle.py), which checks the timed process's outputs with
  scipy and mpmath, so neither library is loaded where time and memory are
  measured.

Every time in the metrics is rescaled to a reference speed of the machine:
the timed processes time a fixed pace computation (worker.pace) around each
operation and around set-up, and a time t measured where the pace took p
seconds is reported as t * PACE_REF_S / p.  The machine this benchmark was
built on changes speed by up to 2x within seconds; the rescaling cancels
that drift and leaves what abtool itself costs.  The raw figures are in the
`# summary` line.

The last line of standard output is one JSON object {correct, attempted,
failed, metrics}: the end-to-end metrics with `--trace 0`, the per-layer
metrics of a span-traced run with `--trace 1`.  Spans are written to
.bench_out/.  Any error exits non-zero without that line.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 7
# The pace computation's typical time on the reference machine (2 cores,
# Python 3.11, numpy 2.4), where it read 1.1 to 2.0 ms; it fixes only the
# unit of the rescaled times.
PACE_REF_S = 1.6e-3


class RunError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PYTHONPATH", None)
    return env


def call(cmd, deadline, stdin=None):
    """Run a child to completion; its last stdout line parsed as JSON."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise RunError("out of time")
    try:
        proc = subprocess.run(cmd, input=stdin, capture_output=True, text=True,
                              timeout=left, env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise RunError(f"timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise RunError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RunError(f"{' '.join(cmd)} printed nothing:\n{proc.stderr}")
    return json.loads(lines[-1])


def paced(result):
    """Operation times rescaled to the reference speed, each by the mean of
    the paces taken just before and just after it."""
    p = result["paces"]
    return [t * PACE_REF_S / (0.5 * (p[i] + p[i + 1]))
            for i, t in enumerate(result["op_times"])]


def end_to_end(result, setups):
    times = paced(result)
    _, p50, p75 = statistics.quantiles(times, n=4, method="inclusive")
    return {
        "setup_s": statistics.median(s["setup_s"] * PACE_REF_S / s["pace_s"]
                                     for s in setups),
        "work_per_s": result["work"] / sum(times),
        "op_p50_s": p50,
        "op_p75_s": p75,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(spec, totals, counters):
    """The per-layer metrics named in `spec`.  `<span>.<calls|s|self_s>` and
    `<span>.points` (the span's work count) come from the span totals,
    `<span>.us_per_<unit>` is microseconds per unit of work, and a name
    whose prefix is no span is a workload counter, 0 where the workload has
    none (the sampler's counters on the other workloads)."""
    out = {}
    for m in spec:
        name = m["name"]
        span, key = name.rsplit(".", 1)
        if span not in totals:
            value = counters.get(name, 0)
        elif key.startswith("us_per_"):
            t = totals[span]
            value = 1e6 * t["s"] / t["work"] if t["work"] else 0.0
        else:
            value = totals[span]["work" if key == "points" else key]
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def run(args):
    # A run is the timed process (about --seconds), the oracle and the set-up
    # processes; three times --seconds plus a margin leaves room for a slow
    # machine and still fails a hung child.
    deadline = time.monotonic() + 3 * args.seconds + 80
    if not (ROOT / "src" / "abtool" / "__init__.py").is_file():
        raise RunError(f"no abtool sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    run_cmd = base + ["--mode", "run", "--trace", str(args.trace)]
    if args.trace:
        OUT.mkdir(exist_ok=True)
        run_cmd += ["--spans", str(OUT / f"spans-{args.workload}-{args.seed}.npz")]
    # The timed process goes first, so set-up is measured with bytecode cached.
    result = call(run_cmd, deadline)
    if result["attempted"] < 1:
        raise RunError("no operation attempted")
    if len(result["op_times"]) < 2:
        raise RunError(f"{result['failed']} of {result['attempted']} operations "
                       "failed, too few left to time")
    verdict = call([sys.executable, str(HERE / "oracle.py")], deadline,
                   stdin=json.dumps(result["checks"]))
    if result["foreign_imports"]:
        verdict["correct"] = False
        verdict["failures"].append(
            f"timed process imported {', '.join(result['foreign_imports'])}")
    for line in verdict["failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    raw = result["op_times"]
    print("# summary " + json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "operations": result["attempted"], "unit": result["unit"],
        "work_per_s": result["work"] / sum(paced(result)),
        "raw_work_per_s": result["work"] / sum(raw),
        "raw_op_p50_s": statistics.median(raw),
        "median_pace_s": statistics.median(result["paces"]),
        "oracle": verdict["details"]}))

    if args.trace:
        metrics = per_layer(spec["per_layer"], result["span_totals"],
                            result["counters"])
    else:
        setups = [call(base + ["--mode", "setup"], deadline)
                  for _ in range(SETUP_SAMPLES)]
        values = end_to_end(result, setups)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": bool(verdict["correct"]), "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one abtool benchmark workload.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        out = run(args)
    except (RunError, json.JSONDecodeError, KeyError, OSError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
