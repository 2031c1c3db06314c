"""Steadiness of the benchmark: two sets of runs on one commit, compared.

    python3 benchmark/steadiness.py [--first-seed 1] [--overhead K]

Each set runs every workload 10 times, each run with its own seed, the
workloads interleaved.  For each workload and end-to-end metric it prints
each set's median and quartiles (`statistics.quantiles(n=4)`), the
quartile spread as a share of the median, and how far set 2's median is
worse than set 1's (negative when better), both against the bound from
BENCHMARK.json.  `--overhead K` adds K traced runs per workload and prints
traced work_per_s over set 1's untraced work_per_s.  Everything is also
written to .bench_out/steadiness.json.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    for line in proc.stderr.splitlines():
        if line.startswith("check failed:"):
            print(f"{workload} seed {seed}: {line}", flush=True)
    lines = proc.stdout.strip().splitlines()
    summary = next(json.loads(l[len("# summary "):]) for l in lines
                   if l.startswith("# summary "))
    return json.loads(lines[-1]), summary


def quartiles(runs, name):
    q1, med, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in runs], n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--overhead", type=int, default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    runs = {w: ([], []) for w in workloads}
    seed = args.first_seed
    for s in (0, 1):
        for _ in range(RUNS):
            for w in workloads:
                out, summary = one_run(w, seed, seconds, 0)
                runs[w][s].append(dict(out, seed=seed, oracle=summary["oracle"]))
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in out["metrics"].items()),
                    flush=True)
                seed += 1

    report = {"run_seconds": seconds, "runs_per_set": RUNS, "workloads": {}}
    print(f"\n{'workload':17} {'metric':12} "
          f"{'set 1 median [q1, q3] spread':>44} {'set 2 median [q1, q3] spread':>44}"
          f" {'gap':>7} {'bound':>6}  verdict")
    for w in workloads:
        first, second = runs[w]
        rep = report["workloads"][w] = {"metrics": {}}
        rep["failed_share"] = [sorted({r["failed"] / r["attempted"] for r in first}),
                               sorted({r["failed"] / r["attempted"] for r in second})]
        rep["all_correct"] = all(r["correct"] for r in first + second)
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            one, two = quartiles(first, name), quartiles(second, name)
            sign = 1.0 if m["better"] == "lower" else -1.0
            gap = sign * (two["median"] - one["median"]) / one["median"]
            ok = gap <= bound and (name == "setup_s" or
                                   max(one["spread"], two["spread"]) <= bound)
            rep["metrics"][name] = {"sets": [one, two], "gap": gap, "bound": bound,
                                    "ok": ok}
            cols = " ".join(f"{st['median']:>12.5g} [{st['q1']:.5g}, {st['q3']:.5g}] "
                            f"{st['spread']:6.3f}" for st in (one, two))
            print(f"{w:17} {name:12} {cols} {gap:7.3f} {bound:6.3f}  "
                  f"{'ok' if ok else 'OUT OF BOUND'}")
        print(f"{w:17} correct in every run: {rep['all_correct']}; "
              f"failed share per set: {rep['failed_share']}")

    if args.overhead:
        print("\ntracing overhead (traced work_per_s / untraced work_per_s):")
        for w in workloads:
            traced = [one_run(w, args.first_seed + i, seconds, 1)[1]["work_per_s"]
                      for i in range(args.overhead)]
            plain = statistics.median(r["metrics"]["work_per_s"]["value"]
                                      for r in runs[w][0])
            ratio = statistics.median(traced) / plain
            report["workloads"][w]["trace_ratio"] = ratio
            print(f"{w:17} {ratio:.3f}  (traced median {statistics.median(traced):.6g}, "
                  f"untraced median {plain:.6g})")

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / "steadiness.json").write_text(json.dumps(
        {"report": report, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
